//! In-memory spans around the calls into each layer.
//!
//! The harness times layers from outside: a span is opened right before a
//! public function of a layer is called and closed right after it returns.
//! Spans stay in memory and are written out once, when the run ends. A
//! disabled tracer records nothing and reads no clock, so the untraced run
//! that produces the end-to-end metrics pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` indexes [`Tracer::spans`]; spans of one
/// operation (one data minute, one change, one tick) share `op`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
pub type SpanId = Option<u32>;

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `begin` returned. Spans close innermost first.
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Renames a closed span: the caller learned what the call did only
    /// from its result (e.g. whether `after_commit` wrote a checkpoint).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if let Some(id) = id {
            self.spans[id as usize].name = name;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Share of the operation spans' time (the spans with no parent) that
    /// the layer spans inside them account for.
    pub fn layer_time_share(&self) -> f64 {
        let (mut ops, mut layers) = (0.0, 0.0);
        for s in &self.spans {
            let ns = (s.end_ns - s.start_ns) as f64;
            if s.parent.is_some() {
                layers += ns;
            } else {
                ops += ns;
            }
        }
        layers / ops
    }

    /// Writes the spans as JSON: a name table and one
    /// `[name, start_ns, end_ns, parent, op]` row per span (`parent` is a
    /// row index, −1 for a root).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut names: Vec<&'static str> = Vec::new();
        let mut rows = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let name = match names.iter().position(|n| *n == s.name) {
                Some(p) => p,
                None => {
                    names.push(s.name);
                    names.len() - 1
                }
            };
            let parent = s.parent.map_or(-1, i64::from);
            if i > 0 {
                rows.push(',');
            }
            rows.push_str(&format!(
                "\n[{name},{},{},{parent},{}]",
                s.start_ns, s.end_ns, s.op
            ));
        }
        let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            file,
            "{{\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"op\"],\n\"names\": [{}],\n\"spans\": [{rows}\n]}}\n",
            names.join(", ")
        )?;
        file.flush()
    }
}

/// Per span name, the smallest summed duration among the traced passes of
/// a run — the layer's own cost, for the reason
/// [`crate::stats::floor_profile`] gives. Every pass records the same
/// spans, so counts come from any one tracer.
#[derive(Debug, Default)]
pub struct LayerFloor {
    total_ns: BTreeMap<&'static str, f64>,
}

impl LayerFloor {
    /// Takes in the spans of one more traced pass.
    pub fn absorb(&mut self, tracer: &Tracer) {
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in tracer.spans() {
            *totals.entry(s.name).or_default() += (s.end_ns - s.start_ns) as f64;
        }
        for (name, total) in totals {
            let floor = self.total_ns.entry(name).or_insert(f64::INFINITY);
            *floor = floor.min(total);
        }
    }

    /// Smallest summed duration of the spans called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_floor_keeps_the_cheapest_pass_per_name() {
        let mut floor = LayerFloor::default();
        for busy in [3_000_000u64, 0] {
            let mut t = Tracer::new(true);
            let id = t.begin("layer.a", 0);
            let until = t.now_ns() + busy;
            while t.now_ns() < until {}
            t.end(id);
            floor.absorb(&t);
        }
        assert!(floor.total_ns("layer.a") < 3_000_000.0);
        assert_eq!(floor.total_ns("layer.b"), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 1);
        t.end(id);
        assert!(id.is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let mut t = Tracer::new(true);
        let op = t.begin("op", 7);
        let a = t.begin("layer.a", 7);
        t.end(a);
        let b = t.begin("layer.a", 7);
        t.end(b);
        t.rename(b, "layer.b");
        t.end(op);
        assert_eq!(t.count("layer.a"), 1);
        assert_eq!(t.count("layer.b"), 1);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!((0.0..=1.0).contains(&t.layer_time_share()));
        let dir = std::env::current_dir().unwrap().join("out");
        let path = dir.join(format!("trace-test-{}.json", std::process::id()));
        t.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(text.contains("\"layer.b\""));
        assert!(text.contains(",0,7]"));
    }
}
