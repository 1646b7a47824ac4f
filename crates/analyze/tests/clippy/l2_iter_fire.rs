// Hasher-ordered iteration feeding a report. The type itself is banned, so
// the ban fires wherever the type is named, and its iterating methods too.
use std::collections::HashMap; //~ clippy::disallowed_types

pub fn render_totals(by_kpi: &HashMap<u32, f64>) -> String { //~ clippy::disallowed_types
    let mut out = String::new();
    for (k, v) in by_kpi {
        out.push_str(&format!("{k}: {v}\n"));
    }
    for k in by_kpi.keys() { //~ clippy::disallowed_methods
        out.push_str(&format!("{k}\n"));
    }
    out
}

// Ordered iteration is the way.
pub fn render_sorted(by_kpi: &std::collections::BTreeMap<u32, f64>) -> String {
    by_kpi.iter().map(|(k, v)| format!("{k}: {v}\n")).collect()
}
