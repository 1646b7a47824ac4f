// Hasher-ordered iteration feeding a report. The type itself is banned, so
// the ban fires wherever the type is named, its iterating methods too, and
// so does a `for` loop over one.
use std::collections::HashMap; //~ clippy::disallowed_types

pub fn render_totals(by_kpi: &HashMap<u32, f64>) -> String { //~ clippy::disallowed_types
    let mut out = String::new();
    for (k, v) in by_kpi { //~ clippy::iter_over_hash_type
        out.push_str(&format!("{k}: {v}\n"));
    }
    out.extend(by_kpi.keys().map(|k| format!("{k}\n"))); //~ clippy::disallowed_methods
    out
}

// Ordered iteration is the way.
pub fn render_sorted(by_kpi: &std::collections::BTreeMap<u32, f64>) -> String {
    by_kpi.iter().map(|(k, v)| format!("{k}: {v}\n")).collect()
}
