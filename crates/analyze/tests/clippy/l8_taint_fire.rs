// Nondeterminism sources feeding a report: which thread ran the unit, and
// hasher order out of a HashMap. A site let off the type ban for point
// lookups still may not iterate one.
use std::collections::HashMap; //~ clippy::disallowed_types
use std::thread::{self, ThreadId}; //~ clippy::disallowed_types

pub fn worker_tag() -> String {
    format!("{:?}", thread::current().id()) //~ clippy::disallowed_methods
}

pub fn owner_tag(owner: ThreadId) -> String { //~ clippy::disallowed_types
    format!("{owner:?}")
}

pub fn render(by_kpi: &mut HashMap<u32, f64>) -> String { //~ clippy::disallowed_types
    let mut out: String = by_kpi.iter().map(|(k, v)| format!("{k}: {v}\n")).collect(); //~ clippy::disallowed_methods
    out.extend(by_kpi.keys().map(|k| format!("{k}\n"))); //~ clippy::disallowed_methods
    out.extend(by_kpi.values().map(|v| format!("{v}\n"))); //~ clippy::disallowed_methods
    by_kpi.values_mut().for_each(|v| *v += 1.0); //~ clippy::disallowed_methods
    by_kpi.iter_mut().for_each(|(_, v)| *v *= 2.0); //~ clippy::disallowed_methods
    out.extend(by_kpi.drain().map(|(k, _)| format!("{k}\n"))); //~ clippy::disallowed_methods
    out
}

pub fn split(
    keys: HashMap<u32, f64>, //~ clippy::disallowed_types
    values: HashMap<u32, f64>, //~ clippy::disallowed_types
) -> (Vec<u32>, Vec<f64>) {
    let keys = keys.into_keys().collect(); //~ clippy::disallowed_methods
    let values = values.into_values().collect(); //~ clippy::disallowed_methods
    (keys, values)
}

// A point lookup is not an iteration.
pub fn lookup(by_kpi: &HashMap<u32, f64>, kpi: u32) -> Option<f64> { //~ clippy::disallowed_types
    by_kpi.get(&kpi).copied()
}
