// Folds in hasher order: f64 addition is not associative, so the order a
// hashed collection yields its entries in would reach the total. The types
// are banned outright, and a `for` loop over one is flagged where it loops.
use std::collections::{BTreeMap, HashMap, HashSet}; //~ clippy::disallowed_types

pub fn weighted_total(by_kpi: HashMap<u32, f64>) -> f64 { //~ clippy::disallowed_types
    let mut total = 0.0;
    for (k, v) in &by_kpi { //~ clippy::iter_over_hash_type
        total += f64::from(*k) * v;
    }
    total
}

pub fn id_total(ids: &HashSet<u32>) -> f64 { //~ clippy::disallowed_types
    let mut total = 0.0;
    for id in ids { //~ clippy::iter_over_hash_type
        total += f64::from(*id);
    }
    total
}

// An ordered map folds in key order.
pub fn weighted_total_sorted(by_kpi: &BTreeMap<u32, f64>) -> f64 {
    let mut total = 0.0;
    for (k, v) in by_kpi {
        total += f64::from(*k) * v;
    }
    total
}
