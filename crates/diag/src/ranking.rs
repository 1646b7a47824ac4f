//! Contribution ranking: where does the regression concentrate?
//!
//! Lumos-style hierarchical drill-down, flattened to one deterministic
//! table: every diagnosed (`Caused`) item with an effect estimate is
//! bucketed by `(entity class, zone, KPI kind)` and each bucket's share of
//! the total |α| mass is reported. Operators read the top rows as "the regression
//! lives in *these* instances / *this* zone / *this* KPI" and drill into
//! the per-item dossiers from there.

use crate::input::ItemInput;
use funnel_timeseries::stats::stable_sum;
use std::collections::BTreeMap;

/// One row of the contribution ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct ContributionRow {
    /// Entity class: "server", "instance", or "service".
    pub entity_class: String,
    /// Zone label ("zone0", …; "-" for entities without a zone).
    pub zone: String,
    /// KPI kind name.
    pub kind: String,
    /// Caused items in this bucket.
    pub items: usize,
    /// Summed |α| over the bucket's items (normalized units).
    pub weight: f64,
    /// `weight / Σ weight` across all buckets (0 when nothing was caused).
    pub share: f64,
}

/// Ranks `(entity class, zone, kind)` buckets by their share of the total
/// effect mass.
///
/// Determinism: items arrive in report (key) order; buckets accumulate in
/// a `BTreeMap` keyed by the label triple and each bucket's weight is a
/// Neumaier sum over that fixed order, so the table is byte-identical for
/// any upstream worker count. Rows sort by share descending (total order
/// on f64), ties broken by the label triple ascending.
pub fn rank_contributions(items: &[ItemInput]) -> Vec<ContributionRow> {
    let mut buckets: BTreeMap<(String, String, String), (usize, Vec<f64>)> = BTreeMap::new();
    for item in items {
        let Some(alpha) = item.alpha else {
            continue;
        };
        let zone = match item.zone {
            Some(z) => format!("zone{z}"),
            None => "-".to_string(),
        };
        let key = (item.entity_class.to_string(), zone, item.kind.clone());
        let bucket = buckets.entry(key).or_insert((0, Vec::new()));
        bucket.0 += 1;
        bucket.1.push(alpha.abs());
    }

    let mut rows: Vec<ContributionRow> = buckets
        .into_iter()
        .map(
            |((entity_class, zone, kind), (items, alphas))| ContributionRow {
                entity_class,
                zone,
                kind,
                items,
                weight: stable_sum(alphas),
                share: 0.0,
            },
        )
        .collect();
    let total = stable_sum(rows.iter().map(|r| r.weight));
    if total > 0.0 {
        for row in &mut rows {
            row.share = row.weight / total;
        }
    }
    rows.sort_by(|a, b| {
        b.share.total_cmp(&a.share).then_with(|| {
            (&a.entity_class, &a.zone, &a.kind).cmp(&(&b.entity_class, &b.zone, &b.kind))
        })
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caused(entity_class: &'static str, zone: Option<u32>, kind: &str, alpha: f64) -> ItemInput {
        ItemInput {
            label: format!("{entity_class} x / {kind}"),
            entity_class,
            zone,
            kind: kind.into(),
            mode: "dark_launch_control",
            alpha: Some(alpha),
            std_err: None,
            t_stat: None,
            ci95: None,
            cell_means: None,
            detection: None,
            coverage: 1.0,
            gaps: Vec::new(),
            quality: Vec::new(),
            window: (0, 1),
            sst_trace: Vec::new(),
            treated_pre: Vec::new(),
            treated_pre_coverage: 1.0,
            control_members: Vec::new(),
        }
    }

    #[test]
    fn shares_sum_to_one_and_sort_descending() {
        let items = vec![
            caused("instance", Some(1), "page_view_response_delay", 30.0),
            caused("instance", Some(3), "page_view_response_delay", 10.0),
            caused("service", None, "page_view_response_delay", 20.0),
        ];
        let rows = rank_contributions(&items);
        assert_eq!(rows.len(), 3);
        let total: f64 = stable_sum(rows.iter().map(|r| r.share));
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(rows[0].zone, "zone1");
        assert_eq!(rows[1].entity_class, "service");
        assert_eq!(rows[2].zone, "zone3");
        assert!(rows[0].share >= rows[1].share && rows[1].share >= rows[2].share);
    }

    #[test]
    fn same_bucket_accumulates() {
        let items = vec![
            caused("instance", Some(0), "k", 5.0),
            caused("instance", Some(0), "k", 7.0),
        ];
        let rows = rank_contributions(&items);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].items, 2);
        assert_eq!(rows[0].weight, 12.0);
        assert_eq!(rows[0].share, 1.0);
    }

    #[test]
    fn estimate_free_items_are_ignored() {
        let mut no_alpha = caused("instance", Some(1), "k", 5.0);
        no_alpha.alpha = None;
        assert!(rank_contributions(&[no_alpha]).is_empty());
    }
}
