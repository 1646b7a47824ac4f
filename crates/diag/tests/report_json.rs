//! `DiagReport::to_json` is hand-written; this holds it to a real parser.
//!
//! The report is the worst case for the writer: a description that needs
//! escaping, absent options, a non-finite statistic, empty and non-empty
//! lists side by side.

use funnel_diag::{BiasCheck, BiasFlag, ContributionRow, DiagReport, Evidence, ItemDiagnosis};
use serde::Value;

fn item(label: &str, alpha: Option<f64>, t_stat: Option<f64>) -> ItemDiagnosis {
    ItemDiagnosis {
        label: label.into(),
        mode: "dark_launch_control".into(),
        zone: alpha.map(|_| 1),
        bias: BiasCheck {
            flag: BiasFlag::Clean,
            members: 6,
            treated_median: 180.25,
            control_median: 180.5,
            control_mad: 1.5,
            median_divergence: 0.1666,
            treated_coverage: 0.95,
            control_coverage: 0.94,
            coverage_divergence: 0.01,
        },
        evidence: Evidence {
            alpha,
            std_err: alpha.map(|_| 0.0),
            t_stat,
            ci95: alpha.map(|a| (a, a)),
            cell_means: alpha.map(|a| [180.0, 180.0 + a, 181.0, 181.5]),
            declared_at: alpha.map(|_| 10627),
            first_exceeded_at: alpha.map(|_| 10621),
            peak_score: alpha.map(|_| 0.93),
            detection_latency: alpha.map(|_| 7),
            coverage: 0.95,
            window: (10518, 10681),
            gaps: alpha.map_or(Vec::new(), |_| vec![(10530, 10532)]),
            quality: alpha.map_or(Vec::new(), |_| vec!["MostlyZero".into()]),
            sst_trace: alpha.map_or(Vec::new(), |_| vec![(10620, 0.1), (10621, 0.9)]),
            control_members: vec![("instance prod.search#5".into(), 0.94)],
        },
    }
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    let Value::Object(fields) = value else {
        panic!("expected an object holding {key:?}, got {value:?}");
    };
    let found = fields.iter().find(|(k, _)| k == key);
    &found.unwrap_or_else(|| panic!("no field {key:?}")).1
}

#[test]
fn report_json_parses_with_schema_version_and_every_item() {
    let report = DiagReport {
        change_id: 7,
        change_minute: 10620,
        service: "prod.search".into(),
        description: "ranker \"v4\" \\ hotfix\n(second line)".into(),
        ranking: vec![ContributionRow {
            entity_class: "instance".into(),
            zone: "zone1".into(),
            kind: "page_view_response_delay".into(),
            items: 1,
            weight: 31.5,
            share: 1.0,
        }],
        items: vec![
            item("full dossier", Some(31.5), Some(f64::INFINITY)),
            item("nothing determined", None, None),
        ],
    };
    let value: Value = serde_json::from_str(&report.to_json()).expect("report JSON parses");

    assert_eq!(
        field(&value, "schema_version"),
        &Value::Num(serde::Number::U(u64::from(funnel_diag::SCHEMA_VERSION)))
    );
    let description = field(field(&value, "change"), "description");
    assert_eq!(description, &Value::Str(report.description.clone()));
    assert!(matches!(field(&value, "ranking"), Value::Array(rows) if rows.len() == 1));
    assert!(matches!(field(&value, "items"), Value::Array(items) if items.len() == 2));
}

#[test]
fn empty_report_json_parses() {
    let report = DiagReport {
        change_id: 0,
        change_minute: 0,
        service: "s".into(),
        description: String::new(),
        ranking: Vec::new(),
        items: Vec::new(),
    };
    let value: Value = serde_json::from_str(&report.to_json()).expect("empty report parses");
    assert!(matches!(field(&value, "items"), Value::Array(items) if items.is_empty()));
}
