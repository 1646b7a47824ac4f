//! The diagnosis layer's input: a pre-digested view of one change
//! assessment.
//!
//! `funnel-diag` deliberately depends on nothing but `funnel-timeseries`:
//! the assessment pipeline (or any other caller) converts its own types
//! into these plain structs, so the diagnosis math stays a pure, separately
//! testable function of data — no topology lookups, no store reads, no
//! verdict re-derivation.

use funnel_timeseries::series::MinuteBin;

/// One member of the control pool the item's counterfactual was built
/// from, with its pre-window samples for the bias check.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlMember {
    /// Human-readable member identity ("instance prod.search#5" for a
    /// dark-launch member, "history:-3d" for a seasonal window).
    pub label: String,
    /// The member's samples over the pre-change DiD period.
    pub pre: Vec<f64>,
    /// Fraction of the pre window the member really measured.
    pub coverage: f64,
}

/// The detection evidence attached to an item, when the SST declared one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionInput {
    /// Minute the persistence rule declared the change.
    pub declared_at: MinuteBin,
    /// Minute the score first exceeded the threshold.
    pub first_exceeded_at: MinuteBin,
    /// Peak filtered score in the persistent run.
    pub peak_score: f64,
}

/// Everything the diagnosis pass needs to know about one assessed item: an
/// item the pipeline found `Caused` (diagnosis never re-derives or
/// overrides that verdict).
#[derive(Debug, Clone, PartialEq)]
pub struct ItemInput {
    /// Operator-facing item identity ("instance prod.search#1 /
    /// page_view_response_delay").
    pub label: String,
    /// Entity class for the contribution ranking: "server", "instance",
    /// or "service".
    pub entity_class: &'static str,
    /// The entity's zone under the configured striping, when it maps to
    /// one (services aggregate across zones and carry `None`).
    pub zone: Option<u32>,
    /// KPI kind name (snake_case).
    pub kind: String,
    /// Which control group decided causality: "dark_launch_control" or
    /// "seasonal_history".
    pub mode: &'static str,
    /// DiD effect estimate α, when causality determination ran.
    pub alpha: Option<f64>,
    /// OLS standard error of α.
    pub std_err: Option<f64>,
    /// `alpha / std_err` (±∞ when the residual variance is zero).
    pub t_stat: Option<f64>,
    /// 95% confidence interval on α.
    pub ci95: Option<(f64, f64)>,
    /// DiD cell means `[treated_pre, treated_post, control_pre,
    /// control_post]`.
    pub cell_means: Option<[f64; 4]>,
    /// The SST detection, when one was declared.
    pub detection: Option<DetectionInput>,
    /// Fraction of the assessment window backed by real measurements.
    pub coverage: f64,
    /// Unmeasured spans `[from, to)` inside the assessment window.
    pub gaps: Vec<(MinuteBin, MinuteBin)>,
    /// Data-quality screening labels ("Constant", "LoadShed", …).
    pub quality: Vec<String>,
    /// The `[from, to)` assessment window the verdict rests on.
    pub window: (MinuteBin, MinuteBin),
    /// SST score trace around the change point: `(decision_minute, score)`
    /// pairs in ascending minute order.
    pub sst_trace: Vec<(MinuteBin, f64)>,
    /// The treated entity's samples over the pre-change DiD period (pooled
    /// across treated instances for service-level items).
    pub treated_pre: Vec<f64>,
    /// Fraction of the pre window the treated entity really measured.
    pub treated_pre_coverage: f64,
    /// The control pool the counterfactual was built from.
    pub control_members: Vec<ControlMember>,
}

/// One change assessment, pre-digested for diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeInput {
    /// The change's id.
    pub change_id: u32,
    /// The deployment minute.
    pub change_minute: MinuteBin,
    /// The changed service's name.
    pub service: String,
    /// The change-log description.
    pub description: String,
    /// The items selected for diagnosis, in report (key) order.
    pub items: Vec<ItemInput>,
}
