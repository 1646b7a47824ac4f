//! Effects: what software changes and external factors do to KPIs.
//!
//! A [`ChangeEffect`] describes the KPI perturbations one software change
//! introduces on its *treated* entities; the world expands it into concrete
//! ground-truth items. An [`ExternalShock`] models the confounders the DiD
//! step must exclude — network incidents, attacks, flash crowds — which hit
//! *every* entity of the scoped services regardless of treatment.

use crate::kpi::KpiKind;
use funnel_timeseries::inject::ChangeShape;
use funnel_topology::model::ServiceId;

/// Which treated entities one KPI effect lands on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EffectScope {
    /// The KPI of every treated instance (and hence the changed service's
    /// aggregate).
    TreatedInstances,
    /// The KPI of every treated server.
    TreatedServers,
    /// The KPI of an explicit subset of treated servers — e.g. Fig. 6's
    /// class-A Redis servers shifting down while class B shifts up under
    /// one configuration change.
    Servers(Vec<funnel_topology::model::ServerId>),
    /// The aggregate KPI of an affected (related) service — modelling
    /// impact that propagates across the request graph.
    AffectedService(ServiceId),
}

/// One KPI perturbation caused by a software change.
#[derive(Debug, Clone, PartialEq)]
pub struct KpiEffect {
    /// Which KPI moves.
    pub kind: KpiKind,
    /// Where it moves.
    pub scope: EffectScope,
    /// How it moves (level shift / ramp / spike), in absolute KPI units
    /// *per instance or server*.
    pub shape: ChangeShape,
    /// Minutes after the deployment before the effect begins (0 = level
    /// shift immediately after the change).
    pub delay_minutes: u32,
}

/// The full KPI footprint of one software change (empty = a change with no
/// performance impact, the common case).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChangeEffect {
    /// Individual KPI perturbations.
    pub effects: Vec<KpiEffect>,
}

impl ChangeEffect {
    /// A change with no KPI impact.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the change has any impact.
    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
    }

    /// Builder-style: adds a level shift of `delta` on `kind` over `scope`.
    pub fn with_level_shift(mut self, kind: KpiKind, scope: EffectScope, delta: f64) -> Self {
        self.effects.push(KpiEffect {
            kind,
            scope,
            shape: ChangeShape::LevelShift { delta },
            delay_minutes: 0,
        });
        self
    }

    /// Builder-style: adds a ramp to `delta` over `duration` minutes.
    pub fn with_ramp(
        mut self,
        kind: KpiKind,
        scope: EffectScope,
        delta: f64,
        duration: u32,
    ) -> Self {
        self.effects.push(KpiEffect {
            kind,
            scope,
            shape: ChangeShape::Ramp {
                delta,
                duration_minutes: duration,
            },
            delay_minutes: 0,
        });
        self
    }

    /// Builder-style: adds an arbitrary effect.
    pub fn with_effect(mut self, effect: KpiEffect) -> Self {
        self.effects.push(effect);
        self
    }
}

/// A non-software confounder: hits all entities of the scoped services.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternalShock {
    /// Services whose entities are hit (instances, their servers, and the
    /// service aggregate).
    pub services: Vec<ServiceId>,
    /// Which KPI moves.
    pub kind: KpiKind,
    /// Shape of the perturbation, per instance/server.
    pub shape: ChangeShape,
    /// Absolute onset minute.
    pub onset: funnel_timeseries::series::MinuteBin,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_effects() {
        let e = ChangeEffect::none()
            .with_level_shift(
                KpiKind::MemoryUtilization,
                EffectScope::TreatedServers,
                12.0,
            )
            .with_ramp(
                KpiKind::PageViewResponseDelay,
                EffectScope::TreatedInstances,
                40.0,
                30,
            );
        assert_eq!(e.effects.len(), 2);
        assert!(!e.is_empty());
        assert!(ChangeEffect::none().is_empty());
        assert!(matches!(
            e.effects[1].shape,
            ChangeShape::Ramp {
                duration_minutes: 30,
                ..
            }
        ));
    }
}
