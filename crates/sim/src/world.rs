//! The deterministic world generator.
//!
//! A [`World`] is a frozen description of everything that "happened" in the
//! simulated datacenter over a time span: the topology, the change log, the
//! KPI effects of each change, and external shocks. From it, every KPI
//! series is generated *deterministically* — base behaviour from seeded
//! generators (instances of one service share their seasonal profile, as
//! load balancing makes real instances statistically exchangeable, §3.2.4),
//! plus the injected effects and shocks. The world also knows the exact
//! ground truth of which (change, entity, KPI) items were truly impacted —
//! the role the operations team's manual labels play in the paper (§4.1).

use crate::effect::{ChangeEffect, EffectScope, ExternalShock};
use crate::kpi::{Aggregation, KpiKey, KpiKind};
use crate::splitmix64;
use crate::store::MetricStore;
use funnel_obs::parallel::fan_out;
use funnel_timeseries::generate::KpiGenerator;
use funnel_timeseries::inject::{ChangeShape, InjectedChange};
use funnel_timeseries::series::{MinuteBin, TimeSeries};
use funnel_topology::change::{ChangeId, ChangeKind, ChangeLog, LaunchMode};
use funnel_topology::impact::Entity;
use funnel_topology::model::{InstanceId, ServiceId, Topology};
use funnel_topology::naming::ServiceName;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;

/// Simulation span and seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Master seed; every generated series derives its own seed from this.
    pub seed: u64,
    /// Absolute minute of the first generated bin.
    pub start: MinuteBin,
    /// Number of minutes generated.
    pub duration: usize,
}

impl SimConfig {
    /// `days` simulated days starting at minute 0.
    pub fn days(seed: u64, days: usize) -> Self {
        Self {
            seed,
            start: 0,
            duration: days * funnel_timeseries::MINUTES_PER_DAY,
        }
    }

    /// The absolute end minute (exclusive).
    pub fn end(&self) -> MinuteBin {
        self.start + self.duration as u64
    }
}

/// Errors from world construction and queries.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A topology operation failed.
    Topology(funnel_topology::model::TopologyError),
    /// A change effect's scope and KPI kind disagree (e.g. a server KPI
    /// scoped to instances).
    ScopeKindMismatch {
        /// The offending KPI.
        kind: KpiKind,
        /// Human-readable detail.
        detail: &'static str,
    },
    /// The requested KPI key does not exist in this world.
    UnknownKey(KpiKey),
    /// A service name failed to parse.
    InvalidName(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Topology(e) => write!(f, "topology error: {e}"),
            SimError::ScopeKindMismatch { kind, detail } => {
                write!(f, "effect scope mismatch for {kind}: {detail}")
            }
            SimError::UnknownKey(k) => write!(f, "unknown KPI key {k:?}"),
            SimError::InvalidName(e) => write!(f, "invalid service name: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<funnel_topology::model::TopologyError> for SimError {
    fn from(e: funnel_topology::model::TopologyError) -> Self {
        SimError::Topology(e)
    }
}

/// One ground-truth impacted item: software change × KPI key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundTruthItem {
    /// The causing change.
    pub change: ChangeId,
    /// The impacted KPI.
    pub key: KpiKey,
    /// Absolute onset minute of the KPI change.
    pub onset: MinuteBin,
    /// Effective shape at this entity (service aggregates are scaled by the
    /// number of treated instances and the aggregation rule).
    pub shape: ChangeShape,
    /// The stationary noise scale of this KPI series, for prominence
    /// assessment.
    pub noise_sigma: f64,
}

impl GroundTruthItem {
    /// Magnitude of the injected change (|delta| of the shift/ramp).
    pub fn magnitude(&self) -> f64 {
        match self.shape {
            ChangeShape::LevelShift { delta } | ChangeShape::Ramp { delta, .. } => delta.abs(),
            ChangeShape::Spike { .. } => 0.0,
        }
    }

    /// Whether the change is prominent enough that a competent detector (or
    /// the paper's human labellers) would call it a KPI change: at least 3
    /// noise standard deviations.
    pub fn is_prominent(&self) -> bool {
        self.magnitude() >= 3.0 * self.noise_sigma
    }
}

/// Builder for a [`World`].
#[derive(Debug)]
pub struct WorldBuilder {
    config: SimConfig,
    topology: Topology,
    change_log: ChangeLog,
    effects: BTreeMap<ChangeId, ChangeEffect>,
    shocks: Vec<ExternalShock>,
    instance_kinds: BTreeMap<ServiceId, Vec<KpiKind>>,
    base_overrides: BTreeMap<(funnel_topology::model::ServerId, KpiKind), f64>,
}

impl WorldBuilder {
    /// Starts a world.
    pub fn new(config: SimConfig) -> Self {
        Self {
            config,
            topology: Topology::new(),
            change_log: ChangeLog::new(),
            effects: BTreeMap::new(),
            shocks: Vec::new(),
            instance_kinds: BTreeMap::new(),
            base_overrides: BTreeMap::new(),
        }
    }

    /// Read access to the topology under construction (to look up the
    /// server ids a service was given).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Overrides the base level of one server KPI — e.g. Fig. 6's class-A
    /// Redis servers run their NICs near saturation while class B idles.
    pub fn set_server_base(
        &mut self,
        server: funnel_topology::model::ServerId,
        kind: KpiKind,
        base_level: f64,
    ) {
        self.base_overrides.insert((server, kind), base_level);
    }

    /// Adds a service with `n_instances` instances, each on its own fresh
    /// server, carrying the default instance KPI kinds.
    ///
    /// # Errors
    ///
    /// Propagates topology errors (duplicate names).
    pub fn add_service(&mut self, name: &str, n_instances: usize) -> Result<ServiceId, SimError> {
        let name = ServiceName::parse(name).map_err(SimError::InvalidName)?;
        let id = self.topology.add_service(name.clone())?;
        for k in 0..n_instances {
            let server = self.topology.add_server(format!("{name}-host-{k}"));
            self.topology.add_instance(id, server)?;
        }
        self.instance_kinds
            .insert(id, KpiKind::INSTANCE_KINDS.to_vec());
        Ok(id)
    }

    /// Overrides the instance KPI kinds a service carries (e.g. adds
    /// [`KpiKind::EffectiveClickCount`] for the ads service).
    pub fn set_instance_kinds(&mut self, service: ServiceId, kinds: Vec<KpiKind>) {
        self.instance_kinds.insert(service, kinds);
    }

    /// Declares a request/response relationship (Fig. 4 edges).
    ///
    /// # Errors
    ///
    /// Propagates topology errors.
    pub fn relate(&mut self, a: ServiceId, b: ServiceId) -> Result<(), SimError> {
        self.topology.relate(a, b)?;
        Ok(())
    }

    /// Deploys a software change on the first `n_targets` instances of
    /// `service` at `minute` and records its (possibly empty) KPI effect.
    /// `LaunchMode::Full` requires `n_targets == all`.
    ///
    /// # Errors
    ///
    /// [`SimError::ScopeKindMismatch`] when an effect's scope and kind
    /// disagree.
    pub fn deploy_change(
        &mut self,
        kind: ChangeKind,
        service: ServiceId,
        n_targets: usize,
        minute: MinuteBin,
        effect: ChangeEffect,
        description: &str,
    ) -> Result<ChangeId, SimError> {
        validate_effect(&effect)?;
        let instances = self.topology.instances_of(service);
        let n_targets = n_targets.min(instances.len());
        let targets: Vec<InstanceId> = instances.iter().take(n_targets).map(|i| i.id).collect();
        let launch = if n_targets == instances.len() {
            LaunchMode::Full
        } else {
            LaunchMode::Dark
        };
        let id = self
            .change_log
            .record(kind, service, targets, minute, launch, description);
        self.effects.insert(id, effect);
        Ok(id)
    }

    /// Adds an external (non-software) shock.
    pub fn add_shock(&mut self, shock: ExternalShock) {
        self.shocks.push(shock);
    }

    /// Freezes the world.
    pub fn build(self) -> World {
        World {
            config: self.config,
            topology: self.topology,
            change_log: self.change_log,
            effects: self.effects,
            shocks: self.shocks,
            instance_kinds: self.instance_kinds,
            base_overrides: self.base_overrides,
        }
    }
}

fn validate_effect(effect: &ChangeEffect) -> Result<(), SimError> {
    for e in &effect.effects {
        match &e.scope {
            EffectScope::TreatedInstances | EffectScope::AffectedService(_) => {
                if e.kind.is_server_kind() {
                    return Err(SimError::ScopeKindMismatch {
                        kind: e.kind,
                        detail: "server KPI scoped to instances/services",
                    });
                }
            }
            EffectScope::TreatedServers | EffectScope::Servers(_) => {
                if !e.kind.is_server_kind() {
                    return Err(SimError::ScopeKindMismatch {
                        kind: e.kind,
                        detail: "instance KPI scoped to servers",
                    });
                }
            }
        }
    }
    Ok(())
}

/// The frozen simulated datacenter.
#[derive(Debug)]
pub struct World {
    config: SimConfig,
    topology: Topology,
    change_log: ChangeLog,
    effects: BTreeMap<ChangeId, ChangeEffect>,
    shocks: Vec<ExternalShock>,
    instance_kinds: BTreeMap<ServiceId, Vec<KpiKind>>,
    base_overrides: BTreeMap<(funnel_topology::model::ServerId, KpiKind), f64>,
}

fn entity_seed(master: u64, entity: Entity, kind: KpiKind) -> u64 {
    let tag = match entity {
        Entity::Server(s) => (1u64 << 40) | s.0 as u64,
        Entity::Instance(i) => (2u64 << 40) | i.0 as u64,
        Entity::Service(s) => (3u64 << 40) | s.0 as u64,
    };
    splitmix64(master ^ splitmix64(tag) ^ splitmix64(kind.tag() as u64))
}

impl World {
    /// The simulation span.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The change log.
    pub fn change_log(&self) -> &ChangeLog {
        &self.change_log
    }

    /// The per-service level multiplier (services differ in scale).
    fn service_level_factor(&self, service: ServiceId) -> f64 {
        0.7 + 0.6
            * (splitmix64(self.config.seed ^ splitmix64(0xA11CE ^ service.0 as u64)) % 1000) as f64
            / 1000.0
    }

    /// The generator for one KPI key (base behaviour, no effects).
    fn generator(&self, key: &KpiKey) -> Result<KpiGenerator, SimError> {
        let (kind, level_factor) = match key.entity {
            Entity::Server(s) => {
                if !key.kind.is_server_kind() || s.0 as usize >= self.topology.server_count() {
                    return Err(SimError::UnknownKey(*key));
                }
                if let Some(&base) = self.base_overrides.get(&(s, key.kind)) {
                    return Ok(KpiGenerator::for_class(key.kind.class(), base));
                }
                let svc = self.topology.server_service(s);
                let f = svc.map_or(1.0, |svc| self.service_level_factor(svc));
                (key.kind, f)
            }
            Entity::Instance(i) => {
                let inst = self.topology.instance(i)?;
                if !self.kinds_of_service(inst.service).contains(&key.kind) {
                    return Err(SimError::UnknownKey(*key));
                }
                (key.kind, self.service_level_factor(inst.service))
            }
            Entity::Service(s) => {
                if !self.kinds_of_service(s).contains(&key.kind) {
                    return Err(SimError::UnknownKey(*key));
                }
                (key.kind, self.service_level_factor(s))
            }
        };
        Ok(KpiGenerator::for_class(
            kind.class(),
            kind.base_level() * level_factor,
        ))
    }

    /// Instance KPI kinds a service carries.
    pub fn kinds_of_service(&self, service: ServiceId) -> &[KpiKind] {
        self.instance_kinds
            .get(&service)
            .map(Vec::as_slice)
            .unwrap_or(&KpiKind::INSTANCE_KINDS)
    }

    /// Generates the series for one KPI key over the full span, with all
    /// effects and shocks applied. Service keys aggregate their instances.
    /// This is the definition every other reading of the world is compared
    /// against: [`World::materialize`] must store exactly these bits.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownKey`] when the key does not exist in this world.
    pub fn series(&self, key: &KpiKey) -> Result<TimeSeries, SimError> {
        match key.entity {
            Entity::Service(_) => self.aggregate(key, |member| self.series(&member)),
            _ => {
                let gen = self.generator(key)?;
                let seed = entity_seed(self.config.seed, key.entity, key.kind);
                let mut series = gen.generate(self.config.start, self.config.duration, seed);
                for inj in self.injections_for(key) {
                    inj.apply(&mut series, gen.non_negative);
                }
                Ok(series)
            }
        }
    }

    /// The series of service key `key`: its instances' series of the same
    /// kind, in [`Topology::instances_of`] order, folded by the kind's
    /// [`Aggregation`]. `member` supplies each instance key's series,
    /// generated or already held.
    fn aggregate<M: Borrow<TimeSeries>>(
        &self,
        key: &KpiKey,
        member: impl Fn(KpiKey) -> Result<M, SimError>,
    ) -> Result<TimeSeries, SimError> {
        let Entity::Service(service) = key.entity else {
            return Err(SimError::UnknownKey(*key));
        };
        let instances = self.topology.instances_of(service);
        if instances.is_empty() || !self.kinds_of_service(service).contains(&key.kind) {
            return Err(SimError::UnknownKey(*key));
        }
        let members: Vec<M> = instances
            .iter()
            .map(|i| member(KpiKey::new(Entity::Instance(i.id), key.kind)))
            .collect::<Result<_, _>>()?;
        let refs: Vec<&TimeSeries> = members.iter().map(Borrow::borrow).collect();
        let agg = match key.kind.aggregation() {
            Aggregation::Sum => TimeSeries::sum(&refs),
            Aggregation::Mean => TimeSeries::average(&refs),
        };
        agg.map_err(|_| SimError::UnknownKey(*key))
    }

    /// All injections (change effects + shocks) that land directly on a
    /// server/instance KPI key. (Service keys inherit through aggregation.)
    fn injections_for(&self, key: &KpiKey) -> Vec<InjectedChange> {
        let mut out = Vec::new();
        for change in self.change_log.all() {
            let Some(effect) = self.effects.get(&change.id) else {
                continue;
            };
            for e in &effect.effects {
                if e.kind != key.kind {
                    continue;
                }
                let applies = match (&e.scope, key.entity) {
                    (EffectScope::TreatedInstances, Entity::Instance(i)) => {
                        change.targets.contains(&i)
                    }
                    (EffectScope::TreatedServers, Entity::Server(s)) => change
                        .targets
                        .iter()
                        .any(|&t| self.topology.instance(t).is_ok_and(|inst| inst.server == s)),
                    (EffectScope::Servers(list), Entity::Server(s)) => list.contains(&s),
                    (EffectScope::AffectedService(svc), Entity::Instance(i)) => self
                        .topology
                        .instance(i)
                        .is_ok_and(|inst| inst.service == *svc),
                    _ => false,
                };
                if applies {
                    out.push(InjectedChange {
                        onset: change.minute + e.delay_minutes as u64,
                        shape: e.shape,
                    });
                }
            }
        }
        for shock in &self.shocks {
            if shock.kind != key.kind {
                continue;
            }
            let applies = match key.entity {
                Entity::Instance(i) => self
                    .topology
                    .instance(i)
                    .is_ok_and(|inst| shock.services.contains(&inst.service)),
                Entity::Server(s) => self
                    .topology
                    .server_service(s)
                    .is_some_and(|svc| shock.services.contains(&svc)),
                Entity::Service(_) => false,
            };
            if applies {
                out.push(InjectedChange {
                    onset: shock.onset,
                    shape: shock.shape,
                });
            }
        }
        out
    }

    /// The stationary noise scale of a key's base generator (aggregates
    /// scale with √n per the aggregation rule).
    pub fn noise_sigma(&self, key: &KpiKey) -> Result<f64, SimError> {
        match key.entity {
            Entity::Service(s) => {
                let n = self.topology.instances_of(s).len().max(1) as f64;
                let inst = self.topology.instances_of(s);
                let member = KpiKey::new(Entity::Instance(inst[0].id), key.kind);
                let sigma = self.noise_sigma(&member)?;
                Ok(match key.kind.aggregation() {
                    Aggregation::Sum => sigma * n.sqrt(),
                    Aggregation::Mean => sigma / n.sqrt(),
                })
            }
            _ => {
                let gen = self.generator(key)?;
                let innov = gen.noise_frac * gen.base_level;
                Ok(innov / (1.0 - gen.ar_coeff * gen.ar_coeff).sqrt())
            }
        }
    }

    /// Expands every change effect into concrete ground-truth items over the
    /// *monitored* entities (treated instances/servers, the changed service,
    /// affected services). Spikes are excluded: they are not KPI changes
    /// under the paper's ≥7-minute persistence definition.
    pub fn ground_truth(&self) -> Vec<GroundTruthItem> {
        let mut items = Vec::new();
        for change in self.change_log.all() {
            let Some(effect) = self.effects.get(&change.id) else {
                continue;
            };
            for e in &effect.effects {
                if !e.shape.is_persistent() {
                    continue;
                }
                let onset = change.minute + e.delay_minutes as u64;
                match &e.scope {
                    EffectScope::TreatedInstances => {
                        for &t in &change.targets {
                            let key = KpiKey::new(Entity::Instance(t), e.kind);
                            if let Ok(sigma) = self.noise_sigma(&key) {
                                items.push(GroundTruthItem {
                                    change: change.id,
                                    key,
                                    onset,
                                    shape: e.shape,
                                    noise_sigma: sigma,
                                });
                            }
                        }
                        // The changed service's aggregate also moves.
                        let n = self.topology.instances_of(change.service).len().max(1) as f64;
                        let m = change.targets.len() as f64;
                        let scale = match e.kind.aggregation() {
                            Aggregation::Sum => m,
                            Aggregation::Mean => m / n,
                        };
                        let key = KpiKey::new(Entity::Service(change.service), e.kind);
                        if let Ok(sigma) = self.noise_sigma(&key) {
                            items.push(GroundTruthItem {
                                change: change.id,
                                key,
                                onset,
                                shape: scale_shape(e.shape, scale),
                                noise_sigma: sigma,
                            });
                        }
                    }
                    EffectScope::TreatedServers => {
                        let mut seen = std::collections::BTreeSet::new();
                        for &t in &change.targets {
                            if let Ok(inst) = self.topology.instance(t) {
                                if seen.insert(inst.server) {
                                    let key = KpiKey::new(Entity::Server(inst.server), e.kind);
                                    if let Ok(sigma) = self.noise_sigma(&key) {
                                        items.push(GroundTruthItem {
                                            change: change.id,
                                            key,
                                            onset,
                                            shape: e.shape,
                                            noise_sigma: sigma,
                                        });
                                    }
                                }
                            }
                        }
                    }
                    EffectScope::Servers(list) => {
                        for &srv in list {
                            let key = KpiKey::new(Entity::Server(srv), e.kind);
                            if let Ok(sigma) = self.noise_sigma(&key) {
                                items.push(GroundTruthItem {
                                    change: change.id,
                                    key,
                                    onset,
                                    shape: e.shape,
                                    noise_sigma: sigma,
                                });
                            }
                        }
                    }
                    EffectScope::AffectedService(svc) => {
                        let svc = *svc;
                        let n = self.topology.instances_of(svc).len().max(1) as f64;
                        let scale = match e.kind.aggregation() {
                            Aggregation::Sum => n,
                            Aggregation::Mean => 1.0,
                        };
                        let key = KpiKey::new(Entity::Service(svc), e.kind);
                        if let Ok(sigma) = self.noise_sigma(&key) {
                            items.push(GroundTruthItem {
                                change: change.id,
                                key,
                                onset,
                                shape: scale_shape(e.shape, scale),
                                noise_sigma: sigma,
                            });
                        }
                    }
                }
            }
        }
        items
    }

    /// Every KPI key that exists in this world, in a stable order: server
    /// keys, instance keys, then service keys.
    pub fn all_keys(&self) -> Vec<KpiKey> {
        let mut keys = Vec::new();
        for sid in 0..self.topology.server_count() {
            let server = funnel_topology::model::ServerId(sid as u32);
            for kind in KpiKind::SERVER_KINDS {
                keys.push(KpiKey::new(Entity::Server(server), kind));
            }
        }
        for inst in self.topology.instances() {
            for &kind in self.kinds_of_service(inst.service) {
                keys.push(KpiKey::new(Entity::Instance(inst.id), kind));
            }
        }
        for (svc, _) in self.topology.services() {
            if self.topology.instances_of(svc).is_empty() {
                continue;
            }
            for &kind in self.kinds_of_service(svc) {
                keys.push(KpiKey::new(Entity::Service(svc), kind));
            }
        }
        keys
    }

    /// Generates every key into a [`MetricStore`], each series once: the
    /// server and instance keys through [`fan_out`] on every core, then
    /// each service key aggregated from the instance series already
    /// generated (the same fold [`World::series`] runs). The store holds
    /// exactly what [`World::series`] answers, key for key and bit for
    /// bit, interned in [`World::all_keys`] order.
    ///
    /// # Errors
    ///
    /// Propagates generation errors (cannot happen for keys from
    /// [`World::all_keys`]).
    pub fn materialize(&self) -> Result<MetricStore, SimError> {
        let keys = self.all_keys();
        // `all_keys` lists the service keys last.
        let first_service = keys
            .iter()
            .position(|key| matches!(key.entity, Entity::Service(_)))
            .unwrap_or(keys.len());
        let (generated, services) = keys.split_at(first_service);
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let mut series: Vec<TimeSeries> = fan_out(
            generated.to_vec(),
            workers,
            None,
            || (),
            |(), key| self.series(&key),
        )
        .into_iter()
        .collect::<Result<_, _>>()?;
        let held: BTreeMap<KpiKey, &TimeSeries> = generated.iter().copied().zip(&series).collect();
        let aggregated: Vec<TimeSeries> = fan_out(
            services.to_vec(),
            workers,
            None,
            || (),
            |(), key| {
                self.aggregate(&key, |member| {
                    held.get(&member)
                        .copied()
                        .ok_or(SimError::UnknownKey(member))
                })
            },
        )
        .into_iter()
        .collect::<Result<_, _>>()?;
        series.extend(aggregated);
        let store = MetricStore::new();
        for (key, series) in keys.into_iter().zip(series) {
            store.insert(key, series);
        }
        Ok(store)
    }
}

fn scale_shape(shape: ChangeShape, scale: f64) -> ChangeShape {
    match shape {
        ChangeShape::LevelShift { delta } => ChangeShape::LevelShift {
            delta: delta * scale,
        },
        ChangeShape::Ramp {
            delta,
            duration_minutes,
        } => ChangeShape::Ramp {
            delta: delta * scale,
            duration_minutes,
        },
        ChangeShape::Spike {
            delta,
            duration_minutes,
        } => ChangeShape::Spike {
            delta: delta * scale,
            duration_minutes,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnel_timeseries::stats::mean;

    fn small_world() -> (World, ServiceId, ChangeId) {
        let mut b = WorldBuilder::new(SimConfig {
            seed: 7,
            start: 0,
            duration: 600,
        });
        let svc = b.add_service("prod.web", 4).unwrap();
        let effect = ChangeEffect::none().with_level_shift(
            KpiKind::PageViewResponseDelay,
            EffectScope::TreatedInstances,
            60.0,
        );
        let change = b
            .deploy_change(ChangeKind::Upgrade, svc, 2, 300, effect, "slow deploy")
            .unwrap();
        (b.build(), svc, change)
    }

    #[test]
    fn determinism() {
        let (w1, svc, _) = small_world();
        let (w2, _, _) = small_world();
        let key = KpiKey::new(Entity::Service(svc), KpiKind::PageViewCount);
        assert_eq!(w1.series(&key).unwrap(), w2.series(&key).unwrap());
    }

    #[test]
    fn treated_instances_shift_control_does_not() {
        let (w, svc, _) = small_world();
        let instances = w.topology().instances_of(svc);
        let treated = KpiKey::new(
            Entity::Instance(instances[0].id),
            KpiKind::PageViewResponseDelay,
        );
        let control = KpiKey::new(
            Entity::Instance(instances[3].id),
            KpiKind::PageViewResponseDelay,
        );
        let ts = w.series(&treated).unwrap();
        let cs = w.series(&control).unwrap();
        let t_jump = mean(ts.slice(300, 400)) - mean(ts.slice(200, 300));
        let c_jump = mean(cs.slice(300, 400)) - mean(cs.slice(200, 300));
        assert!(t_jump > 50.0, "treated jump {t_jump}");
        assert!(c_jump.abs() < 5.0, "control jump {c_jump}");
    }

    #[test]
    fn service_aggregate_inherits_effect() {
        let (w, svc, _) = small_world();
        let key = KpiKey::new(Entity::Service(svc), KpiKind::PageViewResponseDelay);
        let s = w.series(&key).unwrap();
        // Mean aggregation over 4 instances, 2 treated with +60 ⇒ +30.
        let jump = mean(s.slice(300, 400)) - mean(s.slice(200, 300));
        assert!((jump - 30.0).abs() < 5.0, "service jump {jump}");
    }

    #[test]
    fn ground_truth_expansion() {
        let (w, svc, change) = small_world();
        let gt = w.ground_truth();
        // 2 treated instances + 1 changed-service aggregate.
        assert_eq!(gt.len(), 3);
        assert!(gt.iter().all(|g| g.change == change));
        assert!(gt.iter().all(|g| g.onset == 300));
        let service_item = gt
            .iter()
            .find(|g| g.key.entity == Entity::Service(svc))
            .expect("service item");
        // Mean aggregation: per-instance 60 × (2/4) = 30.
        assert!((service_item.magnitude() - 30.0).abs() < 1e-9);
        assert!(service_item.is_prominent());
    }

    #[test]
    fn shock_hits_treated_and_control_alike() {
        let mut b = WorldBuilder::new(SimConfig {
            seed: 3,
            start: 0,
            duration: 400,
        });
        let svc = b.add_service("prod.x", 3).unwrap();
        b.add_shock(ExternalShock {
            services: vec![svc],
            kind: KpiKind::AccessFailureCount,
            shape: ChangeShape::LevelShift { delta: 200.0 },
            onset: 200,
        });
        let w = b.build();
        for inst in w.topology().instances_of(svc) {
            let key = KpiKey::new(Entity::Instance(inst.id), KpiKind::AccessFailureCount);
            let s = w.series(&key).unwrap();
            let jump = mean(s.slice(200, 300)) - mean(s.slice(100, 200));
            assert!(jump > 150.0, "instance {:?} jump {jump}", inst.id);
        }
        // Shocks produce no ground-truth items.
        assert!(w.ground_truth().is_empty());
    }

    #[test]
    fn scope_kind_mismatch_rejected() {
        let mut b = WorldBuilder::new(SimConfig {
            seed: 1,
            start: 0,
            duration: 100,
        });
        let svc = b.add_service("prod.y", 2).unwrap();
        let bad = ChangeEffect::none().with_level_shift(
            KpiKind::MemoryUtilization, // server KPI
            EffectScope::TreatedInstances,
            5.0,
        );
        let err = b
            .deploy_change(ChangeKind::Upgrade, svc, 1, 50, bad, "bad")
            .unwrap_err();
        assert!(matches!(err, SimError::ScopeKindMismatch { .. }));
    }

    /// Every kind of injection at once: a dark launch whose effect also
    /// reaches a related service, and an external shock on that service.
    fn injected_world() -> World {
        let mut b = WorldBuilder::new(SimConfig {
            seed: 11,
            start: 0,
            duration: 600,
        });
        let web = b.add_service("prod.web", 4).unwrap();
        let db = b.add_service("prod.db", 5).unwrap();
        b.relate(web, db).unwrap();
        let effect = ChangeEffect::none()
            .with_level_shift(
                KpiKind::PageViewResponseDelay,
                EffectScope::TreatedInstances,
                60.0,
            )
            .with_level_shift(
                KpiKind::PageViewCount,
                EffectScope::AffectedService(db),
                -40.0,
            );
        let change = b
            .deploy_change(ChangeKind::Upgrade, web, 2, 300, effect, "dark")
            .unwrap();
        b.add_shock(ExternalShock {
            services: vec![db],
            kind: KpiKind::AccessFailureCount,
            shape: ChangeShape::LevelShift { delta: 200.0 },
            onset: 400,
        });
        let w = b.build();
        assert_eq!(w.change_log().get(change).unwrap().launch, LaunchMode::Dark);
        w
    }

    #[test]
    fn all_keys_and_materialize_cover_world() {
        let (w, _, _) = small_world();
        // 4 servers × 4 server kinds + 4 instances × 3 kinds + 1 service × 3.
        assert_eq!(w.all_keys().len(), 16 + 12 + 3);

        // The store holds what `World::series` answers, bit for bit, every
        // minute measured: a service folded from the wrong members, or in
        // another order, moves some bit.
        let w = injected_world();
        let keys = w.all_keys();
        let store = w.materialize().unwrap();
        assert_eq!(store.keys().len(), keys.len());
        let bits = |s: &TimeSeries| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for key in &keys {
            let stored = store.get(key).expect("materialized");
            let defined = w.series(key).unwrap();
            assert_eq!(stored.start(), defined.start(), "{key:?}");
            assert_eq!(bits(&stored), bits(&defined), "{key:?}");
            let mask = store.mask(key).expect("a mask per key");
            assert_eq!(mask.coverage(stored.start(), stored.end()), 1.0, "{key:?}");
        }
    }

    #[test]
    fn unknown_key_errors() {
        let (w, svc, _) = small_world();
        let bad = KpiKey::new(Entity::Service(svc), KpiKind::EffectiveClickCount);
        assert!(matches!(w.series(&bad), Err(SimError::UnknownKey(_))));
    }

    #[test]
    fn launch_mode_inferred_from_target_count() {
        let mut b = WorldBuilder::new(SimConfig {
            seed: 1,
            start: 0,
            duration: 100,
        });
        let svc = b.add_service("prod.z", 3).unwrap();
        let dark = b
            .deploy_change(
                ChangeKind::Upgrade,
                svc,
                2,
                50,
                ChangeEffect::none(),
                "dark",
            )
            .unwrap();
        let full = b
            .deploy_change(
                ChangeKind::Upgrade,
                svc,
                3,
                60,
                ChangeEffect::none(),
                "full",
            )
            .unwrap();
        let w = b.build();
        assert_eq!(w.change_log().get(dark).unwrap().launch, LaunchMode::Dark);
        assert_eq!(w.change_log().get(full).unwrap().launch, LaunchMode::Full);
    }
}
