//! The datacenter model: services, servers, instances, relationships.
//!
//! "Each service … runs on one or more servers with a specific process on
//! each server. An instance denotes a process of a specific service on a
//! specific server" (§2.2). Servers are dedicated to one service in the
//! studied company, and services exchange requests along relationship edges
//! that the operations team knows (§3.1, Fig. 4).

use crate::naming::ServiceName;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Identifier of a service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ServiceId(pub u32);

/// Identifier of a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ServerId(pub u32);

/// Identifier of an instance (one service process on one server).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstanceId(pub u32);

/// Errors from topology construction and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A service name was registered twice.
    DuplicateService(ServiceName),
    /// An id does not exist.
    UnknownService(ServiceId),
    /// An id does not exist.
    UnknownServer(ServerId),
    /// An id does not exist.
    UnknownInstance(InstanceId),
    /// A server already hosts an instance of a different service (servers
    /// are dedicated to a single service in the studied company).
    ServerServiceMismatch {
        /// The server in question.
        server: ServerId,
        /// The service already hosted.
        existing: ServiceId,
        /// The service that was being added.
        requested: ServiceId,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::DuplicateService(n) => write!(f, "duplicate service name '{n}'"),
            TopologyError::UnknownService(id) => write!(f, "unknown service id {}", id.0),
            TopologyError::UnknownServer(id) => write!(f, "unknown server id {}", id.0),
            TopologyError::UnknownInstance(id) => write!(f, "unknown instance id {}", id.0),
            TopologyError::ServerServiceMismatch {
                server,
                existing,
                requested,
            } => write!(
                f,
                "server {} already dedicated to service {} (requested {})",
                server.0, existing.0, requested.0
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// One service process on one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Instance {
    /// The instance's id.
    pub id: InstanceId,
    /// The service this process belongs to.
    pub service: ServiceId,
    /// The server the process runs on.
    pub server: ServerId,
}

/// The full registry: services, servers, instances, and the service
/// relationship graph.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Topology {
    services: Vec<ServiceName>,
    servers: Vec<String>,
    server_service: Vec<Option<ServiceId>>,
    instances: Vec<Instance>,
    /// Undirected relationship edges: `relations[a]` holds every service
    /// that exchanges requests/responses with `a`.
    relations: BTreeMap<ServiceId, BTreeSet<ServiceId>>,
    name_index: BTreeMap<ServiceName, ServiceId>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a service.
    ///
    /// # Errors
    ///
    /// [`TopologyError::DuplicateService`] when the name already exists.
    pub fn add_service(&mut self, name: ServiceName) -> Result<ServiceId, TopologyError> {
        if self.name_index.contains_key(&name) {
            return Err(TopologyError::DuplicateService(name));
        }
        let id = ServiceId(self.services.len() as u32);
        self.name_index.insert(name.clone(), id);
        self.services.push(name);
        Ok(id)
    }

    /// Registers a server by hostname (hostnames need not be unique; the id
    /// is authoritative).
    pub fn add_server(&mut self, hostname: impl Into<String>) -> ServerId {
        let id = ServerId(self.servers.len() as u32);
        self.servers.push(hostname.into());
        self.server_service.push(None);
        id
    }

    /// Creates an instance of `service` on `server`.
    ///
    /// # Errors
    ///
    /// Unknown ids, or the server is already dedicated to another service.
    pub fn add_instance(
        &mut self,
        service: ServiceId,
        server: ServerId,
    ) -> Result<InstanceId, TopologyError> {
        self.service_name(service)?;
        let slot = self
            .server_service
            .get_mut(server.0 as usize)
            .ok_or(TopologyError::UnknownServer(server))?;
        match slot {
            Some(existing) if *existing != service => {
                return Err(TopologyError::ServerServiceMismatch {
                    server,
                    existing: *existing,
                    requested: service,
                });
            }
            _ => *slot = Some(service),
        }
        let id = InstanceId(self.instances.len() as u32);
        self.instances.push(Instance {
            id,
            service,
            server,
        });
        Ok(id)
    }

    /// Declares that `a` and `b` exchange requests/responses (undirected).
    ///
    /// # Errors
    ///
    /// Unknown service ids.
    pub fn relate(&mut self, a: ServiceId, b: ServiceId) -> Result<(), TopologyError> {
        self.service_name(a)?;
        self.service_name(b)?;
        if a != b {
            self.relations.entry(a).or_default().insert(b);
            self.relations.entry(b).or_default().insert(a);
        }
        Ok(())
    }

    /// The name of a service.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownService`].
    pub fn service_name(&self, id: ServiceId) -> Result<&ServiceName, TopologyError> {
        self.services
            .get(id.0 as usize)
            .ok_or(TopologyError::UnknownService(id))
    }

    /// The hostname of a server.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownServer`].
    pub fn server_hostname(&self, id: ServerId) -> Result<&str, TopologyError> {
        self.servers
            .get(id.0 as usize)
            .map(String::as_str)
            .ok_or(TopologyError::UnknownServer(id))
    }

    /// The service a server is dedicated to, if any instance was placed.
    pub fn server_service(&self, id: ServerId) -> Option<ServiceId> {
        self.server_service.get(id.0 as usize).copied().flatten()
    }

    /// An instance record.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownInstance`].
    pub fn instance(&self, id: InstanceId) -> Result<Instance, TopologyError> {
        self.instances
            .get(id.0 as usize)
            .copied()
            .ok_or(TopologyError::UnknownInstance(id))
    }

    /// All instances of a service, in id order.
    pub fn instances_of(&self, service: ServiceId) -> Vec<Instance> {
        self.instances
            .iter()
            .copied()
            .filter(|i| i.service == service)
            .collect()
    }

    /// Services reachable from `service` over relationship edges (excluding
    /// `service` itself) — the *affected services* of §3.1 / Fig. 4, where
    /// service C (related to B, which is related to changed A) is affected.
    pub fn affected_services(&self, service: ServiceId) -> Vec<ServiceId> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![service];
        seen.insert(service);
        while let Some(s) = stack.pop() {
            if let Some(neigh) = self.relations.get(&s) {
                for &n in neigh {
                    if seen.insert(n) {
                        stack.push(n);
                    }
                }
            }
        }
        seen.remove(&service);
        seen.into_iter().collect()
    }

    /// Iterates all services.
    pub fn services(&self) -> impl Iterator<Item = (ServiceId, &ServiceName)> {
        self.services
            .iter()
            .enumerate()
            .map(|(i, n)| (ServiceId(i as u32), n))
    }

    /// Iterates all instances.
    pub fn instances(&self) -> impl Iterator<Item = Instance> + '_ {
        self.instances.iter().copied()
    }

    /// Number of servers registered.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Number of services registered.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> ServiceName {
        ServiceName::parse(s).unwrap()
    }

    #[test]
    fn build_and_query() {
        let mut t = Topology::new();
        let web = t.add_service(name("search.web")).unwrap();
        let idx = t.add_service(name("search.index")).unwrap();
        let s1 = t.add_server("host-1");
        let s2 = t.add_server("host-2");
        let i1 = t.add_instance(web, s1).unwrap();
        let _i2 = t.add_instance(web, s2).unwrap();
        t.relate(web, idx).unwrap();

        assert_eq!(t.instance(i1).unwrap().server, s1);
        assert_eq!(t.instances_of(web).len(), 2);
        assert_eq!(t.affected_services(web), vec![idx]);
        assert_eq!(t.server_service(s1), Some(web));
        assert_eq!(t.server_hostname(s2).unwrap(), "host-2");
    }

    #[test]
    fn duplicate_service_rejected() {
        let mut t = Topology::new();
        t.add_service(name("a")).unwrap();
        assert!(matches!(
            t.add_service(name("a")),
            Err(TopologyError::DuplicateService(_))
        ));
    }

    #[test]
    fn server_dedicated_to_one_service() {
        let mut t = Topology::new();
        let a = t.add_service(name("a")).unwrap();
        let b = t.add_service(name("b")).unwrap();
        let s = t.add_server("h");
        t.add_instance(a, s).unwrap();
        // Same service again on the same server is fine (multi-process).
        t.add_instance(a, s).unwrap();
        assert!(matches!(
            t.add_instance(b, s),
            Err(TopologyError::ServerServiceMismatch { .. })
        ));
    }

    #[test]
    fn affected_services_transitive_closure() {
        // Fig. 4: A—B, B—C, A—D. Affected(A) = {B, C, D}.
        let mut t = Topology::new();
        let a = t.add_service(name("a")).unwrap();
        let b = t.add_service(name("b")).unwrap();
        let c = t.add_service(name("c")).unwrap();
        let d = t.add_service(name("d")).unwrap();
        let e = t.add_service(name("e")).unwrap(); // unrelated
        t.relate(a, b).unwrap();
        t.relate(b, c).unwrap();
        t.relate(a, d).unwrap();
        let affected = t.affected_services(a);
        assert_eq!(affected, vec![b, c, d]);
        assert!(t.affected_services(e).is_empty());
    }

    #[test]
    fn unknown_ids_error() {
        let t = Topology::new();
        assert!(t.service_name(ServiceId(0)).is_err());
        assert!(t.server_hostname(ServerId(0)).is_err());
        assert!(t.instance(InstanceId(0)).is_err());
    }

    #[test]
    fn self_relation_ignored() {
        let mut t = Topology::new();
        let a = t.add_service(name("a")).unwrap();
        t.relate(a, a).unwrap();
        assert!(t.affected_services(a).is_empty());
    }
}
