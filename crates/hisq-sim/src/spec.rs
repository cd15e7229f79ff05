//! The declarative system description and its validating builder.
//!
//! A [`SystemSpec`] is *data*: the nodes of a deployment (controllers
//! with their programs, routers, broadcast hubs), the topology the
//! links were calibrated against, the quantum bindings, and the
//! backend choice. Nothing is checked while a spec is being described;
//! [`SystemSpec::build`] validates the whole description once —
//! address collisions, dangling binding targets, unknown hub
//! subscribers — and lowers it into the arena-indexed
//! [`System`], interning every [`NodeAddr`] into a
//! dense node id so the event loop never walks an address map.
//!
//! This is the **only** construction path for a [`System`]: the
//! experiment harness (`distributed_hisq::runner::build_system`), the
//! figure reproductions, the examples, and the integration tests all
//! describe their deployment as a spec and build it.
//!
//! # Example
//!
//! ```
//! use hisq_core::NodeConfig;
//! use hisq_isa::Assembler;
//! use hisq_sim::SystemSpec;
//!
//! let asm = |src| Assembler::new().assemble(src).unwrap().insts().to_vec();
//! let mut spec = SystemSpec::new();
//! spec.controller(
//!     NodeConfig::new(0).with_neighbor(1, 6),
//!     asm("waiti 40\nsync 1\nwaiti 6\ncw.i.i 0, 1\nstop"),
//! );
//! spec.controller(
//!     NodeConfig::new(1).with_neighbor(0, 6),
//!     asm("waiti 90\nsync 0\nwaiti 6\ncw.i.i 0, 1\nstop"),
//! );
//! let mut system = spec.build().unwrap();
//! let report = system.run().unwrap();
//! assert!(report.all_halted);
//! ```

use std::collections::BTreeMap;

use hisq_core::{NodeAddr, NodeConfig, MEAS_FIFO_ADDR};
use hisq_isa::Inst;
use hisq_net::{FabricMap, LinkModel, Router, Topology};
use hisq_quantum::QuantumAction;

use crate::backend::{LeakyRandomBackend, QuantumBackend, RandomBackend};
use crate::config::{SimConfig, SimError};
use crate::engine::System;
use crate::nodes::{ControllerNode, Hub, HubNode, NodeId, SimNode};

/// Declarative choice of the quantum backend a built system starts
/// with: the two backends a scenario sweep runs. Every other backend
/// (fixed or scripted outcomes, stabilizer, state-vector, noisy
/// stabilizer) is installed after building via
/// [`System::set_backend`].
#[derive(Debug, Clone, PartialEq)]
pub enum BackendSpec {
    /// Seeded random measurement outcomes (the sweep default).
    Random {
        /// RNG seed.
        seed: u64,
        /// Probability of measuring `1`.
        p_one: f64,
    },
    /// Seeded random outcomes with sticky leakage (see
    /// [`LeakyRandomBackend`]). With
    /// `noise == NoiseMap::default()` this is byte-identical to
    /// [`BackendSpec::Random`] at the same seed.
    Leaky {
        /// RNG seed.
        seed: u64,
        /// Probability an unleaked measurement returns `1`.
        p_one: f64,
        /// Per-operation error rates (only each qubit's `p_leak` is
        /// sampled here; the rest feed the analytic
        /// [`NoiseModel`](hisq_quantum::NoiseModel) scoring).
        noise: hisq_quantum::NoiseMap,
    },
}

impl Default for BackendSpec {
    /// The historical engine default: seed 0, fair coin.
    fn default() -> BackendSpec {
        BackendSpec::Random {
            seed: 0,
            p_one: 0.5,
        }
    }
}

impl BackendSpec {
    fn instantiate(&self) -> Box<dyn QuantumBackend> {
        match self {
            BackendSpec::Random { seed, p_one } => Box::new(RandomBackend::new(*seed, *p_one)),
            BackendSpec::Leaky { seed, p_one, noise } => {
                Box::new(LeakyRandomBackend::new(*seed, *p_one, noise.clone()))
            }
        }
    }
}

/// A complete, declarative description of a Distributed-HISQ
/// deployment. See the [module docs](self) for the building/validation
/// contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemSpec {
    pub(crate) config: SimConfig,
    pub(crate) backend: BackendSpec,
    pub(crate) controllers: Vec<(NodeConfig, Vec<Inst>)>,
    pub(crate) routers: Vec<Router>,
    pub(crate) hubs: Vec<(NodeAddr, Hub)>,
    pub(crate) topology: Option<Topology>,
    pub(crate) fabric: FabricMap,
    pub(crate) bindings: Vec<(NodeAddr, u32, u32, QuantumAction)>,
}

impl SystemSpec {
    /// An empty spec with default engine configuration and backend.
    pub fn new() -> SystemSpec {
        SystemSpec::default()
    }

    /// A spec pre-populated from a topology: every router of the tree,
    /// one controller per program (with the topology's calibrated
    /// links), and the topology attached for multi-hop latency
    /// derivation. Collisions between program addresses and tree
    /// routers surface as [`SimError::DuplicateAddr`] at build time.
    pub fn from_topology(topology: &Topology, programs: BTreeMap<NodeAddr, Vec<Inst>>) -> Self {
        let mut spec = SystemSpec::new();
        for &router_addr in topology.routers() {
            spec.router(Router::new(
                router_addr,
                topology.parent_of(router_addr),
                topology.children_of(router_addr).to_vec(),
            ));
        }
        for (addr, program) in programs {
            // A program keyed at a router (or otherwise non-controller)
            // address gets a bare config; `build` then reports the
            // address collision instead of silently shadowing the node.
            let config = if (addr as usize) < topology.num_controllers() {
                topology.node_config(addr)
            } else {
                NodeConfig::new(addr)
            };
            spec.controller(config, program);
        }
        spec.topology = Some(topology.clone());
        spec
    }

    /// Replaces the engine configuration.
    pub fn config(&mut self, config: SimConfig) -> &mut Self {
        self.config = config;
        self
    }

    /// Replaces the declarative backend choice (default: seeded 50/50
    /// random outcomes).
    pub fn backend(&mut self, backend: BackendSpec) -> &mut Self {
        self.backend = backend;
        self
    }

    /// Attaches the topology used for multi-hop latency derivation
    /// (pre-set by [`SystemSpec::from_topology`]).
    pub fn topology(&mut self, topology: Topology) -> &mut Self {
        self.topology = Some(topology);
        self
    }

    /// Replaces the contention model every directed link runs by
    /// default (the transparent pure-latency model unless set). The
    /// spec is the only place a fabric is declared. Per-edge overrides
    /// set earlier are kept unless they now equal the new default.
    pub fn link_model(&mut self, model: LinkModel) -> &mut Self {
        self.fabric.set_default(model);
        self
    }

    /// Overrides the contention model of one directed link `from → to`
    /// (see [`FabricMap::set_edge`]).
    pub fn link_model_for(&mut self, from: NodeAddr, to: NodeAddr, model: LinkModel) -> &mut Self {
        self.fabric.set_edge(from, to, model);
        self
    }

    /// The per-edge contention fabric the built system will run.
    pub fn fabric(&self) -> &FabricMap {
        &self.fabric
    }

    /// Adds a controller node running `program`.
    pub fn controller(&mut self, config: NodeConfig, program: Vec<Inst>) -> &mut Self {
        self.controllers.push((config, program));
        self
    }

    /// Adds a router node.
    pub fn router(&mut self, router: Router) -> &mut Self {
        self.routers.push(router);
        self
    }

    /// Adds a broadcast hub at `addr` (see [`Hub`]).
    pub fn hub(&mut self, addr: NodeAddr, hub: Hub) -> &mut Self {
        self.hubs.push((addr, hub));
        self
    }

    /// Binds a `(node, port, codeword)` commit to a quantum action
    /// (later bindings of the same key win).
    pub fn bind(
        &mut self,
        node: NodeAddr,
        port: u32,
        codeword: u32,
        action: QuantumAction,
    ) -> &mut Self {
        self.bindings.push((node, port, codeword, action));
        self
    }

    /// Number of controllers described so far.
    pub fn num_controllers(&self) -> usize {
        self.controllers.len()
    }

    /// Validates the description and lowers it into a runnable
    /// [`System`]: addresses are interned into dense arena ids, hub
    /// subscribers are pre-resolved (and those whose program can `recv`
    /// from the hub marked as its listeners), and bindings are attached
    /// to their controllers.
    ///
    /// # Errors
    ///
    /// - [`SimError::DuplicateAddr`] if any two nodes share an address
    ///   (routers and hubs are registered before controllers, so a
    ///   program colliding with infrastructure reports the
    ///   infrastructure address);
    /// - [`SimError::AddrOutOfRange`] if any node sits at or above
    ///   [`MEAS_FIFO_ADDR`] (the error names the highest address);
    /// - [`SimError::UnknownAddr`] if a hub subscriber or binding names
    ///   an address that is not a controller.
    pub fn build(self) -> Result<System, SimError> {
        // Intern addresses in registration order: routers, hubs,
        // controllers, into vectors sized for every node up front.
        let max_addr = self
            .routers
            .iter()
            .map(|r| r.addr())
            .chain(self.hubs.iter().map(|&(addr, _)| addr))
            .chain(self.controllers.iter().map(|(c, _)| c.addr))
            .max();
        if let Some(addr) = max_addr.filter(|&a| a >= MEAS_FIFO_ADDR) {
            return Err(SimError::AddrOutOfRange {
                addr,
                limit: MEAS_FIFO_ADDR,
            });
        }
        let node_count = self.routers.len() + self.hubs.len() + self.controllers.len();
        let mut arena = Arena {
            addr_to_id: vec![NodeId::MAX; max_addr.map_or(0, |a| a as usize + 1)],
            addrs: Vec::with_capacity(node_count),
            nodes: Vec::with_capacity(node_count),
        };

        for router in self.routers {
            let addr = router.addr();
            arena.intern(addr, SimNode::Router(router))?;
        }
        // Hubs are interned with empty subscriber lists first;
        // subscribers resolve after every controller has an id.
        let mut hub_specs: Vec<(NodeId, Hub)> = Vec::new();
        for (addr, hub) in self.hubs {
            let id = arena.intern(
                addr,
                SimNode::Hub(HubNode {
                    subscriber_ids: Vec::new(),
                    listeners: Vec::new(),
                    down_latency: hub.down_latency,
                }),
            )?;
            hub_specs.push((id, hub));
        }
        for (config, program) in self.controllers {
            let addr = config.addr;
            arena.intern(
                addr,
                SimNode::Controller(Box::new(ControllerNode::new(config, program))),
            )?;
        }
        let Arena {
            addr_to_id,
            addrs,
            mut nodes,
        } = arena;

        for (hub_id, hub) in hub_specs {
            let ids = hub
                .subscribers
                .iter()
                .map(|&s| resolve_controller(&addr_to_id, &nodes, s, "hub subscriber"))
                .collect::<Result<Vec<NodeId>, SimError>>()?;
            let hub_addr = addrs[hub_id as usize];
            let listeners = ids
                .iter()
                .enumerate()
                .filter(|&(_, &id)| {
                    nodes[id as usize]
                        .as_controller()
                        .is_some_and(|node| node.ctrl.can_recv_from(hub_addr))
                })
                .map(|(position, &id)| (position as u32, id))
                .collect();
            let SimNode::Hub(node) = &mut nodes[hub_id as usize] else {
                unreachable!("interned as hub");
            };
            node.subscriber_ids = ids;
            node.listeners = listeners;
        }
        for (addr, port, codeword, action) in self.bindings {
            let id = resolve_controller(&addr_to_id, &nodes, addr, "binding node")?;
            let node = nodes[id as usize]
                .as_controller_mut()
                .expect("resolved as controller");
            node.bindings.insert((port, codeword), action);
        }

        // Controllers step in ascending address order (the engine's
        // deterministic scheduling contract).
        let mut controller_ids: Vec<NodeId> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.as_controller().is_some())
            .map(|(i, _)| i as NodeId)
            .collect();
        controller_ids.sort_by_key(|&id| addrs[id as usize]);

        Ok(System::from_parts(
            self.config,
            Arena {
                addr_to_id,
                addrs,
                nodes,
            },
            controller_ids,
            self.topology,
            self.backend.instantiate(),
            self.fabric,
        ))
    }
}

/// The three parallel arrays [`SystemSpec::build`] populates while
/// interning addresses (and hands to the engine whole).
pub(crate) struct Arena {
    pub(crate) addr_to_id: Vec<NodeId>,
    pub(crate) addrs: Vec<hisq_core::NodeAddr>,
    pub(crate) nodes: Vec<SimNode>,
}

impl Arena {
    fn intern(&mut self, addr: NodeAddr, node: SimNode) -> Result<NodeId, SimError> {
        let slot = &mut self.addr_to_id[addr as usize];
        if *slot != NodeId::MAX {
            return Err(SimError::DuplicateAddr(addr));
        }
        let id = self.nodes.len() as NodeId;
        *slot = id;
        self.addrs.push(addr);
        self.nodes.push(node);
        Ok(id)
    }
}

/// Resolves `addr` to the arena id of a *controller*, the only node
/// kind bindings and hub subscriptions may target.
fn resolve_controller(
    addr_to_id: &[NodeId],
    nodes: &[SimNode],
    addr: NodeAddr,
    role: &'static str,
) -> Result<NodeId, SimError> {
    addr_to_id
        .get(addr as usize)
        .copied()
        .filter(|&id| id != NodeId::MAX && nodes[id as usize].as_controller().is_some())
        .ok_or(SimError::UnknownAddr { addr, role })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisq_isa::Assembler;
    use hisq_net::TopologyBuilder;

    fn asm(src: &str) -> Vec<Inst> {
        Assembler::new().assemble(src).unwrap().insts().to_vec()
    }

    #[test]
    fn duplicate_controller_addr_is_rejected() {
        let mut spec = SystemSpec::new();
        spec.controller(NodeConfig::new(3), asm("stop"));
        spec.controller(NodeConfig::new(3), asm("stop"));
        assert_eq!(spec.build().unwrap_err(), SimError::DuplicateAddr(3));
    }

    #[test]
    fn nodes_sit_below_the_measurement_fifo_address() {
        let mut spec = SystemSpec::new();
        spec.controller(NodeConfig::new(MEAS_FIFO_ADDR - 1), asm("stop"));
        assert!(spec.build().is_ok(), "4094 is the highest node address");
        let mut spec = SystemSpec::new();
        spec.controller(NodeConfig::new(0), asm("stop"));
        spec.controller(NodeConfig::new(0xFFF), asm("stop"));
        let err = spec.build().unwrap_err();
        assert_eq!(
            err,
            SimError::AddrOutOfRange {
                addr: 4095,
                limit: 4095
            }
        );
        assert!(err.to_string().contains("4095"), "{err}");
    }

    #[test]
    fn program_at_router_address_is_rejected() {
        let topo = TopologyBuilder::linear(2).build();
        let router = topo.root_router().unwrap();
        let mut programs = BTreeMap::new();
        programs.insert(0, asm("stop"));
        programs.insert(router, asm("stop"));
        let spec = SystemSpec::from_topology(&topo, programs);
        assert_eq!(spec.build().unwrap_err(), SimError::DuplicateAddr(router));
    }

    #[test]
    fn controller_at_hub_address_is_rejected() {
        let mut spec = SystemSpec::new();
        spec.hub(
            9,
            Hub {
                subscribers: vec![],
                down_latency: 25,
            },
        );
        spec.controller(NodeConfig::new(9), asm("stop"));
        assert_eq!(spec.build().unwrap_err(), SimError::DuplicateAddr(9));
    }

    #[test]
    fn dangling_hub_subscriber_is_rejected() {
        let mut spec = SystemSpec::new();
        spec.controller(NodeConfig::new(0), asm("stop"));
        spec.hub(
            1,
            Hub {
                subscribers: vec![0, 7],
                down_latency: 25,
            },
        );
        assert_eq!(
            spec.build().unwrap_err(),
            SimError::UnknownAddr {
                addr: 7,
                role: "hub subscriber"
            }
        );
    }

    #[test]
    fn dangling_binding_is_rejected() {
        let mut spec = SystemSpec::new();
        spec.controller(NodeConfig::new(0), asm("stop"));
        spec.bind(5, 0, 1, QuantumAction::Measure { qubit: 0 });
        assert_eq!(
            spec.build().unwrap_err(),
            SimError::UnknownAddr {
                addr: 5,
                role: "binding node"
            }
        );
    }

    #[test]
    fn binding_at_router_address_is_rejected() {
        let mut spec = SystemSpec::new();
        spec.controller(NodeConfig::new(0), asm("stop"));
        spec.router(Router::new(1, None, vec![0]));
        spec.bind(1, 0, 1, QuantumAction::Measure { qubit: 0 });
        assert!(matches!(
            spec.build().unwrap_err(),
            SimError::UnknownAddr { addr: 1, .. }
        ));
    }

    #[test]
    fn later_bindings_override_earlier_ones() {
        let mut spec = SystemSpec::new();
        spec.controller(NodeConfig::new(0), asm("waiti 5\ncw.i.i 2, 1\nstop"));
        spec.bind(0, 2, 1, QuantumAction::Measure { qubit: 3 });
        spec.bind(0, 2, 1, QuantumAction::gate(hisq_quantum::Gate::X, &[1]));
        let mut system = spec.build().unwrap();
        let report = system.run().unwrap();
        assert!(report.all_halted);
        // The override is a gate, not a measurement: exposure reflects
        // a 20 ns X on qubit 1 and nothing on qubit 3.
        assert!(system.exposure().exposure_ns(1) > 0);
        assert_eq!(system.exposure().exposure_ns(3), 0);
    }

    #[test]
    fn from_topology_wires_links_and_routers() {
        let topo = TopologyBuilder::linear(4)
            .router_arity(2)
            .neighbor_latency(3)
            .router_latency(9)
            .build();
        let mut programs = BTreeMap::new();
        for addr in 0..4u16 {
            programs.insert(addr, asm("stop"));
        }
        let system = SystemSpec::from_topology(&topo, programs).build().unwrap();
        for addr in 0..4u16 {
            assert!(system.controller(addr).is_some());
        }
        assert!(system.controller(topo.root_router().unwrap()).is_none());
    }

    #[test]
    fn backend_spec_selects_the_backend() {
        assert_eq!(
            BackendSpec::default(),
            BackendSpec::Random {
                seed: 0,
                p_one: 0.5
            }
        );
    }
}
