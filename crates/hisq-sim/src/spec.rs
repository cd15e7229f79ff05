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
//! # Sharing
//!
//! The deployment — controllers, routers, hubs, topology and bindings
//! — sits behind one [`Arc`], so cloning a spec copies nothing but the
//! run-stage fields (engine configuration, backend, fabric). Each
//! controller is held as a [`ControllerImage`]: its program and
//! flattened link table are shared by every [`System`] built from the
//! spec, and its `cw`/`sync` counts size each run's commit log and
//! timeline. Everything `build` derives from the deployment alone
//! (address interning, stepping order, tree parents, hub listeners,
//! per-controller binding tables) is derived by the first build and
//! shared by the builds after it. Describing a node on a clone copies
//! the deployment first, so the other clones are unaffected.
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
use std::sync::{Arc, OnceLock};

use hisq_core::{Controller, ControllerImage, NodeAddr, NodeConfig, MEAS_FIFO_ADDR};
use hisq_isa::Inst;
use hisq_net::{FabricMap, LinkModel, Router, Topology};
use hisq_quantum::QuantumAction;

use crate::backend::{LeakyRandomBackend, QuantumBackend, RandomBackend};
use crate::config::{SimConfig, SimError};
use crate::engine::System;
use crate::nodes::{BindingTable, ControllerNode, Hub, HubNode, NodeId, SimNode};

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
    fn instantiate(self) -> Box<dyn QuantumBackend> {
        match self {
            BackendSpec::Random { seed, p_one } => Box::new(RandomBackend::new(seed, p_one)),
            BackendSpec::Leaky { seed, p_one, noise } => {
                Box::new(LeakyRandomBackend::new(seed, p_one, noise))
            }
        }
    }
}

/// A complete, declarative description of a Distributed-HISQ
/// deployment. See the [module docs](self) for the building/validation
/// contract and for what clones share.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemSpec {
    config: SimConfig,
    backend: BackendSpec,
    fabric: FabricMap,
    deployment: Arc<Deployment>,
}

/// The nodes a spec describes, and the [`Layout`] its first build
/// derives from them.
#[derive(Debug, Clone, Default)]
struct Deployment {
    controllers: Vec<ControllerImage>,
    routers: Vec<Router>,
    hubs: Vec<(NodeAddr, Hub)>,
    topology: Option<Arc<Topology>>,
    /// Controller address → `(port, codeword)` → action; a later
    /// binding of the same key replaces the earlier one.
    bindings: BTreeMap<NodeAddr, BTreeMap<(u32, u32), QuantumAction>>,
    /// Derived on the first build, and reset whenever a node is
    /// described.
    layout: OnceLock<Result<Layout, SimError>>,
}

impl PartialEq for Deployment {
    /// Two deployments are equal when they describe the same nodes,
    /// whether or not either has been built yet.
    fn eq(&self, other: &Deployment) -> bool {
        self.controllers == other.controllers
            && self.routers == other.routers
            && self.hubs == other.hubs
            && self.topology == other.topology
            && self.bindings == other.bindings
    }
}

/// What [`SystemSpec::build`] derives from a deployment alone, shared
/// by every [`System`] built from it: address interning, stepping
/// order, tree parents, resolved hubs and per-controller binding
/// tables. Each table sits behind its own [`Arc`], so the engine reads
/// it through one pointer, as it would a `Vec` of its own.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    /// address → arena id (sentinel [`NodeId::MAX`] = unregistered),
    /// sized to the largest registered address.
    pub(crate) addr_to_id: Arc<[NodeId]>,
    /// arena id → address. Routers come first, then hubs, then
    /// controllers, each in description order.
    pub(crate) addrs: Arc<[NodeAddr]>,
    /// Controller ids in ascending address order (the engine's
    /// deterministic stepping order).
    pub(crate) controller_ids: Arc<[NodeId]>,
    /// Per-node tree parent (`NodeAddr::MAX` = none / no topology),
    /// the first hop of every controller booking.
    pub(crate) tree_parent: Arc<[NodeAddr]>,
    /// The hubs, subscribers resolved to arena ids.
    hubs: Vec<HubNode>,
    /// Each controller's binding table, in description order.
    bindings: Vec<BindingTable>,
}

impl Deployment {
    /// The layout, derived on first use.
    fn layout(&self) -> Result<&Layout, SimError> {
        self.layout
            .get_or_init(|| self.derive())
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Every node address in registration order: routers, hubs,
    /// controllers.
    fn registered(&self) -> impl Iterator<Item = NodeAddr> + '_ {
        self.routers
            .iter()
            .map(Router::addr)
            .chain(self.hubs.iter().map(|&(addr, _)| addr))
            .chain(self.controllers.iter().map(ControllerImage::addr))
    }

    /// Validates the deployment and derives its layout (see
    /// [`SystemSpec::build`] for the errors).
    fn derive(&self) -> Result<Layout, SimError> {
        // Intern addresses in registration order, into vectors sized
        // for every node up front.
        let max_addr = self.registered().max();
        if let Some(addr) = max_addr.filter(|&a| a >= MEAS_FIFO_ADDR) {
            return Err(SimError::AddrOutOfRange {
                addr,
                limit: MEAS_FIFO_ADDR,
            });
        }
        let node_count = self.routers.len() + self.hubs.len() + self.controllers.len();
        let mut addr_to_id = vec![NodeId::MAX; max_addr.map_or(0, |a| a as usize + 1)];
        let mut addrs = Vec::with_capacity(node_count);
        for addr in self.registered() {
            let slot = &mut addr_to_id[addr as usize];
            if *slot != NodeId::MAX {
                return Err(SimError::DuplicateAddr(addr));
            }
            *slot = addrs.len() as NodeId;
            addrs.push(addr);
        }

        // Controllers take the ids after every router and hub.
        let first = (self.routers.len() + self.hubs.len()) as NodeId;
        let controller_id = |addr: NodeAddr, role: &'static str| {
            addr_to_id
                .get(addr as usize)
                .copied()
                .filter(|&id| id != NodeId::MAX && id >= first)
                .ok_or(SimError::UnknownAddr { addr, role })
        };
        let mut hubs = Vec::with_capacity(self.hubs.len());
        for (hub_addr, hub) in &self.hubs {
            let subscriber_ids = hub
                .subscribers
                .iter()
                .map(|&s| controller_id(s, "hub subscriber"))
                .collect::<Result<Arc<[NodeId]>, SimError>>()?;
            // Only a subscriber whose program can `recv` from the hub is
            // offered a broadcast (see `HubNode::listeners`).
            let listeners = subscriber_ids
                .iter()
                .enumerate()
                .filter(|&(_, &id)| {
                    self.controllers[(id - first) as usize].can_recv_from(*hub_addr)
                })
                .map(|(position, &id)| (position as u32, id))
                .collect();
            hubs.push(HubNode {
                subscriber_ids,
                listeners,
                down_latency: hub.down_latency,
            });
        }
        let unbound: BindingTable = Arc::from([]);
        let mut bindings = vec![unbound; self.controllers.len()];
        for (&addr, table) in &self.bindings {
            let id = controller_id(addr, "binding node")?;
            bindings[(id - first) as usize] =
                table.iter().map(|(&key, &action)| (key, action)).collect();
        }

        let mut controller_ids: Vec<NodeId> = (first..addrs.len() as NodeId).collect();
        controller_ids.sort_by_key(|&id| addrs[id as usize]);
        let tree_parent: Vec<NodeAddr> = match &self.topology {
            Some(topo) => addrs
                .iter()
                .map(|&addr| topo.parent_of(addr).unwrap_or(NodeAddr::MAX))
                .collect(),
            None => vec![NodeAddr::MAX; addrs.len()],
        };
        Ok(Layout {
            addr_to_id: addr_to_id.into(),
            addrs: addrs.into(),
            controller_ids: controller_ids.into(),
            tree_parent: tree_parent.into(),
            hubs,
            bindings,
        })
    }
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
    pub fn from_topology(
        topology: &Topology,
        programs: BTreeMap<NodeAddr, impl Into<Arc<[Inst]>>>,
    ) -> Self {
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
        spec.topology(topology.clone());
        spec
    }

    /// The deployment, ready to describe nodes: copied first if
    /// another clone shares it, and with its derived layout dropped.
    fn deployment_mut(&mut self) -> &mut Deployment {
        let deployment = Arc::make_mut(&mut self.deployment);
        deployment.layout = OnceLock::new();
        deployment
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
        self.deployment_mut().topology = Some(Arc::new(topology));
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

    /// Adds a controller node running `program`. An `Arc<[Inst]>` is
    /// shared as it is; any other program is copied once, here.
    pub fn controller(&mut self, config: NodeConfig, program: impl Into<Arc<[Inst]>>) -> &mut Self {
        let image = ControllerImage::new(config, program);
        self.deployment_mut().controllers.push(image);
        self
    }

    /// Adds a router node.
    pub fn router(&mut self, router: Router) -> &mut Self {
        self.deployment_mut().routers.push(router);
        self
    }

    /// Adds a broadcast hub at `addr` (see [`Hub`]).
    pub fn hub(&mut self, addr: NodeAddr, hub: Hub) -> &mut Self {
        self.deployment_mut().hubs.push((addr, hub));
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
        self.deployment_mut()
            .bindings
            .entry(node)
            .or_default()
            .insert((port, codeword), action);
        self
    }

    /// Number of controllers described so far.
    pub fn num_controllers(&self) -> usize {
        self.deployment.controllers.len()
    }

    /// Validates the description and lowers it into a runnable
    /// [`System`]: addresses are interned into dense arena ids, hub
    /// subscribers are pre-resolved (and those whose program can `recv`
    /// from the hub marked as its listeners), and bindings are attached
    /// to their controllers. The first build of a deployment does this
    /// derivation; later builds, of this spec or of any clone sharing
    /// its deployment, reuse it and allocate only the run's own state.
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
    ///   an address that is not a controller (bindings are checked in
    ///   address order).
    pub fn build(self) -> Result<System, SimError> {
        let layout = self.deployment.layout()?;
        let deployment = &*self.deployment;
        let mut nodes = Vec::with_capacity(layout.addrs.len());
        nodes.extend(deployment.routers.iter().cloned().map(SimNode::Router));
        nodes.extend(layout.hubs.iter().cloned().map(SimNode::Hub));
        nodes.extend(deployment.controllers.iter().zip(&layout.bindings).map(
            |(image, bindings)| {
                SimNode::Controller(Box::new(ControllerNode {
                    ctrl: Controller::from_image(image),
                    watermark: 0,
                    bindings: Arc::clone(bindings),
                }))
            },
        ));
        Ok(System::from_parts(
            self.config,
            nodes,
            layout,
            deployment.topology.clone(),
            self.backend.instantiate(),
            self.fabric,
        ))
    }
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
