//! The hybrid topology of Distributed-HISQ (§5.1).
//!
//! - **Intra-layer (mesh)**: controllers are arranged to mirror the qubit
//!   device topology (Insight #2/#3), here a rectangular grid with
//!   4-neighbour edges — two-qubit gates only ever need nearby sync
//!   between adjacent controllers.
//! - **Inter-layer (tree)**: a balanced `k`-ary router tree over the
//!   controllers minimizes edges (`N − 1` for `N` nodes) while keeping
//!   region-level communication within `2 × height` hops.
//!
//! Controllers receive addresses `0..num_controllers`; routers are
//! numbered upwards from `num_controllers`, level by level, with the
//! root last.

use std::collections::BTreeMap;

use hisq_core::{NodeAddr, NodeConfig, CYCLE_NS, MAX_WAITI_CYCLES};

/// Loss model of a contended classical link: each transmission attempt
/// of a packetized classical message is dropped with a fixed
/// probability, drawn from a deterministic seeded stream, and the
/// sender retransmits after a timeout until an attempt survives or the
/// attempt budget runs out.
///
/// Sync pulses and region-sync traffic ride dedicated reliable wires
/// and are never dropped; only [`Classical`](crate::Payload::Classical)
/// payloads are subject to loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DropPolicy {
    /// Per-attempt loss probability in parts per million
    /// (`1_000_000` = every attempt lost).
    pub loss_ppm: u32,
    /// Seed of the deterministic drop stream (per-link streams are
    /// derived from it, so runs are reproducible across thread counts).
    pub seed: u64,
    /// Transmission attempts before the message is abandoned for good
    /// (counted in the per-link `dropped` statistic). Must be ≥ 1.
    pub max_attempts: u32,
}

impl Default for DropPolicy {
    /// 1% loss, seed 0, 16 attempts.
    fn default() -> DropPolicy {
        DropPolicy {
            loss_ppm: 10_000,
            seed: 0,
            max_attempts: 16,
        }
    }
}

/// Contention model of a classical link: how long a message occupies
/// one of the link's serialization slots, how many slots exist, and an
/// optional loss model.
///
/// The default model (`serialization_ns == 0`, no loss) is
/// *transparent*: messages are delivered at `sent_at + latency` exactly
/// as the pure-latency engine always has, so attaching the default
/// model changes nothing — it exists so contention can become a sweep
/// axis without forking the configuration surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkModel {
    /// Time one packetized message occupies a serialization slot, in
    /// nanoseconds (0 = no serialization, the pure-latency model).
    /// Parsed models hold at most [`LinkModel::MAX_SERIALIZATION_NS`].
    pub serialization_ns: u64,
    /// Parallel serialization slots (lanes) per directed link. Must be
    /// ≥ 1; ignored while the model is transparent.
    pub capacity: u32,
    /// Loss model; `None` = lossless.
    pub drop: Option<DropPolicy>,
}

impl Default for LinkModel {
    /// Transparent: zero serialization, one lane, lossless.
    fn default() -> LinkModel {
        LinkModel {
            serialization_ns: 0,
            capacity: 1,
            drop: None,
        }
    }
}

impl LinkModel {
    /// The longest serialization time [`LinkModel::from_json`] accepts:
    /// one [`MAX_WAITI_CYCLES`] wait, 16 777 212 ns. The engine holds a
    /// slot for the time rounded up to whole cycles and adds it to cycle
    /// counts unchecked.
    pub const MAX_SERIALIZATION_NS: u64 = MAX_WAITI_CYCLES as u64 * CYCLE_NS;

    /// A lossless model that serializes messages for
    /// `serialization_ns` through a single slot.
    pub fn serialized(serialization_ns: u64) -> LinkModel {
        LinkModel {
            serialization_ns,
            ..LinkModel::default()
        }
    }

    /// Replaces the slot count (builder style).
    #[must_use]
    pub fn with_capacity(mut self, capacity: u32) -> LinkModel {
        self.capacity = capacity;
        self
    }

    /// Attaches a loss model (builder style).
    #[must_use]
    pub fn with_drop(mut self, drop: DropPolicy) -> LinkModel {
        self.drop = Some(drop);
        self
    }

    /// `true` when the model cannot affect delivery: no serialization
    /// and no loss. The engine bypasses all queue bookkeeping for
    /// transparent links, reproducing the pure-latency behavior
    /// byte-for-byte.
    pub fn is_transparent(&self) -> bool {
        self.serialization_ns == 0 && self.drop.is_none()
    }
}

/// Per-directed-edge link contention models with a uniform default —
/// the heterogeneous-fabric generalization of the single topology-wide
/// [`LinkModel`].
///
/// Resolution order is *default → per-edge override*: every directed
/// edge `(from, to)` runs the default model unless an override was
/// registered for exactly that edge ([`FabricMap::set_edge`]). A map
/// with no overrides behaves byte-identically to the legacy single
/// model; overrides equal to the default are normalized away, so
/// [`FabricMap::is_uniform`] is exact.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FabricMap {
    /// The model every edge runs unless overridden.
    default: LinkModel,
    /// Per-directed-edge overrides (never storing the default).
    overrides: BTreeMap<(NodeAddr, NodeAddr), LinkModel>,
}

impl FabricMap {
    /// A uniform fabric: every edge runs `default`, no overrides.
    pub fn uniform(default: LinkModel) -> FabricMap {
        FabricMap {
            default,
            overrides: BTreeMap::new(),
        }
    }

    /// The uniform default model.
    pub fn default_model(&self) -> LinkModel {
        self.default
    }

    /// Replaces the uniform default (overrides are kept).
    pub fn set_default(&mut self, default: LinkModel) {
        self.default = default;
        let keep_default = self.default;
        self.overrides.retain(|_, m| *m != keep_default);
    }

    /// Overrides the model of the directed edge `from → to`. Setting
    /// an edge back to the default removes the override.
    pub fn set_edge(&mut self, from: NodeAddr, to: NodeAddr, model: LinkModel) {
        if model == self.default {
            self.overrides.remove(&(from, to));
        } else {
            self.overrides.insert((from, to), model);
        }
    }

    /// The model the directed edge `from → to` runs (the override if
    /// one exists, the default otherwise).
    pub fn resolve(&self, from: NodeAddr, to: NodeAddr) -> LinkModel {
        self.overrides
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default)
    }

    /// The per-edge overrides in ascending `(from, to)` order.
    pub fn overrides(&self) -> impl Iterator<Item = (NodeAddr, NodeAddr, LinkModel)> + '_ {
        self.overrides.iter().map(|(&(f, t), &m)| (f, t, m))
    }

    /// `true` when no edge deviates from the default.
    pub fn is_uniform(&self) -> bool {
        self.overrides.is_empty()
    }

    /// `true` when no edge of the fabric can affect delivery (default
    /// and every override transparent) — the engine's fast-path
    /// condition, byte-identical to the pure-latency engine.
    pub fn is_transparent(&self) -> bool {
        self.default.is_transparent() && self.overrides.values().all(LinkModel::is_transparent)
    }
}

impl From<LinkModel> for FabricMap {
    fn from(default: LinkModel) -> FabricMap {
        FabricMap::uniform(default)
    }
}

/// Builder for [`Topology`].
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    width: usize,
    height: usize,
    neighbor_latency: u64,
    router_arity: usize,
    router_latency: u64,
    pipeline_headroom: u64,
    fabric: FabricMap,
}

impl TopologyBuilder {
    /// A `width × height` controller grid.
    pub fn grid(width: usize, height: usize) -> TopologyBuilder {
        assert!(
            width * height > 0,
            "topology must have at least one controller"
        );
        TopologyBuilder {
            width,
            height,
            neighbor_latency: 5,
            router_arity: 4,
            router_latency: 10,
            pipeline_headroom: 32,
            fabric: FabricMap::default(),
        }
    }

    /// A 1-D chain of `n` controllers.
    pub fn linear(n: usize) -> TopologyBuilder {
        TopologyBuilder::grid(n, 1)
    }

    /// Sets the one-way mesh-edge latency in cycles (default 5 = 20 ns).
    pub fn neighbor_latency(mut self, cycles: u64) -> TopologyBuilder {
        self.neighbor_latency = cycles;
        self
    }

    /// Sets the router tree arity (default 4).
    pub fn router_arity(mut self, arity: usize) -> TopologyBuilder {
        assert!(arity >= 2, "router arity must be at least 2");
        self.router_arity = arity;
        self
    }

    /// Sets the one-way tree-edge latency in cycles (default 10 = 40 ns).
    pub fn router_latency(mut self, cycles: u64) -> TopologyBuilder {
        self.router_latency = cycles;
        self
    }

    /// Sets the controllers' TCU queue decoupling margin (default 32).
    pub fn pipeline_headroom(mut self, cycles: u64) -> TopologyBuilder {
        self.pipeline_headroom = cycles;
        self
    }

    /// Sets the *default* contention model of this topology's fabric —
    /// the model every link runs unless overridden per edge via
    /// [`TopologyBuilder::link_model_for`] (default: the transparent
    /// pure-latency model).
    pub fn link_model(mut self, model: LinkModel) -> TopologyBuilder {
        self.fabric.set_default(model);
        self
    }

    /// Overrides the contention model of the single directed edge
    /// `from → to` (a hot link in an otherwise uniform fabric). The
    /// uniform default stays whatever [`TopologyBuilder::link_model`]
    /// set.
    pub fn link_model_for(
        mut self,
        from: NodeAddr,
        to: NodeAddr,
        model: LinkModel,
    ) -> TopologyBuilder {
        self.fabric.set_edge(from, to, model);
        self
    }

    /// Builds the topology: mesh edges plus a balanced router tree.
    pub fn build(self) -> Topology {
        let num_controllers = self.width * self.height;
        let mut parent: BTreeMap<NodeAddr, NodeAddr> = BTreeMap::new();
        let mut children: BTreeMap<NodeAddr, Vec<NodeAddr>> = BTreeMap::new();

        // Build the router tree bottom-up over controller addresses.
        let mut level: Vec<NodeAddr> = (0..num_controllers as u16).collect();
        let mut next_addr = num_controllers as u16;
        let mut routers: Vec<NodeAddr> = Vec::new();
        while level.len() > 1 || routers.is_empty() {
            let mut next_level = Vec::new();
            for group in level.chunks(self.router_arity) {
                let router = next_addr;
                next_addr += 1;
                routers.push(router);
                for &child in group {
                    parent.insert(child, router);
                }
                children.insert(router, group.to_vec());
                next_level.push(router);
            }
            level = next_level;
        }

        // Mesh edges: 4-neighbourhood on the grid.
        let mesh = grid_mesh(self.width, self.height);

        Topology {
            width: self.width,
            height: self.height,
            num_controllers,
            neighbor_latency: self.neighbor_latency,
            router_latency: self.router_latency,
            pipeline_headroom: self.pipeline_headroom,
            fabric: self.fabric,
            parent,
            children,
            routers,
            mesh,
        }
    }
}

/// A built hybrid topology. See the module docs for the addressing
/// scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    width: usize,
    height: usize,
    num_controllers: usize,
    neighbor_latency: u64,
    router_latency: u64,
    pipeline_headroom: u64,
    fabric: FabricMap,
    /// Child → parent router, for controllers and non-root routers.
    parent: BTreeMap<NodeAddr, NodeAddr>,
    /// Router → children (controllers or routers).
    children: BTreeMap<NodeAddr, Vec<NodeAddr>>,
    /// Router addresses, creation (level) order; root last.
    routers: Vec<NodeAddr>,
    /// Controller → mesh neighbours.
    mesh: BTreeMap<NodeAddr, Vec<NodeAddr>>,
}

impl Topology {
    /// Number of controllers (mesh layer).
    pub fn num_controllers(&self) -> usize {
        self.num_controllers
    }

    /// Number of routers (tree layers).
    pub fn num_routers(&self) -> usize {
        self.routers.len()
    }

    /// Grid width of the mesh layer.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height of the mesh layer.
    pub fn height(&self) -> usize {
        self.height
    }

    /// One-way mesh-edge latency in cycles.
    pub fn neighbor_latency(&self) -> u64 {
        self.neighbor_latency
    }

    /// One-way tree-edge latency in cycles.
    pub fn router_latency(&self) -> u64 {
        self.router_latency
    }

    /// The per-directed-edge fabric map this topology's links carry
    /// (uniform and transparent unless set via
    /// [`TopologyBuilder::link_model`] /
    /// [`TopologyBuilder::link_model_for`]).
    pub fn fabric(&self) -> &FabricMap {
        &self.fabric
    }

    /// The controller address at grid position `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the grid.
    pub fn controller_at(&self, x: usize, y: usize) -> NodeAddr {
        assert!(x < self.width && y < self.height, "({x},{y}) outside grid");
        (y * self.width + x) as u16
    }

    /// Grid coordinates of a controller address.
    pub fn coords(&self, addr: NodeAddr) -> (usize, usize) {
        let addr = addr as usize;
        assert!(addr < self.num_controllers, "{addr} is not a controller");
        (addr % self.width, addr / self.width)
    }

    /// `true` if `addr` names a router.
    ///
    /// Membership-based (not an address-range check): spec surgery can
    /// remove router levels, leaving gaps in the router address space.
    pub fn is_router(&self, addr: NodeAddr) -> bool {
        self.children.contains_key(&addr)
    }

    /// The root of the router tree.
    pub fn root_router(&self) -> Option<NodeAddr> {
        self.routers.last().copied()
    }

    /// All router addresses, bottom level first.
    pub fn routers(&self) -> &[NodeAddr] {
        &self.routers
    }

    /// The parent router of a controller or router (None for the root).
    pub fn parent_of(&self, addr: NodeAddr) -> Option<NodeAddr> {
        self.parent.get(&addr).copied()
    }

    /// The children (controllers or routers) of a router.
    pub fn children_of(&self, router: NodeAddr) -> &[NodeAddr] {
        self.children.get(&router).map_or(&[], Vec::as_slice)
    }

    /// Mesh neighbours of a controller.
    pub fn mesh_neighbors(&self, addr: NodeAddr) -> &[NodeAddr] {
        self.mesh.get(&addr).map_or(&[], Vec::as_slice)
    }

    /// Ancestor routers of a node, nearest first (ends at the root).
    pub fn ancestors(&self, addr: NodeAddr) -> Vec<NodeAddr> {
        let mut out = Vec::new();
        let mut cursor = addr;
        while let Some(p) = self.parent_of(cursor) {
            out.push(p);
            cursor = p;
        }
        out
    }

    /// All controllers in the subtree of `router`.
    pub fn subtree_controllers(&self, router: NodeAddr) -> Vec<NodeAddr> {
        let mut out = Vec::new();
        let mut stack = vec![router];
        while let Some(node) = stack.pop() {
            if self.is_router(node) {
                stack.extend(self.children_of(node));
            } else {
                out.push(node);
            }
        }
        out.sort_unstable();
        out
    }

    /// The lowest common ancestor router of a set of controllers — the
    /// natural coordinator for a region-level sync.
    pub fn region_router(&self, controllers: &[NodeAddr]) -> Option<NodeAddr> {
        let first = *controllers.first()?;
        for candidate in self.ancestors(first) {
            let covers_all = controllers
                .iter()
                .all(|&c| c == candidate || self.ancestors(c).contains(&candidate));
            if covers_all {
                return Some(candidate);
            }
        }
        None
    }

    /// Tree height (router levels above the controllers).
    pub fn tree_height(&self) -> usize {
        self.root_router()
            .map(|root| {
                // Depth of the deepest controller below the root.
                self.ancestors(0).len()
                    + usize::from(!self.ancestors(0).contains(&root) && root != 0)
            })
            .unwrap_or(0)
    }

    /// Manhattan distance between two controllers on the mesh (in hops).
    pub fn manhattan(&self, a: NodeAddr, b: NodeAddr) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// Per-hop store-and-forward overhead for packetized classical
    /// messages (serialization + switching), on top of the wire latency.
    /// Sync pulses ride dedicated 1-bit LVDS wires and do not pay this.
    pub const CLASSICAL_FORWARD_OVERHEAD: u64 = 10;

    /// End-to-end classical message latency between two controllers:
    /// hop-by-hop store-and-forward over the mesh, so it **grows with
    /// distance** (the Distributed-HISQ cost the paper contrasts with
    /// the baseline's assumed-constant latency, §6.4.4) — this is what
    /// makes the long-haul `bv` benchmarks favour the baseline.
    pub fn classical_latency(&self, a: NodeAddr, b: NodeAddr) -> u64 {
        self.manhattan(a, b).max(1) as u64
            * (self.neighbor_latency + Self::CLASSICAL_FORWARD_OVERHEAD)
    }

    /// The one-way latency of the direct link between `a` and `b`,
    /// if such a link exists (mesh edge or tree edge).
    pub fn latency(&self, a: NodeAddr, b: NodeAddr) -> Option<u64> {
        if self.mesh.get(&a).is_some_and(|n| n.contains(&b)) {
            return Some(self.neighbor_latency);
        }
        if self.parent_of(a) == Some(b) || self.parent_of(b) == Some(a) {
            return Some(self.router_latency);
        }
        None
    }

    /// Builds the [`NodeConfig`] for a controller: neighbour links for
    /// every mesh edge and a router link for every ancestor.
    ///
    /// The latency recorded for ancestor links is the **first-hop** edge
    /// latency; multi-hop delivery times emerge from per-hop routing in
    /// the simulator.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a controller.
    pub fn node_config(&self, addr: NodeAddr) -> NodeConfig {
        assert!(
            (addr as usize) < self.num_controllers,
            "{addr} is not a controller"
        );
        let mut config = NodeConfig::new(addr).with_pipeline_headroom(self.pipeline_headroom);
        for &n in self.mesh_neighbors(addr) {
            config = config.with_neighbor(n, self.neighbor_latency);
        }
        for ancestor in self.ancestors(addr) {
            config = config.with_router(ancestor, self.router_latency);
        }
        config
    }

    /// Node configurations for every controller.
    pub fn all_node_configs(&self) -> BTreeMap<NodeAddr, NodeConfig> {
        (0..self.num_controllers as u16)
            .map(|addr| (addr, self.node_config(addr)))
            .collect()
    }

    /// **Spec surgery**: removes the bottom router level — every router
    /// whose children are all controllers — reattaching those
    /// controllers directly to the removed routers' parents. The tree
    /// flattens by one level (region syncs save two tree hops at the
    /// price of a fatter upper-level fan-in).
    ///
    /// Child positions are preserved (a removed router's controllers
    /// splice into its slot in the parent's child list), so the
    /// operation is deterministic.
    ///
    /// # Errors
    ///
    /// Returns a message when only the root level exists — dropping it
    /// would leave the BISP region-sync protocol with no coordinator.
    pub fn drop_router_level(&mut self) -> Result<(), String> {
        let bottom: Vec<NodeAddr> = self
            .routers
            .iter()
            .copied()
            .filter(|&r| self.children_of(r).iter().all(|&c| !self.is_router(c)))
            .collect();
        if bottom.len() == self.routers.len() {
            return Err(
                "the router tree has only its root level; there is no level to drop".into(),
            );
        }
        for &router in &bottom {
            let parent = self
                .parent
                .remove(&router)
                .expect("a non-root bottom-level router has a parent");
            let kids = self
                .children
                .remove(&router)
                .expect("bottom-level routers have child lists");
            let siblings = self
                .children
                .get_mut(&parent)
                .expect("parents carry child lists");
            let slot = siblings
                .iter()
                .position(|&c| c == router)
                .expect("a child appears in its parent's list");
            siblings.splice(slot..=slot, kids.iter().copied());
            for kid in kids {
                self.parent.insert(kid, parent);
            }
        }
        self.routers.retain(|r| !bottom.contains(r));
        Ok(())
    }

    /// **Spec surgery**: detaches the subtree rooted at `subtree` (a
    /// controller or a router) from its parent and reattaches it under
    /// `new_parent` — rewiring a whole region of the machine to report
    /// through a different coordinator.
    ///
    /// # Errors
    ///
    /// Returns a message when `new_parent` is not a router, `subtree`
    /// has no parent (it is the root), the move would create a cycle
    /// (`new_parent` lies inside the subtree), or it would leave the
    /// old parent with no children.
    pub fn rewire_subtree(
        &mut self,
        subtree: NodeAddr,
        new_parent: NodeAddr,
    ) -> Result<(), String> {
        if !self.is_router(new_parent) {
            return Err(format!("new parent {new_parent} is not a router"));
        }
        let Some(&old_parent) = self.parent.get(&subtree) else {
            return Err(format!(
                "{subtree} has no parent to detach from (is it the root router?)"
            ));
        };
        if subtree == new_parent || self.ancestors(new_parent).contains(&subtree) {
            return Err(format!(
                "rewiring {subtree} under {new_parent} would create a cycle"
            ));
        }
        if old_parent == new_parent {
            return Ok(());
        }
        if self.children_of(old_parent).len() == 1 {
            return Err(format!(
                "rewiring {subtree} would leave router {old_parent} with no children"
            ));
        }
        let siblings = self
            .children
            .get_mut(&old_parent)
            .expect("parents carry child lists");
        siblings.retain(|&c| c != subtree);
        self.children
            .get_mut(&new_parent)
            .expect("is_router verified new_parent")
            .push(subtree);
        self.parent.insert(subtree, new_parent);
        Ok(())
    }
}

/// The 4-neighbourhood mesh edges of a `width × height` controller
/// grid.
fn grid_mesh(width: usize, height: usize) -> BTreeMap<NodeAddr, Vec<NodeAddr>> {
    let mut mesh: BTreeMap<NodeAddr, Vec<NodeAddr>> = BTreeMap::new();
    for y in 0..height {
        for x in 0..width {
            let addr = (y * width + x) as u16;
            let mut neighbors = Vec::new();
            if x > 0 {
                neighbors.push(addr - 1);
            }
            if x + 1 < width {
                neighbors.push(addr + 1);
            }
            if y > 0 {
                neighbors.push(addr - width as u16);
            }
            if y + 1 < height {
                neighbors.push(addr + width as u16);
            }
            mesh.insert(addr, neighbors);
        }
    }
    mesh
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_chain_mesh_edges() {
        let topo = TopologyBuilder::linear(4).build();
        assert_eq!(topo.mesh_neighbors(0), &[1]);
        assert_eq!(topo.mesh_neighbors(1), &[0, 2]);
        assert_eq!(topo.mesh_neighbors(3), &[2]);
    }

    #[test]
    fn grid_mesh_edges() {
        let topo = TopologyBuilder::grid(3, 2).build();
        // Controller 4 is at (1, 1): neighbours 3, 5, 1.
        let mut n = topo.mesh_neighbors(4).to_vec();
        n.sort_unstable();
        assert_eq!(n, vec![1, 3, 5]);
        assert_eq!(topo.controller_at(1, 1), 4);
        assert_eq!(topo.coords(4), (1, 1));
    }

    #[test]
    fn tree_structure_balanced() {
        let topo = TopologyBuilder::linear(8).router_arity(2).build();
        // 8 leaves → 4 + 2 + 1 routers.
        assert_eq!(topo.num_routers(), 7);
        let root = topo.root_router().unwrap();
        assert_eq!(topo.parent_of(root), None);
        // Every controller reaches the root.
        for c in 0..8 {
            let anc = topo.ancestors(c);
            assert_eq!(*anc.last().unwrap(), root);
            assert_eq!(anc.len(), 3);
        }
        assert_eq!(topo.subtree_controllers(root), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn single_controller_still_has_root() {
        let topo = TopologyBuilder::linear(1).build();
        assert_eq!(topo.num_routers(), 1);
        assert!(topo.root_router().is_some());
    }

    #[test]
    fn region_router_is_lowest_common_ancestor() {
        let topo = TopologyBuilder::linear(8).router_arity(2).build();
        // Controllers 0,1 share their leaf router.
        let r01 = topo.region_router(&[0, 1]).unwrap();
        assert_eq!(topo.children_of(r01), &[0, 1]);
        // 0 and 2 need the next level.
        let r02 = topo.region_router(&[0, 2]).unwrap();
        assert!(topo.subtree_controllers(r02).contains(&0));
        assert!(topo.subtree_controllers(r02).contains(&2));
        assert_ne!(r01, r02);
        // 0 and 7 need the root.
        assert_eq!(topo.region_router(&[0, 7]), topo.root_router());
    }

    #[test]
    fn node_config_links() {
        let topo = TopologyBuilder::linear(4)
            .router_arity(2)
            .neighbor_latency(3)
            .router_latency(9)
            .build();
        let cfg = topo.node_config(1);
        assert_eq!(cfg.link(0).unwrap().latency, 3);
        assert_eq!(cfg.link(2).unwrap().latency, 3);
        for r in topo.ancestors(1) {
            assert_eq!(cfg.link(r).unwrap().latency, 9);
            assert_eq!(cfg.link(r).unwrap().kind, hisq_core::LinkKind::Router);
        }
        assert_eq!(topo.all_node_configs().len(), 4);
    }

    #[test]
    fn latency_lookup() {
        let topo = TopologyBuilder::linear(4).router_arity(2).build();
        assert_eq!(topo.latency(0, 1), Some(5));
        assert_eq!(topo.latency(0, 2), None); // not adjacent
        let parent = topo.parent_of(0).unwrap();
        assert_eq!(topo.latency(0, parent), Some(10));
        assert_eq!(topo.latency(parent, 0), Some(10));
    }

    #[test]
    fn fabric_map_resolves_default_then_override() {
        let mut fabric = FabricMap::uniform(LinkModel::serialized(8));
        fabric.set_edge(0, 1, LinkModel::serialized(64));
        assert_eq!(fabric.resolve(0, 1), LinkModel::serialized(64));
        // The reverse direction and every other edge run the default.
        assert_eq!(fabric.resolve(1, 0), LinkModel::serialized(8));
        assert_eq!(fabric.resolve(2, 3), LinkModel::serialized(8));
        assert!(!fabric.is_uniform());
        assert!(!fabric.is_transparent());
        // Setting an edge back to the default removes the override.
        fabric.set_edge(0, 1, LinkModel::serialized(8));
        assert!(fabric.is_uniform());
    }

    #[test]
    fn transparent_fabric_requires_every_edge_transparent() {
        let mut fabric = FabricMap::default();
        assert!(fabric.is_transparent());
        fabric.set_edge(3, 4, LinkModel::serialized(16));
        assert!(
            !fabric.is_transparent(),
            "one hot edge breaks the fast path"
        );
    }

    #[test]
    fn builder_link_model_for_overrides_one_edge() {
        let topo = TopologyBuilder::linear(4)
            .link_model(LinkModel::serialized(4))
            .link_model_for(1, 2, LinkModel::serialized(32))
            .build();
        // The fabric's uniform default stays the builder-wide model...
        assert_eq!(topo.fabric().default_model(), LinkModel::serialized(4));
        // ...while the fabric map carries the per-edge override.
        assert_eq!(topo.fabric().resolve(1, 2), LinkModel::serialized(32));
        assert_eq!(topo.fabric().resolve(2, 1), LinkModel::serialized(4));
        assert_eq!(topo.fabric().overrides().count(), 1);
    }

    #[test]
    fn addresses_partition_controllers_and_routers() {
        let topo = TopologyBuilder::grid(3, 3).router_arity(3).build();
        assert_eq!(topo.num_controllers(), 9);
        for c in 0..9u16 {
            assert!(!topo.is_router(c));
        }
        for &r in topo.routers() {
            assert!(topo.is_router(r));
        }
    }

    #[test]
    fn drop_router_level_flattens_the_tree() {
        // 4×4 grid, arity 4: one level of 4 region routers + a root.
        let mut topo = TopologyBuilder::grid(4, 4).build();
        assert_eq!(topo.num_routers(), 5);
        let root = topo.root_router().unwrap();
        topo.drop_router_level().unwrap();
        assert_eq!(topo.num_routers(), 1);
        assert_eq!(topo.root_router(), Some(root));
        // All 16 controllers now hang off the root directly, in order.
        assert_eq!(
            topo.children_of(root),
            (0..16).collect::<Vec<_>>().as_slice()
        );
        assert!((0..16).all(|c| topo.parent_of(c) == Some(root)));
        // Dropping the root level itself is refused.
        assert!(topo.drop_router_level().is_err());
    }

    #[test]
    fn rewire_subtree_moves_a_region() {
        let mut topo = TopologyBuilder::grid(4, 4).build();
        let donor = topo.routers()[0];
        let target = topo.routers()[1];
        let moved = topo.children_of(donor)[0];
        topo.rewire_subtree(moved, target).unwrap();
        assert_eq!(topo.parent_of(moved), Some(target));
        assert!(!topo.children_of(donor).contains(&moved));
        assert_eq!(*topo.children_of(target).last().unwrap(), moved);

        // Cycle: the root under one of its descendants.
        let root = topo.root_router().unwrap();
        assert!(topo.rewire_subtree(root, donor).is_err());
        // New parent must be a router.
        assert!(topo.rewire_subtree(moved, 0).is_err());
    }
}
