//! The arena-indexed discrete-event engine.
//!
//! The engine owns one arena of `SimNode`s (see [`crate::nodes`]).
//! Every [`NodeAddr`] is
//! interned into a dense `NodeId` when the system is built (see
//! [`crate::spec`]), so the hot loop — pop event, dispatch to node,
//! route its messages — is indexed `Vec` access end to end: no
//! `BTreeMap` walk happens per event. Events carry the *id* of their
//! destination; addresses only appear at the boundary (controller
//! programs name addresses, and unknown destinations are dropped at
//! routing time, surfacing as a deadlocked sender in the report).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::mem;

use hisq_core::{BlockReason, NodeAddr, Status, MEAS_FIFO_ADDR};
use hisq_isa::CYCLE_NS;
use hisq_net::{FabricMap, LinkModel, Payload, RouterAction, Topology};
use hisq_quantum::{ExposureLedger, OpCounts};

use crate::backend::QuantumBackend;
use crate::config::{LinkReport, SimConfig, SimError, SimReport};
use crate::events::{EventKind, LinkQueue, QubitList, ReplayAction};
use crate::nodes::{NodeId, QuantumAction, SimNode};
use crate::queue::{CalendarQueue, EngineQueue, EventQueue, HeapQueue};
use crate::spec::Arena;
use crate::telf::Telf;

/// Hot-loop buffers a [`System`] reuses across its lifetime and — via
/// the per-thread pool below — across *systems* on the same thread, so
/// a [`SweepRunner`](crate::sweep::SweepRunner) worker builds and runs
/// thousands of scenarios without re-growing the calendar rings or the
/// step/commit scratch vectors each time.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The production event queue (pre-sized ring buckets + slab).
    events: CalendarQueue<EventKind>,
    /// The gate-replay queue (items index `gate_store`).
    gates: CalendarQueue<usize>,
    /// Controller-step outbox, drained after every step.
    outbox: Vec<hisq_core::OutboundMessage>,
    /// Commit-harvest staging (copied out so the arena borrow ends).
    commits: Vec<hisq_core::CommitRecord>,
    /// Hub broadcast fan-out staging.
    fanout: Vec<NodeId>,
    /// Router broadcast relay staging (child addresses).
    relay: Vec<NodeAddr>,
    /// Backend operations buffered for in-order replay.
    gate_store: Vec<ReplayAction>,
    /// Arena-side vectors, recycled across built systems.
    pub(crate) arena: ArenaBuffers,
}

/// The arena vectors a retired [`System`] hands back through the
/// scratch pool, so [`SystemSpec::build`](crate::SystemSpec::build) on
/// the same thread re-fills already-grown allocations instead of
/// re-growing the address table, node arena, and link tables for every
/// sweep scenario. All vectors come back *cleared* — only capacity is
/// recycled, never contents.
#[derive(Default)]
pub(crate) struct ArenaBuffers {
    /// address → id interning table (`NodeId::MAX` sentinel filled).
    pub(crate) addr_to_id: Vec<NodeId>,
    /// id → address.
    pub(crate) addrs: Vec<NodeAddr>,
    /// The node arena itself (elements are dropped on retire; the
    /// backing allocation is what survives).
    pub(crate) nodes: Vec<SimNode>,
    /// Controller ids in stepping order.
    pub(crate) controller_ids: Vec<NodeId>,
    /// Per-node tree parent.
    pub(crate) tree_parent: Vec<NodeAddr>,
    /// Per-node direct-link fast path.
    pub(crate) node_links: Vec<Vec<(NodeAddr, u64)>>,
}

/// How many retired [`Scratch`] sets a thread keeps. Sweep workers run
/// one system at a time, so one would do; a little slack covers nested
/// or interleaved systems in tests.
const SCRATCH_POOL_CAP: usize = 4;

thread_local! {
    /// Retired scratch sets, reused by the next [`System`] built on
    /// this thread (see [`take_scratch`] / [`Drop`]).
    static SCRATCH_POOL: RefCell<Vec<Scratch>> = const { RefCell::new(Vec::new()) };
}

/// Pops a retired scratch set off this thread's pool (or starts a
/// fresh one). Called at the head of
/// [`SystemSpec::build`](crate::SystemSpec::build) so the arena
/// buffers are available while the spec lowers, then handed whole to
/// [`System::from_parts`].
pub(crate) fn take_scratch() -> Scratch {
    SCRATCH_POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default()
}

/// The full Distributed-HISQ system under simulation, built from a
/// [`SystemSpec`](crate::SystemSpec).
pub struct System {
    config: SimConfig,
    /// The node arena; [`NodeId`]s index into it.
    nodes: Vec<SimNode>,
    /// id → address (TELF attribution, reports).
    addrs: Vec<NodeAddr>,
    /// address → id (sentinel [`NodeId::MAX`] = unregistered). Sized to
    /// the largest registered address.
    addr_to_id: Vec<NodeId>,
    /// Controller ids in ascending address order (the deterministic
    /// stepping order).
    controller_ids: Vec<NodeId>,
    /// Per-node direct-link table for non-controller senders (routers:
    /// parent + children at the tree-edge latency), sorted by address.
    /// Precomputed from the topology so the per-event router relays
    /// skip the topology's map walks; misses fall through to the full
    /// lookup, so the table is purely an equivalent fast path.
    node_links: Vec<Vec<(NodeAddr, u64)>>,
    /// Per-node tree parent (`NodeAddr::MAX` = none / no topology),
    /// the first hop of every controller booking.
    tree_parent: Vec<NodeAddr>,
    topology: Option<Topology>,
    backend: Box<dyn QuantumBackend>,
    /// The contention model a directed link runs unless overridden
    /// (transparent by default: no queue bookkeeping, pure
    /// `sent_at + latency` sends).
    link_default: LinkModel,
    /// Per-edge link-model overrides, resolved to directed arena-id
    /// pairs at build time (overrides naming unregistered addresses are
    /// dropped — they can never carry traffic). Empty for a uniform
    /// fabric, so the hot path is one `is_empty` check.
    edge_models: BTreeMap<(NodeId, NodeId), LinkModel>,
    /// Precomputed [`FabricMap::is_transparent`]: `true` iff every edge
    /// (default and overrides) is transparent, enabling the historical
    /// no-bookkeeping send path.
    fabric_transparent: bool,
    /// Busy-until queues of the contended links, keyed by the directed
    /// `(from, to)` arena-id pair. Empty while the fabric is transparent.
    link_queues: BTreeMap<(NodeId, NodeId), LinkQueue>,

    /// The future-event queue: the production calendar queue, or the
    /// retained heap reference when [`System::use_reference_queue`]
    /// selected the differential oracle.
    queue: EngineQueue<EventKind>,
    /// Gate-replay ordering folded onto the same queue structure;
    /// items index `gate_store`.
    gate_queue: EngineQueue<usize>,
    gate_store: Vec<ReplayAction>,
    /// Reused controller-step outbox (see [`Scratch`]).
    outbox_scratch: Vec<hisq_core::OutboundMessage>,
    /// Reused commit-harvest staging buffer.
    commit_scratch: Vec<hisq_core::CommitRecord>,
    /// Reused hub fan-out staging buffer.
    fanout_scratch: Vec<NodeId>,
    /// Reused router broadcast relay buffer.
    relay_scratch: Vec<NodeAddr>,
    /// `(cycle, fingerprint)` pop trace, recorded when enabled.
    trace: Option<Vec<(u64, u64)>>,
    applied_through: u64,
    causality_warnings: u64,
    routing_warnings: u64,
    exposure: ExposureLedger,
    /// Committed quantum operations, counted where exposure is recorded
    /// (the denominators of the analytic gate-error scoring).
    quantum_ops: OpCounts,
    /// Per-qubit operation counts, grown on demand. Unlike the global
    /// counts, `gates_2q` here counts **operand occurrences** (a CX
    /// bumps both operands), which is what the per-qubit
    /// [`NoiseMap`](hisq_quantum::NoiseMap) scoring charges.
    ops_by_qubit: Vec<OpCounts>,
    events_processed: u64,
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("nodes", &self.nodes.len())
            .field("controllers", &self.controller_ids.len())
            .field("events_processed", &self.events_processed)
            .finish_non_exhaustive()
    }
}

impl System {
    /// Assembles a validated system (the tail of
    /// [`SystemSpec::build`](crate::SystemSpec::build)).
    pub(crate) fn from_parts(
        config: SimConfig,
        arena: Arena,
        controller_ids: Vec<NodeId>,
        topology: Option<Topology>,
        backend: Box<dyn QuantumBackend>,
        fabric: FabricMap,
        mut scratch: Scratch,
    ) -> System {
        let fabric_transparent = fabric.is_transparent();
        let link_default = fabric.default_model();
        let mut edge_models = BTreeMap::new();
        for (from, to, model) in fabric.overrides() {
            let resolve = |addr: NodeAddr| {
                arena
                    .addr_to_id
                    .get(addr as usize)
                    .copied()
                    .filter(|&id| id != NodeId::MAX)
            };
            if let (Some(from_id), Some(to_id)) = (resolve(from), resolve(to)) {
                edge_models.insert((from_id, to_id), model);
            }
        }
        let mut tree_parent = mem::take(&mut scratch.arena.tree_parent);
        debug_assert!(tree_parent.is_empty());
        match &topology {
            Some(topo) => tree_parent.extend(
                arena
                    .addrs
                    .iter()
                    .map(|&addr| topo.parent_of(addr).unwrap_or(NodeAddr::MAX)),
            ),
            None => tree_parent.resize(arena.addrs.len(), NodeAddr::MAX),
        }
        let mut node_links = mem::take(&mut scratch.arena.node_links);
        debug_assert!(node_links.is_empty());
        node_links.extend(arena.nodes.iter().map(|node| match (node, &topology) {
            (SimNode::Router(router), Some(topo)) => {
                let mut links: Vec<(NodeAddr, u64)> = router
                    .children()
                    .iter()
                    .chain(router.parent().as_ref())
                    .map(|&addr| (addr, topo.router_latency()))
                    .collect();
                links.sort_unstable_by_key(|&(addr, _)| addr);
                links
            }
            _ => Vec::new(),
        }));
        System {
            config,
            nodes: arena.nodes,
            addrs: arena.addrs,
            addr_to_id: arena.addr_to_id,
            controller_ids,
            node_links,
            tree_parent,
            topology,
            backend,
            link_default,
            edge_models,
            fabric_transparent,
            link_queues: BTreeMap::new(),
            queue: EngineQueue::Calendar(scratch.events),
            gate_queue: EngineQueue::Calendar(scratch.gates),
            gate_store: scratch.gate_store,
            outbox_scratch: scratch.outbox,
            commit_scratch: scratch.commits,
            fanout_scratch: scratch.fanout,
            relay_scratch: scratch.relay,
            trace: None,
            applied_through: 0,
            causality_warnings: 0,
            routing_warnings: 0,
            exposure: ExposureLedger::new(),
            quantum_ops: OpCounts::default(),
            ops_by_qubit: Vec::new(),
            events_processed: 0,
        }
    }

    /// Resolves an address to its arena id, if registered.
    fn resolve(&self, addr: NodeAddr) -> Option<NodeId> {
        self.addr_to_id
            .get(addr as usize)
            .copied()
            .filter(|&id| id != NodeId::MAX)
    }

    /// Replaces the quantum backend (overriding the spec's
    /// [`BackendSpec`](crate::BackendSpec); useful for scripted or
    /// pre-configured backend instances).
    pub fn set_backend(&mut self, backend: impl QuantumBackend + 'static) {
        self.backend = Box::new(backend);
    }

    /// Immutable access to a controller (assertions, TELF, registers).
    pub fn controller(&self, addr: NodeAddr) -> Option<&hisq_core::Controller> {
        let id = self.resolve(addr)?;
        self.nodes[id as usize].as_controller().map(|n| &n.ctrl)
    }

    /// Mutable access to a controller (e.g. preloading registers).
    pub fn controller_mut(&mut self, addr: NodeAddr) -> Option<&mut hisq_core::Controller> {
        let id = self.resolve(addr)?;
        self.nodes[id as usize]
            .as_controller_mut()
            .map(|n| &mut n.ctrl)
    }

    /// The aggregated TELF trace of all controllers.
    pub fn telf(&self) -> Telf {
        Telf::from_commits(self.controller_ids.iter().map(|&id| {
            let node = self.nodes[id as usize]
                .as_controller()
                .expect("controller ids index controllers");
            (self.addrs[id as usize], node.ctrl.commits())
        }))
    }

    /// Per-qubit exposure accounting (drives the Figure 16 fidelity
    /// model).
    pub fn exposure(&self) -> &ExposureLedger {
        &self.exposure
    }

    /// Committed quantum-operation counts (drives the gate-error
    /// scoring of [`hisq_quantum::NoiseModel`]).
    pub fn quantum_ops(&self) -> OpCounts {
        self.quantum_ops
    }

    /// Per-qubit committed operation counts, indexed by qubit (qubits
    /// past the highest one touched are absent). Unlike
    /// [`System::quantum_ops`], the `gates_2q` field counts **operand
    /// occurrences** — a two-qubit gate bumps both operands, so the sum
    /// over qubits is twice the global gate count — matching what
    /// [`hisq_quantum::NoiseMap`] scoring charges per qubit.
    pub fn quantum_ops_by_qubit(&self) -> &[OpCounts] {
        &self.ops_by_qubit
    }

    /// The per-qubit counter for `qubit`, grown on demand.
    fn qubit_ops_mut(&mut self, qubit: usize) -> &mut OpCounts {
        if self.ops_by_qubit.len() <= qubit {
            self.ops_by_qubit.resize(qubit + 1, OpCounts::default());
        }
        &mut self.ops_by_qubit[qubit]
    }

    /// Read-only access to the quantum backend.
    pub fn backend(&self) -> &dyn QuantumBackend {
        self.backend.as_ref()
    }

    /// Mutable access to the quantum backend.
    pub fn backend_mut(&mut self) -> &mut dyn QuantumBackend {
        self.backend.as_mut()
    }

    /// Swaps both event queues for the retained `BinaryHeap` reference
    /// implementation — the differential-oracle half of a wheel-vs-heap
    /// comparison run. Call before [`System::run`]; events already
    /// queued would be dropped.
    pub fn use_reference_queue(&mut self) {
        debug_assert!(self.queue.is_empty() && self.gate_queue.is_empty());
        self.queue = EngineQueue::Reference(HeapQueue::new());
        self.gate_queue = EngineQueue::Reference(HeapQueue::new());
    }

    /// Starts recording the pop order of the main event queue as a
    /// `(cycle, fingerprint)` sequence (see [`System::event_trace`]).
    /// Call before [`System::run`].
    pub fn record_event_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The recorded pop trace: one `(cycle, fingerprint)` entry per
    /// processed event, in pop order. Two runs processed the same
    /// events in the same order iff their traces are equal. Empty
    /// unless [`System::record_event_trace`] was called before the run.
    pub fn event_trace(&self) -> &[(u64, u64)] {
        self.trace.as_deref().unwrap_or(&[])
    }

    fn push_event(&mut self, at: u64, kind: EventKind) {
        self.queue.push(at, kind);
    }

    /// One-way latency from node `from` to address `to`: the sender's
    /// calibrated link if one exists, else a topology-derived latency,
    /// else the configured default.
    ///
    /// The default is legitimate only when no topology is attached
    /// (e.g. the lock-step star, where it models the uplink). With a
    /// topology attached, every well-wired destination is derivable, so
    /// reaching the fallback is a wiring bug: it debug-asserts in debug
    /// builds and is counted as a [`SimReport::routing_warnings`]
    /// warning in release builds.
    fn link_latency(&mut self, from: NodeId, to: NodeAddr) -> u64 {
        match &self.nodes[from as usize] {
            SimNode::Controller(node) => {
                if let Some(latency) = node.ctrl.link_latency(to) {
                    return latency;
                }
            }
            _ => {
                // Routers resolve their tree edges from the precomputed
                // table; a miss falls through to the full lookup.
                let links = &self.node_links[from as usize];
                if let Ok(i) = links.binary_search_by_key(&to, |&(addr, _)| addr) {
                    return links[i].1;
                }
            }
        }
        let from_addr = self.addrs[from as usize];
        if let Some(topo) = &self.topology {
            if let Some(l) = topo.latency(from_addr, to) {
                return l;
            }
            // Unlinked controller pairs: hop-by-hop over the mesh, so
            // Distributed-HISQ's classical latency grows with distance.
            let nc = topo.num_controllers() as u16;
            if from_addr < nc && to < nc {
                return topo.classical_latency(from_addr, to);
            }
            self.routing_warnings += 1;
            debug_assert!(
                false,
                "no route from {from_addr} to unknown destination {to}: \
                 falling back to default_classical_latency masks a wiring bug"
            );
        }
        self.config.default_classical_latency
    }

    /// Sends one payload from node `from` to node `to` over the
    /// dedicated directed link between them, delivering after `latency`
    /// cycles.
    ///
    /// With the transparent default [`LinkModel`] this is exactly the
    /// historical `sent_at + latency` push. Under a contended model,
    /// packetized payloads (everything but the dedicated-wire
    /// [`Payload::SyncPulse`]) first serialize through the link's
    /// capacity slots, and classical payloads are additionally subject
    /// to the deterministic drop-and-retransmit policy.
    fn send(&mut self, from: NodeId, to: NodeId, payload: Payload, sent_at: u64, latency: u64) {
        self.send_via((from, to), from, to, payload, sent_at, latency);
    }

    /// [`System::send`] through an explicit serialization queue.
    ///
    /// Dedicated links use their own `(from, to)` queue; the hub's
    /// star fan-out instead shares the `(hub, hub)` egress queue across
    /// every subscriber — the central port is the resource each of the
    /// broadcast's N copies must serialize through, which is what makes
    /// the hub saturate with system size under contention.
    fn send_via(
        &mut self,
        queue_key: (NodeId, NodeId),
        from: NodeId,
        to: NodeId,
        payload: Payload,
        sent_at: u64,
        latency: u64,
    ) {
        if self.fabric_transparent
            || matches!(payload, Payload::SyncPulse)
            || self.edge_model(queue_key).is_transparent()
        {
            let from_addr = self.addrs[from as usize];
            self.push_event(
                sent_at + latency,
                EventKind::Deliver {
                    from: from_addr,
                    to,
                    payload,
                },
            );
            return;
        }
        self.transmit(queue_key, to, payload, sent_at, latency, 1);
    }

    /// The contention model of the directed link behind `key`: its
    /// per-edge override if one exists, else the fabric default. With
    /// no overrides (the uniform fabric) this is one `is_empty` branch.
    fn edge_model(&self, key: (NodeId, NodeId)) -> LinkModel {
        if self.edge_models.is_empty() {
            return self.link_default;
        }
        self.edge_models
            .get(&key)
            .copied()
            .unwrap_or(self.link_default)
    }

    /// One transmission attempt on a contended link: acquire a
    /// serialization slot at `offer`, draw the loss stream, and either
    /// schedule the delivery, schedule a retransmission (as a future
    /// [`EventKind::Resend`], so the slot is *not* reserved during the
    /// ack-wait window and interleaved traffic keeps the wire busy), or
    /// abandon the message once the attempt budget is spent.
    fn transmit(
        &mut self,
        queue_key: (NodeId, NodeId),
        to: NodeId,
        payload: Payload,
        offer: u64,
        latency: u64,
        attempt: u32,
    ) {
        // The sender (and the Deliver `from` address) is the queue's
        // owning endpoint: the dedicated link's sender, or the hub for
        // its shared egress.
        let from_addr = self.addrs[queue_key.0 as usize];
        let to_addr = self.addrs[to as usize];
        let model = self.edge_model(queue_key);
        let hold = model.serialization_ns.div_ceil(CYCLE_NS);
        let droppable = matches!(payload, Payload::Classical { .. });
        let drop_policy = model.drop.filter(|_| droppable);
        let capacity = model.capacity;
        enum Outcome {
            Deliver(u64),
            Resend(u64),
            Abandoned,
        }
        let outcome = {
            let queue = self
                .link_queues
                .entry(queue_key)
                .or_insert_with(|| LinkQueue::new(capacity));
            let start = queue.acquire(offer, hold);
            let done = start + hold;
            let lost = drop_policy.is_some_and(|policy| {
                queue.draw_drop(policy.seed, from_addr, to_addr, policy.loss_ppm)
            });
            match drop_policy {
                Some(policy) if lost => {
                    if attempt >= policy.max_attempts.max(1) {
                        queue.dropped += 1;
                        Outcome::Abandoned
                    } else {
                        queue.retransmits += 1;
                        // The sender detects the loss after an
                        // acknowledgement round trip and re-offers the
                        // message to the link then.
                        Outcome::Resend(done + 2 * latency)
                    }
                }
                _ => Outcome::Deliver(done + latency),
            }
        };
        match outcome {
            Outcome::Deliver(at) => self.push_event(
                at,
                EventKind::Deliver {
                    from: from_addr,
                    to,
                    payload,
                },
            ),
            Outcome::Resend(at) => self.push_event(
                at,
                EventKind::Resend(Box::new(crate::events::ResendEvent {
                    link: queue_key,
                    to,
                    payload,
                    latency,
                    attempt: attempt + 1,
                })),
            ),
            Outcome::Abandoned => {}
        }
    }

    /// Routes one outbound controller message, resolving the
    /// destination address to its arena id. Unknown destinations are
    /// dropped (configuration error surfaces as a deadlocked sender in
    /// the report).
    fn route(&mut self, from: NodeId, message: hisq_core::OutboundMessage) {
        use hisq_core::OutboundMessage;
        match message {
            OutboundMessage::SyncPulse { to, sent_at } => {
                let latency = self.link_latency(from, to);
                let Some(dest) = self.resolve(to) else { return };
                self.send(from, dest, Payload::SyncPulse, sent_at, latency);
            }
            OutboundMessage::BookTime {
                router: target,
                time_point,
                sent_at,
            } => {
                // First hop: the sender's parent in the tree (or the
                // target directly when no topology is attached).
                let hop = match self.tree_parent[from as usize] {
                    NodeAddr::MAX => target,
                    parent => parent,
                };
                let latency = self.link_latency(from, hop);
                let Some(dest) = self.resolve(hop) else {
                    return;
                };
                self.send(
                    from,
                    dest,
                    Payload::BookTime { target, time_point },
                    sent_at,
                    latency,
                );
            }
            OutboundMessage::Classical { to, value, sent_at } => {
                let latency = self.link_latency(from, to);
                let Some(dest) = self.resolve(to) else { return };
                self.send(from, dest, Payload::Classical { value }, sent_at, latency);
            }
        }
    }

    /// Applies buffered gates with commit cycle ≤ `cycle` to the backend.
    fn apply_gates_through(&mut self, cycle: u64) {
        while let Some((commit_cycle, gate_index)) = self.gate_queue.pop_through(cycle) {
            // Disjoint field borrows: the store is read, the backend
            // written — no per-gate clone of the qubit list.
            match &self.gate_store[gate_index] {
                ReplayAction::Gate(gate, qubits) => {
                    self.backend.apply_gate(*gate, qubits.as_slice())
                }
                ReplayAction::Reset(qubit) => self.backend.reset(*qubit),
            }
            self.applied_through = self.applied_through.max(commit_cycle);
        }
    }

    /// Harvests commits a controller produced during its last step:
    /// exposure accounting, gate replay buffering, measurement triggers.
    fn harvest_commits(&mut self, id: NodeId) {
        let mut staged = mem::take(&mut self.commit_scratch);
        staged.clear();
        {
            let node = self.nodes[id as usize]
                .as_controller_mut()
                .expect("harvest targets a controller");
            let commits = node.ctrl.commits();
            if commits.len() == node.watermark {
                // Nothing new since the last harvest — the common case
                // for a step that merely advanced or blocked.
                self.commit_scratch = staged;
                return;
            }
            if node.bindings.is_empty() && node.meas_ports.is_empty() {
                // No codeword is bound to any quantum action, so every
                // new commit would fall through the binding lookup
                // below untouched: advance the watermark and skip the
                // staging copy. (The commits themselves stay on the
                // controller for TELF extraction.)
                node.watermark = commits.len();
                self.commit_scratch = staged;
                return;
            }
            staged.extend_from_slice(&commits[node.watermark..]);
            node.watermark = commits.len();
        }

        // The bound action is copied out compactly (inline qubit list,
        // no `Vec` clone) so the arena borrow ends before the `&mut
        // self` accounting calls.
        enum Bound {
            Gate(hisq_quantum::Gate, QubitList),
            Measure(usize),
            Reset(usize),
            MeasPort { qubit: usize, result_latency: u64 },
            None,
        }
        for &commit in &staged {
            let node = self.nodes[id as usize]
                .as_controller()
                .expect("harvest targets a controller");
            let bound = match node.bindings.get(&(commit.port, commit.codeword)) {
                Some(QuantumAction::Gate { gate, qubits }) => {
                    Bound::Gate(*gate, QubitList::from_slice(qubits))
                }
                Some(QuantumAction::Measure { qubit }) => Bound::Measure(*qubit),
                Some(QuantumAction::Reset { qubit }) => Bound::Reset(*qubit),
                None => match node.meas_ports.get(&commit.port).copied() {
                    Some(binding) => Bound::MeasPort {
                        qubit: binding.qubit,
                        result_latency: binding.result_latency,
                    },
                    None => Bound::None,
                },
            };
            match bound {
                Bound::Gate(gate, qubits) => {
                    let duration = self.config.durations.gate_ns(gate);
                    let single = gate.arity() == 1;
                    for &q in qubits.as_slice() {
                        self.exposure.record_span(
                            q,
                            commit.cycle * CYCLE_NS,
                            commit.cycle * CYCLE_NS + duration,
                        );
                        let per_qubit = self.qubit_ops_mut(q);
                        if single {
                            per_qubit.gates_1q += 1;
                        } else {
                            per_qubit.gates_2q += 1;
                        }
                    }
                    if single {
                        self.quantum_ops.gates_1q += 1;
                    } else {
                        self.quantum_ops.gates_2q += 1;
                    }
                    self.replay(commit.cycle, ReplayAction::Gate(gate, qubits));
                }
                Bound::Measure(qubit) => {
                    let latency = self.config.durations.measurement_ns / CYCLE_NS;
                    self.schedule_measurement(id, qubit, commit.cycle, latency);
                }
                Bound::Reset(qubit) => {
                    let duration = self.config.durations.reset_ns;
                    self.exposure.record_span(
                        qubit,
                        commit.cycle * CYCLE_NS,
                        commit.cycle * CYCLE_NS + duration,
                    );
                    self.quantum_ops.resets += 1;
                    self.qubit_ops_mut(qubit).resets += 1;
                    self.replay(commit.cycle, ReplayAction::Reset(qubit));
                }
                Bound::MeasPort {
                    qubit,
                    result_latency,
                } => {
                    self.schedule_measurement(id, qubit, commit.cycle, result_latency);
                }
                Bound::None => {}
            }
        }
        self.commit_scratch = staged;
    }

    /// Buffers a backend operation for in-order replay; stragglers
    /// behind the replay frontier are applied immediately and counted.
    fn replay(&mut self, cycle: u64, action: ReplayAction) {
        if cycle < self.applied_through {
            self.causality_warnings += 1;
            match action {
                ReplayAction::Gate(gate, qubits) => {
                    self.backend.apply_gate(gate, qubits.as_slice())
                }
                ReplayAction::Reset(qubit) => self.backend.reset(qubit),
            }
            return;
        }
        let gate_index = self.gate_store.len();
        self.gate_store.push(action);
        self.gate_queue.push(cycle, gate_index);
    }

    fn schedule_measurement(
        &mut self,
        node: NodeId,
        qubit: usize,
        trigger_cycle: u64,
        result_latency: u64,
    ) {
        self.exposure.record_span(
            qubit,
            trigger_cycle * CYCLE_NS,
            (trigger_cycle + result_latency) * CYCLE_NS,
        );
        self.quantum_ops.measurements += 1;
        self.qubit_ops_mut(qubit).measurements += 1;
        self.push_event(
            trigger_cycle + result_latency,
            EventKind::MeasResolve {
                node,
                qubit,
                trigger_cycle,
            },
        );
    }

    /// Steps one controller until it blocks or halts, routing its
    /// messages and harvesting its commits.
    fn step_controller(&mut self, id: NodeId) {
        let mut outbox = mem::take(&mut self.outbox_scratch);
        outbox.clear();
        {
            let node = self.nodes[id as usize]
                .as_controller_mut()
                .expect("step targets a controller");
            let _ = node.ctrl.step(&mut outbox);
        }
        self.harvest_commits(id);
        for message in outbox.drain(..) {
            self.route(id, message);
        }
        self.outbox_scratch = outbox;
    }

    fn deliver(
        &mut self,
        from: NodeAddr,
        to: NodeId,
        payload: Payload,
        deliver_at: u64,
    ) -> Result<(), SimError> {
        match &mut self.nodes[to as usize] {
            SimNode::Controller(node) => {
                // The fused `offer_*` delivery completes a matching
                // pending op in place (no inbox round trip) and gates
                // the step: `false` means the input was banked for
                // later — a non-matching delivery, or one to a halted
                // controller — and stepping would be a no-op, so the
                // whole step/harvest/route round trip is skipped.
                let unblocks = match payload {
                    Payload::SyncPulse => node.ctrl.offer_sync_pulse(from, deliver_at),
                    Payload::MaxTime { t_m, target } => node.ctrl.offer_max_time(target, t_m),
                    Payload::Classical { value } => {
                        node.ctrl.offer_classical(from, value, deliver_at)
                    }
                    Payload::BookTime { .. } => {
                        // Controllers never coordinate regions; drop.
                        return Ok(());
                    }
                };
                if unblocks {
                    self.step_controller(to);
                }
            }
            SimNode::Hub(_) => {
                if let Payload::Classical { value } = payload {
                    let mut fanout = mem::take(&mut self.fanout_scratch);
                    fanout.clear();
                    let down_latency = {
                        let SimNode::Hub(hub) = &self.nodes[to as usize] else {
                            unreachable!("matched Hub above")
                        };
                        fanout.extend_from_slice(&hub.subscriber_ids);
                        hub.down_latency
                    };
                    // The hub's downlink fan-out rides the link
                    // machinery through the hub's *shared* egress
                    // queue: the central port emits one copy per
                    // subscriber, so under a contended model each
                    // broadcast serializes N copies back to back — the
                    // saturation the §6.4.3 baseline's constant-latency
                    // star assumption hides.
                    for &subscriber in &fanout {
                        self.send_via(
                            (to, to),
                            to,
                            subscriber,
                            Payload::Classical { value },
                            deliver_at,
                            down_latency,
                        );
                    }
                    self.fanout_scratch = fanout;
                }
            }
            SimNode::Router(router) => {
                // Router actions are Copy and carry no child list, so
                // the arena borrow ends here without any allocation.
                let action = match payload {
                    Payload::BookTime { target, time_point } => {
                        router.deliver_book_time(from, target, time_point, deliver_at)?
                    }
                    Payload::MaxTime { t_m, target } => Some(router.deliver_max_time(t_m, target)),
                    Payload::SyncPulse | Payload::Classical { .. } => None,
                };
                match action {
                    None => {}
                    Some(RouterAction::ForwardUp {
                        parent,
                        target,
                        time_point,
                        sent_at,
                    }) => {
                        let latency = self.link_latency(to, parent);
                        if let Some(dest) = self.resolve(parent) {
                            self.send(
                                to,
                                dest,
                                Payload::BookTime { target, time_point },
                                sent_at,
                                latency,
                            );
                        }
                    }
                    Some(RouterAction::Broadcast { t_m, target }) => {
                        // The recipients are the router's own children;
                        // stage them in the reused relay scratch so the
                        // arena borrow ends before the sends.
                        let mut relay = mem::take(&mut self.relay_scratch);
                        relay.clear();
                        {
                            let SimNode::Router(router) = &self.nodes[to as usize] else {
                                unreachable!("matched Router above")
                            };
                            relay.extend_from_slice(router.children());
                        }
                        for &child in &relay {
                            let payload = Payload::MaxTime { t_m, target };
                            if self.config.idealize_downlink {
                                // The §4.4 idealization bypasses the
                                // wire (and hence any contention).
                                let Some(dest) = self.resolve(child) else {
                                    continue;
                                };
                                let router_addr = self.addrs[to as usize];
                                self.push_event(
                                    deliver_at,
                                    EventKind::Deliver {
                                        from: router_addr,
                                        to: dest,
                                        payload,
                                    },
                                );
                            } else {
                                // Latency first: an unknown child
                                // must still count a routing
                                // warning before being dropped.
                                let latency = self.link_latency(to, child);
                                let Some(dest) = self.resolve(child) else {
                                    continue;
                                };
                                self.send(to, dest, payload, deliver_at, latency);
                            }
                        }
                        self.relay_scratch = relay;
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs the system to quiescence.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventBudgetExceeded`] if the configured event
    /// budget is exhausted (e.g. a program loops forever emitting
    /// messages), or [`SimError::Router`] if a router detects a
    /// routing-invariant violation (e.g. a mis-rooted tree).
    pub fn run(&mut self) -> Result<SimReport, SimError> {
        let ids = self.controller_ids.clone();
        for id in ids {
            self.step_controller(id);
        }
        while let Some((at, kind)) = self.queue.pop() {
            self.events_processed += 1;
            if self.events_processed > self.config.max_events {
                return Err(SimError::EventBudgetExceeded {
                    budget: self.config.max_events,
                });
            }
            if let Some(trace) = &mut self.trace {
                trace.push((at, kind.fingerprint()));
            }
            match kind {
                EventKind::Deliver { from, to, payload } => {
                    self.deliver(from, to, payload, at)?;
                }
                EventKind::Resend(resend) => {
                    self.transmit(
                        resend.link,
                        resend.to,
                        resend.payload,
                        at,
                        resend.latency,
                        resend.attempt,
                    );
                }
                EventKind::MeasResolve {
                    node,
                    qubit,
                    trigger_cycle,
                } => {
                    self.apply_gates_through(trigger_cycle);
                    let outcome = self.backend.measure(qubit);
                    if let Some(ctrl_node) = self.nodes[node as usize].as_controller_mut() {
                        ctrl_node
                            .ctrl
                            .deliver_classical(MEAS_FIFO_ADDR, u32::from(outcome), at);
                    }
                    self.step_controller(node);
                }
            }
        }
        // Flush any trailing gates so post-run backend state is final.
        self.apply_gates_through(u64::MAX);
        Ok(self.report())
    }

    fn report(&self) -> SimReport {
        let mut blocked = Vec::new();
        let mut faulted = Vec::new();
        let mut makespan = 0;
        let mut total_stall = 0;
        let mut total_instructions = 0;
        let mut total_syncs = 0;
        let mut all_stopped = true;
        for &id in &self.controller_ids {
            let addr = self.addrs[id as usize];
            let ctrl = &self.nodes[id as usize]
                .as_controller()
                .expect("controller ids index controllers")
                .ctrl;
            match ctrl.status() {
                Status::Blocked(pending) => {
                    // Re-derive the public reason from the pending op.
                    let reason = match pending {
                        hisq_core::controller::PendingOp::SyncPulse { partner, .. } => {
                            BlockReason::AwaitSyncPulse { partner: *partner }
                        }
                        hisq_core::controller::PendingOp::MaxTime { router, .. } => {
                            BlockReason::AwaitMaxTime { router: *router }
                        }
                        hisq_core::controller::PendingOp::Recv { source, .. } => {
                            BlockReason::AwaitMessage { source: *source }
                        }
                    };
                    blocked.push((addr, reason));
                }
                Status::Faulted(message) => faulted.push((addr, message.clone())),
                Status::Halted | Status::Ready => {}
            }
            all_stopped &= matches!(ctrl.status(), Status::Halted);
            makespan = makespan.max(ctrl.now_wall());
            total_stall += ctrl.total_stall();
            total_instructions += ctrl.stats().executed;
            total_syncs += ctrl.stats().syncs;
        }
        let all_halted = blocked.is_empty() && faulted.is_empty() && all_stopped;
        let mut link_stats: Vec<LinkReport> = self
            .link_queues
            .iter()
            .map(|(&(from, to), queue)| LinkReport {
                from: self.addrs[from as usize],
                to: self.addrs[to as usize],
                messages: queue.messages,
                peak_occupancy: queue.peak_occupancy,
                retransmits: queue.retransmits,
                dropped: queue.dropped,
            })
            .collect();
        // Arena-id order is build-dependent; address order is the
        // stable public contract.
        link_stats.sort_unstable_by_key(|l| (l.from, l.to));
        SimReport {
            all_halted,
            blocked,
            faulted,
            makespan_cycles: makespan,
            makespan_ns: makespan * CYCLE_NS,
            events_processed: self.events_processed,
            causality_warnings: self.causality_warnings,
            routing_warnings: self.routing_warnings,
            total_stall_cycles: total_stall,
            total_instructions,
            total_syncs,
            quantum_ops: self.quantum_ops,
            link_stats,
        }
    }
}

impl Drop for System {
    /// Retires the hot-loop buffers to the per-thread pool so the next
    /// system built on this thread (the common [`SweepRunner`]
    /// worker pattern) starts with pre-grown rings and scratch vectors.
    /// Only the production calendar queues are pooled; a reference-queue
    /// (differential oracle) system just drops its heaps.
    ///
    /// [`SweepRunner`]: crate::sweep::SweepRunner
    fn drop(&mut self) {
        let events = mem::replace(&mut self.queue, EngineQueue::Reference(HeapQueue::new()));
        let gates = mem::replace(
            &mut self.gate_queue,
            EngineQueue::Reference(HeapQueue::new()),
        );
        let (EngineQueue::Calendar(mut events), EngineQueue::Calendar(mut gates)) = (events, gates)
        else {
            return;
        };
        events.clear();
        gates.clear();
        let mut gate_store = mem::take(&mut self.gate_store);
        gate_store.clear();
        let mut outbox = mem::take(&mut self.outbox_scratch);
        outbox.clear();
        let mut commits = mem::take(&mut self.commit_scratch);
        commits.clear();
        let mut fanout = mem::take(&mut self.fanout_scratch);
        fanout.clear();
        let mut relay = mem::take(&mut self.relay_scratch);
        relay.clear();
        let mut arena = ArenaBuffers {
            addr_to_id: mem::take(&mut self.addr_to_id),
            addrs: mem::take(&mut self.addrs),
            nodes: mem::take(&mut self.nodes),
            controller_ids: mem::take(&mut self.controller_ids),
            tree_parent: mem::take(&mut self.tree_parent),
            node_links: mem::take(&mut self.node_links),
        };
        arena.addr_to_id.clear();
        arena.addrs.clear();
        arena.nodes.clear();
        arena.controller_ids.clear();
        arena.tree_parent.clear();
        arena.node_links.clear();
        let scratch = Scratch {
            events,
            gates,
            outbox,
            commits,
            fanout,
            relay,
            gate_store,
            arena,
        };
        SCRATCH_POOL.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < SCRATCH_POOL_CAP {
                pool.push(scratch);
            }
        });
    }
}
