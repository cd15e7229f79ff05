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

use std::collections::BTreeMap;
use std::fmt;
use std::mem;
use std::sync::Arc;

use hisq_core::{BlockReason, NodeAddr, Status, MEAS_FIFO_ADDR};
use hisq_isa::CYCLE_NS;
use hisq_net::{FabricMap, LinkModel, Payload, RouterAction, Topology};
use hisq_quantum::{ExposureLedger, GateDurations, OpCounts, QuantumAction};

use crate::backend::QuantumBackend;
use crate::config::{LinkReport, SimConfig, SimError, SimReport};
use crate::events::{EventKind, LinkQueue};
use crate::nodes::{HubNode, NodeId, SimNode};
use crate::queue::CalendarQueue;
use crate::spec::Layout;
use crate::telf::Telf;

/// The full Distributed-HISQ system under simulation, built from a
/// [`SystemSpec`](crate::SystemSpec).
pub struct System {
    config: SimConfig,
    /// The node arena; [`NodeId`]s index into it.
    nodes: Vec<SimNode>,
    /// id → address (TELF attribution, reports).
    addrs: Arc<[NodeAddr]>,
    /// address → id (sentinel [`NodeId::MAX`] = unregistered). Sized to
    /// the largest registered address.
    addr_to_id: Arc<[NodeId]>,
    /// Controller ids in ascending address order (the deterministic
    /// stepping order).
    controller_ids: Arc<[NodeId]>,
    /// Per-node tree parent (`NodeAddr::MAX` = none / no topology),
    /// the first hop of every controller booking.
    tree_parent: Arc<[NodeAddr]>,
    topology: Option<Arc<Topology>>,
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

    /// The future-event queue.
    queue: CalendarQueue<EventKind>,
    /// Committed gates and resets awaiting in-order replay into the
    /// backend, on the same queue structure.
    gate_queue: CalendarQueue<QuantumAction>,
    /// Whether committed gates and resets are replayed into the backend:
    /// its [`QuantumBackend::reads_gates`], read when [`System::run`]
    /// starts. When `false`, nothing reaches `gate_queue`.
    replay_gates: bool,
    /// Reused controller-step outbox, drained after every step.
    outbox_scratch: Vec<hisq_core::OutboundMessage>,
    /// Reused commit-harvest staging buffer.
    commit_scratch: Vec<hisq_core::CommitRecord>,
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
        nodes: Vec<SimNode>,
        layout: &Layout,
        topology: Option<Arc<Topology>>,
        backend: Box<dyn QuantumBackend>,
        fabric: FabricMap,
    ) -> System {
        let fabric_transparent = fabric.is_transparent();
        let link_default = fabric.default_model();
        let mut edge_models = BTreeMap::new();
        for (from, to, model) in fabric.overrides() {
            let resolve = |addr: NodeAddr| {
                layout
                    .addr_to_id
                    .get(addr as usize)
                    .copied()
                    .filter(|&id| id != NodeId::MAX)
            };
            if let (Some(from_id), Some(to_id)) = (resolve(from), resolve(to)) {
                edge_models.insert((from_id, to_id), model);
            }
        }
        // The four tables are shared with every system of the spec.
        System {
            config,
            nodes,
            addrs: Arc::clone(&layout.addrs),
            addr_to_id: Arc::clone(&layout.addr_to_id),
            controller_ids: Arc::clone(&layout.controller_ids),
            tree_parent: Arc::clone(&layout.tree_parent),
            topology,
            backend,
            link_default,
            edge_models,
            fabric_transparent,
            link_queues: BTreeMap::new(),
            queue: CalendarQueue::new(),
            gate_queue: CalendarQueue::new(),
            replay_gates: true,
            outbox_scratch: Vec::new(),
            commit_scratch: Vec::new(),
            relay_scratch: Vec::new(),
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

    /// The hub at arena id `id`.
    fn hub(&self, id: NodeId) -> &HubNode {
        match &self.nodes[id as usize] {
            SimNode::Hub(hub) => hub,
            _ => unreachable!("hub events carry hub ids"),
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

    /// One-way latency from node `from` to address `to`: a controller's
    /// calibrated link or a router's parent edge if one exists, else
    /// the mesh's hop-by-hop latency between two controllers of the
    /// attached topology, else the configured default. (A controller
    /// built from a topology links every mesh neighbour and every
    /// ancestor router, so its table answers every direct link.)
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
            // A router sends only `ForwardUp` bookings to its parent,
            // over the tree edge (the §4.4 downlink bypasses the wire).
            SimNode::Router(router) => {
                if let Some(topo) = &self.topology {
                    if router.parent() == Some(to) {
                        return topo.router_latency();
                    }
                }
            }
            SimNode::Hub(_) => {}
        }
        let from_addr = self.addrs[from as usize];
        if let Some(topo) = &self.topology {
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
        if matches!(payload, Payload::SyncPulse) || self.is_transparent((from, to)) {
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
        self.transmit((from, to), to, payload, sent_at, latency, 1);
    }

    /// `true` when the link behind `key` carries no queue bookkeeping:
    /// the whole fabric is transparent, or this edge's model is.
    fn is_transparent(&self, key: (NodeId, NodeId)) -> bool {
        self.fabric_transparent || self.edge_model(key).is_transparent()
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
        while let Some((commit_cycle, action)) = self.gate_queue.pop_through(cycle) {
            self.apply(action);
            self.applied_through = self.applied_through.max(commit_cycle);
        }
    }

    /// Performs one replayed gate or reset on the backend.
    fn apply(&mut self, action: QuantumAction) {
        match action {
            QuantumAction::Gate { gate, qubits } => {
                self.backend.apply_gate(gate, &qubits[..gate.arity()])
            }
            QuantumAction::Reset { qubit } => self.backend.reset(qubit),
            QuantumAction::Measure { .. } => {
                unreachable!("a measurement resolves as an event and is never replayed")
            }
        }
    }

    /// Harvests commits a controller produced during its last step:
    /// exposure accounting, gate replay buffering (for a backend that
    /// reads gates), measurement triggers.
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
            if node.bindings.is_empty() {
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

        for &commit in &staged {
            // The bound action is `Copy`, so the arena borrow ends
            // before the `&mut self` accounting calls.
            let node = self.nodes[id as usize]
                .as_controller()
                .expect("harvest targets a controller");
            let Some(action) = node.binding(commit.port, commit.codeword) else {
                continue;
            };
            match action {
                QuantumAction::Gate { gate, qubits } => {
                    let duration = GateDurations::PAPER.gate_ns(gate);
                    let single = gate.arity() == 1;
                    for &q in &qubits[..gate.arity()] {
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
                    self.replay(commit.cycle, action);
                }
                QuantumAction::Measure { qubit } => {
                    // A whole number of cycles: `CycleDurations::PAPER`
                    // in `hisq-compiler` asserts it at compile time.
                    let latency = GateDurations::PAPER.measurement_ns / CYCLE_NS;
                    self.schedule_measurement(id, qubit, commit.cycle, latency);
                }
                QuantumAction::Reset { qubit } => {
                    let duration = GateDurations::PAPER.reset_ns;
                    self.exposure.record_span(
                        qubit,
                        commit.cycle * CYCLE_NS,
                        commit.cycle * CYCLE_NS + duration,
                    );
                    self.quantum_ops.resets += 1;
                    self.qubit_ops_mut(qubit).resets += 1;
                    self.replay(commit.cycle, action);
                }
            }
        }
        self.commit_scratch = staged;
    }

    /// Buffers a backend operation for in-order replay; stragglers
    /// behind the replay frontier are applied immediately and counted.
    /// A backend that reads no gates gets nothing.
    fn replay(&mut self, cycle: u64, action: QuantumAction) {
        if !self.replay_gates {
            return;
        }
        if cycle < self.applied_through {
            self.causality_warnings += 1;
            self.apply(action);
            return;
        }
        self.gate_queue.push(cycle, action);
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
                // `offer` completes a matching pending op in place (no
                // inbox round trip) and gates the step: `false` means
                // the input was banked for later — a non-matching
                // delivery, or one to a halted controller — and
                // stepping would be a no-op, so the whole
                // step/harvest/route round trip is skipped.
                let (lane, time, value) = match payload {
                    Payload::SyncPulse => {
                        (BlockReason::AwaitSyncPulse { partner: from }, deliver_at, 0)
                    }
                    Payload::MaxTime { t_m, target } => {
                        (BlockReason::AwaitMaxTime { router: target }, t_m, 0)
                    }
                    Payload::Classical { value } => (
                        BlockReason::AwaitMessage { source: from },
                        deliver_at,
                        value,
                    ),
                    Payload::BookTime { .. } => {
                        // Controllers never coordinate regions; drop.
                        return Ok(());
                    }
                };
                if node.ctrl.offer(lane, time, value) {
                    self.step_controller(to);
                }
            }
            SimNode::Hub(hub) => {
                let Payload::Classical { value } = payload else {
                    return Ok(());
                };
                let (copies, down_latency) = (hub.subscriber_ids.len(), hub.down_latency);
                if self.is_transparent((to, to)) {
                    // Every copy arrives at the same cycle, so one event
                    // stands for all of them (see `broadcast`).
                    if copies > 0 {
                        self.push_event(
                            deliver_at + down_latency,
                            EventKind::Broadcast { hub: to, value },
                        );
                    }
                    return Ok(());
                }
                // A contended egress is the hub's *shared* port: the
                // central port emits one copy per subscriber through
                // the `(hub, hub)` queue, so each broadcast serializes
                // N copies back to back — the saturation the §6.4.3
                // baseline's constant-latency star assumption hides.
                for position in 0..copies {
                    let subscriber = self.hub(to).subscriber_ids[position];
                    self.transmit((to, to), subscriber, payload, deliver_at, down_latency, 1);
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
                        // The §4.4 zero-latency downlink: every child
                        // hears the max time at once, bypassing the
                        // wire (and hence any contention).
                        let router_addr = self.addrs[to as usize];
                        for &child in &relay {
                            let Some(dest) = self.resolve(child) else {
                                continue;
                            };
                            self.push_event(
                                deliver_at,
                                EventKind::Deliver {
                                    from: router_addr,
                                    to: dest,
                                    payload: Payload::MaxTime { t_m, target },
                                },
                            );
                        }
                        self.relay_scratch = relay;
                    }
                }
            }
        }
        Ok(())
    }

    /// Delivers one hub broadcast arriving at `at`: the per-subscriber
    /// copies the contended path would pop back to back, in subscriber
    /// order.
    ///
    /// Every copy counts against the event budget and is traced with
    /// the fingerprint of the `Deliver` it stands for, but only the
    /// hub's listeners are offered the value: any other subscriber
    /// would bank it in a lane nothing pops. Pop order is unchanged. A
    /// listener woken at `at` has `pipe_cycle >= at`, so its step
    /// pushes only at `>= at` with younger seqs — behind the remaining
    /// copies, exactly where separate copy events would have left them.
    ///
    /// # Errors
    ///
    /// [`SimError::EventBudgetExceeded`] once a copy exceeds the
    /// budget, after offering exactly the copies before it.
    fn broadcast(&mut self, hub: NodeId, value: u32, at: u64) -> Result<(), SimError> {
        let copies = self.hub(hub).subscriber_ids.len() as u64;
        let admitted = copies.min(self.config.max_events.saturating_sub(self.events_processed));
        self.events_processed += admitted;
        let from = self.addrs[hub as usize];
        let lane = BlockReason::AwaitMessage { source: from };
        let payload = Payload::Classical { value };
        if let Some(mut trace) = self.trace.take() {
            trace.extend(
                self.hub(hub).subscriber_ids[..admitted as usize]
                    .iter()
                    .map(|&to| (at, EventKind::Deliver { from, to, payload }.fingerprint())),
            );
            self.trace = Some(trace);
        }
        for index in 0..self.hub(hub).listeners.len() {
            let (position, listener) = self.hub(hub).listeners[index];
            if u64::from(position) >= admitted {
                break;
            }
            let node = self.nodes[listener as usize]
                .as_controller_mut()
                .expect("listeners are controllers");
            if node.ctrl.offer(lane, at, value) {
                self.step_controller(listener);
                debug_assert!(
                    self.queue.next_at().is_none_or(|next| next >= at),
                    "a listener woken at cycle {at} queued an event behind its broadcast"
                );
            }
        }
        if admitted < copies {
            self.events_processed += 1;
            return Err(SimError::EventBudgetExceeded {
                budget: self.config.max_events,
            });
        }
        Ok(())
    }

    /// Counts one popped event against the budget and, when recording,
    /// appends its trace entry with the digest `fingerprint` computes.
    ///
    /// The digest is built from the event's fields only when a trace is
    /// on. Taking the popped event's address instead keeps it in a stack
    /// copy whose field loads stall on store forwarding: about 20% of
    /// `event_engine`'s BISP ns/event on a 2-vCPU x86-64 host.
    fn count_event(&mut self, at: u64, fingerprint: impl FnOnce() -> u64) -> Result<(), SimError> {
        self.events_processed += 1;
        if self.events_processed > self.config.max_events {
            return Err(SimError::EventBudgetExceeded {
                budget: self.config.max_events,
            });
        }
        if let Some(trace) = &mut self.trace {
            trace.push((at, fingerprint()));
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
        self.replay_gates = self.backend.reads_gates();
        let ids = Arc::clone(&self.controller_ids);
        for &id in ids.iter() {
            self.step_controller(id);
        }
        while let Some((at, kind)) = self.queue.pop() {
            match kind {
                EventKind::Deliver { from, to, payload } => {
                    self.count_event(at, || {
                        EventKind::Deliver { from, to, payload }.fingerprint()
                    })?;
                    self.deliver(from, to, payload, at)?;
                }
                EventKind::Broadcast { hub, value } => self.broadcast(hub, value, at)?,
                EventKind::Resend(resend) => {
                    self.count_event(at, || EventKind::Resend(resend.clone()).fingerprint())?;
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
                    self.count_event(at, || {
                        EventKind::MeasResolve {
                            node,
                            qubit,
                            trigger_cycle,
                        }
                        .fingerprint()
                    })?;
                    self.apply_gates_through(trigger_cycle);
                    let outcome = u32::from(self.backend.measure(qubit));
                    // The same step gate as `deliver`: a result that
                    // cannot unblock the controller is banked.
                    let ctrl = &mut self.nodes[node as usize]
                        .as_controller_mut()
                        .expect("measurements resolve on controllers")
                        .ctrl;
                    let lane = BlockReason::AwaitMessage {
                        source: MEAS_FIFO_ADDR,
                    };
                    if ctrl.offer(lane, at, outcome) {
                        self.step_controller(node);
                    }
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
        for &id in self.controller_ids.iter() {
            let addr = self.addrs[id as usize];
            let ctrl = &self.nodes[id as usize]
                .as_controller()
                .expect("controller ids index controllers")
                .ctrl;
            match ctrl.status() {
                Status::Blocked(pending) => blocked.push((addr, pending.reason())),
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
