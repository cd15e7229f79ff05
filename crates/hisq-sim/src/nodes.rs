//! The node models of the simulated system: controllers, routers, and
//! broadcast hubs, plus the quantum bindings attached to controllers.
//!
//! The engine ([`crate::engine`]) stores every node in one arena
//! (`Vec<SimNode>`) indexed by a dense `NodeId`; the enum is the
//! engine's dispatch point — delivering an event is a single indexed
//! load and a match, never a map walk.

use std::sync::Arc;

use hisq_core::{Controller, NodeAddr};
use hisq_net::Router;
use hisq_quantum::QuantumAction;

/// Dense arena index of a node. Addresses ([`NodeAddr`]) are the wire
/// format programs and topologies speak; `NodeId`s are what the event
/// core indexes with. The interning table lives in the engine.
pub(crate) type NodeId = u32;

/// One controller's quantum bindings: `(port, codeword)` → action,
/// sorted by key and shared by every system built from one spec.
pub(crate) type BindingTable = Arc<[((u32, u32), QuantumAction)]>;

/// A broadcast hub: any classical message sent to the hub's address is
/// re-delivered to every subscriber after `down_latency` — the star
/// topology of the lock-step baseline (§6.4.3), where a central
/// controller broadcasts each measurement result to all controllers at a
/// constant latency independent of system size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hub {
    /// Controllers receiving every broadcast (usually all of them).
    pub subscribers: Vec<NodeAddr>,
    /// Constant hub→subscriber latency in cycles.
    pub down_latency: u64,
}

/// A controller in the arena: the core model (which also holds the
/// calibrated links) plus everything the engine attributes to this
/// node — the commit harvest watermark and the quantum bindings its
/// codewords trigger.
#[derive(Debug)]
pub(crate) struct ControllerNode {
    /// The single-node microarchitecture model.
    pub ctrl: Controller,
    /// Commits harvested so far (index into `ctrl.commits()`).
    pub watermark: usize,
    /// The quantum actions this controller's codewords trigger.
    pub bindings: BindingTable,
}

impl ControllerNode {
    /// The action bound to a `(port, codeword)` commit, if any.
    pub fn binding(&self, port: u32, codeword: u32) -> Option<QuantumAction> {
        self.bindings
            .binary_search_by_key(&(port, codeword), |&(key, _)| key)
            .ok()
            .map(|index| self.bindings[index].1)
    }
}

/// The hub model in the arena: subscribers pre-resolved to node ids so
/// a broadcast is a loop over indices, not an address lookup per
/// subscriber. Both lists are derived once per spec and shared.
#[derive(Debug, Clone)]
pub(crate) struct HubNode {
    /// Subscriber arena ids (build-time resolved).
    pub subscriber_ids: Arc<[NodeId]>,
    /// The subscribers whose program can `recv` from the hub, as
    /// `(position in subscriber_ids, arena id)` in subscriber order.
    /// Only these are offered a broadcast on the one-event path; every
    /// other copy would land in a mailbox lane nothing pops.
    pub listeners: Arc<[(u32, NodeId)]>,
    /// Constant hub→subscriber latency in cycles.
    pub down_latency: u64,
}

/// One node of the simulated system, dispatched by the engine.
#[derive(Debug)]
pub(crate) enum SimNode {
    /// A HISQ controller (boxed: controllers dominate the arena and
    /// carry the large model state).
    Controller(Box<ControllerNode>),
    /// A region-synchronization router.
    Router(Router),
    /// A lock-step broadcast hub.
    Hub(HubNode),
}

impl SimNode {
    /// The controller model, when this node is one.
    pub fn as_controller(&self) -> Option<&ControllerNode> {
        match self {
            SimNode::Controller(node) => Some(node),
            _ => None,
        }
    }

    /// Mutable [`SimNode::as_controller`].
    pub fn as_controller_mut(&mut self) -> Option<&mut ControllerNode> {
        match self {
            SimNode::Controller(node) => Some(node),
            _ => None,
        }
    }
}
