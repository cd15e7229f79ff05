//! Per-node configuration: address, calibrated link latencies, memory.

use std::collections::BTreeMap;

use crate::msg::NodeAddr;

/// The kind of counterparty at the far end of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// A directly connected neighbour controller (mesh intra-layer edge).
    /// `sync` over this link uses the nearby two-condition protocol.
    Neighbor,
    /// An ancestor router (tree inter-layer edge). `sync` over this link
    /// uses the region-level booking protocol.
    Router,
}

/// A calibrated point-to-point link.
///
/// `latency` is the one-way transmission delay in TCU cycles — the `N`
/// that is "fixed and can be calibrated once the hardware connections
/// are established" and "pre-configured in hardware for each connection"
/// (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// One-way latency in TCU cycles.
    pub latency: u64,
    /// Counterparty kind.
    pub kind: LinkKind,
}

impl Link {
    /// A neighbour link with the given latency.
    pub fn neighbor(latency: u64) -> Link {
        Link {
            latency,
            kind: LinkKind::Neighbor,
        }
    }

    /// A router link with the given latency.
    pub fn router(latency: u64) -> Link {
        Link {
            latency,
            kind: LinkKind::Router,
        }
    }
}

/// Static configuration of one controller node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeConfig {
    /// This node's network address.
    pub addr: NodeAddr,
    /// Calibrated links, keyed by remote address.
    pub links: BTreeMap<NodeAddr, Link>,
    /// Data-memory size in bytes: the address bound of loads and
    /// stores. Bytes are allocated on first store, and only up to the
    /// highest byte stored (see [`crate::Memory`]).
    pub mem_bytes: usize,
    /// TCU queue decoupling margin in cycles: on start and after every
    /// non-deterministic rebase the timing grid is re-armed this far
    /// ahead of the pipeline, so instruction-issue bursts shorter than
    /// the margin can never underflow the event queues (the QuMA
    /// queue-based decoupling, §3.2).
    pub pipeline_headroom: u64,
}

impl NodeConfig {
    /// Default data-memory size (64 KiB, matching the reference boards'
    /// block-RAM budget order of magnitude). It bounds addresses; it is
    /// not allocated up front: a controller that never stores allocates
    /// no data memory.
    pub const DEFAULT_MEM_BYTES: usize = 64 * 1024;

    /// Creates a configuration with no links and default memory.
    pub fn new(addr: NodeAddr) -> NodeConfig {
        NodeConfig {
            addr,
            links: BTreeMap::new(),
            mem_bytes: Self::DEFAULT_MEM_BYTES,
            pipeline_headroom: 0,
        }
    }

    /// Adds a neighbour-controller link (builder style).
    pub fn with_neighbor(mut self, addr: NodeAddr, latency: u64) -> NodeConfig {
        self.links.insert(addr, Link::neighbor(latency));
        self
    }

    /// Adds a router link (builder style).
    pub fn with_router(mut self, addr: NodeAddr, latency: u64) -> NodeConfig {
        self.links.insert(addr, Link::router(latency));
        self
    }

    /// Sets the data-memory address bound (builder style).
    pub fn with_mem_bytes(mut self, bytes: usize) -> NodeConfig {
        self.mem_bytes = bytes;
        self
    }

    /// Sets the TCU queue decoupling margin (builder style).
    pub fn with_pipeline_headroom(mut self, cycles: u64) -> NodeConfig {
        self.pipeline_headroom = cycles;
        self
    }

    /// Looks up the link to `remote`.
    pub fn link(&self, remote: NodeAddr) -> Option<Link> {
        self.links.get(&remote).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_links() {
        let cfg = NodeConfig::new(1)
            .with_neighbor(2, 5)
            .with_router(100, 12)
            .with_mem_bytes(1024);
        assert_eq!(cfg.addr, 1);
        assert_eq!(cfg.mem_bytes, 1024);
        assert_eq!(cfg.link(2), Some(Link::neighbor(5)));
        assert_eq!(cfg.link(100), Some(Link::router(12)));
        assert_eq!(cfg.link(3), None);
        assert_eq!(cfg.link(100).unwrap().kind, LinkKind::Router);
    }
}
