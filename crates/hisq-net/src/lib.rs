//! # hisq-net — the Distributed-HISQ network substrate
//!
//! Implements §5 of the paper: the **hybrid topology** (a mesh-like
//! intra-layer between neighbouring controllers mirroring the qubit
//! coupling map, plus a balanced tree of routers for region-level
//! coordination) and the **router** with its max-reduction routing
//! mechanism (Figure 8):
//!
//! 1. on receiving a booking from a child, buffer it; on receiving a
//!    broadcast from the parent, forward it to all children;
//! 2. once every participating child has booked, compute the maximum
//!    time-point;
//! 3. if this router is the sync destination, broadcast the maximum to
//!    its children; otherwise forward it to its parent.
//!
//! # Example
//!
//! ```
//! use hisq_net::TopologyBuilder;
//!
//! // A 2×2 controller mesh under a binary router tree.
//! let topo = TopologyBuilder::grid(2, 2)
//!     .neighbor_latency(5)
//!     .router_arity(2)
//!     .router_latency(10)
//!     .build();
//! assert_eq!(topo.num_controllers(), 4);
//! assert!(topo.num_routers() >= 2);
//! // Every controller has a path to the root router.
//! let root = topo.root_router().unwrap();
//! assert!(topo.ancestors(0).contains(&root));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod json;
pub mod message;
pub mod router;
pub mod topology;

pub use message::Payload;
pub use router::{Router, RouterAction, RouterError};
pub use topology::{DropPolicy, FabricMap, LinkModel, Topology, TopologyBuilder};

pub use hisq_core::{NodeAddr, MEAS_FIFO_ADDR};
