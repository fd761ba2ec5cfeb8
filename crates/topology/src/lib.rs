//! IP multicast tree topology model.
//!
//! The CESRM paper (Livadas & Keidar, DSN 2004) models an IP multicast
//! transmission as a directed tree `T = (N, s, L)`: a root node `s` (the
//! transmission source), interior nodes (IP-multicast-capable routers) and
//! leaf nodes (the receivers). Edges are the communication links along which
//! packets are disseminated. This crate provides that model:
//!
//! * [`MulticastTree`] — a validated, immutable source-rooted tree with
//!   path/ancestor queries, per-node subtree receiver sets, and link
//!   identities (each link is named by the node it points *into*), stored
//!   flat: no heap block per node.
//! * [`TreeBuilder`] — incremental construction with validation at
//!   [`TreeBuilder::build`].
//! * [`random_tree`] — random trees with a prescribed receiver count and depth,
//!   used to synthesize the Table-1 topologies of the paper, for which only
//!   receiver count and tree depth are published.
//! * [`scale_tree`] — multi-level trees of 10³–10⁶ receivers from a
//!   [`ScaleShape`] (per-level fanout and delay distributions), deterministic
//!   from a seed. Node ids are assigned breadth-first so sibling subtrees
//!   occupy contiguous id ranges, which the sharded runner
//!   (`docs/SCALING.md`) uses to partition the tree across workers. The
//!   drawn per-link delays ride along in [`ScaleTree::link_delay_ns`].
//!
//! # Examples
//!
//! ```
//! use topology::TreeBuilder;
//!
//! # fn main() -> Result<(), topology::TreeError> {
//! let mut b = TreeBuilder::new();
//! let r1 = b.add_router(b.root());
//! let a = b.add_receiver(r1);
//! let bb = b.add_receiver(r1);
//! let tree = b.build()?;
//! assert_eq!(tree.receivers(), &[a, bb]);
//! assert_eq!(tree.hop_distance(a, bb), 2);
//! # Ok(())
//! # }
//! ```

mod builder;
mod error;
mod generate;
mod node;
mod scale;
mod tree;

pub use builder::TreeBuilder;
pub use error::TreeError;
pub use generate::{random_tree, TreeShape};
pub use node::{LinkId, NodeId, NodeKind};
pub use scale::{scale_tree, LevelSpec, ScaleShape, ScaleTree};
pub use tree::MulticastTree;
