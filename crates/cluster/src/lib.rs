//! Multi-node session routing for grandma-serve.
//!
//! Two small, dependency-free pieces:
//!
//! - [`ring`]: a deterministic consistent-hash ring. Seeded, virtual
//!   nodes, byte-stable across processes — every node that reads the
//!   same membership list computes the identical session → node map,
//!   so routing decisions never need a coordinator.
//! - [`discovery`]: the `cluster.json` registry. Every `serve run
//!   --cluster-file` process publishes `{id, addr, epoch}` into one
//!   shared file with the same tmp + fsync + rename + directory fsync
//!   the WAL snapshot uses, so readers always see a complete view, a
//!   torn write is impossible, and a published view survives power loss.
//!
//! This crate deliberately knows nothing about the wire protocol or the
//! session router; grandma-serve layers ownership fencing and the
//! `ClusterClient` on top of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod discovery;
pub mod ring;

pub use discovery::{
    read_cluster, register_node, remove_node, sync_dir, write_cluster, ClusterView, DiscoveryError,
    NodeRecord,
};
pub use ring::{HashRing, DEFAULT_RING_SEED, DEFAULT_VNODES};
