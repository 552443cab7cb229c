//! # dcn-fib — compiled forwarding tables for the ABCCC data plane
//!
//! Real data-center forwarding does not run a routing algorithm per
//! packet: the control plane compiles routing decisions into per-node
//! next-hop tables once, and the data plane answers from those tables.
//! This crate does the same for the ABCCC stack:
//!
//! * [`FibCompiler`] lowers a deterministic
//!   [`PermStrategy`](abccc::PermStrategy) into per-server next-hop
//!   tables in one O(E) pass over the adjacency lists. The correctness
//!   of per-server tables rests on the **suffix property** of the
//!   deterministic digit-correction strategies (see the module docs of
//!   the compiler); the seeded `Random` strategy lacks it and is rejected
//!   at compile time.
//! * [`HierFib`] is the immutable compiled artifact, in a
//!   **hierarchical digit-structured** layout: per-level sub-tables keyed
//!   by address digits at `O(N·levels + E)` bytes, O(levels) integer work
//!   per hop, safely shareable across threads. It breaks the O(V²) wall
//!   for 10⁵+-server instances, where a dense `(source, destination)`
//!   table would need `4·N²` bytes — tens of gigabytes.
//! * [`RouteService`] is the query front end: single and batched
//!   src→dst lookups, a lock-free healthy hot path, and per-shard patch
//!   caches that memoize [`ResilientRouter`](abccc::ResilientRouter)
//!   fallbacks under an installed
//!   [`FaultMask`](netgraph::FaultMask). Fault accumulation invalidates
//!   incrementally (only patches whose cached route died); repairs clear
//!   the patches but never recompile the table.
//!
//! Every lookup path is **bit-identical** to the on-demand routers in
//! `abccc` — healthy queries to `DigitRouter::shortest()`, faulted
//! queries to `ResilientRouter::route_explained`, and
//! [`RouteService::query_vlb`] to `VlbRouter` — a contract pinned by the
//! property tests in `tests/equivalence.rs`.
//!
//! ## Example
//!
//! ```
//! use abccc::AbcccParams;
//! use dcn_fib::RouteService;
//! use netgraph::NodeId;
//!
//! let topo = abccc::Abccc::new(AbcccParams::new(2, 2, 2).unwrap()).unwrap();
//! let svc = RouteService::compile(topo, 4).unwrap();
//! let out = svc.query(NodeId(0), NodeId(17)).unwrap();
//! assert_eq!(out.route.src(), NodeId(0));
//! assert_eq!(out.route.dst(), NodeId(17));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compile;
mod hier;
mod service;

pub use compile::{compile_shortest, FibCompiler, FibError};
pub use hier::HierFib;
pub use service::{FibLayout, InvalidationReport, RouteService};
