//! # abccc-suite — umbrella crate for the ABCCC reproduction
//!
//! This crate re-exports the whole workspace behind one dependency and
//! hosts the runnable examples (`examples/`) and the cross-crate
//! integration and property tests (`tests/`). For the individual pieces
//! see:
//!
//! * [`abccc`] — the paper's contribution (topology, routing, expansion);
//! * [`dcn_baselines`] — BCube, BCCC, DCell, fat-tree, hypercube;
//! * [`netgraph`] — the graph substrate (BFS, max-flow, disjoint paths);
//! * [`dcn_metrics`] — diameter/bisection/CAPEX/expansion metrics;
//! * [`dcn_sim`] — the unified traffic engine (fluid + packet fidelity);
//! * [`dcn_workloads`] — traffic patterns, failure generators, and the
//!   production scenario library;
//! * [`dcn_fib`] — compiled forwarding tables + the route-query service.
//!
//! ```
//! use abccc_suite::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topo = Abccc::new(AbcccParams::new(4, 1, 2)?)?;
//! assert_eq!(topo.network().server_count(), 32);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use abccc;
pub use dcn_baselines;
pub use dcn_fib;
pub use dcn_metrics;
pub use dcn_sim;
pub use dcn_workloads;
pub use netgraph;

/// The common imports for examples and quick experiments.
pub mod prelude {
    pub use abccc::{
        Abccc, AbcccParams, CubeLabel, ExpansionStep, PermStrategy, ResilientRouter, RetryBudget,
        Router, ServerAddr,
    };
    pub use dcn_baselines::{
        BCube, BCubeParams, Bccc, BcccParams, DCell, DCellParams, FatTree, FatTreeParams,
        Hypercube, HypercubeParams,
    };
    pub use dcn_fib::{FibCompiler, HierFib, RouteService};
    pub use dcn_metrics::{CostModel, TopologyStats};
    pub use dcn_sim::{
        Fidelity, FlowSim, FlowSpec, PacketSim, PacketSimConfig, Scenario, ScenarioFlow,
        ScenarioReport, TrafficEngine,
    };
    pub use netgraph::{FaultMask, Network, NodeId, Route, Topology};
}
