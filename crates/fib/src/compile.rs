//! The FIB compiler: lowering digit-correction routing decisions into
//! per-server next-hop tables.
//!
//! # Why per-server, not per-switch
//!
//! The correct next hop out of a *crossbar* depends on which group member
//! the packet arrived from: two servers of the same group heading for the
//! same destination can need different exit members (their remaining
//! correction orders start at different owners). Per-switch
//! destination-indexed tables are therefore ill-defined for this family.
//! Servers, on the other hand, fully determine the next two hops — which
//! matches the server-centric design ABCCC inherits from BCube, where
//! switches are dumb crossbars and all forwarding intelligence lives in
//! the servers. A hop is the pair of egress *ports* (server port, then
//! via-switch port) over the stable link-insertion port order of
//! [`netgraph::Network::neighbors`].
//!
//! # Why per-server tables suffice
//!
//! Every deterministic [`PermStrategy`] has the *suffix property*: at any
//! intermediate server of a route, recomputing the correction order from
//! the current address yields exactly the unconsumed remainder of the
//! original order. (Blocks of levels grouped by owner keep their cyclic
//! order when the reference position advances with the walk, and the
//! destination-block-last rotation is stable at every intermediate.) So a
//! hop-by-hop table walk reproduces the end-to-end
//! [`DigitRouter::route_addrs`] path bit for bit — the equivalence the
//! property tests pin. The same property lets [`HierFib`] key each hop on
//! the *first* level the strategy corrects rather than on the full
//! destination (see the `hier` module). [`PermStrategy::Random`] salts
//! its RNG with the *original* source and is the one strategy without
//! the property; the compiler rejects it.

use crate::hier::HierFib;
use abccc::{Abccc, PermStrategy};
use netgraph::NodeId;

/// Why a FIB could not be compiled or installed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FibError {
    /// The strategy recomputes differently at intermediate hops (only
    /// [`PermStrategy::Random`]): its routes cannot be expressed as
    /// per-server tables.
    UnsupportedStrategy {
        /// Label of the rejected strategy.
        strategy: &'static str,
    },
    /// A node's degree does not fit the 16-bit port cells of the table.
    PortOverflow {
        /// The offending node.
        node: NodeId,
        /// Its degree.
        degree: usize,
    },
    /// [`RouteService`](crate::RouteService) requires a
    /// [`PermStrategy::DestinationAware`] table: its faulted fallback is
    /// the `ResilientRouter`, whose first ladder rung is exactly that
    /// strategy — any other table would break the bit-equivalence
    /// contract.
    ServiceRequiresShortest {
        /// Label of the strategy the table was compiled with.
        strategy: &'static str,
    },
    /// The table was compiled for a different topology size.
    TopologyMismatch {
        /// Servers the table covers.
        fib_servers: u32,
        /// Servers of the topology the service was given.
        topo_servers: u64,
    },
}

impl std::fmt::Display for FibError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FibError::UnsupportedStrategy { strategy } => write!(
                f,
                "strategy `{strategy}` cannot be compiled: its orders are not \
                 suffix-stable at intermediate hops"
            ),
            FibError::PortOverflow { node, degree } => {
                write!(f, "degree {degree} of {node} exceeds the 16-bit port field")
            }
            FibError::ServiceRequiresShortest { strategy } => write!(
                f,
                "RouteService needs a destination-aware table for its resilient \
                 fallback contract, got `{strategy}`"
            ),
            FibError::TopologyMismatch {
                fib_servers,
                topo_servers,
            } => write!(
                f,
                "table compiled for {fib_servers} servers, topology has {topo_servers}"
            ),
        }
    }
}

impl std::error::Error for FibError {}

/// Compiles [`DigitRouter`] decisions into a [`HierFib`].
#[derive(Debug, Clone, Copy)]
pub struct FibCompiler {
    strategy: PermStrategy,
}

impl FibCompiler {
    /// A compiler lowering `strategy`'s correction orders.
    pub fn new(strategy: PermStrategy) -> Self {
        FibCompiler { strategy }
    }

    /// The default compiler: [`PermStrategy::DestinationAware`], the
    /// shortest-path strategy and the one [`RouteService`](crate::RouteService)
    /// accepts.
    pub fn shortest() -> Self {
        FibCompiler::new(PermStrategy::DestinationAware)
    }

    /// Compiles the forwarding table for `topo`: one O(E) pass over the
    /// adjacency lists, `O(V·levels + E)` bytes.
    ///
    /// # Errors
    ///
    /// * [`FibError::UnsupportedStrategy`] — [`PermStrategy::Random`] has no
    ///   suffix-stable orders;
    /// * [`FibError::PortOverflow`] — a node degree exceeds the 16-bit port
    ///   field (not reachable for valid ABCCC parameters, checked anyway).
    pub fn compile(&self, topo: &Abccc) -> Result<HierFib, FibError> {
        crate::hier::compile(self.strategy, topo)
    }
}

/// Convenience: compiles the shortest-path table — what
/// [`DigitRouter::shortest`] computes per query, amortized once.
///
/// # Errors
///
/// Propagates [`FibCompiler::compile`] failures (not reachable for valid
/// ABCCC parameters with the destination-aware strategy).
pub fn compile_shortest(topo: &Abccc) -> Result<HierFib, FibError> {
    FibCompiler::shortest().compile(topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abccc::{AbcccParams, DigitRouter, ServerAddr};
    use netgraph::Topology;

    fn topo(n: u32, k: u32, h: u32) -> Abccc {
        Abccc::new(AbcccParams::new(n, k, h).unwrap()).unwrap()
    }

    #[test]
    fn rejects_random_strategy() {
        let t = topo(2, 1, 2);
        let err = FibCompiler::new(PermStrategy::Random(7)).compile(&t);
        assert!(matches!(err, Err(FibError::UnsupportedStrategy { .. })));
        assert!(err.unwrap_err().to_string().contains("random"));
    }

    #[test]
    fn walks_match_on_demand_routes_for_every_deterministic_strategy() {
        for (n, k, h) in [(2, 2, 2), (3, 1, 2), (2, 3, 3), (3, 1, 3)] {
            let t = topo(n, k, h);
            let p = *t.params();
            let net = t.network();
            for strategy in [
                PermStrategy::DestinationAware,
                PermStrategy::CyclicFromSource,
                PermStrategy::Ascending,
                PermStrategy::Descending,
                PermStrategy::Greedy,
            ] {
                let fib = FibCompiler::new(strategy).compile(&t).unwrap();
                let router = DigitRouter::new(strategy);
                for s in 0..p.server_count() as u32 {
                    for d in 0..p.server_count() as u32 {
                        let walked = fib.route(net, NodeId(s), NodeId(d));
                        let direct = router.route_addrs(
                            &p,
                            ServerAddr::from_node_id(&p, NodeId(s)),
                            ServerAddr::from_node_id(&p, NodeId(d)),
                        );
                        assert_eq!(
                            walked,
                            direct,
                            "ABCCC({n},{k},{h}) {} {s}->{d}",
                            strategy.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bcube_endpoint_has_no_crossbars_and_still_compiles() {
        let t = topo(3, 1, 3); // m = 1: no crossbars materialized
        let p = *t.params();
        let fib = compile_shortest(&t).unwrap();
        let r = fib.route(t.network(), NodeId(0), NodeId(8));
        r.validate(t.network(), None).unwrap();
        assert_eq!(
            r,
            DigitRouter::shortest().route_addrs(
                &p,
                ServerAddr::from_node_id(&p, NodeId(0)),
                ServerAddr::from_node_id(&p, NodeId(8)),
            )
        );
    }
}
