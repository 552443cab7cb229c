//! The hierarchical digit-structured forwarding table.
//!
//! A dense table would store one packed entry per `(source, destination)`
//! pair — `4·N²` bytes, an O(V²) wall long before the million-server
//! instances the ABCCC paper is about (10⁵ servers ⇒ 40 GB of table). But
//! those entries are massively redundant: by the suffix property, the
//! next hop out of a server depends
//! only on (a) the *first* level its strategy would correct and (b) which
//! digit the destination holds at that level — never on the full
//! destination identity. [`HierFib`] stores exactly that factorization:
//!
//! * per server, the egress port toward each *owned level switch* and
//!   toward its group crossbar (`O(V·levels)` entries);
//! * per level switch, the egress port toward the member holding each
//!   digit (`O(level-switch ports)` = one entry per level cable);
//! * per crossbar, the egress port toward each group position (one entry
//!   per crossbar cable).
//!
//! Total: `O(V·levels + E)` 16-bit entries — megabytes where a dense
//! table needs tens of gigabytes — while every walk reproduces
//! `DigitRouter::route_addrs` bit for bit (pinned exhaustively for every
//! deterministic strategy by the compiler's unit tests, and under healthy
//! *and* accumulated-fault queries by the service proptests). The
//! first-level decision itself comes from the allocation-free
//! [`PermStrategy::first`], so a lookup does O(levels) integer work and
//! touches two `u16` cells.
//!
//! Port tables are filled by decoding the network's actual adjacency
//! lists (O(E) compile), not by assuming the generator's emission order —
//! if the builder ever reordered cables, compilation would still be
//! correct and the bit-equivalence tests would still pass.

use crate::compile::FibError;
use abccc::{Abccc, AbcccParams, PermStrategy, ServerAddr, SwitchAddr};
use netgraph::{FaultMask, Network, NodeId, Route, Topology};

/// Sentinel for port cells no valid lookup dereferences (e.g. the
/// level-switch slot of a level the server does not own).
const NO_PORT: u16 = u16::MAX;

/// A compiled forwarding table in the hierarchical digit-structured
/// layout: for every `(server, destination)` pair, the next two hops (via
/// switch, next server) of the strategy's route as two 16-bit egress
/// ports, stored at `O(V·levels + E)` memory instead of `O(V²)`. Lookups
/// are pure reads of immutable vectors — shareable across any number of
/// query threads without locks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierFib {
    strategy: PermStrategy,
    params: AbcccParams,
    servers: u32,
    max_nodes: u32,
    /// Egress port of server `u` toward its group crossbar; empty when
    /// `m == 1` (the BCube endpoint has no crossbars).
    crossbar_sport: Vec<u16>,
    /// Egress port of server `u` toward the switch of level `i`:
    /// `[u · levels + i]`, [`NO_PORT`] where `u`'s position does not own
    /// level `i`.
    level_sport: Vec<u16>,
    /// Egress port of crossbar `x` toward group member `j`:
    /// `[x · m + j]`; empty when `m == 1`.
    crossbar_wport: Vec<u16>,
    /// Egress port of the level switch with compact index `s` toward the
    /// member whose level digit is `d`: `[s · n + d]` (the compact index
    /// is `level · rest_space + rest`, i.e. the switch's node id minus
    /// servers and crossbars).
    level_wport: Vec<u16>,
}

/// Compiles the hierarchical table for `topo` by decoding its adjacency
/// lists — O(E) work, no per-destination sweep.
pub(crate) fn compile(strategy: PermStrategy, topo: &Abccc) -> Result<HierFib, FibError> {
    if let PermStrategy::Random(_) = strategy {
        return Err(FibError::UnsupportedStrategy {
            strategy: strategy.label(),
        });
    }
    let net = topo.network();
    for node in net.node_ids() {
        if net.degree(node) > usize::from(NO_PORT) {
            return Err(FibError::PortOverflow {
                node,
                degree: net.degree(node),
            });
        }
    }

    let _span = dcn_telemetry::span!("fib.compile");
    let p = *topo.params();
    let servers = p.server_count() as usize;
    let levels = p.levels() as usize;
    let m = p.group_size() as usize;
    let n = p.n() as usize;
    let crossbars = p.crossbar_count() as usize;
    let has_crossbars = m > 1;

    let mut crossbar_sport = vec![NO_PORT; if has_crossbars { servers } else { 0 }];
    let mut level_sport = vec![NO_PORT; servers * levels];
    let mut crossbar_wport = vec![NO_PORT; if has_crossbars { crossbars * m } else { 0 }];
    let mut level_wport = vec![NO_PORT; (p.level_switch_count() as usize) * n];

    // Server side: which port leads to the crossbar / each owned level.
    for u in 0..servers {
        let id = NodeId(u as u32);
        for (port, &(nb, _)) in net.neighbors(id).iter().enumerate() {
            match SwitchAddr::from_node_id(&p, nb) {
                SwitchAddr::Crossbar(_) => crossbar_sport[u] = port as u16,
                SwitchAddr::Level { level, .. } => {
                    level_sport[u * levels + level as usize] = port as u16;
                }
            }
        }
    }
    // Switch side: which port leads to each member / digit.
    for sw in 0..net.switch_count() {
        let id = NodeId((servers + sw) as u32);
        match SwitchAddr::from_node_id(&p, id) {
            SwitchAddr::Crossbar(label) => {
                let base = label.0 as usize * m;
                for (port, &(nb, _)) in net.neighbors(id).iter().enumerate() {
                    let member = ServerAddr::from_node_id(&p, nb);
                    debug_assert_eq!(member.label, label, "crossbar member label");
                    crossbar_wport[base + member.pos as usize] = port as u16;
                }
            }
            SwitchAddr::Level { level, .. } => {
                let base = (sw - crossbars) * n;
                for (port, &(nb, _)) in net.neighbors(id).iter().enumerate() {
                    let member = ServerAddr::from_node_id(&p, nb);
                    let d = member.label.digit(&p, level) as usize;
                    level_wport[base + d] = port as u16;
                }
            }
        }
    }

    let fib = HierFib {
        strategy,
        params: p,
        servers: servers as u32,
        // Worst-case node count of any strategy's route: 4 nodes per
        // corrected level plus the final crossbar pair plus the source.
        max_nodes: 4 * p.levels() + 3,
        crossbar_sport,
        level_sport,
        crossbar_wport,
        level_wport,
    };
    dcn_telemetry::counter!("fib.compiles").inc();
    dcn_telemetry::gauge!("fib.table_bytes").set(fib.bytes() as i64);
    Ok(fib)
}

impl HierFib {
    /// The strategy the table was compiled from.
    pub fn strategy(&self) -> PermStrategy {
        self.strategy
    }

    /// Number of servers the table covers.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// Table size in bytes (port cells only).
    pub fn bytes(&self) -> usize {
        (self.crossbar_sport.len()
            + self.level_sport.len()
            + self.crossbar_wport.len()
            + self.level_wport.len())
            * std::mem::size_of::<u16>()
    }

    /// The `(server port, switch port)` pair for a hop, or `None` on the
    /// diagonal.
    pub fn ports(&self, at: NodeId, toward: NodeId) -> Option<(u16, u16)> {
        if at == toward {
            return None;
        }
        let p = &self.params;
        let su = ServerAddr::from_node_id(p, at);
        let sd = ServerAddr::from_node_id(p, toward);
        let levels = p.levels() as usize;
        let n = p.n() as usize;
        let m = p.group_size() as usize;
        Some(match self.strategy.first(p, su, sd) {
            Some(level) => {
                let owner = p.owner(level);
                if su.pos == owner {
                    // Correct the first digit through the owned level
                    // switch, exiting toward the destination's digit.
                    let sport = self.level_sport[at.index() * levels + level as usize];
                    let compact = u64::from(level) * p.rest_space() + su.label.rest_index(p, level);
                    let wport =
                        self.level_wport[compact as usize * n + sd.label.digit(p, level) as usize];
                    (sport, wport)
                } else {
                    // Reach the owner through the group crossbar first.
                    (
                        self.crossbar_sport[at.index()],
                        self.crossbar_wport[su.label.0 as usize * m + owner as usize],
                    )
                }
            }
            // Same label, different position: one crossbar hop finishes.
            None => (
                self.crossbar_sport[at.index()],
                self.crossbar_wport[su.label.0 as usize * m + sd.pos as usize],
            ),
        })
    }

    /// Walks the table from `src` to `dst`, appending the full node
    /// sequence (servers and switches, `src` included) to `nodes`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range for the table, or — the
    /// corruption guard — if the walk exceeds the worst-case route length
    /// of any strategy (every level paying a crossbar and a switch hop).
    pub fn walk_into(&self, net: &Network, src: NodeId, dst: NodeId, nodes: &mut Vec<NodeId>) {
        let cap = self.max_nodes as usize;
        nodes.push(src);
        let mut cur = src;
        while cur != dst {
            assert!(
                nodes.len() < cap,
                "fib walk {src}->{dst} exceeded the route-length bound — corrupt table"
            );
            let (sport, wport) = self.ports(cur, dst).expect("cur != dst");
            let (via, _) = net.neighbors(cur)[sport as usize];
            let (next, _) = net.neighbors(via)[wport as usize];
            nodes.push(via);
            nodes.push(next);
            cur = next;
        }
    }

    /// The compiled route `src → dst` as a [`Route`].
    pub fn route(&self, net: &Network, src: NodeId, dst: NodeId) -> Route {
        let mut nodes = Vec::with_capacity(self.max_nodes as usize);
        self.walk_into(net, src, dst, &mut nodes);
        Route::new(nodes)
    }

    /// Walks `src → dst` under a fault mask, appending to `nodes` and
    /// reporting whether every traversed node and link is alive — the
    /// hot-path equivalent of `Route::validate(net, Some(mask))` for a
    /// structurally valid table walk.
    pub fn walk_live_into(
        &self,
        net: &Network,
        mask: &FaultMask,
        src: NodeId,
        dst: NodeId,
        nodes: &mut Vec<NodeId>,
    ) -> bool {
        let cap = self.max_nodes as usize;
        nodes.push(src);
        let mut alive = mask.node_alive(src);
        let mut cur = src;
        while cur != dst {
            assert!(
                nodes.len() < cap,
                "fib walk {src}->{dst} exceeded the route-length bound — corrupt table"
            );
            let (sport, wport) = self.ports(cur, dst).expect("cur != dst");
            let (via, l1) = net.neighbors(cur)[sport as usize];
            let (next, l2) = net.neighbors(via)[wport as usize];
            alive = alive
                && mask.link_alive(l1)
                && mask.node_alive(via)
                && mask.link_alive(l2)
                && mask.node_alive(next);
            nodes.push(via);
            nodes.push(next);
            cur = next;
        }
        alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::FibCompiler;
    use abccc::AbcccParams;

    fn topo(n: u32, k: u32, h: u32) -> Abccc {
        Abccc::new(AbcccParams::new(n, k, h).unwrap()).unwrap()
    }

    #[test]
    fn hier_is_at_least_10x_smaller_beyond_a_thousand_servers() {
        let t = topo(4, 2, 2); // m=3, 192 servers
        let servers = t.params().server_count() as usize;
        let dense_bytes = 4 * servers * servers;
        let hier = FibCompiler::shortest().compile(&t).unwrap();
        assert_eq!(hier.servers(), 192);
        assert!(hier.ports(NodeId(0), NodeId(0)).is_none());
        assert!(hier.ports(NodeId(0), NodeId(191)).is_some());
        assert!(
            dense_bytes >= 10 * hier.bytes(),
            "dense 4·N² = {dense_bytes} vs hier {}",
            hier.bytes()
        );
    }

    #[test]
    fn bcube_endpoint_compiles_without_crossbar_tables() {
        let t = topo(3, 1, 3); // m = 1
        let hier = FibCompiler::shortest().compile(&t).unwrap();
        assert!(hier.crossbar_sport.is_empty());
        assert!(hier.crossbar_wport.is_empty());
    }
}
