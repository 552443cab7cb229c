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
//! *and* accumulated-fault queries by the service proptests).
//!
//! A walk decodes the destination once: its group position, its digit at
//! every level, and the bitmask of levels where the source's label
//! differs. It then carries that cursor hop by hop. A level-switch hop
//! clears its level's bit; a crossbar hop changes only the position. The
//! first-level decision is [`PermStrategy::first_differing`] on the mask
//! and the two positions — shifts and bit scans — and the switch a hop
//! crosses is read off the adjacency list, so each hop costs two `u16`
//! port cells and two adjacency reads, with no digit arithmetic.
//!
//! Port tables are filled by decoding the network's actual adjacency
//! lists (O(E) compile), not by assuming the generator's emission order —
//! if the builder ever reordered cables, compilation would still be
//! correct and the bit-equivalence tests would still pass.

use crate::compile::FibError;
use abccc::{Abccc, AbcccParams, PermStrategy, ServerAddr, SwitchAddr};
use netgraph::{FaultMask, LinkId, Network, NodeId, Route, Topology};

/// Sentinel for port cells no valid lookup dereferences (e.g. the
/// level-switch slot of a level the server does not own).
const NO_PORT: u16 = u16::MAX;

/// Most levels a label can have (`k ≤ 19`, enforced by
/// [`AbcccParams::new`]).
const MAX_LEVELS: usize = 20;

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
    /// Digit base `n`.
    n: u32,
    /// Group size `m`.
    m: u32,
    /// Number of levels `k + 1`.
    levels: u32,
    /// Node id of the first level switch (after servers and crossbars).
    level_base: u32,
    /// The group position owning each level.
    owner: [u32; MAX_LEVELS],
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

    let mut owner = [0; MAX_LEVELS];
    for (level, o) in owner[..levels].iter_mut().enumerate() {
        *o = p.owner(level as u32);
    }
    let fib = HierFib {
        strategy,
        params: p,
        servers: servers as u32,
        // Worst-case node count of any strategy's route: 4 nodes per
        // corrected level plus the final crossbar pair plus the source.
        max_nodes: 4 * p.levels() + 3,
        n: p.n(),
        m: p.group_size(),
        levels: p.levels(),
        level_base: (servers + crossbars) as u32,
        owner,
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

    /// The route-length bound: no strategy's route has more nodes.
    pub(crate) fn max_nodes(&self) -> usize {
        self.max_nodes as usize
    }

    /// The `(server port, switch port)` pair for the first hop from `at`
    /// toward `toward`, or `None` on the diagonal.
    ///
    /// # Panics
    ///
    /// Panics if either node is not a server of the table.
    pub fn ports(&self, net: &Network, at: NodeId, toward: NodeId) -> Option<(u16, u16)> {
        if at == toward {
            return None;
        }
        let mut cursor = self.cursor(at, toward);
        Some(self.step(net, at, &mut cursor).ports)
    }

    /// Decodes the walk `at → toward` once: both positions, the
    /// destination's digits and the differing-level mask.
    fn cursor(&self, at: NodeId, toward: NodeId) -> Cursor {
        assert!(
            at.0 < self.servers && toward.0 < self.servers,
            "fib walk {at}->{toward}: endpoints must be servers of the table"
        );
        let (n, m) = (self.n, self.m);
        let mut cursor = Cursor {
            pos: at.0 % m,
            dst_pos: toward.0 % m,
            mask: 0,
            dst_digits: [0; MAX_LEVELS],
        };
        let (mut a, mut b) = (at.0 / m, toward.0 / m);
        for (level, digit) in cursor.dst_digits[..self.levels as usize]
            .iter_mut()
            .enumerate()
        {
            *digit = b % n;
            if a % n != *digit {
                cursor.mask |= 1 << level;
            }
            a /= n;
            b /= n;
        }
        cursor
    }

    /// One hop out of server `at`: the strategy's first level from the
    /// cursor, then two port cells and two adjacency reads. Advances the
    /// cursor to the server reached.
    fn step(&self, net: &Network, at: NodeId, cursor: &mut Cursor) -> Hop {
        let first =
            self.strategy
                .first_differing(&self.params, cursor.mask, cursor.pos, cursor.dst_pos);
        let toward = match first {
            Some(level) if self.owner[level as usize] == cursor.pos => {
                // Correct the digit through the owned level switch, exiting
                // toward the destination's digit. The switch's compact
                // index is its node id past the servers and crossbars.
                let sport = self.level_sport[at.index() * self.levels as usize + level as usize];
                let via = net.neighbors(at)[usize::from(sport)];
                let switch = (via.0 .0 - self.level_base) as usize;
                let digit = cursor.dst_digits[level as usize] as usize;
                let wport = self.level_wport[switch * self.n as usize + digit];
                cursor.mask &= !(1 << level);
                return Hop {
                    ports: (sport, wport),
                    via,
                    next: net.neighbors(via.0)[usize::from(wport)],
                };
            }
            // Reach the owner through the group crossbar first.
            Some(level) => self.owner[level as usize],
            // Same label, different position: one crossbar hop finishes.
            None => cursor.dst_pos,
        };
        let sport = self.crossbar_sport[at.index()];
        let via = net.neighbors(at)[usize::from(sport)];
        let crossbar = (via.0 .0 - self.servers) as usize;
        let wport = self.crossbar_wport[crossbar * self.m as usize + toward as usize];
        let next = net.neighbors(via.0)[usize::from(wport)];
        // The position of the server actually reached, so a corrupt cell
        // leaves the cursor true to the walk and trips the length bound.
        cursor.pos = next.0 .0 % self.m;
        Hop {
            ports: (sport, wport),
            via,
            next,
        }
    }

    /// The one walk: appends `src`, then both nodes of every hop to
    /// `nodes`, handing each hop to `visit`.
    fn walk(
        &self,
        net: &Network,
        src: NodeId,
        dst: NodeId,
        nodes: &mut Vec<NodeId>,
        mut visit: impl FnMut(&Hop),
    ) {
        let mut cursor = self.cursor(src, dst);
        let bound = nodes.len() + self.max_nodes();
        nodes.push(src);
        let mut cur = src;
        while cur != dst {
            assert!(
                nodes.len() < bound,
                "fib walk {src}->{dst} exceeded the route-length bound — corrupt table"
            );
            let hop = self.step(net, cur, &mut cursor);
            visit(&hop);
            nodes.push(hop.via.0);
            nodes.push(hop.next.0);
            cur = hop.next.0;
        }
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
        self.walk(net, src, dst, nodes, |_| {});
    }

    /// The compiled route `src → dst` as a [`Route`].
    pub fn route(&self, net: &Network, src: NodeId, dst: NodeId) -> Route {
        let mut nodes = Vec::with_capacity(self.max_nodes());
        self.walk_into(net, src, dst, &mut nodes);
        Route::new(nodes)
    }

    /// Walks `src → dst` under a fault mask, appending to `nodes` and
    /// reporting whether every traversed node and link is alive — the
    /// hot-path equivalent of `Route::validate(net, Some(mask))` for a
    /// structurally valid table walk.
    ///
    /// # Panics
    ///
    /// As [`HierFib::walk_into`].
    pub fn walk_live_into(
        &self,
        net: &Network,
        mask: &FaultMask,
        src: NodeId,
        dst: NodeId,
        nodes: &mut Vec<NodeId>,
    ) -> bool {
        let mut alive = mask.node_alive(src);
        self.walk(net, src, dst, nodes, |hop| {
            alive = alive
                && mask.link_alive(hop.via.1)
                && mask.node_alive(hop.via.0)
                && mask.link_alive(hop.next.1)
                && mask.node_alive(hop.next.0);
        });
        alive
    }
}

/// A walk's state toward one destination, decoded once at its start.
struct Cursor {
    /// Group position of the current server.
    pos: u32,
    /// Group position of the destination.
    dst_pos: u32,
    /// Bit `i` is set while the current label differs from the
    /// destination's at level `i`.
    mask: u32,
    /// The destination's digit at each level.
    dst_digits: [u32; MAX_LEVELS],
}

/// One table hop: the two egress ports and the `(node, link)` each
/// leads to — the switch crossed, then the next server.
struct Hop {
    ports: (u16, u16),
    via: (NodeId, LinkId),
    next: (NodeId, LinkId),
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
        assert!(hier.ports(t.network(), NodeId(0), NodeId(0)).is_none());
        assert!(hier.ports(t.network(), NodeId(0), NodeId(191)).is_some());
        assert!(
            dense_bytes >= 10 * hier.bytes(),
            "dense 4·N² = {dense_bytes} vs hier {}",
            hier.bytes()
        );
    }

    /// ABCCC(4,2,2) with one cell corrupted: label 0's crossbar exit toward
    /// position 2 leads back to position 0. Server 0 → server 50 (label
    /// 16, position 2: only level 2 differs, owned by position 2) starts
    /// with exactly that crossbar hop, so its walk returns to the source
    /// forever.
    fn corrupt_walk() -> (Abccc, HierFib, NodeId, NodeId) {
        let t = topo(4, 2, 2);
        let mut hier = FibCompiler::shortest().compile(&t).unwrap();
        let (src, dst) = (NodeId(0), NodeId(50));
        assert_eq!(
            hier.ports(t.network(), src, dst),
            Some((hier.crossbar_sport[0], hier.crossbar_wport[2]))
        );
        hier.crossbar_wport[2] = hier.crossbar_wport[0];
        (t, hier, src, dst)
    }

    #[test]
    #[should_panic(expected = "exceeded the route-length bound — corrupt table")]
    fn a_corrupt_cell_trips_the_length_guard_of_walk_into() {
        let (t, hier, src, dst) = corrupt_walk();
        hier.walk_into(t.network(), src, dst, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "exceeded the route-length bound — corrupt table")]
    fn a_corrupt_cell_trips_the_length_guard_of_walk_live_into() {
        let (t, hier, src, dst) = corrupt_walk();
        let mask = FaultMask::new(t.network());
        hier.walk_live_into(t.network(), &mask, src, dst, &mut Vec::new());
    }

    #[test]
    fn the_length_bound_counts_only_the_appended_nodes() {
        let t = topo(4, 2, 2);
        let hier = FibCompiler::shortest().compile(&t).unwrap();
        let mut nodes = vec![NodeId(7); 2 * hier.max_nodes()];
        hier.walk_into(t.network(), NodeId(0), NodeId(191), &mut nodes);
        assert_eq!(
            Route::new(nodes[2 * hier.max_nodes()..].to_vec()),
            hier.route(t.network(), NodeId(0), NodeId(191))
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
