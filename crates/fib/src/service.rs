//! The sharded concurrent route-query service.
//!
//! [`RouteService`] answers src→dst queries from a compiled [`HierFib`].
//! The healthy hot path is lock-free: a table walk over immutable port
//! tables, nothing shared but reads. Under an installed fault mask the walk
//! additionally checks liveness per hop; only when the compiled route is
//! actually broken does the query fall back to a full
//! [`ResilientRouter`] recomputation, whose outcome is memoized in a
//! per-shard patch cache so each broken pair pays the escalation ladder
//! once.
//!
//! # Equivalence contract (pinned by the property tests)
//!
//! For every pair and mask, [`RouteService::query`] returns bit for bit
//! what `ResilientRouter::new(budget).route_explained(topo, src, dst,
//! mask)` returns — and on the healthy path that is also exactly
//! `DigitRouter::shortest()`'s route. This holds because the table is
//! compiled from the ladder's first rung
//! ([`PermStrategy::DestinationAware`], enforced at construction): a live
//! walk *is* the rung-0 hit (`Primary`, 1 attempt, no backoff), and a dead
//! walk means rung 0 fails, which is where the recomputation ladder starts.
//!
//! # Incremental invalidation contract
//!
//! Applying a new mask that [`FaultMask::covers`] the installed one (fault
//! accumulation, the common case during an outage) keeps every patch whose
//! cached route is still fully alive, and every cached error: under a
//! superset mask, ladder candidates rejected earlier stay rejected
//! (failure is monotone), so a cached outcome whose route survives is
//! exactly what recomputation would return, and `Unreachable`/`GaveUp`
//! can only stay that way. Any *repair* (non-superset mask) clears all
//! patches — cheap, because the compiled table itself never recompiles.

use crate::compile::{FibCompiler, FibError};
use crate::hier::HierFib;
use abccc::router::{check_endpoints, pair_seed};
use abccc::vlb::route_two_stage_with;
use abccc::{Abccc, PermStrategy, ResilientRouter, RetryBudget, RouteOutcome, ServerAddr};
use netgraph::{FaultMask, FaultScenario, NodeId, Route, RouteError, Topology};
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The forwarding-table layout [`RouteService::compile_with_layout`]
/// takes. [`HierFib`] is the only layout; this name and that method stay
/// until the next benchmark change, whose harness still calls them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FibLayout {
    /// The hierarchical digit-structured [`HierFib`].
    Hier,
}

/// What [`RouteService::apply_mask`] did to the patch caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidationReport {
    /// `true` when the new mask covered the installed one and patches were
    /// revalidated individually; `false` when a repair forced a full clear.
    pub incremental: bool,
    /// Patches kept (cached route still fully alive, or a cached error).
    pub retained: usize,
    /// Patches dropped for on-demand recomputation.
    pub dropped: usize,
}

/// One shard: a mutex-guarded memo of fallback outcomes for the pairs
/// hashed to it. Shards only serialize queries *within* a shard, and only
/// on the (already expensive) fallback path.
#[derive(Debug, Default)]
struct Shard {
    patches: Mutex<HashMap<(u32, u32), Result<RouteOutcome, RouteError>>>,
}

/// A sharded, concurrently-queryable forwarding plane over a compiled
/// [`HierFib`] (see the module docs for the equivalence and invalidation
/// contracts).
#[derive(Debug)]
pub struct RouteService {
    topo: Abccc,
    table: HierFib,
    budget: RetryBudget,
    mask: Option<FaultMask>,
    shards: Vec<Shard>,
}

impl RouteService {
    /// Builds a service over an already-compiled table. `shards` is
    /// rounded up to a power of two and clamped to `[1, 1024]`.
    ///
    /// # Errors
    ///
    /// * [`FibError::ServiceRequiresShortest`] — the table is not
    ///   destination-aware (see the equivalence contract);
    /// * [`FibError::TopologyMismatch`] — the table covers a different
    ///   server count than `topo`.
    pub fn new(topo: Abccc, table: HierFib, shards: usize) -> Result<Self, FibError> {
        if table.strategy() != PermStrategy::DestinationAware {
            return Err(FibError::ServiceRequiresShortest {
                strategy: table.strategy().label(),
            });
        }
        if u64::from(table.servers()) != topo.params().server_count() {
            return Err(FibError::TopologyMismatch {
                fib_servers: table.servers(),
                topo_servers: topo.params().server_count(),
            });
        }
        let shard_count = shards.clamp(1, 1024).next_power_of_two();
        Ok(RouteService {
            topo,
            table,
            budget: RetryBudget::default(),
            mask: None,
            shards: (0..shard_count).map(|_| Shard::default()).collect(),
        })
    }

    /// Compiles the destination-aware table for `topo` and wraps it in a
    /// service — the one-call entry point.
    ///
    /// # Errors
    ///
    /// Propagates [`FibCompiler::compile`] and [`RouteService::new`]
    /// failures.
    pub fn compile(topo: Abccc, shards: usize) -> Result<Self, FibError> {
        let table = FibCompiler::shortest().compile(&topo)?;
        RouteService::new(topo, table, shards)
    }

    /// Same as [`RouteService::compile`]; goes with [`FibLayout`] at the
    /// next benchmark change.
    ///
    /// # Errors
    ///
    /// Same as [`RouteService::compile`].
    pub fn compile_with_layout(
        topo: Abccc,
        _layout: FibLayout,
        shards: usize,
    ) -> Result<Self, FibError> {
        RouteService::compile(topo, shards)
    }

    /// Replaces the [`RetryBudget`] the faulted fallback escalates under.
    /// Clears the patch caches (cached outcomes embed the old budget's
    /// accounting).
    #[must_use]
    pub fn budget(mut self, budget: RetryBudget) -> Self {
        self.budget = budget;
        self.clear_patches();
        self
    }

    /// The topology the service routes over.
    pub fn topo(&self) -> &Abccc {
        &self.topo
    }

    /// The compiled table the service answers from.
    pub fn table(&self) -> &HierFib {
        &self.table
    }

    /// The currently installed fault mask, if any.
    pub fn mask(&self) -> Option<&FaultMask> {
        self.mask.as_ref()
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Cached fallback outcomes across all shards.
    pub fn patch_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.patches.lock().expect("patch cache").len())
            .sum()
    }

    #[inline]
    fn shard_of(&self, src: NodeId, dst: NodeId) -> &Shard {
        // SplitMix64 finalizer over the pair — decorrelates shard choice
        // from id locality so batches spread evenly.
        let mut z = pair_seed(0x5A_4D17, src, dst).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        &self.shards[(z >> 32) as usize & (self.shards.len() - 1)]
    }

    /// Routes `src → dst` from the compiled table (see the module docs for
    /// the exact equivalence to on-demand routing).
    ///
    /// # Errors
    ///
    /// Exactly [`ResilientRouter`]'s contract: [`RouteError::NotAServer`],
    /// [`RouteError::Unreachable`], or [`RouteError::GaveUp`] when the
    /// budget disables the BFS fallback.
    pub fn query(&self, src: NodeId, dst: NodeId) -> Result<RouteOutcome, RouteError> {
        let _t = dcn_telemetry::histogram!("fib.lookup_ns").start_timer();
        dcn_telemetry::counter!("fib.lookups").inc();
        check_endpoints(&self.topo, src, dst, self.mask.as_ref())?;
        let net = self.topo.network();
        let mut nodes = Vec::new();
        match &self.mask {
            None => {
                self.table.walk_into(net, src, dst, &mut nodes);
                Ok(RouteOutcome::primary(Route::new(nodes)))
            }
            Some(mask) => {
                if self.table.walk_live_into(net, mask, src, dst, &mut nodes) {
                    Ok(RouteOutcome::primary(Route::new(nodes)))
                } else {
                    self.fallback(src, dst, mask)
                }
            }
        }
    }

    /// The compiled-table-is-broken path: memoized full ladder.
    fn fallback(
        &self,
        src: NodeId,
        dst: NodeId,
        mask: &FaultMask,
    ) -> Result<RouteOutcome, RouteError> {
        let shard = self.shard_of(src, dst);
        if let Some(hit) = shard
            .patches
            .lock()
            .expect("patch cache")
            .get(&(src.0, dst.0))
        {
            dcn_telemetry::counter!("fib.patch_hits").inc();
            return hit.clone();
        }
        dcn_telemetry::counter!("fib.fallbacks").inc();
        let outcome =
            ResilientRouter::new(self.budget).route_explained(&self.topo, src, dst, Some(mask));
        shard
            .patches
            .lock()
            .expect("patch cache")
            .insert((src.0, dst.0), outcome.clone());
        dcn_telemetry::gauge!("fib.patch_entries").set(self.patch_count() as i64);
        outcome
    }

    /// Answers a batch of queries, partitioned across shards and executed
    /// on one scoped thread per (occupied) shard. Results come back in
    /// input order and are bit-identical to calling [`RouteService::query`]
    /// sequentially — per-pair answers are pure given the installed mask,
    /// so the shard count and scheduling never show in the output.
    pub fn query_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<Result<RouteOutcome, RouteError>> {
        let _span = dcn_telemetry::span!("fib.query_batch");
        dcn_telemetry::counter!("fib.batches").inc();
        let mut by_shard: Vec<Vec<usize>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (i, &(s, d)) in pairs.iter().enumerate() {
            let mut z = pair_seed(0x5A_4D17, s, d).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            by_shard[(z >> 32) as usize & (self.shards.len() - 1)].push(i);
        }
        let slots: Mutex<Vec<Option<Result<RouteOutcome, RouteError>>>> =
            Mutex::new(vec![None; pairs.len()]);
        let occupied: Vec<&Vec<usize>> = by_shard.iter().filter(|ix| !ix.is_empty()).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..occupied.len() {
                scope.spawn(|| loop {
                    let w = next.fetch_add(1, Ordering::Relaxed);
                    let Some(indices) = occupied.get(w) else {
                        break;
                    };
                    for &i in *indices {
                        let (s, d) = pairs[i];
                        let r = self.query(s, d);
                        slots.lock().expect("batch slots")[i] = Some(r);
                    }
                });
            }
        });
        slots
            .into_inner()
            .expect("batch slots")
            .into_iter()
            .map(|r| r.expect("every pair answered"))
            .collect()
    }

    /// Valiant load balancing from the compiled table: same per-pair RNG
    /// stream and stage semantics as `VlbRouter::new(seed)`, with both
    /// stages served by table walks instead of on-demand routing —
    /// bit-identical routes (the table is destination-aware, exactly the
    /// stage router VLB uses).
    ///
    /// # Errors
    ///
    /// `VlbRouter`'s contract: [`RouteError::NotAServer`],
    /// [`RouteError::Unreachable`] (dead endpoint), or
    /// [`RouteError::GaveUp`] when the produced route crosses a failed
    /// element (VLB is fault-oblivious).
    pub fn query_vlb(
        &self,
        seed: u64,
        src: NodeId,
        dst: NodeId,
    ) -> Result<RouteOutcome, RouteError> {
        dcn_telemetry::counter!("fib.vlb_lookups").inc();
        check_endpoints(&self.topo, src, dst, self.mask.as_ref())?;
        let p = self.topo.params();
        let net = self.topo.network();
        let mut rng = rand::rngs::StdRng::seed_from_u64(pair_seed(seed, src, dst));
        let (route, attempts) = route_two_stage_with(
            p,
            ServerAddr::from_node_id(p, src),
            ServerAddr::from_node_id(p, dst),
            &mut rng,
            |a, b| self.table.route(net, a.node_id(p), b.node_id(p)),
        );
        if let Some(m) = &self.mask {
            if route.validate(net, Some(m)).is_err() {
                return Err(RouteError::GaveUp {
                    src,
                    dst,
                    attempts: attempts as usize,
                });
            }
        }
        Ok(RouteOutcome {
            route,
            tier: abccc::RouteTier::Primary,
            attempts,
            backoff_units: 0,
        })
    }

    /// Installs a fault mask, patching incrementally when it covers the
    /// previous one (see the invalidation contract in the module docs).
    pub fn apply_mask(&mut self, mask: FaultMask) -> InvalidationReport {
        let incremental = match &self.mask {
            None => true, // no mask = no faults: anything covers it
            Some(old) => mask.covers(old),
        };
        let (mut retained, mut dropped) = (0usize, 0usize);
        if incremental {
            let net = self.topo.network();
            for shard in &self.shards {
                let mut patches = shard.patches.lock().expect("patch cache");
                patches.retain(|_, cached| {
                    let keep = match cached {
                        // Monotone: more faults cannot un-fail an error.
                        Err(_) => true,
                        // Still fully alive ⇒ recomputation would return
                        // the identical outcome (earlier ladder candidates
                        // stay rejected under a superset mask).
                        Ok(out) => out.route.validate(net, Some(&mask)).is_ok(),
                    };
                    if keep {
                        retained += 1;
                    } else {
                        dropped += 1;
                    }
                    keep
                });
            }
        } else {
            dropped = self.clear_patches();
        }
        dcn_telemetry::counter!("fib.invalidations").inc();
        dcn_telemetry::gauge!("fib.patch_entries").set(self.patch_count() as i64);
        self.mask = Some(mask);
        InvalidationReport {
            incremental,
            retained,
            dropped,
        }
    }

    /// Builds `scenario`'s mask for this topology and installs it via
    /// [`RouteService::apply_mask`].
    pub fn apply_scenario(&mut self, scenario: &FaultScenario) -> InvalidationReport {
        let mask = scenario.build(self.topo.network());
        self.apply_mask(mask)
    }

    /// Removes the fault mask and all patches: back to the lock-free
    /// healthy path.
    pub fn clear_faults(&mut self) {
        self.mask = None;
        self.clear_patches();
        dcn_telemetry::gauge!("fib.patch_entries").set(0);
    }

    fn clear_patches(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let mut p = s.patches.lock().expect("patch cache");
                let n = p.len();
                p.clear();
                n
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abccc::AbcccParams;

    fn service(n: u32, k: u32, h: u32, shards: usize) -> RouteService {
        let topo = Abccc::new(AbcccParams::new(n, k, h).unwrap()).unwrap();
        RouteService::compile(topo, shards).unwrap()
    }

    #[test]
    fn rejects_non_shortest_tables_and_size_mismatches() {
        let topo = Abccc::new(AbcccParams::new(2, 2, 2).unwrap()).unwrap();
        let ascending = FibCompiler::new(PermStrategy::Ascending)
            .compile(&topo)
            .unwrap();
        let topo2 = Abccc::new(AbcccParams::new(2, 2, 2).unwrap()).unwrap();
        assert!(matches!(
            RouteService::new(topo2, ascending, 4),
            Err(FibError::ServiceRequiresShortest { .. })
        ));

        let small = Abccc::new(AbcccParams::new(3, 1, 2).unwrap()).unwrap();
        let small_fib = FibCompiler::shortest().compile(&small).unwrap();
        let topo3 = Abccc::new(AbcccParams::new(2, 2, 2).unwrap()).unwrap();
        assert!(matches!(
            RouteService::new(topo3, small_fib, 4),
            Err(FibError::TopologyMismatch { .. })
        ));
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(service(2, 1, 2, 0).shard_count(), 1);
        assert_eq!(service(2, 1, 2, 3).shard_count(), 4);
        assert_eq!(service(2, 1, 2, 8).shard_count(), 8);
    }

    #[test]
    fn healthy_queries_are_primary_and_batch_preserves_order() {
        let svc = service(2, 2, 2, 4);
        let n = svc.topo().params().server_count() as u32;
        let pairs: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|s| (0..n).map(move |d| (NodeId(s), NodeId(d))))
            .collect();
        let batch = svc.query_batch(&pairs);
        assert_eq!(batch.len(), pairs.len());
        for (&(s, d), out) in pairs.iter().zip(&batch) {
            let out = out.as_ref().unwrap();
            assert_eq!(out.route.src(), s);
            assert_eq!(out.route.dst(), d);
            assert_eq!(out.tier, abccc::RouteTier::Primary);
            assert_eq!((out.attempts, out.backoff_units), (1, 0));
            assert_eq!(*out, svc.query(s, d).unwrap());
        }
    }

    #[test]
    fn rejects_switch_and_dead_endpoints_like_routers_do() {
        let mut svc = service(2, 2, 2, 2);
        let servers = svc.topo().params().server_count() as u32;
        let sw = NodeId(servers);
        assert!(matches!(
            svc.query(sw, NodeId(0)),
            Err(RouteError::NotAServer(_))
        ));
        svc.apply_scenario(&FaultScenario::seeded(0).fail_nodes([NodeId(3)]));
        assert!(matches!(
            svc.query(NodeId(3), NodeId(0)),
            Err(RouteError::Unreachable { .. })
        ));
    }

    #[test]
    fn fallback_is_memoized_and_superset_masks_keep_valid_patches() {
        let mut svc = service(3, 2, 2, 2);
        let (a, b) = (NodeId(0), NodeId(80));
        let primary = svc.query(a, b).unwrap().route;
        // Fail the primary route's interior: the pair needs a fallback.
        let interior: Vec<NodeId> = primary.nodes()[1..primary.nodes().len() - 1].to_vec();
        let report = svc.apply_scenario(&FaultScenario::seeded(0).fail_nodes(interior.clone()));
        assert!(report.incremental);
        let out = svc.query(a, b).unwrap();
        assert!(out.tier > abccc::RouteTier::Primary);
        assert_eq!(svc.patch_count(), 1);
        assert_eq!(svc.query(a, b).unwrap(), out); // served from the patch

        // Accumulate one more unrelated fault: the patch survives iff its
        // route is untouched.
        let mut more = svc.mask().unwrap().clone();
        let spare = svc
            .topo()
            .network()
            .server_ids()
            .find(|s| !out.route.nodes().contains(s) && *s != a && *s != b)
            .unwrap();
        more.fail_node(spare);
        let report = svc.apply_mask(more);
        assert!(report.incremental);
        assert_eq!((report.retained, report.dropped), (1, 0));
        assert_eq!(svc.query(a, b).unwrap(), out);

        // A repair clears everything.
        let report = svc.apply_scenario(&FaultScenario::seeded(1).fail_nodes([NodeId(7)]));
        assert!(!report.incremental);
        assert_eq!(svc.patch_count(), 0);

        svc.clear_faults();
        assert_eq!(svc.query(a, b).unwrap().route, primary);
    }
}
