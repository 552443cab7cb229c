//! The crate's load-bearing contract: compiled lookups are **bit-identical**
//! to the on-demand routers — healthy and faulted, single and batched, at
//! any shard count — and incremental invalidation never changes an answer.

use abccc::{Abccc, AbcccParams, DigitRouter, ResilientRouter, RetryBudget, Router, VlbRouter};
use dcn_fib::RouteService;
use netgraph::{FaultScenario, NodeId, RouteError, Topology};
use proptest::prelude::*;
use std::sync::Mutex;

fn topo(n: u32, k: u32, h: u32) -> Abccc {
    Abccc::new(AbcccParams::new(n, k, h).expect("params")).expect("topology")
}

/// The grids the properties sweep: a crossbar topology (m = 2) and a
/// BCube-degenerate one (m = 1, no crossbars).
const GRIDS: [(u32, u32, u32); 2] = [(3, 2, 2), (2, 3, 3)];

/// Draws `count` (src, dst) server pairs from a seeded stream (the
/// vendored proptest stand-in has no collection strategies).
fn sample_pairs(servers: u64, seed: u64, count: usize) -> Vec<(NodeId, NodeId)> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (
                NodeId(rng.gen_range(0..servers) as u32),
                NodeId(rng.gen_range(0..servers) as u32),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Healthy plane: every batched answer equals
    /// `DigitRouter::shortest()`'s primary outcome — route, tier, attempts
    /// and backoff — at any shard count, with batch order preserved.
    #[test]
    fn healthy_batches_match_digit_router(
        which in 0usize..GRIDS.len(),
        shards in 1usize..5,
        pair_seed in any::<u64>(),
        count in 1usize..40,
    ) {
        let (n, k, h) = GRIDS[which];
        let t = topo(n, k, h);
        let pairs = sample_pairs(t.params().server_count(), pair_seed, count);
        let svc = RouteService::compile(topo(n, k, h), shards).expect("service");
        let digit = DigitRouter::shortest();
        let got = svc.query_batch(&pairs);
        prop_assert_eq!(got.len(), pairs.len());
        for (&(s, d), out) in pairs.iter().zip(&got) {
            let want = digit.route(&t, s, d, None);
            prop_assert_eq!(out, &want, "pair {} -> {}", s, d);
        }
    }

    /// Faulted plane: with a scenario-built mask installed, every answer —
    /// including errors — equals `ResilientRouter::route_explained` under
    /// the same mask and budget, at any shard count, and repeated queries
    /// (patch-cache hits) never drift.
    #[test]
    fn faulted_batches_match_resilient_router(
        which in 0usize..GRIDS.len(),
        shards in 1usize..5,
        scen_seed in 0u64..500,
        frac_milli in 0u64..250,
        pair_seed in any::<u64>(),
        count in 1usize..30,
    ) {
        let (n, k, h) = GRIDS[which];
        let t = topo(n, k, h);
        let pairs = sample_pairs(t.params().server_count(), pair_seed, count);
        let frac = frac_milli as f64 / 1000.0;
        let scenario = FaultScenario::seeded(scen_seed)
            .fail_servers_frac(frac)
            .fail_switches_frac(frac);
        let mask = scenario.build(t.network());

        let mut svc = RouteService::compile(topo(n, k, h), shards).expect("service");
        svc.apply_mask(mask.clone());
        let resilient = ResilientRouter::new(RetryBudget::default());

        for round in 0..2 {
            let got = svc.query_batch(&pairs);
            for (&(s, d), out) in pairs.iter().zip(&got) {
                let want = resilient.route_explained(&t, s, d, Some(&mask));
                prop_assert_eq!(out, &want, "round {} pair {} -> {}", round, s, d);
            }
        }
    }

    /// Sharding is invisible: 1-shard and N-shard services give identical
    /// answers for identical inputs, healthy and faulted, batch == single.
    #[test]
    fn shard_count_never_changes_an_answer(
        shards in 2usize..9,
        scen_seed in 0u64..200,
        pair_seed in any::<u64>(),
        count in 1usize..25,
    ) {
        let t = topo(3, 2, 2);
        let pairs = sample_pairs(t.params().server_count(), pair_seed, count);
        let scenario = FaultScenario::seeded(scen_seed).fail_servers_frac(0.1);

        let mut one = RouteService::compile(topo(3, 2, 2), 1).expect("service");
        let mut many = RouteService::compile(topo(3, 2, 2), shards).expect("service");
        prop_assert_eq!(one.shard_count(), 1);
        one.apply_scenario(&scenario);
        many.apply_scenario(&scenario);

        let a = one.query_batch(&pairs);
        let b = many.query_batch(&pairs);
        prop_assert_eq!(&a, &b);
        for (&(s, d), out) in pairs.iter().zip(&a) {
            prop_assert_eq!(&many.query(s, d), out);
        }
    }

    /// VLB from the table: `query_vlb` reproduces `VlbRouter::new(seed)`
    /// bit for bit — same per-pair RNG streams, routes, attempt counts and
    /// fault-obliviousness.
    #[test]
    fn vlb_queries_match_vlb_router(
        which in 0usize..GRIDS.len(),
        vlb_seed in 0u64..1000,
        scen_seed in 0u64..200,
        faulted in any::<bool>(),
        pair_seed in any::<u64>(),
        count in 1usize..25,
    ) {
        let (n, k, h) = GRIDS[which];
        let t = topo(n, k, h);
        let pairs = sample_pairs(t.params().server_count(), pair_seed, count);
        let mut svc = RouteService::compile(topo(n, k, h), 2).expect("service");
        let mask = faulted.then(|| {
            let m = FaultScenario::seeded(scen_seed)
                .fail_servers_frac(0.08)
                .build(t.network());
            svc.apply_mask(m.clone());
            m
        });
        let vlb = VlbRouter::new(vlb_seed);
        for &(s, d) in &pairs {
            let want = vlb.route(&t, s, d, mask.as_ref());
            prop_assert_eq!(svc.query_vlb(vlb_seed, s, d), want, "pair {} -> {}", s, d);
        }
    }

    /// Incremental invalidation: a service that accumulates faults
    /// mask-by-mask (warming patch caches along the way) answers exactly
    /// like a fresh service built directly on the final mask.
    #[test]
    fn accumulated_masks_match_a_fresh_service(
        scen_seed in 0u64..300,
        pair_seed in any::<u64>(),
        count in 1usize..25,
    ) {
        let t = topo(3, 2, 2);
        let pairs = sample_pairs(t.params().server_count(), pair_seed, count);

        // Three nested masks: each extends the previous failure set.
        let scenarios = [
            FaultScenario::seeded(scen_seed).fail_servers_frac(0.04),
            FaultScenario::seeded(scen_seed)
                .fail_servers_frac(0.04)
                .fail_switches_frac(0.08),
            FaultScenario::seeded(scen_seed)
                .fail_servers_frac(0.04)
                .fail_switches_frac(0.08)
                .fail_links_frac(0.05),
        ];
        let masks: Vec<_> = scenarios.iter().map(|s| s.build(t.network())).collect();
        prop_assert!(masks[1].covers(&masks[0]));
        prop_assert!(masks[2].covers(&masks[1]));

        let mut grown = RouteService::compile(topo(3, 2, 2), 4).expect("service");
        for m in &masks {
            let report = grown.apply_mask(m.clone());
            prop_assert!(report.incremental, "superset masks must patch incrementally");
            grown.query_batch(&pairs); // warm the patch caches between steps
        }
        let mut fresh = RouteService::compile(topo(3, 2, 2), 4).expect("service");
        fresh.apply_mask(masks[2].clone());
        prop_assert_eq!(grown.query_batch(&pairs), fresh.query_batch(&pairs));

        // A repair (dropping back to the first mask) is a full clear — and
        // still answers like a fresh service on that mask.
        let report = grown.apply_mask(masks[0].clone());
        prop_assert!(!report.incremental || masks[0].covers(&masks[2]));
        let mut fresh0 = RouteService::compile(topo(3, 2, 2), 4).expect("service");
        fresh0.apply_mask(masks[0].clone());
        prop_assert_eq!(grown.query_batch(&pairs), fresh0.query_batch(&pairs));
    }
}

/// A `Router` adapter over the compiled service, used to drive the
/// resilience campaign engine through `run_with`.
struct FibRouter {
    svc: Mutex<RouteService>,
}

impl FibRouter {
    fn new(topo: Abccc) -> Self {
        FibRouter {
            svc: Mutex::new(RouteService::compile(topo, 4).expect("service")),
        }
    }
}

impl Router for FibRouter {
    fn name(&self) -> String {
        // Mirror the router the service falls back to, so campaign reports
        // (which embed the router name) compare equal byte for byte.
        "resilient".to_string()
    }

    fn route(
        &self,
        _topo: &Abccc,
        src: NodeId,
        dst: NodeId,
        mask: Option<&netgraph::FaultMask>,
    ) -> Result<abccc::RouteOutcome, RouteError> {
        let mut svc = self.svc.lock().expect("service");
        match mask {
            None => {
                if svc.mask().is_some() {
                    svc.clear_faults();
                }
            }
            Some(m) => {
                if svc.mask() != Some(m) {
                    svc.apply_mask(m.clone());
                }
            }
        }
        svc.query(src, dst)
    }
}

/// The whole campaign engine, swapped onto the compiled data plane via
/// `run_with`, produces a byte-identical report to the on-demand
/// `ResilientRouter` campaign — sampling, fault schedules, tier counts,
/// stretch and throughput accounting included.
#[test]
fn campaign_on_compiled_plane_matches_on_demand_report() {
    use dcn_resilience::{CampaignConfig, RouterSpec, ScenarioKind};

    let params = AbcccParams::new(3, 2, 2).expect("params");
    let config = CampaignConfig::new()
        .scenario(ScenarioKind::Uniform {
            server_rate: 0.06,
            switch_rate: 0.06,
            link_rate: 0.0,
        })
        .router(RouterSpec::Resilient(RetryBudget::default()))
        .trials(3)
        .pairs_per_trial(24)
        .seed(17);

    let t = Abccc::new(params).expect("topology");
    let on_demand = config.run_on(&t).expect("campaign");
    let compiled = config
        .run_with(&t, &|| {
            Box::new(FibRouter::new(Abccc::new(params).expect("topology")))
        })
        .expect("campaign");
    assert_eq!(on_demand, compiled);
    assert_eq!(
        serde_json::to_string_pretty(&on_demand).expect("serialize"),
        serde_json::to_string_pretty(&compiled).expect("serialize"),
    );
}
