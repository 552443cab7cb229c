//! Fault experiments: Figures 7, 16 and 17 — uniform failure sweeps,
//! correlated outages, and adversarial traffic with VLB insurance, all on
//! the seeded resilience campaign engine / unified `Router` surface.

use super::titled;
use crate::cache::TopoKey;
use crate::fmt_f;
use crate::registry::{Experiment, PointCtx, PointSpec, Preset, Row};
use abccc::{Abccc, AbcccParams, PermStrategy, ResilientRouter, Router};
use dcn_resilience::{CampaignConfig, PairSampling, RouterSpec, ScenarioKind};
use dcn_workloads::correlated;
use netgraph::{FaultMask, NodeId, Topology};
use rand::{Rng, SeedableRng};
use serde::Serialize;

fn e(err: impl std::fmt::Display) -> String {
    err.to_string()
}

// ---------------------------------------------------------------- Figure 7

#[derive(Serialize)]
struct FaultPoint {
    structure: String,
    class: String,
    rate: f64,
    success_ratio: f64,
    connectivity_ceiling: f64,
    mean_stretch: f64,
    mean_hops_survivors: f64,
    throughput_retention: f64,
    bfs_fallback_share: f64,
}

/// **Figure 7** — routing under growing uniform failure rates.
pub struct Fig7Faults;

struct Fig7Cfg {
    k: u32,
    hs: Vec<u32>,
    rates: Vec<f64>,
    trials: usize,
    pairs: usize,
}

impl Fig7Faults {
    fn cfg(preset: Preset) -> Fig7Cfg {
        match preset {
            Preset::Tiny => Fig7Cfg {
                k: 1,
                hs: vec![2],
                rates: vec![0.0, 0.10],
                trials: 2,
                pairs: 50,
            },
            Preset::Paper => Fig7Cfg {
                k: 2,
                hs: vec![2, 3],
                rates: vec![0.0, 0.05, 0.10, 0.15, 0.20],
                trials: 5,
                pairs: 200,
            },
            Preset::Scale => Fig7Cfg {
                k: 2,
                hs: vec![2, 3, 4],
                rates: vec![0.0, 0.05, 0.10, 0.15, 0.20, 0.30],
                trials: 5,
                pairs: 400,
            },
        }
    }

    /// `(h, failed-class, rate)` in the historical row order: per `h`, all
    /// server-failure rates then all switch-failure rates.
    fn grid(preset: Preset) -> Vec<(u32, &'static str, f64)> {
        let cfg = Self::cfg(preset);
        let mut g = Vec::new();
        for &h in &cfg.hs {
            for class in ["servers", "switches"] {
                for &rate in &cfg.rates {
                    g.push((h, class, rate));
                }
            }
        }
        g
    }
}

impl Experiment for Fig7Faults {
    fn name(&self) -> &'static str {
        "fig7_faults"
    }
    fn paper_ref(&self) -> &'static str {
        "Figure 7"
    }
    fn summary(&self) -> &'static str {
        "fault sweeps: success ratio, stretch and throughput retention vs failure rate"
    }
    fn title(&self, preset: Preset) -> String {
        let cfg = Self::cfg(preset);
        titled(
            &format!(
                "Figure 7: routing under failures ({} trials × {} pairs per point)",
                cfg.trials, cfg.pairs
            ),
            preset,
        )
    }
    fn headers(&self) -> &'static [&'static str] {
        &[
            "structure",
            "failed class",
            "rate",
            "success",
            "conn ceiling",
            "stretch",
            "mean hops",
            "tput ret",
        ]
    }
    fn footer(&self, _preset: Preset) -> Vec<String> {
        vec![
            "(shape: success tracks the connectivity ceiling — the retry ladder".into(),
            " finds a path whenever one exists; stretch and throughput degrade".into(),
            " gracefully as the failure rate grows)".into(),
        ]
    }
    fn base_seed(&self) -> Option<u64> {
        Some(0xFA)
    }
    // The historical binary seeded every campaign from its failure rate
    // alone; keep that to preserve the published numbers exactly.
    fn point_seed(&self, preset: Preset, index: usize) -> u64 {
        let (_, _, rate) = Self::grid(preset)[index];
        (rate * 1000.0) as u64 ^ 0xFA
    }
    fn manifest_params(&self, preset: Preset) -> Vec<(&'static str, String)> {
        let cfg = Self::cfg(preset);
        vec![
            ("n", "4".into()),
            ("k", cfg.k.to_string()),
            (
                "h",
                cfg.hs
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
            ("trials", cfg.trials.to_string()),
            ("pairs_per_trial", cfg.pairs.to_string()),
            (
                "rates",
                format!(
                    "{:.2}..{:.2}",
                    cfg.rates.first().copied().unwrap_or(0.0),
                    cfg.rates.last().copied().unwrap_or(0.0)
                ),
            ),
            ("engine", "resilience campaign".into()),
            ("seed_scheme", "(rate*1000) ^ 0xFA".into()),
        ]
    }
    fn points(&self, preset: Preset) -> Vec<PointSpec> {
        let k = Self::cfg(preset).k;
        Self::grid(preset)
            .into_iter()
            .map(|(h, class, rate)| {
                PointSpec::on(
                    format!("ABCCC(4,{k},{h}) {class} rate={rate:.2}"),
                    TopoKey::abccc(4, k, h),
                )
            })
            .collect()
    }
    fn run_point(&self, ctx: &PointCtx<'_>) -> Result<Vec<Row>, String> {
        let cfg = Self::cfg(ctx.preset);
        let (h, class, rate) = Self::grid(ctx.preset)[ctx.index];
        let t = ctx.abccc(4, cfg.k, h)?;
        let topo = t.abccc().ok_or("non-ABCCC cache entry")?;
        let scenario = match class {
            "servers" => ScenarioKind::Uniform {
                server_rate: rate,
                switch_rate: 0.0,
                link_rate: 0.0,
            },
            _ => ScenarioKind::Uniform {
                server_rate: 0.0,
                switch_rate: rate,
                link_rate: 0.0,
            },
        };
        let report = CampaignConfig::new()
            .scenario(scenario)
            .sampling(PairSampling::UniformRandom { pairs: cfg.pairs })
            .trials(cfg.trials)
            // The engine already runs points in parallel; a nested pool
            // would make the trace's lane count depend on scheduling.
            .threads(1)
            .seed(ctx.seed)
            .run_on(topo)
            .map_err(e)?;
        let s = &report.summary;
        let point = FaultPoint {
            structure: report.topology.clone(),
            class: class.to_string(),
            rate,
            success_ratio: s.route_completion,
            connectivity_ceiling: s.connectivity_fraction,
            mean_stretch: s.mean_stretch,
            mean_hops_survivors: report
                .trials
                .iter()
                .map(|t| t.mean_hops / report.trials.len() as f64)
                .sum(),
            throughput_retention: s.throughput_retention,
            bfs_fallback_share: if s.routed == 0 {
                0.0
            } else {
                s.tier_counts.bfs as f64 / s.routed as f64
            },
        };
        Ok(vec![Row::one(
            vec![
                point.structure.clone(),
                point.class.clone(),
                fmt_f(point.rate, 2),
                fmt_f(point.success_ratio, 4),
                fmt_f(point.connectivity_ceiling, 4),
                fmt_f(point.mean_stretch, 3),
                fmt_f(point.mean_hops_survivors, 2),
                fmt_f(point.throughput_retention, 3),
            ],
            &point,
        )])
    }
}

// ---------------------------------------------------------------- Figure 16

#[derive(Serialize)]
struct CorrelatedRow {
    structure: String,
    scenario: String,
    failed_nodes: usize,
    failed_links: usize,
    largest_component: f64,
    routing_success: f64,
}

/// **Figure 16** — correlated outages: rack loss, level outage, bundle cut.
pub struct Fig16Correlated;

struct Fig16Cfg {
    configs: Vec<(u32, u32, u32)>,
    racks: usize,
    bundle: usize,
    pairs: usize,
}

impl Fig16Correlated {
    fn cfg(preset: Preset) -> Fig16Cfg {
        match preset {
            Preset::Tiny => Fig16Cfg {
                configs: vec![(4, 1, 2)],
                racks: 2,
                bundle: 8,
                pairs: 100,
            },
            Preset::Paper => Fig16Cfg {
                configs: vec![(4, 2, 2), (4, 2, 3)],
                racks: 4,
                bundle: 32,
                pairs: 400,
            },
            Preset::Scale => Fig16Cfg {
                configs: vec![(4, 2, 2), (4, 2, 3), (4, 2, 4)],
                racks: 4,
                bundle: 32,
                pairs: 400,
            },
        }
    }

    fn evaluate(
        topo: &Abccc,
        scenario: &str,
        mask: &FaultMask,
        pairs: usize,
    ) -> Result<Row, String> {
        let net = topo.network();
        let frac = netgraph::connectivity::largest_component_server_fraction(net, Some(mask));
        let alive: Vec<NodeId> = net.server_ids().filter(|&s| mask.node_alive(s)).collect();
        if alive.is_empty() {
            return Err(format!("{}: no servers survive `{scenario}`", topo.name()));
        }
        let router = ResilientRouter::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FF);
        let mut ok = 0usize;
        let mut total = 0usize;
        for _ in 0..pairs {
            let s = alive[rng.gen_range(0..alive.len())];
            let d = alive[rng.gen_range(0..alive.len())];
            if s == d {
                continue;
            }
            total += 1;
            if router.route(topo, s, d, Some(mask)).is_ok() {
                ok += 1;
            }
        }
        let row = CorrelatedRow {
            structure: topo.name(),
            scenario: scenario.to_string(),
            failed_nodes: mask.failed_node_count(),
            failed_links: mask.failed_link_count(),
            largest_component: frac,
            routing_success: ok as f64 / total as f64,
        };
        Ok(Row::one(
            vec![
                row.structure.clone(),
                row.scenario.clone(),
                row.failed_nodes.to_string(),
                row.failed_links.to_string(),
                fmt_f(row.largest_component, 3),
                fmt_f(row.routing_success, 3),
            ],
            &row,
        ))
    }
}

impl Experiment for Fig16Correlated {
    fn name(&self) -> &'static str {
        "fig16_correlated"
    }
    fn paper_ref(&self) -> &'static str {
        "Figure 16"
    }
    fn summary(&self) -> &'static str {
        "correlated outages: rack loss, level firmware outage, cable-bundle cut"
    }
    fn title(&self, preset: Preset) -> String {
        titled(
            &format!(
                "Figure 16: correlated outages ({} alive pairs per scenario)",
                Self::cfg(preset).pairs
            ),
            preset,
        )
    }
    fn headers(&self) -> &'static [&'static str] {
        &[
            "structure",
            "scenario",
            "nodes down",
            "links down",
            "largest comp",
            "route success",
        ]
    }
    fn footer(&self, _preset: Preset) -> Vec<String> {
        vec![
            "(shape: rack losses and bundle cuts are absorbed — success tracks the".into(),
            " surviving component. A whole-level outage is the Achilles heel: the cube".into(),
            " partitions into n components, so deployments must diversify per level)".into(),
        ]
    }
    fn base_seed(&self) -> Option<u64> {
        Some(0xFEE1)
    }
    // The historical binary drew all three scenario masks per config from
    // one 0xFEE1 stream; one point per config with that seed preserves the
    // published numbers exactly.
    fn point_seed(&self, _preset: Preset, _index: usize) -> u64 {
        0xFEE1
    }
    fn manifest_params(&self, preset: Preset) -> Vec<(&'static str, String)> {
        let cfg = Self::cfg(preset);
        vec![
            ("n", "4".into()),
            ("k", cfg.configs[0].1.to_string()),
            (
                "h",
                cfg.configs
                    .iter()
                    .map(|c| c.2.to_string())
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
            ("pairs_per_scenario", cfg.pairs.to_string()),
        ]
    }
    fn points(&self, preset: Preset) -> Vec<PointSpec> {
        Self::cfg(preset)
            .configs
            .into_iter()
            .map(|(n, k, h)| {
                let key = TopoKey::abccc(n, k, h);
                PointSpec::on(key.label(), key)
            })
            .collect()
    }
    fn run_point(&self, ctx: &PointCtx<'_>) -> Result<Vec<Row>, String> {
        let cfg = Self::cfg(ctx.preset);
        let (n, k, h) = cfg.configs[ctx.index];
        let p = AbcccParams::new(n, k, h).map_err(e)?;
        let t = ctx.abccc(n, k, h)?;
        let topo = t.abccc().ok_or("non-ABCCC cache entry")?;
        let net = topo.network();
        let mut rng = rand::rngs::StdRng::seed_from_u64(ctx.seed);
        let scenarios = [
            (
                format!("{} racks lost", cfg.racks),
                correlated::fail_abccc_groups(&p, net, cfg.racks, &mut rng),
            ),
            (
                "level-1 firmware outage".to_string(),
                correlated::fail_abccc_level(&p, net, 1),
            ),
            (
                format!("{}-cable bundle cut", cfg.bundle),
                correlated::fail_cable_bundle(net, cfg.bundle, &mut rng),
            ),
        ];
        scenarios
            .iter()
            .map(|(label, mask)| Self::evaluate(topo, label, mask, cfg.pairs))
            .collect()
    }
}

// ---------------------------------------------------------------- Figure 17

#[derive(Serialize)]
struct AdversarialRow {
    structure: String,
    pattern: String,
    router: String,
    aggregate: f64,
    min_rate: f64,
    mean_hops: f64,
    completion_under_faults: f64,
}

const FIG17_SEED: u64 = 0xAD7;
const FIG17_FAULT_RATE: f64 = 0.05;

/// **Figure 17** — adversarial traffic: deterministic vs VLB routing.
pub struct Fig17Adversarial;

struct Fig17Cfg {
    k: u32,
    hs: Vec<u32>,
    faulted_trials: usize,
}

impl Fig17Adversarial {
    fn cfg(preset: Preset) -> Fig17Cfg {
        match preset {
            Preset::Tiny => Fig17Cfg {
                k: 1,
                hs: vec![2],
                faulted_trials: 2,
            },
            Preset::Paper => Fig17Cfg {
                k: 2,
                hs: vec![2, 3],
                faulted_trials: 3,
            },
            Preset::Scale => Fig17Cfg {
                k: 2,
                hs: vec![2, 3, 4],
                faulted_trials: 3,
            },
        }
    }

    /// `(h, pattern-label, sampling, router-label, router)` in the
    /// historical row order.
    fn grid(preset: Preset) -> Vec<(u32, &'static str, PairSampling, &'static str, RouterSpec)> {
        let cfg = Self::cfg(preset);
        let mut g = Vec::new();
        for &h in &cfg.hs {
            for (pattern, sampling) in [
                ("convergent", PairSampling::Convergent),
                ("random perm", PairSampling::Permutation),
            ] {
                g.push((
                    h,
                    pattern,
                    sampling,
                    "direct",
                    RouterSpec::Digit(PermStrategy::DestinationAware),
                ));
                g.push((
                    h,
                    pattern,
                    sampling,
                    "VLB",
                    RouterSpec::Vlb { seed: FIG17_SEED },
                ));
            }
        }
        g
    }
}

impl Experiment for Fig17Adversarial {
    fn name(&self) -> &'static str {
        "fig17_adversarial"
    }
    fn paper_ref(&self) -> &'static str {
        "Figure 17"
    }
    fn summary(&self) -> &'static str {
        "adversarial convergent traffic: deterministic routing vs VLB insurance"
    }
    fn title(&self, preset: Preset) -> String {
        titled(
            "Figure 17: adversarial traffic — deterministic vs VLB routing",
            preset,
        )
    }
    fn headers(&self) -> &'static [&'static str] {
        &[
            "structure",
            "pattern",
            "router",
            "aggregate Gbps",
            "min rate",
            "mean hops",
            "completion@5%",
        ]
    }
    fn footer(&self, _preset: Preset) -> Vec<String> {
        vec![
            "(shape: VLB is pattern-OBLIVIOUS — its rates are nearly identical on".into(),
            " the crafted and the random pattern, unlike direct routing whose".into(),
            " aggregate collapses between them; the price is ~2× hops and roughly".into(),
            " halved aggregate, the textbook Valiant capacity factor. Use VLB as".into(),
            " insurance against worst-case patterns, not as the default)".into(),
        ]
    }
    fn base_seed(&self) -> Option<u64> {
        Some(FIG17_SEED)
    }
    // The historical binary seeded every campaign with the same constant;
    // keep that to preserve the published numbers exactly.
    fn point_seed(&self, _preset: Preset, _index: usize) -> u64 {
        FIG17_SEED
    }
    fn manifest_params(&self, preset: Preset) -> Vec<(&'static str, String)> {
        let cfg = Self::cfg(preset);
        vec![
            ("n", "4".into()),
            ("k", cfg.k.to_string()),
            (
                "h",
                cfg.hs
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
            ("patterns", "convergent random-perm".into()),
            ("engine", "resilience campaign".into()),
            ("fault_rate", fmt_f(FIG17_FAULT_RATE, 2)),
        ]
    }
    fn points(&self, preset: Preset) -> Vec<PointSpec> {
        let k = Self::cfg(preset).k;
        Self::grid(preset)
            .into_iter()
            .map(|(h, pattern, _, router, _)| {
                PointSpec::on(
                    format!("ABCCC(4,{k},{h}) {pattern} {router}"),
                    TopoKey::abccc(4, k, h),
                )
            })
            .collect()
    }
    fn run_point(&self, ctx: &PointCtx<'_>) -> Result<Vec<Row>, String> {
        let cfg = Self::cfg(ctx.preset);
        let (h, pattern, sampling, router_label, router) = Self::grid(ctx.preset)[ctx.index];
        let t = ctx.abccc(4, cfg.k, h)?;
        let topo = t.abccc().ok_or("non-ABCCC cache entry")?;
        let campaign = |switch_rate: f64, trials: usize| {
            CampaignConfig::new()
                .scenario(ScenarioKind::Uniform {
                    server_rate: 0.0,
                    switch_rate,
                    link_rate: 0.0,
                })
                .sampling(sampling)
                .router(router)
                .seed(ctx.seed)
                .trials(trials)
                .threads(1)
                .run_on(topo)
                .map_err(e)
        };
        // Fault-free pass: the classic figure-17 numbers.
        let clean = campaign(0.0, 1)?;
        // Faulted pass: how many pairs the fault-oblivious router still
        // completes.
        let faulted = campaign(FIG17_FAULT_RATE, cfg.faulted_trials)?;
        let t0 = &clean.trials[0];
        let row = AdversarialRow {
            structure: clean.topology.clone(),
            pattern: pattern.into(),
            router: router_label.into(),
            aggregate: t0.aggregate_rate,
            min_rate: t0.min_rate,
            mean_hops: t0.mean_hops,
            completion_under_faults: faulted.summary.route_completion,
        };
        Ok(vec![Row::one(
            vec![
                row.structure.clone(),
                row.pattern.clone(),
                row.router.clone(),
                fmt_f(row.aggregate, 1),
                fmt_f(row.min_rate, 3),
                fmt_f(row.mean_hops, 2),
                fmt_f(row.completion_under_faults, 3),
            ],
            &row,
        )])
    }
}
