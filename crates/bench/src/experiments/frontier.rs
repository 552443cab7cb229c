//! The scale-frontier experiment: what breaks first as ABCCC instances
//! grow, and what the O(V·levels) machinery buys.
//!
//! Each grid point builds one instance through the streaming CSR path and
//! measures both sides of the O(V²) wall:
//!
//! * **Forwarding table** — compile the hierarchical digit-structured
//!   table, check its walks on sampled pairs against the on-demand
//!   `DigitRouter` (every row carries a verified `routes_match` flag),
//!   and record its size against the `4·N²` bytes a dense
//!   `(src, dst)` table would need.
//! * **Graph metrics** — sampled diameter/APL (seeded source sampling,
//!   byte-identical at any thread count) plus seeded bisection probing;
//!   on instances below the exact-feasibility cap the exact
//!   `DistanceEngine` sweep runs too and the row records the absolute
//!   APL error and whether the reported CI brackets the truth.
//!
//! Wall-clock (compile ms, lookup ns) appears only in the stdout table —
//! the JSON artifact stays byte-identical across runs and thread counts.

use super::titled;
use crate::fmt_f;
use crate::registry::{Experiment, PointCtx, PointSpec, Preset, Row};
use abccc::{Abccc, AbcccParams, DigitRouter};
use dcn_fib::compile_shortest;
use netgraph::{DistanceEngine, NodeId, Topology};
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;

/// The deterministic slice of a frontier row.
#[derive(Serialize)]
struct FrontierRow {
    config: String,
    servers: u64,
    nodes: usize,
    links: usize,
    /// What a dense `(src, dst)` table would occupy: `4·N²` (the wall
    /// itself).
    dense_bytes_predicted: u64,
    hier_bytes: u64,
    /// `dense_bytes_predicted / hier_bytes` — how far past the wall the
    /// hierarchical layout reaches.
    bytes_ratio: f64,
    lookup_pairs: usize,
    /// Hier walks verified bit-identical against the on-demand digit
    /// router.
    routes_match: bool,
    total_link_hops: u64,
    samples: usize,
    sampled_diameter_lb: u32,
    sampled_apl: f64,
    sampled_apl_ci95: f64,
    bisection_trials: usize,
    sampled_bisection_cut: u64,
    /// Whether the exact all-pairs sweep ran (skipped past the cap).
    exact_feasible: bool,
    exact_diameter: u32,
    exact_apl: f64,
    apl_abs_err: f64,
    apl_within_ci: bool,
}

/// Hier FIB size and speed and exact-vs-sampled metrics across the size
/// sweep.
pub struct ScaleFrontier;

impl ScaleFrontier {
    fn grid(preset: Preset) -> Vec<(u32, u32, u32)> {
        match preset {
            // Everything exact-feasible: the cross-validation points.
            Preset::Tiny => vec![(2, 2, 2), (3, 2, 2)],
            // Up to ~1.5k servers: exact still runs.
            Preset::Paper => vec![(3, 2, 2), (4, 2, 2), (4, 3, 2), (8, 2, 2)],
            // Past the wall: 131 072 servers — hier + sampled only.
            Preset::Scale => {
                let mut g = Self::grid(Preset::Paper);
                g.push((16, 3, 3));
                g
            }
        }
    }

    /// Exact all-pairs sweep only below this server count.
    const EXACT_CAP: u64 = 2048;
    const SAMPLES: usize = 64;
    const BISECTION_TRIALS: usize = 4;

    fn lookup_pairs(preset: Preset) -> usize {
        match preset {
            Preset::Tiny => 512,
            Preset::Paper | Preset::Scale => 4096,
        }
    }
}

impl Experiment for ScaleFrontier {
    fn name(&self) -> &'static str {
        "scale_frontier"
    }
    fn paper_ref(&self) -> &'static str {
        "Scale frontier"
    }
    fn summary(&self) -> &'static str {
        "hierarchical FIB memory/time vs the dense 4·N² wall and exact vs sampled metrics across the size sweep"
    }
    fn title(&self, preset: Preset) -> String {
        titled(
            "Scale frontier: hier FIB vs dense 4·N², exact vs sampled metrics",
            preset,
        )
    }
    fn headers(&self) -> &'static [&'static str] {
        &[
            "config",
            "servers",
            "4·N² MiB",
            "hier KiB",
            "ratio",
            "hier ms",
            "hier ns/lkp",
            "D̂ (lb) / D",
            "APL̂ ± ci (err)",
        ]
    }
    fn base_seed(&self) -> Option<u64> {
        Some(33)
    }
    fn manifest_params(&self, preset: Preset) -> Vec<(&'static str, String)> {
        vec![
            ("exact_cap", Self::EXACT_CAP.to_string()),
            ("samples", Self::SAMPLES.to_string()),
            ("bisection_trials", Self::BISECTION_TRIALS.to_string()),
            ("lookup_pairs", Self::lookup_pairs(preset).to_string()),
        ]
    }
    // Fresh topologies per point: streamed construction is part of what the
    // point demonstrates, and the scale instance should drop immediately.
    fn points(&self, preset: Preset) -> Vec<PointSpec> {
        Self::grid(preset)
            .into_iter()
            .map(|(n, k, h)| PointSpec::pure(format!("ABCCC({n},{k},{h})")))
            .collect()
    }
    fn run_point(&self, ctx: &PointCtx<'_>) -> Result<Vec<Row>, String> {
        let (n, k, h) = Self::grid(ctx.preset)[ctx.index];
        let p = AbcccParams::new(n, k, h).map_err(|e| e.to_string())?;
        let topo = Abccc::new(p).map_err(|e| format!("{p}: {e}"))?;
        let net = topo.network();
        let servers = p.server_count();

        // --- Forwarding table -------------------------------------------
        let t0 = Instant::now();
        let hier = compile_shortest(&topo).map_err(|e| format!("{p}: {e}"))?;
        let hier_ms = t0.elapsed().as_secs_f64() * 1e3;
        let dense_bytes_predicted = servers * servers * 4;

        let mut rng = rand::rngs::StdRng::seed_from_u64(ctx.seed);
        let pairs: Vec<(NodeId, NodeId)> = (0..Self::lookup_pairs(ctx.preset))
            .map(|_| {
                (
                    NodeId(rng.gen_range(0..servers) as u32),
                    NodeId(rng.gen_range(0..servers) as u32),
                )
            })
            .collect();

        // Hier lookups: total hops is deterministic, the ns/lookup is not.
        let t2 = Instant::now();
        let mut total_link_hops = 0u64;
        let mut buf = Vec::with_capacity(32);
        for &(s, d) in &pairs {
            buf.clear();
            hier.walk_into(net, s, d, &mut buf);
            total_link_hops += (buf.len() as u64).saturating_sub(1);
        }
        let hier_ns = t2.elapsed().as_nanos() as f64 / pairs.len() as f64;

        // Verify hier against the on-demand router — every row carries a
        // checked equivalence flag.
        let digit = DigitRouter::shortest();
        let routes_match = pairs.iter().all(|&(s, d)| {
            digit
                .route_ids(&p, s, d)
                .map(|r| r == hier.route(net, s, d))
                .unwrap_or(false)
        });
        if !routes_match {
            return Err(format!("{p}: hier FIB diverged from the reference routes"));
        }

        // --- Metrics -----------------------------------------------------
        let sampled = netgraph::sample::sampled_server_metrics(net, Self::SAMPLES, ctx.seed)
            .ok_or_else(|| format!("{p}: sampled metrics unavailable"))?;
        let bisection = netgraph::sample::sampled_bisection(net, Self::BISECTION_TRIALS, ctx.seed)
            .ok_or_else(|| format!("{p}: sampled bisection unavailable"))?;

        let exact = if servers <= Self::EXACT_CAP {
            Some(
                DistanceEngine::new(net)
                    .all_pairs()
                    .ok_or_else(|| format!("{p}: disconnected"))?,
            )
        } else {
            None
        };
        let (exact_diameter, exact_apl, apl_abs_err, apl_within_ci) = match &exact {
            Some(e) => (
                e.diameter,
                e.avg_path_length,
                (sampled.apl.mean - e.avg_path_length).abs(),
                sampled.apl.brackets(e.avg_path_length),
            ),
            None => (0, 0.0, 0.0, true),
        };
        if exact.is_some() {
            if sampled.diameter_lb > exact_diameter {
                return Err(format!(
                    "{p}: sampled diameter {} exceeds exact {exact_diameter}",
                    sampled.diameter_lb
                ));
            }
            if !apl_within_ci {
                return Err(format!(
                    "{p}: exact APL {exact_apl} outside sampled CI {} ± {}",
                    sampled.apl.mean, sampled.apl.ci95
                ));
            }
        }

        let hier_bytes = hier.bytes() as u64;
        let row = FrontierRow {
            config: p.to_string(),
            servers,
            nodes: net.node_count(),
            links: net.link_count(),
            dense_bytes_predicted,
            hier_bytes,
            bytes_ratio: dense_bytes_predicted as f64 / hier_bytes as f64,
            lookup_pairs: pairs.len(),
            routes_match,
            total_link_hops,
            samples: sampled.apl.samples,
            sampled_diameter_lb: sampled.diameter_lb,
            sampled_apl: sampled.apl.mean,
            sampled_apl_ci95: sampled.apl.ci95,
            bisection_trials: bisection.trials,
            sampled_bisection_cut: bisection.min_cut,
            exact_feasible: exact.is_some(),
            exact_diameter,
            exact_apl,
            apl_abs_err,
            apl_within_ci,
        };
        let diameter_cell = match &exact {
            Some(e) => format!("{} / {}", row.sampled_diameter_lb, e.diameter),
            None => format!("{} / -", row.sampled_diameter_lb),
        };
        let apl_cell = match &exact {
            Some(_) => format!(
                "{} ± {} ({})",
                fmt_f(row.sampled_apl, 3),
                fmt_f(row.sampled_apl_ci95, 3),
                fmt_f(row.apl_abs_err, 3)
            ),
            None => format!(
                "{} ± {}",
                fmt_f(row.sampled_apl, 3),
                fmt_f(row.sampled_apl_ci95, 3)
            ),
        };
        Ok(vec![Row::one(
            vec![
                row.config.clone(),
                row.servers.to_string(),
                fmt_f(row.dense_bytes_predicted as f64 / (1024.0 * 1024.0), 1),
                fmt_f(row.hier_bytes as f64 / 1024.0, 1),
                fmt_f(row.bytes_ratio, 0),
                fmt_f(hier_ms, 2),
                fmt_f(hier_ns, 0),
                diameter_cell,
                apl_cell,
            ],
            &row,
        )])
    }
}
