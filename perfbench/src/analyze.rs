//! The `analyze` workload: the offline pipeline, with no serving at all.
//! One pass is the structural report (`TopologyStats::measure`, one fused
//! all-pairs sweep) followed by a `TrafficEngine` batch over seeded
//! catalog scenarios: diurnal load at fluid fidelity, incast at packet
//! fidelity, and storage rebuilds whose server death fires mid-flow.

use crate::fingerprint::nproc;
use crate::report::Outcome;
use crate::stats::{median, timed};
use abccc::{Abccc, AbcccParams};
use dcn_metrics::TopologyStats;
use dcn_sim::{max_min_allocation, DirectedLink, Fidelity, Scenario, TrafficEngine};
use dcn_workloads::scenarios;
use netgraph::sample::sampled_server_metrics;
use netgraph::{BfsScratch, DistanceEngine, Topology};

/// Size of the analysis pipeline.
#[derive(Debug, Clone)]
pub struct AnalyzeSizes {
    /// ABCCC parameters `(n, k, h)`.
    pub params: (u32, u32, u32),
    /// Diurnal scenarios per pass, and flows in each.
    pub diurnal: (usize, usize),
    /// Incast scenarios per pass, fan-in, and bytes per source.
    pub incast: (usize, usize, u64),
    /// Storage-rebuild scenarios per pass, background flows, rebuild
    /// sources, and rebuild bytes.
    pub rebuild: (usize, usize, usize, u64),
    /// Set-ups timed after each untraced pass.
    pub setup_reps: usize,
    /// Sources of the single-thread BFS measurement (traced run).
    pub bfs_sources: usize,
    /// Sources of the sampled APL estimate the exact APL must fall in.
    pub apl_samples: usize,
}

impl AnalyzeSizes {
    /// `analyze`: ABCCC(8,3,3), 8192 servers.
    pub fn standard() -> AnalyzeSizes {
        AnalyzeSizes {
            params: (8, 3, 3),
            diurnal: (4, 500),
            incast: (2, 32, 8_000_000),
            rebuild: (2, 512, 32, 256_000),
            setup_reps: 8,
            bfs_sources: 256,
            apl_samples: 32,
        }
    }
}

/// Diurnal load window (ns): the catalog default.
const DIURNAL_WINDOW_NS: u64 = 2_000_000;

/// The pass's scenario batch, in a fixed order: diurnal, incast, rebuild.
fn scenarios(sizes: &AnalyzeSizes, servers: usize, seed: u64) -> Vec<Scenario> {
    let sub = |kind: u64, i: usize| dcn_sim::mix_seed(seed, kind << 16 | i as u64);
    let mut out = Vec::new();
    for i in 0..sizes.diurnal.0 {
        out.push(scenarios::diurnal(
            servers,
            sizes.diurnal.1,
            DIURNAL_WINDOW_NS,
            sub(1, i),
            Fidelity::Fluid,
        ));
    }
    for i in 0..sizes.incast.0 {
        out.push(scenarios::incast(
            servers,
            sizes.incast.1,
            sizes.incast.2,
            sub(2, i),
            Fidelity::packet_aimd(),
        ));
    }
    let (count, background, sources, bytes) = sizes.rebuild;
    for i in 0..count {
        out.push(scenarios::storage_rebuild(
            servers,
            background,
            sources,
            bytes,
            sub(3, i),
            Fidelity::Fluid,
        ));
    }
    out
}

fn build(sizes: &AnalyzeSizes) -> Result<Abccc, String> {
    let (n, k, h) = sizes.params;
    let params = AbcccParams::new(n, k, h).map_err(|e| e.to_string())?;
    Abccc::new(params).map_err(|e| e.to_string())
}

/// Set-up timings: the kept topology's, then `setup_reps` more after each
/// untraced pass, so their median samples the host across the whole run
/// rather than during one burst at its start.
#[derive(Default)]
struct SetupTimes {
    total_s: Vec<f64>,
    build_s: Vec<f64>,
}

/// Times one set-up: topology build and its CSR adjacency.
fn set_up(sizes: &AnalyzeSizes, times: &mut SetupTimes) -> Result<Abccc, String> {
    let t = std::time::Instant::now();
    let (build_s, topo) = timed(|| build(sizes));
    let topo = topo?;
    drop(DistanceEngine::new(topo.network()));
    times.total_s.push(t.elapsed().as_secs_f64());
    times.build_s.push(build_s);
    Ok(topo)
}

/// One pass's timings and outputs.
struct Pass {
    props_s: f64,
    /// Scenario generation plus the batch run.
    sim_s: f64,
    gen_s: f64,
    stats: TopologyStats,
    reports: Vec<dcn_sim::ScenarioReport>,
}

fn pass(sizes: &AnalyzeSizes, topo: &Abccc, seed: u64) -> Result<Pass, String> {
    let (props_s, stats) = timed(|| TopologyStats::measure(topo));
    let engine = TrafficEngine::new(topo);
    let servers = topo.network().server_count();
    let t = std::time::Instant::now();
    let batch = scenarios(sizes, servers, seed);
    let gen_s = t.elapsed().as_secs_f64();
    // One worker per core: a single worker's speed follows whatever else
    // shares its core, and its batch times spread two to four times wider
    // from run to run than those of a batch spread over every core.
    let reports = engine.run_batch(&batch, nproc());
    Ok(Pass {
        props_s,
        sim_s: t.elapsed().as_secs_f64(),
        gen_s,
        stats,
        reports: reports.map_err(|e| e.to_string())?,
    })
}

/// Runs passes until `seconds` have been spent (at least two), checking
/// each pass's outputs and, given `setup`, timing more set-ups after each.
fn passes(
    sizes: &AnalyzeSizes,
    topo: &Abccc,
    seed: u64,
    seconds: f64,
    check: &mut impl FnMut(&Pass) -> bool,
    mut setup: Option<&mut SetupTimes>,
) -> Result<(Vec<Pass>, bool), String> {
    let mut done = Vec::new();
    let mut spent = 0.0;
    let mut ok = true;
    while done.len() < 2 || spent < seconds {
        let p = pass(sizes, topo, seed)?;
        spent += p.props_s + p.sim_s;
        ok &= check(&p);
        if let Some(times) = setup.as_deref_mut() {
            for _ in 0..sizes.setup_reps {
                set_up(sizes, times)?;
            }
        }
        // Keep only timings: reports of later passes are compared, not
        // stored.
        done.push(Pass {
            reports: Vec::new(),
            ..p
        });
    }
    Ok((done, ok))
}

/// Runs the analyze workload; see [`crate::serve::run`] for the contract.
///
/// # Errors
///
/// Bad parameters or an engine failure.
pub fn run(
    sizes: &AnalyzeSizes,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut setup = SetupTimes::default();
    let topo = set_up(sizes, &mut setup)?;

    // Correctness references, computed outside the timed phase.
    let net = topo.network();
    let diameter = topo.params().diameter();
    let sampled = sampled_server_metrics(net, sizes.apl_samples, seed)
        .ok_or("sampled metrics need a connected topology with two servers")?;
    let mut first: Option<Vec<dcn_sim::ScenarioReport>> = None;
    let mut notes = Vec::new();
    let mut check = |p: &Pass| -> bool {
        let mut ok = true;
        if p.stats.diameter_server_hops.map(u64::from) != Some(diameter) {
            notes.push(format!(
                "mismatch: diameter {:?}, closed form {diameter}",
                p.stats.diameter_server_hops
            ));
            ok = false;
        }
        match p.stats.avg_path_length {
            Some(apl) if sampled.apl.brackets(apl) => {}
            other => {
                notes.push(format!(
                    "mismatch: APL {other:?} outside sampled {} ± {}",
                    sampled.apl.mean, sampled.apl.ci95
                ));
                ok = false;
            }
        }
        for r in &p.reports {
            if !r.conserves_bytes() || r.flows == 0 {
                notes.push(format!("mismatch: {} does not conserve bytes", r.scenario));
                ok = false;
            }
            if r.scenario == "storage_rebuild" && r.faults_fired != 1 {
                notes.push("mismatch: storage_rebuild fault did not fire".into());
                ok = false;
            }
        }
        // Every pass runs the same inputs: its reports must repeat exactly.
        match &first {
            None => first = Some(p.reports.clone()),
            Some(f) if *f == p.reports => {}
            Some(_) => {
                notes.push("mismatch: scenario reports differ between passes".into());
                ok = false;
            }
        }
        ok
    };

    let untraced_s = if trace { seconds / 2.0 } else { seconds };
    let (plain, mut ok) = passes(sizes, &topo, seed, untraced_s, &mut check, Some(&mut setup))?;
    let props_s = median(&plain.iter().map(|p| p.props_s).collect::<Vec<_>>());
    let sim_s = median(&plain.iter().map(|p| p.sim_s).collect::<Vec<_>>());
    let pass_s = median(
        &plain
            .iter()
            .map(|p| p.props_s + p.sim_s)
            .collect::<Vec<_>>(),
    );

    let mut traced_pass = None;
    if trace {
        dcn_telemetry::reset();
        dcn_telemetry::set_enabled(true);
        let r = {
            let _span = dcn_telemetry::span!("bench.timed");
            passes(sizes, &topo, seed, seconds - untraced_s, &mut check, None)
        };
        dcn_telemetry::set_enabled(false);
        let (traced, t_ok) = r?;
        ok &= t_ok;
        traced_pass = Some(median(
            &traced
                .iter()
                .map(|p| p.props_s + p.sim_s)
                .collect::<Vec<_>>(),
        ));
    }
    out.notes.extend(notes);
    out.notes.push(format!(
        "props_s={props_s:.4} s  sim_s={sim_s:.4} s  passes={}",
        plain.len()
    ));
    out.correct = ok;
    out.attempted = plain.len() as u64;
    out.set("setup_s", median(&setup.total_s));
    out.failed = 0;
    // One gated figure per half of the pass: the scenario batch's rate
    // carries the event core, the structural report's time the distance
    // engine.
    let batch_rates: Vec<f64> = plain.iter().map(|p| 1.0 / p.sim_s).collect();
    out.set("throughput_per_s", median(&batch_rates));
    out.set("latency_p50_us", props_s * 1e6);

    if let Some(traced) = traced_pass {
        out.set("telemetry.overhead_frac", traced / pass_s - 1.0);
        out.set("analyze.props_s", props_s);
        out.set("analyze.sim_s", sim_s);
        out.set("netgraph.build_ms", median(&setup.build_s) * 1e3);
        let gen_s: Vec<f64> = plain.iter().map(|p| p.gen_s).collect();
        out.set("workloads.scenario_gen_ms", median(&gen_s) * 1e3);
        let batch = scenarios(sizes, topo.network().server_count(), seed);
        layers(sizes, &topo, &batch, out)?;
    }
    Ok(())
}

/// Prices the distance engine and the event core from outside.
fn layers(
    sizes: &AnalyzeSizes,
    topo: &Abccc,
    batch: &[Scenario],
    out: &mut Outcome,
) -> Result<(), String> {
    let net = topo.network();
    let engine = DistanceEngine::new(net);
    let (all_s, all) = timed(|| engine.all_pairs());
    all.ok_or("all-pairs sweep found a disconnected pair")?;
    let servers = net.server_count();
    let sources: Vec<netgraph::NodeId> = net
        .server_ids()
        .step_by((servers / sizes.bfs_sources.max(1)).max(1))
        .take(sizes.bfs_sources.max(1))
        .collect();
    let mut scratch = BfsScratch::new();
    let (bfs_s, ()) = timed(|| {
        for &s in &sources {
            std::hint::black_box(engine.source_stats_into(s, &mut scratch));
        }
    });
    let bfs_us = bfs_s * 1e6 / sources.len() as f64;
    out.set("netgraph.allpairs_ms", all_s * 1e3);
    out.set("netgraph.bfs_us_per_source", bfs_us);
    out.set(
        "netgraph.allpairs_parallel_eff",
        servers as f64 * bfs_us / (all_s * 1e6 * nproc() as f64),
    );

    let engine = TrafficEngine::new(topo);
    let (mut fluid, mut packet, mut fault) = (0.0, 0.0, 0.0);
    for s in batch {
        let (dt, r) = timed(|| engine.run(s));
        r.map_err(|e| e.to_string())?;
        match (s.name.as_str(), &s.fidelity) {
            ("storage_rebuild", _) => fault += dt,
            (_, Fidelity::Packet { .. }) => packet += dt,
            _ => fluid += dt,
        }
    }
    out.set("sim.fluid_ms", fluid * 1e3);
    out.set("sim.packet_ms", packet * 1e3);
    out.set("sim.fault_ms", fault * 1e3);

    // Max-min on the first diurnal scenario's peak: flows starting within
    // a tenth of the window of the intensity peak at T/4.
    if let Some(d) = batch.iter().find(|s| s.name == "diurnal") {
        let peak = DIURNAL_WINDOW_NS / 4;
        let flows: Vec<Vec<DirectedLink>> = d
            .flows
            .iter()
            .filter(|f| f.start_ns.abs_diff(peak) <= DIURNAL_WINDOW_NS / 10)
            .map(|f| {
                topo.route(f.src, f.dst)
                    .map(|r| DirectedLink::of_route(net, &r))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        let calls = 20;
        let (dt, ()) = timed(|| {
            for _ in 0..calls {
                std::hint::black_box(max_min_allocation(net, &flows));
            }
        });
        out.set("sim.maxmin_us_per_call", dt * 1e6 / f64::from(calls));
    }
    Ok(())
}
