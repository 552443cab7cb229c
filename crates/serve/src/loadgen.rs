//! The built-in loopback load generator.
//!
//! One code path serves two masters: the deterministic CI harness (fixed
//! seed ⇒ byte-identical reply digest, at any shard count) and the
//! `route_server` saturation experiment (same generator, bigger knobs,
//! wall-clock throughput and RTT quantiles on top). Each connection is
//! one client thread running a windowed pipeline of query frames whose
//! pairs come from a per-connection SplitMix64-derived RNG stream — the
//! digest folds per-connection FNV hashes in connection-index order, so
//! the result is independent of scheduling, shard count, and how the
//! server happened to coalesce frames.

use crate::client::{ServeClient, ServeError};
use crate::server::{DrainReport, RouteServer, ServeConfig};
use crate::wire::{Reply, Request};
use dcn_fib::RouteService;
use dcn_telemetry::HdrHistogram;
use serde::Serialize;
use std::net::SocketAddr;
use std::time::Instant;

/// Shape of a load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent client connections.
    pub connections: usize,
    /// Query frames each connection sends.
    pub frames: usize,
    /// Pairs per frame (1 sends single-query frames, >1 batch frames).
    pub batch: usize,
    /// Outstanding frames per connection. Keep `window × batch` within
    /// the server's `max_inflight` and no request is ever rejected —
    /// which is what the deterministic harness relies on.
    pub window: usize,
    /// Base seed; connection `c` draws from `mix(seed, c)`.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            connections: 4,
            frames: 256,
            batch: 16,
            window: 8,
            seed: 1,
        }
    }
}

/// What a load-generation run measured.
///
/// `digest`, the counts and the config echo are deterministic for a
/// fixed seed; the throughput and RTT figures are wall-clock and belong
/// in stdout reports only.
#[derive(Debug, Clone, Serialize)]
pub struct LoadgenReport {
    /// Connections driven.
    pub connections: usize,
    /// Frames sent per connection.
    pub frames: usize,
    /// Pairs per frame.
    pub batch: usize,
    /// Pipeline window (frames).
    pub window: usize,
    /// Base seed.
    pub seed: u64,
    /// Route-query items sent in total.
    pub requests: u64,
    /// Items answered with a route.
    pub ok: u64,
    /// Items answered with a typed route error.
    pub route_errors: u64,
    /// Frames refused by backpressure.
    pub rejects: u64,
    /// FNV-1a digest over every reply payload, folded per connection in
    /// index order — byte-identical across runs, shard counts and thread
    /// interleavings for a fixed seed.
    pub digest: String,
    /// Wall-clock duration of the generation phase, nanoseconds.
    pub elapsed_ns: u64,
    /// Answered items per second (([`LoadgenReport::ok`] +
    /// [`LoadgenReport::route_errors`]) ÷ elapsed); items of rejected
    /// frames do not count.
    pub lookups_per_sec: f64,
    /// Client-measured per-frame round trip, p50, nanoseconds.
    pub rtt_p50_ns: u64,
    /// Client-measured per-frame round trip, p99, nanoseconds.
    pub rtt_p99_ns: u64,
    /// Client-measured per-frame round trip, p999, nanoseconds.
    pub rtt_p999_ns: u64,
}

/// Per-connection tallies folded into the report.
struct ConnResult {
    ok: u64,
    route_errors: u64,
    rejects: u64,
    digest: u64,
    rtt: HdrHistogram,
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// SplitMix64 — same mixer the experiment registry uses for per-point
/// seeds, reused here for per-connection streams.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Drives `cfg` against an already-running server at `addr` whose FIB
/// covers `servers` servers.
///
/// # Errors
///
/// Propagates the first connection's transport failure.
pub fn run_against(
    addr: SocketAddr,
    servers: u64,
    cfg: &LoadgenConfig,
) -> Result<LoadgenReport, ServeError> {
    let _span = dcn_telemetry::span!("serve.loadgen");
    let connections = cfg.connections.max(1);
    let window = cfg.window.max(1);
    let t0 = Instant::now();
    let results: Vec<Result<ConnResult, ServeError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| scope.spawn(move || drive_connection(addr, servers, cfg, window, c as u64)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed_ns = t0.elapsed().as_nanos() as u64;

    let mut ok = 0u64;
    let mut route_errors = 0u64;
    let mut rejects = 0u64;
    let mut digest = FNV_OFFSET;
    let mut rtt = HdrHistogram::new();
    for r in results {
        let r = r?;
        ok += r.ok;
        route_errors += r.route_errors;
        rejects += r.rejects;
        fnv(&mut digest, &r.digest.to_le_bytes());
        rtt.merge(&r.rtt);
    }
    let requests = (connections * cfg.frames * cfg.batch.max(1)) as u64;
    let answered = ok + route_errors;
    Ok(LoadgenReport {
        connections,
        frames: cfg.frames,
        batch: cfg.batch.max(1),
        window,
        seed: cfg.seed,
        requests,
        ok,
        route_errors,
        rejects,
        digest: format!("{digest:#018x}"),
        elapsed_ns,
        lookups_per_sec: if elapsed_ns == 0 {
            0.0
        } else {
            answered as f64 / (elapsed_ns as f64 / 1e9)
        },
        rtt_p50_ns: rtt.percentile(0.50),
        rtt_p99_ns: rtt.percentile(0.99),
        rtt_p999_ns: rtt.percentile(0.999),
    })
}

/// Spawns a loopback server over `service`, runs the generator against
/// it, then drains the server. The one-call entry point shared by the CI
/// harness, `abccc-cli loadgen`, and the `route_server` experiment.
///
/// # Errors
///
/// Bind failures and client transport failures.
pub fn run_loopback(
    service: RouteService,
    serve_cfg: ServeConfig,
    cfg: &LoadgenConfig,
) -> Result<(LoadgenReport, DrainReport), ServeError> {
    let servers = u64::from(service.table().servers());
    let server = RouteServer::spawn(service, serve_cfg)?;
    let report = run_against(server.addr(), servers, cfg);
    let drain = server.shutdown();
    Ok((report?, drain))
}

/// One connection's windowed pipeline.
fn drive_connection(
    addr: SocketAddr,
    servers: u64,
    cfg: &LoadgenConfig,
    window: usize,
    conn_index: u64,
) -> Result<ConnResult, ServeError> {
    use rand::{Rng, SeedableRng};
    let mut client = ServeClient::connect(addr)?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(mix(cfg.seed, conn_index));
    let batch = cfg.batch.max(1);
    let mut res = ConnResult {
        ok: 0,
        route_errors: 0,
        rejects: 0,
        digest: FNV_OFFSET,
        rtt: HdrHistogram::new(),
    };
    let mut sent = 0usize;
    let mut received = 0usize;
    // Send timestamps for outstanding frames, in send order (replies come
    // back in order per connection).
    let mut sent_at: std::collections::VecDeque<Instant> =
        std::collections::VecDeque::with_capacity(window);
    while received < cfg.frames {
        while sent < cfg.frames && sent - received < window {
            let id = client.next_id();
            let req = if batch == 1 {
                Request::Query {
                    id,
                    src: rng.gen_range(0..servers) as u32,
                    dst: rng.gen_range(0..servers) as u32,
                }
            } else {
                Request::QueryBatch {
                    id,
                    pairs: (0..batch)
                        .map(|_| {
                            (
                                rng.gen_range(0..servers) as u32,
                                rng.gen_range(0..servers) as u32,
                            )
                        })
                        .collect(),
                }
            };
            sent_at.push_back(Instant::now());
            client.send_frame(&req)?;
            sent += 1;
        }
        let (reply, payload) = client.recv_reply()?;
        let rtt_ns = sent_at
            .pop_front()
            .map_or(0, |t| t.elapsed().as_nanos() as u64);
        res.rtt.record(rtt_ns);
        dcn_telemetry::histogram!("serve.rtt_ns").record(rtt_ns);
        fnv(&mut res.digest, &payload);
        match reply {
            Reply::Route { .. } => res.ok += 1,
            Reply::Error { .. } => res.route_errors += 1,
            Reply::Batch { items, .. } => {
                for item in &items {
                    match item {
                        Ok(_) => res.ok += 1,
                        Err(_) => res.route_errors += 1,
                    }
                }
            }
            Reply::Reject { .. } => res.rejects += 1,
            Reply::MaskAck { .. } | Reply::InfoAck { .. } => {}
        }
        received += 1;
    }
    Ok(res)
}
