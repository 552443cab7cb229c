//! The `serve_batch` and `serve_faulted` workloads: a closed loop of
//! pipelined query frames against an in-process `RouteServer` on
//! loopback, with every reply checked against an in-process
//! `RouteService` after each timed chunk, and (traced run) an in-process
//! replay of the recorded frames that prices each layer.

use crate::client::FrameConn;
use crate::fingerprint::nproc;
use crate::report::Outcome;
use crate::stats::{median, quantile, timed, Zipf};
use abccc::{Abccc, AbcccParams, RouteOutcome};
use dcn_fib::{FibLayout, RouteService};
use dcn_serve::wire::{Reply, Request, WireOutcome, WireRouteError};
use dcn_serve::{RouteServer, ServeConfig};
use dcn_sim::SplitMix64;
use netgraph::{FaultMask, LinkId, NodeId, RouteError, Topology};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Shape and size of a serve workload.
#[derive(Debug, Clone)]
pub struct ServeSizes {
    /// ABCCC parameters `(n, k, h)`.
    pub params: (u32, u32, u32),
    /// `RouteService` shards.
    pub shards: usize,
    /// Client connections, one client thread each.
    pub connections: usize,
    /// Frames each connection keeps outstanding.
    pub window: usize,
    /// Pairs per `QUERY_BATCH` frame; 1 sends single `QUERY` frames.
    pub batch: usize,
    /// One query frame in `vlb_one_in` is `QUERY_VLB` (0: none).
    pub vlb_one_in: u64,
    /// Connection 0 sends a `MASK_PUSH` every `mask_every` frames (0: never).
    pub mask_every: u64,
    /// Pairs come from a Zipf-skewed hot set of this many pairs (0: uniform).
    pub hot_pairs: usize,
    /// Links failed by each mask push.
    pub links_per_push: usize,
    /// Frames each connection sends per timed chunk; replies are
    /// verified between chunks, so client memory stays bounded.
    pub chunk_frames: usize,
    /// Flip one reply byte before verification (the gate's negative test).
    pub corrupt_reply: bool,
}

impl ServeSizes {
    /// `serve_batch`: ABCCC(8,3,3), 8192 servers, big uniform batches.
    pub fn batch() -> ServeSizes {
        ServeSizes {
            params: (8, 3, 3),
            shards: 2,
            connections: nproc().clamp(1, 2),
            window: 8,
            batch: 256,
            vlb_one_in: 0,
            mask_every: 0,
            hot_pairs: 0,
            links_per_push: 0,
            chunk_frames: 512,
            corrupt_reply: false,
        }
    }

    /// `serve_faulted`: ABCCC(4,2,2), 192 servers, single-pair frames from
    /// a hot set, VLB mix and in-band mask pushes.
    pub fn faulted() -> ServeSizes {
        ServeSizes {
            params: (4, 2, 2),
            shards: 2,
            connections: nproc().clamp(1, 2),
            window: 8,
            batch: 1,
            vlb_one_in: 8,
            mask_every: 512,
            hot_pairs: 1024,
            links_per_push: 2,
            chunk_frames: 2048,
            corrupt_reply: false,
        }
    }
}

/// Skew of the hot-set draw: the hottest pair gets about 7% of the
/// frames of a 1024-pair set, so no single pair's route decides the run.
const ZIPF_EXPONENT: f64 = 0.9;

/// Salts of the seeded input streams.
const HOT_STREAM: u64 = 0x4807;
const FAULT_STREAM: u64 = 0xFA17;
const CONN_STREAM: u64 = 0xC044;

/// The seeded fault plan: push `j` (1-based) fails `F_j`; pushes
/// accumulate, and every fourth push is a repair that keeps only its own
/// `F_j` (a mask that does not cover the installed one).
struct MaskPlan {
    candidates: Vec<LinkId>,
    per_push: usize,
    seed: u64,
}

impl MaskPlan {
    fn fresh(&self, j: u64) -> Vec<u32> {
        let mut rng = SplitMix64::stream(self.seed ^ FAULT_STREAM, j);
        (0..self.per_push)
            .map(|_| self.candidates[rng.below(self.candidates.len() as u64) as usize].0)
            .collect()
    }

    /// The failed links after push `e` (empty for `e == 0`).
    fn links(&self, e: u64) -> Vec<u32> {
        if e == 0 || self.candidates.is_empty() {
            return Vec::new();
        }
        let start = if e >= 4 { e - e % 4 } else { 1 };
        let mut links: Vec<u32> = (start..=e).flat_map(|j| self.fresh(j)).collect();
        links.sort_unstable();
        links.dedup();
        links
    }

    fn mask(&self, net: &netgraph::Network, e: u64) -> FaultMask {
        let mut mask = FaultMask::new(net);
        for l in self.links(e) {
            mask.fail_link(LinkId(l));
        }
        mask
    }
}

/// Everything the client threads draw their frames from.
struct Plan {
    sizes: ServeSizes,
    servers: u64,
    hot: Vec<(u32, u32)>,
    zipf: Zipf,
    masks: MaskPlan,
}

impl Plan {
    fn new(sizes: &ServeSizes, seed: u64, svc: &RouteService) -> Plan {
        let servers = u64::from(svc.table().servers());
        let mut rng = SplitMix64::stream(seed, HOT_STREAM);
        let hot: Vec<(u32, u32)> = (0..sizes.hot_pairs)
            .map(|_| loop {
                let (s, d) = (rng.below(servers) as u32, rng.below(servers) as u32);
                if s != d {
                    break (s, d);
                }
            })
            .collect();
        // Faults land on links the hottest compiled routes cross, so the
        // fallback and patch-cache path really runs.
        let net = svc.topo().network();
        let mut candidates: Vec<LinkId> = hot
            .iter()
            .take(32)
            .flat_map(|&(s, d)| {
                let route = svc.table().route(net, NodeId(s), NodeId(d));
                route
                    .nodes()
                    .windows(2)
                    .filter_map(|w| net.find_link(w[0], w[1]))
                    .collect::<Vec<_>>()
            })
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        Plan {
            zipf: Zipf::new(hot.len().max(1), ZIPF_EXPONENT),
            masks: MaskPlan {
                candidates,
                per_push: sizes.links_per_push,
                seed,
            },
            sizes: sizes.clone(),
            servers,
            hot,
        }
    }

    fn pair(&self, rng: &mut SplitMix64) -> (u32, u32) {
        if self.hot.is_empty() {
            (
                rng.below(self.servers) as u32,
                rng.below(self.servers) as u32,
            )
        } else {
            self.hot[self.zipf.draw(rng)]
        }
    }
}

/// One connection's seeded request stream; it continues across chunks.
struct ConnGen {
    conn: usize,
    rng: SplitMix64,
    frame: u64,
    next_id: u64,
    pushes: u64,
}

impl ConnGen {
    fn new(seed: u64, conn: usize) -> ConnGen {
        ConnGen {
            conn,
            rng: SplitMix64::stream(seed ^ CONN_STREAM, conn as u64),
            frame: 0,
            next_id: 0,
            pushes: 0,
        }
    }

    fn next(&mut self, plan: &Plan) -> Request {
        self.frame += 1;
        self.next_id += 1;
        let id = self.next_id;
        let s = &plan.sizes;
        if self.conn == 0 && s.mask_every > 0 && self.frame.is_multiple_of(s.mask_every) {
            self.pushes += 1;
            return Request::MaskPush {
                id,
                clear: false,
                nodes: Vec::new(),
                links: plan.masks.links(self.pushes),
            };
        }
        if s.batch > 1 {
            let pairs = (0..s.batch).map(|_| plan.pair(&mut self.rng)).collect();
            return Request::QueryBatch { id, pairs };
        }
        let vlb = s.vlb_one_in > 0 && self.rng.below(s.vlb_one_in) == 0;
        let (src, dst) = plan.pair(&mut self.rng);
        if vlb {
            Request::QueryVlb {
                id,
                seed: self.rng.next(),
                src,
                dst,
            }
        } else {
            Request::Query { id, src, dst }
        }
    }
}

/// Mask pushes connection 0 has sent and seen acknowledged; other
/// connections bracket the epoch each of their frames ran under.
#[derive(Default)]
struct MaskClock {
    sent: AtomicU64,
    acked: AtomicU64,
}

/// What one connection sent and received in one chunk.
#[derive(Debug, Default)]
pub struct ConnLog {
    reqs: Vec<Request>,
    payload: Vec<u8>,
    ends: Vec<usize>,
    rtt_ns: Vec<u64>,
    /// `(lo, hi)`: the frame ran under some mask epoch in `lo..=hi`.
    bracket: Vec<(u64, u64)>,
    elapsed_s: f64,
    /// Frames sent but never answered (transport failure).
    lost: u64,
}

impl ConnLog {
    /// Empties the log, keeping its buffers for the next chunk.
    fn clear(&mut self) {
        self.reqs.clear();
        self.payload.clear();
        self.ends.clear();
        self.rtt_ns.clear();
        self.bracket.clear();
        self.elapsed_s = 0.0;
        self.lost = 0;
    }

    fn reply(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.payload[start..self.ends[i]]
    }
}

/// Runs one closed-loop chunk: each connection sends `chunk_frames`
/// frames, keeping `window` outstanding, and reads every reply.
fn drive_chunk(
    conns: &mut [FrameConn],
    gens: &mut [ConnGen],
    logs: &mut [ConnLog],
    plan: &Plan,
    clock: &MaskClock,
) {
    let barrier = Barrier::new(conns.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(gens.iter_mut())
            .zip(logs.iter_mut())
            .map(|((conn, gen), log)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    log.clear();
                    barrier.wait();
                    let t0 = Instant::now();
                    if let Err(e) = drive_conn(conn, gen, plan, clock, log) {
                        eprintln!("connection {}: {e}", gen.conn);
                        log.lost = (log.reqs.len() - log.ends.len()) as u64;
                        log.reqs.truncate(log.ends.len());
                        log.bracket.truncate(log.ends.len());
                    }
                    log.elapsed_s = t0.elapsed().as_secs_f64();
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread panicked");
        }
    });
}

fn drive_conn(
    conn: &mut FrameConn,
    gen: &mut ConnGen,
    plan: &Plan,
    clock: &MaskClock,
    log: &mut ConnLog,
) -> std::io::Result<()> {
    let window = plan.sizes.window.max(1);
    let mut sent_at: std::collections::VecDeque<Instant> =
        std::collections::VecDeque::with_capacity(window);
    let mut frame = Vec::with_capacity(plan.sizes.batch * 8 + 64);
    let frames = plan.sizes.chunk_frames.max(1);
    loop {
        while log.reqs.len() < frames && sent_at.len() < window {
            let req = gen.next(plan);
            frame.clear();
            req.encode(&mut frame);
            let lo = if matches!(req, Request::MaskPush { .. }) {
                clock.sent.fetch_add(1, Ordering::SeqCst);
                0
            } else {
                clock.acked.load(Ordering::SeqCst)
            };
            sent_at.push_back(Instant::now());
            conn.send(&frame)?;
            log.reqs.push(req);
            log.bracket.push((lo, 0));
        }
        let Some(t) = sent_at.pop_front() else {
            return Ok(());
        };
        conn.recv_into(&mut log.payload)?;
        let i = log.ends.len();
        log.ends.push(log.payload.len());
        log.rtt_ns.push(t.elapsed().as_nanos() as u64);
        if matches!(log.reqs[i], Request::MaskPush { .. }) {
            clock.acked.fetch_add(1, Ordering::SeqCst);
        }
        log.bracket[i].1 = clock.sent.load(Ordering::SeqCst);
    }
}

fn single_reply(id: u64, r: &Result<RouteOutcome, RouteError>) -> Reply {
    match r {
        Ok(o) => Reply::Route {
            id,
            outcome: WireOutcome::from_outcome(o),
        },
        Err(e) => Reply::Error {
            id,
            error: WireRouteError::from_error(e),
        },
    }
}

fn batch_reply(id: u64, answers: &[Result<RouteOutcome, RouteError>]) -> Reply {
    Reply::Batch {
        id,
        items: answers
            .iter()
            .map(|r| match r {
                Ok(o) => Ok(WireOutcome::from_outcome(o)),
                Err(e) => Err(WireRouteError::from_error(e)),
            })
            .collect(),
    }
}

/// Compares a reply payload with the expected reply frame (length prefix
/// included): `Ok(items)` when byte-identical, `Err(true)` for a reject,
/// `Err(false)` for a wrong or undecodable reply.
fn classify(req: &Request, expected: &[u8], payload: &[u8]) -> Result<u64, bool> {
    match Reply::decode(payload) {
        Ok(Reply::Reject { .. }) => Err(true),
        Ok(_) if expected.get(4..) == Some(payload) => Ok(req.items() as u64),
        _ => Err(false),
    }
}

/// Verification tallies over the whole run.
#[derive(Debug, Default)]
struct Tally {
    frames: u64,
    failed: u64,
    items: u64,
    mismatches: Vec<String>,
}

impl Tally {
    fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 5 {
            self.mismatches.push(what);
        }
    }
}

/// Items per grouped reference `query_batch` call during verification:
/// enough to amortise the call's fan-out, few enough to keep the answers'
/// memory well under the run's peak.
const VERIFY_GROUP_ITEMS: usize = 8192;

/// The correctness gate: an in-process reference service replayed
/// through the same mask epochs the server went through.
struct Verifier {
    reference: RouteService,
    epoch: u64,
    buf: Vec<u8>,
    bad: u64,
}

impl Verifier {
    /// Installs the mask of epoch `e` on the reference; returns whether
    /// the install was incremental.
    fn advance(&mut self, plan: &Plan, e: u64) -> bool {
        let mask = plan.masks.mask(self.reference.topo().network(), e);
        self.epoch = e;
        self.reference.apply_mask(mask).incremental
    }

    /// Verdicts on `frames` (request, reply payload) under the reference's
    /// current epoch: `Ok(items)` for a match, `Err(true)` for a reject,
    /// `Err(false)` for a wrong reply. Plain and batch queries take their
    /// references from grouped `query_batch` calls (bit-identical to
    /// per-pair `query`), which amortises the call's per-shard fan-out.
    fn verdicts(&mut self, frames: &[(&Request, &[u8])]) -> Vec<Result<u64, bool>> {
        let mut out = Vec::with_capacity(frames.len());
        let mut start = 0;
        while start < frames.len() {
            let mut end = start + 1;
            let mut items = frames[start].0.items();
            while end < frames.len() && items + frames[end].0.items() <= VERIFY_GROUP_ITEMS {
                items += frames[end].0.items();
                end += 1;
            }
            let group = &frames[start..end];
            let pairs: Vec<(NodeId, NodeId)> = group
                .iter()
                .flat_map(|(req, _)| match req {
                    Request::Query { src, dst, .. } => vec![(*src, *dst)],
                    Request::QueryBatch { pairs, .. } => pairs.clone(),
                    _ => Vec::new(),
                })
                .map(|(s, d)| (NodeId(s), NodeId(d)))
                .collect();
            let answers = self.reference.query_batch(&pairs);
            let mut a = 0usize;
            for &(req, payload) in group {
                self.buf.clear();
                match req {
                    Request::Query { id, .. } => {
                        single_reply(*id, &answers[a]).encode(&mut self.buf);
                        a += 1;
                    }
                    Request::QueryBatch { id, pairs } => {
                        batch_reply(*id, &answers[a..a + pairs.len()]).encode(&mut self.buf);
                        a += pairs.len();
                    }
                    Request::QueryVlb { id, seed, src, dst } => {
                        let r = self.reference.query_vlb(*seed, NodeId(*src), NodeId(*dst));
                        single_reply(*id, &r).encode(&mut self.buf);
                    }
                    Request::MaskPush { .. } | Request::Info { .. } => {
                        out.push(Err(false));
                        continue;
                    }
                }
                out.push(classify(req, &self.buf, payload));
            }
            start = end;
        }
        out
    }

    /// Verifies one chunk: connection 0 in frame order (its mask pushes
    /// are in-band, so its epochs are exact); every other connection's
    /// frame against some epoch of its bracket.
    fn chunk(&mut self, plan: &Plan, logs: &[ConnLog], tally: &mut Tally) {
        let mut others: Vec<(usize, usize)> = Vec::new();
        for (c, log) in logs.iter().enumerate().skip(1) {
            others.extend((0..log.ends.len()).map(|i| (c, i)));
        }
        // Brackets are monotone in send order per connection; keep the
        // pending set sorted by `lo` across connections.
        others.sort_by_key(|&(c, i)| logs[c].bracket[i].0);
        let mut pending: Vec<(usize, usize)> = Vec::new();
        let mut next_other = 0usize;
        let log0 = &logs[0];
        let mut seg_start = 0usize;
        for i in 0..=log0.ends.len() {
            let last = i == log0.ends.len();
            if !last && !matches!(log0.reqs[i], Request::MaskPush { .. }) {
                continue;
            }
            // Connection 0's frames since its previous push ran under the
            // current epoch.
            let seg: Vec<(&Request, &[u8])> = (seg_start..i)
                .map(|j| (&log0.reqs[j], log0.reply(j)))
                .collect();
            for ((req, _), verdict) in seg.iter().zip(self.verdicts(&seg)) {
                match verdict {
                    Ok(items) => tally.items += items,
                    Err(true) => tally.failed += 1,
                    Err(false) => {
                        self.bad += 1;
                        tally.mismatch(format!("connection 0 frame id {}: wrong reply", req.id()));
                    }
                }
            }
            // Settle every other-connection frame that may have run under
            // the current epoch; one that fails here waits for a later
            // epoch of its bracket.
            while next_other < others.len()
                && logs[others[next_other].0].bracket[others[next_other].1].0 <= self.epoch
            {
                pending.push(others[next_other]);
                next_other += 1;
            }
            let frames: Vec<(&Request, &[u8])> = pending
                .iter()
                .map(|&(c, j)| (&logs[c].reqs[j], logs[c].reply(j)))
                .collect();
            let verdicts = self.verdicts(&frames);
            let mut waiting = Vec::new();
            for (&(c, j), verdict) in pending.iter().zip(verdicts) {
                match verdict {
                    Ok(items) => tally.items += items,
                    Err(true) => tally.failed += 1,
                    Err(false) if last || logs[c].bracket[j].1 <= self.epoch => self.bad += 1,
                    Err(false) => waiting.push((c, j)),
                }
            }
            pending = waiting;
            if last {
                break;
            }
            let (req, payload) = (&log0.reqs[i], log0.reply(i));
            let e = self.epoch + 1;
            let incremental = self.advance(plan, e);
            match Reply::decode(payload) {
                Ok(Reply::MaskAck {
                    id,
                    incremental: inc,
                    epoch,
                    ..
                }) if id == req.id() && epoch == e && inc == incremental => {}
                Ok(Reply::Reject { .. }) => tally.failed += 1,
                _ => {
                    self.bad += 1;
                    tally.mismatch(format!("connection 0 mask push {e}: wrong ack"));
                }
            }
            seg_start = i + 1;
        }
        // A frame whose bracket starts past the last epoch cannot exist.
        self.bad += (others.len() - next_other) as u64;
        if self.bad > 0 && tally.mismatches.is_empty() {
            tally.mismatch("a reply matched the reference under none of its epochs".into());
        }
        for log in logs {
            tally.frames += log.ends.len() as u64 + log.lost;
            tally.failed += log.lost;
        }
    }
}

/// A served instance: the server, its connections and what set-up cost.
struct Instance {
    server: RouteServer,
    conns: Vec<FrameConn>,
}

/// Set-up timings: the serving instance's, then one more per verified
/// chunk of the untraced phase, so their median samples the host across
/// the whole run rather than during one burst at its start.
#[derive(Default)]
struct SetupTimes {
    total_s: Vec<f64>,
    build_s: Vec<f64>,
    compile_s: Vec<f64>,
}

fn compile(sizes: &ServeSizes) -> Result<(f64, f64, RouteService), String> {
    let (n, k, h) = sizes.params;
    let params = AbcccParams::new(n, k, h).map_err(|e| e.to_string())?;
    let (build_s, topo) = timed(|| Abccc::new(params));
    let topo = topo.map_err(|e| e.to_string())?;
    let (compile_s, svc) =
        timed(|| RouteService::compile_with_layout(topo, FibLayout::Hier, sizes.shards));
    Ok((build_s, compile_s, svc.map_err(|e| e.to_string())?))
}

/// Times one full set-up: build, compile, spawn and connect.
fn set_up(sizes: &ServeSizes, times: &mut SetupTimes) -> Result<Instance, String> {
    let t = Instant::now();
    let (build_s, compile_s, svc) = compile(sizes)?;
    let server = RouteServer::spawn(svc, ServeConfig::default()).map_err(|e| e.to_string())?;
    let conns = (0..sizes.connections.max(1))
        .map(|_| FrameConn::connect(server.addr()))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| e.to_string())?;
    times.total_s.push(t.elapsed().as_secs_f64());
    times.build_s.push(build_s);
    times.compile_s.push(compile_s);
    Ok(Instance { server, conns })
}

fn shut_down(inst: Instance) {
    drop(inst.conns);
    inst.server.shutdown();
}

/// Flips the last byte of the connection's last query reply (not a mask
/// ack): with two connections, the bracket check of the second one is
/// what must catch it.
fn corrupt_last_query_reply(log: &mut ConnLog) {
    let last = (0..log.ends.len())
        .rev()
        .find(|&i| !matches!(log.reqs[i], Request::MaskPush { .. }));
    if let Some(i) = last {
        log.payload[log.ends[i] - 1] ^= 0x01;
    }
}

/// Timed-phase results of one or more chunks.
#[derive(Default)]
struct Phase {
    chunk_rates: Vec<f64>,
    chunk_p50_us: Vec<f64>,
    chunk_p99_us: Vec<f64>,
    rtt_samples: usize,
    mask_rtt_us: Vec<f64>,
    logs: Vec<ConnLog>,
}

/// Runs chunks until `seconds` of timed load have passed, verifying each
/// and, given `setup`, timing one more set-up after each.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    inst: &mut Instance,
    gens: &mut [ConnGen],
    plan: &Plan,
    clock: &MaskClock,
    verifier: &mut Verifier,
    tally: &mut Tally,
    seconds: f64,
    corrupt: bool,
    mut setup: Option<&mut SetupTimes>,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let mut logs: Vec<ConnLog> = inst.conns.iter().map(|_| ConnLog::default()).collect();
    let mut timed_s = 0.0;
    // Chunk 0 warms buffers and caches: verified, not timed. Then chunks
    // run until `seconds` of timed load (at least three chunks).
    let mut c = 0usize;
    while c < 4 || timed_s < seconds {
        drive_chunk(&mut inst.conns, gens, &mut logs, plan, clock);
        if corrupt && c == 0 {
            corrupt_last_query_reply(logs.last_mut().expect("a connection"));
        }
        let items_before = tally.items;
        verifier.chunk(plan, &logs, tally);
        if let Some(times) = setup.as_deref_mut() {
            shut_down(set_up(&plan.sizes, times)?);
        }
        c += 1;
        if c == 1 {
            continue;
        }
        let elapsed = logs.iter().map(|l| l.elapsed_s).fold(0.0, f64::max);
        timed_s += elapsed;
        phase
            .chunk_rates
            .push((tally.items - items_before) as f64 / elapsed.max(1e-9));
        // Tail latency per chunk, then the median over chunks: a burst of
        // host stalls moves one chunk's p99, not the run's.
        let mut rtt_us = Vec::new();
        for log in &logs {
            for (req, &ns) in log.reqs.iter().zip(&log.rtt_ns) {
                if matches!(req, Request::MaskPush { .. }) {
                    phase.mask_rtt_us.push(ns as f64 / 1e3);
                } else {
                    rtt_us.push(ns as f64 / 1e3);
                }
            }
        }
        phase.rtt_samples += rtt_us.len();
        phase.chunk_p50_us.push(quantile(&mut rtt_us, 0.50));
        phase.chunk_p99_us.push(quantile(&mut rtt_us, 0.99));
    }
    phase.logs = logs;
    Ok(phase)
}

/// Runs a serve workload for `seconds` of timed load and fills `out`
/// with the end-to-end metrics, or with the per-layer metrics when
/// `trace` is set.
///
/// # Errors
///
/// Set-up failures (bad parameters, bind or connect errors).
pub fn run(
    sizes: &ServeSizes,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut setup = SetupTimes::default();
    let mut inst = set_up(sizes, &mut setup)?;
    let (_, _, reference) = compile(sizes)?;
    let plan = Plan::new(sizes, seed, &reference);
    let mut verifier = Verifier {
        reference,
        epoch: 0,
        buf: Vec::new(),
        bad: 0,
    };
    let clock = MaskClock::default();
    let mut gens: Vec<ConnGen> = (0..inst.conns.len())
        .map(|c| ConnGen::new(seed, c))
        .collect();
    let mut tally = Tally::default();
    let untraced_s = if trace { seconds / 2.0 } else { seconds };
    let plain = run_phase(
        &mut inst,
        &mut gens,
        &plan,
        &clock,
        &mut verifier,
        &mut tally,
        untraced_s,
        sizes.corrupt_reply,
        Some(&mut setup),
    )?;
    let lookups_per_s = median(&plain.chunk_rates);
    let rtt_p50 = median(&plain.chunk_p50_us);
    let rtt_p99 = median(&plain.chunk_p99_us);
    let mask_p50 = quantile(&mut plain.mask_rtt_us.clone(), 0.50);
    let fail_frac = tally.failed as f64 / tally.frames.max(1) as f64;
    out.notes.push(format!(
        "lookups_per_s={lookups_per_s:.1} 1/s  rtt_p50_us={rtt_p50:.1} us  rtt_p99_us={rtt_p99:.1} us (n={})  mask_rtt_p50_us={mask_p50:.1} us (n={})  fail_frac={fail_frac} ratio",
        plain.rtt_samples,
        plain.mask_rtt_us.len()
    ));

    let mut traced = None;
    if trace {
        dcn_telemetry::reset();
        dcn_telemetry::set_enabled(true);
        let phase = {
            let _span = dcn_telemetry::span!("bench.timed");
            run_phase(
                &mut inst,
                &mut gens,
                &plan,
                &clock,
                &mut verifier,
                &mut tally,
                seconds - untraced_s,
                false,
                None,
            )
        };
        dcn_telemetry::set_enabled(false);
        traced = Some((phase?, dcn_telemetry::registry().snapshot()));
    }
    shut_down(inst);

    out.correct = verifier.bad == 0;
    for m in &tally.mismatches {
        out.notes.push(format!("mismatch: {m}"));
    }
    out.attempted = tally.frames;
    out.failed = tally.failed;

    out.set("setup_s", median(&setup.total_s));
    out.set("throughput_per_s", lookups_per_s);
    out.set("latency_p50_us", rtt_p50);

    if let Some((phase, snap)) = traced {
        out.set("netgraph.build_ms", median(&setup.build_s) * 1e3);
        out.set("fib.compile_ms", median(&setup.compile_s) * 1e3);
        out.set("serve.lookups_per_s", lookups_per_s);
        out.set("serve.rtt_p50_us", rtt_p50);
        out.set("serve.rtt_p99_us", rtt_p99);
        out.set("serve.fail_frac", fail_frac);
        if !plain.mask_rtt_us.is_empty() {
            out.set("serve.mask_rtt_p50_us", mask_p50);
        }
        let traced_rate = median(&phase.chunk_rates);
        out.set(
            "telemetry.overhead_frac",
            lookups_per_s / traced_rate.max(1e-9) - 1.0,
        );
        let log = &phase.logs[0];
        let pushes = log
            .reqs
            .iter()
            .filter(|r| matches!(r, Request::MaskPush { .. }))
            .count() as u64;
        let first_epoch = gens[0].pushes - pushes;
        replay(sizes, &plan, log, first_epoch, &snap, lookups_per_s, out)?;
    }
    Ok(())
}

/// Reads a counter from the traced run's registry snapshot, noting its
/// absence (counter names are not part of any API contract).
fn counter(snap: &dcn_telemetry::MetricsSnapshot, name: &str, out: &mut Outcome) -> Option<u64> {
    let v = snap.counter(name);
    if v.is_none() {
        out.notes.push(format!("missing counter: {name}"));
    }
    v
}

/// Prices each layer by replaying connection 0's recorded frames of the
/// traced phase in-process, in order, through the same public calls.
fn replay(
    sizes: &ServeSizes,
    plan: &Plan,
    log: &ConnLog,
    first_epoch: u64,
    snap: &dcn_telemetry::MetricsSnapshot,
    lookups_per_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let frames = log.ends.len();
    let reqs = &log.reqs[..frames];

    // Observed coalesced group size sets the batch the fib replay uses.
    let group = match snap.histogram("serve.batch_size") {
        Some(h) if h.count > 0 => h.p50.max(1) as usize,
        _ => {
            out.notes.push("missing histogram: serve.batch_size".into());
            sizes.window * sizes.batch
        }
    };
    out.set("serve.group_items", group as f64);
    // Only a faulted plane touches the patch caches; a healthy run never
    // registers these counters.
    if sizes.mask_every > 0 {
        if let (Some(hits), Some(falls)) = (
            counter(snap, "fib.patch_hits", out),
            counter(snap, "fib.fallbacks", out),
        ) {
            if hits + falls > 0 {
                out.set("fib.patch_hit_ratio", hits as f64 / (hits + falls) as f64);
            }
        }
    }

    // Codec, per frame.
    let query_frames: Vec<usize> = (0..frames)
        .filter(|&i| !matches!(reqs[i], Request::MaskPush { .. }))
        .collect();
    let mut buf = Vec::new();
    let encoded: Vec<Vec<u8>> = query_frames
        .iter()
        .map(|&i| {
            let mut f = Vec::new();
            reqs[i].encode(&mut f);
            f
        })
        .collect();
    let (enc_s, ()) = timed(|| {
        for &i in &query_frames {
            buf.clear();
            reqs[i].encode(&mut buf);
            std::hint::black_box(&buf);
        }
    });
    let (dec_s, ok) = timed(|| {
        encoded
            .iter()
            .all(|f| std::hint::black_box(Request::decode(&f[4..])).is_ok())
    });
    let (rdec_s, rok) = timed(|| {
        query_frames
            .iter()
            .all(|&i| std::hint::black_box(Reply::decode(log.reply(i))).is_ok())
    });
    if !ok || !rok {
        return Err("recorded frames failed to decode".into());
    }
    let nq = query_frames.len().max(1) as f64;
    let items: usize = query_frames.iter().map(|&i| reqs[i].items()).sum();
    let reply_bytes: usize = query_frames.iter().map(|&i| log.reply(i).len()).sum();
    out.set("wire.req_encode_ns", enc_s * 1e9 / nq);
    out.set("wire.req_decode_ns", dec_s * 1e9 / nq);
    out.set("wire.reply_decode_ns", rdec_s * 1e9 / nq);
    out.set(
        "wire.reply_bytes_per_item",
        reply_bytes as f64 / items.max(1) as f64,
    );

    // FIB layers, segment by segment between mask pushes.
    let (_, _, mut svc) = compile(sizes)?;
    let topo = svc.topo().clone();
    let net = topo.network();
    let mut walk_s = 0.0;
    let mut query_s = 0.0;
    let mut batch_s = 0.0;
    let mut vlb_s = 0.0;
    let mut reply_enc_s = 0.0;
    let (mut pairs_n, mut vlb_n) = (0usize, 0usize);
    let mut fallback_us = Vec::new();
    let (mut incr_us, mut repair_us) = (Vec::new(), Vec::new());
    let mut pushes = first_epoch;
    if first_epoch > 0 {
        svc.apply_mask(plan.masks.mask(net, first_epoch));
    }
    let mut nodes = Vec::new();
    let mut start = 0usize;
    while start < frames {
        let end = (start..frames)
            .find(|&i| matches!(reqs[i], Request::MaskPush { .. }))
            .unwrap_or(frames);
        let seg = &reqs[start..end];
        let pairs: Vec<(NodeId, NodeId)> = seg
            .iter()
            .flat_map(|r| match r {
                Request::Query { src, dst, .. } => vec![(NodeId(*src), NodeId(*dst))],
                Request::QueryBatch { pairs, .. } => {
                    pairs.iter().map(|&(s, d)| (NodeId(s), NodeId(d))).collect()
                }
                _ => Vec::new(),
            })
            .collect();
        let vlbs: Vec<(u64, NodeId, NodeId)> = seg
            .iter()
            .filter_map(|r| match r {
                Request::QueryVlb { seed, src, dst, .. } => {
                    Some((*seed, NodeId(*src), NodeId(*dst)))
                }
                _ => None,
            })
            .collect();
        // First touch of each pair under this mask: a call that adds a
        // patch is a fallback.
        for &(s, d) in pairs.iter().filter(|_| svc.mask().is_some()) {
            let before = svc.patch_count();
            let (dt, r) = timed(|| svc.query(s, d));
            std::hint::black_box(&r);
            if svc.patch_count() > before {
                fallback_us.push(dt * 1e6);
            }
        }
        let (dt, ()) = timed(|| {
            for &(s, d) in &pairs {
                nodes.clear();
                svc.table().walk_into(net, s, d, &mut nodes);
                std::hint::black_box(&nodes);
            }
        });
        walk_s += dt;
        let (dt, answers) = timed(|| {
            pairs
                .iter()
                .map(|&(s, d)| svc.query(s, d))
                .collect::<Vec<_>>()
        });
        query_s += dt;
        let (dt, ()) = timed(|| {
            for g in pairs.chunks(group) {
                std::hint::black_box(svc.query_batch(g));
            }
        });
        batch_s += dt;
        let (dt, vlb_answers) = timed(|| {
            vlbs.iter()
                .map(|&(seed, s, d)| svc.query_vlb(seed, s, d))
                .collect::<Vec<_>>()
        });
        vlb_s += dt;
        // Reply encode as the server does it: conversion plus framing.
        let (dt, ()) = timed(|| {
            let (mut a, mut v) = (0usize, 0usize);
            for r in seg {
                buf.clear();
                match r {
                    Request::Query { id, .. } => {
                        single_reply(*id, &answers[a]).encode(&mut buf);
                        a += 1;
                    }
                    Request::QueryBatch { id, pairs } => {
                        batch_reply(*id, &answers[a..a + pairs.len()]).encode(&mut buf);
                        a += pairs.len();
                    }
                    Request::QueryVlb { id, .. } => {
                        single_reply(*id, &vlb_answers[v]).encode(&mut buf);
                        v += 1;
                    }
                    _ => {}
                }
                std::hint::black_box(&buf);
            }
        });
        reply_enc_s += dt;
        pairs_n += pairs.len();
        vlb_n += vlbs.len();
        if end < frames {
            pushes += 1;
            let mask = plan.masks.mask(net, pushes);
            let (dt, report) = timed(|| svc.apply_mask(mask));
            if report.incremental {
                incr_us.push(dt * 1e6);
            } else {
                repair_us.push(dt * 1e6);
            }
        }
        start = end + 1;
    }
    let per = |s: f64, n: usize| s * 1e9 / n.max(1) as f64;
    if pairs_n > 0 {
        out.set("fib.walk_ns", per(walk_s, pairs_n));
        out.set("fib.query_ns", per(query_s, pairs_n));
        out.set("fib.batch_ns_per_item", per(batch_s, pairs_n));
        out.set("fib.batch_over_walk", batch_s / walk_s.max(1e-12));
    }
    if vlb_n > 0 {
        out.set("fib.vlb_ns", per(vlb_s, vlb_n));
    }
    if !fallback_us.is_empty() {
        out.set("fib.fallback_us", median(&fallback_us));
    }
    if !incr_us.is_empty() {
        out.set("fib.apply_mask_incr_us", median(&incr_us));
    }
    if !repair_us.is_empty() {
        out.set("fib.apply_mask_repair_us", median(&repair_us));
    }
    out.set("wire.reply_encode_ns", reply_enc_s * 1e9 / nq);
    // The server pays each broken pair's fallback inline, once per pair
    // per epoch; the replay warmed those patches before timing the batch.
    let fallback_s = fallback_us.iter().sum::<f64>() / 1e6;
    let layer_s = enc_s + dec_s + batch_s + fallback_s + vlb_s + reply_enc_s;
    let layer_ns = layer_s * 1e9 / items.max(1) as f64;
    out.set("serve.layer_ns_per_item", layer_ns);
    out.set(
        "serve.transport_ns_per_item",
        nproc() as f64 * 1e9 / lookups_per_s.max(1e-9) - layer_ns,
    );
    Ok(())
}
