//! Loopback integration tests: the determinism contract, graceful
//! shutdown, typed backpressure, and the mask-epoch consistency
//! regression pinned to the on-demand routers.

use abccc::{Abccc, AbcccParams, DigitRouter, ResilientRouter, RetryBudget, Router};
use dcn_fib::RouteService;
use dcn_serve::loadgen::{run_loopback, LoadgenConfig};
use dcn_serve::wire::{RejectReason, Reply, Request};
use dcn_serve::{RouteServer, ServeClient, ServeConfig};
use netgraph::{FaultMask, NodeId, Topology};
use std::time::Duration;

fn topo(n: u32, k: u32, h: u32) -> Abccc {
    Abccc::new(AbcccParams::new(n, k, h).expect("params")).expect("topology")
}

fn service(shards: usize) -> RouteService {
    RouteService::compile(topo(3, 2, 2), shards).expect("service")
}

/// The harness config: `window × batch ≤ max_inflight`, so backpressure
/// never fires and the digest is schedule-independent.
fn harness_cfg(seed: u64) -> LoadgenConfig {
    LoadgenConfig {
        connections: 3,
        frames: 64,
        batch: 8,
        window: 4,
        seed,
    }
}

/// The determinism contract: a fixed-seed loadgen run produces a
/// byte-identical reply digest on every run and at every shard count —
/// server thread interleavings, frame coalescing, and the sharded batch
/// path are all invisible in the reply bytes.
#[test]
fn digest_is_identical_across_runs_and_shards() {
    let mut digests = Vec::new();
    for shards in [1usize, 1, 4, 8] {
        let (report, drain) =
            run_loopback(service(shards), ServeConfig::default(), &harness_cfg(42))
                .expect("loopback run");
        assert_eq!(report.rejects, 0, "harness must never saturate");
        assert_eq!(
            report.ok + report.route_errors,
            report.requests,
            "every item answered"
        );
        assert_eq!(drain.connections, report.connections);
        digests.push(report.digest);
    }
    assert_eq!(digests[0], digests[1], "same seed, same shards");
    assert_eq!(digests[0], digests[2], "1 shard vs 4 shards");
    assert_eq!(digests[0], digests[3], "1 shard vs 8 shards");
}

/// Different seeds exercise different pair streams — the digest must
/// move, or it is not hashing anything meaningful.
#[test]
fn digest_tracks_the_seed() {
    let (a, _) = run_loopback(service(2), ServeConfig::default(), &harness_cfg(1)).unwrap();
    let (b, _) = run_loopback(service(2), ServeConfig::default(), &harness_cfg(2)).unwrap();
    assert_ne!(a.digest, b.digest);
}

/// Rejected frames are not lookups: with every loadgen frame over the
/// server's batch cap, each one draws a `BatchTooLarge` reject and the
/// reported lookup rate is zero.
#[test]
fn rejected_items_do_not_count_as_lookups() {
    let serve_cfg = ServeConfig {
        max_batch: 4,
        ..ServeConfig::default()
    };
    let cfg = harness_cfg(7); // batch 8 > max_batch 4
    let (report, _) = run_loopback(service(2), serve_cfg, &cfg).expect("loopback run");
    assert_eq!(report.rejects, (cfg.connections * cfg.frames) as u64);
    assert_eq!(report.ok + report.route_errors, 0);
    assert_eq!(report.lookups_per_sec, 0.0);
}

/// Graceful shutdown joins every connection thread and reports the
/// count; a second server can immediately rebind an ephemeral port.
#[test]
fn shutdown_drains_all_connections() {
    let server = RouteServer::spawn(service(2), ServeConfig::default()).expect("spawn");
    let addr = server.addr();
    let mut clients: Vec<ServeClient> = (0..5)
        .map(|_| ServeClient::connect(addr).expect("connect"))
        .collect();
    for (i, c) in clients.iter_mut().enumerate() {
        match c.query(i as u32, (i + 1) as u32).expect("reply") {
            Reply::Route { .. } | Reply::Error { .. } => {}
            other => panic!("unexpected reply {other:?}"),
        }
    }
    let drain = server.shutdown();
    assert_eq!(drain.connections, 5);
    assert_eq!(drain.epoch, 0);
}

/// Backpressure is typed, not silent: a frame pushing a group past
/// `max_inflight` gets `Saturated`, a single over-sized batch frame gets
/// `BatchTooLarge`, and the connection stays usable afterwards.
#[test]
fn saturation_rejects_are_typed_and_survivable() {
    let cfg = ServeConfig {
        max_inflight: 8,
        max_batch: 8,
        ..ServeConfig::default()
    };
    let server = RouteServer::spawn(service(2), cfg).expect("spawn");
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    // One frame whose batch alone exceeds the per-frame cap.
    match client.query_batch(vec![(0, 1); 9]).expect("reply") {
        Reply::Reject { reason, .. } => assert_eq!(reason, RejectReason::BatchTooLarge),
        other => panic!("expected BatchTooLarge, got {other:?}"),
    }

    // A pipelined burst of 3 × 4-item frames against a budget of 8: the
    // first two frames are admitted whole, the third is rejected whole.
    let ids: Vec<u64> = (0..3).map(|_| client.next_id()).collect();
    for &id in &ids {
        client
            .send_frame(&Request::QueryBatch {
                id,
                pairs: vec![(0, 1), (1, 2), (2, 3), (3, 4)],
            })
            .expect("send");
    }
    let mut rejected = 0;
    let mut answered = 0;
    for _ in 0..3 {
        match client.recv_reply().expect("reply").0 {
            Reply::Batch { items, .. } => {
                assert_eq!(items.len(), 4);
                answered += 1;
            }
            Reply::Reject { reason, .. } => {
                assert_eq!(reason, RejectReason::Saturated);
                rejected += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    // Coalescing is timing-dependent (the server may see 1, 2 or 3 frames
    // per group), but a group can never admit more than 8 items — so at
    // most two of the three frames land in one group, and any group that
    // sees all three must reject the third.
    assert_eq!(rejected + answered, 3);

    // The connection survives rejection: a plain query still answers.
    match client.query(0, 5).expect("reply") {
        Reply::Route { .. } => {}
        other => panic!("unexpected reply {other:?}"),
    }
    server.shutdown();
}

/// A wrong-version frame draws a typed `BadVersion` reject and closes
/// the connection (nothing else the peer sends is safe to interpret).
#[test]
fn wrong_version_rejects_then_closes() {
    use dcn_serve::wire::{split_frame, DEFAULT_MAX_FRAME};
    use std::io::{Read, Write};
    let server = RouteServer::spawn(service(1), ServeConfig::default()).expect("spawn");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");

    // Hand-build a frame with version 9: [len][ver][op][id][src][dst].
    let mut body = vec![9u8, 0x01];
    body.extend_from_slice(&7u64.to_le_bytes());
    body.extend_from_slice(&0u32.to_le_bytes());
    body.extend_from_slice(&1u32.to_le_bytes());
    let mut raw = (body.len() as u32).to_le_bytes().to_vec();
    raw.extend_from_slice(&body);
    stream.write_all(&raw).expect("send raw");

    // Read to EOF: the server answers with one Reject frame then closes.
    let mut rbuf = Vec::new();
    stream.read_to_end(&mut rbuf).expect("read reply");
    let (range, used) = split_frame(&rbuf, DEFAULT_MAX_FRAME)
        .expect("valid prefix")
        .expect("one reply frame");
    assert_eq!(used, rbuf.len(), "exactly one reply before close");
    match Reply::decode(&rbuf[range]).expect("decode") {
        Reply::Reject { id, reason } => {
            assert_eq!(id, 7, "id recovered from the malformed frame");
            assert_eq!(reason, RejectReason::BadVersion);
        }
        other => panic!("unexpected reply {other:?}"),
    }
    server.shutdown();
}

/// The epoch-consistency regression (the bug class this server must not
/// have): a batch admitted before a mask push answers **entirely** from
/// the pre-mask epoch, and every frame after the ack answers entirely
/// from the post-mask epoch — never a mix. Pinned to the on-demand
/// routers: healthy answers equal `DigitRouter::shortest()`, faulted
/// answers equal `ResilientRouter::route_explained` under the same mask.
#[test]
fn batch_before_mask_push_answers_from_one_epoch() {
    let t = topo(3, 2, 2);
    let servers = t.params().server_count() as u32;
    // Fail one server that detours many routes.
    let failed = NodeId(1);
    let mut mask = FaultMask::new(t.network());
    mask.fail_node(failed);

    let digit = DigitRouter::shortest();
    let resilient = ResilientRouter::new(RetryBudget::default());
    let pairs: Vec<(u32, u32)> = (0..servers)
        .map(|s| (s, (s + servers / 2) % servers))
        .collect();
    let healthy: Vec<_> = pairs
        .iter()
        .map(|&(s, d)| digit.route(&t, NodeId(s), NodeId(d), None))
        .collect();
    let faulted: Vec<_> = pairs
        .iter()
        .map(|&(s, d)| resilient.route_explained(&t, NodeId(s), NodeId(d), Some(&mask)))
        .collect();
    assert_ne!(healthy, faulted, "mask must actually change answers");

    let matches =
        |items: &[Result<dcn_serve::wire::WireOutcome, dcn_serve::wire::WireRouteError>],
         plane: &[Result<abccc::RouteOutcome, netgraph::RouteError>]|
         -> bool {
            items
                .iter()
                .zip(plane)
                .all(|(got, want)| match (got, want) {
                    (Ok(g), Ok(w)) => g == &dcn_serve::wire::WireOutcome::from_outcome(w),
                    (Err(g), Err(w)) => g == &dcn_serve::wire::WireRouteError::from_error(w),
                    _ => false,
                })
        };

    for round in 0..6u64 {
        let server = RouteServer::spawn(
            RouteService::compile(topo(3, 2, 2), 4).expect("service"),
            ServeConfig::default(),
        )
        .expect("spawn");
        let mut client = ServeClient::connect(server.addr()).expect("connect");

        // One pipelined write: batch, mask push, batch. The server may
        // coalesce these any way timing falls; the contract is that each
        // batch answers wholly from whichever epoch admitted it.
        let id_pre = client.next_id();
        let id_mask = client.next_id();
        let id_post = client.next_id();
        client
            .send_frame(&Request::QueryBatch {
                id: id_pre,
                pairs: pairs.clone(),
            })
            .expect("send");
        if round % 2 == 1 {
            // Let the first batch land alone on some rounds so both
            // coalescing shapes are exercised.
            std::thread::sleep(Duration::from_millis(2));
        }
        client
            .send_frame(&Request::MaskPush {
                id: id_mask,
                clear: false,
                nodes: vec![failed.0],
                links: vec![],
            })
            .expect("send");
        client
            .send_frame(&Request::QueryBatch {
                id: id_post,
                pairs: pairs.clone(),
            })
            .expect("send");

        let mut new_epoch = 0;
        for _ in 0..3 {
            let (reply, _) = client.recv_reply().expect("reply");
            match reply {
                Reply::Batch { id, items } if id == id_pre => {
                    assert!(
                        matches(&items, &healthy),
                        "round {round}: pre-mask batch must answer wholly healthy"
                    );
                }
                Reply::Batch { id, items } if id == id_post => {
                    assert!(
                        matches(&items, &faulted),
                        "round {round}: post-mask batch must answer wholly faulted"
                    );
                }
                Reply::MaskAck { id, epoch, .. } => {
                    assert_eq!(id, id_mask);
                    new_epoch = epoch;
                }
                other => panic!("round {round}: unexpected reply {other:?}"),
            }
        }
        assert_eq!(new_epoch, 1);
        let drain = server.shutdown();
        assert_eq!(drain.epoch, 1);
    }
}

/// Mask pushes round-trip the invalidation report and clear restores the
/// healthy plane; out-of-range ids draw a Malformed reject without
/// touching the installed mask.
#[test]
fn mask_push_acks_and_validates() {
    let t = topo(3, 2, 2);
    let server = RouteServer::spawn(service(2), ServeConfig::default()).expect("spawn");
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    match client.push_mask(vec![0], vec![]).expect("reply") {
        Reply::MaskAck { epoch, .. } => assert_eq!(epoch, 1),
        other => panic!("unexpected reply {other:?}"),
    }
    // Out-of-range node id: rejected, epoch unmoved.
    let bad = t.network().node_count() as u32;
    match client.push_mask(vec![bad], vec![]).expect("reply") {
        Reply::Reject { reason, .. } => assert_eq!(reason, RejectReason::Malformed),
        other => panic!("unexpected reply {other:?}"),
    }
    match client.info().expect("reply") {
        Reply::InfoAck { epoch, shards, .. } => {
            assert_eq!(epoch, 1);
            assert_eq!(shards, 2);
        }
        other => panic!("unexpected reply {other:?}"),
    }
    match client.clear_mask().expect("reply") {
        Reply::MaskAck { epoch, .. } => assert_eq!(epoch, 2),
        other => panic!("unexpected reply {other:?}"),
    }
    server.shutdown();
}

/// VLB queries flow through the server and match the healthy plane's
/// obliviousness: same seed, same pair, same route every time.
#[test]
fn vlb_queries_are_seed_deterministic() {
    let server = RouteServer::spawn(service(2), ServeConfig::default()).expect("spawn");
    let mut a = ServeClient::connect(server.addr()).expect("connect");
    let mut b = ServeClient::connect(server.addr()).expect("connect");
    for (s, d) in [(0u32, 9u32), (3, 14), (7, 2)] {
        let id_a = a.next_id();
        let ra = a
            .call(&Request::QueryVlb {
                id: id_a,
                seed: 77,
                src: s,
                dst: d,
            })
            .expect("reply");
        let id_b = b.next_id();
        let rb = b
            .call(&Request::QueryVlb {
                id: id_b,
                seed: 77,
                src: s,
                dst: d,
            })
            .expect("reply");
        match (ra, rb) {
            (Reply::Route { outcome: oa, .. }, Reply::Route { outcome: ob, .. }) => {
                assert_eq!(oa, ob);
            }
            other => panic!("unexpected replies {other:?}"),
        }
    }
    server.shutdown();
}
