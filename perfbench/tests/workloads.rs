//! The benchmark's own checks, at tiny sizes.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{run, Sizes, WORKLOADS};

const SECONDS: f64 = 0.3;

/// Traced runs switch process-global telemetry on and off and reset its
/// registry, so the tests take turns.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let _turn = serial();
    let sizes = Sizes::tiny();
    for &w in WORKLOADS {
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let out = run(w, &sizes, 3, SECONDS, trace).expect("tiny workload runs");
            assert!(out.correct, "{w}: {:?}", out.notes);
            assert!(out.attempted >= 1, "{w}");
            assert_eq!(out.failed, 0, "{w}");
            let line = out.json_line(table).expect("every metric measured");
            for &(name, unit) in table {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{w}: no {name}"));
                let tail = &line[at..];
                let end = tail.find('}').expect("closed entry");
                assert!(
                    tail[..end].ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{w}: {name} lacks unit {unit}"
                );
            }
            if !trace {
                for &(name, _) in END_TO_END {
                    let v = out.get(name).expect("measured");
                    assert!(v > 0.0, "{w}: end-to-end {name} reads {v}");
                }
            }
        }
    }
}

#[test]
fn traced_serve_run_prices_the_layers_it_exercises() {
    let _turn = serial();
    let sizes = Sizes::tiny();
    let out = run("serve_faulted", &sizes, 5, SECONDS, true).expect("tiny workload runs");
    assert!(out.correct, "{:?}", out.notes);
    for name in [
        "fib.walk_ns",
        "fib.query_ns",
        "fib.batch_ns_per_item",
        "fib.vlb_ns",
        "fib.fallback_us",
        "fib.apply_mask_incr_us",
        "fib.apply_mask_repair_us",
        "fib.patch_hit_ratio",
        "wire.req_decode_ns",
        "serve.group_items",
        "serve.layer_ns_per_item",
        "serve.mask_rtt_p50_us",
    ] {
        assert!(out.get(name).unwrap_or(0.0) > 0.0, "{name} not measured");
    }
    let lookups = out.get("serve.lookups_per_s").expect("measured");
    let layer = out.get("serve.layer_ns_per_item").expect("measured");
    let transport = out.get("serve.transport_ns_per_item").expect("measured");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    assert!((layer + transport - nproc * 1e9 / lookups).abs() < 1e-6 * layer.max(1.0));
}

#[test]
fn a_corrupted_reply_byte_fails_the_gate() {
    let _turn = serial();
    for w in ["serve_batch", "serve_faulted"] {
        let mut sizes = Sizes::tiny();
        sizes.serve_batch.corrupt_reply = true;
        sizes.serve_faulted.corrupt_reply = true;
        let out = run(w, &sizes, 3, SECONDS, false).expect("tiny workload runs");
        assert!(!out.correct, "{w}: corrupted reply passed the gate");
        assert!(
            out.notes.iter().any(|n| n.starts_with("mismatch:")),
            "{w}: {:?}",
            out.notes
        );
    }
}

#[test]
fn a_second_seed_runs_clean() {
    let _turn = serial();
    let sizes = Sizes::tiny();
    for &w in WORKLOADS {
        let out = run(w, &sizes, 1_000_003, SECONDS, false).expect("tiny workload runs");
        assert!(out.correct, "{w}: {:?}", out.notes);
        assert_eq!(out.failed, 0, "{w}");
    }
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(run("nope", &Sizes::tiny(), 1, SECONDS, false).is_err());
}
