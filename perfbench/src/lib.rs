//! The repository's benchmark: three workloads over the route server and
//! the analysis pipeline, each printing its end-to-end metrics (or, in a
//! traced run, its per-layer metrics) as one JSON line after checking
//! every output against an in-process reference. See `README.md`.

pub mod analyze;
pub mod client;
pub mod fingerprint;
pub mod report;
pub mod serve;
pub mod stats;

use analyze::AnalyzeSizes;
use report::{Outcome, PER_LAYER};
use serve::ServeSizes;

/// The workloads, by their command-line names.
pub const WORKLOADS: &[&str] = &["serve_batch", "serve_faulted", "analyze"];

/// Sizes of every workload.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `serve_batch`.
    pub serve_batch: ServeSizes,
    /// `serve_faulted`.
    pub serve_faulted: ServeSizes,
    /// `analyze`.
    pub analyze: AnalyzeSizes,
}

impl Sizes {
    /// The sizes `BENCHMARK.json` runs.
    pub fn standard() -> Sizes {
        Sizes {
            serve_batch: ServeSizes::batch(),
            serve_faulted: ServeSizes::faulted(),
            analyze: AnalyzeSizes::standard(),
        }
    }

    /// Tiny instances of the same shapes, for the benchmark's own tests.
    pub fn tiny() -> Sizes {
        let tiny_serve = |s: ServeSizes| ServeSizes {
            params: (3, 1, 2),
            chunk_frames: 64,
            ..s
        };
        Sizes {
            serve_batch: ServeSizes {
                batch: 16,
                ..tiny_serve(ServeSizes::batch())
            },
            serve_faulted: ServeSizes {
                mask_every: 16,
                hot_pairs: 32,
                ..tiny_serve(ServeSizes::faulted())
            },
            analyze: AnalyzeSizes {
                params: (3, 1, 2),
                diurnal: (1, 16),
                incast: (1, 4, 30_000),
                rebuild: (1, 6, 3, 16_000),
                setup_reps: 2,
                bfs_sources: 8,
                apl_samples: 8,
            },
        }
    }
}

/// Runs `workload` for `seconds` of measurement. With `trace` unset the
/// outcome carries every end-to-end metric; with it set, every per-layer
/// metric (layers the workload does not exercise read 0 and are named on
/// a `not exercised:` note).
///
/// # Errors
///
/// An unknown workload, or a set-up or engine failure.
pub fn run(
    workload: &str,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match workload {
        "serve_batch" => serve::run(&sizes.serve_batch, seed, seconds, trace, &mut out)?,
        "serve_faulted" => serve::run(&sizes.serve_faulted, seed, seconds, trace, &mut out)?,
        "analyze" => analyze::run(&sizes.analyze, seed, seconds, trace, &mut out)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    }
    let rss = dcn_telemetry::peak_rss_bytes().ok_or("peak RSS is unavailable on this host")?;
    out.set("peak_rss_mb", rss as f64 / f64::from(1u32 << 20));
    if trace {
        let idle = out.fill_missing(PER_LAYER);
        if !idle.is_empty() {
            out.notes.push(format!("not exercised: {}", idle.join(" ")));
        }
    }
    Ok(out)
}
