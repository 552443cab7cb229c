//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host fingerprint, human-readable notes, and as its last
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! Exits non-zero when an output fails its check.
//!
//! `perfbench compare <before> <after>` reads two saved outputs and
//! prints each metric's ratio, refusing when their host fingerprints
//! (commit and seed aside) differ.

use perfbench::fingerprint::Fingerprint;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::Sizes;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Writes the traced run's spans as a Chrome trace under `.perfbench-out/`.
fn write_trace(args: &Args) -> Result<String, String> {
    let spans = dcn_telemetry::drain_spans();
    let dir = std::path::Path::new(".perfbench-out");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    std::fs::write(&path, dcn_telemetry::chrome_trace_json(&spans)).map_err(|e| e.to_string())?;
    Ok(format!(
        "chrome trace: {} ({} spans)",
        path.display(),
        spans.len()
    ))
}

/// A saved run output: its host fingerprint (commit and seed cut off, as
/// a before/after pair differs in those), and its metrics.
fn read_record(path: &str) -> Result<(String, Vec<(String, f64)>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let fingerprint = text
        .lines()
        .find_map(|l| l.strip_prefix("fingerprint: "))
        .and_then(|f| f.split(", \"commit\": ").next())
        .ok_or_else(|| format!("{path}: no fingerprint line"))?;
    let result = text.lines().last().unwrap_or_default();
    let parts: Vec<&str> = result.split("{\"value\": ").collect();
    let mut metrics = Vec::new();
    for pair in parts.windows(2) {
        let name = pair[0].rsplit('"').nth(1).unwrap_or_default();
        let value = pair[1].split(',').next().unwrap_or_default();
        let value = value
            .parse()
            .map_err(|_| format!("{path}: bad value for {name}"))?;
        metrics.push((name.to_string(), value));
    }
    Ok((fingerprint.to_string(), metrics))
}

fn compare(before: &str, after: &str) -> Result<(), String> {
    let (fa, ma) = read_record(before)?;
    let (fb, mb) = read_record(after)?;
    if fa != fb {
        return Err(format!(
            "refusing to compare records from different hosts or builds:\n  {before}: {fa}\n  {after}: {fb}"
        ));
    }
    for (name, a) in &ma {
        if let Some((_, b)) = mb.iter().find(|(n, _)| n == name) {
            println!("{name:32} {a:>16.6} {b:>16.6} {:>9.4}", b / a);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [cmd, before, after] = argv.as_slice() {
        if cmd == "compare" {
            return match compare(before, after) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            };
        }
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <serve_batch|serve_faulted|analyze> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    println!("fingerprint: {}", Fingerprint::probe().json(args.seed));
    let outcome = match perfbench::run(
        &args.workload,
        &Sizes::standard(),
        args.seed,
        args.seconds,
        args.trace,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    if args.trace {
        match write_trace(&args) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("error: writing the trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    match outcome.json_line(table) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: an output failed its correctness check");
        ExitCode::FAILURE
    }
}
