//! Process memory probes for run manifests.
//!
//! The crate forbids `unsafe`, so there is no `getrusage` call here: on
//! Linux the kernel already exports the numbers in `/proc/self/status`,
//! and that file is the most portable unsafe-free source of
//! peak-resident-set truth. On platforms without it the probes return
//! `None` — callers must not conflate "unavailable" with "the process
//! used no memory", and manifests serialize the distinction as JSON
//! `null`.

/// Peak resident set size (`VmHWM`) of this process in bytes, or `None`
/// when the platform does not expose it.
///
/// The high-water mark is monotone over the process lifetime: sampling it
/// after an experiment phase bounds the phase's resident footprint from
/// above (earlier phases may own part of the peak — manifests record it
/// as a run-level, not phase-level, figure).
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_bytes("VmHWM:")
}

/// Current resident set size (`VmRSS`) in bytes, or `None` when
/// unavailable.
pub fn current_rss_bytes() -> Option<u64> {
    proc_status_bytes("VmRSS:")
}

/// Reads a `kB`-denominated field out of `/proc/self/status`.
fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_field(&status, field)
}

fn parse_status_field(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_kb_fields() {
        let status = "Name:\tx\nVmHWM:\t  123456 kB\nVmRSS:\t   4096 kB\n";
        assert_eq!(parse_status_field(status, "VmHWM:"), Some(123_456 * 1024));
        assert_eq!(parse_status_field(status, "VmRSS:"), Some(4096 * 1024));
        assert_eq!(parse_status_field(status, "VmPeak:"), None);
        assert_eq!(parse_status_field("", "VmHWM:"), None);
    }

    #[test]
    fn malformed_fields_are_unavailable_not_zero() {
        assert_eq!(parse_status_field("VmHWM:\tgarbage kB\n", "VmHWM:"), None);
        assert_eq!(parse_status_field("VmHWM:\n", "VmHWM:"), None);
    }

    #[test]
    fn live_probes_are_sane() {
        // Touch and free 64 MiB so the peak must exceed the current level
        // by far more than the few pages the kernel's per-CPU RSS counters
        // can be off by while other test threads allocate and exit. A
        // bare `peak >= current` across two reads fails on that noise.
        const SPIKE: usize = 64 << 20;
        drop(std::hint::black_box(vec![1u8; SPIKE]));
        let cur = current_rss_bytes();
        let peak = peak_rss_bytes();
        if let Some(peak) = peak {
            // A running test binary occupies at least a page and the peak
            // bounds the current level, here with the freed spike in it.
            assert!(peak >= 4096, "peak {peak}");
            let cur = cur.expect("VmRSS beside VmHWM");
            assert!(
                peak >= cur + SPIKE as u64 / 2,
                "peak {peak} < current {cur} + half of a {SPIKE}-byte spike"
            );
        }
    }
}
