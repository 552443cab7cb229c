//! The host fingerprint printed with every record, so records taken on
//! different hosts, toolchains or builds are never compared silently.

use std::path::Path;

/// Where and how a record was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`, or `unknown`.
    pub cpu: String,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// The checkout's git commit, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Fingerprint {
    /// Probes the current host and checkout.
    pub fn probe() -> Fingerprint {
        Fingerprint {
            nproc: nproc(),
            cpu: cpu_model().unwrap_or_else(|| "unknown".into()),
            rustc: rustc_version().unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// One JSON object: the host fields first, then the record's commit
    /// and `seed`.
    pub fn json(&self, seed: u64) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\", \"commit\": \"{}\", \"seed\": {}}}",
            self.nproc,
            escape(&self.cpu),
            escape(&self.rustc),
            self.profile,
            escape(&self.commit),
            seed
        )
    }
}

/// Worker threads the host offers (the load uses at most this many client
/// threads and connections).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .collect::<String>()
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

fn rustc_version() -> Option<String> {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let out = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Reads `HEAD` under `root/.git` without running git, following one
/// symbolic ref through loose or packed refs.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, r)| *r == name)
        .map(|(id, _)| id.to_string())
}
