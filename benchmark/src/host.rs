//! Who measured: the host fingerprint written into every result file.

use serde_json::{json, Value};
use std::process::Command;

/// The current commit, if the working directory is a git checkout. The
/// ceiling keeps git from searching above the working directory.
fn git_commit() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent()?)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> Option<String> {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()?
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_owned())
}

/// Cores, CPU model, compiler, commit and build profile. Anything the
/// host will not tell reads `"unknown"` (a driver checkout is not a git
/// repository, for one).
pub fn fingerprint() -> Value {
    let unknown = || "unknown".to_owned();
    json!({
        "nproc": std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        "cpu_model": cpu_model().unwrap_or_else(unknown),
        "rustc": strober_jit::rustc_version().map_or_else(unknown, str::to_owned),
        "git_commit": git_commit().unwrap_or_else(unknown),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
    })
}
