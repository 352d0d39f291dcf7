//! Order statistics, process counters and the environment record.

use std::process::Command;

use polyinv_api::Json;

/// The median of `values` (`0` for an empty slice), as Python's
/// `statistics.median` computes it.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The three quartile cut points of `values`, as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two values; one value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3i64) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = sorted[j - 1] * (4.0 - delta) / 4.0 + sorted[j] * delta / 4.0;
    }
    out
}

/// The value below which `q` (0–1) of `values` lie, by the nearest-rank rule.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// User plus system CPU seconds of this process so far, all threads
/// (including exited ones) together. Linux only; `0` elsewhere.
pub fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line, in clock ticks (USER_HZ).
    let Some(rest) = stat.rfind(')').map(|at| &stat[at + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |index: usize| fields.get(index).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / CLOCK_TICKS_PER_SECOND,
        _ => 0.0,
    }
}

/// `USER_HZ`, fixed at 100 on every Linux architecture this runs on.
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// Peak resident set size of this process in MiB (`VmHWM`); `0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// The machine and build a result was measured on.
pub fn environment() -> Json {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let (commit, dirty) = git_state();
    Json::object(vec![
        ("nproc", Json::Number(nproc as f64)),
        (
            "polyinv_threads",
            Json::string(std::env::var("POLYINV_THREADS").unwrap_or_default()),
        ),
        (
            "threads_used",
            Json::Number(polyinv_qcqp::configured_threads() as f64),
        ),
        ("cpu_model", Json::string(cpu_model)),
        ("rustc", Json::string(rustc)),
        ("git_commit", Json::string(commit)),
        (
            "git_dirty",
            match dirty {
                Some(dirty) => Json::Bool(dirty),
                None => Json::Null,
            },
        ),
    ])
}

/// The commit of the working directory and whether the tree is dirty —
/// only when the working directory is itself the top of a git checkout
/// (an export of the sources without `.git` reports `unknown`).
fn git_state() -> (String, Option<bool>) {
    let unknown = ("unknown".to_string(), None);
    let Ok(cwd) = std::env::current_dir().and_then(|dir| dir.canonicalize()) else {
        return unknown;
    };
    let top = command_output("git", &["rev-parse", "--show-toplevel"])
        .and_then(|top| std::path::PathBuf::from(top).canonicalize().ok());
    if top.as_deref() != Some(cwd.as_path()) {
        return unknown;
    }
    let Some(commit) = command_output("git", &["rev-parse", "HEAD"]) else {
        return unknown;
    };
    let dirty = Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| !out.stdout.is_empty());
    (commit, dirty)
}

/// The trimmed standard output of a command that exited successfully.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// FNV-1a over a string: a stable digest for count fingerprints (the
/// standard hasher is not guaranteed to be stable across releases).
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&values, 0.9), 9.0);
    }
}
