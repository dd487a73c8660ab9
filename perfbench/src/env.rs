//! Environment hygiene and run provenance.

use std::process::Command;

/// Environment knobs that override the defaults users get. The benchmark
/// measures those defaults, so it refuses to run with any of them set.
pub const FORBIDDEN_ENV: [&str; 4] = [
    "MS_RASTER_KERNEL",
    "MS_RASTER_STAGING",
    "MS_CHUNK_CACHE",
    "MS_CHUNK_SPLATS",
];

/// `Err` naming every forbidden knob that is set.
pub fn check_env() -> Result<(), String> {
    let set: Vec<&str> = FORBIDDEN_ENV
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the default kernel, staging, \
             chunk size and cache budget",
            set.join(", ")
        ))
    }
}

/// Where a record came from.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git rev-parse HEAD` of the working directory, or `unknown` outside
    /// a git checkout.
    pub git_sha: String,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
    /// Cores the OS reports (`available_parallelism`).
    pub nproc: usize,
    /// The `RAYON_NUM_THREADS` setting, or `unset`.
    pub rayon_num_threads: String,
    /// Workers in the process's pool.
    pub pool_threads: usize,
    /// The workload seed.
    pub seed: u64,
}

/// Stdout of a command (waited for), trimmed; `None` if it failed.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string()).filter(|t| !t.is_empty())
}

impl Provenance {
    /// Collect provenance for a run with `seed`.
    pub fn collect(seed: u64) -> Self {
        // Only ask git when the working directory is itself the checkout
        // root, so a copy nested inside some other repository does not
        // report that repository's commit.
        let git_sha = if std::path::Path::new(".git").exists() {
            command_output("git", &["rev-parse", "HEAD"])
        } else {
            None
        };
        Self {
            git_sha: git_sha.unwrap_or_else(|| "unknown".into()),
            rustc: command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rayon_num_threads: std::env::var("RAYON_NUM_THREADS")
                .unwrap_or_else(|_| "unset".into()),
            pool_threads: rayon::current_num_threads(),
            seed,
        }
    }

    /// JSON object fields (without braces).
    pub fn json_fields(&self) -> String {
        format!(
            "\"git_sha\": {}, \"rustc\": {}, \"nproc\": {}, \"rayon_num_threads\": {}, \"pool_threads\": {}, \"seed\": {}",
            json_str(&self.git_sha),
            json_str(&self.rustc),
            self.nproc,
            json_str(&self.rayon_num_threads),
            self.pool_threads,
            self.seed
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the OS
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
