//! Metric tables, the result line, and run provenance.

use std::fmt::Write as _;

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("job_p50_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("agent_epochs_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, with units.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("jobs.parse_us", "us"),
    ("scenario.build_ms", "ms"),
    ("solve.cold_ms", "ms"),
    ("solve.hit_ms", "ms"),
    ("solve.iterations", "count"),
    ("streams.spawn_ms", "ms"),
    ("streams.drop_ms", "ms"),
    ("engine.fixed_ms", "ms"),
    ("engine.ns_per_agent_epoch", "ns"),
    ("engine.pool_speedup", "ratio"),
    ("jobs.report_json_us", "us"),
    ("jobs.report_bytes", "count"),
    ("run.unattributed_frac", "ratio"),
    ("job.self_us", "us"),
    ("trace.overhead_ms", "ms"),
    ("serve.overhead_p50_ms", "ms"),
    ("journal.append_p50_us", "us"),
    ("journal.append_p99_us", "us"),
    ("journal.replay_ms", "ms"),
    ("journal.records", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.misses", "count"),
    ("admission.refused", "count"),
    ("sweep.trials_per_s", "1/s"),
    ("cooperative.search_ms", "ms"),
    ("control.ns_per_agent_epoch", "ns"),
];

/// Jobs attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs attempted (measured jobs plus output checks).
    pub attempted: u64,
    /// Failed, refused or mismatched jobs.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one failure.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// One reported metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit from the same table.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Look a metric's unit up in `table` and pair it with `value`.
///
/// # Panics
///
/// If `name` is not in `table` (a harness bug).
#[must_use]
pub fn metric(table: &[(&'static str, &'static str)], name: &str, value: f64) -> Metric {
    let (name, unit) = *table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
    Metric { name, unit, value }
}

/// Format a float as JSON (non-finite values become `null`).
#[must_use]
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Escape a string as a JSON string literal.
#[must_use]
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct","attempted","failed","metrics"}`.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Where and with what a run was made: cores, CPU, toolchain, commit.
#[must_use]
pub fn provenance() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", string(&cpu)),
        ("rustc", string(env!("E2EBENCH_RUSTC"))),
        ("git_commit", string(&git_commit())),
        ("estimator", string("median")),
    ]
}

/// The checkout's commit, read from `.git` without spawning git;
/// `unavailable` outside a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|packed| {
                        packed
                            .lines()
                            .find(|l| l.ends_with(reference))
                            .and_then(|l| l.split_whitespace().next().map(str::to_string))
                    })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unavailable".to_string()
    } else {
        commit.to_string()
    }
}

/// Render `(key, raw JSON value)` pairs as a JSON object.
#[must_use]
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}
