//! The untraced, measured runs: what the end-to-end metrics come from.
//!
//! `run_long` and `run_large` drive the CLI's job path in-process
//! (`JobSpec::parse_json` → `jobs::execute` → `report_json`) with one
//! caller. `serve_mix` drives a `Daemon` with two closed-loop HTTP
//! clients. Both run whole cycles of their spec sequence.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sprint_game::EquilibriumCache;
use sprint_serve::http::client;
use sprint_serve::{
    execute, report_json, AdmissionConfig, Daemon, ExecOptions, JobReport, JobSpec, ServeConfig,
};
use sprint_sim::telemetry::Telemetry;

use crate::calib::{Probe, REFERENCE_LANES_PER_S};
use crate::check;
use crate::output::Tally;
use crate::specs::{Class, GenSpec, Shape, Workload};

/// Fresh-process cold jobs timed for `setup_s` on `run_*`.
const COLD_PROBES: usize = 3;
/// Timed `Daemon::start` restarts for `setup_s` on `serve_mix`.
pub const RESTART_PROBES: usize = 5;
/// HTTP clients (and daemon workers) in `serve_mix`: the host's 2 cores.
const CLIENTS: usize = 2;
/// Served jobs re-run in-process for the byte-identity check: every
/// `SAMPLE_EVERY`-th job (coprime to the block length, so every class
/// is sampled), at most `MAX_SAMPLES`.
const SAMPLE_EVERY: u64 = 7;
const MAX_SAMPLES: usize = 60;
/// Host-speed probe time after each `run_*` job, as a share of the job's
/// latency (at least one slice).
const PROBE_SHARE: f64 = 0.06;
/// A `run_*` job's host speed is the median probe rate after the jobs
/// within this many places of it: the host's speed wanders over seconds,
/// and a single ~60 ms slice is noisier than the job it stands for.
const PROBE_WINDOW: usize = 2;
/// Seed offset for `serve_mix` warm-up traffic, so warm-up sweeps never
/// put a measured sweep's game in the cache.
const WARMUP_SEED_OFFSET: u64 = 0x5EED;

/// One finished job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Sequence index.
    pub index: u64,
    /// Job class.
    pub class: Class,
    /// Start, seconds since the measured phase began.
    pub start_s: f64,
    /// Client-observed latency in ms.
    pub latency_ms: f64,
    /// Simulated agent-epochs.
    pub agent_epochs: u64,
    /// Host speed around the job: probe rate / reference rate.
    pub speed: f64,
}

/// Everything a measured run produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// `setup_s` samples.
    pub setup_s: Vec<f64>,
    /// Completed jobs of the measured phase, in completion order.
    pub jobs: Vec<JobRecord>,
    /// Whole cycles the measured phase covered.
    pub cycles: u64,
    /// Jobs attempted and failed.
    pub tally: Tally,
    /// Submissions refused with 429 / 503.
    pub refused: u64,
    /// Byte-identity comparisons made.
    pub compared: u64,
    /// `VmHWM` at the end of the measured phase, MiB.
    pub peak_rss_mb: f64,
    /// Every host-speed probe rate (lane-updates/s) of the run (none on
    /// `serve_mix`).
    pub probe_rates: Vec<f64>,
}

impl JobRecord {
    /// Latency in ms, at reference host speed or as measured.
    #[must_use]
    pub fn latency(&self, at_reference: bool) -> f64 {
        if at_reference {
            self.latency_ms * self.speed
        } else {
            self.latency_ms
        }
    }
}

impl Measured {
    /// Measured latencies (ms) of one class.
    #[must_use]
    pub fn latencies(&self, class: Class) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|j| j.class == class)
            .map(|j| j.latency_ms)
            .collect()
    }

    /// The run's host speed: median probe rate / reference rate; `None`
    /// when the run was not probed.
    #[must_use]
    pub fn host_speed(&self) -> Option<f64> {
        crate::stats::median(&self.probe_rates).map(|r| r / REFERENCE_LANES_PER_S)
    }

    /// The median latency (ms) of `class` within each cycle, per cycle,
    /// at reference host speed or as measured.
    /// Their median is the run's `job_p50_ms`: a cycle mixes benchmarks
    /// of different cost, and the pooled median of a few cycles sits on
    /// the boundary between two benchmarks' latency groups, where it
    /// jumps with single jobs; per-cycle medians do not.
    #[must_use]
    pub fn cycle_medians(&self, class: Class, cycle_len: u64, at_reference: bool) -> Vec<f64> {
        (0..self.cycles)
            .filter_map(|c| {
                let xs: Vec<f64> = self
                    .jobs
                    .iter()
                    .filter(|j| j.class == class && j.index / cycle_len == c)
                    .map(|j| j.latency(at_reference))
                    .collect();
                crate::stats::median(&xs)
            })
            .collect()
    }

    /// Per-cycle `(jobs/s, agent-epochs/s)`, at reference host speed or
    /// as measured. A cycle's wall time runs from its first job's start to
    /// its last job's end; at reference speed it is scaled by the cycle's
    /// latency-weighted host speed.
    #[must_use]
    pub fn cycle_rates(&self, cycle_len: u64, at_reference: bool) -> Vec<(f64, f64)> {
        #[derive(Clone)]
        struct Span {
            start: f64,
            end: f64,
            agent_epochs: u64,
            busy: f64,
            busy_at_reference: f64,
        }
        let empty = Span {
            start: f64::MAX,
            end: 0.0,
            agent_epochs: 0,
            busy: 0.0,
            busy_at_reference: 0.0,
        };
        let mut spans = vec![empty; self.cycles as usize];
        for j in &self.jobs {
            let c = (j.index / cycle_len) as usize;
            if let Some(span) = spans.get_mut(c) {
                span.start = span.start.min(j.start_s);
                span.end = span.end.max(j.start_s + j.latency_ms / 1e3);
                span.busy += j.latency(false);
                span.busy_at_reference += j.latency(true);
                if j.class == Class::Run {
                    span.agent_epochs += j.agent_epochs;
                }
            }
        }
        spans
            .into_iter()
            .filter(|s| s.end > s.start && s.busy > 0.0)
            .map(|s| {
                let scale = if at_reference {
                    s.busy_at_reference / s.busy
                } else {
                    1.0
                };
                let wall = (s.end - s.start) * scale;
                (cycle_len as f64 / wall, s.agent_epochs as f64 / wall)
            })
            .collect()
    }
}

/// Run one job through the CLI's path: parse, execute, serialize.
///
/// # Errors
///
/// The stringified program error.
pub fn run_job(
    json: &str,
    cache: &EquilibriumCache,
    opts: &ExecOptions,
) -> Result<(JobSpec, JobReport, String), String> {
    let spec = JobSpec::parse_json(json).map_err(|e| e.to_string())?;
    let report = execute(&spec, cache, opts, &mut Telemetry::noop()).map_err(|e| e.to_string())?;
    let bytes = report_json(&report).map_err(|e| e.to_string())?;
    Ok((spec, report, bytes))
}

/// Execution options with an engine pool of `jobs` threads.
#[must_use]
pub fn pool(jobs: usize) -> ExecOptions {
    ExecOptions {
        jobs,
        ..ExecOptions::default()
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The in-process workloads (`run_long`, `run_large`).
///
/// `cold_probe` spawns a fresh process that runs job `index` cold and
/// returns its seconds; `None` skips the `setup_s` probes.
#[allow(clippy::type_complexity)]
pub fn run_inprocess(
    workload: Workload,
    shape: &Shape,
    seed: u64,
    seconds: f64,
    cold_probe: Option<&dyn Fn(u64) -> Result<f64, String>>,
) -> Measured {
    let mut m = Measured::default();
    let mut host = Probe::new(shape.run_agents as usize);
    if let Some(probe) = cold_probe {
        for i in 0..COLD_PROBES as u64 {
            match probe(i) {
                Ok(s) => m.setup_s.push(s),
                Err(e) => m.tally.fail(format!("cold probe {i}: {e}")),
            }
        }
    }
    let cache = EquilibriumCache::default();
    let opts = pool(shape.pool_jobs);
    let cycle = workload.cycle_len();
    // Warm-up: one untimed cycle, so no timed job pays the process's
    // cold start (that is `setup_s`). At N=10⁶ the first few jobs of a
    // process also run slower while the allocator and the kernel's free
    // page pool settle; one job is not enough to hide that.
    for i in 0..cycle {
        let warm = workload.spec(shape, seed, i);
        let start = Instant::now();
        if let Err(e) = run_job(&warm.json, &cache, &opts) {
            m.tally.fail(format!("warm-up job {i}: {e}"));
        }
        host.slices_for(start.elapsed(), PROBE_SHARE, &mut m.probe_rates);
    }
    let began = Instant::now();
    // Probe time is left out of the jobs' clock, and each measured job
    // keeps the rates probed right after it.
    let mut probing = Duration::ZERO;
    let mut after_job: Vec<Vec<f64>> = Vec::new();
    let mut first_bytes = None;
    loop {
        for i in m.cycles * cycle..(m.cycles + 1) * cycle {
            let g = workload.spec(shape, seed, i);
            m.tally.attempted += 1;
            let start = Instant::now();
            let out = run_job(&g.json, &cache, &opts);
            let latency = start.elapsed();
            let latency_ms = latency.as_secs_f64() * 1e3;
            let start_s = (start.duration_since(began) - probing).as_secs_f64();
            let probe_start = Instant::now();
            let mut rates = Vec::new();
            host.slices_for(latency, PROBE_SHARE, &mut rates);
            probing += probe_start.elapsed();
            m.probe_rates.extend(&rates);
            match out
                .and_then(|(spec, report, bytes)| check::report(&spec, &report).map(|()| bytes))
            {
                Ok(bytes) => {
                    if i == 0 {
                        first_bytes = Some(bytes);
                    }
                    m.jobs.push(JobRecord {
                        index: i,
                        class: g.class,
                        start_s,
                        latency_ms,
                        agent_epochs: g.agent_epochs,
                        speed: f64::NAN,
                    });
                    after_job.push(rates);
                }
                Err(e) => m.tally.fail(format!("job {i}: {e}")),
            }
        }
        m.cycles += 1;
        // Stop at the cycle boundary nearest to `seconds`.
        let now = began.elapsed().as_secs_f64();
        let per_cycle = now / m.cycles as f64;
        if now + per_cycle / 2.0 > seconds {
            break;
        }
    }
    for (k, job) in m.jobs.iter_mut().enumerate() {
        let window =
            &after_job[k.saturating_sub(PROBE_WINDOW)..(k + PROBE_WINDOW + 1).min(after_job.len())];
        job.speed =
            crate::stats::median(&window.concat()).map_or(f64::NAN, |r| r / REFERENCE_LANES_PER_S);
    }
    m.peak_rss_mb = peak_rss_mb();
    // Output check: job 0 again on the other engine pool size must give
    // the same bytes.
    let other = if shape.pool_jobs == 1 { 2 } else { 1 };
    let g = workload.spec(shape, seed, 0);
    m.tally.attempted += 1;
    match (run_job(&g.json, &cache, &pool(other)), first_bytes) {
        (Ok((_, _, bytes)), Some(first)) if bytes == first => m.compared += 1,
        (Ok(_), _) => m.tally.fail(format!(
            "job 0 bytes differ between {} and {other} engine threads",
            shape.pool_jobs
        )),
        (Err(e), _) => m
            .tally
            .fail(format!("job 0 at {other} engine threads: {e}")),
    }
    m
}

/// Daemon configuration for `serve_mix`, journal and spool under `dir`.
#[must_use]
pub fn serve_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: CLIENTS,
        jobs: 1,
        jobs_cap: 0,
        spool: Some(dir.join("spool")),
        event_log: None,
        snapshot_every_ms: 200,
        journal: Some(dir.join("journal.jsonl")),
        admission: AdmissionConfig::default(),
    }
}

/// Hands out sequence indices to the clients and ends the run on a
/// cycle boundary once the deadline has passed.
struct Dispenser {
    state: Mutex<(u64, Option<u64>)>,
    start: u64,
    cycle: u64,
    deadline: Option<Instant>,
}

impl Dispenser {
    fn new(start: u64, cycle: u64, deadline: Option<Instant>) -> Dispenser {
        Dispenser {
            state: Mutex::new((start, deadline.is_none().then_some(start + cycle))),
            start,
            cycle,
            deadline,
        }
    }

    fn take(&self) -> Option<u64> {
        let mut state = self.state.lock().expect("dispenser poisoned");
        let (next, stop) = &mut *state;
        if stop.is_none() && self.deadline.is_some_and(|d| Instant::now() >= d) {
            let whole = (*next - self.start).div_ceil(self.cycle).max(1);
            *stop = Some(self.start + whole * self.cycle);
        }
        if stop.is_some_and(|s| *next >= s) {
            return None;
        }
        *next += 1;
        Some(*next - 1)
    }
}

/// One served job as a client saw it.
#[derive(Debug)]
pub struct Served {
    /// The generated spec.
    pub gen: GenSpec,
    /// When the request was sent.
    pub started: Instant,
    /// Round-trip latency.
    pub latency: Duration,
    /// HTTP status.
    pub status: u16,
    /// Response body (the canonical report on 200).
    pub body: String,
}

/// Drive `addr` with [`CLIENTS`] closed-loop clients over the sequence
/// from `start`, for one cycle or, with a deadline, until the first
/// cycle boundary past it. `visit` sees each job on its client thread.
pub fn drive_clients(
    addr: &str,
    workload: Workload,
    shape: &Shape,
    seed: u64,
    start: u64,
    deadline: Option<Instant>,
    visit: &(dyn Fn(Served) + Sync),
) {
    let dispenser = Dispenser::new(start, workload.cycle_len(), deadline);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                while let Some(i) = dispenser.take() {
                    let gen = workload.spec(shape, seed, i);
                    let t0 = Instant::now();
                    let (status, body) =
                        client::request(addr, "POST", "/v1/jobs?wait=true", Some(&gen.json))
                            .unwrap_or_else(|e| (0, e.to_string()));
                    visit(Served {
                        gen,
                        started: t0,
                        latency: t0.elapsed(),
                        status,
                        body,
                    });
                }
            });
        }
    });
}

/// Drain a daemon and wait for every thread it started.
///
/// # Errors
///
/// Drain or join failures.
pub fn stop(handle: sprint_serve::DaemonHandle) -> Result<(), String> {
    handle.drain().map_err(|e| e.to_string())?;
    handle.join().map_err(|e| e.to_string())
}

/// A fresh, empty directory `dir` (removing what an earlier run left).
///
/// # Errors
///
/// I/O errors.
pub fn fresh_dir(dir: &Path) -> std::io::Result<PathBuf> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    Ok(dir.to_path_buf())
}

/// The `serve_mix` workload, with journal and spool under `work`.
///
/// # Errors
///
/// Daemon start-up or work-directory failures (job failures are counted,
/// not returned).
pub fn run_served(
    workload: Workload,
    shape: &Shape,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<Measured, String> {
    let io = |e: std::io::Error| e.to_string();
    let mut m = Measured::default();
    // Set-up: an untimed lifetime of the same traffic leaves a journal
    // and spool; each timed restart replays, recovers and compacts them.
    let setup = serve_config(&fresh_dir(&work.join("setup")).map_err(io)?);
    let daemon = Daemon::start(&setup).map_err(|e| e.to_string())?;
    let addr = daemon.addr().to_string();
    let warm_failures = Mutex::new(0u64);
    let count_failure = |s: Served| {
        if s.status != 200 {
            *warm_failures.lock().expect("poisoned") += 1;
        }
    };
    drive_clients(
        &addr,
        workload,
        shape,
        seed.wrapping_add(WARMUP_SEED_OFFSET),
        0,
        None,
        &count_failure,
    );
    stop(daemon)?;
    for _ in 0..RESTART_PROBES {
        let t0 = Instant::now();
        let daemon = Daemon::start(&setup).map_err(|e| e.to_string())?;
        m.setup_s.push(t0.elapsed().as_secs_f64());
        stop(daemon)?;
    }
    let warm_failed = *warm_failures.lock().expect("poisoned");
    if warm_failed > 0 {
        m.tally.fail(format!("{warm_failed} set-up jobs failed"));
    }

    // Measured lifetime on a fresh journal and spool.
    let daemon = Daemon::start(&serve_config(&fresh_dir(&work.join("run")).map_err(io)?))
        .map_err(|e| e.to_string())?;
    let addr = daemon.addr().to_string();
    // One warm-up job (other seed) so the timed phase starts warm.
    let warm = workload.spec(shape, seed.wrapping_add(WARMUP_SEED_OFFSET), 0);
    match client::request(&addr, "POST", "/v1/jobs?wait=true", Some(&warm.json)) {
        Ok((200, _)) => {}
        Ok((status, body)) => m.tally.fail(format!("warm-up job: HTTP {status}: {body}")),
        Err(e) => m.tally.fail(format!("warm-up job: {e}")),
    }
    let served = Mutex::new(Vec::new());
    let collect = |s: Served| served.lock().expect("poisoned").push(s);
    let began = Instant::now();
    let deadline = began + Duration::from_secs_f64(seconds);
    drive_clients(&addr, workload, shape, seed, 0, Some(deadline), &collect);
    m.peak_rss_mb = peak_rss_mb();
    stop(daemon)?;

    let served = served.into_inner().expect("poisoned");
    let max_index = served.iter().map(|s| s.gen.index).max().unwrap_or(0);
    m.cycles = (max_index + 1) / workload.cycle_len();
    let mut samples = Vec::new();
    for s in served {
        m.tally.attempted += 1;
        if s.status == 429 || s.status == 503 {
            m.refused += 1;
        }
        let verdict = if s.status == 200 {
            check::report_bytes(&s.gen.spec, &s.body)
        } else {
            Err(format!("HTTP {}: {}", s.status, s.body))
        };
        if let Err(e) = verdict {
            m.tally
                .fail(format!("job {} ({}): {e}", s.gen.index, s.gen.class.name()));
            continue;
        }
        if s.gen.index % SAMPLE_EVERY == 0 && samples.len() < MAX_SAMPLES {
            samples.push((s.gen.clone(), s.body.clone()));
        }
        m.jobs.push(JobRecord {
            index: s.gen.index,
            class: s.gen.class,
            start_s: s.started.duration_since(began).as_secs_f64(),
            latency_ms: s.latency.as_secs_f64() * 1e3,
            agent_epochs: s.gen.agent_epochs,
            // Not probed: see `calib`.
            speed: 1.0,
        });
    }
    // Output check: sampled served reports must equal in-process bytes.
    let cache = EquilibriumCache::default();
    for (gen, served_bytes) in samples {
        match run_job(&gen.json, &cache, &pool(1)) {
            Ok((_, _, bytes)) if bytes == served_bytes => m.compared += 1,
            Ok(_) => m.tally.fail(format!(
                "job {}: served bytes differ from in-process",
                gen.index
            )),
            Err(e) => m.tally.fail(format!("job {} in-process: {e}", gen.index)),
        }
    }
    Ok(m)
}
