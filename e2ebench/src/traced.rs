//! The traced run: per-layer metrics from spans recorded around each
//! public call the job path makes, from outside the program.
//!
//! Three parts, the same on every workload:
//! - **Run stages**, on the workload's own Run specs: before each
//!   traced job the same spec runs untraced (the reference latency);
//!   the traced replica then repeats `execute_run`'s steps one public
//!   call at a time under a `job` root span. Probes outside the root
//!   time a cold solve, the engine at one epoch, the engine at the other
//!   pool size, and a cooperative search.
//! - **Serve layers**, on one cycle of `serve_mix`-class traffic against
//!   a journaled daemon, plus direct `Journal::append` and replay calls.
//! - **Multi-trial layers**, on that cycle's sweep and chaos specs.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use sprint_game::EquilibriumCache;
use sprint_serve::journal::{self, Journal, Transition};
use sprint_serve::{
    report_json, Daemon, JobKind, JobOutcome, JobReport, JobSpec, RunSummary, SCHEMA_VERSION,
};
use sprint_sim::control::ControlConfig;
use sprint_sim::engine::{self, RunGuard, SimConfig};
use sprint_sim::faults::FaultPlan;
use sprint_sim::policy::{PolicyKind, SprintPolicy};
use sprint_sim::runner;
use sprint_sim::scenario::Scenario;
use sprint_sim::sweep::{run_sweep_shared, Supervision};
use sprint_sim::telemetry::Telemetry;
use sprint_workloads::Benchmark;

use crate::drive::{self, Served};
use crate::output::{metric, Metric, Tally, PER_LAYER};
use crate::specs::{Class, GenSpec, Shape, Workload};
use crate::stats::{median, tail_percentile};
use crate::trace::{self, Tracer};

/// `Journal::append` calls timed (Submitted, Started, Done per job), so
/// that p99 has at least ten samples beyond it.
const JOURNAL_APPENDS: u64 = 1_200;
/// Sweep and chaos specs timed directly.
const MULTI_PROBES: u64 = 3;

/// A traced run's outcome.
#[derive(Debug, Default)]
pub struct Traced {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Jobs attempted and failed.
    pub tally: Tally,
    /// Every span recorded.
    pub spans: Vec<trace::Span>,
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64() * 1e3
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Per-job numbers from the Run-stage part that are not span durations.
#[derive(Default)]
struct RunFacts {
    untraced_ms: Vec<f64>,
    unattributed: Vec<f64>,
    iterations: Vec<f64>,
    report_bytes: Vec<f64>,
    ns_per_agent_epoch: Vec<f64>,
    pool_speedup: Vec<f64>,
}

/// Run the traced workload and derive every per-layer metric.
///
/// `multi` sizes the serve-layer and multi-trial traffic (the
/// `serve_mix` shape, or its smoke size in tests).
///
/// # Errors
///
/// Daemon or work-directory failures.
pub fn run(
    workload: Workload,
    shape: &Shape,
    multi: &Shape,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<Traced, String> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch);
    let mut out = Traced::default();
    let mut facts = RunFacts::default();

    let cache = EquilibriumCache::default();
    let opts = drive::pool(shape.pool_jobs);
    let warm = workload.spec(shape, seed, 0);
    if let Err(e) = drive::run_job(&warm.json, &cache, &opts) {
        out.tally.fail(format!("warm-up: {e}"));
    }
    let began = Instant::now();
    let cycle = workload.cycle_len();
    let mut index = 0;
    loop {
        let g = workload.spec(shape, seed, index);
        index += 1;
        if g.class == Class::Run {
            out.tally.attempted += 1;
            if let Err(e) = trace_run(&g, shape, &cache, &mut tr, &mut facts) {
                tr.close_all();
                out.tally.fail(format!("traced job {}: {e}", g.index));
            }
        }
        // Whole cycles; stop when another would end past `seconds`.
        if index % cycle == 0 {
            let elapsed = began.elapsed().as_secs_f64();
            if elapsed + elapsed / (index / cycle) as f64 > seconds {
                break;
            }
        }
    }

    let mut serve = ServeFacts::default();
    trace_serve(multi, seed, work, &mut tr, &mut serve, &mut out)?;
    let multi_facts = trace_multi(multi, seed, &mut tr, &mut out);

    out.metrics = derive(tr.spans(), &facts, &serve, &multi_facts);
    out.spans = tr.into_spans();
    Ok(out)
}

/// Trace one Run job: untraced reference, traced replica, probes.
fn trace_run(
    g: &GenSpec,
    shape: &Shape,
    cache: &EquilibriumCache,
    tr: &mut Tracer,
    facts: &mut RunFacts,
) -> Result<(), String> {
    let job = g.index;
    let t0 = Instant::now();
    let (_, _, reference) = drive::run_job(&g.json, cache, &drive::pool(shape.pool_jobs))?;
    let untraced = ms(t0, Instant::now());

    // The replica: `execute_run`'s steps, one public call per span.
    let root = tr.open("job", job);
    let spec = tr
        .time("jobs.parse", job, || JobSpec::parse_json(&g.json))
        .map_err(err)?;
    let JobKind::Run { spec: run } = &spec.job else {
        return Err("not a Run spec".into());
    };
    let scenario = tr
        .time("scenario.build", job, || run.scenario())
        .map_err(err)?;
    let (mut policy, solve): (Box<dyn SprintPolicy>, _) = match run.policy {
        PolicyKind::EquilibriumThreshold => {
            let (policy, summary) = tr
                .time("solve.hit", job, || {
                    scenario.equilibrium_policy_cached_cold(cache)
                })
                .map_err(err)?;
            (Box::new(policy), Some(summary))
        }
        kind => (
            tr.time("policy.build", job, || {
                scenario.policy(kind, run.seed, &mut Telemetry::noop())
            })
            .map_err(err)?,
            None,
        ),
    };
    let config = tr
        .time("engine.config", job, || {
            SimConfig::new(*scenario.game(), scenario.epochs(), run.seed)
                .map(|c| c.with_options(*scenario.options()))
        })
        .map_err(err)?;
    let mut streams = tr
        .time("streams.spawn", job, || {
            scenario.population().spawn_streams(run.seed)
        })
        .map_err(err)?;
    let guard = RunGuard {
        deadline: None,
        cancel: None,
    };
    let result = tr
        .time("engine.run", job, || {
            engine::run_guarded(
                &config,
                &mut streams,
                policy.as_mut(),
                &guard,
                shape.pool_jobs,
                &mut Telemetry::noop(),
            )
        })
        .map_err(err)?;
    let summary = RunSummary {
        benchmark: run.benchmark.clone(),
        policy: run.policy,
        agents: run.agents,
        epochs: run.epochs,
        seed: run.seed,
        tasks_per_agent_epoch: result.tasks_per_agent_epoch(),
        total_tasks: result.total_tasks(),
        trips: result.trips(),
        mean_sprinters: result.mean_sprinters(),
        occupancy: result.occupancy().fractions(),
        solve,
    };
    tr.time("streams.drop", job, || drop(streams));
    let bytes = tr
        .time("jobs.report_json", job, || {
            report_json(&JobReport {
                schema_version: SCHEMA_VERSION,
                spec: spec.clone(),
                outcome: JobOutcome::Run { report: summary },
            })
        })
        .map_err(err)?;
    tr.close(root);
    if bytes != reference {
        return Err("traced replica bytes differ from jobs::execute".into());
    }
    let stages = trace::children_ns(tr.spans(), root) as f64 / 1e6;
    facts.untraced_ms.push(untraced);
    facts.unattributed.push((untraced - stages) / untraced);
    facts.report_bytes.push(bytes.len() as f64);

    // Probes outside the root span.
    if run.policy == PolicyKind::EquilibriumThreshold {
        let fresh = EquilibriumCache::default();
        let (_, summary) = tr
            .time("solve.cold", job, || {
                scenario.equilibrium_policy_cached_cold(&fresh)
            })
            .map_err(err)?;
        facts.iterations.push(summary.iterations as f64);
    }
    tr.time("cooperative.search", job, || scenario.cooperative_policy())
        .map_err(err)?;
    let mut probe_streams = scenario.population().spawn_streams(run.seed).map_err(err)?;
    let one_epoch = SimConfig::new(*scenario.game(), 1, run.seed)
        .map_err(err)?
        .with_options(*scenario.options());
    let other = if shape.pool_jobs == 1 { 2 } else { 1 };
    let mut engine_ms = |name: &'static str, cfg: &SimConfig, jobs: usize| {
        let t = Instant::now();
        let id = tr.open(name, job);
        let r = engine::run_guarded(
            cfg,
            &mut probe_streams,
            policy.as_mut(),
            &guard,
            jobs,
            &mut Telemetry::noop(),
        );
        tr.close(id);
        r.map(|_| ms(t, Instant::now())).map_err(err)
    };
    let fixed = engine_ms("engine.fixed", &one_epoch, shape.pool_jobs)?;
    let full_other = engine_ms("engine.run_other_pool", &config, other)?;
    let fixed_other = engine_ms("engine.fixed_other_pool", &one_epoch, other)?;
    drop(probe_streams);
    let full = tr.spans()[root..]
        .iter()
        .find(|s| s.name == "engine.run")
        .map_or(0.0, |s| s.dur_ns() as f64 / 1e6);
    let steps = (run.epochs.max(2) - 1) as f64;
    let per_epoch = (full - fixed) / steps;
    let per_epoch_other = (full_other - fixed_other) / steps;
    facts
        .ns_per_agent_epoch
        .push(per_epoch * 1e6 / f64::from(run.agents));
    let (serial, pooled) = if shape.pool_jobs == 1 {
        (per_epoch, per_epoch_other)
    } else {
        (per_epoch_other, per_epoch)
    };
    facts.pool_speedup.push(serial / pooled);
    Ok(())
}

#[derive(Default)]
struct ServeFacts {
    overhead_ms: Vec<f64>,
    records: f64,
    hit_ratio: f64,
    misses: f64,
    refused: f64,
}

/// One cycle of `serve_mix`-class traffic through a journaled daemon,
/// each job also run in-process on the client thread; then direct
/// journal appends and a replay.
fn trace_serve(
    multi: &Shape,
    seed: u64,
    work: &Path,
    tr: &mut Tracer,
    facts: &mut ServeFacts,
    out: &mut Traced,
) -> Result<(), String> {
    let dir = drive::fresh_dir(&work.join("traced-serve")).map_err(err)?;
    let config = drive::serve_config(&dir);
    let daemon = Daemon::start(&config).map_err(err)?;
    let addr = daemon.addr().to_string();
    let inproc_cache = EquilibriumCache::default();
    let rows = Mutex::new(Vec::new());
    let visit = |s: Served| {
        let t_in = Instant::now();
        let local = drive::run_job(&s.gen.json, &inproc_cache, &drive::pool(1));
        let t_out = Instant::now();
        rows.lock().expect("poisoned").push((s, t_in, t_out, local));
    };
    drive::drive_clients(&addr, Workload::ServeMix, multi, seed, 0, None, &visit);
    let stats = daemon.cache_stats();
    drive::stop(daemon)?;
    facts.hit_ratio = stats.hit_rate();
    facts.misses = stats.misses as f64;
    for (s, t_in, t_out, local) in rows.into_inner().expect("poisoned") {
        out.tally.attempted += 1;
        let job = s.gen.index;
        let served_end = s.started + s.latency;
        tr.record("serve.request", job, s.started, served_end);
        tr.record("inproc.execute", job, t_in, t_out);
        if s.status == 429 || s.status == 503 {
            facts.refused += 1.0;
        }
        match local {
            Ok((_, _, bytes)) if s.status == 200 && bytes == s.body => {
                if s.gen.class == Class::Run {
                    facts
                        .overhead_ms
                        .push(ms(s.started, served_end) - ms(t_in, t_out));
                }
            }
            Ok(_) => out.tally.fail(format!(
                "served job {job}: HTTP {} or bytes differ",
                s.status
            )),
            Err(e) => out.tally.fail(format!("served job {job} in-process: {e}")),
        }
    }

    let path = config.journal.clone().expect("serve_config journals");
    let replayed = tr.time("journal.replay", 0, || {
        journal::replay(&path).map(|(t, torn)| (t.len(), journal::recover(&t, torn)))
    });
    match replayed {
        Ok((records, _)) => facts.records = records as f64,
        Err(e) => out.tally.fail(format!("journal replay: {e}")),
    }

    let mut appender = Journal::open_append(&dir.join("appends.jsonl")).map_err(err)?;
    for id in 0..JOURNAL_APPENDS / 3 {
        let g = Workload::ServeMix.spec(multi, seed, id);
        let records = [
            Transition::Submitted {
                id,
                client: "e2ebench".to_string(),
                spec: Box::new(g.spec),
            },
            Transition::Started { id },
            Transition::Done { id },
        ];
        for t in &records {
            if let Err(e) = tr.time("journal.append", id, || appender.append(t)) {
                out.tally.fail(format!("journal append: {e}"));
            }
        }
    }
    Ok(())
}

#[derive(Default)]
struct MultiFacts {
    sweep_trials: f64,
    sweep_s: f64,
    control_ns_per_agent_epoch: Vec<f64>,
}

/// Time the sweep engine and the control plane on the first sweep and
/// chaos specs of the `serve_mix`-class cycle.
fn trace_multi(multi: &Shape, seed: u64, tr: &mut Tracer, out: &mut Traced) -> MultiFacts {
    let mut facts = MultiFacts::default();
    let specs =
        (0..Workload::ServeMix.cycle_len()).map(|i| Workload::ServeMix.spec(multi, seed, i));
    let (mut sweeps, mut chaos) = (0, 0);
    for g in specs {
        match &g.spec.job {
            JobKind::Sweep { spec } if sweeps < MULTI_PROBES => {
                sweeps += 1;
                out.tally.attempted += 1;
                let t0 = Instant::now();
                let r = tr.time("sweep.run", g.index, || {
                    run_sweep_shared(
                        spec,
                        1,
                        Supervision::default(),
                        &EquilibriumCache::default(),
                        &mut Telemetry::noop(),
                    )
                });
                facts.sweep_s += t0.elapsed().as_secs_f64();
                match r {
                    Ok(report) if report.trials == spec.trial_count() => {
                        facts.sweep_trials += report.trials as f64;
                    }
                    Ok(report) => out
                        .tally
                        .fail(format!("sweep ran {} trials", report.trials)),
                    Err(e) => out.tally.fail(format!("sweep: {e}")),
                }
            }
            JobKind::Chaos { spec } if chaos < MULTI_PROBES => {
                chaos += 1;
                out.tally.attempted += 1;
                let sprint_serve::ChaosMode::Partition { start, duration } = spec.mode else {
                    continue;
                };
                let r = Benchmark::from_name(&spec.benchmark)
                    .ok_or_else(|| "unknown benchmark".to_string())
                    .and_then(|b| Scenario::homogeneous(b, spec.agents, spec.epochs).map_err(err))
                    .and_then(|scenario| {
                        let plan = FaultPlan::partition_chaos(
                            spec.fault_seed,
                            start.unwrap_or(spec.epochs / 2),
                            duration,
                        );
                        let seeds: Vec<u64> = (1..=spec.seeds).collect();
                        let t0 = Instant::now();
                        let r = tr.time("control.resilience", g.index, || {
                            runner::resilience(
                                &scenario,
                                plan,
                                ControlConfig::default(),
                                &seeds,
                                &mut Telemetry::noop(),
                            )
                        });
                        let agent_epochs =
                            f64::from(spec.agents) * spec.epochs as f64 * spec.seeds as f64;
                        facts
                            .control_ns_per_agent_epoch
                            .push(t0.elapsed().as_nanos() as f64 / agent_epochs);
                        r.map_err(err)
                    });
                match r {
                    Ok(report) if report.invariant_violations == 0 => {}
                    Ok(report) => out.tally.fail(format!(
                        "chaos: {} invariant violations",
                        report.invariant_violations
                    )),
                    Err(e) => out.tally.fail(format!("chaos: {e}")),
                }
            }
            _ => {}
        }
    }
    facts
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(f64::NAN)
}

/// Derive every per-layer metric from the spans and the per-job facts.
fn derive(
    spans: &[trace::Span],
    facts: &RunFacts,
    serve: &ServeFacts,
    multi: &MultiFacts,
) -> Vec<Metric> {
    let span_ms = |name: &str| med(&trace::durations_ms(spans, name));
    let selfs = trace::self_times_ns(spans);
    let job_self_us: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "job")
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect();
    let appends_us: Vec<f64> = trace::durations_ms(spans, "journal.append")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    let values: Vec<(&str, f64)> = vec![
        ("jobs.parse_us", span_ms("jobs.parse") * 1e3),
        ("scenario.build_ms", span_ms("scenario.build")),
        ("solve.cold_ms", span_ms("solve.cold")),
        ("solve.hit_ms", span_ms("solve.hit")),
        ("solve.iterations", med(&facts.iterations)),
        ("streams.spawn_ms", span_ms("streams.spawn")),
        ("streams.drop_ms", span_ms("streams.drop")),
        ("engine.fixed_ms", span_ms("engine.fixed")),
        ("engine.ns_per_agent_epoch", med(&facts.ns_per_agent_epoch)),
        ("engine.pool_speedup", med(&facts.pool_speedup)),
        ("jobs.report_json_us", span_ms("jobs.report_json") * 1e3),
        ("jobs.report_bytes", med(&facts.report_bytes)),
        ("run.unattributed_frac", med(&facts.unattributed)),
        ("job.self_us", med(&job_self_us)),
        (
            "trace.overhead_ms",
            span_ms("job") - med(&facts.untraced_ms),
        ),
        ("serve.overhead_p50_ms", med(&serve.overhead_ms)),
        ("journal.append_p50_us", med(&appends_us)),
        (
            "journal.append_p99_us",
            tail_percentile(&appends_us, 0.99).unwrap_or(f64::NAN),
        ),
        ("journal.replay_ms", span_ms("journal.replay")),
        ("journal.records", serve.records),
        ("cache.hit_ratio", serve.hit_ratio),
        ("cache.misses", serve.misses),
        ("admission.refused", serve.refused),
        ("sweep.trials_per_s", multi.sweep_trials / multi.sweep_s),
        ("cooperative.search_ms", span_ms("cooperative.search")),
        (
            "control.ns_per_agent_epoch",
            med(&multi.control_ns_per_agent_epoch),
        ),
    ];
    values
        .into_iter()
        .map(|(name, v)| metric(&PER_LAYER, name, v))
        .collect()
}
