//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last stdout line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it carries provenance and detail
//! (sample counts, tail percentiles, per-class medians). Both lines and
//! the traced run's spans are also written under `.e2ebench-out/`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use e2ebench::drive::{self, Measured};
use e2ebench::output::{self, metric, num, object, string, Metric, END_TO_END};
use e2ebench::specs::{Class, Shape, Workload};
use e2ebench::stats::{highest_tail, median, quartiles, tail_percentile};
use e2ebench::{trace, traced};
use sprint_game::EquilibriumCache;

const USAGE: &str =
    "usage: e2ebench --workload <run_long|run_large|serve_mix> --seed <n> --seconds <s> --trace <0|1>";
const COLD_LINE: &str = "COLD_JOB_S=";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    cold_job: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut cold_job = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad(()))?),
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad(()))?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad(()))? == 1,
            "--cold-job" => cold_job = Some(value.parse::<u64>().map_err(|_| bad(()))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
        cold_job,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(index) = args.cold_job {
        return cold_job(args.workload, args.seed, index);
    }
    let work = PathBuf::from(".e2ebench-work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let outcome = if args.trace {
        run_traced(&args, &work)
    } else {
        run_untraced(&args, &work)
    };
    // The journal, spool and appends are temporary; drop them.
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok((detail, result)) => {
            let out_dir = Path::new(".e2ebench-out");
            let name = format!(
                "{}-seed{}-trace{}.json",
                args.workload.name(),
                args.seed,
                u8::from(args.trace)
            );
            if let Err(e) = std::fs::create_dir_all(out_dir)
                .and_then(|()| std::fs::write(out_dir.join(name), format!("{detail}\n{result}\n")))
            {
                eprintln!("e2ebench: writing results: {e}");
            }
            println!("{detail}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `setup_s` probe: run job `index` in this fresh process, cold,
/// and print its seconds.
fn cold_job(workload: Workload, seed: u64, index: u64) -> ExitCode {
    let shape = Shape::full(workload);
    let g = workload.spec(&shape, seed, index);
    let t0 = Instant::now();
    let ran = drive::run_job(
        &g.json,
        &EquilibriumCache::default(),
        &drive::pool(shape.pool_jobs),
    );
    let seconds = t0.elapsed().as_secs_f64();
    match ran.and_then(|(spec, report, _)| e2ebench::check::report(&spec, &report)) {
        Ok(()) => {
            println!("{COLD_LINE}{seconds}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: cold job {index}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn spawn_cold_job(workload: Workload, seed: u64, index: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--cold-job", &index.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .find_map(|l| l.strip_prefix(COLD_LINE)?.trim().parse::<f64>().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("cold job exited with {}", out.status))
}

fn header(args: &Args) -> Vec<(&'static str, String)> {
    let mut fields = vec![
        ("workload", string(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", num(args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
    ];
    fields.extend(output::provenance());
    fields
}

fn failures_json(failures: &[String]) -> String {
    let items: Vec<String> = failures.iter().map(|f| string(f)).collect();
    format!("[{}]", items.join(", "))
}

fn opt(x: Option<f64>) -> String {
    x.map_or("null".to_string(), num)
}

fn run_untraced(args: &Args, work: &Path) -> Result<(String, String), String> {
    let w = args.workload;
    let shape = Shape::full(w);
    let m: Measured = match w {
        Workload::ServeMix => drive::run_served(w, &shape, args.seed, args.seconds, work)?,
        Workload::RunLong | Workload::RunLarge => {
            let probe = |i: u64| spawn_cold_job(w, args.seed, i);
            drive::run_inprocess(w, &shape, args.seed, args.seconds, Some(&probe))
        }
    };
    let runs = m.latencies(Class::Run);
    // The timed figures at reference host speed (reported) and as
    // measured (detail); see `calib` for why.
    let host_speed = m.host_speed();
    let timed = |at_reference: bool| {
        let rates = m.cycle_rates(w.cycle_len(), at_reference);
        let jobs_per_s: Vec<f64> = rates.iter().map(|r| r.0).collect();
        let agent_epochs_per_s: Vec<f64> = rates.iter().map(|r| r.1).collect();
        let setup_scale = if at_reference {
            host_speed.unwrap_or(1.0)
        } else {
            1.0
        };
        [
            ("setup_s", median(&m.setup_s).map(|x| x * setup_scale)),
            (
                "job_p50_ms",
                median(&m.cycle_medians(Class::Run, w.cycle_len(), at_reference)),
            ),
            ("jobs_per_s", median(&jobs_per_s)),
            ("agent_epochs_per_s", median(&agent_epochs_per_s)),
        ]
    };
    let wall = timed(false);
    let mut values: Vec<(&str, Option<f64>)> = timed(true).to_vec();
    values.push(("peak_rss_mb", Some(m.peak_rss_mb).filter(|x| *x > 0.0)));
    let missing: Vec<&str> = values
        .iter()
        .filter(|(_, v)| !v.is_some_and(|x| x.is_finite() && x > 0.0))
        .map(|(n, _)| *n)
        .collect();
    let metrics: Vec<Metric> = values
        .iter()
        .map(|(n, v)| metric(&END_TO_END, n, v.unwrap_or(f64::NAN)))
        .collect();

    let class_p50 = |c: Class| opt(median(&m.latencies(c)));
    let tail = highest_tail(&runs).map_or("null".to_string(), |(pct, v)| {
        object(&[("percentile", pct.to_string()), ("ms", num(v))])
    });
    let iqr = quartiles(&runs).map_or("null".to_string(), |(q1, q3)| {
        format!("[{}, {}]", num(q1), num(q3))
    });
    let wall_fields: Vec<(&str, String)> = wall.iter().map(|(n, v)| (*n, opt(*v))).collect();
    let probe_iqr = quartiles(&m.probe_rates).map_or("null".to_string(), |(q1, q3)| {
        format!("[{}, {}]", num(q1), num(q3))
    });
    let samples = object(&[
        ("setup_s", m.setup_s.len().to_string()),
        ("probe_slices", m.probe_rates.len().to_string()),
        ("run_jobs", runs.len().to_string()),
        ("sweep_jobs", m.latencies(Class::Sweep).len().to_string()),
        ("chaos_jobs", m.latencies(Class::Chaos).len().to_string()),
        ("cycles", m.cycles.to_string()),
        ("compared_bytes", m.compared.to_string()),
    ]);
    let mut fields = header(args);
    fields.extend([
        ("samples", samples),
        ("host_speed", opt(host_speed)),
        ("probe_lanes_per_s_iqr", probe_iqr),
        ("wall", object(&wall_fields)),
        ("job_iqr_ms", iqr),
        ("job_p90_ms", opt(tail_percentile(&runs, 0.9))),
        ("job_tail", tail),
        ("sweep_p50_ms", class_p50(Class::Sweep)),
        ("chaos_p50_ms", class_p50(Class::Chaos)),
        (
            "failed_ratio",
            num(m.tally.failed as f64 / m.tally.attempted.max(1) as f64),
        ),
        ("refused", m.refused.to_string()),
        (
            "missing_metrics",
            failures_json(&missing.iter().map(|s| (*s).to_string()).collect::<Vec<_>>()),
        ),
        ("failures", failures_json(&m.tally.failures)),
    ]);
    let correct = m.tally.failed == 0 && missing.is_empty();
    Ok((
        object(&fields),
        output::result_line(correct, m.tally.attempted.max(1), m.tally.failed, &metrics),
    ))
}

fn run_traced(args: &Args, work: &Path) -> Result<(String, String), String> {
    let w = args.workload;
    let t = traced::run(
        w,
        &Shape::full(w),
        &Shape::full(Workload::ServeMix),
        args.seed,
        args.seconds,
        work,
    )?;
    let missing: Vec<String> = t
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.to_string())
        .collect();
    let spans_path =
        Path::new(".e2ebench-out").join(format!("{}-seed{}.spans.jsonl", w.name(), args.seed));
    let spans = &t.spans;
    std::fs::create_dir_all(".e2ebench-out")
        .and_then(|()| trace::write_jsonl(spans, &spans_path))
        .map_err(|e| format!("writing spans: {e}"))?;
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count().to_string();
    let samples = object(&[
        ("traced_run_jobs", count("job")),
        ("cold_solves", count("solve.cold")),
        ("served_jobs", count("serve.request")),
        ("journal_appends", count("journal.append")),
        ("sweeps", count("sweep.run")),
        ("chaos_suites", count("control.resilience")),
    ]);
    let mut fields = header(args);
    fields.extend([
        ("samples", samples),
        ("spans", spans.len().to_string()),
        ("spans_file", string(&spans_path.display().to_string())),
        ("missing_metrics", failures_json(&missing)),
        ("failures", failures_json(&t.tally.failures)),
    ]);
    let correct = t.tally.failed == 0 && missing.is_empty();
    Ok((
        object(&fields),
        output::result_line(
            correct,
            t.tally.attempted.max(1),
            t.tally.failed,
            &t.metrics,
        ),
    ))
}
