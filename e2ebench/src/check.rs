//! Output checks. They test invariants every correct report satisfies
//! rather than golden bytes, so a deliberate re-baseline of report
//! bytes does not break the benchmark; byte identity is checked only
//! between two paths that must agree (served vs in-process, one engine
//! thread vs two).

use sprint_serve::{ChaosOutcome, JobKind, JobOutcome, JobReport, JobSpec};
use sprint_sim::policy::PolicyKind;

/// Check a report (typed) against the spec that produced it.
///
/// # Errors
///
/// A description of the first violated invariant.
pub fn report(spec: &JobSpec, report: &JobReport) -> Result<(), String> {
    if report.spec != *spec {
        return Err("report does not echo its spec".into());
    }
    match (&spec.job, &report.outcome) {
        (JobKind::Run { spec: run }, JobOutcome::Run { report: r }) => {
            if run.policy == PolicyKind::EquilibriumThreshold
                && !r.solve.as_ref().is_some_and(|s| s.converged)
            {
                return Err(format!("E-T solve did not converge: {:?}", r.solve));
            }
            let total: f64 = r.occupancy.iter().sum();
            if (total - 1.0).abs() > 1e-9 {
                return Err(format!("occupancy fractions sum to {total}"));
            }
            if r.total_tasks.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(format!("total_tasks = {}", r.total_tasks));
            }
            Ok(())
        }
        (JobKind::Sweep { spec: sweep }, JobOutcome::Sweep { report: r }) => {
            if r.trials != sweep.trial_count() || !r.quarantined.is_empty() {
                return Err(format!(
                    "sweep ran {} of {} trials, {} quarantined",
                    r.trials,
                    sweep.trial_count(),
                    r.quarantined.len()
                ));
            }
            Ok(())
        }
        (
            JobKind::Chaos { spec: chaos },
            JobOutcome::Chaos {
                report: ChaosOutcome::Partition { report: r },
            },
        ) => {
            if r.invariant_violations != 0 || r.trials.len() as u64 != chaos.seeds {
                return Err(format!(
                    "chaos: {} invariant violations, {} of {} trials",
                    r.invariant_violations,
                    r.trials.len(),
                    chaos.seeds
                ));
            }
            Ok(())
        }
        (_, outcome) => Err(format!("unexpected outcome {}", outcome_name(outcome))),
    }
}

/// Check canonical report bytes: they must parse and pass [`report`].
///
/// # Errors
///
/// A parse failure or the first violated invariant.
pub fn report_bytes(spec: &JobSpec, bytes: &str) -> Result<(), String> {
    let parsed: JobReport =
        serde_json::from_str(bytes).map_err(|e| format!("report does not parse: {e}"))?;
    report(spec, &parsed)
}

fn outcome_name(outcome: &JobOutcome) -> &'static str {
    match outcome {
        JobOutcome::Run { .. } => "run",
        JobOutcome::Sweep { .. } => "sweep",
        JobOutcome::Chaos { .. } => "chaos",
        JobOutcome::Cancelled => "cancelled",
        JobOutcome::DeadlineExceeded { .. } => "deadline_exceeded",
    }
}
