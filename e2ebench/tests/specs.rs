//! The spec generator is a pure function of the seed and repeats its
//! job pattern every cycle.

use std::collections::BTreeSet;

use e2ebench::specs::{Class, Shape, Workload, RUN_BENCHMARKS, SERVE_BENCHMARKS, WORKLOADS};
use sprint_serve::JobKind;

fn pattern(workload: Workload, seed: u64, index: u64) -> (Class, String) {
    let g = workload.spec(&Shape::full(workload), seed, index);
    let key = match &g.spec.job {
        JobKind::Run { spec } => format!("{}/{:?}", spec.benchmark, spec.policy),
        JobKind::Sweep { spec } => spec.populations[0].name.clone(),
        JobKind::Chaos { spec } => spec.benchmark.clone(),
    };
    (g.class, key)
}

#[test]
fn same_seed_same_specs_other_seed_other_specs() {
    for w in WORKLOADS {
        let shape = Shape::full(w);
        for i in 0..2 * w.cycle_len() {
            let a = w.spec(&shape, 7, i);
            let b = w.spec(&shape, 7, i);
            assert_eq!(a.json, b.json, "{} job {i}", w.name());
            assert_ne!(a.json, w.spec(&shape, 8, i).json, "{} job {i}", w.name());
        }
    }
}

#[test]
fn the_job_pattern_repeats_every_cycle() {
    for w in WORKLOADS {
        for i in 0..w.cycle_len() {
            for c in 1..4 {
                assert_eq!(
                    pattern(w, 3, i),
                    pattern(w, 3, i + c * w.cycle_len()),
                    "{} job {i}",
                    w.name()
                );
            }
        }
    }
}

#[test]
fn a_cycle_covers_every_benchmark_policy_and_class() {
    let run_long: BTreeSet<String> = (0..Workload::RunLong.cycle_len())
        .map(|i| pattern(Workload::RunLong, 1, i).1)
        .collect();
    assert_eq!(run_long.len(), RUN_BENCHMARKS.len());

    let serve: Vec<(Class, String)> = (0..Workload::ServeMix.cycle_len())
        .map(|i| pattern(Workload::ServeMix, 1, i))
        .collect();
    let count = |c: Class| serve.iter().filter(|(k, _)| *k == c).count();
    assert_eq!(
        (count(Class::Run), count(Class::Sweep), count(Class::Chaos)),
        (72, 9, 9)
    );
    let pairs: BTreeSet<&String> = serve
        .iter()
        .filter(|(k, _)| *k == Class::Run)
        .map(|(_, p)| p)
        .collect();
    assert_eq!(
        pairs.len(),
        SERVE_BENCHMARKS.len() * 4,
        "every benchmark × policy"
    );
}

#[test]
fn sizes_are_the_documented_ones() {
    let long = Shape::full(Workload::RunLong);
    assert_eq!(
        (long.run_agents, long.run_epochs, long.pool_jobs),
        (10_000, 2_000, 1)
    );
    let large = Shape::full(Workload::RunLarge);
    assert_eq!(
        (large.run_agents, large.run_epochs, large.pool_jobs),
        (1_000_000, 20, 2)
    );
    let serve = Shape::full(Workload::ServeMix);
    assert_eq!(
        (serve.run_agents, serve.run_epochs, serve.multi_agents),
        (1_000, 200, 200)
    );
}
