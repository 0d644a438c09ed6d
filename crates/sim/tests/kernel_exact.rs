//! Exactness of the epoch kernel's `ln`-free geometric gaps and its
//! branch-free passes.
//!
//! - `GapTable::gap` must equal `geometric_gap` bit for bit: on every
//!   53-bit uniform index within a window of every step edge, at the two
//!   scales the default game uses (phase persistence 3, `p_cooling` 0.5);
//!   on 10⁷ random indices; and at the degenerate probabilities.
//! - Four E-T reports shaped like the end-to-end `run_long` workload
//!   (N = 10⁴, E = 2000) must keep the bytes the branching kernel with
//!   `ln` gaps produced; their FNV-1a digests were computed from that
//!   kernel and are pinned below.
//!
//! The ±2¹⁶ window leg is `#[ignore]`d (about 4·10⁷ `ln` calls); run it
//! with `cargo test --release -p sprint-sim --test kernel_exact --
//! --include-ignored`. The default leg checks a ±2⁸ window.

use sprint_sim::scenario::Scenario;
use sprint_sim::PolicyKind;
use sprint_stats::geometric::{geometric_gap, GapTable};
use sprint_stats::rng::CounterRng;
use sprint_telemetry::Telemetry;
use sprint_workloads::phases::DEFAULT_PERSISTENCE_EPOCHS;
use sprint_workloads::Benchmark;

const M_END: u64 = 1 << 53;

fn reference(m: u64, scale: f64) -> u64 {
    geometric_gap(m as f64 * (1.0 / M_END as f64), scale)
}

/// The phase-length scale at the default persistence, computed as the
/// engine computes it.
fn persistence_scale() -> f64 {
    1.0 / (1.0 - 1.0 / DEFAULT_PERSISTENCE_EPOCHS).ln()
}

/// The cooldown scale at `p_cooling = 0.5`.
fn cooling_scale() -> f64 {
    0.5f64.ln().recip()
}

/// Every step edge of the reference: the smallest `m` whose gap reaches
/// each value, found here by bisection independently of the table.
fn step_edges(scale: f64) -> Vec<u64> {
    let support = reference(M_END - 1, scale);
    let mut edges = vec![0];
    for k in 2..=support {
        let (mut lo, mut hi) = (*edges.last().unwrap(), M_END - 1);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if reference(mid, scale) < k {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        edges.push(hi);
    }
    edges
}

fn check_windows(radius: u64) {
    for scale in [persistence_scale(), cooling_scale()] {
        let table = GapTable::new(scale);
        assert!(table.is_tabled(), "scale {scale}");
        let edges = step_edges(scale);
        assert!(edges.len() > 40, "scale {scale}: {} steps", edges.len());
        for &edge in &edges {
            for m in edge.saturating_sub(radius)..(edge + radius).min(M_END) {
                assert_eq!(table.gap(m), reference(m, scale), "scale {scale}, m {m}");
            }
        }
    }
}

#[test]
fn table_gap_matches_near_every_step_edge() {
    check_windows(1 << 8);
}

#[test]
#[ignore = "exhaustive ±2^16 window; run in release with --include-ignored"]
fn table_gap_matches_in_wide_windows_around_every_step_edge() {
    check_windows(1 << 16);
}

#[test]
fn table_gap_matches_on_random_words() {
    let words = CounterRng::new(0x6A9, 1);
    for scale in [persistence_scale(), cooling_scale()] {
        let table = GapTable::new(scale);
        for i in 0..5_000_000u64 {
            let m = words.word(i, 0, 0) >> 11;
            assert_eq!(table.gap(m), reference(m, scale), "scale {scale}, m {m}");
        }
    }
}

#[test]
fn degenerate_probabilities_match_and_tiny_ones_fall_back() {
    let words = CounterRng::new(0xD6, 2);
    // p = 2 is no probability at all: its scale is NaN.
    for (p, tabled) in [(0.0f64, false), (1.0, true), (1e-12, false), (2.0, false)] {
        let scale = 1.0 / (1.0 - p).ln();
        let table = GapTable::new(scale);
        assert_eq!(table.is_tabled(), tabled, "p = {p}");
        let edge_cases = [0, 1, 2, M_END / 2, M_END - 2, M_END - 1];
        let random = (0..10_000u64).map(|i| words.word(i, 0, 0) >> 11);
        for m in edge_cases.into_iter().chain(random) {
            assert_eq!(table.gap(m), reference(m, scale), "p = {p}, m = {m}");
        }
    }
}

/// FNV-1a, to pin report bytes without checking in a large fixture.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn run_long_shaped_reports_keep_their_bytes() {
    let cases = [
        (Benchmark::DecisionTree, 201),
        (Benchmark::Svm, 202),
        (Benchmark::Kmeans, 203),
        (Benchmark::PageRank, 204),
    ];
    let digests: Vec<(usize, u64)> = cases
        .iter()
        .map(|&(benchmark, seed)| {
            let scenario = Scenario::homogeneous(benchmark, 10_000, 2000).unwrap();
            let result = scenario
                .execute_jobs(
                    PolicyKind::EquilibriumThreshold,
                    seed,
                    1,
                    &mut Telemetry::noop(),
                )
                .unwrap();
            let report = serde_json::to_string(&result).unwrap();
            (report.len(), fnv1a(report.as_bytes()))
        })
        .collect();
    assert_eq!(digests, PINNED_REPORTS);
}

/// Length and FNV-1a digest of each report above, as the kernel with
/// data-dependent branches and `ln`-computed gaps serialized it.
const PINNED_REPORTS: [(usize, u64); 4] = [
    (10_291, 14_477_726_624_457_357_826),
    (10_267, 16_780_639_381_077_923_579),
    (10_317, 13_787_381_418_618_897_640),
    (10_319, 5_192_902_727_681_538_362),
];
