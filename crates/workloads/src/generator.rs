//! Agent population builders.
//!
//! Paper §5, "Simulation Methods": one set of simulations evaluates
//! *homogeneous* agents who arrive randomly and launch the same
//! application ("randomized arrivals cause application phases to overlap
//! in diverse ways"); a second set evaluates *heterogeneous* agents who
//! launch different applications. This module constructs both population
//! shapes and instantiates per-agent utility streams with independent
//! seeds and randomized arrival offsets.

use std::sync::Arc;

use rand::Rng;

use sprint_stats::rng::SeedSequence;

use crate::benchmark::Benchmark;
use crate::phases::{PhaseCohort, PhasedUtility};
use crate::WorkloadError;

/// Maximum random arrival offset, epochs. Offsets decorrelate the phase
/// processes of agents running the same application.
const MAX_ARRIVAL_OFFSET_EPOCHS: u64 = 64;

/// A population of agents, each assigned a benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Population {
    assignments: Vec<Benchmark>,
}

impl Population {
    /// A homogeneous population: `n` agents all running `benchmark`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] when `n` is 0.
    pub fn homogeneous(benchmark: Benchmark, n: usize) -> crate::Result<Self> {
        if n == 0 {
            return Err(WorkloadError::InvalidParameter {
                name: "n",
                value: 0.0,
                expected: "at least one agent",
            });
        }
        Ok(Population {
            assignments: vec![benchmark; n],
        })
    }

    /// A heterogeneous population: `n` agents assigned round-robin across
    /// `benchmarks` (balanced mix, as in the paper's Figure 9 sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] when `n` is 0 and
    /// [`WorkloadError::EmptyWorkload`] when `benchmarks` is empty.
    pub fn heterogeneous(benchmarks: &[Benchmark], n: usize) -> crate::Result<Self> {
        if benchmarks.is_empty() {
            return Err(WorkloadError::EmptyWorkload { what: "benchmarks" });
        }
        if n == 0 {
            return Err(WorkloadError::InvalidParameter {
                name: "n",
                value: 0.0,
                expected: "at least one agent",
            });
        }
        Ok(Population {
            assignments: (0..n).map(|i| benchmarks[i % benchmarks.len()]).collect(),
        })
    }

    /// Pick `k` distinct application types uniformly at random (without
    /// replacement) from the full suite and build a balanced `n`-agent
    /// population — one draw of the paper's Figure 9 experiment.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] when `k` is 0, exceeds
    /// the suite size, or `n` is 0.
    pub fn random_mix<R: Rng + ?Sized>(k: usize, n: usize, rng: &mut R) -> crate::Result<Self> {
        if k == 0 || k > Benchmark::ALL.len() {
            return Err(WorkloadError::InvalidParameter {
                name: "k",
                value: k as f64,
                expected: "between 1 and 11 application types",
            });
        }
        let mut pool = Benchmark::ALL.to_vec();
        // Partial Fisher-Yates: the first k slots become the sample.
        for i in 0..k {
            let j = i + rng.gen_range(0..pool.len() - i);
            pool.swap(i, j);
        }
        Population::heterogeneous(&pool[..k], n)
    }

    /// Number of agents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the population is empty (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Benchmark assignment per agent.
    #[must_use]
    pub fn assignments(&self) -> &[Benchmark] {
        &self.assignments
    }

    /// The distinct application types present, in suite order.
    #[must_use]
    pub fn distinct_types(&self) -> Vec<Benchmark> {
        Benchmark::ALL
            .into_iter()
            .filter(|b| self.assignments.contains(b))
            .collect()
    }

    /// Number of agents running `benchmark`.
    #[must_use]
    pub fn count_of(&self, benchmark: Benchmark) -> usize {
        self.assignments.iter().filter(|&&b| b == benchmark).count()
    }

    /// Instantiate per-agent utility streams with independent seeds and
    /// randomized arrival offsets derived from `master_seed`.
    ///
    /// Agent `i`'s seed is the `(i + 1)`-th child of `master_seed`
    /// ([`SeedSequence::seed_at`]) and its arrival offset is taken from
    /// the seed's high word. Every stream of one benchmark shares one
    /// [`PhaseCohort`] (distribution, sample table, persistence), so a
    /// stream costs O(1) and no allocation here; the arrival itself is
    /// replayed when the stream is first read
    /// ([`PhasedUtility::phase_value`], [`PhasedUtility::next_utility`]).
    ///
    /// # Errors
    ///
    /// Never fails for the built-in benchmarks; the `Result` propagates
    /// stream-construction errors for API uniformity.
    pub fn spawn_streams(&self, master_seed: u64) -> crate::Result<Vec<PhasedUtility>> {
        // One cohort per distinct benchmark, indexed by the benchmark's
        // discriminant (discretization is O(bins) pdf evaluations —
        // paying it per agent would dominate large-N setup).
        let types = self.distinct_types();
        let cohorts: Vec<Arc<PhaseCohort>> = types
            .iter()
            .map(|&b| PhaseCohort::for_benchmark(b))
            .collect::<crate::Result<_>>()?;
        let mut index_of = [0usize; Benchmark::ALL.len()];
        for (c, &b) in types.iter().enumerate() {
            index_of[b as usize] = c;
        }
        let seq = SeedSequence::new(master_seed);
        Ok(self
            .assignments
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let seed = seq.seed_at(i as u64);
                PhasedUtility::in_cohort(&cohorts[index_of[b as usize]], seed, arrival_offset(seed))
            })
            .collect())
    }
}

/// Randomized arrival: a seed-derived number of phase steps in
/// `0..MAX_ARRIVAL_OFFSET_EPOCHS`, taken from the seed's high word.
fn arrival_offset(seed: u64) -> u32 {
    ((seed >> 32) % MAX_ARRIVAL_OFFSET_EPOCHS) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_stats::rng::seeded_rng;

    #[test]
    fn homogeneous_populations() {
        let p = Population::homogeneous(Benchmark::DecisionTree, 100).unwrap();
        assert_eq!(p.len(), 100);
        assert_eq!(p.count_of(Benchmark::DecisionTree), 100);
        assert_eq!(p.distinct_types(), vec![Benchmark::DecisionTree]);
        assert!(Population::homogeneous(Benchmark::Svm, 0).is_err());
    }

    #[test]
    fn heterogeneous_round_robin_is_balanced() {
        let types = [Benchmark::PageRank, Benchmark::Svm, Benchmark::Kmeans];
        let p = Population::heterogeneous(&types, 99).unwrap();
        for t in types {
            assert_eq!(p.count_of(t), 33);
        }
        assert!(Population::heterogeneous(&[], 10).is_err());
        assert!(Population::heterogeneous(&types, 0).is_err());
    }

    #[test]
    fn random_mix_draws_distinct_types() {
        let mut rng = seeded_rng(3);
        for k in 1..=11 {
            let p = Population::random_mix(k, 110, &mut rng).unwrap();
            assert_eq!(p.distinct_types().len(), k, "k = {k}");
            assert_eq!(p.len(), 110);
        }
        assert!(Population::random_mix(0, 10, &mut rng).is_err());
        assert!(Population::random_mix(12, 10, &mut rng).is_err());
    }

    #[test]
    fn random_mix_varies_across_draws() {
        let mut rng = seeded_rng(5);
        let a = Population::random_mix(3, 30, &mut rng).unwrap();
        let b = Population::random_mix(3, 30, &mut rng).unwrap();
        // Overwhelmingly likely to differ (C(11,3) = 165 possible draws).
        assert_ne!(a.distinct_types(), b.distinct_types());
    }

    #[test]
    fn streams_are_independent_and_reproducible() {
        let p = Population::homogeneous(Benchmark::PageRank, 8).unwrap();
        let mut s1 = p.spawn_streams(99).unwrap();
        let mut s2 = p.spawn_streams(99).unwrap();
        assert_eq!(s1.len(), 8);
        // Reproducible across spawns with the same master seed.
        for (a, b) in s1.iter_mut().zip(s2.iter_mut()) {
            assert_eq!(a.next_utility(), b.next_utility());
        }
        // Different agents see different phases (arrival offsets + seeds).
        let firsts: Vec<f64> = p
            .spawn_streams(99)
            .unwrap()
            .iter_mut()
            .map(PhasedUtility::next_utility)
            .collect();
        let distinct = firsts
            .iter()
            .filter(|&&x| (x - firsts[0]).abs() > 1e-12)
            .count();
        assert!(distinct >= 4, "agents' phases must not be aligned");
    }

    #[test]
    fn distinct_types_in_suite_order() {
        let p = Population::heterogeneous(&[Benchmark::TriangleCounting, Benchmark::NaiveBayes], 4)
            .unwrap();
        assert_eq!(
            p.distinct_types(),
            vec![Benchmark::NaiveBayes, Benchmark::TriangleCounting]
        );
    }
}
