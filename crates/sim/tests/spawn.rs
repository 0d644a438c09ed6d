//! Equivalence of the allocation-free spawn path with an eager replay.
//!
//! `Population::spawn_streams` builds streams in O(1) each and leaves
//! the arrival replay to first use: the engine replays initial phases as
//! a setup pass on its worker pool, and a stream read outside the engine
//! replays its generator lazily. Both must equal, bit for bit, the eager
//! construction written out below: child seeds walked with
//! `SeedSequence::next_seed`, a generator from `seeded_rng`, one draw
//! from the benchmark's distribution, then `seed >> 32 mod 64` skipped
//! phase steps.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

use sprint_game::GameConfig;
use sprint_sim::engine::{run_jobs, SimConfig};
use sprint_sim::policies::Greedy;
use sprint_sim::scenario::Scenario;
use sprint_sim::PolicyKind;
use sprint_stats::dist::ContinuousDistribution;
use sprint_stats::rng::{seeded_rng, SeedSequence};
use sprint_telemetry::Telemetry;
use sprint_workloads::generator::Population;
use sprint_workloads::phases::{PhasedUtility, DEFAULT_PERSISTENCE_EPOCHS};
use sprint_workloads::Benchmark;

/// The eager stream: everything done at construction, nothing shared.
struct Eager {
    dist: Box<dyn ContinuousDistribution>,
    rng: StdRng,
    current: f64,
}

impl Eager {
    fn spawn(population: &Population, master_seed: u64) -> Vec<Eager> {
        let mut seq = SeedSequence::new(master_seed);
        population
            .assignments()
            .iter()
            .map(|b| {
                let seed = seq.next_seed();
                let dist = b.speedup_distribution();
                let mut rng = seeded_rng(seed);
                let current = dist.sample(&mut rng);
                let mut stream = Eager { dist, rng, current };
                for _ in 0..(seed >> 32) % 64 {
                    stream.next();
                }
                stream
            })
            .collect()
    }

    fn next(&mut self) -> f64 {
        let out = self.current;
        if self.rng.gen::<f64>() < 1.0 / DEFAULT_PERSISTENCE_EPOCHS {
            self.current = self.dist.sample(&mut self.rng);
        }
        out
    }
}

fn game(n: usize) -> GameConfig {
    let n = n as f64;
    GameConfig::builder()
        .n_agents(n as u32)
        .n_min(0.25 * n)
        .n_max(0.75 * n)
        .build()
        .unwrap()
}

/// Run the engine over freshly spawned streams (several chunks, so a
/// pool of `jobs` really fans out) and return the written-back streams.
fn run(population: &Population, seed: u64, epochs: usize, jobs: usize) -> Vec<PhasedUtility> {
    let n = population.len();
    let config = SimConfig::new(game(n), epochs, seed)
        .unwrap()
        .with_chunk_agents(16);
    let mut streams = population.spawn_streams(seed).unwrap();
    run_jobs(
        &config,
        &mut streams,
        &mut Greedy::default(),
        jobs,
        &mut Telemetry::noop(),
    )
    .unwrap();
    streams
}

fn bits(values: impl Iterator<Item = f64>) -> Vec<u64> {
    values.map(f64::to_bits).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spawn_matches_an_eager_replay(
        mix_seed in 0u64..1_000_000,
        k in 1usize..5,
        n in 1usize..300,
        master in 0u64..u64::MAX,
        jobs in prop::sample::select(vec![1usize, 2, 3]),
    ) {
        let population = Population::random_mix(k, n, &mut seeded_rng(mix_seed)).unwrap();
        let eager = Eager::spawn(&population, master);

        // Initial phases, and the lazily replayed generator.
        let mut fresh = population.spawn_streams(master).unwrap();
        prop_assert_eq!(
            bits(fresh.iter().map(PhasedUtility::phase_value)),
            bits(eager.iter().map(|e| e.current))
        );
        let mut reference = Eager::spawn(&population, master);
        for (stream, e) in fresh.iter_mut().zip(reference.iter_mut()) {
            for _ in 0..8 {
                prop_assert_eq!(stream.next_utility().to_bits(), e.next().to_bits());
            }
        }

        // The engine's pool replay: epoch 0 never resamples (the first
        // phase length is at least 1), so a one-epoch run writes back
        // exactly the initial phases.
        let one = run(&population, master, 1, jobs);
        prop_assert_eq!(
            bits(one.iter().map(PhasedUtility::phase_value)),
            bits(eager.iter().map(|e| e.current))
        );

        // Writeback after a longer run: identical at every job count, and
        // the stream then continues from the synced phase on the
        // generator its arrival left.
        let mut long = run(&population, master, 12, jobs);
        let serial = run(&population, master, 12, 1);
        prop_assert_eq!(
            bits(long.iter().map(PhasedUtility::phase_value)),
            bits(serial.iter().map(PhasedUtility::phase_value))
        );
        let mut reference = Eager::spawn(&population, master);
        for (stream, e) in long.iter_mut().zip(reference.iter_mut()) {
            e.current = stream.phase_value();
            for _ in 0..8 {
                prop_assert_eq!(stream.next_utility().to_bits(), e.next().to_bits());
            }
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
fn heterogeneous_large_run_is_byte_identical_at_any_job_count() {
    let scenario = Scenario::heterogeneous(
        &[
            Benchmark::PageRank,
            Benchmark::LinearRegression,
            Benchmark::Svm,
        ],
        50_000,
        40,
    )
    .unwrap();
    let report = |jobs: usize| {
        let result = scenario
            .execute_jobs(
                PolicyKind::EquilibriumThreshold,
                2024,
                jobs,
                &mut Telemetry::noop(),
            )
            .unwrap();
        serde_json::to_string(&result).unwrap()
    };
    let serial = report(1);
    for jobs in [2, 4] {
        assert_eq!(report(jobs), serial, "jobs = {jobs}");
    }
    // The bytes the eager spawn path produced, before stream setup moved
    // onto the engine's pool.
    assert_eq!(
        (serial.len(), fnv1a(serial.as_bytes())),
        PINNED_REPORT,
        "{serial}"
    );
}

/// Length and FNV-1a digest of the report above, as the eager spawn path
/// serialized it.
const PINNED_REPORT: (usize, u64) = (522, 7_940_346_367_259_060_136);
