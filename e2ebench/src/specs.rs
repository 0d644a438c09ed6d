//! The three workloads and their deterministic spec generator.
//!
//! Every workload is an infinite sequence of [`JobSpec`]s made from the
//! workload seed alone: `spec(i)` is a pure function of `(workload,
//! shape, seed, i)`. The sequence repeats its benchmark / policy /
//! class pattern every [`Workload::cycle_len`] jobs (with fresh
//! simulation seeds each time), and a measured run always covers whole
//! cycles, so the job mix — and with it every median — is the same on
//! every run.

use sprint_serve::{ChaosMode, ChaosSpec, JobKind, JobSpec, RunSpec};
use sprint_sim::policy::PolicyKind;
use sprint_sim::sweep::{GameVariant, PopulationSpec, SweepSpec};
use sprint_sim::RunOptions;
use sprint_workloads::Benchmark;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long serial E-T runs at N=10⁴: the epoch kernel dominates.
    RunLong,
    /// Short E-T runs at N=10⁶ on a 2-thread engine pool: per-job setup
    /// and a working set larger than the last-level cache dominate.
    RunLarge,
    /// A daemon under two closed-loop HTTP clients: ~8 Run : 1 Sweep :
    /// 1 Chaos.
    ServeMix,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [Workload::RunLong, Workload::RunLarge, Workload::ServeMix];

/// The benchmarks `run_*` cycle through.
pub const RUN_BENCHMARKS: [Benchmark; 4] = [
    Benchmark::DecisionTree,
    Benchmark::Svm,
    Benchmark::Kmeans,
    Benchmark::PageRank,
];

/// The benchmarks `serve_mix` Run jobs cycle through (× all four policies).
pub const SERVE_BENCHMARKS: [Benchmark; 9] = [
    Benchmark::NaiveBayes,
    Benchmark::DecisionTree,
    Benchmark::GradientBoostedTrees,
    Benchmark::Svm,
    Benchmark::LinearRegression,
    Benchmark::Kmeans,
    Benchmark::Als,
    Benchmark::Correlation,
    Benchmark::PageRank,
];

/// Jobs in one `serve_mix` block: 8 Run, then 1 Sweep, then 1 Chaos.
const SERVE_BLOCK: usize = 10;
const SERVE_RUNS_PER_BLOCK: usize = 8;
/// Sweep policies: one each of the greedy, equilibrium and cooperative
/// families, so a sweep exercises a cache miss and a cooperative search.
const SWEEP_POLICIES: [PolicyKind; 3] = [
    PolicyKind::Greedy,
    PolicyKind::EquilibriumThreshold,
    PolicyKind::CooperativeThreshold,
];
/// Trial seeds per sweep and per chaos job.
const MULTI_SEEDS: u64 = 4;

/// The job class of a generated spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A single simulation run.
    Run,
    /// A multi-trial sweep.
    Sweep,
    /// A control-plane partition chaos suite.
    Chaos,
}

impl Class {
    /// Stable lower-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Class::Run => "run",
            Class::Sweep => "sweep",
            Class::Chaos => "chaos",
        }
    }
}

/// Sizes of the generated jobs. [`Shape::full`] is what the benchmark
/// measures; [`Shape::smoke`] is a reduced size for the harness's own
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Rack size of Run jobs.
    pub run_agents: u32,
    /// Epochs of Run jobs.
    pub run_epochs: usize,
    /// Engine worker-pool size for Run jobs (fixed by the workload,
    /// never read from the host).
    pub pool_jobs: usize,
    /// Rack size of Sweep and Chaos jobs.
    pub multi_agents: u32,
    /// Epochs of Sweep and Chaos jobs.
    pub multi_epochs: usize,
}

impl Shape {
    /// The measured size of `workload`.
    #[must_use]
    pub fn full(workload: Workload) -> Shape {
        match workload {
            Workload::RunLong => Shape {
                run_agents: 10_000,
                run_epochs: 2_000,
                pool_jobs: 1,
                multi_agents: 200,
                multi_epochs: 200,
            },
            Workload::RunLarge => Shape {
                run_agents: 1_000_000,
                run_epochs: 20,
                pool_jobs: 2,
                multi_agents: 200,
                multi_epochs: 200,
            },
            Workload::ServeMix => Shape {
                run_agents: 1_000,
                run_epochs: 200,
                pool_jobs: 1,
                multi_agents: 200,
                multi_epochs: 200,
            },
        }
    }

    /// A reduced size with the same job mix, for smoke tests.
    #[must_use]
    pub fn smoke(workload: Workload) -> Shape {
        let full = Shape::full(workload);
        Shape {
            run_agents: (full.run_agents / 100).max(50),
            run_epochs: (full.run_epochs / 10).max(10),
            pool_jobs: full.pool_jobs,
            multi_agents: 40,
            multi_epochs: 40,
        }
    }
}

/// One generated job: its class, the typed spec, and the JSON text the
/// program receives.
#[derive(Debug, Clone)]
pub struct GenSpec {
    /// Position in the workload's sequence.
    pub index: u64,
    /// Job class.
    pub class: Class,
    /// The typed spec (for in-process replicas).
    pub spec: JobSpec,
    /// The spec as JSON text (what the program parses).
    pub json: String,
    /// Simulated agent-epochs the job performs (trials included).
    pub agent_epochs: u64,
}

impl Workload {
    /// Parse a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::RunLong => "run_long",
            Workload::RunLarge => "run_large",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Jobs in one full cycle of the workload's spec pattern.
    #[must_use]
    pub fn cycle_len(self) -> u64 {
        match self {
            Workload::RunLong | Workload::RunLarge => RUN_BENCHMARKS.len() as u64,
            // lcm(9 benchmarks × 4 policies, 8 runs per block) = 72 runs
            // = 9 blocks of 10 jobs.
            Workload::ServeMix => 90,
        }
    }

    /// Job `index` of the workload's sequence under `seed`.
    #[must_use]
    pub fn spec(self, shape: &Shape, seed: u64, index: u64) -> GenSpec {
        let job_seed = mix(seed, index);
        let (class, job) = match self {
            Workload::RunLong | Workload::RunLarge => {
                let benchmark = RUN_BENCHMARKS[(index % RUN_BENCHMARKS.len() as u64) as usize];
                (
                    Class::Run,
                    run_job(benchmark, PolicyKind::EquilibriumThreshold, shape, job_seed),
                )
            }
            Workload::ServeMix => serve_job(shape, index, job_seed),
        };
        let spec = JobSpec::new(job);
        let json = serde_json::to_string(&spec).expect("job specs serialize");
        let agent_epochs = agent_epochs(&spec);
        GenSpec {
            index,
            class,
            spec,
            json,
            agent_epochs,
        }
    }
}

fn run_job(benchmark: Benchmark, policy: PolicyKind, shape: &Shape, seed: u64) -> JobKind {
    JobKind::Run {
        spec: RunSpec {
            benchmark: benchmark.name().to_string(),
            policy,
            agents: shape.run_agents,
            epochs: shape.run_epochs,
            seed,
            jobs: None,
        },
    }
}

fn serve_job(shape: &Shape, index: u64, job_seed: u64) -> (Class, JobKind) {
    let block = index / SERVE_BLOCK as u64;
    let pos = (index % SERVE_BLOCK as u64) as usize;
    if pos < SERVE_RUNS_PER_BLOCK {
        let run = block * SERVE_RUNS_PER_BLOCK as u64 + pos as u64;
        let pair = (run % (SERVE_BENCHMARKS.len() * PolicyKind::ALL.len()) as u64) as usize;
        let benchmark = SERVE_BENCHMARKS[pair / PolicyKind::ALL.len()];
        let policy = PolicyKind::ALL[pair % PolicyKind::ALL.len()];
        return (Class::Run, run_job(benchmark, policy, shape, job_seed));
    }
    let benchmark = SERVE_BENCHMARKS[(block % SERVE_BENCHMARKS.len() as u64) as usize];
    if pos == SERVE_RUNS_PER_BLOCK {
        // A fresh game per sweep (N_min nudged by the job seed), so its
        // E-T solve can never hit the daemon's cache.
        let mut game = GameVariant::paper(format!("v{index}"));
        game.n_min_frac = 0.20 + 0.10 * unit(job_seed);
        let spec = SweepSpec {
            games: vec![game],
            populations: vec![PopulationSpec::homogeneous(benchmark, shape.multi_agents)],
            plans: Vec::new(),
            adversaries: Vec::new(),
            policies: SWEEP_POLICIES.to_vec(),
            seeds: (0..MULTI_SEEDS).map(|k| mix(job_seed, k)).collect(),
            epochs: shape.multi_epochs,
            options: RunOptions::default(),
        };
        (Class::Sweep, JobKind::Sweep { spec })
    } else {
        let spec = ChaosSpec {
            benchmark: benchmark.name().to_string(),
            agents: shape.multi_agents,
            epochs: shape.multi_epochs,
            seeds: MULTI_SEEDS,
            fault_seed: job_seed,
            mode: ChaosMode::Partition {
                start: None,
                duration: shape.multi_epochs / 5,
            },
        };
        (Class::Chaos, JobKind::Chaos { spec })
    }
}

/// Simulated agent-epochs of a job, counting every trial.
#[must_use]
fn agent_epochs(spec: &JobSpec) -> u64 {
    match &spec.job {
        JobKind::Run { spec } => u64::from(spec.agents) * spec.epochs as u64,
        JobKind::Sweep { spec } => {
            let agents: u64 = spec.populations.iter().map(|p| u64::from(p.agents)).sum();
            agents * spec.epochs as u64 * (spec.trial_count() / spec.populations.len()) as u64
        }
        JobKind::Chaos { spec } => u64::from(spec.agents) * spec.epochs as u64 * spec.seeds,
    }
}

/// SplitMix64 of `(seed, index)`, folded to 32 bits so every seed
/// survives a JSON round trip exactly.
#[must_use]
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 32
}

fn unit(x: u64) -> f64 {
    (x & 0xFFFF_FFFF) as f64 / 4_294_967_296.0
}
