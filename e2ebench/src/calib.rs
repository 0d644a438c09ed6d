//! The host-speed probe.
//!
//! The benchmark runs on a few cores of a shared host whose speed swings
//! by up to 2x over tens of minutes and by several percent over seconds
//! (other tenants on the same cores and caches). Raw wall times of the
//! same code therefore move between sets of runs by more than any useful
//! bound.
//!
//! The probe is a fixed amount of work in the benchmark's own code, shaped
//! like the engine's epoch kernel: per lane a state, a phase, a threshold
//! and two deadlines; per epoch a rare phase resample, a branch-free
//! decide and a branchy accumulate-and-transition pass with counter-hashed
//! draws and a logarithm, on as many lanes as the workload's Run jobs have
//! agents (so its working set sits in the same cache level). It runs on
//! one thread between the in-process workloads' jobs; split over two
//! threads it followed `run_large`'s two-thread jobs less well. Host speed
//! is a median probe rate over [`REFERENCE_LANES_PER_S`]. The program
//! never runs this code, so a change to the program moves job times but
//! not the probe.
//!
//! `serve_mix` is not probed and reports as measured: its cost is mostly
//! HTTP, fsync and thread hand-offs between two clients and two workers,
//! which the probe does not follow (its rate moved about twice as much as
//! served latency, so scaling by it added spread instead of removing it).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The reference host speed, in probe lane-updates per second: about what
/// the probe reads on the 2-vCPU Xeon VM (Sapphire Rapids class) the
/// benchmark was tuned on. Only a scale: a normalized time is the wall
/// time the same work would take on a host where the probe runs this fast.
pub const REFERENCE_LANES_PER_S: f64 = 6.0e7;

/// Lane-updates in one probe slice.
const SLICE_LANES: u64 = 4_000_000;

/// Probe lanes, sized like a workload's rack.
pub struct Probe {
    state: Vec<Lane>,
    phase: Vec<f64>,
    threshold: Vec<f64>,
    next_change: Vec<u64>,
    cool_until: Vec<u64>,
    sprinted: Vec<bool>,
    epoch: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum Lane {
    Active,
    Cooling,
}

fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn uniform(lane: u64, epoch: u64, stream: u64) -> f64 {
    (mix(lane.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (epoch << 2) ^ stream) >> 11) as f64
        / (1u64 << 53) as f64
}

fn gap(u: f64, scale: f64) -> u64 {
    1 + (-(1.0 - u).ln() * scale) as u64
}

impl Probe {
    /// A probe over `lanes` lanes (at least one).
    #[must_use]
    pub fn new(lanes: usize) -> Probe {
        let lanes = lanes.max(1);
        Probe {
            state: vec![Lane::Active; lanes],
            phase: (0..lanes as u64).map(|i| uniform(i, u64::MAX, 0)).collect(),
            threshold: (0..lanes as u64)
                .map(|i| 0.5 + 0.4 * uniform(i, u64::MAX, 1))
                .collect(),
            next_change: vec![0; lanes],
            cool_until: vec![0; lanes],
            sprinted: vec![false; lanes],
            epoch: 0,
        }
    }

    /// One epoch over every lane, in the engine's three passes (rare
    /// phase resample; branch-free decide; accumulate and transition);
    /// returns a checksum.
    fn pass(&mut self) -> f64 {
        let epoch = self.epoch;
        self.epoch += 1;
        let lanes = self.state.len();
        for i in 0..lanes {
            if epoch == self.next_change[i] {
                self.phase[i] = uniform(i as u64, epoch, 2);
                self.next_change[i] = epoch + gap(uniform(i as u64, epoch, 3), 8.0);
            }
        }
        for i in 0..lanes {
            self.sprinted[i] =
                (self.state[i] == Lane::Active) & (self.phase[i] > self.threshold[i]);
        }
        let mut tasks = 0.0;
        for i in 0..lanes {
            match self.state[i] {
                Lane::Active if self.sprinted[i] => {
                    tasks += 3.0 * self.phase[i];
                    self.state[i] = Lane::Cooling;
                    self.cool_until[i] = epoch + gap(uniform(i as u64, epoch, 0), 4.0);
                }
                Lane::Active => tasks += 1.0,
                Lane::Cooling => {
                    tasks += 1.0;
                    if epoch >= self.cool_until[i] {
                        self.state[i] = Lane::Active;
                    }
                }
            }
        }
        tasks
    }

    /// Time one slice of fixed work; returns lane-updates per second.
    pub fn slice(&mut self) -> f64 {
        let lanes = self.state.len() as u64;
        let passes = SLICE_LANES.div_ceil(lanes).max(1);
        let t0 = Instant::now();
        for _ in 0..passes {
            black_box(self.pass());
        }
        (passes * lanes) as f64 / t0.elapsed().as_secs_f64()
    }

    /// Time slices until they have taken `share` of `job` (at least one
    /// slice), so the probe's samples grow with the work they stand for.
    pub fn slices_for(&mut self, job: Duration, share: f64, rates: &mut Vec<f64>) {
        let t0 = Instant::now();
        loop {
            rates.push(self.slice());
            if t0.elapsed().as_secs_f64() >= share * job.as_secs_f64() {
                break;
            }
        }
    }
}
