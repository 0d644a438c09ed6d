//! Deterministic random-number plumbing.
//!
//! Experiments in this repository are reproducible: every simulation takes a
//! `u64` master seed, and per-agent / per-trial generators are derived with
//! [`SeedSequence`], a SplitMix64-based splitter. Two runs with the same
//! master seed produce bit-identical results regardless of agent count or
//! iteration order.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Advance a SplitMix64 state and return the next output word.
///
/// SplitMix64 is the standard generator for deriving independent seeds from
/// one master seed (Steele, Lea, Flood — OOPSLA 2014). It is not used for
/// sampling itself, only for seeding [`StdRng`] instances.
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    finalize(*state)
}

/// Derives independent child seeds and generators from a master seed.
///
/// ```
/// use sprint_stats::rng::SeedSequence;
///
/// let mut seq = SeedSequence::new(42);
/// let a = seq.next_seed();
/// let b = seq.next_seed();
/// assert_ne!(a, b);
///
/// // Identical master seeds produce identical sequences.
/// let mut seq2 = SeedSequence::new(42);
/// assert_eq!(seq2.next_seed(), a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeedSequence {
    state: u64,
}

impl SeedSequence {
    /// Create a sequence rooted at `master_seed`.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        SeedSequence { state: master_seed }
    }

    /// Produce the next child seed.
    pub fn next_seed(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// The seed the `(i + 1)`-th [`SeedSequence::next_seed`] call would
    /// return from this state, without advancing it.
    ///
    /// SplitMix64 steps its state by a fixed odd increment, so every
    /// child seed is addressable by index: this is what lets a population
    /// derive agent `i`'s seed on any thread in any order.
    ///
    /// ```
    /// use sprint_stats::rng::SeedSequence;
    ///
    /// let seq = SeedSequence::new(42);
    /// let mut walk = seq;
    /// for i in 0..1_000 {
    ///     assert_eq!(seq.seed_at(i), walk.next_seed());
    /// }
    /// ```
    #[must_use]
    pub fn seed_at(&self, i: u64) -> u64 {
        finalize(
            self.state
                .wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
    }

    /// Produce a generator seeded with the next child seed.
    pub fn next_rng(&mut self) -> StdRng {
        StdRng::seed_from_u64(self.next_seed())
    }

    /// Derive a seed for a named stream without advancing this sequence.
    ///
    /// Useful when the same logical entity (e.g. agent `i` in trial `t`)
    /// must observe the same randomness across code paths.
    #[must_use]
    pub fn derive(&self, stream: u64) -> u64 {
        let mut s = self.state ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        splitmix64(&mut s)
    }
}

/// Build a deterministic generator from a master seed.
///
/// ```
/// use rand::Rng;
/// let mut rng = sprint_stats::rng::seeded_rng(7);
/// let x: f64 = rng.gen();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[must_use]
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Finalize a 64-bit word through the SplitMix64 avalanche function
/// (without the additive state step).
#[inline]
#[must_use]
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stateless counter-based random stream: every draw is a pure
/// function of `(purpose key, agent, epoch, slot)`.
///
/// Unlike a sequential generator, draws consume no shared state, so any
/// subset of agents can be evaluated on any thread in any order — or
/// speculatively, then discarded — and the realized randomness is
/// bit-identical. This is the primitive behind the engine's
/// jobs-invariant parallel epoch loop: the *coordinates* of a draw, not
/// the order draws are made in, determine its value.
///
/// The mixing is three chained SplitMix64 avalanche rounds, one per
/// coordinate, each perturbed by a distinct odd multiplier so that
/// `(agent, epoch)` and `(epoch, agent)` never collide structurally.
///
/// ```
/// use sprint_stats::rng::CounterRng;
///
/// let stream = CounterRng::new(42, 7);
/// // Pure: same coordinates, same draw — in any order, on any thread.
/// assert_eq!(stream.word(3, 100, 0), stream.word(3, 100, 0));
/// assert_ne!(stream.word(3, 100, 0), stream.word(4, 100, 0));
/// let u = stream.uniform(3, 100, 0);
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterRng {
    key: u64,
}

impl CounterRng {
    /// Create a stream for one `(seed, purpose)` pair. Distinct purposes
    /// (crash churn, sensor noise, breaker trips, …) rooted at the same
    /// seed yield statistically independent streams.
    #[must_use]
    pub fn new(seed: u64, purpose: u64) -> Self {
        let mut state = seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407);
        CounterRng {
            key: splitmix64(&mut state),
        }
    }

    /// The raw 64-bit draw at `(agent, epoch, slot)`.
    #[inline]
    #[must_use]
    pub fn word(&self, agent: u64, epoch: u64, slot: u64) -> u64 {
        let z = finalize(self.key ^ agent.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let z = finalize(z ^ epoch.wrapping_mul(0xD133_7B3B_24AF_F163));
        finalize(z ^ slot.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7) ^ 0x6A09_E667_F3BC_C909)
    }

    /// A uniform draw in `[0, 1)` at `(agent, epoch, slot)`, using the
    /// same 53-bit mantissa scaling as the sequential generators.
    #[inline]
    #[must_use]
    pub fn uniform(&self, agent: u64, epoch: u64, slot: u64) -> f64 {
        (self.word(agent, epoch, slot) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// An unbiased-enough index in `[0, n)` via fixed-point 128-bit
    /// multiply (Lemire's multiply-shift; bias < 2⁻⁵⁹ for the small `n`
    /// used for stagger slots). Returns 0 when `n == 0`.
    #[inline]
    #[must_use]
    pub fn index(&self, agent: u64, epoch: u64, slot: u64, n: u64) -> u64 {
        ((u128::from(self.word(agent, epoch, slot)) * u128::from(n)) >> 64) as u64
    }

    /// A standard-normal draw at `(agent, epoch, slot)` via Box–Muller on
    /// the uniforms at slots `slot` and `slot + 1`.
    #[inline]
    #[must_use]
    pub fn normal(&self, agent: u64, epoch: u64, slot: u64) -> f64 {
        let u1 = self.uniform(agent, epoch, slot).max(f64::MIN_POSITIVE);
        let u2 = self.uniform(agent, epoch, slot + 1);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Pre-mix the `agent` coordinate into a [`CounterLane`], so a hot
    /// loop that draws many `(epoch, slot)` values for one agent pays the
    /// first avalanche round once instead of per draw. Draws through the
    /// lane are bit-identical to [`CounterRng::word`] at the same
    /// coordinates.
    #[inline]
    #[must_use]
    pub fn lane(&self, agent: u64) -> CounterLane {
        CounterLane {
            z1: finalize(self.key ^ agent.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }
}

/// A [`CounterRng`] with the agent coordinate already mixed in — the
/// per-agent handle the simulation engine stores in a flat lane. See
/// [`CounterRng::lane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterLane {
    z1: u64,
}

impl CounterLane {
    /// The raw 64-bit draw at `(epoch, slot)` — identical to
    /// [`CounterRng::word`] for the lane's agent.
    #[inline]
    #[must_use]
    pub fn word(&self, epoch: u64, slot: u64) -> u64 {
        let z = finalize(self.z1 ^ epoch.wrapping_mul(0xD133_7B3B_24AF_F163));
        finalize(z ^ slot.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7) ^ 0x6A09_E667_F3BC_C909)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_known_values() {
        // Reference values from the SplitMix64 reference implementation
        // seeded with 0.
        let mut state = 0u64;
        assert_eq!(splitmix64(&mut state), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut state), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut state), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn sequences_are_reproducible() {
        let mut a = SeedSequence::new(123);
        let mut b = SeedSequence::new(123);
        for _ in 0..16 {
            assert_eq!(a.next_seed(), b.next_seed());
        }
    }

    #[test]
    fn different_masters_diverge() {
        let mut a = SeedSequence::new(1);
        let mut b = SeedSequence::new(2);
        let hits = (0..64).filter(|_| a.next_seed() == b.next_seed()).count();
        assert_eq!(hits, 0);
    }

    #[test]
    fn derive_is_stable_and_stream_dependent() {
        let seq = SeedSequence::new(99);
        assert_eq!(seq.derive(5), seq.derive(5));
        assert_ne!(seq.derive(5), seq.derive(6));
    }

    #[test]
    fn rngs_from_same_seed_agree() {
        let mut r1 = seeded_rng(77);
        let mut r2 = seeded_rng(77);
        for _ in 0..8 {
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }

    #[test]
    fn counter_rng_is_pure_and_coordinate_sensitive() {
        let s = CounterRng::new(7, 3);
        assert_eq!(s.word(1, 2, 0), s.word(1, 2, 0));
        // Every coordinate matters.
        assert_ne!(s.word(1, 2, 0), s.word(2, 2, 0));
        assert_ne!(s.word(1, 2, 0), s.word(1, 3, 0));
        assert_ne!(s.word(1, 2, 0), s.word(1, 2, 1));
        // Swapped coordinates do not collide.
        assert_ne!(s.word(5, 9, 0), s.word(9, 5, 0));
        // Purpose and seed both separate streams.
        assert_ne!(CounterRng::new(7, 4).word(1, 2, 0), s.word(1, 2, 0));
        assert_ne!(CounterRng::new(8, 3).word(1, 2, 0), s.word(1, 2, 0));
    }

    #[test]
    fn counter_uniform_is_in_range_with_plausible_mean() {
        let s = CounterRng::new(123, 0);
        let mut sum = 0.0;
        const N: u64 = 20_000;
        for i in 0..N {
            let u = s.uniform(i, i / 7, 0);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / N as f64;
        assert!((mean - 0.5).abs() < 0.01, "uniform mean {mean}");
    }

    #[test]
    fn counter_index_stays_in_bounds_and_covers() {
        let s = CounterRng::new(9, 1);
        let mut seen = [false; 8];
        for i in 0..512u64 {
            let k = s.index(i, 0, 0, 8);
            assert!(k < 8);
            seen[k as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "all 8 slots reachable");
        assert_eq!(s.index(1, 2, 3, 0), 0, "n = 0 maps to 0");
    }

    #[test]
    fn counter_normal_has_plausible_moments() {
        let s = CounterRng::new(55, 2);
        let (mut sum, mut sq) = (0.0, 0.0);
        const N: u64 = 20_000;
        for i in 0..N {
            let z = s.normal(i, 0, 0);
            sum += z;
            sq += z * z;
        }
        let mean = sum / N as f64;
        let var = sq / N as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "normal mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "normal variance {var}");
    }

    #[test]
    fn next_rng_streams_are_independent() {
        let mut seq = SeedSequence::new(0xDEAD_BEEF);
        let mut r1 = seq.next_rng();
        let mut r2 = seq.next_rng();
        // Not a statistical test; just confirms the streams are not identical.
        let same = (0..32)
            .filter(|_| r1.gen::<u64>() == r2.gen::<u64>())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn lane_draws_match_counter_rng() {
        let rng = CounterRng::new(0xDEAD_BEEF, 8);
        for agent in [0u64, 1, 7, 1_000_003] {
            let lane = rng.lane(agent);
            for epoch in [0u64, 1, 63, u64::MAX] {
                for slot in [0u64, 1, 2] {
                    assert_eq!(lane.word(epoch, slot), rng.word(agent, epoch, slot));
                }
            }
        }
    }

    #[test]
    fn lanes_of_distinct_agents_differ() {
        let rng = CounterRng::new(5, 8);
        let words: Vec<u64> = (0..64).map(|a| rng.lane(a).word(0, 0)).collect();
        let mut sorted = words.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), words.len());
    }
}
