//! Parametric continuous distributions.
//!
//! The workload substrate models each benchmark's sprinting speedup with a
//! parametric distribution: narrow bands for Linear Regression and
//! Correlation, heavy-tailed bimodal mixtures for the graph workloads
//! (paper Figure 10). Each distribution exposes an analytic pdf and cdf —
//! required by the game's closed-form integrals — plus exact sampling for
//! the simulator.

use rand::rngs::StdRng;
use rand::Rng;

use crate::StatsError;

/// Error function `erf(x)`, accurate to about `1.2e-7` absolute error.
///
/// Implements the Abramowitz & Stegun 7.1.26 rational approximation, which
/// is more than sufficient for density calibration (the game's outputs are
/// insensitive to pdf errors far below simulation noise).
#[must_use]
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal cumulative distribution function.
#[must_use]
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal probability density function.
#[must_use]
pub fn std_normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// A one-dimensional continuous distribution with analytic pdf/cdf and
/// exact sampling.
///
/// The trait is object-safe so heterogeneous benchmark profiles can store
/// `Box<dyn ContinuousDistribution>`.
pub trait ContinuousDistribution: std::fmt::Debug + Send + Sync {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative probability `P(X <= x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Draw one sample.
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64;

    /// Draw one sample, but compute its value only when
    /// [`Deferred::value`] is called.
    ///
    /// Consumes exactly the generator words [`Self::sample`] would, and
    /// the deferred value is bit-for-bit what `sample` would have
    /// returned. A caller that overwrites most of its draws — replaying a
    /// phase process to find where it stands — skips the transcendental
    /// work of every draw it never reads. It takes the workspace's
    /// concrete generator, so the draws inline into that loop. The
    /// default computes eagerly.
    fn sample_deferred(&self, rng: &mut StdRng) -> Deferred {
        Deferred::Ready(self.sample(rng))
    }

    /// Support of the distribution as `(lo, hi)`.
    ///
    /// Values outside the support have zero density. Distributions with
    /// unbounded support report a finite effective range covering at least
    /// `1 - 1e-9` of the mass, which is what grid discretization consumes.
    fn support(&self) -> (f64, f64);

    /// Mean of the distribution.
    fn mean(&self) -> f64;
}

/// A draw from [`ContinuousDistribution::sample_deferred`]: the uniforms
/// a sampler consumed, kept until the value is needed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Deferred {
    /// A value computed eagerly.
    Ready(f64),
    /// A truncated-normal draw certain to be accepted on its cosine
    /// candidate at the Box–Muller uniforms `(u1, u2)`.
    TruncatedCosine {
        /// The sampled distribution.
        dist: TruncatedNormal,
        /// Radius uniform.
        u1: f64,
        /// Angle uniform.
        u2: f64,
    },
    /// A log-normal draw at the Box–Muller uniforms `(u1, u2)`.
    LogNormal {
        /// The sampled distribution.
        dist: LogNormal,
        /// Radius uniform.
        u1: f64,
        /// Angle uniform.
        u2: f64,
    },
}

impl Deferred {
    /// The sample's value — what [`ContinuousDistribution::sample`]
    /// would have returned for the same generator words.
    #[must_use]
    pub fn value(&self) -> f64 {
        match *self {
            Deferred::Ready(x) => x,
            Deferred::TruncatedCosine { dist, u1, u2 } => dist
                .candidate(u1, u2)
                .expect("a certified draw is accepted on its cosine candidate"),
            Deferred::LogNormal { dist, u1, u2 } => dist.at(u1, u2),
        }
    }
}

/// The Box–Muller radius for the uniform `u1`.
#[inline]
fn box_muller_radius(u1: f64) -> f64 {
    (-2.0 * u1.max(f64::MIN_POSITIVE).ln()).sqrt()
}

/// The Box–Muller angle for the uniform `u2`.
#[inline]
fn box_muller_angle(u2: f64) -> f64 {
    2.0 * std::f64::consts::PI * u2
}

/// Uniform distribution on `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Create a uniform distribution on `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `hi <= lo` or either
    /// bound is non-finite.
    pub fn new(lo: f64, hi: f64) -> crate::Result<Self> {
        if !lo.is_finite() || !hi.is_finite() || hi <= lo {
            return Err(StatsError::InvalidParameter {
                name: "hi",
                value: hi,
                expected: "a finite value strictly greater than lo",
            });
        }
        Ok(Uniform { lo, hi })
    }

    /// Lower bound of the support.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the support.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.hi
    }
}

impl ContinuousDistribution for Uniform {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            0.0
        } else {
            1.0 / (self.hi - self.lo)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        let u: f64 = rand::Rng::gen(&mut *rng);
        self.lo + u * (self.hi - self.lo)
    }

    fn support(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

/// Normal distribution truncated to `[lo, hi]`.
///
/// Used for the narrow speedup bands of Linear Regression and Correlation:
/// "performance gains from sprinting vary in a band between 3× and 5×"
/// (paper §6.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    mu: f64,
    sigma: f64,
    lo: f64,
    hi: f64,
    /// Normalizing mass `Phi((hi-mu)/sigma) - Phi((lo-mu)/sigma)`.
    z: f64,
    /// Radius uniforms above this put the cosine candidate inside
    /// `[lo, hi]` whatever the angle (see
    /// [`TruncatedNormal::sure_accept_threshold`]); 1.0 when no radius is
    /// that safe.
    sure_accept: f64,
}

impl TruncatedNormal {
    /// Create a normal distribution with location `mu` and scale `sigma`
    /// truncated to `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `sigma <= 0`, bounds are
    /// inverted, or the truncation interval carries negligible mass
    /// (less than `1e-12`), which would make rejection sampling diverge.
    pub fn new(mu: f64, sigma: f64, lo: f64, hi: f64) -> crate::Result<Self> {
        if sigma <= 0.0 || !sigma.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "sigma",
                value: sigma,
                expected: "a positive finite number",
            });
        }
        if hi <= lo {
            return Err(StatsError::InvalidParameter {
                name: "hi",
                value: hi,
                expected: "a value strictly greater than lo",
            });
        }
        let z = std_normal_cdf((hi - mu) / sigma) - std_normal_cdf((lo - mu) / sigma);
        if z < 1e-12 {
            return Err(StatsError::InvalidParameter {
                name: "lo",
                value: lo,
                expected: "a truncation interval with non-negligible mass",
            });
        }
        Ok(TruncatedNormal {
            mu,
            sigma,
            lo,
            hi,
            z,
            sure_accept: TruncatedNormal::sure_accept_threshold(mu, sigma, lo, hi),
        })
    }

    /// The radius uniform above which a Box–Muller pair is accepted on
    /// its cosine candidate for every angle, as computed in `f64`.
    ///
    /// Rounding is monotone, so for a radius `r <= r_safe` and any
    /// `|cos| <= 1`: `|r·cos| <= r_safe`, `|sigma·(r·cos)| <=
    /// fl(sigma·r_safe)`, and `mu ± that` lies between `fl(mu −
    /// fl(sigma·r_safe))` and `fl(mu + fl(sigma·r_safe))` — both checked
    /// against the bounds here. The threshold on `u1` maps `r_safe`
    /// (shrunk by 1e-9, far above the few-ulp error of `ln` and `sqrt`)
    /// through `r = sqrt(-2 ln u1)`, rounded up.
    fn sure_accept_threshold(mu: f64, sigma: f64, lo: f64, hi: f64) -> f64 {
        let mut r_safe = ((mu - lo).min(hi - mu) / sigma).max(0.0);
        while r_safe > 0.0 && !(mu - sigma * r_safe >= lo && mu + sigma * r_safe <= hi) {
            r_safe *= 1.0 - 1e-12;
        }
        if r_safe <= 0.0 {
            return 1.0;
        }
        let r = r_safe * (1.0 - 1e-9);
        ((-0.5 * r * r).exp() * (1.0 + 1e-12)).min(1.0)
    }

    /// The accepted candidate for the Box–Muller uniforms `(u1, u2)`: the
    /// cosine one if it lands in `[lo, hi]`, else the sine one, else
    /// none. The sine candidate is only computed when the cosine one is
    /// rejected.
    #[inline]
    fn candidate(&self, u1: f64, u2: f64) -> Option<f64> {
        let r = box_muller_radius(u1);
        let theta = box_muller_angle(u2);
        let x = self.mu + self.sigma * (r * theta.cos());
        if x >= self.lo && x <= self.hi {
            return Some(x);
        }
        let x = self.mu + self.sigma * (r * theta.sin());
        (x >= self.lo && x <= self.hi).then_some(x)
    }

    /// Location parameter of the parent normal.
    #[must_use]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Scale parameter of the parent normal.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl ContinuousDistribution for TruncatedNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            return 0.0;
        }
        std_normal_pdf((x - self.mu) / self.sigma) / (self.sigma * self.z)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            (std_normal_cdf((x - self.mu) / self.sigma)
                - std_normal_cdf((self.lo - self.mu) / self.sigma))
                / self.z
        }
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        // Rejection sampling from the parent normal. The constructor
        // guarantees the acceptance region has mass >= 1e-12; in practice
        // the workload profiles keep it above 0.5, so this loop is short.
        loop {
            let u1: f64 = rand::Rng::gen(&mut *rng);
            let u2: f64 = rand::Rng::gen(&mut *rng);
            if let Some(x) = self.candidate(u1, u2) {
                return x;
            }
        }
    }

    fn sample_deferred(&self, rng: &mut StdRng) -> Deferred {
        loop {
            let u1: f64 = rng.gen();
            let u2: f64 = rng.gen();
            if u1 > self.sure_accept {
                return Deferred::TruncatedCosine {
                    dist: *self,
                    u1,
                    u2,
                };
            }
            if let Some(x) = self.candidate(u1, u2) {
                return Deferred::Ready(x);
            }
        }
    }

    fn support(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    fn mean(&self) -> f64 {
        // E[X] = mu + sigma * (phi(a) - phi(b)) / Z for truncation [a, b]
        // in standardized coordinates.
        let a = (self.lo - self.mu) / self.sigma;
        let b = (self.hi - self.mu) / self.sigma;
        self.mu + self.sigma * (std_normal_pdf(a) - std_normal_pdf(b)) / self.z
    }
}

/// Log-normal distribution: `ln X ~ Normal(mu, sigma)`.
///
/// Models heavy-tailed speedups like PageRank's, whose "performance gains
/// can often exceed 10×" (paper §6.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Create a log-normal with log-location `mu` and log-scale `sigma`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `sigma <= 0`.
    pub fn new(mu: f64, sigma: f64) -> crate::Result<Self> {
        if sigma <= 0.0 || !sigma.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "sigma",
                value: sigma,
                expected: "a positive finite number",
            });
        }
        Ok(LogNormal { mu, sigma })
    }

    /// The sample for the Box–Muller uniforms `(u1, u2)`.
    #[inline]
    fn at(&self, u1: f64, u2: f64) -> f64 {
        let z = box_muller_radius(u1) * box_muller_angle(u2).cos();
        (self.mu + self.sigma * z).exp()
    }
}

impl ContinuousDistribution for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        std_normal_pdf((x.ln() - self.mu) / self.sigma) / (x * self.sigma)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            std_normal_cdf((x.ln() - self.mu) / self.sigma)
        }
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        let u1: f64 = rand::Rng::gen(&mut *rng);
        let u2: f64 = rand::Rng::gen(&mut *rng);
        self.at(u1, u2)
    }

    fn sample_deferred(&self, rng: &mut StdRng) -> Deferred {
        let u1: f64 = rng.gen();
        let u2: f64 = rng.gen();
        Deferred::LogNormal {
            dist: *self,
            u1,
            u2,
        }
    }

    fn support(&self) -> (f64, f64) {
        // Effective support covering ~1 - 1e-9 of mass: mu ± 6 sigma in
        // log space.
        (
            (self.mu - 6.0 * self.sigma).exp(),
            (self.mu + 6.0 * self.sigma).exp(),
        )
    }

    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }
}

/// Finite mixture of distributions with given weights.
///
/// PageRank-style bimodal utility profiles are mixtures of a low-gain and a
/// high-gain mode (paper Figure 10, right panel).
#[derive(Debug)]
pub struct Mixture {
    components: Vec<Box<dyn ContinuousDistribution>>,
    weights: Vec<f64>,
    cumulative: Vec<f64>,
}

impl Mixture {
    /// Create a mixture from components and matching weights.
    ///
    /// Weights must be non-negative and are normalized to sum to 1.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when no components are given,
    /// [`StatsError::DimensionMismatch`] when lengths differ, and
    /// [`StatsError::NotNormalized`] when all weights are zero.
    pub fn new(
        components: Vec<Box<dyn ContinuousDistribution>>,
        weights: Vec<f64>,
    ) -> crate::Result<Self> {
        if components.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        if components.len() != weights.len() {
            return Err(StatsError::DimensionMismatch {
                expected: components.len(),
                found: weights.len(),
            });
        }
        if weights.iter().any(|&w| w < 0.0 || !w.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "weights",
                value: f64::NAN,
                expected: "non-negative finite weights",
            });
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(StatsError::NotNormalized { mass: total });
        }
        let weights: Vec<f64> = weights.into_iter().map(|w| w / total).collect();
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in &weights {
            acc += w;
            cumulative.push(acc);
        }
        Ok(Mixture {
            components,
            weights,
            cumulative,
        })
    }

    /// Number of mixture components.
    #[must_use]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the mixture has no components (never true after `new`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Normalized component weights.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The component a uniform draw `u` picks.
    fn component(&self, u: f64) -> &dyn ContinuousDistribution {
        let idx = self
            .cumulative
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(self.components.len() - 1);
        self.components[idx].as_ref()
    }
}

impl ContinuousDistribution for Mixture {
    fn pdf(&self, x: f64) -> f64 {
        self.components
            .iter()
            .zip(&self.weights)
            .map(|(c, w)| w * c.pdf(x))
            .sum()
    }

    fn cdf(&self, x: f64) -> f64 {
        self.components
            .iter()
            .zip(&self.weights)
            .map(|(c, w)| w * c.cdf(x))
            .sum()
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        let u: f64 = rand::Rng::gen(&mut *rng);
        self.component(u).sample(rng)
    }

    fn sample_deferred(&self, rng: &mut StdRng) -> Deferred {
        let u: f64 = rng.gen();
        self.component(u).sample_deferred(rng)
    }

    fn support(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for c in &self.components {
            let (l, h) = c.support();
            lo = lo.min(l);
            hi = hi.max(h);
        }
        (lo, hi)
    }

    fn mean(&self) -> f64 {
        self.components
            .iter()
            .zip(&self.weights)
            .map(|(c, w)| w * c.mean())
            .sum()
    }
}

/// Draw `n` samples from a distribution into a vector.
pub fn sample_n<D, R>(dist: &D, n: usize, rng: &mut R) -> Vec<f64>
where
    D: ContinuousDistribution + ?Sized,
    R: Rng,
{
    (0..n).map(|_| dist.sample(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {a} ≈ {b} (tol {tol})");
    }

    #[test]
    fn erf_reference_values() {
        assert_close(erf(0.0), 0.0, 1e-8);
        assert_close(erf(1.0), 0.842_700_79, 2e-7);
        assert_close(erf(-1.0), -0.842_700_79, 2e-7);
        assert_close(erf(2.0), 0.995_322_27, 2e-7);
    }

    #[test]
    fn std_normal_cdf_symmetry() {
        for x in [0.1, 0.5, 1.3, 2.7] {
            assert_close(std_normal_cdf(x) + std_normal_cdf(-x), 1.0, 1e-9);
        }
    }

    #[test]
    fn uniform_rejects_bad_bounds() {
        assert!(Uniform::new(2.0, 1.0).is_err());
        assert!(Uniform::new(1.0, 1.0).is_err());
        assert!(Uniform::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn uniform_pdf_cdf_consistency() {
        let u = Uniform::new(2.0, 6.0).unwrap();
        assert_close(u.pdf(4.0), 0.25, 1e-12);
        assert_close(u.cdf(2.0), 0.0, 1e-12);
        assert_close(u.cdf(4.0), 0.5, 1e-12);
        assert_close(u.cdf(6.0), 1.0, 1e-12);
        assert_eq!(u.pdf(1.0), 0.0);
        assert_close(u.mean(), 4.0, 1e-12);
    }

    #[test]
    fn uniform_samples_stay_in_support() {
        let u = Uniform::new(-1.0, 3.0).unwrap();
        let mut rng = seeded_rng(1);
        for _ in 0..1000 {
            let x = u.sample(&mut rng);
            assert!((-1.0..=3.0).contains(&x));
        }
    }

    #[test]
    fn truncated_normal_validates() {
        assert!(TruncatedNormal::new(0.0, -1.0, 0.0, 1.0).is_err());
        assert!(TruncatedNormal::new(0.0, 1.0, 2.0, 1.0).is_err());
        // Interval 40 sigma away from the mean carries ~zero mass.
        assert!(TruncatedNormal::new(0.0, 1.0, 40.0, 41.0).is_err());
    }

    #[test]
    fn truncated_normal_mean_matches_sampling() {
        let d = TruncatedNormal::new(4.0, 0.5, 3.0, 5.0).unwrap();
        let mut rng = seeded_rng(2);
        let samples = sample_n(&d, 20_000, &mut rng);
        let emp_mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert_close(emp_mean, d.mean(), 0.02);
        assert!(samples.iter().all(|&x| (3.0..=5.0).contains(&x)));
    }

    #[test]
    fn truncated_normal_cdf_bounds() {
        let d = TruncatedNormal::new(0.0, 1.0, -1.0, 1.0).unwrap();
        assert_eq!(d.cdf(-2.0), 0.0);
        assert_eq!(d.cdf(2.0), 1.0);
        assert_close(d.cdf(0.0), 0.5, 1e-7);
    }

    #[test]
    fn lognormal_mean_is_analytic() {
        let d = LogNormal::new(1.0, 0.5).unwrap();
        assert_close(d.mean(), (1.0f64 + 0.125).exp(), 1e-12);
        let mut rng = seeded_rng(3);
        let samples = sample_n(&d, 50_000, &mut rng);
        let emp = samples.iter().sum::<f64>() / samples.len() as f64;
        assert_close(emp, d.mean(), 0.06);
    }

    #[test]
    fn lognormal_pdf_zero_below_support() {
        let d = LogNormal::new(0.0, 1.0).unwrap();
        assert_eq!(d.pdf(-1.0), 0.0);
        assert_eq!(d.cdf(0.0), 0.0);
    }

    #[test]
    fn mixture_validates_inputs() {
        let c = || -> Box<dyn ContinuousDistribution> { Box::new(Uniform::new(0.0, 1.0).unwrap()) };
        assert!(matches!(
            Mixture::new(vec![], vec![]),
            Err(StatsError::EmptyInput)
        ));
        assert!(matches!(
            Mixture::new(vec![c()], vec![0.5, 0.5]),
            Err(StatsError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Mixture::new(vec![c()], vec![0.0]),
            Err(StatsError::NotNormalized { .. })
        ));
        assert!(Mixture::new(vec![c()], vec![-1.0]).is_err());
    }

    #[test]
    fn mixture_normalizes_weights() {
        let m = Mixture::new(
            vec![
                Box::new(Uniform::new(0.0, 1.0).unwrap()),
                Box::new(Uniform::new(10.0, 11.0).unwrap()),
            ],
            vec![2.0, 6.0],
        )
        .unwrap();
        assert_close(m.weights()[0], 0.25, 1e-12);
        assert_close(m.weights()[1], 0.75, 1e-12);
        assert_close(m.mean(), 0.25 * 0.5 + 0.75 * 10.5, 1e-12);
    }

    #[test]
    fn mixture_cdf_is_weighted_sum() {
        let m = Mixture::new(
            vec![
                Box::new(Uniform::new(0.0, 2.0).unwrap()),
                Box::new(Uniform::new(4.0, 6.0).unwrap()),
            ],
            vec![0.5, 0.5],
        )
        .unwrap();
        assert_close(m.cdf(2.0), 0.5, 1e-12);
        assert_close(m.cdf(6.0), 1.0, 1e-12);
        assert_close(m.cdf(1.0), 0.25, 1e-12);
    }

    #[test]
    fn mixture_sampling_respects_weights() {
        let m = Mixture::new(
            vec![
                Box::new(Uniform::new(0.0, 1.0).unwrap()),
                Box::new(Uniform::new(10.0, 11.0).unwrap()),
            ],
            vec![0.2, 0.8],
        )
        .unwrap();
        let mut rng = seeded_rng(4);
        let samples = sample_n(&m, 10_000, &mut rng);
        let high = samples.iter().filter(|&&x| x > 5.0).count() as f64 / 10_000.0;
        assert_close(high, 0.8, 0.02);
    }

    #[test]
    fn mixture_support_spans_components() {
        let m = Mixture::new(
            vec![
                Box::new(Uniform::new(1.0, 2.0).unwrap()),
                Box::new(Uniform::new(5.0, 9.0).unwrap()),
            ],
            vec![0.5, 0.5],
        )
        .unwrap();
        assert_eq!(m.support(), (1.0, 9.0));
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn deferred_draws_match_eager_draws_bit_for_bit() {
        let tn = |mu, sigma, lo, hi| -> Box<dyn ContinuousDistribution> {
            Box::new(TruncatedNormal::new(mu, sigma, lo, hi).unwrap())
        };
        let dists: Vec<Box<dyn ContinuousDistribution>> = vec![
            tn(1.8, 0.4, 1.0, 3.0),
            // Bounds off-centre, a window narrower than sigma, and one
            // no radius is safe for: every branch of the threshold.
            tn(4.0, 0.45, 3.0, 5.0),
            tn(0.0, 5.0, -0.5, 0.5),
            tn(3.0, 1.0, 3.5, 6.0),
            Box::new(LogNormal::new(2.43, 0.16).unwrap()),
            Box::new(
                Mixture::new(
                    vec![
                        tn(2.5, 0.6, 1.2, 4.5),
                        Box::new(LogNormal::new(2.43, 0.16).unwrap()),
                        Box::new(Uniform::new(0.0, 1.0).unwrap()),
                    ],
                    vec![0.5, 0.3, 0.2],
                )
                .unwrap(),
            ),
        ];
        for (d, dist) in dists.iter().enumerate() {
            for seed in 0..2_000u64 {
                let mut eager = seeded_rng(seed ^ ((d as u64) << 32));
                let mut deferred = eager.clone();
                let x = dist.sample(&mut eager);
                let y = dist.sample_deferred(&mut deferred).value();
                assert_eq!(x.to_bits(), y.to_bits(), "dist {d}, seed {seed}");
                assert_eq!(eager, deferred, "dist {d}, seed {seed}: words consumed");
            }
        }
    }

    #[test]
    fn sure_accept_radius_keeps_every_cosine_candidate_in_bounds() {
        for (mu, sigma, lo, hi) in [
            (1.8, 0.4, 1.0, 3.0),
            (5.8, 0.9, 3.5, 8.5),
            (4.0, 0.45, 3.0, 5.0),
            (12.0, 1.5, 8.0, 16.0),
            (1.0, 0.1, 0.9, 2.0),
        ] {
            let d = TruncatedNormal::new(mu, sigma, lo, hi).unwrap();
            assert!(d.sure_accept < 1.0, "({mu}, {sigma}) has a safe radius");
            // The smallest radius uniform the threshold admits gives the
            // largest radius; cos = ±1 puts the candidate at the extremes.
            let u1 = f64::from_bits(d.sure_accept.to_bits() + 1);
            for u2 in [0.0, 0.5, 0.25, 0.125, 1.0 - f64::EPSILON] {
                let r = box_muller_radius(u1);
                let x = d.mu + d.sigma * (r * box_muller_angle(u2).cos());
                assert!((lo..=hi).contains(&x), "({mu}, {sigma}): u2 {u2} gives {x}");
            }
        }
    }
}
