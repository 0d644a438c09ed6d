//! Numerical substrate for the computational sprinting game.
//!
//! The sprinting game (Fan, Zahedi, Lee — ASPLOS 2016) reasons about agent
//! populations through probability densities over sprinting utility,
//! Markov chains over agent states, and kernel density estimates of
//! workload speedups. This crate provides those numerical tools:
//!
//! - [`dist`] — parametric continuous distributions with analytic
//!   pdf/cdf and sampling (uniform, truncated normal, log-normal, mixtures).
//! - [`density`] — [`DiscreteDensity`](density::DiscreteDensity), a density
//!   discretized on a uniform grid. This is the `f(u)` representation the
//!   game's Bellman solver integrates against.
//! - [`geometric`] — geometric waiting times by inversion, with an exact
//!   `ln`-free table form for the simulator's event scheduling.
//! - [`histogram`] — fixed-bin histograms and quantiles.
//! - [`kde`] — Gaussian kernel density estimation (paper Figure 10).
//! - [`markov`] — finite Markov chains and stationary distributions
//!   (paper Figure 5).
//! - [`summary`] — online summary statistics (Welford) and percentiles.
//! - [`rng`] — deterministic seed derivation for reproducible experiments.
//!
//! # Example
//!
//! Estimate a density from samples and integrate its upper tail — exactly
//! what the game does to compute an agent's sprint probability
//! `p_s = ∫_{u_T}^{u_max} f(u) du` (paper Equation 9):
//!
//! ```
//! use sprint_stats::density::DiscreteDensity;
//!
//! # fn main() -> Result<(), sprint_stats::StatsError> {
//! let samples: Vec<f64> = (0..1000).map(|i| 1.0 + (i % 50) as f64 / 10.0).collect();
//! let f = DiscreteDensity::from_samples(&samples, 64)?;
//! let p_sprint = f.tail_mass(3.0);
//! assert!(p_sprint > 0.0 && p_sprint < 1.0);
//! # Ok(())
//! # }
//! ```

pub mod density;
pub mod dist;
pub mod geometric;
pub mod histogram;
pub mod kde;
pub mod linalg;
pub mod markov;
pub mod rng;
pub mod summary;

mod error;

pub use error::StatsError;

/// Convenience result alias for fallible statistics operations.
pub type Result<T> = std::result::Result<T, StatsError>;

/// Absolute tolerance used by iterative numerical routines in this crate.
pub const DEFAULT_TOLERANCE: f64 = 1e-10;

/// Compare two floats for approximate equality with an absolute tolerance.
///
/// ```
/// assert!(sprint_stats::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!sprint_stats::approx_eq(1.0, 1.1, 1e-9));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}
