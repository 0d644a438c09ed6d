//! Geometric waiting times by inversion, with an exact table-driven form.
//!
//! The simulator schedules every phase change and every cooldown end by
//! drawing one geometric waiting time `1 + ⌊ln(1−u) / ln(1−p)⌋` from a
//! counter-based uniform `u = m·2⁻⁵³` (`m` the top 53 bits of a 64-bit
//! word). [`geometric_gap`] is that formula. [`GapTable`] returns the
//! same value, bit for bit, without calling `ln`: the gap is a step
//! function of the integer `m`, so a table of the `m` at which each step
//! begins answers it with two integer compares after a cheap `log2`
//! estimate from the bits of `1 − u`. Anything the table cannot vouch
//! for goes to [`geometric_gap`] itself.

/// `2⁵³`: the number of distinct uniforms a 53-bit index spans.
const M_END: u64 = 1 << 53;

/// A geometric variate on `{1, 2, ...}` by inversion of one uniform
/// `u ∈ [0, 1)`: `1 + ⌊ln(1−u) · scale⌋` with `scale = 1 / ln(1−p)`
/// precomputed for success probability `p`. The `f64 → u64` cast
/// saturates, so near-zero exit probabilities yield astronomically long
/// (not wrapped) gaps, and `p = 1` (`scale = -0.0`) always yields 1.
#[inline]
#[must_use]
pub fn geometric_gap(u: f64, scale: f64) -> u64 {
    1 + ((1.0 - u).ln() * scale) as u64
}

/// [`geometric_gap`] as a lookup on the 53-bit uniform index `m`
/// (`u = m·2⁻⁵³`), exact for every `m` and every `scale`.
///
/// Entry `k − 1` of the step table is the smallest `m` whose gap is at
/// least `k`, found at construction by bisection on [`geometric_gap`]
/// itself; the last entry is the sentinel `2⁵³`. A lookup estimates the
/// gap from a cheap `log2` of `1 − u = n·2⁻⁵³`: the position of `n`'s
/// leading one plus the next few bits select a bucket, which stores the
/// gap at the bucket's smallest `m`. Buckets are narrower than a step, so
/// the estimate is at most one step low; one compare corrects it, and the
/// result is accepted only when `thr[g−1] ≤ m < thr[g]`. A failed check
/// calls [`geometric_gap`]. A non-finite scale, a support longer than
/// 4096 gaps, or a step start whose neighbourhood is not monotone builds
/// no table, and every lookup then calls [`geometric_gap`]. DESIGN.md §12.3 gives the exactness argument.
#[derive(Debug, Clone)]
pub struct GapTable {
    scale: f64,
    /// Step starts: `thr[k−1]` is the smallest `m` with gap ≥ `k`,
    /// `thr[support] = 2⁵³`. Empty when the table is not used.
    thr: Vec<u64>,
    /// Bits of `n` below its leading one that refine a bucket.
    sub_bits: u32,
    /// Per bucket `(⌊log2 n⌋ << sub_bits) | next sub_bits of n`, the step
    /// index (gap − 1) at the bucket's smallest `m`.
    est: Vec<u16>,
}

impl GapTable {
    /// Longest support (largest gap) a table is built for.
    const MAX_SUPPORT: u64 = 4096;

    /// Half-width, in `m`, of the monotonicity check around each step
    /// start. Two uniforms whose `ln`s are within two ulps of each other
    /// are at most one `m` apart, so the jitter of an `ln` accurate to
    /// within one ulp reaches one `m` past a step start; three leaves
    /// room for an `ln` twice as coarse.
    const WINDOW: u64 = 3;

    /// Build the table for `scale` (`1 / ln(1−p)`).
    #[must_use]
    pub fn new(scale: f64) -> Self {
        let no_table = GapTable {
            scale,
            thr: Vec::new(),
            sub_bits: 0,
            est: Vec::new(),
        };
        if !scale.is_finite() {
            return no_table;
        }
        let g = |m: u64| geometric_gap(m as f64 * (1.0 / M_END as f64), scale);
        let support = g(M_END - 1);
        if !(1..=Self::MAX_SUPPORT).contains(&support) {
            return no_table;
        }
        let mut thr = Vec::with_capacity(support as usize + 1);
        thr.push(0);
        for k in 2..=support {
            let prev = *thr.last().expect("thr starts at 0");
            if g(prev) >= k {
                // Near `u = 1` one step of `m` can skip gaps; a skipped
                // gap's step is empty and shares the next one's start.
                thr.push(prev);
                continue;
            }
            // Invariant: g(lo) < k <= g(hi). The analytic step start is
            // within a few m of the true one, so try a tight bracket
            // around it first.
            let (mut lo, mut hi) = (prev, M_END - 1);
            let guess = (M_END as f64 * -((k - 1) as f64 / scale).exp_m1()) as u64;
            for radius in [2, 64] {
                let (a, b) = (guess.saturating_sub(radius), guess.saturating_add(radius));
                if a > lo && b < hi && g(a) < k && g(b) >= k {
                    (lo, hi) = (a, b);
                    break;
                }
            }
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if g(mid) < k {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let monotone = (0..Self::WINDOW).all(|j| {
                hi.checked_sub(j + 1).is_none_or(|m| g(m) < k)
                    && (hi + j >= M_END || g(hi + j) >= k)
            });
            if !monotone {
                return no_table;
            }
            thr.push(hi);
        }
        thr.push(M_END);
        // A bucket spans at most log2(1 + 2^-s) ≤ 1.45·2^-s in log2(n),
        // i.e. at most |scale|·2^-s gaps: half a step at this width.
        let sub_bits = (scale.abs().log2().floor() as i64 + 2).clamp(0, 8) as u32;
        let est = (0..54u64 << sub_bits)
            .map(|b| {
                let (e, s) = (b >> sub_bits, b & ((1 << sub_bits) - 1));
                // The largest n in the bucket is its smallest m.
                let n_hi = ((1 << e) + ((((s + 1) << e) - 1) >> sub_bits)).min(M_END);
                let m_lo = M_END - n_hi;
                (thr.partition_point(|&t| t <= m_lo) - 1) as u16
            })
            .collect();
        GapTable {
            thr,
            sub_bits,
            est,
            ..no_table
        }
    }

    /// Whether lookups use the table (`false`: every lookup calls
    /// [`geometric_gap`]).
    #[must_use]
    pub fn is_tabled(&self) -> bool {
        !self.thr.is_empty()
    }

    /// The gap for the 53-bit uniform index `m` (`word >> 11`) — equal
    /// to `geometric_gap(m as f64 * 2⁻⁵³, scale)` for every `m < 2⁵³`.
    #[inline]
    #[must_use]
    pub fn gap(&self, m: u64) -> u64 {
        debug_assert!(m < M_END, "m is a 53-bit uniform index");
        if let Some(&first) = self.est.first() {
            // 1 − u = n·2⁻⁵³ exactly, n ∈ [1, 2⁵³]; `n << lz` puts its
            // leading one at bit 63.
            let n = M_END - m;
            let lz = n.leading_zeros();
            let mask = (1u64 << self.sub_bits) - 1;
            let bucket = (u64::from(63 - lz) << self.sub_bits)
                | (((n << lz) >> (63 - self.sub_bits)) & mask);
            let i = usize::from(self.est.get(bucket as usize).copied().unwrap_or(first));
            let i = i + usize::from(self.thr.get(i + 1).is_some_and(|&t| m >= t));
            if let Some(&[lo, hi]) = self.thr.get(i..i + 2) {
                if (lo <= m) & (m < hi) {
                    return i as u64 + 1;
                }
            }
        }
        self.fallback(m)
    }

    /// The `ln` formula, kept out of line so lookups stay small.
    #[cold]
    #[inline(never)]
    fn fallback(&self, m: u64) -> u64 {
        geometric_gap(m as f64 * (1.0 / M_END as f64), self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(m: u64, scale: f64) -> u64 {
        geometric_gap(m as f64 * (1.0 / M_END as f64), scale)
    }

    fn scale_for(p: f64) -> f64 {
        1.0 / (1.0 - p).ln()
    }

    #[test]
    fn table_matches_reference_at_every_step_edge() {
        for p in [1.0 / 3.0, 0.5, 0.1, 0.01, 0.9, 1.0 / 30.0] {
            let scale = scale_for(p);
            let t = GapTable::new(scale);
            assert!(t.is_tabled(), "p = {p}");
            for &edge in &t.thr {
                for m in edge.saturating_sub(64)..(edge + 64).min(M_END) {
                    assert_eq!(t.gap(m), reference(m, scale), "p = {p}, m = {m}");
                }
            }
            assert_eq!(t.gap(M_END - 1), reference(M_END - 1, scale));
        }
    }

    #[test]
    fn buckets_span_at_most_one_step() {
        // So a lookup never needs the fallback for want of correction:
        // the gap at a bucket's largest `m` is at most one above its
        // stored estimate (empty steps near `u = 1` aside).
        for p in [1.0 / 3.0, 0.5, 0.1, 0.01, 0.9, 1.0 / 30.0, 0.999] {
            let scale = scale_for(p);
            let t = GapTable::new(scale);
            for (b, &est) in t.est.iter().enumerate() {
                let (e, s) = (b as u64 >> t.sub_bits, b as u64 & ((1 << t.sub_bits) - 1));
                let n_lo = (1u64 << e) + ((s << e) >> t.sub_bits);
                if n_lo > M_END || (n_lo - (1 << e)) << t.sub_bits >> e != s {
                    continue; // no n falls in this bucket
                }
                let gap_hi = reference(M_END - n_lo, scale);
                if n_lo > 64 {
                    assert!(gap_hi <= u64::from(est) + 2, "p = {p}, bucket {b}");
                }
            }
        }
    }
}
