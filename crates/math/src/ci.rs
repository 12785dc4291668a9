//! Confidence intervals for Monte-Carlo tallies.
//!
//! Every campaign in this workspace estimates a Bernoulli proportion (a
//! frame either errored or it didn't, a sample point is either covered or
//! it isn't) by counting `k` successes in `n` trials. This module turns
//! those integer tallies into confidence intervals so sweeps can (a)
//! report *how sure* they are alongside the point estimate and (b) stop
//! sequentially as soon as the interval is tighter than a target
//! half-width, instead of burning a fixed worst-case trial count at every
//! point.
//!
//! The bound is the Wilson score interval ([`wilson95`]). It is approximate
//! (asymptotically nominal coverage) but tight, and well-behaved at the
//! `k = 0` / `k = n` extremes where the naive Wald interval collapses to
//! zero width.
//!
//! It is a pure function of integer tallies, so any stopping rule built on
//! it is deterministic: a resumed campaign that reaches the same
//! `(k, n)` makes exactly the same stop/continue decision as an
//! uninterrupted one (the bit-identical-resume guarantee of
//! `wlan-runner` leans on this).

/// A two-sided confidence interval on a proportion, clamped to `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower confidence bound.
    pub lo: f64,
    /// Upper confidence bound.
    pub hi: f64,
}

impl Interval {
    /// Half the interval width — the "± this much" a report quotes.
    pub fn half_width(&self) -> f64 {
        0.5 * (self.hi - self.lo)
    }

    /// `true` when `p` lies inside the (closed) interval.
    pub fn contains(&self, p: f64) -> bool {
        self.lo <= p && p <= self.hi
    }
}

/// The two-sided z-score for 95 % confidence (`Φ⁻¹(0.975)`).
pub const Z_95: f64 = 1.959963984540054;

/// Wilson score interval for a Bernoulli proportion: `k` successes in `n`
/// trials at z-score `z`.
///
/// Unlike the Wald interval it never collapses at `k = 0` or `k = n`
/// (the bound away from the boundary shrinks like `z²/n`, reflecting that
/// `n` clean trials genuinely bound the rate), and it stays inside
/// `[0, 1]` by construction (clamped against last-ulp rounding).
///
/// `n == 0` returns the full-width interval `[0, 1]`: zero trials carry
/// zero information about the proportion, so the only honest bound is
/// vacuous. (This keeps degenerate tallies — an empty resumed journal, a
/// point whose every trial was quarantined — finite instead of dividing
/// by zero, and no stopping rule can fire on it: the half-width is `0.5`,
/// above any meaningful target.)
///
/// # Panics
///
/// Panics if `k > n` or `z` is not positive and finite.
fn wilson(k: u64, n: u64, z: f64) -> Interval {
    assert!(k <= n, "successes cannot exceed trials");
    assert!(z.is_finite() && z > 0.0, "z-score must be positive and finite");
    if n == 0 {
        return Interval { lo: 0.0, hi: 1.0 };
    }
    let (k, n) = (k as f64, n as f64);
    let z2 = z * z;
    let denom = n + z2;
    let center = (k + z2 / 2.0) / denom;
    let half = z * (k * (n - k) / n + z2 / 4.0).sqrt() / denom;
    Interval {
        lo: (center - half).max(0.0),
        hi: (center + half).min(1.0),
    }
}

/// The Wilson score interval at 95 % confidence — the workspace's reporting
/// default.
pub fn wilson95(k: u64, n: u64) -> Interval {
    wilson(k, n, Z_95)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, WlanRng};

    const TOL: f64 = 1e-12;

    // ---- pinned references ----------------------------------------------
    //
    // Computed independently from the closed-form Wilson
    // expression at z = Φ⁻¹(0.975). These pin the exact arithmetic: a
    // change here silently shifts every early-stopping decision and every
    // reported CI in the campaign layer.

    #[test]
    fn wilson_pinned_midrange() {
        let ci = wilson95(5, 50);
        assert!((ci.lo - 0.0434757649318904).abs() < TOL, "lo {}", ci.lo);
        assert!((ci.hi - 0.213602314374797).abs() < TOL, "hi {}", ci.hi);
        let ci = wilson95(25, 50);
        assert!((ci.lo - 0.366445143168286).abs() < TOL, "lo {}", ci.lo);
        assert!((ci.hi - 0.633554856831714).abs() < TOL, "hi {}", ci.hi);
        // Symmetry around 1/2 at k = n/2.
        assert!((ci.lo + ci.hi - 1.0).abs() < TOL);
    }

    #[test]
    fn wilson_k_zero_touches_zero_but_bounds_above() {
        let ci = wilson95(0, 10);
        assert_eq!(ci.lo, 0.0, "k=0 lower bound is exactly 0");
        assert!((ci.hi - 0.277532799862889).abs() < TOL, "hi {}", ci.hi);
        // Ten clean trials do NOT prove the rate is zero.
        assert!(ci.hi > 0.2);
    }

    #[test]
    fn wilson_k_equals_n_touches_one() {
        let ci = wilson95(10, 10);
        assert!((ci.lo - 0.722467200137111).abs() < TOL, "lo {}", ci.lo);
        assert_eq!(ci.hi, 1.0, "k=n upper bound is exactly 1");
        // Mirror of the k=0 case.
        let zero = wilson95(0, 10);
        assert!((ci.lo - (1.0 - zero.hi)).abs() < TOL);
    }

    #[test]
    fn wilson_single_trial_is_nearly_vacuous() {
        let ci0 = wilson95(0, 1);
        assert_eq!(ci0.lo, 0.0);
        assert!((ci0.hi - 0.793450685622763).abs() < TOL, "hi {}", ci0.hi);
        let ci1 = wilson95(1, 1);
        assert!((ci1.lo - 0.206549314377237).abs() < TOL, "lo {}", ci1.lo);
        assert_eq!(ci1.hi, 1.0);
    }

    #[test]
    fn wilson_small_n_interior() {
        let ci = wilson95(1, 3);
        assert!((ci.lo - 0.0614919447203962).abs() < TOL, "lo {}", ci.lo);
        assert!((ci.hi - 0.792340399197952).abs() < TOL, "hi {}", ci.hi);
    }

    #[test]
    fn width_shrinks_with_n_and_grows_with_confidence() {
        assert!(wilson95(10, 100).half_width() > wilson95(100, 1000).half_width());
        assert!(wilson(10, 100, 2.575).half_width() > wilson95(10, 100).half_width());
    }

    #[test]
    fn interval_helpers() {
        let ci = Interval { lo: 0.2, hi: 0.6 };
        assert!((ci.half_width() - 0.2).abs() < TOL);
        assert!(ci.contains(0.2) && ci.contains(0.4) && ci.contains(0.6));
        assert!(!ci.contains(0.19) && !ci.contains(0.61));
    }

    // ---- coverage property sweep ----------------------------------------

    /// Empirical coverage on seeded Bernoulli draws: Wilson must sit near
    /// nominal (it is asymptotic; we allow 2 points of slack).
    #[test]
    fn coverage_at_least_nominal_on_seeded_bernoulli_draws() {
        let master = WlanRng::seed_from_u64(0xC1C0FFEE);
        for (case, &p) in [0.05f64, 0.3, 0.5, 0.9].iter().enumerate() {
            let (n, reps) = (400u64, 400u64);
            let mut wilson_hits = 0u64;
            for rep in 0..reps {
                let mut rng = master.fork(case as u64).fork(rep);
                let k = (0..n).filter(|_| rng.gen_bool(p)).count() as u64;
                wilson_hits += wilson95(k, n).contains(p) as u64;
            }
            let wilson_cov = wilson_hits as f64 / reps as f64;
            assert!(
                wilson_cov >= 0.93,
                "Wilson coverage {wilson_cov} far below nominal at p={p}"
            );
        }
    }

    // ---- degenerate tallies ---------------------------------------------

    /// Zero trials carry zero information: the interval is the documented
    /// full-width `[0, 1]` — finite bounds, no NaN, no division by zero —
    /// and no half-width target can fire on it.
    #[test]
    fn zero_trials_give_full_width_intervals() {
        let ci = wilson95(0, 0);
        assert_eq!(ci.lo, 0.0);
        assert_eq!(ci.hi, 1.0);
        assert!(ci.lo.is_finite() && ci.hi.is_finite());
        assert_eq!(ci.half_width(), 0.5);
        assert!(ci.contains(0.0) && ci.contains(0.5) && ci.contains(1.0));
    }

    // ---- precondition panics --------------------------------------------

    #[test]
    #[should_panic(expected = "cannot exceed trials")]
    fn wilson_k_above_n_rejected() {
        let _ = wilson95(5, 4);
    }
}
