//! Maximal-ratio receive combining.
//!
//! The cheapest MIMO win and the basis of the paper's "switch off all but
//! one receive chain" power optimization (experiment E12): with `N` receive
//! antennas, weighting each branch by its conjugate channel adds the branch
//! SNRs, yielding `N`-fold array gain plus order-`N` diversity.

use wlan_math::Complex;

/// Combines one symbol observed on `N` branches: `Σ h_r*·y_r / Σ|h_r|²`.
///
/// Returns the combined symbol estimate and the effective channel power
/// `Σ|h_r|²` (the SNR multiplier relative to a single unit-gain branch).
///
/// # Panics
///
/// Panics if inputs are empty or lengths differ.
pub fn combine(y: &[Complex], h: &[Complex]) -> (Complex, f64) {
    assert!(!y.is_empty(), "need at least one branch");
    assert_eq!(y.len(), h.len(), "branch count mismatch");
    let gain: f64 = h.iter().map(|c| c.norm_sqr()).sum();
    let num: Complex = y.iter().zip(h).map(|(&yr, &hr)| hr.conj() * yr).sum();
    (num / gain.max(1e-300), gain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::rng::WlanRng;
    use wlan_channel::noise::complex_gaussian;

    #[test]
    fn clean_combining_recovers_symbol() {
        let s = Complex::new(0.6, -0.8);
        let h = [Complex::new(1.0, 0.5), Complex::new(-0.3, 1.1)];
        let y: Vec<Complex> = h.iter().map(|&hr| hr * s).collect();
        let (est, gain) = combine(&y, &h);
        assert!((est - s).norm() < 1e-12);
        let want: f64 = h.iter().map(|c| c.norm_sqr()).sum();
        assert!((gain - want).abs() < 1e-12);
    }

    #[test]
    fn array_gain_is_n_fold() {
        // Mean effective gain over Rayleigh branches is N (each E|h|² = 1).
        let mut rng = WlanRng::seed_from_u64(140);
        for n in [1usize, 2, 4] {
            let mut acc = 0.0;
            let trials = 20_000;
            for _ in 0..trials {
                let h: Vec<Complex> = (0..n).map(|_| complex_gaussian(&mut rng)).collect();
                let y = vec![Complex::ZERO; n];
                acc += combine(&y, &h).1;
            }
            let mean = acc / trials as f64;
            assert!((mean - n as f64).abs() < 0.05 * n as f64, "N={n}: {mean}");
        }
    }

    #[test]
    fn mrc_reduces_ber_versus_single_branch() {
        let mut rng = WlanRng::seed_from_u64(141);
        let n0 = wlan_math::special::db_to_lin(-8.0);
        let trials = 30_000;
        let mut errs = [0usize; 2]; // [single, mrc-2]
        for t in 0..trials {
            let bit = (t % 2) as u8;
            let s = Complex::from_re(if bit == 1 { 1.0 } else { -1.0 });
            let h: Vec<Complex> = (0..2).map(|_| complex_gaussian(&mut rng)).collect();
            let y: Vec<Complex> = h
                .iter()
                .map(|&hr| hr * s + complex_gaussian(&mut rng).scale(n0.sqrt()))
                .collect();
            // Single branch (first antenna).
            let single = (y[0] * h[0].conj()) / h[0].norm_sqr().max(1e-300);
            if (single.re > 0.0) as u8 != bit {
                errs[0] += 1;
            }
            let (mrc, _) = combine(&y, &h);
            if (mrc.re > 0.0) as u8 != bit {
                errs[1] += 1;
            }
        }
        assert!(
            errs[1] * 3 < errs[0],
            "MRC ({}) must be much better than single ({})",
            errs[1],
            errs[0]
        );
    }

    #[test]
    fn selection_sits_between_single_and_mrc() {
        let mut rng = WlanRng::seed_from_u64(142);
        let mut gains = [0.0f64; 2]; // single, mrc-2
        let trials = 30_000;
        for _ in 0..trials {
            let h: Vec<Complex> = (0..2).map(|_| complex_gaussian(&mut rng)).collect();
            let y = vec![Complex::ZERO; 2];
            gains[0] += h[0].norm_sqr();
            gains[1] += combine(&y, &h).1;
        }
        assert!(gains[0] < gains[1]);
        // Known averages: 1 and 2 for Rayleigh.
        let n = trials as f64;
        assert!((gains[0] / n - 1.0).abs() < 0.05);
        assert!((gains[1] / n - 2.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "branch count")]
    fn shape_checked() {
        let _ = combine(&[Complex::ONE], &[Complex::ONE, Complex::ONE]);
    }
}
