//! Carrier frequency offset: impairment and estimation.
//!
//! Real 802.11 radios tolerate ±20 ppm crystals — up to ±48 kHz of carrier
//! offset at 2.4 GHz — which rotates the constellation continuously and
//! destroys orthogonality if uncorrected. The standard receiver recipe,
//! implemented here, is two-stage:
//!
//! 1. **coarse** estimate from the short training field's 16-sample
//!    periodicity (range ±625 kHz),
//! 2. **fine** estimate from the long training field's 64-sample
//!    repetition (range ±156 kHz, much lower variance).
//!
//! Both are delay-and-correlate estimators: a repetition with period `D`
//! turns a frequency offset `f` into a phase `2π·f·D/fs` between copies.

use crate::params::SAMPLE_RATE_HZ;
use wlan_math::Complex;

/// Applies a carrier frequency offset of `cfo_hz` to a sample stream
/// (rotation `e^{j2π·f·n/fs}`).
pub fn apply_cfo(samples: &[Complex], cfo_hz: f64) -> Vec<Complex> {
    let step = 2.0 * std::f64::consts::PI * cfo_hz / SAMPLE_RATE_HZ;
    samples
        .iter()
        .enumerate()
        .map(|(n, &s)| s * Complex::from_polar(1.0, step * n as f64))
        .collect()
}

/// Delay-and-correlate frequency estimate over a periodic region:
/// `f̂ = arg(Σ x[n+D]·x*[n]) · fs / (2π·D)`.
///
/// `region` must contain at least `2·period` samples.
///
/// # Panics
///
/// Panics if the region is too short or `period` is zero.
fn estimate_cfo(region: &[Complex], period: usize) -> f64 {
    assert!(period > 0, "period must be positive");
    assert!(
        region.len() >= 2 * period,
        "need at least two repetitions to correlate"
    );
    let corr: Complex = (0..region.len() - period)
        .map(|n| region[n + period] * region[n].conj())
        .sum();
    corr.arg() * SAMPLE_RATE_HZ / (2.0 * std::f64::consts::PI * period as f64)
}

/// Coarse CFO estimate from the 160-sample short training field
/// (16-sample periodicity, unambiguous to ±625 kHz).
///
/// # Panics
///
/// Panics if `stf.len() < 32`.
fn coarse_cfo_from_stf(stf: &[Complex]) -> f64 {
    estimate_cfo(stf, 16)
}

/// Fine CFO estimate from the 160-sample long training field
/// (64-sample repetition after the 32-sample guard, unambiguous to
/// ±156.25 kHz).
///
/// # Panics
///
/// Panics if `ltf.len() < 160`.
fn fine_cfo_from_ltf(ltf: &[Complex]) -> f64 {
    assert!(ltf.len() >= 160, "LTF is 160 samples");
    estimate_cfo(&ltf[32..160], 64)
}

/// Removes an estimated CFO (the inverse rotation of [`apply_cfo`]).
pub fn correct_cfo(samples: &[Complex], cfo_hz: f64) -> Vec<Complex> {
    apply_cfo(samples, -cfo_hz)
}

/// Two-stage estimate from a full frame preamble (STF ‖ LTF in the first
/// 320 samples): coarse from the STF, then fine on the coarse-corrected
/// LTF.
///
/// # Panics
///
/// Panics if `frame.len() < 320`.
pub fn estimate_from_preamble(frame: &[Complex]) -> f64 {
    assert!(frame.len() >= 320, "need STF + LTF (320 samples)");
    let coarse = coarse_cfo_from_stf(&frame[..160]);
    let corrected = correct_cfo(&frame[160..320], coarse);
    coarse + fine_cfo_from_ltf(&corrected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phy::OfdmPhy;
    use crate::preamble::{long_training_field, short_training_field};
    use crate::OfdmRate;
    use wlan_math::rng::WlanRng;
    use wlan_channel::Awgn;

    #[test]
    fn estimator_is_exact_on_clean_signal() {
        for cfo in [-100_000.0, -12_345.0, 0.0, 50_000.0, 200_000.0] {
            let stf = apply_cfo(&short_training_field(), cfo);
            let est = coarse_cfo_from_stf(&stf);
            assert!(
                (est - cfo).abs() < 1.0,
                "cfo {cfo}: estimated {est}"
            );
        }
    }

    #[test]
    fn estimators_are_accurate_under_noise() {
        // Both stages observe the same 160-sample window, so their noise
        // performance is comparable; what matters is that each is unbiased
        // with an RMS error far below the 312.5 kHz subcarrier spacing.
        let mut rng = WlanRng::seed_from_u64(300);
        let cfo = 30_000.0;
        let snr_db = 10.0;
        let mut coarse_err = 0.0;
        let mut fine_err = 0.0;
        let trials = 200;
        for _ in 0..trials {
            let stf = Awgn::from_snr_db(snr_db)
                .apply(&apply_cfo(&short_training_field(), cfo), &mut rng);
            let ltf = Awgn::from_snr_db(snr_db)
                .apply(&apply_cfo(&long_training_field(), cfo), &mut rng);
            coarse_err += (coarse_cfo_from_stf(&stf) - cfo).powi(2);
            fine_err += (fine_cfo_from_ltf(&ltf) - cfo).powi(2);
        }
        let coarse_rms = (coarse_err / trials as f64).sqrt();
        let fine_rms = (fine_err / trials as f64).sqrt();
        assert!(coarse_rms < 5_000.0, "coarse RMS {coarse_rms} Hz");
        assert!(fine_rms < 5_000.0, "fine RMS {fine_rms} Hz");
    }

    #[test]
    fn two_stage_handles_large_offsets() {
        // 300 kHz exceeds the fine estimator's ±156 kHz range: the fine
        // stage alone aliases, the two-stage estimate does not.
        let cfo = 300_000.0;
        let phy = OfdmPhy::new(OfdmRate::R6);
        let frame = apply_cfo(&phy.transmit(b"x"), cfo);
        let est = estimate_from_preamble(&frame);
        assert!((est - cfo).abs() < 500.0, "estimated {est}");
        let aliased = fine_cfo_from_ltf(&frame[160..320]);
        assert!((aliased - cfo).abs() > 10_000.0, "fine alone must alias");
    }

    #[test]
    fn correction_restores_decodability() {
        let mut rng = WlanRng::seed_from_u64(301);
        let phy = OfdmPhy::new(OfdmRate::R12);
        let payload = b"carrier offset hurts".to_vec();
        let clean = phy.transmit(&payload);
        // 150 kHz (half a subcarrier spacing, severe ICI) breaks the
        // uncorrected receiver; the pilots' common-phase-error tracking
        // absorbs small offsets but not this.
        let offset = apply_cfo(&clean, 150_000.0);
        let broken = match phy.receive(&offset) {
            Ok(p) => p != payload,
            Err(_) => true,
        };
        assert!(broken, "150 kHz CFO should break the receiver");
        // ...and the estimate-and-correct loop fixes it, even with noise.
        let noisy = Awgn::from_snr_db(25.0).apply(&offset, &mut rng);
        let est = estimate_from_preamble(&noisy);
        let fixed = correct_cfo(&noisy, est);
        assert_eq!(phy.receive(&fixed).ok(), Some(payload));
    }

    #[test]
    fn apply_and_correct_are_inverses() {
        let x: Vec<Complex> = (0..100)
            .map(|i| Complex::from_polar(1.0, i as f64 * 0.3))
            .collect();
        let back = correct_cfo(&apply_cfo(&x, 77_000.0), 77_000.0);
        for (a, b) in back.iter().zip(&x) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "two repetitions")]
    fn short_region_rejected() {
        let _ = estimate_cfo(&[Complex::ONE; 20], 16);
    }
}
