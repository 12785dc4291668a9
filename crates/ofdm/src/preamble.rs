//! The PLCP preamble: short and long training fields.
//!
//! Every 802.11a frame starts with 8 µs of short training (AGC, coarse
//! sync) and 8 µs of long training (channel estimation). The receiver here
//! uses the two repeated long-training symbols for least-squares channel
//! estimation — the step that makes per-subcarrier equalization possible.

use crate::params::{N_FFT, N_OCCUPIED};
use crate::symbol::carrier_to_bin;
use wlan_math::{fft, Complex};

/// Long-training frequency-domain sequence over subcarriers −26…+26
/// (802.11a equation 17-8), index 0 = subcarrier −26, DC included as 0.
pub const LTF_SEQUENCE: [f64; 53] = [
    1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0,
    1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0,
    -1.0, 1.0, -1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0,
    1.0, 1.0, 1.0,
];

/// Short-training occupied subcarriers: (index, value/`√(13/6)`)-pairs on
/// multiples of 4 (802.11a equation 17-6).
const STF_CARRIERS: [(i32, Complex); 12] = [
    (-24, Complex::new(1.0, 1.0)),
    (-20, Complex::new(-1.0, -1.0)),
    (-16, Complex::new(1.0, 1.0)),
    (-12, Complex::new(-1.0, -1.0)),
    (-8, Complex::new(-1.0, -1.0)),
    (-4, Complex::new(1.0, 1.0)),
    (4, Complex::new(-1.0, -1.0)),
    (8, Complex::new(-1.0, -1.0)),
    (12, Complex::new(1.0, 1.0)),
    (16, Complex::new(1.0, 1.0)),
    (20, Complex::new(1.0, 1.0)),
    (24, Complex::new(1.0, 1.0)),
];

/// The LTF value at signed subcarrier `k` (0 outside ±26).
pub fn ltf_value(k: i32) -> f64 {
    if !(-26..=26).contains(&k) {
        0.0
    } else {
        LTF_SEQUENCE[(k + 26) as usize]
    }
}

/// The HT-LTF value at subcarrier `k`: the legacy sequence extended with
/// `+1, +1` at −28, −27 and `−1, −1` at +27, +28 (802.11n equation 20-24).
pub fn ht_ltf_value(k: i32) -> f64 {
    match k {
        -28 | -27 => 1.0,
        27 | 28 => -1.0,
        _ => ltf_value(k),
    }
}

/// One 64-sample long-training symbol in the time domain (unit average
/// power over occupied samples, same scale as data symbols).
fn ltf_symbol() -> Vec<Complex> {
    let mut bins = vec![Complex::ZERO; N_FFT];
    for k in -26..=26 {
        bins[carrier_to_bin(k)] = Complex::from_re(ltf_value(k));
    }
    let scale = N_FFT as f64 / ((N_OCCUPIED + 1) as f64).sqrt();
    fft::ifft(&bins).into_iter().map(|s| s.scale(scale)).collect()
}

/// The full 160-sample long training field: 32-sample double-length CP
/// followed by two repetitions of the LTF symbol.
pub fn long_training_field() -> Vec<Complex> {
    let sym = ltf_symbol();
    let mut out = Vec::with_capacity(160);
    out.extend_from_slice(&sym[N_FFT - 32..]);
    out.extend_from_slice(&sym);
    out.extend_from_slice(&sym);
    out
}

/// The full 160-sample short training field (ten repetitions of a 16-sample
/// pattern).
pub fn short_training_field() -> Vec<Complex> {
    let mut bins = vec![Complex::ZERO; N_FFT];
    let amp = (13.0f64 / 6.0).sqrt();
    for &(k, v) in &STF_CARRIERS {
        bins[carrier_to_bin(k)] = v.scale(amp);
    }
    let scale = N_FFT as f64 / ((N_OCCUPIED + 1) as f64).sqrt();
    let sym: Vec<Complex> = fft::ifft(&bins).into_iter().map(|s| s.scale(scale)).collect();
    // The 64-sample IFFT output is already 4-periodic (16-sample period);
    // tile it out to 160 samples.
    let mut out = Vec::with_capacity(160);
    for i in 0..160 {
        out.push(sym[i % N_FFT]);
    }
    out
}

/// Least-squares channel estimate from a received 160-sample LTF.
///
/// Averages the two repeated symbols, FFTs, and divides by the known
/// sequence. Returns a 64-bin frequency response (zero on unused bins).
///
/// # Panics
///
/// Panics if `received.len() != 160`.
pub fn estimate_channel(received: &[Complex]) -> Vec<Complex> {
    assert_eq!(received.len(), 160, "LTF is 160 samples");
    let scale = N_FFT as f64 / ((N_OCCUPIED + 1) as f64).sqrt();
    let first = &received[32..32 + N_FFT];
    let second = &received[32 + N_FFT..];
    let mut bins: Vec<Complex> = first
        .iter()
        .zip(second)
        .map(|(&a, &b)| (a + b).scale(0.5 / scale))
        .collect();
    fft::fft_in_place(&mut bins);
    let mut h = vec![Complex::ZERO; N_FFT];
    for k in -26..=26i32 {
        let l = ltf_value(k);
        if l != 0.0 {
            let bin = carrier_to_bin(k);
            h[bin] = bins[bin].scale(1.0 / l);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::rng::WlanRng;
    use wlan_channel::MultipathChannel;

    #[test]
    fn ltf_sequence_is_bipolar_with_dc_null() {
        assert_eq!(LTF_SEQUENCE.len(), 53);
        assert_eq!(LTF_SEQUENCE[26], 0.0, "DC must be null");
        let nonzero = LTF_SEQUENCE.iter().filter(|&&v| v != 0.0).count();
        assert_eq!(nonzero, 52);
        for &v in &LTF_SEQUENCE {
            assert!(v == 0.0 || v == 1.0 || v == -1.0);
        }
    }

    #[test]
    fn ltf_field_repeats_symbol_twice() {
        let field = long_training_field();
        assert_eq!(field.len(), 160);
        for i in 0..N_FFT {
            assert!((field[32 + i] - field[32 + N_FFT + i]).norm() < 1e-12);
        }
    }

    #[test]
    fn stf_is_16_sample_periodic() {
        let stf = short_training_field();
        assert_eq!(stf.len(), 160);
        for i in 0..stf.len() - 16 {
            assert!(
                (stf[i] - stf[i + 16]).norm() < 1e-9,
                "STF must repeat every 16 samples (at {i})"
            );
        }
    }

    #[test]
    fn flat_channel_estimates_flat() {
        let h = estimate_channel(&long_training_field());
        for k in -26..=26i32 {
            if k == 0 {
                continue;
            }
            let bin = carrier_to_bin(k);
            assert!((h[bin] - Complex::ONE).norm() < 1e-9, "bin {bin}");
        }
    }

    #[test]
    fn estimates_multipath_channel() {
        let mut rng = WlanRng::seed_from_u64(90);
        let pdp = wlan_channel::PowerDelayProfile::tgn_model('D');
        let ch = MultipathChannel::realize(&pdp, &mut rng);
        let mut rx = ch.filter(&long_training_field());
        rx.truncate(160);
        let est = estimate_channel(&rx);
        let truth = ch.frequency_response(N_FFT);
        for k in -26..=26i32 {
            if k == 0 {
                continue;
            }
            let bin = carrier_to_bin(k);
            // The first 32 CP samples absorb the channel tail, so the
            // estimate over the averaged symbols is essentially exact.
            assert!(
                (est[bin] - truth[bin]).norm() < 1e-6,
                "bin {bin}: {:?} vs {:?}",
                est[bin],
                truth[bin]
            );
        }
    }

    #[test]
    fn estimation_averages_noise_down() {
        let mut rng = WlanRng::seed_from_u64(91);
        let clean = long_training_field();
        let noisy = wlan_channel::Awgn::from_snr_db(10.0).apply(&clean, &mut rng);
        let est = estimate_channel(&noisy);
        // Error power per used bin should be well below the per-sample noise
        // (two-symbol averaging + per-bin energy ≈ scale² gain).
        let mut err = 0.0;
        let mut used = 0;
        for k in -26..=26i32 {
            if k == 0 {
                continue;
            }
            let bin = carrier_to_bin(k);
            err += (est[bin] - Complex::ONE).norm_sqr();
            used += 1;
        }
        let mse = err / used as f64;
        assert!(mse < 0.1, "channel-estimate MSE {mse} too high at 10 dB");
    }

    #[test]
    #[should_panic(expected = "160 samples")]
    fn estimate_length_checked() {
        let _ = estimate_channel(&[Complex::ZERO; 64]);
    }
}
