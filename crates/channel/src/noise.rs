//! Additive white Gaussian noise.

use wlan_math::rng::Rng;
use wlan_math::Complex;

/// Draws a standard normal (ziggurat; see [`wlan_math::ziggurat`]).
pub fn gaussian(rng: &mut impl Rng) -> f64 {
    rng.gen_gaussian()
}

/// Draws a circularly-symmetric complex Gaussian with unit total variance
/// (`E|z|² = 1`, i.e. 0.5 per real dimension).
pub fn complex_gaussian(rng: &mut impl Rng) -> Complex {
    Complex::new(
        gaussian(rng) * std::f64::consts::FRAC_1_SQRT_2,
        gaussian(rng) * std::f64::consts::FRAC_1_SQRT_2,
    )
}

/// An AWGN channel with fixed noise power.
///
/// The convention throughout the workspace is that transmit constellations
/// are normalized to unit average energy per sample, so "SNR" is the ratio of
/// unit signal power to the noise power this struct injects.
///
/// # Examples
///
/// ```
/// use wlan_math::rng::WlanRng;
/// use wlan_channel::Awgn;
/// use wlan_math::Complex;
///
/// let mut rng = WlanRng::seed_from_u64(1);
/// let noisy = Awgn::from_snr_db(20.0).apply(&[Complex::ONE; 4], &mut rng);
/// assert_eq!(noisy.len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Awgn {
    noise_power: f64,
}

impl Awgn {
    /// Channel whose noise power is `1/snr_linear` (unit signal power).
    ///
    /// # Panics
    ///
    /// Panics if `snr_linear <= 0`.
    fn from_snr_linear(snr_linear: f64) -> Self {
        assert!(snr_linear > 0.0, "SNR must be positive");
        Awgn {
            noise_power: 1.0 / snr_linear,
        }
    }

    /// Channel at the given SNR in dB (unit signal power).
    pub fn from_snr_db(snr_db: f64) -> Self {
        Self::from_snr_linear(wlan_math::special::db_to_lin(snr_db))
    }

    /// Adds noise to a block of samples, returning the noisy copy.
    pub fn apply(&self, signal: &[Complex], rng: &mut impl Rng) -> Vec<Complex> {
        let sigma = self.noise_power.sqrt();
        signal
            .iter()
            .map(|&s| s + complex_gaussian(rng).scale(sigma))
            .collect()
    }

    /// Adds noise in place.
    pub fn apply_in_place(&self, signal: &mut [Complex], rng: &mut impl Rng) {
        let sigma = self.noise_power.sqrt();
        for s in signal.iter_mut() {
            *s += complex_gaussian(rng).scale(sigma);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::rng::WlanRng;
    use wlan_math::complex::mean_power;

    #[test]
    fn gaussian_moments() {
        let mut rng = WlanRng::seed_from_u64(42);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    fn complex_gaussian_is_circular_unit_power() {
        let mut rng = WlanRng::seed_from_u64(43);
        let n = 100_000;
        let samples: Vec<Complex> = (0..n).map(|_| complex_gaussian(&mut rng)).collect();
        let power = mean_power(&samples);
        assert!((power - 1.0).abs() < 0.02, "power {power}");
        // Circularity: E[z²] ≈ 0 (not just E[|z|²]).
        let pseudo: Complex = samples.iter().map(|z| *z * *z).sum::<Complex>() / n as f64;
        assert!(pseudo.norm() < 0.02, "pseudo-variance {pseudo:?}");
    }

    #[test]
    fn noise_power_matches_requested_snr() {
        let mut rng = WlanRng::seed_from_u64(44);
        let clean = vec![Complex::ZERO; 100_000];
        for snr_db in [0.0, 10.0, 20.0] {
            let ch = Awgn::from_snr_db(snr_db);
            let noisy = ch.apply(&clean, &mut rng);
            let measured = mean_power(&noisy);
            let expected = wlan_math::special::db_to_lin(-snr_db);
            assert!(
                (measured / expected - 1.0).abs() < 0.05,
                "snr {snr_db}: measured {measured}, expected {expected}"
            );
        }
    }

    #[test]
    fn zero_noise_power_is_transparent() {
        let mut rng = WlanRng::seed_from_u64(45);
        let signal = vec![Complex::new(0.3, -0.7); 16];
        let out = Awgn { noise_power: 0.0 }.apply(&signal, &mut rng);
        assert_eq!(out, signal);
    }

    #[test]
    fn in_place_matches_functional() {
        let signal = vec![Complex::ONE; 64];
        let ch = Awgn::from_snr_db(5.0);
        let mut a = signal.clone();
        ch.apply_in_place(&mut a, &mut WlanRng::seed_from_u64(9));
        let b = ch.apply(&signal, &mut WlanRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "SNR must be positive")]
    fn rejects_nonpositive_snr() {
        let _ = Awgn::from_snr_linear(0.0);
    }
}
