//! Frequency-selective tapped-delay-line channels.
//!
//! Indoor WLAN channels spread energy over tens to hundreds of nanoseconds.
//! The standard modelling practice (followed by the 802.11 TGn channel
//! models) is a tapped delay line whose tap powers decay exponentially with
//! delay. At 20 MHz the sample period is 50 ns, so even "Model D" office
//! environments span several taps and notch individual OFDM subcarriers —
//! exactly the frequency selectivity that motivates per-subcarrier
//! equalization and interleaving.

use crate::noise::complex_gaussian;
use wlan_math::rng::Rng;
use wlan_math::Complex;

/// An exponential power-delay profile sampled at the system rate.
///
/// Profiles are normalized to unit total power so they do not change the
/// link budget, only the frequency selectivity.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerDelayProfile {
    /// Mean power of each tap (sums to 1).
    tap_powers: Vec<f64>,
}

impl PowerDelayProfile {
    /// Single-tap (flat fading) profile — "Model A" in TGn terms.
    pub fn flat() -> Self {
        PowerDelayProfile {
            tap_powers: vec![1.0],
        }
    }

    /// Exponential profile with the given RMS delay spread, sampled at
    /// `sample_rate_hz`. Taps are kept until 30 dB below the first.
    ///
    /// # Panics
    ///
    /// Panics if either argument is not positive.
    pub fn exponential(rms_delay_spread_s: f64, sample_rate_hz: f64) -> Self {
        assert!(rms_delay_spread_s > 0.0, "delay spread must be positive");
        assert!(sample_rate_hz > 0.0, "sample rate must be positive");
        let dt = 1.0 / sample_rate_hz;
        // For a sampled exponential profile p_k ∝ e^{−k·dt/τ}, τ equals the
        // RMS delay spread in the continuous limit.
        let tau = rms_delay_spread_s;
        let mut powers = Vec::new();
        let mut k = 0usize;
        loop {
            let p = (-(k as f64) * dt / tau).exp();
            if p < 1e-3 && k > 0 {
                break;
            }
            powers.push(p);
            k += 1;
            if k > 256 {
                break; // hard cap against pathological parameters
            }
        }
        let total: f64 = powers.iter().sum();
        for p in &mut powers {
            *p /= total;
        }
        PowerDelayProfile { tap_powers: powers }
    }

    /// TGn-like presets at 20 MHz sampling: RMS delay spreads of
    /// (A, B, C, D, E) = (flat, 15 ns, 30 ns, 50 ns, 100 ns).
    ///
    /// # Panics
    ///
    /// Panics (via `assert!`) on a letter outside A-E.
    pub fn tgn_model(model: char) -> Self {
        let profile = Self::try_tgn_model(model);
        assert!(profile.is_some(), "unknown TGn model '{model}' (expected A-E)");
        profile.unwrap_or_else(Self::flat)
    }

    /// Fallible form of [`PowerDelayProfile::tgn_model`]: `None` on a
    /// letter outside A-E (case-insensitive).
    fn try_tgn_model(model: char) -> Option<Self> {
        const FS: f64 = 20e6;
        match model.to_ascii_uppercase() {
            'A' => Some(Self::flat()),
            'B' => Some(Self::exponential(15e-9, FS)),
            'C' => Some(Self::exponential(30e-9, FS)),
            'D' => Some(Self::exponential(50e-9, FS)),
            'E' => Some(Self::exponential(100e-9, FS)),
            _ => None,
        }
    }
}

/// One realization of a tapped-delay-line Rayleigh channel.
///
/// # Examples
///
/// ```
/// use wlan_math::rng::WlanRng;
/// use wlan_channel::{MultipathChannel, PowerDelayProfile};
/// use wlan_math::Complex;
///
/// let mut rng = WlanRng::seed_from_u64(5);
/// let pdp = PowerDelayProfile::tgn_model('D');
/// let ch = MultipathChannel::realize(&pdp, &mut rng);
/// let rx = ch.filter(&[Complex::ONE; 80]);
/// assert_eq!(rx.len(), 80 + ch.taps().len() - 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultipathChannel {
    taps: Vec<Complex>,
}

impl MultipathChannel {
    /// Draws an independent Rayleigh realization of each tap of `pdp`.
    pub fn realize(pdp: &PowerDelayProfile, rng: &mut impl Rng) -> Self {
        let taps = pdp
            .tap_powers
            .iter()
            .map(|&p| complex_gaussian(rng).scale(p.sqrt()))
            .collect();
        MultipathChannel { taps }
    }

    /// A channel with explicit taps (for tests and analytic cases).
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty.
    pub fn from_taps(taps: Vec<Complex>) -> Self {
        assert!(!taps.is_empty(), "need at least one tap");
        MultipathChannel { taps }
    }

    /// An ideal (identity) channel.
    pub fn identity() -> Self {
        MultipathChannel {
            taps: vec![Complex::ONE],
        }
    }

    /// The tap gains.
    pub fn taps(&self) -> &[Complex] {
        &self.taps
    }

    /// Linear convolution of the signal with the channel impulse response.
    ///
    /// Output length is `signal.len() + taps − 1`.
    pub fn filter(&self, signal: &[Complex]) -> Vec<Complex> {
        let mut out = Vec::new();
        self.filter_into(signal, &mut out);
        out
    }

    /// [`MultipathChannel::filter`] into a caller-owned buffer, which is
    /// cleared and refilled: the same sums in the same order, with no
    /// allocation once the buffer has grown.
    pub fn filter_into(&self, signal: &[Complex], out: &mut Vec<Complex>) {
        let n = signal.len();
        let l = self.taps.len();
        out.clear();
        out.resize(n + l - 1, Complex::ZERO);
        for (i, &s) in signal.iter().enumerate() {
            if s.norm_sqr() == 0.0 {
                continue;
            }
            for (j, &h) in self.taps.iter().enumerate() {
                out[i + j] += s * h;
            }
        }
    }

    /// Frequency response at `num_bins` uniformly spaced frequencies
    /// (the subcarrier gains an OFDM receiver sees).
    pub fn frequency_response(&self, num_bins: usize) -> Vec<Complex> {
        (0..num_bins)
            .map(|k| {
                self.taps
                    .iter()
                    .enumerate()
                    .map(|(t, &h)| {
                        h * Complex::from_polar(
                            1.0,
                            -2.0 * std::f64::consts::PI * (k * t) as f64 / num_bins as f64,
                        )
                    })
                    .sum()
            })
            .collect()
    }

    /// Total channel power `Σ|h_t|²`.
    pub fn power(&self) -> f64 {
        self.taps.iter().map(|t| t.norm_sqr()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::rng::WlanRng;

    #[test]
    fn pdp_is_normalized() {
        for model in ['A', 'B', 'C', 'D', 'E'] {
            let pdp = PowerDelayProfile::tgn_model(model);
            let total: f64 = pdp.tap_powers.iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "model {model}");
        }
    }

    #[test]
    fn longer_delay_spread_means_more_taps() {
        let b = PowerDelayProfile::tgn_model('B').tap_powers.len();
        let d = PowerDelayProfile::tgn_model('D').tap_powers.len();
        let e = PowerDelayProfile::tgn_model('E').tap_powers.len();
        assert!(b <= d && d < e, "taps: B={b} D={d} E={e}");
        assert_eq!(PowerDelayProfile::flat().tap_powers.len(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown TGn model")]
    fn unknown_model_panics() {
        let _ = PowerDelayProfile::tgn_model('Z');
    }

    #[test]
    fn realized_power_is_calibrated() {
        let mut rng = WlanRng::seed_from_u64(20);
        let pdp = PowerDelayProfile::tgn_model('E');
        let mean: f64 = (0..20_000)
            .map(|_| MultipathChannel::realize(&pdp, &mut rng).power())
            .sum::<f64>()
            / 20_000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean channel power {mean}");
    }

    #[test]
    fn identity_channel_is_transparent() {
        let x: Vec<Complex> = (0..10).map(|i| Complex::new(i as f64, -1.0)).collect();
        assert_eq!(MultipathChannel::identity().filter(&x), x);
    }

    #[test]
    fn convolution_matches_manual() {
        let ch = MultipathChannel::from_taps(vec![Complex::ONE, Complex::from_re(0.5)]);
        let x = [Complex::from_re(1.0), Complex::from_re(2.0)];
        let y = ch.filter(&x);
        assert_eq!(y.len(), 3);
        assert!((y[0] - Complex::from_re(1.0)).norm() < 1e-12);
        assert!((y[1] - Complex::from_re(2.5)).norm() < 1e-12);
        assert!((y[2] - Complex::from_re(1.0)).norm() < 1e-12);
    }

    #[test]
    fn frequency_response_matches_fft_of_taps() {
        let mut rng = WlanRng::seed_from_u64(21);
        let pdp = PowerDelayProfile::tgn_model('D');
        let ch = MultipathChannel::realize(&pdp, &mut rng);
        let n = 64;
        let mut padded = ch.taps().to_vec();
        padded.resize(n, Complex::ZERO);
        let via_fft = wlan_math::fft::fft(&padded);
        let direct = ch.frequency_response(n);
        for (a, b) in via_fft.iter().zip(&direct) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }

    #[test]
    fn flat_channel_has_flat_response() {
        let ch = MultipathChannel::from_taps(vec![Complex::new(0.6, -0.8)]);
        let h = ch.frequency_response(16);
        for v in &h {
            assert!((*v - Complex::new(0.6, -0.8)).norm() < 1e-12);
        }
    }

    #[test]
    fn multipath_creates_frequency_selectivity() {
        let mut rng = WlanRng::seed_from_u64(22);
        let pdp = PowerDelayProfile::tgn_model('E');
        let ch = MultipathChannel::realize(&pdp, &mut rng);
        let h = ch.frequency_response(64);
        let mags: Vec<f64> = h.iter().map(|v| v.norm()).collect();
        let max = mags.iter().fold(0.0f64, |a, &b| a.max(b));
        let min = mags.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        assert!(max / min > 1.5, "expected visible selectivity, got {max}/{min}");
    }
}
