//! Transmit spectrum estimation and the 802.11a spectral mask.
//!
//! Regulators police WLAN emissions through a transmit spectral mask
//! (IEEE 802.11a-1999 figure 120): relative to the in-band level, the PSD
//! must be ≤ −20 dBr at ±11 MHz, −28 dBr at ±20 MHz and −40 dBr at
//! ±30 MHz. This module estimates the PSD of a baseband waveform with
//! Welch's method (the workhorse of every lab spectrum check) and evaluates
//! mask compliance — closing the loop on the paper's regulatory thread.

use wlan_math::{fft, Complex};

/// A power spectral density estimate over `[-fs/2, fs/2)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Psd {
    /// Bin frequencies in Hz (ascending, DC-centred).
    pub freq_hz: Vec<f64>,
    /// Power per bin in dB relative to the peak bin.
    pub power_dbr: Vec<f64>,
}

impl Psd {
    /// The PSD (dBr) at the bin nearest `freq_hz`.
    ///
    /// # Panics
    ///
    /// Panics if the estimate is empty.
    pub fn at(&self, freq_hz: f64) -> f64 {
        assert!(!self.freq_hz.is_empty(), "empty PSD");
        let idx = self
            .freq_hz
            .iter()
            .enumerate()
            .min_by(|a, b| (a.1 - freq_hz).abs().total_cmp(&(b.1 - freq_hz).abs()))
            .map_or(0, |(i, _)| i);
        self.power_dbr[idx]
    }
}

/// Welch PSD estimate: Hann-windowed, 50 %-overlapped segments of length
/// `nfft`, averaged, normalized to the peak bin.
///
/// # Panics
///
/// Panics if `nfft` is not a power of two or `samples.len() < nfft`.
pub fn welch_psd(samples: &[Complex], nfft: usize, sample_rate_hz: f64) -> Psd {
    assert!(samples.len() >= nfft, "need at least one segment");
    let hop = nfft / 2;
    let window: Vec<f64> = (0..nfft)
        .map(|n| {
            0.5 * (1.0
                - (2.0 * std::f64::consts::PI * n as f64 / (nfft - 1) as f64).cos())
        })
        .collect();
    let mut acc = vec![0.0f64; nfft];
    let mut segments = 0usize;
    let mut start = 0usize;
    while start + nfft <= samples.len() {
        let seg: Vec<Complex> = samples[start..start + nfft]
            .iter()
            .zip(&window)
            .map(|(&s, &w)| s.scale(w))
            .collect();
        let spec = fft::fft(&seg);
        for (a, s) in acc.iter_mut().zip(&spec) {
            *a += s.norm_sqr();
        }
        segments += 1;
        start += hop;
    }
    debug_assert!(segments > 0);

    // fftshift to DC-centred order and normalize to peak.
    let shifted: Vec<f64> = (0..nfft)
        .map(|i| acc[(i + nfft / 2) % nfft] / segments as f64)
        .collect();
    let peak = shifted.iter().fold(0.0f64, |a, &b| a.max(b)).max(1e-300);
    let power_dbr: Vec<f64> = shifted
        .iter()
        .map(|&p| 10.0 * (p / peak).max(1e-30).log10())
        .collect();
    let freq_hz = (0..nfft)
        .map(|i| (i as f64 - nfft as f64 / 2.0) * sample_rate_hz / nfft as f64)
        .collect();
    Psd { freq_hz, power_dbr }
}

/// One point of the 802.11a transmit mask: `(offset_hz, max_dbr)`.
pub const DOT11A_MASK: [(f64, f64); 4] = [
    (9e6, 0.0),
    (11e6, -20.0),
    (20e6, -28.0),
    (30e6, -40.0),
];

/// Checks a PSD against the 802.11a mask (piecewise-linear between the
/// mask points, both sidebands). Returns the worst-case margin in dB:
/// a compliant spectrum has margin ≥ 0 (the peak bin always sits exactly
/// on the 0 dBr in-band limit).
pub fn mask_margin_db(psd: &Psd) -> f64 {
    let limit = |offset: f64| -> f64 {
        let off = offset.abs();
        if off <= DOT11A_MASK[0].0 {
            return DOT11A_MASK[0].1;
        }
        for w in DOT11A_MASK.windows(2) {
            let (f0, l0) = w[0];
            let (f1, l1) = w[1];
            if off <= f1 {
                return l0 + (l1 - l0) * (off - f0) / (f1 - f0);
            }
        }
        DOT11A_MASK[3].1
    };
    psd.freq_hz
        .iter()
        .zip(&psd.power_dbr)
        .map(|(&f, &p)| limit(f) - p)
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phy::OfdmPhy;
    use crate::OfdmRate;
    use wlan_math::rng::{Rng, WlanRng};

    /// A long OFDM burst, 4× oversampled by zero-stuffing in frequency is
    /// not available here; instead evaluate the native-rate spectrum where
    /// the mask's ±10 MHz span is observable (fs = 20 MHz).
    fn ofdm_burst(rng: &mut WlanRng) -> Vec<Complex> {
        let phy = OfdmPhy::new(OfdmRate::R54);
        let mut out = Vec::new();
        for _ in 0..6 {
            let payload: Vec<u8> = (0..500).map(|_| rng.gen()).collect();
            out.extend(phy.transmit(&payload));
        }
        out
    }

    #[test]
    fn tone_concentrates_in_one_bin() {
        let fs = 20e6;
        let f0 = 2.5e6;
        let x: Vec<Complex> = (0..4096)
            .map(|n| {
                Complex::from_polar(1.0, 2.0 * std::f64::consts::PI * f0 * n as f64 / fs)
            })
            .collect();
        let psd = welch_psd(&x, 256, fs);
        assert!(psd.at(f0) > -1.0, "tone bin {}", psd.at(f0));
        assert!(psd.at(-5e6) < -40.0, "far bin {}", psd.at(-5e6));
    }

    #[test]
    fn ofdm_occupies_plus_minus_8mhz() {
        let mut rng = WlanRng::seed_from_u64(400);
        let psd = welch_psd(&ofdm_burst(&mut rng), 256, 20e6);
        // In-band (±8 MHz, away from the nulled DC bin): within a few dB
        // of the peak.
        for f in [-8e6, -4e6, -2e6, 2e6, 4e6, 8e6] {
            assert!(psd.at(f) > -10.0, "in-band {f}: {}", psd.at(f));
        }
        // The DC null itself is visible.
        assert!(psd.at(0.0) < -5.0, "DC null: {}", psd.at(0.0));
        // Beyond the occupied 52 carriers (±8.4 MHz) the unshaped rectangular
        // symbol still leaks, but clearly below the in-band level.
        assert!(psd.at(9.8e6) < -6.0, "edge: {}", psd.at(9.8e6));
    }

    #[test]
    fn psd_is_normalized_to_peak() {
        let mut rng = WlanRng::seed_from_u64(401);
        let psd = welch_psd(&ofdm_burst(&mut rng), 128, 20e6);
        let max = psd.power_dbr.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        assert!((max - 0.0).abs() < 1e-9);
    }

    #[test]
    fn mask_margin_flags_wideband_noise() {
        // White noise fills the band flat: it must violate the −20 dBr
        // point at ±11 MHz... which at fs=20 MHz is out of view; check via
        // a synthetic PSD instead.
        let psd = Psd {
            freq_hz: vec![0.0, 11e6, 20e6],
            power_dbr: vec![0.0, -5.0, -10.0],
        };
        assert!(mask_margin_db(&psd) < 0.0, "flat spectrum must fail");
        let compliant = Psd {
            freq_hz: vec![0.0, 11e6, 20e6],
            power_dbr: vec![0.0, -30.0, -45.0],
        };
        assert!(mask_margin_db(&compliant) >= 0.0);
    }

    #[test]
    fn mask_limit_interpolates() {
        // Halfway between 11 and 20 MHz the limit is −24 dBr: a −23 dBr
        // spur there must fail, a −25 dBr one pass.
        let fail = Psd {
            freq_hz: vec![0.0, 15.5e6],
            power_dbr: vec![0.0, -23.0],
        };
        assert!(mask_margin_db(&fail) < 0.0);
        let pass = Psd {
            freq_hz: vec![0.0, 15.5e6],
            power_dbr: vec![0.0, -25.0],
        };
        assert!(mask_margin_db(&pass) >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn short_input_rejected() {
        let _ = welch_psd(&[Complex::ZERO; 64], 128, 20e6);
    }
}
