//! The frequency-hopping spread spectrum PHY.
//!
//! 802.11-1999 standardized FHSS alongside DSSS as the other way to satisfy
//! the FCC spreading rules: hop over 79 one-MHz channels following a
//! pseudorandom pattern, carrying 1 Mbps with 2-level GFSK. This module
//! models one hop dwell, with the GFSK modelled as orthogonal binary FSK
//! with noncoherent detection.

use wlan_math::Complex;

/// Binary orthogonal FSK over one hop dwell (the GFSK stand-in).
///
/// Two tones at ±f_dev within the 1 MHz channel, `samples_per_symbol`
/// samples each; detection is noncoherent (energy comparison of the two
/// matched filters), as a real FHSS radio would do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FskModem {
    samples_per_symbol: usize,
}

impl FskModem {
    /// Creates a modem with the given oversampling (tones at ±1/4 of the
    /// sample rate, guaranteed orthogonal over a symbol).
    ///
    /// # Panics
    ///
    /// Panics if `samples_per_symbol < 4` or odd.
    pub fn new(samples_per_symbol: usize) -> Self {
        assert!(
            samples_per_symbol >= 4 && samples_per_symbol.is_multiple_of(2),
            "need an even oversampling factor of at least 4"
        );
        FskModem { samples_per_symbol }
    }

    fn tone(&self, positive: bool, n: usize) -> Complex {
        let sign = if positive { 1.0 } else { -1.0 };
        // ±fs/4 tones: one full cycle every 4 samples.
        Complex::from_polar(
            1.0,
            sign * std::f64::consts::PI / 2.0 * n as f64,
        )
    }

    /// The two tone waveforms over one symbol, evaluated once per call so
    /// the per-sample loops do table lookups instead of sin/cos pairs.
    fn tone_tables(&self) -> (Vec<Complex>, Vec<Complex>) {
        let pos: Vec<Complex> = (0..self.samples_per_symbol).map(|n| self.tone(true, n)).collect();
        let neg: Vec<Complex> = (0..self.samples_per_symbol).map(|n| self.tone(false, n)).collect();
        (pos, neg)
    }

    /// Modulates bits into unit-power samples.
    pub fn modulate(&self, bits: &[u8]) -> Vec<Complex> {
        let (pos, neg) = self.tone_tables();
        let mut out = Vec::with_capacity(bits.len() * self.samples_per_symbol);
        for &b in bits {
            assert!(b <= 1, "bits must be 0 or 1");
            out.extend_from_slice(if b == 1 { &pos } else { &neg });
        }
        out
    }

    /// Noncoherent demodulation: pick the tone with more energy.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len()` is not a whole number of symbols.
    pub fn demodulate(&self, samples: &[Complex]) -> Vec<u8> {
        assert_eq!(
            samples.len() % self.samples_per_symbol,
            0,
            "sample stream must be whole symbols"
        );
        let (pos, neg) = self.tone_tables();
        samples
            .chunks(self.samples_per_symbol)
            .map(|sym| {
                let mut c_pos = Complex::ZERO;
                let mut c_neg = Complex::ZERO;
                for (n, &s) in sym.iter().enumerate() {
                    c_pos += s * pos[n].conj();
                    c_neg += s * neg[n].conj();
                }
                (c_pos.norm_sqr() > c_neg.norm_sqr()) as u8
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::rng::WlanRng;

    #[test]
    fn fsk_roundtrip_clean() {
        let modem = FskModem::new(8);
        let bits = vec![1, 0, 0, 1, 1, 1, 0, 1, 0, 0];
        assert_eq!(modem.demodulate(&modem.modulate(&bits)), bits);
    }

    #[test]
    fn fsk_tones_are_orthogonal() {
        let modem = FskModem::new(8);
        let corr: Complex = (0..8)
            .map(|n| modem.tone(true, n) * modem.tone(false, n).conj())
            .sum();
        assert!(corr.norm() < 1e-10, "tones must be orthogonal: {corr:?}");
    }

    #[test]
    fn fsk_survives_moderate_noise() {
        let mut rng = WlanRng::seed_from_u64(70);
        let modem = FskModem::new(8);
        let bits: Vec<u8> = (0..2000).map(|i| (i % 3 == 0) as u8).collect();
        let mut samples = modem.modulate(&bits);
        // 10 dB per-sample SNR → per-symbol Eb/N0 ≈ 19 dB: essentially error-free.
        for s in samples.iter_mut() {
            *s += wlan_channel::noise::complex_gaussian(&mut rng).scale(0.316);
        }
        let out = modem.demodulate(&samples);
        let errors = out.iter().zip(&bits).filter(|(a, b)| a != b).count();
        assert_eq!(errors, 0, "unexpected errors at high SNR");
    }
}
