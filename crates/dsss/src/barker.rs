//! Barker-11 spreading.
//!
//! 802.11-1999 spreads every symbol with the length-11 Barker sequence. Its
//! ideal autocorrelation concentrates the despread energy into one lag while
//! spreading narrowband interference over the full 11 MHz chip bandwidth —
//! the mechanism behind the FCC's mandated ≥10 dB processing gain
//! (10·log₁₀(11) ≈ 10.4 dB), measured in experiment E3.

use wlan_math::Complex;

/// The 11-chip Barker sequence used by 802.11 (+−++−+++−−−).
pub const BARKER_11: [f64; 11] = [
    1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0,
];

/// Chips per symbol (the spreading factor).
pub const SPREAD_FACTOR: usize = 11;

/// Theoretical processing gain in dB: `10·log10(11)`.
pub fn processing_gain_db() -> f64 {
    10.0 * (SPREAD_FACTOR as f64).log10()
}

/// Spreads a symbol stream: each complex symbol becomes 11 chips,
/// normalized so the chips carry the same total energy as the symbol.
pub fn spread(symbols: &[Complex]) -> Vec<Complex> {
    // One output allocation for the whole frame; per-symbol chips are
    // written straight into it.
    let scale = 1.0 / (SPREAD_FACTOR as f64).sqrt();
    let mut chips = Vec::with_capacity(symbols.len() * SPREAD_FACTOR);
    for &s in symbols {
        chips.extend(BARKER_11.iter().map(|&c| s.scale(c * scale)));
    }
    chips
}

/// Despreads one 11-chip block back into a symbol (matched filter).
///
/// # Panics
///
/// Panics if `chips.len() != 11`.
fn despread_symbol(chips: &[Complex]) -> Complex {
    assert_eq!(chips.len(), SPREAD_FACTOR, "expected 11 chips");
    let scale = 1.0 / (SPREAD_FACTOR as f64).sqrt();
    chips
        .iter()
        .zip(BARKER_11.iter())
        .map(|(&r, &c)| r.scale(c * scale))
        .sum()
}

/// Despreads a chip stream (must be a whole number of symbols).
///
/// # Panics
///
/// Panics if `chips.len()` is not a multiple of 11.
pub fn despread(chips: &[Complex]) -> Vec<Complex> {
    assert_eq!(chips.len() % SPREAD_FACTOR, 0, "chip stream must be whole symbols");
    chips.chunks(SPREAD_FACTOR).map(despread_symbol).collect()
}

/// Aperiodic autocorrelation of the Barker sequence at integer lag `k`
/// (unnormalized).
pub fn autocorrelation(k: usize) -> f64 {
    if k >= SPREAD_FACTOR {
        return 0.0;
    }
    (0..SPREAD_FACTOR - k)
        .map(|i| BARKER_11[i] * BARKER_11[i + k])
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barker_sidelobes_are_bounded_by_one() {
        assert_eq!(autocorrelation(0), 11.0);
        for k in 1..SPREAD_FACTOR {
            assert!(
                autocorrelation(k).abs() <= 1.0,
                "lag {k}: {}",
                autocorrelation(k)
            );
        }
    }

    #[test]
    fn spread_despread_roundtrip() {
        let symbols = vec![
            Complex::ONE,
            -Complex::ONE,
            Complex::I,
            Complex::new(0.7, -0.7),
        ];
        let chips = spread(&symbols);
        assert_eq!(chips.len(), symbols.len() * SPREAD_FACTOR);
        let back = despread(&chips);
        for (a, b) in back.iter().zip(&symbols) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn spreading_preserves_energy() {
        let sym = Complex::new(0.6, 0.8);
        let chips = spread(&[sym]);
        let chip_energy: f64 = chips.iter().map(|c| c.norm_sqr()).sum();
        assert!((chip_energy - sym.norm_sqr()).abs() < 1e-12);
    }

    #[test]
    fn processing_gain_matches_paper_requirement() {
        // The FCC rule demanded ≥10 dB; Barker-11 delivers 10.41 dB.
        let g = processing_gain_db();
        assert!(g >= 10.0, "processing gain {g} must meet the 10 dB rule");
        assert!((g - 10.41).abs() < 0.01);
    }

    #[test]
    fn despreading_suppresses_cw_interference() {
        // A constant (zero-frequency CW) interferer of amplitude J spread
        // over 11 chips contributes only J·Σc/√11 = −J/√11 to the symbol:
        // an 11× (10.4 dB) power suppression relative to the signal.
        let jammer = Complex::from_re(1.0);
        let chips: Vec<Complex> = (0..SPREAD_FACTOR).map(|_| jammer).collect();
        let leaked = despread_symbol(&chips);
        let suppression = jammer.norm_sqr() / leaked.norm_sqr();
        assert!((10.0 * suppression.log10() - processing_gain_db()).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "11 chips")]
    fn despread_length_checked() {
        let _ = despread_symbol(&[Complex::ZERO; 10]);
    }
}
