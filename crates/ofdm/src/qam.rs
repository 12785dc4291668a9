//! Gray-coded QAM constellations (802.11a §17.3.5.7).
//!
//! Each modulation maps `N_BPSC` interleaved bits onto one subcarrier.
//! Constellations are normalized by `K_MOD` so every rate transmits unit
//! average energy per subcarrier. Demapping produces per-bit max-log LLRs
//! weighted by the channel gain, ready for soft Viterbi decoding.

use crate::params::Modulation;
use wlan_math::Complex;

/// Per-axis Gray map for 2 bits (16-QAM I or Q): 00→−3, 01→−1, 11→+1, 10→+3.
fn gray2_to_level(b0: u8, b1: u8) -> f64 {
    const LEVELS: [f64; 4] = [-3.0, -1.0, 3.0, 1.0];
    LEVELS[usize::from(b0 & 1) << 1 | usize::from(b1 & 1)]
}

/// Per-axis Gray map for 3 bits (64-QAM I or Q):
/// 000→−7, 001→−5, 011→−3, 010→−1, 110→+1, 111→+3, 101→+5, 100→+7.
fn gray3_to_level(b0: u8, b1: u8, b2: u8) -> f64 {
    const LEVELS: [f64; 8] = [-7.0, -5.0, -1.0, -3.0, 7.0, 5.0, 1.0, 3.0];
    LEVELS[usize::from(b0 & 1) << 2 | usize::from(b1 & 1) << 1 | usize::from(b2 & 1)]
}

/// Normalization factor `K_MOD` (table 81): scales the integer lattice to
/// unit average energy.
pub fn k_mod(modulation: Modulation) -> f64 {
    match modulation {
        Modulation::Bpsk => 1.0,
        Modulation::Qpsk => 1.0 / 2f64.sqrt(),
        Modulation::Qam16 => 1.0 / 10f64.sqrt(),
        Modulation::Qam64 => 1.0 / 42f64.sqrt(),
    }
}

/// Maps `N_BPSC` bits onto one constellation point.
///
/// # Panics
///
/// Panics if `bits.len()` does not match the modulation's bits per
/// subcarrier or a bit is not 0/1.
///
/// # Examples
///
/// ```
/// use wlan_ofdm::params::Modulation;
/// use wlan_ofdm::qam::map_bits;
///
/// let p = map_bits(Modulation::Qpsk, &[1, 1]);
/// assert!((p.norm() - 1.0).abs() < 1e-12); // unit energy
/// ```
pub fn map_bits(modulation: Modulation, bits: &[u8]) -> Complex {
    assert_eq!(
        bits.len(),
        modulation.bits_per_subcarrier(),
        "wrong number of bits for {modulation}"
    );
    assert!(bits.iter().all(|&b| b <= 1), "bits must be 0 or 1");
    let k = k_mod(modulation);
    match modulation {
        Modulation::Bpsk => Complex::new(if bits[0] == 1 { 1.0 } else { -1.0 }, 0.0),
        Modulation::Qpsk => Complex::new(
            if bits[0] == 1 { 1.0 } else { -1.0 },
            if bits[1] == 1 { 1.0 } else { -1.0 },
        )
        .scale(k),
        Modulation::Qam16 => Complex::new(
            gray2_to_level(bits[0], bits[1]),
            gray2_to_level(bits[2], bits[3]),
        )
        .scale(k),
        Modulation::Qam64 => Complex::new(
            gray3_to_level(bits[0], bits[1], bits[2]),
            gray3_to_level(bits[3], bits[4], bits[5]),
        )
        .scale(k),
    }
}

/// A modulation's constellation as a lookup table: every point indexed by
/// its `N_BPSC` bits read most-significant first (the first bit of a
/// subcarrier is the top bit of the index). Built with [`map_bits`], so a
/// lookup is bit-identical to mapping; the per-symbol transmit chains map
/// through it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constellation {
    /// Entries from `2^N_BPSC` on are unused.
    points: [Complex; 64],
    bpsc: usize,
}

impl Constellation {
    /// The table of `modulation`.
    pub fn new(modulation: Modulation) -> Self {
        let bpsc = modulation.bits_per_subcarrier();
        let mut points = [Complex::ZERO; 64];
        let mut bits = [0u8; 6];
        for (index, point) in points.iter_mut().enumerate().take(1 << bpsc) {
            for (i, b) in bits[..bpsc].iter_mut().enumerate() {
                *b = ((index >> (bpsc - 1 - i)) & 1) as u8;
            }
            *point = map_bits(modulation, &bits[..bpsc]);
        }
        Constellation { points, bpsc }
    }

    /// Maps `bits`, `N_BPSC` per subcarrier, onto one point per slot of
    /// `out`; mapping stops at whichever runs out first.
    pub fn map_into(&self, bits: &[u8], out: &mut [Complex]) {
        for (point, bits) in out.iter_mut().zip(bits.chunks_exact(self.bpsc)) {
            let index = bits.iter().fold(0, |acc, &b| acc << 1 | usize::from(b));
            *point = self.points[index & 63];
        }
    }
}

/// Maps a bit stream onto symbols (must be a whole number of subcarriers).
///
/// # Panics
///
/// Panics if `bits.len()` is not a multiple of the bits per subcarrier.
pub fn map_stream(modulation: Modulation, bits: &[u8]) -> Vec<Complex> {
    let bpsc = modulation.bits_per_subcarrier();
    assert_eq!(bits.len() % bpsc, 0, "bit stream must fill whole subcarriers");
    bits.chunks(bpsc).map(|c| map_bits(modulation, c)).collect()
}

/// Per-axis max-log LLRs for an amplitude observed on a Gray-coded PAM axis.
///
/// `y` is the received amplitude (already scaled back to the integer
/// lattice), `levels` the axis size (2, 4 or 8), and the result is one LLR
/// per bit with the convention `LLR > 0 ⇒ bit = 0`.
// Gray-coded PAM axes as static tables (levels, bit labels padded to 3):
// the allocation-free demapper indexes these directly.
static PAM2: [(f64, [u8; 3]); 2] = [(-1.0, [0, 0, 0]), (1.0, [1, 0, 0])];
static PAM4: [(f64, [u8; 3]); 4] = [
    (-3.0, [0, 0, 0]),
    (-1.0, [0, 1, 0]),
    (1.0, [1, 1, 0]),
    (3.0, [1, 0, 0]),
];
static PAM8: [(f64, [u8; 3]); 8] = [
    (-7.0, [0, 0, 0]),
    (-5.0, [0, 0, 1]),
    (-3.0, [0, 1, 1]),
    (-1.0, [0, 1, 0]),
    (1.0, [1, 1, 0]),
    (3.0, [1, 1, 1]),
    (5.0, [1, 0, 1]),
    (7.0, [1, 0, 0]),
];

/// Writes the per-axis max-log LLRs for an amplitude observed on a
/// Gray-coded PAM axis into `out` (one slot per axis bit).
///
/// Distance-based max-log: for each bit, LLR = min over constellation
/// points with bit=1 of d² minus min over points with bit=0 of d², with the
/// convention `LLR > 0 ⇒ bit = 0`.
fn axis_llrs_into(y: f64, points: &[(f64, [u8; 3])], out: &mut [f64]) {
    for (bit, slot) in out.iter_mut().enumerate() {
        let mut best0 = f64::INFINITY;
        let mut best1 = f64::INFINITY;
        for &(level, bits) in points {
            let d2 = (y - level) * (y - level);
            if bits[bit] == 0 {
                best0 = best0.min(d2);
            } else {
                best1 = best1.min(d2);
            }
        }
        *slot = best1 - best0;
    }
}

/// Soft-demaps one equalized subcarrier into per-bit LLRs.
///
/// `csi` is the channel reliability weight (typically `|H|²/σ²`): fading
/// subcarriers yield proportionally weaker LLRs, which is what lets the
/// Viterbi decoder discount them.
pub fn demap_soft(modulation: Modulation, y: Complex, csi: f64) -> Vec<f64> {
    let mut out = vec![0.0; modulation.bits_per_subcarrier()];
    demap_soft_into(modulation, y, csi, &mut out);
    out
}

/// Like [`demap_soft`], but writes the `N_BPSC` LLRs into a caller-owned
/// slot (bit-identical to [`demap_soft`], no allocation) — the form the
/// batched receive kernels use when filling a preallocated LLR plane.
///
/// # Panics
///
/// Panics if `out.len()` does not match the modulation's bits per
/// subcarrier.
pub fn demap_soft_into(modulation: Modulation, y: Complex, csi: f64, out: &mut [f64]) {
    assert_eq!(
        out.len(),
        modulation.bits_per_subcarrier(),
        "output slot must match bits per subcarrier"
    );
    let k = k_mod(modulation);
    // Scale back to the integer lattice; LLR magnitudes scale with k²·csi.
    let yi = y.re / k;
    let yq = y.im / k;
    let w = csi * k * k;
    match modulation {
        Modulation::Bpsk => axis_llrs_into(yi, &PAM2, out),
        Modulation::Qpsk => {
            axis_llrs_into(yi, &PAM2, &mut out[..1]);
            axis_llrs_into(yq, &PAM2, &mut out[1..]);
        }
        Modulation::Qam16 => {
            axis_llrs_into(yi, &PAM4, &mut out[..2]);
            axis_llrs_into(yq, &PAM4, &mut out[2..]);
        }
        Modulation::Qam64 => {
            axis_llrs_into(yi, &PAM8, &mut out[..3]);
            axis_llrs_into(yq, &PAM8, &mut out[3..]);
        }
    }
    for l in out.iter_mut() {
        *l *= w;
    }
}

/// Hard decision: the most likely bits for one equalized subcarrier.
pub fn demap_hard(modulation: Modulation, y: Complex) -> Vec<u8> {
    demap_soft(modulation, y, 1.0)
        .into_iter()
        .map(|l| (l < 0.0) as u8)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Modulation; 4] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
    ];

    fn all_bit_patterns(n: usize) -> Vec<Vec<u8>> {
        (0..1usize << n)
            .map(|v| (0..n).map(|i| ((v >> i) & 1) as u8).collect())
            .collect()
    }

    #[test]
    fn constellations_have_unit_average_energy() {
        for m in ALL {
            let n = m.bits_per_subcarrier();
            let pts: Vec<Complex> = all_bit_patterns(n)
                .iter()
                .map(|b| map_bits(m, b))
                .collect();
            let avg: f64 = pts.iter().map(|p| p.norm_sqr()).sum::<f64>() / pts.len() as f64;
            assert!((avg - 1.0).abs() < 1e-12, "{m}: {avg}");
        }
    }

    #[test]
    fn constellation_points_are_distinct() {
        for m in ALL {
            let n = m.bits_per_subcarrier();
            let pts: Vec<Complex> = all_bit_patterns(n)
                .iter()
                .map(|b| map_bits(m, b))
                .collect();
            for i in 0..pts.len() {
                for j in (i + 1)..pts.len() {
                    assert!((pts[i] - pts[j]).norm() > 1e-9, "{m}: {i} vs {j}");
                }
            }
        }
    }

    #[test]
    fn hard_demap_inverts_map() {
        for m in ALL {
            for bits in all_bit_patterns(m.bits_per_subcarrier()) {
                let p = map_bits(m, &bits);
                assert_eq!(demap_hard(m, p), bits, "{m} {bits:?}");
            }
        }
    }

    #[test]
    fn gray_neighbours_differ_in_one_bit() {
        // Adjacent 64-QAM I-axis levels must be Gray neighbours.
        let levels = [-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0];
        let bits_of = |lvl: f64| -> Vec<u8> {
            for b0 in 0..2u8 {
                for b1 in 0..2u8 {
                    for b2 in 0..2u8 {
                        if gray3_to_level(b0, b1, b2) == lvl {
                            return vec![b0, b1, b2];
                        }
                    }
                }
            }
            unreachable!()
        };
        for w in levels.windows(2) {
            let a = bits_of(w[0]);
            let b = bits_of(w[1]);
            let diff: u32 = a.iter().zip(&b).map(|(x, y)| (x ^ y) as u32).sum();
            assert_eq!(diff, 1, "levels {w:?}");
        }
    }

    #[test]
    fn llr_sign_matches_hard_decision_under_noise() {
        for m in ALL {
            for bits in all_bit_patterns(m.bits_per_subcarrier()) {
                let p = map_bits(m, &bits);
                // Small perturbation must not flip any LLR sign.
                let y = p + Complex::new(0.01, -0.01);
                for (i, llr) in demap_soft(m, y, 1.0).iter().enumerate() {
                    let hard = (*llr < 0.0) as u8;
                    assert_eq!(hard, bits[i], "{m} bit {i}");
                }
            }
        }
    }

    #[test]
    fn csi_scales_llr_magnitude() {
        let y = map_bits(Modulation::Qam16, &[1, 0, 0, 1]) + Complex::new(0.05, 0.0);
        let weak = demap_soft(Modulation::Qam16, y, 0.1);
        let strong = demap_soft(Modulation::Qam16, y, 10.0);
        for (w, s) in weak.iter().zip(&strong) {
            assert!((s / w - 100.0).abs() < 1e-6, "CSI must scale linearly");
        }
    }

    #[test]
    fn deep_fade_produces_weak_llrs() {
        // csi → 0 (subcarrier in a null) must drive LLRs to 0, marking the
        // bits as erasures for the decoder.
        let y = map_bits(Modulation::Qam64, &[0, 1, 1, 0, 0, 1]);
        let llrs = demap_soft(Modulation::Qam64, y, 1e-9);
        for l in llrs {
            assert!(l.abs() < 1e-6);
        }
    }

    #[test]
    fn constellation_table_matches_map_bits() {
        for m in ALL {
            let n = m.bits_per_subcarrier();
            let table = Constellation::new(m);
            for bits in all_bit_patterns(n) {
                let mut point = [Complex::ZERO];
                table.map_into(&bits, &mut point);
                assert_eq!(point[0], map_bits(m, &bits), "{m} {bits:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "wrong number of bits")]
    fn map_checks_length() {
        let _ = map_bits(Modulation::Qam16, &[1, 0]);
    }
}
