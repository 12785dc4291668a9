//! Puncturing of the rate-1/2 mother code.
//!
//! 802.11a obtains rates 2/3 and 3/4 — and 802.11n adds 5/6 — by deleting
//! selected output bits of the rate-1/2 convolutional code
//! (IEEE 802.11a-1999 §17.3.5.6, figure 146). The receiver reinserts
//! zero-LLR erasures at the punctured positions before Viterbi decoding.

/// Code rates used by the 802.11 OFDM PHYs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CodeRate {
    /// Rate 1/2 — the unpunctured mother code.
    R1_2,
    /// Rate 2/3 — punctured, used by 64-QAM 48 Mbps.
    R2_3,
    /// Rate 3/4 — punctured, used at 9/18/36/54 Mbps.
    R3_4,
    /// Rate 5/6 — punctured, 802.11n MCS 7/15/23/31.
    R5_6,
}

impl CodeRate {
    /// Numerator / denominator of the rate as integers.
    pub fn as_fraction(self) -> (usize, usize) {
        match self {
            CodeRate::R1_2 => (1, 2),
            CodeRate::R2_3 => (2, 3),
            CodeRate::R3_4 => (3, 4),
            CodeRate::R5_6 => (5, 6),
        }
    }

    /// The rate as a float (information bits per coded bit).
    pub fn as_f64(self) -> f64 {
        let (n, d) = self.as_fraction();
        n as f64 / d as f64
    }

    /// Puncturing pattern over one period of the rate-1/2 output stream
    /// `A1 B1 A2 B2 …` — `true` marks a transmitted bit, `false` a deleted
    /// one.
    pub fn pattern(self) -> &'static [bool] {
        match self {
            CodeRate::R1_2 => &[true, true],
            // 802.11a figure 146: keep A1 B1 A2, drop B2.
            CodeRate::R2_3 => &[true, true, true, false],
            // Keep A1 B1, drop A2, keep B2... standard: A1 B1 A2 B3.
            CodeRate::R3_4 => &[true, true, true, false, false, true],
            // 802.11n: A1 B1 A2 B3 A4 B5 (per 10 mother bits keep 6).
            CodeRate::R5_6 => &[
                true, true, true, false, false, true, true, false, false, true,
            ],
        }
    }

    /// All rates, in increasing order.
    pub fn all() -> [CodeRate; 4] {
        [CodeRate::R1_2, CodeRate::R2_3, CodeRate::R3_4, CodeRate::R5_6]
    }
}

impl std::fmt::Display for CodeRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (n, d) = self.as_fraction();
        write!(f, "{n}/{d}")
    }
}

/// Deletes mother-code bits according to the rate's puncturing pattern.
///
/// ```
/// use wlan_coding::puncture::{puncture, CodeRate};
/// // 12 mother bits at rate 3/4 → 8 transmitted bits.
/// let coded: Vec<u8> = (0..12).map(|i| (i % 2) as u8).collect();
/// assert_eq!(puncture(&coded, CodeRate::R3_4).len(), 8);
/// ```
pub fn puncture(coded: &[u8], rate: CodeRate) -> Vec<u8> {
    let pattern = rate.pattern();
    coded
        .iter()
        .zip(pattern.iter().cycle())
        .filter_map(|(&bit, &keep)| keep.then_some(bit))
        .collect()
}

/// Reinserts zero-LLR erasures at the punctured positions.
///
/// `mother_len` is the length of the original rate-1/2 stream; the output has
/// exactly that many LLRs.
///
/// # Panics
///
/// Panics if `punctured.len()` does not match the number of kept positions in
/// the first `mother_len` pattern slots.
pub fn depuncture(punctured: &[f64], rate: CodeRate, mother_len: usize) -> Vec<f64> {
    let pattern = rate.pattern();
    assert_eq!(
        punctured.len(),
        punctured_len(mother_len, rate),
        "punctured stream length must equal the pattern's kept positions"
    );
    let mut out = Vec::with_capacity(mother_len);
    let mut src = 0usize;
    for i in 0..mother_len {
        if pattern[i % pattern.len()] {
            // In bounds: the assert above pins one input LLR per kept slot.
            out.push(punctured[src]);
            src += 1;
        } else {
            out.push(0.0);
        }
    }
    out
}

/// Number of transmitted bits after puncturing `mother_len` mother-code bits.
pub fn punctured_len(mother_len: usize, rate: CodeRate) -> usize {
    let pattern = rate.pattern();
    let full = mother_len / pattern.len();
    let rem = mother_len % pattern.len();
    let kept_per_period = pattern.iter().filter(|&&k| k).count();
    full * kept_per_period + pattern[..rem].iter().filter(|&&k| k).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolutional::ConvEncoder;
    use crate::viterbi::ViterbiDecoder;

    #[test]
    fn kept_count_matches_rate() {
        // One pattern period covers n info bits = 2n mother bits; to realize
        // rate n/d the pattern must keep exactly n/(n/d) = d of them.
        for rate in CodeRate::all() {
            let (n, d) = rate.as_fraction();
            let pattern = rate.pattern();
            let kept = pattern.iter().filter(|&&k| k).count();
            assert_eq!(pattern.len(), 2 * n, "pattern period for {rate}");
            assert_eq!(kept, d, "pattern for {rate} must keep d bits per period");
        }
    }

    #[test]
    fn depuncture_restores_positions() {
        let rate = CodeRate::R3_4;
        let mother: Vec<u8> = (0..24).map(|i| ((i * 5) % 3 == 0) as u8).collect();
        let tx = puncture(&mother, rate);
        assert_eq!(tx.len(), punctured_len(mother.len(), rate));
        let llrs: Vec<f64> = tx.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect();
        let restored = depuncture(&llrs, rate, mother.len());
        assert_eq!(restored.len(), mother.len());
        // Non-erased positions carry the original hard decisions.
        let mut kept_idx = 0;
        for (i, &keep) in rate.pattern().iter().cycle().take(mother.len()).enumerate() {
            if keep {
                let hard = if restored[i] > 0.0 { 0u8 } else { 1u8 };
                assert_eq!(hard, mother[i]);
                kept_idx += 1;
            } else {
                assert_eq!(restored[i], 0.0, "punctured position must be erased");
            }
        }
        assert_eq!(kept_idx, tx.len());
    }

    #[test]
    fn punctured_viterbi_roundtrip_all_rates() {
        // num_info chosen so mother length is a multiple of every period.
        let data: Vec<u8> = (0..54).map(|i| ((i * 11) % 7 < 3) as u8).collect();
        for rate in CodeRate::all() {
            let mother = ConvEncoder::new().encode_terminated(&data);
            let tx = puncture(&mother, rate);
            let llrs: Vec<f64> = tx.iter().map(|&b| if b == 0 { 4.0 } else { -4.0 }).collect();
            let restored = depuncture(&llrs, rate, mother.len());
            let decoded = ViterbiDecoder::new().decode_soft(&restored, data.len()).unwrap();
            assert_eq!(decoded, data, "roundtrip failed at rate {rate}");
        }
    }

    #[test]
    fn higher_rates_are_less_robust() {
        // With the same two channel errors landing on kept bits, rate 1/2
        // still corrects while the weakened 5/6 code may not; at minimum the
        // 1/2 roundtrip must succeed.
        let data: Vec<u8> = (0..30).map(|i| (i % 4 == 0) as u8).collect();
        let mother = ConvEncoder::new().encode_terminated(&data);
        let mut tx = puncture(&mother, CodeRate::R1_2);
        tx[4] ^= 1;
        tx[9] ^= 1;
        let llrs: Vec<f64> = tx.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect();
        let restored = depuncture(&llrs, CodeRate::R1_2, mother.len());
        let decoded = ViterbiDecoder::new().decode_soft(&restored, data.len()).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn display_formats_fraction() {
        assert_eq!(CodeRate::R3_4.to_string(), "3/4");
        assert_eq!(CodeRate::R5_6.to_string(), "5/6");
    }

    #[test]
    fn rates_are_ordered() {
        let all = CodeRate::all();
        for w in all.windows(2) {
            assert!(w[0].as_f64() < w[1].as_f64());
        }
    }
}
