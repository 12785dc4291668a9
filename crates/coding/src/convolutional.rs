//! The 802.11 convolutional encoder.
//!
//! 802.11a/g/n use the industry-standard rate-1/2, constraint-length-7 code
//! with generators g₀ = 133₈ and g₁ = 171₈ (IEEE 802.11a-1999 §17.3.5.5).
//! Higher rates are obtained by [puncturing](crate::puncture).

/// Generator polynomial g₀ = 133₈ = 0b1011011.
pub const G0: u32 = 0o133;
/// Generator polynomial g₁ = 171₈ = 0b1111001.
pub const G1: u32 = 0o171;
/// Constraint length K = 7 (64 trellis states).
pub const CONSTRAINT_LENGTH: usize = 7;
/// Number of trellis states, `2^(K-1)`.
pub const NUM_STATES: usize = 1 << (CONSTRAINT_LENGTH - 1);

/// Encoder outputs `(A << 1) | B` for every 7-bit register value
/// `input << 6 | state`: one lookup per encoded bit. The encoder and the
/// Viterbi decoder's trellis both read this table, so they cannot drift
/// apart.
pub(crate) const OUTPUTS: [u8; 2 * NUM_STATES] = {
    let mut table = [0u8; 2 * NUM_STATES];
    let mut reg = 0;
    while reg < 2 * NUM_STATES {
        let a = ((reg as u32 & G0).count_ones() & 1) as u8;
        let b = ((reg as u32 & G1).count_ones() & 1) as u8;
        table[reg] = (a << 1) | b;
        reg += 1;
    }
    table
};

/// Rate-1/2, K=7 convolutional encoder.
///
/// The encoder is stateful so streaming use is possible; the typical PHY
/// path calls [`ConvEncoder::encode_terminated`], which appends the six
/// zero tail bits that drive the trellis back to state 0 (802.11's
/// "tail-biting" is not used; the standard terminates with zeros).
///
/// # Examples
///
/// ```
/// use wlan_coding::convolutional::ConvEncoder;
///
/// // Each input bit yields two output bits; termination adds 6 more inputs.
/// let out = ConvEncoder::new().encode_terminated(&[1, 0, 1]);
/// assert_eq!(out.len(), (3 + 6) * 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvEncoder {
    state: u32,
}

impl ConvEncoder {
    /// Creates an encoder in the all-zero state.
    pub fn new() -> Self {
        ConvEncoder { state: 0 }
    }

    /// Encodes one input bit, returning the `(A, B)` output pair.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is not 0 or 1.
    pub fn push(&mut self, bit: u8) -> (u8, u8) {
        assert!(bit <= 1, "input bits must be 0 or 1");
        let pair = self.push_packed(bit);
        (pair >> 1, pair & 1)
    }

    /// Encodes one input bit (only its low bit is read), returning the
    /// output pair packed as `(A << 1) | B` — the streaming form the
    /// per-symbol transmit chain uses.
    #[inline]
    pub fn push_packed(&mut self, bit: u8) -> u8 {
        // Shift register holds the current bit in the MSB position.
        let reg = ((bit & 1) as usize) << (CONSTRAINT_LENGTH - 1) | self.state as usize;
        self.state = (reg >> 1) as u32;
        OUTPUTS[reg]
    }

    /// Encodes a bit slice without trellis termination.
    pub fn encode(&mut self, bits: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(bits.len() * 2);
        for &b in bits {
            let (a, bb) = self.push(b);
            out.push(a);
            out.push(bb);
        }
        out
    }

    /// Encodes a bit slice followed by six zero tail bits (zero termination),
    /// consuming the encoder.
    ///
    /// Output length is `(bits.len() + 6) * 2`.
    pub fn encode_terminated(mut self, bits: &[u8]) -> Vec<u8> {
        let mut out = self.encode(bits);
        for _ in 0..CONSTRAINT_LENGTH - 1 {
            let (a, b) = self.push(0);
            out.push(a);
            out.push(b);
        }
        debug_assert_eq!(self.state, 0, "termination must return to state 0");
        out
    }

    /// The current trellis state (0..64).
    pub fn state(&self) -> u32 {
        self.state
    }
}

/// Trellis output for `(state, input)` straight from the generator
/// polynomials: returns `(a, b, next_state)`. The test oracle for
/// [`OUTPUTS`] and the Viterbi decoder's reference trellis.
#[cfg(test)]
pub(crate) fn trellis_step(state: u32, input: u8) -> (u8, u8, u32) {
    let reg = (input as u32) << (CONSTRAINT_LENGTH - 1) | state;
    let a = (reg & G0).count_ones() as u8 & 1;
    let b = (reg & G1).count_ones() as u8 & 1;
    (a, b, reg >> 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_impulse_response() {
        // A single 1 followed by zeros reads out the generator taps:
        // g0 = 1011011, g1 = 1111001, MSB (current bit) first.
        let mut enc = ConvEncoder::new();
        let mut a_bits = Vec::new();
        let mut b_bits = Vec::new();
        let (a, b) = enc.push(1);
        a_bits.push(a);
        b_bits.push(b);
        for _ in 0..6 {
            let (a, b) = enc.push(0);
            a_bits.push(a);
            b_bits.push(b);
        }
        // Impulse response = generator taps in delay order (MSB = delay 0):
        // g0 = 133₈ = 1011011 → A_t = d_t ⊕ d_{t−2} ⊕ d_{t−3} ⊕ d_{t−5} ⊕ d_{t−6}.
        assert_eq!(a_bits, vec![1, 0, 1, 1, 0, 1, 1]);
        assert_eq!(b_bits, vec![1, 1, 1, 1, 0, 0, 1]); // g1 = 171₈ = 1111001
    }

    #[test]
    fn linearity_over_gf2() {
        // conv(x ⊕ y) = conv(x) ⊕ conv(y) for a linear code.
        let x = [1u8, 0, 1, 1, 0, 0, 1, 0, 1, 1];
        let y = [0u8, 1, 1, 0, 1, 0, 0, 1, 1, 0];
        let xy: Vec<u8> = x.iter().zip(&y).map(|(a, b)| a ^ b).collect();
        let cx = ConvEncoder::new().encode_terminated(&x);
        let cy = ConvEncoder::new().encode_terminated(&y);
        let cxy = ConvEncoder::new().encode_terminated(&xy);
        let sum: Vec<u8> = cx.iter().zip(&cy).map(|(a, b)| a ^ b).collect();
        assert_eq!(cxy, sum);
    }

    #[test]
    fn termination_returns_to_zero_state() {
        let mut enc = ConvEncoder::new();
        enc.encode(&[1, 1, 0, 1, 0, 1, 1]);
        assert_ne!(enc.state(), 0);
        let _ = enc.encode(&[0, 0, 0, 0, 0, 0]);
        assert_eq!(enc.state(), 0);
    }

    #[test]
    fn all_zero_input_gives_all_zero_output() {
        let out = ConvEncoder::new().encode_terminated(&[0; 20]);
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn free_distance_is_ten() {
        // The (133,171) code famously has free distance 10: no nonzero
        // terminated codeword of modest length has weight below 10.
        let mut min_weight = usize::MAX;
        for msg in 1u32..(1 << 8) {
            let bits: Vec<u8> = (0..8).map(|i| ((msg >> i) & 1) as u8).collect();
            let cw = ConvEncoder::new().encode_terminated(&bits);
            let w = cw.iter().filter(|&&b| b == 1).count();
            min_weight = min_weight.min(w);
        }
        assert_eq!(min_weight, 10);
    }

    #[test]
    fn trellis_step_matches_encoder() {
        let mut enc = ConvEncoder::new();
        for &bit in &[1u8, 1, 0, 1, 0, 0, 1, 1, 1, 0] {
            let state = enc.state();
            let (a, b) = enc.push(bit);
            let (ta, tb, tn) = trellis_step(state, bit);
            assert_eq!((a, b), (ta, tb));
            assert_eq!(enc.state(), tn);
        }
    }
}
