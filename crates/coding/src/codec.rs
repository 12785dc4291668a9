//! The per-symbol BCC data-field codec of the 802.11a and 802.11n chains.
//!
//! Every BCC-coded OFDM DATA field carries
//! `SERVICE(16) ‖ payload ‖ TAIL(6) ‖ PAD`, scrambled, encoded by the K=7
//! code and punctured (802.11a §17.3.5). [`DataCodec`] runs that field one
//! OFDM symbol at a time: the transmit side hands each symbol's punctured
//! coded bits to the chain, with the scrambler, encoder and puncture phase
//! carried across symbols; the receive side takes each symbol's
//! deinterleaved LLRs, depunctures them into the Viterbi window, then
//! decodes, descrambles and packs the payload. Both are bit-identical to
//! running each stage over the whole frame in turn. What a chain does
//! between the codec and the antennas (interleaving, stream parsing,
//! mapping, space-time coding) is its own.

use crate::puncture::CodeRate;
use crate::scrambler::Scrambler;
use crate::{ConvEncoder, ViterbiDecoder};
use wlan_math::WlanError;

/// Bits of the SERVICE field ahead of the payload.
const SERVICE_BITS: usize = 16;
/// Zero tail bits that drive the trellis back to state 0.
const TAIL_BITS: usize = 6;

/// The BCC data-field codec for symbols of a fixed coded size.
///
/// # Examples
///
/// ```
/// use wlan_coding::codec::DataCodec;
/// use wlan_coding::CodeRate;
///
/// // 802.11a 24 Mbps: 192 coded bits per symbol at rate 1/2.
/// let codec = DataCodec::new(CodeRate::R1_2, 192, 0x5D);
/// let n_sym = codec.num_symbols(5);
/// let mut coded = Vec::new();
/// codec.encode(b"hello", n_sym, |_, bits| coded.extend_from_slice(bits));
/// assert_eq!(coded.len(), n_sym * 192);
/// // A noiseless channel: bit 0 → LLR +1, bit 1 → −1.
/// let decoded = codec.decode(5, n_sym, |s, llrs| {
///     for (l, &b) in llrs.iter_mut().zip(&coded[s * 192..]) {
///         *l = if b == 0 { 1.0 } else { -1.0 };
///     }
/// });
/// assert_eq!(decoded.unwrap(), b"hello");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataCodec {
    rate: CodeRate,
    n_cbps: usize,
    n_dbps: usize,
    scrambler_seed: u8,
}

impl DataCodec {
    /// A codec for symbols of `n_cbps` coded bits at `rate`, scrambled
    /// from `scrambler_seed` (a nonzero 7-bit value).
    ///
    /// `n_cbps` is a whole number of subcarriers' worth of bits, so it is a
    /// multiple of the rate's denominator: every symbol then holds whole
    /// puncturing periods.
    pub fn new(rate: CodeRate, n_cbps: usize, scrambler_seed: u8) -> Self {
        let (num, den) = rate.as_fraction();
        DataCodec {
            rate,
            n_cbps,
            n_dbps: n_cbps * num / den,
            scrambler_seed,
        }
    }

    /// Data bits per symbol (`N_DBPS`).
    pub fn data_bits_per_symbol(&self) -> usize {
        self.n_dbps
    }

    /// Symbols a `len`-byte payload needs: SERVICE, payload and tail,
    /// rounded up to whole symbols.
    pub fn num_symbols(&self, len: usize) -> usize {
        (SERVICE_BITS + 8 * len + TAIL_BITS).div_ceil(self.n_dbps.max(1))
    }

    /// Encodes the DATA field of `payload` over `n_sym` symbols, calling
    /// `symbol(s, coded)` with symbol `s`'s `N_CBPS` punctured coded bits
    /// in order.
    pub fn encode(&self, payload: &[u8], n_sym: usize, mut symbol: impl FnMut(usize, &[u8])) {
        let payload_end = SERVICE_BITS + 8 * payload.len();
        // §17.3.5.2: the six tail bits are zeroed *after* scrambling so the
        // trellis is driven to a known state at that point.
        let tail = payload_end..payload_end + TAIL_BITS;
        let mut scrambler = Scrambler::new(self.scrambler_seed);
        let mut encoder = ConvEncoder::new();
        let mut keep = self.rate.pattern().iter().cycle();
        let mut coded = vec![0u8; self.n_cbps];
        for s in 0..n_sym {
            let mut n = 0;
            for i in s * self.n_dbps..(s + 1) * self.n_dbps {
                let bit = if (SERVICE_BITS..payload_end).contains(&i) {
                    (payload[(i - SERVICE_BITS) / 8] >> ((i - SERVICE_BITS) % 8)) & 1
                } else {
                    0
                };
                let scrambled = bit ^ scrambler.next_bit();
                let pair = encoder.push_packed(if tail.contains(&i) { 0 } else { scrambled });
                for coded_bit in [pair >> 1, pair & 1] {
                    if keep.next() == Some(&true) {
                        coded[n] = coded_bit;
                        n += 1;
                    }
                }
            }
            debug_assert_eq!(n, self.n_cbps);
            symbol(s, &coded);
        }
    }

    /// Decodes an `n_sym`-symbol DATA field carrying a `length`-byte
    /// payload. `symbol(s, llrs)` writes symbol `s`'s `N_CBPS`
    /// deinterleaved LLRs; they are depunctured straight into the Viterbi
    /// window (punctured positions keep their zero-LLR erasure), and the
    /// whole field is then decoded, descrambled and packed.
    ///
    /// # Errors
    ///
    /// [`WlanError::LengthMismatch`] when `n_sym` symbols cannot hold the
    /// payload.
    pub fn decode(
        &self,
        length: usize,
        n_sym: usize,
        mut symbol: impl FnMut(usize, &mut [f64]),
    ) -> Result<Vec<u8>, WlanError> {
        let total_bits = n_sym * self.n_dbps;
        let mut mother = vec![0.0; 2 * total_bits];
        let mut llrs = vec![0.0; self.n_cbps];
        let mut keep = self.rate.pattern().iter().cycle();
        for (s, window) in mother.chunks_exact_mut(2 * self.n_dbps).enumerate() {
            symbol(s, &mut llrs);
            // The pattern keeps exactly `N_CBPS` slots of the window, and
            // the zip walks the whole window, so the phase advances by the
            // window's length.
            let kept = window
                .iter_mut()
                .zip(&mut keep)
                .filter_map(|(slot, &k)| k.then_some(slot));
            for (slot, &llr) in kept.zip(&llrs) {
                *slot = llr;
            }
        }
        let scrambled = ViterbiDecoder::new().decode_soft_unterminated(&mother, total_bits)?;
        let payload_bits = scrambled
            .get(SERVICE_BITS..SERVICE_BITS + 8 * length)
            .ok_or(WlanError::LengthMismatch {
                expected: SERVICE_BITS + 8 * length,
                got: total_bits,
            })?;
        // Descramble from the start of SERVICE, keeping only the payload.
        let mut scrambler = Scrambler::new(self.scrambler_seed);
        for _ in 0..SERVICE_BITS {
            scrambler.next_bit();
        }
        let mut payload = vec![0u8; length];
        for (i, &b) in payload_bits.iter().enumerate() {
            payload[i / 8] |= (b ^ scrambler.next_bit()) << (i % 8);
        }
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;
    use crate::puncture::{depuncture, puncture};

    /// The frame-at-a-time chain: every stage over the whole field.
    fn reference_encode(codec: &DataCodec, payload: &[u8], n_sym: usize) -> Vec<u8> {
        let mut data = vec![0u8; SERVICE_BITS];
        data.extend(bits::bytes_to_bits(payload));
        let tail_start = data.len();
        data.resize(n_sym * codec.n_dbps, 0);
        let mut scrambled = Scrambler::new(codec.scrambler_seed).scramble(&data);
        for b in scrambled.iter_mut().skip(tail_start).take(TAIL_BITS) {
            *b = 0;
        }
        puncture(&ConvEncoder::new().encode(&scrambled), codec.rate)
    }

    #[test]
    fn per_symbol_encode_matches_frame_at_a_time() {
        let payload: Vec<u8> = (0..77).map(|i| (i * 37 + 5) as u8).collect();
        for rate in CodeRate::all() {
            // 802.11a, HT-20 and a four-stream HT symbol.
            for n_cbps in [48usize * 6, 52 * 4, 4 * 48 * 2] {
                let (num, den) = rate.as_fraction();
                if n_cbps * num % den != 0 {
                    continue;
                }
                let codec = DataCodec::new(rate, n_cbps, 0x5D);
                let n_sym = codec.num_symbols(payload.len()) + 1;
                let mut coded = Vec::new();
                codec.encode(&payload, n_sym, |s, bits| {
                    assert_eq!(coded.len(), s * n_cbps);
                    coded.extend_from_slice(bits);
                });
                let want = reference_encode(&codec, &payload, n_sym);
                assert_eq!(coded, want, "{rate} {n_cbps}");
            }
        }
    }

    #[test]
    fn per_symbol_decode_matches_frame_at_a_time() {
        let payload: Vec<u8> = (0..40).map(|i| (i * 11 + 3) as u8).collect();
        let codec = DataCodec::new(CodeRate::R3_4, 192, 0x2B);
        let n_sym = codec.num_symbols(payload.len());
        let coded = reference_encode(&codec, &payload, n_sym);
        // Soft values with varied magnitudes and a few flipped signs.
        let llrs: Vec<f64> = coded
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let mag = 0.25 + (i % 7) as f64 * 0.5;
                let sign = if (b == 0) != (i % 53 == 0) { 1.0 } else { -1.0 };
                sign * mag
            })
            .collect();
        let total_bits = n_sym * codec.n_dbps;
        let mother = depuncture(&llrs, codec.rate, 2 * total_bits);
        let scrambled = ViterbiDecoder::new()
            .decode_soft_unterminated(&mother, total_bits)
            .unwrap();
        let descrambled = Scrambler::new(0x2B).scramble(&scrambled);
        let want = bits::bits_to_bytes(&descrambled[16..16 + 8 * payload.len()]);
        let got = codec
            .decode(payload.len(), n_sym, |s, out| {
                out.copy_from_slice(&llrs[s * 192..(s + 1) * 192]);
            })
            .unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn too_few_symbols_is_a_typed_error() {
        let codec = DataCodec::new(CodeRate::R1_2, 48, 0x5D);
        let err = codec.decode(100, 2, |_, llrs| llrs.fill(1.0)).unwrap_err();
        assert!(matches!(err, WlanError::LengthMismatch { .. }), "{err:?}");
    }
}
