//! The frame-level 802.11a transmit/receive chain.
//!
//! A transmitted frame is `STF ‖ LTF ‖ SIGNAL ‖ DATA…`:
//!
//! 1. the short training field (160 samples, sync/AGC),
//! 2. the long training field (160 samples, channel estimation),
//! 3. one BPSK rate-1/2 SIGNAL symbol carrying RATE and LENGTH,
//! 4. `N_SYM` data symbols carrying
//!    `SERVICE(16) ‖ payload ‖ TAIL(6) ‖ PAD`, scrambled, convolutionally
//!    encoded, punctured, interleaved and QAM-mapped.
//!
//! The receiver estimates the channel from the LTF, decodes SIGNAL to learn
//! rate and length, then equalizes and soft-decodes the data field.

use std::sync::OnceLock;

use crate::params::{Modulation, OfdmRate, N_DATA, N_SYM_SAMPLES};
use crate::preamble;
use crate::qam::{self, Constellation};
use crate::symbol::{assemble_symbol_into, Equalizer};
use wlan_coding::codec::DataCodec;
use wlan_coding::interleaver::Interleaver;
use wlan_coding::{ConvEncoder, ViterbiDecoder};
use wlan_math::Complex;

/// Errors the receive chain can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxError {
    /// The sample stream is shorter than the advertised frame.
    TooShort,
    /// The SIGNAL field failed its parity check.
    SignalParity,
    /// The SIGNAL RATE bits decode to no known rate.
    UnknownRate,
    /// SIGNAL decoded to a different rate than this PHY is configured for.
    RateMismatch,
}

impl std::fmt::Display for RxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RxError::TooShort => write!(f, "sample stream shorter than frame"),
            RxError::SignalParity => write!(f, "SIGNAL field parity check failed"),
            RxError::UnknownRate => write!(f, "SIGNAL rate bits invalid"),
            RxError::RateMismatch => write!(f, "SIGNAL rate differs from configured rate"),
        }
    }
}

impl std::error::Error for RxError {}

/// A complete 802.11a OFDM PHY at a fixed rate.
///
/// # Examples
///
/// ```
/// use wlan_ofdm::{OfdmPhy, OfdmRate};
///
/// let phy = OfdmPhy::new(OfdmRate::R24);
/// let frame = phy.transmit(b"data");
/// assert_eq!(phy.receive(&frame).unwrap(), b"data");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfdmPhy {
    rate: OfdmRate,
    scrambler_seed: u8,
}

/// Number of preamble samples (STF + LTF).
pub const PREAMBLE_SAMPLES: usize = 320;
/// Sample offset of the SIGNAL symbol.
pub const SIGNAL_OFFSET: usize = PREAMBLE_SAMPLES;
/// Sample offset of the first data symbol.
pub const DATA_OFFSET: usize = PREAMBLE_SAMPLES + N_SYM_SAMPLES;
/// Largest payload in bytes: the SIGNAL field's LENGTH is 12 bits.
pub const MAX_PAYLOAD: usize = 4095;
/// Most coded bits one data symbol carries (64-QAM: 48 × 6).
const MAX_CBPS: usize = N_DATA * 6;

impl OfdmPhy {
    /// Creates a PHY at the given rate (scrambler seed 0x5D, the standard's
    /// example value).
    pub fn new(rate: OfdmRate) -> Self {
        OfdmPhy {
            rate,
            scrambler_seed: 0x5D,
        }
    }

    /// The configured rate.
    pub fn rate(&self) -> OfdmRate {
        self.rate
    }

    /// Number of data OFDM symbols needed for a payload of `len` bytes.
    pub fn num_data_symbols(&self, len: usize) -> usize {
        self.codec().num_symbols(len)
    }

    /// Total frame length in samples.
    pub fn frame_samples(&self, len: usize) -> usize {
        DATA_OFFSET + self.num_data_symbols(len) * N_SYM_SAMPLES
    }

    /// Frame duration in microseconds (20 MHz sampling).
    pub fn frame_duration_us(&self, len: usize) -> f64 {
        self.frame_samples(len) as f64 / 20.0
    }

    /// Encodes and modulates a payload into a complete baseband frame.
    ///
    /// # Panics
    ///
    /// Panics if `payload.len() > MAX_PAYLOAD` (the 12-bit LENGTH limit).
    pub fn transmit(&self, payload: &[u8]) -> Vec<Complex> {
        assert!(payload.len() <= MAX_PAYLOAD, "LENGTH field is 12 bits");
        let mut samples = vec![Complex::ZERO; self.frame_samples(payload.len())];
        let (head, data) = samples.split_at_mut(DATA_OFFSET);
        let (preamble, signal) = head.split_at_mut(PREAMBLE_SAMPLES);
        preamble.copy_from_slice(preamble_samples());
        self.encode_signal(payload.len(), signal);
        self.encode_data(payload, data);
        samples
    }

    /// Decodes a received frame (flat or already-equalized channel is not
    /// assumed: the LTF inside `samples` provides the estimate).
    ///
    /// # Errors
    ///
    /// Returns an [`RxError`] when the stream is too short or the SIGNAL
    /// field is unusable. Residual payload bit errors are *not* detected
    /// here — that is the MAC FCS's job.
    pub fn receive(&self, samples: &[Complex]) -> Result<Vec<u8>, RxError> {
        if samples.len() < DATA_OFFSET {
            return Err(RxError::TooShort);
        }
        let eq = Equalizer::new(&preamble::estimate_channel(&samples[160..320]));
        let (rate, length) =
            self.decode_signal(&samples[SIGNAL_OFFSET..SIGNAL_OFFSET + N_SYM_SAMPLES], &eq)?;
        if rate != self.rate {
            return Err(RxError::RateMismatch);
        }
        let n_sym = self.num_data_symbols(length);
        if samples.len() < DATA_OFFSET + n_sym * N_SYM_SAMPLES {
            return Err(RxError::TooShort);
        }
        self.decode_data(&samples[DATA_OFFSET..], length, &eq)
    }

    /// Writes the SIGNAL symbol into its 80-sample slot.
    fn encode_signal(&self, length: usize, out: &mut [Complex]) {
        // RATE(4) ‖ R(1)=0 ‖ LENGTH(12, LSB first) ‖ PARITY(1).
        let mut info = [0u8; 18];
        info[..4].copy_from_slice(&self.rate.signal_bits());
        for i in 0..12 {
            info[5 + i] = ((length >> i) & 1) as u8;
        }
        info[17] = info[..17].iter().fold(0u8, |a, &b| a ^ b);
        // BPSK rate 1/2, one symbol: the 18 bits then six zero tail bits.
        let mut encoder = ConvEncoder::new();
        let mut coded = [0u8; N_DATA];
        for (i, pair) in coded.chunks_exact_mut(2).enumerate() {
            let packed = encoder.push_packed(info.get(i).copied().unwrap_or(0));
            pair[0] = packed >> 1;
            pair[1] = packed & 1;
        }
        let mut interleaved = [0u8; N_DATA];
        signal_interleaver().interleave_into(&coded, &mut interleaved);
        let mut data = [Complex::ZERO; N_DATA];
        Constellation::new(Modulation::Bpsk).map_into(&interleaved, &mut data);
        assemble_symbol_into(&data, 0, out);
    }

    fn decode_signal(
        &self,
        samples: &[Complex],
        eq: &Equalizer,
    ) -> Result<(OfdmRate, usize), RxError> {
        let mut data = [Complex::ZERO; N_DATA];
        eq.symbol_into(samples, 0, &mut data);
        let mut llrs = [0.0; N_DATA];
        for ((y, &csi), slot) in data.iter().zip(eq.csi()).zip(llrs.chunks_exact_mut(1)) {
            qam::demap_soft_into(Modulation::Bpsk, *y, csi, slot);
        }
        let mut deinterleaved = [0.0; N_DATA];
        signal_interleaver().deinterleave_soft_into(&llrs, &mut deinterleaved);
        let mut info = [0u8; 18];
        ViterbiDecoder::new()
            .decode_soft_into(&deinterleaved, &mut info)
            .map_err(|_| RxError::TooShort)?;
        let parity = info[..17].iter().fold(0u8, |a, &b| a ^ b);
        if parity != info[17] {
            return Err(RxError::SignalParity);
        }
        let rate = OfdmRate::from_signal_bits([info[0], info[1], info[2], info[3]])
            .ok_or(RxError::UnknownRate)?;
        let mut length = 0usize;
        for i in 0..12 {
            length |= (info[5 + i] as usize) << i;
        }
        Ok((rate, length))
    }

    /// The DATA field's BCC codec at this rate.
    fn codec(&self) -> DataCodec {
        DataCodec::new(
            self.rate.code_rate(),
            self.rate.coded_bits_per_symbol(),
            self.scrambler_seed,
        )
    }

    /// Streams the DATA field into `out` (whole 80-sample symbols), one
    /// OFDM symbol at a time: each symbol's coded bits from the codec are
    /// interleaved, mapped and IFFT'd into their slot through stack
    /// buffers.
    fn encode_data(&self, payload: &[u8], out: &mut [Complex]) {
        let ncbps = self.rate.coded_bits_per_symbol();
        let modulation = self.rate.modulation();
        let il = Interleaver::new(ncbps, modulation.bits_per_subcarrier());
        let constellation = Constellation::new(modulation);
        let mut interleaved = [0u8; MAX_CBPS];
        let mut data = [Complex::ZERO; N_DATA];
        let n_sym = out.len() / N_SYM_SAMPLES;
        self.codec().encode(payload, n_sym, |s, coded| {
            il.interleave_into(coded, &mut interleaved[..ncbps]);
            constellation.map_into(&interleaved[..ncbps], &mut data);
            let slot = &mut out[s * N_SYM_SAMPLES..(s + 1) * N_SYM_SAMPLES];
            assemble_symbol_into(&data, s + 1, slot);
        });
    }

    /// Decodes the DATA field one OFDM symbol at a time: each symbol is
    /// FFT'd, equalized, demapped and deinterleaved through stack buffers
    /// into the codec, which depunctures, decodes, descrambles and packs.
    fn decode_data(
        &self,
        samples: &[Complex],
        length: usize,
        eq: &Equalizer,
    ) -> Result<Vec<u8>, RxError> {
        let ncbps = self.rate.coded_bits_per_symbol();
        let modulation = self.rate.modulation();
        let bpsc = modulation.bits_per_subcarrier();
        let il = Interleaver::new(ncbps, bpsc);
        let mut data = [Complex::ZERO; N_DATA];
        let mut llrs = [0.0; MAX_CBPS];
        self.codec()
            .decode(length, self.num_data_symbols(length), |s, out| {
                let symbol = &samples[s * N_SYM_SAMPLES..(s + 1) * N_SYM_SAMPLES];
                eq.symbol_into(symbol, s + 1, &mut data);
                for ((y, &w), slot) in data.iter().zip(eq.csi()).zip(llrs.chunks_exact_mut(bpsc)) {
                    qam::demap_soft_into(modulation, *y, w, slot);
                }
                il.deinterleave_soft_into(&llrs[..ncbps], out);
            })
            .map_err(|_| RxError::TooShort)
    }
}

/// The SIGNAL symbol's interleaver (48 coded bits, BPSK), identical in
/// every frame: built once per process.
fn signal_interleaver() -> &'static Interleaver {
    static INTERLEAVER: OnceLock<Interleaver> = OnceLock::new();
    INTERLEAVER.get_or_init(|| Interleaver::new(N_DATA, 1))
}

/// The STF ‖ LTF preamble, identical in every frame: built once per
/// process.
fn preamble_samples() -> &'static [Complex] {
    static PREAMBLE: OnceLock<Vec<Complex>> = OnceLock::new();
    PREAMBLE.get_or_init(|| {
        let mut samples = preamble::short_training_field();
        samples.extend(preamble::long_training_field());
        samples
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::rng::{Rng, WlanRng};
    use wlan_channel::{Awgn, MultipathChannel, PowerDelayProfile};

    #[test]
    fn clean_roundtrip_all_rates() {
        let payload: Vec<u8> = (0..100).map(|i| (i * 7 + 13) as u8).collect();
        for rate in OfdmRate::all() {
            let phy = OfdmPhy::new(rate);
            let frame = phy.transmit(&payload);
            assert_eq!(frame.len(), phy.frame_samples(payload.len()), "{rate}");
            let out = phy.receive(&frame).unwrap_or_else(|e| panic!("{rate}: {e}"));
            assert_eq!(out, payload, "{rate}");
        }
    }

    #[test]
    fn empty_payload_roundtrips() {
        let phy = OfdmPhy::new(OfdmRate::R6);
        let frame = phy.transmit(&[]);
        assert_eq!(phy.receive(&frame).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn signal_field_carries_rate_and_length() {
        let phy = OfdmPhy::new(OfdmRate::R36);
        let frame = phy.transmit(&[0u8; 321]);
        let channel = preamble::estimate_channel(&frame[160..320]);
        let (rate, len) = phy
            .decode_signal(
                &frame[SIGNAL_OFFSET..SIGNAL_OFFSET + 80],
                &Equalizer::new(&channel),
            )
            .unwrap();
        assert_eq!(rate, OfdmRate::R36);
        assert_eq!(len, 321);
    }

    #[test]
    fn rate_mismatch_is_detected() {
        let tx = OfdmPhy::new(OfdmRate::R12);
        let rx = OfdmPhy::new(OfdmRate::R18);
        let frame = tx.transmit(b"abc");
        assert_eq!(rx.receive(&frame), Err(RxError::RateMismatch));
    }

    #[test]
    fn short_stream_is_rejected() {
        let phy = OfdmPhy::new(OfdmRate::R6);
        assert_eq!(phy.receive(&[Complex::ZERO; 100]), Err(RxError::TooShort));
        // Valid preamble+signal but truncated data.
        let frame = phy.transmit(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(
            phy.receive(&frame[..frame.len() - 80]),
            Err(RxError::TooShort)
        );
    }

    #[test]
    fn roundtrip_through_awgn_at_high_snr() {
        let mut rng = WlanRng::seed_from_u64(100);
        let payload: Vec<u8> = (0..200).map(|_| rng.gen()).collect();
        for rate in [OfdmRate::R6, OfdmRate::R24, OfdmRate::R54] {
            let phy = OfdmPhy::new(rate);
            let frame = phy.transmit(&payload);
            let noisy = Awgn::from_snr_db(30.0).apply(&frame, &mut rng);
            assert_eq!(phy.receive(&noisy).unwrap(), payload, "{rate}");
        }
    }

    #[test]
    fn robust_rate_survives_low_snr_where_fast_rate_fails() {
        let mut rng = WlanRng::seed_from_u64(101);
        let payload: Vec<u8> = (0..150).map(|_| rng.gen()).collect();
        let snr_db = 6.0;
        // 6 Mbps should be fine at 6 dB.
        let slow = OfdmPhy::new(OfdmRate::R6);
        let frame = slow.transmit(&payload);
        let noisy = Awgn::from_snr_db(snr_db).apply(&frame, &mut rng);
        assert_eq!(slow.receive(&noisy).unwrap(), payload, "6 Mbps at 6 dB");
        // 54 Mbps payload must be corrupted at 6 dB (needs ~25 dB).
        let fast = OfdmPhy::new(OfdmRate::R54);
        let frame = fast.transmit(&payload);
        let noisy = Awgn::from_snr_db(snr_db).apply(&frame, &mut rng);
        let corrupted = match fast.receive(&noisy) {
            Ok(out) => out != payload,
            Err(_) => true,
        };
        assert!(corrupted, "54 Mbps cannot survive 6 dB");
    }

    #[test]
    fn roundtrip_through_multipath() {
        let mut rng = WlanRng::seed_from_u64(102);
        let payload: Vec<u8> = (0..100).map(|_| rng.gen()).collect();
        let phy = OfdmPhy::new(OfdmRate::R12);
        let pdp = PowerDelayProfile::tgn_model('C');
        let mut successes = 0;
        let trials = 10;
        for _ in 0..trials {
            let ch = MultipathChannel::realize(&pdp, &mut rng);
            let frame = phy.transmit(&payload);
            let mut rx = ch.filter(&frame);
            rx.truncate(frame.len());
            let noisy = Awgn::from_snr_db(25.0).apply(&rx, &mut rng);
            if phy.receive(&noisy) == Ok(payload.clone()) {
                successes += 1;
            }
        }
        // Fading occasionally kills a realization, but most must decode.
        assert!(successes >= 8, "only {successes}/{trials} decoded");
    }

    #[test]
    fn frame_duration_scales_with_rate() {
        let len = 1500;
        let slow = OfdmPhy::new(OfdmRate::R6).frame_duration_us(len);
        let fast = OfdmPhy::new(OfdmRate::R54).frame_duration_us(len);
        // 1500 bytes: ~2 ms at 6 Mbps vs ~240 µs at 54 Mbps.
        assert!(slow > 8.0 * fast, "slow {slow} µs vs fast {fast} µs");
        // And the absolute number is sane: payload bits / rate + preamble.
        let expect_data_us = (16 + 8 * len + 6) as f64 / 54.0;
        assert!((fast - 24.0 - expect_data_us).abs() < 8.0, "fast {fast} µs");
    }

    #[test]
    #[should_panic(expected = "LENGTH field")]
    fn oversized_payload_rejected() {
        let _ = OfdmPhy::new(OfdmRate::R54).transmit(&vec![0u8; 4096]);
    }

    #[test]
    fn delay_spread_beyond_cyclic_prefix_breaks_the_link() {
        // The 0.8 µs CP absorbs ~16 samples of channel memory. A channel
        // stretching far past it leaves ~9 dB of irreducible ISI/ICI that
        // no equalizer can undo — fatal for the SINR-hungry high rates,
        // which is the design constraint that sized the CP.
        let mut rng = WlanRng::seed_from_u64(103);
        let payload: Vec<u8> = (0..120).map(|_| rng.gen()).collect();
        let phy = OfdmPhy::new(OfdmRate::R36);

        let run = |taps: Vec<Complex>, rng: &mut WlanRng| -> usize {
            let ch = MultipathChannel::from_taps(taps);
            let mut ok = 0;
            for _ in 0..8 {
                let frame = phy.transmit(&payload);
                let mut rx = ch.filter(&frame);
                rx.truncate(frame.len());
                let noisy = Awgn::from_snr_db(30.0).apply(&rx, rng);
                if phy.receive(&noisy) == Ok(payload.clone()) {
                    ok += 1;
                }
            }
            ok
        };

        // Within the CP: two strong taps 10 samples apart — fine.
        let short = run(
            vec![
                Complex::from_re(0.8),
                Complex::ZERO,
                Complex::ZERO,
                Complex::ZERO,
                Complex::ZERO,
                Complex::ZERO,
                Complex::ZERO,
                Complex::ZERO,
                Complex::ZERO,
                Complex::ZERO,
                Complex::from_re(0.6),
            ],
            &mut rng,
        );
        assert!(short >= 7, "within-CP channel decoded only {short}/8");

        // Far beyond the CP: an echo at 40 samples (2 µs) — broken.
        let mut taps = vec![Complex::ZERO; 41];
        taps[0] = Complex::from_re(0.8);
        taps[40] = Complex::from_re(0.6);
        let long = run(taps, &mut rng);
        assert!(long <= 2, "beyond-CP channel decoded {long}/8 frames");
    }
}
