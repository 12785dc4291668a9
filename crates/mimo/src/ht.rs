//! The true 802.11n HT-20 waveform (single stream).
//!
//! Where [`crate::phy`] reuses the legacy 48-carrier symbol for simplicity,
//! this module implements the real HT 20 MHz numerology: **52 data
//! subcarriers** (occupying ±28 minus DC and the four pilots), the HT
//! interleaver (13 columns × 4·N_BPSC rows), and the extended HT-LTF.
//! Its per-symbol arithmetic therefore matches the MCS table *exactly* —
//! MCS 7 carries 52·6·(5/6) = 260 bits per 4 µs symbol = 65 Mbps — which
//! the tests assert against [`crate::mcs::HtMcs`]. The numerology's symbol
//! I/O here is shared with the LDPC-coded variant in [`crate::ht_ldpc`].

use wlan_coding::codec::DataCodec;
use wlan_coding::interleaver::Interleaver;
use wlan_coding::CodeRate;
use wlan_math::{Complex, WlanError};
use wlan_ofdm::params::{Modulation, N_FFT, N_SYM_SAMPLES};
use wlan_ofdm::preamble::ht_ltf_value;
use wlan_ofdm::qam::{self, Constellation};
use wlan_ofdm::symbol::{
    carrier_to_bin, fft_of_slot, ht_training_symbol, ht_tx_scale, ifft_into_slot,
};

/// HT-20 data subcarriers per symbol.
pub const N_DATA_HT20: usize = 52;
/// HT-20 pilot subcarrier indices.
pub const PILOT_CARRIERS_HT20: [i32; 4] = [-21, -7, 7, 21];

/// The 52 HT-20 data subcarrier indices in mapping order (−28…28, skipping
/// DC and pilots). Computed once per process; indexed once per symbol on
/// the hot paths.
fn ht20_data_carriers() -> &'static [i32; N_DATA_HT20] {
    static CACHE: std::sync::OnceLock<[i32; N_DATA_HT20]> = std::sync::OnceLock::new();
    CACHE.get_or_init(|| {
        let mut table = [0i32; N_DATA_HT20];
        let carriers = (-28..=28).filter(|&k| k != 0 && !PILOT_CARRIERS_HT20.contains(&k));
        for (slot, k) in table.iter_mut().zip(carriers) {
            *slot = k;
        }
        table
    })
}

/// Maps one symbol's coded bits onto the 52 data carriers, adds the static
/// unit pilots (no phase noise to track in this simulation) and writes the
/// symbol into its 80-sample slot.
pub(crate) fn ht_symbol_into(constellation: &Constellation, bits: &[u8], slot: &mut [Complex]) {
    let mut points = [Complex::ZERO; N_DATA_HT20];
    constellation.map_into(bits, &mut points);
    let mut bins = [Complex::ZERO; N_FFT];
    for (&k, &v) in ht20_data_carriers().iter().zip(&points) {
        bins[carrier_to_bin(k)] = v;
    }
    for &k in &PILOT_CARRIERS_HT20 {
        bins[carrier_to_bin(k)] = Complex::ONE;
    }
    ifft_into_slot(&mut bins, ht_tx_scale(), slot);
}

/// A frame's least-squares channel estimate from its single HT-LTF, per
/// data carrier.
pub(crate) struct HtChannel([Complex; N_DATA_HT20]);

impl HtChannel {
    /// Estimates the channel from the 80-sample HT-LTF slot.
    pub(crate) fn estimate(ltf: &[Complex]) -> Self {
        let train = fft_of_slot(ltf, ht_tx_scale());
        let mut h = [Complex::ZERO; N_DATA_HT20];
        for (h, &k) in h.iter_mut().zip(ht20_data_carriers()) {
            *h = train[carrier_to_bin(k)].scale(1.0 / ht_ltf_value(k));
        }
        HtChannel(h)
    }

    /// Equalizes one 80-sample data symbol (zero forcing; a carrier with
    /// `|H|² ≤ 1e-12` reads as zero) and writes each carrier's `N_BPSC`
    /// LLRs, weighted by `|H|²`, into `llrs` in carrier order.
    pub(crate) fn demap_symbol(&self, slot: &[Complex], modulation: Modulation, llrs: &mut [f64]) {
        let bins = fft_of_slot(slot, ht_tx_scale());
        let carriers = ht20_data_carriers().iter().zip(&self.0);
        let slots = llrs.chunks_exact_mut(modulation.bits_per_subcarrier());
        for ((&k, &h), out) in carriers.zip(slots) {
            let h2 = h.norm_sqr();
            let y = if h2 > 1e-12 {
                bins[carrier_to_bin(k)] / h
            } else {
                Complex::ZERO
            };
            qam::demap_soft_into(modulation, y, h2, out);
        }
    }
}

/// A single-stream HT-20 PHY (SISO; the multi-stream machinery lives in
/// [`crate::phy`]).
///
/// # Examples
///
/// ```
/// use wlan_coding::CodeRate;
/// use wlan_mimo::ht::HtPhy;
/// use wlan_ofdm::params::Modulation;
///
/// // MCS 7: 64-QAM rate 5/6 → 65 Mbps at 20 MHz, long GI.
/// let phy = HtPhy::new(Modulation::Qam64, CodeRate::R5_6);
/// assert!((phy.rate_mbps() - 65.0).abs() < 1e-9);
/// let frame = phy.transmit(b"ht numerology");
/// assert_eq!(phy.receive(&frame, 13).unwrap(), b"ht numerology");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HtPhy {
    modulation: Modulation,
    code_rate: CodeRate,
    scrambler_seed: u8,
}

impl HtPhy {
    /// Creates an HT-20 single-stream PHY.
    pub fn new(modulation: Modulation, code_rate: CodeRate) -> Self {
        HtPhy {
            modulation,
            code_rate,
            scrambler_seed: 0x5D,
        }
    }

    /// Coded bits per OFDM symbol (`N_CBPS = 52·N_BPSC`).
    pub fn coded_bits_per_symbol(&self) -> usize {
        N_DATA_HT20 * self.modulation.bits_per_subcarrier()
    }

    /// Data bits per OFDM symbol.
    pub fn data_bits_per_symbol(&self) -> usize {
        self.codec().data_bits_per_symbol()
    }

    /// PHY rate in Mbps (20 MHz, long GI) — matches the MCS table.
    pub fn rate_mbps(&self) -> f64 {
        self.data_bits_per_symbol() as f64 / 4.0
    }

    /// Data symbols for `len` payload bytes.
    pub fn num_data_symbols(&self, len: usize) -> usize {
        self.codec().num_symbols(len)
    }

    /// Frame length in samples (1 HT-LTF + data).
    pub fn frame_samples(&self, len: usize) -> usize {
        (1 + self.num_data_symbols(len)) * N_SYM_SAMPLES
    }

    fn codec(&self) -> DataCodec {
        let n_cbps = self.coded_bits_per_symbol();
        DataCodec::new(self.code_rate, n_cbps, self.scrambler_seed)
    }

    fn interleaver(&self) -> Interleaver {
        Interleaver::with_columns(
            self.coded_bits_per_symbol(),
            self.modulation.bits_per_subcarrier(),
            13,
        )
    }

    /// Encodes a payload into a baseband frame (HT-LTF then data symbols).
    pub fn transmit(&self, payload: &[u8]) -> Vec<Complex> {
        let mut frame = vec![Complex::ZERO; self.frame_samples(payload.len())];
        let (ltf, data) = frame.split_at_mut(N_SYM_SAMPLES);
        ltf.copy_from_slice(ht_training_symbol());
        let il = self.interleaver();
        let constellation = Constellation::new(self.modulation);
        let mut interleaved = vec![0u8; il.block_size()];
        let n_sym = self.num_data_symbols(payload.len());
        self.codec().encode(payload, n_sym, |s, coded| {
            il.interleave_into(coded, &mut interleaved);
            let slot = &mut data[s * N_SYM_SAMPLES..(s + 1) * N_SYM_SAMPLES];
            ht_symbol_into(&constellation, &interleaved, slot);
        });
        frame
    }

    /// Decodes a received frame (channel estimated from the HT-LTF). A
    /// truncated stream returns [`WlanError::FrameTruncated`] instead of
    /// panicking.
    pub fn receive(&self, samples: &[Complex], payload_len: usize) -> Result<Vec<u8>, WlanError> {
        let needed = self.frame_samples(payload_len);
        if samples.len() < needed {
            return Err(WlanError::FrameTruncated {
                needed,
                got: samples.len(),
            });
        }
        let (ltf, data) = samples.split_at(N_SYM_SAMPLES);
        let channel = HtChannel::estimate(ltf);
        let il = self.interleaver();
        let mut llrs = vec![0.0; il.block_size()];
        let n_sym = self.num_data_symbols(payload_len);
        self.codec().decode(payload_len, n_sym, |s, out| {
            let slot = &data[s * N_SYM_SAMPLES..(s + 1) * N_SYM_SAMPLES];
            channel.demap_symbol(slot, self.modulation, &mut llrs);
            il.deinterleave_soft_into(&llrs, out);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcs::{Bandwidth, GuardInterval, HtMcs};
    use wlan_math::rng::{Rng, WlanRng};
    use wlan_channel::{Awgn, MultipathChannel, PowerDelayProfile};
    use wlan_ofdm::preamble::ltf_value;

    #[test]
    fn carrier_plan_is_52_plus_4() {
        let data = ht20_data_carriers();
        assert_eq!(data.len(), 52);
        assert!(data.contains(&-28) && data.contains(&28));
        assert!(!data.contains(&0));
        for p in PILOT_CARRIERS_HT20 {
            assert!(!data.contains(&p));
        }
    }

    #[test]
    fn waveform_rates_match_mcs_table_exactly() {
        // The headline consistency check: the implemented chain's bits per
        // symbol reproduce every single-stream MCS rate at 20 MHz long GI.
        let combos = [
            (0u8, Modulation::Bpsk, CodeRate::R1_2),
            (1, Modulation::Qpsk, CodeRate::R1_2),
            (2, Modulation::Qpsk, CodeRate::R3_4),
            (3, Modulation::Qam16, CodeRate::R1_2),
            (4, Modulation::Qam16, CodeRate::R3_4),
            (5, Modulation::Qam64, CodeRate::R2_3),
            (6, Modulation::Qam64, CodeRate::R3_4),
            (7, Modulation::Qam64, CodeRate::R5_6),
        ];
        for (idx, m, r) in combos {
            let phy = HtPhy::new(m, r);
            let mcs = HtMcs::new(idx).expect("valid");
            let want = mcs.data_rate_mbps(Bandwidth::Mhz20, GuardInterval::Long);
            assert!(
                (phy.rate_mbps() - want).abs() < 1e-9,
                "MCS{idx}: waveform {} vs table {want}",
                phy.rate_mbps()
            );
        }
    }

    #[test]
    fn clean_roundtrip_all_mcs() {
        let mut rng = WlanRng::seed_from_u64(500);
        let payload: Vec<u8> = (0..90).map(|_| rng.gen()).collect();
        for (m, r) in [
            (Modulation::Bpsk, CodeRate::R1_2),
            (Modulation::Qam16, CodeRate::R3_4),
            (Modulation::Qam64, CodeRate::R5_6),
        ] {
            let phy = HtPhy::new(m, r);
            let frame = phy.transmit(&payload);
            assert_eq!(frame.len(), phy.frame_samples(payload.len()));
            assert_eq!(phy.receive(&frame, payload.len()).unwrap(), payload, "{m} r={r}");
        }
    }

    #[test]
    fn roundtrip_through_noise_and_multipath() {
        let mut rng = WlanRng::seed_from_u64(501);
        let payload: Vec<u8> = (0..80).map(|_| rng.gen()).collect();
        let phy = HtPhy::new(Modulation::Qpsk, CodeRate::R1_2);
        let pdp = PowerDelayProfile::tgn_model('B');
        let mut ok = 0;
        for _ in 0..10 {
            let ch = MultipathChannel::realize(&pdp, &mut rng);
            let frame = phy.transmit(&payload);
            let mut rx = ch.filter(&frame);
            rx.truncate(frame.len());
            let noisy = Awgn::from_snr_db(25.0).apply(&rx, &mut rng);
            if phy.receive(&noisy, payload.len()).unwrap() == payload {
                ok += 1;
            }
        }
        assert!(ok >= 8, "only {ok}/10 HT frames decoded at 25 dB");
    }

    #[test]
    fn ht_carries_more_than_legacy_at_same_modulation() {
        // 52 vs 48 carriers: 65 vs 54 Mbps at 64-QAM r=3/4... at r=5/6 the
        // HT chain reaches 65; at the common r=3/4 it reaches 58.5.
        let ht = HtPhy::new(Modulation::Qam64, CodeRate::R3_4);
        assert!((ht.rate_mbps() - 58.5).abs() < 1e-9);
        assert!(ht.rate_mbps() > 54.0, "HT must beat the legacy 54 Mbps");
    }

    #[test]
    fn ht_ltf_extension_values() {
        assert_eq!(ht_ltf_value(-28), 1.0);
        assert_eq!(ht_ltf_value(-27), 1.0);
        assert_eq!(ht_ltf_value(27), -1.0);
        assert_eq!(ht_ltf_value(28), -1.0);
        assert_eq!(ht_ltf_value(0), 0.0);
        assert_eq!(ht_ltf_value(-26), ltf_value(-26));
    }

    #[test]
    fn short_stream_rejected() {
        let phy = HtPhy::new(Modulation::Bpsk, CodeRate::R1_2);
        let err = phy.receive(&[Complex::ZERO; 100], 50).unwrap_err();
        assert!(matches!(err, WlanError::FrameTruncated { .. }), "{err:?}");
    }

    #[test]
    fn try_receive_turns_truncation_into_typed_error() {
        let phy = HtPhy::new(Modulation::Qpsk, CodeRate::R1_2);
        let payload = b"typed erasure";
        let frame = phy.transmit(payload);
        assert_eq!(
            phy.receive(&frame, payload.len()).unwrap(),
            payload.to_vec()
        );
        let err = phy
            .receive(&frame[..frame.len() / 3], payload.len())
            .unwrap_err();
        assert!(matches!(err, WlanError::FrameTruncated { .. }), "{err:?}");
    }
}
