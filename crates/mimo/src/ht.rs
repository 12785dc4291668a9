//! The true 802.11n HT-20 waveform (single stream).
//!
//! Where [`crate::phy`] reuses the legacy 48-carrier symbol for simplicity,
//! this module implements the real HT 20 MHz numerology: **52 data
//! subcarriers** (occupying ±28 minus DC and the four pilots), the HT
//! interleaver (13 columns × 4·N_BPSC rows), and the extended HT-LTF.
//! Its per-symbol arithmetic therefore matches the MCS table *exactly* —
//! MCS 7 carries 52·6·(5/6) = 260 bits per 4 µs symbol = 65 Mbps — which
//! the tests assert against [`crate::mcs::HtMcs`].

use wlan_coding::interleaver::HtInterleaver;
use wlan_coding::puncture::{depuncture, puncture};
use wlan_coding::scrambler::Scrambler;
use wlan_coding::{bits, CodeRate, ConvEncoder, ViterbiDecoder};
use wlan_math::{fft, Complex, WlanError};
use wlan_ofdm::params::{Modulation, N_CP, N_FFT, N_SYM_SAMPLES};
use wlan_ofdm::preamble::ltf_value;
use wlan_ofdm::qam;

/// HT-20 data subcarriers per symbol.
pub const N_DATA_HT20: usize = 52;
/// HT-20 pilot subcarrier indices.
pub const PILOT_CARRIERS_HT20: [i32; 4] = [-21, -7, 7, 21];

/// The 52 HT-20 data subcarrier indices in mapping order (−28…28, skipping
/// DC and pilots). Computed once per process; indexed once per symbol on
/// the hot paths.
pub fn ht20_data_carriers() -> &'static [i32; N_DATA_HT20] {
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

/// The HT-LTF value at subcarrier `k`: the legacy sequence extended with
/// `+1, +1` at −28, −27 and `−1, −1` at +27, +28 (802.11n equation 20-24).
pub fn ht_ltf_value(k: i32) -> f64 {
    match k {
        -28 | -27 => 1.0,
        27 | 28 => -1.0,
        _ => ltf_value(k),
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
/// assert_eq!(phy.try_receive(&frame, 13).unwrap(), b"ht numerology");
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
        let (n, d) = self.code_rate.as_fraction();
        self.coded_bits_per_symbol() * n / d
    }

    /// PHY rate in Mbps (20 MHz, long GI) — matches the MCS table.
    pub fn rate_mbps(&self) -> f64 {
        self.data_bits_per_symbol() as f64 / 4.0
    }

    /// Data symbols for `len` payload bytes.
    pub fn num_data_symbols(&self, len: usize) -> usize {
        (16 + 8 * len + 6).div_ceil(self.data_bits_per_symbol())
    }

    /// Frame length in samples (1 HT-LTF + data).
    pub fn frame_samples(&self, len: usize) -> usize {
        (1 + self.num_data_symbols(len)) * N_SYM_SAMPLES
    }

    fn interleaver(&self) -> HtInterleaver {
        HtInterleaver::new_20mhz(self.modulation.bits_per_subcarrier())
    }

    /// Encodes a payload into a baseband frame (HT-LTF then data symbols).
    pub fn transmit(&self, payload: &[u8]) -> Vec<Complex> {
        let n_sym = self.num_data_symbols(payload.len());
        let total_bits = n_sym * self.data_bits_per_symbol();

        let mut data_bits = vec![0u8; 16];
        data_bits.extend(bits::bytes_to_bits(payload));
        let tail_start = data_bits.len();
        data_bits.resize(total_bits, 0);
        let mut scrambled = Scrambler::new(self.scrambler_seed).scramble(&data_bits);
        for b in scrambled.iter_mut().skip(tail_start).take(6) {
            *b = 0;
        }
        let mut enc = ConvEncoder::new();
        let coded = puncture(&enc.encode(&scrambled), self.code_rate);
        let interleaved = self.interleaver().interleave_stream(&coded);
        let points = qam::map_stream(self.modulation, &interleaved);

        let mut out = Vec::with_capacity(self.frame_samples(payload.len()));
        out.extend(ht_training_symbol());
        for chunk in points.chunks(N_DATA_HT20) {
            out.extend(assemble_ht_symbol(chunk));
        }
        out
    }

    /// Decodes a received frame (channel estimated from the HT-LTF). A
    /// truncated stream returns [`WlanError::FrameTruncated`] instead of
    /// panicking.
    pub fn try_receive(
        &self,
        samples: &[Complex],
        payload_len: usize,
    ) -> Result<Vec<u8>, WlanError> {
        let needed = self.frame_samples(payload_len);
        if samples.len() < needed {
            return Err(WlanError::FrameTruncated {
                needed,
                got: samples.len(),
            });
        }

        // LS channel estimate from the single HT-LTF.
        let train = symbol_bins(&samples[..N_SYM_SAMPLES]);
        let carriers = ht20_data_carriers();
        let channel: Vec<Complex> = carriers
            .iter()
            .map(|&k| train[carrier_to_bin(k)].scale(1.0 / ht_ltf_value(k)))
            .collect();

        let n_sym = self.num_data_symbols(payload_len);
        let mut llrs = Vec::with_capacity(n_sym * self.coded_bits_per_symbol());
        for s in 0..n_sym {
            let off = (1 + s) * N_SYM_SAMPLES;
            let bins = symbol_bins(&samples[off..off + N_SYM_SAMPLES]);
            for (c, &k) in carriers.iter().enumerate() {
                let h = channel[c];
                let h2 = h.norm_sqr();
                let y = if h2 > 1e-12 {
                    bins[carrier_to_bin(k)] / h
                } else {
                    Complex::ZERO
                };
                llrs.extend(qam::demap_soft(self.modulation, y, h2));
            }
        }
        let deinterleaved = self.interleaver().try_deinterleave_stream_soft(&llrs)?;
        let total_bits = n_sym * self.data_bits_per_symbol();
        let mother = depuncture(&deinterleaved, self.code_rate, total_bits * 2);
        let scrambled = ViterbiDecoder::new().decode_soft_unterminated(&mother, total_bits)?;
        let descrambled = Scrambler::new(self.scrambler_seed).scramble(&scrambled);
        Ok(bits::bits_to_bytes(&descrambled[16..16 + 8 * payload_len]))
    }
}

/// HT time-domain scale: 56 occupied carriers.
fn ht_tx_scale() -> f64 {
    N_FFT as f64 / 56f64.sqrt()
}

fn carrier_to_bin(k: i32) -> usize {
    ((k + N_FFT as i32) % N_FFT as i32) as usize
}

fn ht_training_symbol() -> Vec<Complex> {
    let mut bins = vec![Complex::ZERO; N_FFT];
    for k in -28..=28i32 {
        let v = ht_ltf_value(k);
        if v != 0.0 {
            bins[carrier_to_bin(k)] = Complex::from_re(v);
        }
    }
    finish(bins)
}

fn assemble_ht_symbol(data: &[Complex]) -> Vec<Complex> {
    debug_assert_eq!(data.len(), N_DATA_HT20);
    let mut bins = vec![Complex::ZERO; N_FFT];
    for (i, &k) in ht20_data_carriers().iter().enumerate() {
        bins[carrier_to_bin(k)] = data[i];
    }
    // Static unit pilots (no phase noise to track in this simulation).
    for &k in &PILOT_CARRIERS_HT20 {
        bins[carrier_to_bin(k)] = Complex::ONE;
    }
    finish(bins)
}

fn finish(bins: Vec<Complex>) -> Vec<Complex> {
    let time = fft::ifft(&bins);
    let s = ht_tx_scale();
    let mut out = Vec::with_capacity(N_SYM_SAMPLES);
    out.extend(time[N_FFT - N_CP..].iter().map(|v| v.scale(s)));
    out.extend(time.iter().map(|v| v.scale(s)));
    out
}

fn symbol_bins(samples: &[Complex]) -> Vec<Complex> {
    let mut body: Vec<Complex> = samples[N_CP..N_CP + N_FFT]
        .iter()
        .map(|v| v.scale(1.0 / ht_tx_scale()))
        .collect();
    // Planned, in-place: the 64-point length is structural, so the cached
    // plan always applies.
    fft::fft_in_place(&mut body);
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcs::{Bandwidth, GuardInterval, HtMcs};
    use wlan_math::rng::{Rng, WlanRng};
    use wlan_channel::{Awgn, MultipathChannel, PowerDelayProfile};

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
            assert_eq!(phy.try_receive(&frame, payload.len()).unwrap(), payload, "{m} r={r}");
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
            if phy.try_receive(&noisy, payload.len()).unwrap() == payload {
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
        let err = phy.try_receive(&[Complex::ZERO; 100], 50).unwrap_err();
        assert!(matches!(err, WlanError::FrameTruncated { .. }), "{err:?}");
    }

    #[test]
    fn try_receive_turns_truncation_into_typed_error() {
        let phy = HtPhy::new(Modulation::Qpsk, CodeRate::R1_2);
        let payload = b"typed erasure";
        let frame = phy.transmit(payload);
        assert_eq!(
            phy.try_receive(&frame, payload.len()).unwrap(),
            payload.to_vec()
        );
        let err = phy
            .try_receive(&frame[..frame.len() / 3], payload.len())
            .unwrap_err();
        assert!(matches!(err, WlanError::FrameTruncated { .. }), "{err:?}");
    }
}
