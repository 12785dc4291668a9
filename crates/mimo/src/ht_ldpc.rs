//! LDPC-coded HT transmission — 802.11n's optional advanced coding.
//!
//! The paper: "Other likely enhancements in the 802.11n standard will also
//! increase the range of wireless networks, such as the use of LDPC codes."
//! This module swaps the BCC+interleaver of [`crate::ht::HtPhy`] for
//! LDPC codewords spanning whole OFDM symbols (LDPC needs no interleaver:
//! the sparse graph itself spreads bits across the constellation),
//! reproducing the architecture of the 802.11n LDPC option on the HT-20
//! numerology, whose symbol I/O it shares with [`crate::ht::HtPhy`].

use crate::ht::{ht_symbol_into, HtChannel, N_DATA_HT20};
use wlan_coding::ldpc::{LdpcCode, MinSum};
use wlan_coding::scrambler::Scrambler;
use wlan_coding::{bits, CodeRate};
use wlan_math::{Complex, WlanError};
use wlan_ofdm::params::{Modulation, N_SYM_SAMPLES};
use wlan_ofdm::qam::Constellation;
use wlan_ofdm::symbol::ht_training_symbol;

/// The normalized min-sum decoder every codeword runs.
const MIN_SUM: MinSum = MinSum::Normalized(0.8);

/// A single-stream HT-20 PHY with LDPC coding.
///
/// Codewords are sized near the 802.11n sweet spot (~1296 coded bits) by
/// spanning `L` consecutive OFDM symbols (`n = L·52·N_BPSC`, `k = n·rate`);
/// short graphs lose their waterfall, which is why real 802.11n also uses
/// 648/1296/1944-bit codewords across symbol boundaries. No interleaver
/// and no tail bits are needed.
///
/// # Examples
///
/// ```
/// use wlan_coding::CodeRate;
/// use wlan_mimo::ht_ldpc::HtLdpcPhy;
/// use wlan_ofdm::params::Modulation;
///
/// let phy = HtLdpcPhy::new(Modulation::Qam16, CodeRate::R1_2);
/// let frame = phy.transmit(b"ldpc coded");
/// assert_eq!(phy.receive(&frame, 10).unwrap(), b"ldpc coded");
/// ```
#[derive(Debug, Clone)]
pub struct HtLdpcPhy {
    modulation: Modulation,
    span: usize,
    code: LdpcCode,
    scrambler_seed: u8,
    max_iters: usize,
}

impl HtLdpcPhy {
    /// Creates the PHY. The LDPC codeword spans the fewest symbols `L`
    /// that reach 1296 coded bits (`n = L·52·N_BPSC`) and hold a whole
    /// number of information bits (`k = n·rate`).
    pub fn new(modulation: Modulation, rate: CodeRate) -> Self {
        let n_cbps = N_DATA_HT20 * modulation.bits_per_subcarrier();
        let (num, den) = rate.as_fraction();
        let mut span = 1296usize.div_ceil(n_cbps);
        while !(span * n_cbps * num).is_multiple_of(den) {
            span += 1;
        }
        let n = span * n_cbps;
        let k = n * num / den;
        HtLdpcPhy {
            modulation,
            span,
            code: LdpcCode::new(k, n - k, 0x11AC),
            scrambler_seed: 0x5D,
            max_iters: 40,
        }
    }

    /// A process-cached PHY for the (modulation, rate) pair.
    ///
    /// The LDPC parity structure is built by a seeded pseudo-random
    /// construction that costs far more than a frame trial, and it is fully
    /// deterministic — so sweeps must share one instance instead of
    /// rebuilding the graph per trial.
    pub fn cached(modulation: Modulation, rate: CodeRate) -> &'static HtLdpcPhy {
        type Cache = Vec<((Modulation, CodeRate), &'static HtLdpcPhy)>;
        static CACHE: std::sync::Mutex<Cache> = std::sync::Mutex::new(Vec::new());
        let mut guard = CACHE.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&(_, phy)) = guard.iter().find(|(key, _)| *key == (modulation, rate)) {
            return phy;
        }
        let phy: &'static HtLdpcPhy = Box::leak(Box::new(HtLdpcPhy::new(modulation, rate)));
        guard.push(((modulation, rate), phy));
        phy
    }

    /// Information bits per OFDM symbol, rounded down where a codeword's
    /// `k` does not split evenly over its symbols.
    pub fn data_bits_per_symbol(&self) -> usize {
        self.code.info_len() / self.span
    }

    /// PHY rate in Mbps (20 MHz, long GI): a codeword's information bits
    /// over its symbols' airtime.
    pub fn rate_mbps(&self) -> f64 {
        self.code.info_len() as f64 / (self.span as f64 * 4.0)
    }

    /// Data symbols for `len` payload bytes (16 service bits, no tail —
    /// LDPC needs none), rounded up to whole codewords.
    pub fn num_data_symbols(&self, len: usize) -> usize {
        let codewords = (16 + 8 * len).div_ceil(self.code.info_len());
        codewords * self.span
    }

    /// Frame length in samples.
    pub fn frame_samples(&self, len: usize) -> usize {
        (1 + self.num_data_symbols(len)) * N_SYM_SAMPLES
    }

    /// Encodes a payload (HT-LTF, then codewords of `L` symbols each).
    pub fn transmit(&self, payload: &[u8]) -> Vec<Complex> {
        let k_cw = self.code.info_len();
        let n_cbps = N_DATA_HT20 * self.modulation.bits_per_subcarrier();
        let mut frame = vec![Complex::ZERO; self.frame_samples(payload.len())];
        let (ltf, data) = frame.split_at_mut(N_SYM_SAMPLES);
        ltf.copy_from_slice(ht_training_symbol());

        let codewords = self.num_data_symbols(payload.len()) / self.span;
        let mut data_bits = vec![0u8; 16];
        data_bits.extend(bits::bytes_to_bits(payload));
        data_bits.resize(codewords * k_cw, 0);
        let scrambled = Scrambler::new(self.scrambler_seed).scramble(&data_bits);

        let constellation = Constellation::new(self.modulation);
        let blocks = data.chunks_exact_mut(self.span * N_SYM_SAMPLES);
        for (info, slots) in scrambled.chunks(k_cw).zip(blocks) {
            let codeword = self.code.encode(info);
            let slots = slots.chunks_exact_mut(N_SYM_SAMPLES);
            for (bits, slot) in codeword.chunks_exact(n_cbps).zip(slots) {
                ht_symbol_into(&constellation, bits, slot);
            }
        }
        frame
    }

    /// Decodes a frame; per-codeword min-sum BP with early termination,
    /// two codewords at a time ([`LdpcCode::decode_pair`]) and an odd last
    /// one alone. A truncated stream returns [`WlanError::FrameTruncated`]
    /// instead of panicking.
    pub fn receive(&self, samples: &[Complex], payload_len: usize) -> Result<Vec<u8>, WlanError> {
        let needed = self.frame_samples(payload_len);
        if samples.len() < needed {
            return Err(WlanError::FrameTruncated {
                needed,
                got: samples.len(),
            });
        }
        let channel = HtChannel::estimate(&samples[..N_SYM_SAMPLES]);
        let n = self.code.codeword_len();
        let n_cbps = N_DATA_HT20 * self.modulation.bits_per_subcarrier();
        let blocks = samples[N_SYM_SAMPLES..needed].chunks_exact(self.span * N_SYM_SAMPLES);
        let mut scrambled = Vec::with_capacity(blocks.len() * self.code.info_len());
        // Every codeword's LLRs in one buffer, so they can be decoded in
        // pairs.
        let mut llrs = vec![0.0f64; blocks.len() * n];
        for (block, codeword) in blocks.zip(llrs.chunks_exact_mut(n)) {
            let slots = block.chunks_exact(N_SYM_SAMPLES);
            for (slot, out) in slots.zip(codeword.chunks_exact_mut(n_cbps)) {
                channel.demap_symbol(slot, self.modulation, out);
            }
        }
        let mut pairs = llrs.chunks_exact(2 * n);
        for pair in pairs.by_ref() {
            let (a, b) = pair.split_at(n);
            let (a, b) = self.code.decode_pair(a, b, self.max_iters, MIN_SUM)?;
            scrambled.extend(a.info_bits);
            scrambled.extend(b.info_bits);
        }
        let last = pairs.remainder();
        if !last.is_empty() {
            scrambled.extend(self.code.decode(last, self.max_iters, MIN_SUM).info_bits);
        }
        let descrambled = Scrambler::new(self.scrambler_seed).scramble(&scrambled);
        Ok(bits::bits_to_bytes(&descrambled[16..16 + 8 * payload_len]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ht::HtPhy;
    use wlan_math::rng::{Rng, WlanRng};
    use wlan_channel::Awgn;

    #[test]
    fn rates_match_bcc_variant() {
        for (m, r) in [
            (Modulation::Qpsk, CodeRate::R1_2),
            (Modulation::Qam16, CodeRate::R3_4),
            (Modulation::Qam64, CodeRate::R5_6),
        ] {
            let ldpc = HtLdpcPhy::new(m, r);
            let bcc = HtPhy::new(m, r);
            assert!(
                (ldpc.rate_mbps() - bcc.rate_mbps()).abs() < 1e-9,
                "{m} r={r}: {} vs {}",
                ldpc.rate_mbps(),
                bcc.rate_mbps()
            );
        }
    }

    #[test]
    fn clean_roundtrip() {
        let mut rng = WlanRng::seed_from_u64(510);
        let payload: Vec<u8> = (0..100).map(|_| rng.gen()).collect();
        for (m, r) in [
            (Modulation::Qpsk, CodeRate::R1_2),
            (Modulation::Qam64, CodeRate::R5_6),
        ] {
            let phy = HtLdpcPhy::new(m, r);
            let frame = phy.transmit(&payload);
            assert_eq!(phy.receive(&frame, payload.len()).unwrap(), payload, "{m} r={r}");
        }
    }

    #[test]
    fn roundtrip_through_noise() {
        let mut rng = WlanRng::seed_from_u64(511);
        let payload: Vec<u8> = (0..120).map(|_| rng.gen()).collect();
        let phy = HtLdpcPhy::new(Modulation::Qpsk, CodeRate::R1_2);
        let mut ok = 0;
        for _ in 0..10 {
            let frame = phy.transmit(&payload);
            let noisy = Awgn::from_snr_db(8.0).apply(&frame, &mut rng);
            if phy.receive(&noisy, payload.len()).unwrap() == payload {
                ok += 1;
            }
        }
        assert!(ok >= 9, "LDPC QPSK r=1/2 decoded only {ok}/10 at 8 dB");
    }

    #[test]
    fn ldpc_beats_bcc_at_low_snr() {
        // The paper's range argument: at equal rate and SNR near the BCC
        // threshold, LDPC delivers more frames. The crossover for these short
        // codewords sits near 4.5 dB; at 4.75 dB the LDPC advantage is a
        // solid 4-8 frames per 100 for every seed probed, while by 5.5 dB
        // both coders saturate and the comparison degenerates into noise.
        let mut rng = WlanRng::seed_from_u64(512);
        let payload: Vec<u8> = (0..80).map(|_| rng.gen()).collect();
        let ldpc = HtLdpcPhy::new(Modulation::Qpsk, CodeRate::R1_2);
        let bcc = HtPhy::new(Modulation::Qpsk, CodeRate::R1_2);
        let snr_db = 4.75;
        let trials = 100;
        let mut ldpc_ok = 0;
        let mut bcc_ok = 0;
        for _ in 0..trials {
            let f = ldpc.transmit(&payload);
            let noisy = Awgn::from_snr_db(snr_db).apply(&f, &mut rng);
            if ldpc.receive(&noisy, payload.len()).unwrap() == payload {
                ldpc_ok += 1;
            }
            let f = bcc.transmit(&payload);
            let noisy = Awgn::from_snr_db(snr_db).apply(&f, &mut rng);
            if bcc.receive(&noisy, payload.len()).unwrap() == payload {
                bcc_ok += 1;
            }
        }
        assert!(
            ldpc_ok > bcc_ok,
            "LDPC ({ldpc_ok}/{trials}) should beat BCC ({bcc_ok}/{trials}) at {snr_db} dB"
        );
    }

    #[test]
    fn no_tail_bits_needed() {
        // LDPC frames spend every data bit on payload: a payload that just
        // fills one codeword needs exactly one codeword's worth of symbols.
        let phy = HtLdpcPhy::new(Modulation::Qam16, CodeRate::R1_2);
        let span = phy.span;
        let k_cw = phy.data_bits_per_symbol() * span;
        let fit = (k_cw - 16) / 8;
        assert_eq!(phy.num_data_symbols(fit), span);
        assert_eq!(phy.num_data_symbols(fit + 1), 2 * span);
    }

    #[test]
    fn try_receive_turns_truncation_into_typed_error() {
        let phy = HtLdpcPhy::new(Modulation::Qpsk, CodeRate::R1_2);
        let payload = b"ldpc erasure path";
        let frame = phy.transmit(payload);
        assert_eq!(
            phy.receive(&frame, payload.len()).unwrap(),
            payload.to_vec()
        );
        let err = phy.receive(&frame[..50], payload.len()).unwrap_err();
        assert!(matches!(err, WlanError::FrameTruncated { .. }), "{err:?}");
    }

    #[test]
    fn codewords_are_near_1296_bits() {
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let phy = HtLdpcPhy::new(m, CodeRate::R1_2);
            let n = phy.span * 52 * m.bits_per_subcarrier();
            assert!((1296..1296 + 52 * 6).contains(&n), "{m}: n = {n}");
        }
    }

    #[test]
    fn every_modulation_and_rate_builds_and_roundtrips() {
        // BPSK, QPSK and 16-QAM at 2/3 and 5/6 need a longer span than the
        // first one reaching 1296 bits for `k` to be whole; the other pairs
        // keep that first span.
        let payload: Vec<u8> = (0..150).map(|i| (i * 29 + 7) as u8).collect();
        let modulations = [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ];
        for m in modulations {
            for r in CodeRate::all() {
                let phy = HtLdpcPhy::new(m, r);
                let n_cbps = 52 * m.bits_per_subcarrier();
                let first = 1296usize.div_ceil(n_cbps);
                let (num, den) = r.as_fraction();
                if (first * n_cbps * num).is_multiple_of(den) {
                    assert_eq!(phy.span, first, "{m} r={r}");
                }
                let n = phy.span * n_cbps;
                assert_eq!(phy.code.info_len() * den, n * num, "{m} r={r}");
                let frame = phy.transmit(&payload);
                assert_eq!(frame.len(), phy.frame_samples(payload.len()));
                let decoded = phy.receive(&frame, payload.len()).unwrap();
                assert_eq!(decoded, payload, "{m} r={r}");
            }
        }
    }
}
