//! A spatially-multiplexed MIMO-OFDM frame chain (802.11n HT style).
//!
//! The transmit side runs one encoder over the whole frame, parses the coded
//! bits round-robin onto `N_ss` spatial streams, and sends each stream
//! through the familiar interleave → QAM → IFFT pipeline on its own antenna.
//! Training uses HT-LTF-like orthogonal covers (the `P` matrix) so the
//! receiver can estimate the full per-subcarrier channel matrix, after which
//! MMSE (or ZF) detection separates the streams.
//!
//! Transmit power is normalized: the per-antenna streams are scaled by
//! `1/√N_ss` so a 4-stream transmission radiates the same total power as a
//! SISO one — the fair comparison the range experiment (E5) needs.

use crate::detect::{Detector, LinearDetector};
use wlan_coding::interleaver::Interleaver;
use wlan_coding::puncture::{depuncture, puncture};
use wlan_coding::scrambler::Scrambler;
use wlan_coding::{bits, CodeRate, ConvEncoder, ViterbiDecoder};
use wlan_ofdm::params::{data_carriers, Modulation, N_CP, N_FFT, N_SYM_SAMPLES};
use wlan_ofdm::preamble::ltf_value;
use wlan_ofdm::qam;
use wlan_ofdm::symbol::{assemble_symbol, tx_scale};
use wlan_math::rng::Rng;
use wlan_math::{fft, CMatrix, Complex, WlanError};

/// The 802.11n HT-LTF orthogonal cover matrix `P` (rows = streams,
/// columns = training symbols).
pub const P_HTLTF: [[f64; 4]; 4] = [
    [1.0, -1.0, 1.0, 1.0],
    [1.0, 1.0, -1.0, 1.0],
    [1.0, 1.0, 1.0, -1.0],
    [-1.0, 1.0, 1.0, 1.0],
];

/// Configuration of the MIMO-OFDM link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MimoOfdmConfig {
    /// Number of spatial streams (equals transmit antennas here), 1–4.
    pub n_streams: usize,
    /// Number of receive antennas (≥ `n_streams` for linear detection).
    pub n_rx: usize,
    /// Per-subcarrier modulation.
    pub modulation: Modulation,
    /// Convolutional code rate.
    pub code_rate: CodeRate,
    /// Stream-separation detector.
    pub detector: Detector,
}

/// A complete spatial-multiplexing MIMO-OFDM PHY.
///
/// # Examples
///
/// ```
/// use wlan_coding::CodeRate;
/// use wlan_mimo::detect::Detector;
/// use wlan_mimo::phy::{MimoOfdmConfig, MimoOfdmPhy};
/// use wlan_ofdm::params::Modulation;
///
/// let phy = MimoOfdmPhy::new(MimoOfdmConfig {
///     n_streams: 2,
///     n_rx: 2,
///     modulation: Modulation::Qpsk,
///     code_rate: CodeRate::R1_2,
///     detector: Detector::Mmse,
/// });
/// assert_eq!(phy.data_bits_per_symbol(), 96);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MimoOfdmPhy {
    cfg: MimoOfdmConfig,
    scrambler_seed: u8,
}

impl MimoOfdmPhy {
    /// Creates a PHY.
    ///
    /// # Panics
    ///
    /// Panics if `n_streams` is not 1–4 or `n_rx` is zero.
    pub fn new(cfg: MimoOfdmConfig) -> Self {
        assert!(
            (1..=4).contains(&cfg.n_streams),
            "stream count must be 1-4"
        );
        assert!(cfg.n_rx >= 1, "need at least one receive antenna");
        MimoOfdmPhy {
            cfg,
            scrambler_seed: 0x5D,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MimoOfdmConfig {
        &self.cfg
    }

    /// Number of HT-LTF training symbols (equals streams, except 3 → 4).
    pub fn num_training_symbols(&self) -> usize {
        match self.cfg.n_streams {
            3 => 4,
            n => n,
        }
    }

    /// Coded bits per OFDM symbol per stream.
    pub fn coded_bits_per_symbol_per_stream(&self) -> usize {
        48 * self.cfg.modulation.bits_per_subcarrier()
    }

    /// Data bits per OFDM symbol across all streams.
    pub fn data_bits_per_symbol(&self) -> usize {
        let (n, d) = self.cfg.code_rate.as_fraction();
        self.coded_bits_per_symbol_per_stream() * self.cfg.n_streams * n / d
    }

    /// Number of data symbols for a payload of `len` bytes.
    pub fn num_data_symbols(&self, len: usize) -> usize {
        (16 + 8 * len + 6).div_ceil(self.data_bits_per_symbol())
    }

    /// Per-antenna samples for a payload of `len` bytes.
    pub fn frame_samples(&self, len: usize) -> usize {
        (self.num_training_symbols() + self.num_data_symbols(len)) * N_SYM_SAMPLES
    }

    /// PHY data rate in Mbps (20 MHz, long GI).
    pub fn rate_mbps(&self) -> f64 {
        self.data_bits_per_symbol() as f64 / 4.0
    }

    /// Encodes a payload into `n_streams` per-antenna sample streams
    /// (training followed by data symbols).
    pub fn transmit(&self, payload: &[u8]) -> Vec<Vec<Complex>> {
        let n_ss = self.cfg.n_streams;
        let power_scale = 1.0 / (n_ss as f64).sqrt();
        let mut antennas: Vec<Vec<Complex>> =
            vec![Vec::with_capacity(self.frame_samples(payload.len())); n_ss];

        // HT-LTF training with orthogonal P covers. Each antenna's stream
        // is independent, so filling antenna-by-antenna preserves the
        // symbol order m = 0, 1, … within every stream.
        let ltf_sym = ltf_frequency_symbol();
        let n_ltf = self.num_training_symbols();
        for (i, ant) in antennas.iter_mut().enumerate() {
            for &p in P_HTLTF[i].iter().take(n_ltf) {
                let scale = p * power_scale;
                ant.extend(ltf_sym.iter().map(|&s| s.scale(scale)));
            }
        }

        // One encoder across the frame, then round-robin stream parsing.
        let per_stream_bits = self.per_stream_coded_bits(payload.len());
        let streams = self.encode_streams(payload);
        let il = Interleaver::new(
            self.coded_bits_per_symbol_per_stream(),
            self.cfg.modulation.bits_per_subcarrier(),
        );
        let n_sym = self.num_data_symbols(payload.len());
        for (i, stream_bits) in streams.iter().enumerate() {
            debug_assert_eq!(stream_bits.len(), per_stream_bits);
            let interleaved = il.interleave_stream(stream_bits);
            let points = qam::map_stream(self.cfg.modulation, &interleaved);
            for s in 0..n_sym {
                let chunk = &points[s * 48..(s + 1) * 48];
                let sym = assemble_symbol(chunk, s + 1);
                antennas[i].extend(sym.iter().map(|&v| v.scale(power_scale)));
            }
        }
        antennas
    }

    /// Decodes per-antenna receive streams. `n0` is the noise variance per
    /// receive antenna per sample (genie-aided, as in link simulation
    /// practice); `payload_len` the expected payload size in bytes.
    ///
    /// Malformed input — a wrong antenna count or truncated sample
    /// streams — returns a typed [`WlanError`] instead of panicking, so
    /// injected faults become counted erasures.
    ///
    /// The receive pipeline is batched: every symbol of every antenna is
    /// FFT'd in one planned pass, and each subcarrier's linear detector is
    /// factored once ([`LinearDetector::prepare`]) and applied
    /// structure-of-arrays across all data symbols — identical arithmetic
    /// to per-symbol detection, hoisted out of the hot loop.
    pub fn try_receive(
        &self,
        rx: &[Vec<Complex>],
        n0: f64,
        payload_len: usize,
    ) -> Result<Vec<u8>, WlanError> {
        let n_rx = self.cfg.n_rx;
        let n_ss = self.cfg.n_streams;
        if rx.len() != n_rx {
            return Err(WlanError::LengthMismatch {
                expected: n_rx,
                got: rx.len(),
            });
        }
        let needed = self.frame_samples(payload_len);
        for r in rx {
            if r.len() < needed {
                return Err(WlanError::FrameTruncated {
                    needed,
                    got: r.len(),
                });
            }
        }

        // Batch-FFT every symbol of every antenna in one planned pass:
        // bins[(m·n_rx + r)·64 ..][..64] = spectrum of symbol m, antenna r.
        let n_ltf = self.num_training_symbols();
        let n_sym = self.num_data_symbols(payload_len);
        let total_syms = n_ltf + n_sym;
        let plan = fft::cached_plan(N_FFT);
        let inv_scale = 1.0 / tx_scale();
        let mut bins = Vec::with_capacity(total_syms * n_rx * N_FFT);
        for m in 0..total_syms {
            let offset = m * N_SYM_SAMPLES + N_CP;
            for r in rx {
                bins.extend(r[offset..offset + N_FFT].iter().map(|s| s.scale(inv_scale)));
            }
        }
        plan.try_fft_batch(&mut bins)?;
        let bin_row = |m: usize, r: usize| &bins[(m * n_rx + r) * N_FFT..][..N_FFT];

        // h[k] is the n_rx × n_ss matrix at data carrier k (includes the
        // 1/√N_ss transmit scaling, which is what detection should see),
        // estimated from the orthogonal training covers.
        let carriers = data_carriers();
        let channel: Vec<CMatrix> = carriers
            .iter()
            .map(|&k| {
                let bin = carrier_to_bin(k);
                let l = ltf_value(k);
                let mut h = CMatrix::zeros(n_rx, n_ss);
                for r in 0..n_rx {
                    for (i, p_row) in P_HTLTF.iter().enumerate().take(n_ss) {
                        let mut acc = Complex::ZERO;
                        for (m, &p) in p_row.iter().enumerate().take(n_ltf) {
                            acc += bin_row(m, r)[bin].scale(p);
                        }
                        h.set(r, i, acc.scale(1.0 / (n_ltf as f64 * l)));
                    }
                }
                h
            })
            .collect();

        // Structure-of-arrays detection: factor each subcarrier's detector
        // once, then run it down the frame's symbols. LLR planes are
        // preallocated at zero, so any failed carrier or symbol naturally
        // leaves erasures behind.
        let il = Interleaver::new(
            self.coded_bits_per_symbol_per_stream(),
            self.cfg.modulation.bits_per_subcarrier(),
        );
        // Effective noise after the tx_scale normalization.
        let n0_eff = (n0 / (tx_scale() * tx_scale())).max(1e-12);
        let bpsc = self.cfg.modulation.bits_per_subcarrier();
        let mut stream_llrs: Vec<Vec<f64>> = vec![vec![0.0; n_sym * 48 * bpsc]; n_ss];
        let mut ys: Vec<Complex> = Vec::with_capacity(n_sym * n_rx);
        let mut symbols: Vec<Complex> = Vec::with_capacity(n_sym * n_ss);
        let mut sym_ok: Vec<bool> = Vec::with_capacity(n_sym);
        for (c, &k) in carriers.iter().enumerate() {
            // A carrier whose detector cannot be factored (rank-deficient or
            // non-finite channel) stays all-erasures, exactly as per-symbol
            // detection errors did.
            let Ok(mut det) = LinearDetector::prepare(self.cfg.detector, &channel[c], n0_eff)
            else {
                continue;
            };
            let bin = carrier_to_bin(k);
            ys.clear();
            for s in 0..n_sym {
                for r in 0..n_rx {
                    ys.push(bin_row(n_ltf + s, r)[bin]);
                }
            }
            symbols.clear();
            sym_ok.clear();
            det.detect_batch(&ys, &mut symbols, &mut sym_ok)?;
            for (s, &ok) in sym_ok.iter().enumerate() {
                if !ok {
                    continue; // non-finite observation → erasures
                }
                for (i, llrs) in stream_llrs.iter_mut().enumerate() {
                    let slot = (s * 48 + c) * bpsc;
                    qam::demap_soft_into(
                        self.cfg.modulation,
                        symbols[s * n_ss + i],
                        det.sinr()[i],
                        &mut llrs[slot..slot + bpsc],
                    );
                }
            }
        }

        // Deinterleave per stream, merge (inverse parsing), decode.
        let merged_len = n_sym * self.coded_bits_per_symbol_per_stream() * n_ss;
        let deinterleaved: Vec<Vec<f64>> = stream_llrs
            .iter()
            .map(|l| il.deinterleave_stream_soft(l))
            .collect();
        let coded = self.merge_streams_soft(&deinterleaved, merged_len);
        let total_bits = n_sym * self.data_bits_per_symbol();
        let mother = depuncture(&coded, self.cfg.code_rate, total_bits * 2);
        let scrambled = ViterbiDecoder::new().decode_soft_unterminated(&mother, total_bits)?;
        let descrambled = Scrambler::new(self.scrambler_seed).scramble(&scrambled);
        Ok(bits::bits_to_bytes(&descrambled[16..16 + 8 * payload_len]))
    }

    fn per_stream_coded_bits(&self, payload_len: usize) -> usize {
        self.num_data_symbols(payload_len) * self.coded_bits_per_symbol_per_stream()
    }

    /// Scramble → encode → puncture → parse into per-stream bit vectors.
    fn encode_streams(&self, payload: &[u8]) -> Vec<Vec<u8>> {
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
        let coded = puncture(&enc.encode(&scrambled), self.cfg.code_rate);

        // 802.11n stream parser: s = max(N_BPSC/2, 1) bits round-robin.
        let s = (self.cfg.modulation.bits_per_subcarrier() / 2).max(1);
        let n_ss = self.cfg.n_streams;
        let mut streams: Vec<Vec<u8>> =
            vec![Vec::with_capacity(coded.len() / n_ss); n_ss];
        for (block_idx, block) in coded.chunks(s).enumerate() {
            streams[block_idx % n_ss].extend_from_slice(block);
        }
        streams
    }

    /// Inverse of the stream parser for soft values.
    fn merge_streams_soft(&self, streams: &[Vec<f64>], total: usize) -> Vec<f64> {
        let s = (self.cfg.modulation.bits_per_subcarrier() / 2).max(1);
        let n_ss = self.cfg.n_streams;
        let mut out = Vec::with_capacity(total);
        let mut cursors = vec![0usize; n_ss];
        let mut stream_idx = 0usize;
        while out.len() < total {
            let c = cursors[stream_idx];
            out.extend_from_slice(&streams[stream_idx][c..c + s]);
            cursors[stream_idx] += s;
            stream_idx = (stream_idx + 1) % n_ss;
        }
        out
    }
}

/// One 80-sample training symbol (CP + IFFT of the LTF sequence at data
/// scale).
fn ltf_frequency_symbol() -> Vec<Complex> {
    let mut bins = vec![Complex::ZERO; N_FFT];
    for k in -26..=26i32 {
        let v = ltf_value(k);
        if v != 0.0 {
            bins[carrier_to_bin(k)] = Complex::from_re(v);
        }
    }
    let time = fft::ifft(&bins);
    let scale = tx_scale();
    let mut out = Vec::with_capacity(N_SYM_SAMPLES);
    out.extend(time[N_FFT - N_CP..].iter().map(|s| s.scale(scale)));
    out.extend(time.iter().map(|s| s.scale(scale)));
    out
}

fn carrier_to_bin(k: i32) -> usize {
    ((k + N_FFT as i32) % N_FFT as i32) as usize
}

/// Propagates per-antenna transmit streams through a frequency-selective
/// MIMO channel and adds AWGN of variance `n0` per receive antenna.
///
/// # Panics
///
/// Panics if `tx.len() != channel.n_tx()`.
pub fn propagate(
    channel: &wlan_channel::mimo::MimoMultipathChannel,
    tx: &[Vec<Complex>],
    n0: f64,
    rng: &mut impl Rng,
) -> Vec<Vec<Complex>> {
    assert_eq!(tx.len(), channel.n_tx(), "transmit antenna count mismatch");
    let len = tx.iter().map(|t| t.len()).max().unwrap_or(0);
    let mut rx = Vec::with_capacity(channel.n_rx());
    for r in 0..channel.n_rx() {
        let mut acc = vec![Complex::ZERO; len];
        for (t, stream) in tx.iter().enumerate() {
            let filtered = channel.pair(r, t).filter(stream);
            for (i, v) in filtered.into_iter().enumerate() {
                if i < len {
                    acc[i] += v;
                }
            }
        }
        if n0 > 0.0 {
            let sigma = n0.sqrt();
            for v in acc.iter_mut() {
                *v += wlan_channel::noise::complex_gaussian(rng).scale(sigma);
            }
        }
        rx.push(acc);
    }
    rx
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::rng::{Rng, WlanRng};
    use wlan_channel::mimo::MimoMultipathChannel;
    use wlan_channel::PowerDelayProfile;

    fn phy(n_streams: usize, n_rx: usize, modulation: Modulation) -> MimoOfdmPhy {
        MimoOfdmPhy::new(MimoOfdmConfig {
            n_streams,
            n_rx,
            modulation,
            code_rate: CodeRate::R1_2,
            detector: Detector::Mmse,
        })
    }

    #[test]
    fn rate_scales_with_streams() {
        let one = phy(1, 1, Modulation::Qam16).rate_mbps();
        let four = phy(4, 4, Modulation::Qam16).rate_mbps();
        assert!((four / one - 4.0).abs() < 1e-12);
        // 1 stream, 16-QAM, r=1/2: 48·4/2 = 96 bits / 4 µs = 24 Mbps.
        assert!((one - 24.0).abs() < 1e-12);
    }

    #[test]
    fn clean_roundtrip_all_stream_counts() {
        let mut rng = WlanRng::seed_from_u64(160);
        let payload: Vec<u8> = (0..120).map(|_| rng.gen()).collect();
        for n_ss in 1..=4usize {
            let p = phy(n_ss, n_ss, Modulation::Qpsk);
            let tx = p.transmit(&payload);
            assert_eq!(tx.len(), n_ss);
            // Identity channel: rx = tx (pad antennas into rx shape).
            let out = p.try_receive(&tx, 1e-9, payload.len()).unwrap();
            assert_eq!(out, payload, "{n_ss} streams");
        }
    }

    #[test]
    fn three_streams_use_four_training_symbols() {
        assert_eq!(phy(3, 3, Modulation::Bpsk).num_training_symbols(), 4);
        assert_eq!(phy(2, 2, Modulation::Bpsk).num_training_symbols(), 2);
    }

    #[test]
    fn total_transmit_power_is_stream_independent() {
        let payload = vec![0xA5u8; 200];
        for n_ss in [1usize, 2, 4] {
            let tx = phy(n_ss, n_ss, Modulation::Qam16).transmit(&payload);
            let total: f64 = tx
                .iter()
                .map(|a| wlan_math::complex::mean_power(a))
                .sum();
            assert!(
                (total - 1.0).abs() < 0.15,
                "{n_ss} streams: total power {total}"
            );
        }
    }

    #[test]
    fn roundtrip_through_mimo_multipath() {
        let mut rng = WlanRng::seed_from_u64(161);
        let payload: Vec<u8> = (0..80).map(|_| rng.gen()).collect();
        let p = phy(2, 2, Modulation::Qpsk);
        let pdp = PowerDelayProfile::tgn_model('B');
        let n0 = wlan_math::special::db_to_lin(-25.0);
        let mut ok = 0;
        let trials = 10;
        for _ in 0..trials {
            let ch = MimoMultipathChannel::realize(2, 2, &pdp, &mut rng);
            let tx = p.transmit(&payload);
            let rx = propagate(&ch, &tx, n0, &mut rng);
            if p.try_receive(&rx, n0, payload.len()).unwrap() == payload {
                ok += 1;
            }
        }
        assert!(ok >= 8, "only {ok}/{trials} frames decoded at 25 dB");
    }

    #[test]
    fn extra_rx_antennas_help_at_low_snr() {
        let mut rng = WlanRng::seed_from_u64(162);
        let payload: Vec<u8> = (0..60).map(|_| rng.gen()).collect();
        let pdp = PowerDelayProfile::flat();
        let n0 = wlan_math::special::db_to_lin(-14.0);
        let trials = 30;
        let mut ok = [0usize; 2];
        for (idx, n_rx) in [2usize, 4].into_iter().enumerate() {
            let p = phy(2, n_rx, Modulation::Qpsk);
            for _ in 0..trials {
                let ch = MimoMultipathChannel::realize(n_rx, 2, &pdp, &mut rng);
                let tx = p.transmit(&payload);
                let rx = propagate(&ch, &tx, n0, &mut rng);
                if p.try_receive(&rx, n0, payload.len()).unwrap() == payload {
                    ok[idx] += 1;
                }
            }
        }
        assert!(
            ok[1] > ok[0],
            "4 RX ({}) must beat 2 RX ({}) at 14 dB",
            ok[1],
            ok[0]
        );
    }

    #[test]
    fn frame_sample_count_is_consistent() {
        let p = phy(2, 2, Modulation::Qam64);
        let payload = vec![0u8; 100];
        let tx = p.transmit(&payload);
        for ant in &tx {
            assert_eq!(ant.len(), p.frame_samples(payload.len()));
        }
    }

    #[test]
    #[should_panic(expected = "stream count must be 1-4")]
    fn stream_count_validated() {
        let _ = phy(5, 5, Modulation::Bpsk);
    }

    #[test]
    fn try_receive_reports_truncation_as_typed_error() {
        let p = phy(2, 2, Modulation::Qpsk);
        let payload = vec![0x3Cu8; 50];
        let mut tx = p.transmit(&payload);
        // Healthy frame decodes cleanly.
        assert_eq!(p.try_receive(&tx, 1e-9, payload.len()).unwrap(), payload);
        // Truncate one antenna mid-frame: typed error, no panic.
        let cut = tx[1].len() / 2;
        tx[1].truncate(cut);
        let err = p.try_receive(&tx, 1e-9, payload.len()).unwrap_err();
        assert_eq!(
            err,
            WlanError::FrameTruncated {
                needed: p.frame_samples(payload.len()),
                got: cut,
            }
        );
        // Wrong antenna count is a length mismatch.
        let err = p.try_receive(&tx[..1], 1e-9, payload.len()).unwrap_err();
        assert_eq!(err, WlanError::LengthMismatch { expected: 2, got: 1 });
    }
}
