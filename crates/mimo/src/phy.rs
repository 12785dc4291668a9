//! A spatially-multiplexed MIMO-OFDM frame chain (802.11n HT style).
//!
//! The transmit side runs the shared BCC data-field codec
//! ([`DataCodec`]) one OFDM symbol at a time, parses each symbol's coded
//! bits round-robin onto `N_ss` spatial streams, and sends each stream
//! through the 802.11a interleave → QAM → IFFT symbol on its own antenna.
//! Training uses HT-LTF-like orthogonal covers (the `P` matrix) so the
//! receiver can estimate the full per-subcarrier channel matrix, after which
//! MMSE (or ZF) detection separates the streams.
//!
//! Transmit power is normalized: the per-antenna streams are scaled by
//! `1/√N_ss` so a 4-stream transmission radiates the same total power as a
//! SISO one — the fair comparison the range experiment (E5) needs.

use crate::detect::{Detector, LinearDetector, SmallMatrix, MAX_ANTENNAS};
use wlan_coding::codec::DataCodec;
use wlan_coding::interleaver::Interleaver;
use wlan_coding::CodeRate;
use wlan_math::{fft, Complex, WlanError};
use wlan_ofdm::params::{data_carriers, Modulation, N_CP, N_DATA, N_FFT, N_SYM_SAMPLES};
use wlan_ofdm::preamble::ltf_value;
use wlan_ofdm::qam::{self, Constellation};
use wlan_ofdm::symbol::{assemble_symbol_into, carrier_to_bin, legacy_training_symbol, tx_scale};

/// The 802.11n HT-LTF orthogonal cover matrix `P` (rows = streams,
/// columns = training symbols).
pub const P_HTLTF: [[f64; 4]; 4] = [
    [1.0, -1.0, 1.0, 1.0],
    [1.0, 1.0, -1.0, 1.0],
    [1.0, 1.0, 1.0, -1.0],
    [-1.0, 1.0, 1.0, 1.0],
];

/// Checks a receive antenna count against 802.11n's 1–4, the most a
/// per-carrier [`SmallMatrix`] estimate holds.
pub(crate) fn check_rx_antennas(n_rx: usize) -> Result<(), WlanError> {
    if (1..=MAX_ANTENNAS).contains(&n_rx) {
        Ok(())
    } else {
        Err(WlanError::InvalidConfig("receive antenna count must be 1-4"))
    }
}

/// PHY rate in Mbps of `n_streams` spatial streams on the 48-data-carrier
/// symbol (20 MHz, long GI).
pub fn rate_mbps(n_streams: usize, modulation: Modulation, code_rate: CodeRate) -> f64 {
    let (n, d) = code_rate.as_fraction();
    (N_DATA * modulation.bits_per_subcarrier() * n_streams * n / d) as f64 / 4.0
}

/// Writes `n_ltf` HT-LTF training symbols into the head of every
/// antenna's frame: antenna `i` sends the legacy training symbol under
/// the covers `P_HTLTF[i][m]`, scaled by `power_scale`.
pub(crate) fn write_training(antennas: &mut [Vec<Complex>], n_ltf: usize, power_scale: f64) {
    let ltf = legacy_training_symbol();
    for (ant, covers) in antennas.iter_mut().zip(&P_HTLTF) {
        let slots = ant.chunks_exact_mut(N_SYM_SAMPLES);
        for (&p, slot) in covers.iter().take(n_ltf).zip(slots) {
            let scale = p * power_scale;
            for (o, s) in slot.iter_mut().zip(ltf) {
                *o = s.scale(scale);
            }
        }
    }
}

/// Configuration of the MIMO-OFDM link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MimoOfdmConfig {
    /// Number of spatial streams (equals transmit antennas here), 1–4.
    pub n_streams: usize,
    /// Number of receive antennas, 1–4 (≥ `n_streams` for linear
    /// detection).
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
/// })?;
/// assert_eq!(phy.data_bits_per_symbol(), 96);
/// # Ok::<(), wlan_math::WlanError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MimoOfdmPhy {
    cfg: MimoOfdmConfig,
    scrambler_seed: u8,
}

impl MimoOfdmPhy {
    /// Creates a PHY.
    ///
    /// # Errors
    ///
    /// [`WlanError::InvalidConfig`] if `n_streams` or `n_rx` is not 1–4.
    pub fn new(cfg: MimoOfdmConfig) -> Result<Self, WlanError> {
        if !(1..=4).contains(&cfg.n_streams) {
            return Err(WlanError::InvalidConfig("stream count must be 1-4"));
        }
        check_rx_antennas(cfg.n_rx)?;
        Ok(MimoOfdmPhy {
            cfg,
            scrambler_seed: 0x5D,
        })
    }

    /// Number of HT-LTF training symbols (equals streams, except 3 → 4).
    fn num_training_symbols(&self) -> usize {
        match self.cfg.n_streams {
            3 => 4,
            n => n,
        }
    }

    /// Coded bits per OFDM symbol per stream.
    fn coded_bits_per_symbol_per_stream(&self) -> usize {
        N_DATA * self.cfg.modulation.bits_per_subcarrier()
    }

    /// Data bits per OFDM symbol across all streams.
    pub fn data_bits_per_symbol(&self) -> usize {
        self.codec().data_bits_per_symbol()
    }

    /// Number of data symbols for a payload of `len` bytes.
    pub fn num_data_symbols(&self, len: usize) -> usize {
        self.codec().num_symbols(len)
    }

    /// Per-antenna samples for a payload of `len` bytes.
    pub fn frame_samples(&self, len: usize) -> usize {
        (self.num_training_symbols() + self.num_data_symbols(len)) * N_SYM_SAMPLES
    }

    /// PHY data rate in Mbps (20 MHz, long GI).
    pub fn rate_mbps(&self) -> f64 {
        rate_mbps(self.cfg.n_streams, self.cfg.modulation, self.cfg.code_rate)
    }

    /// The codec over all streams' coded bits of one symbol.
    fn codec(&self) -> DataCodec {
        let n_cbps = self.coded_bits_per_symbol_per_stream() * self.cfg.n_streams;
        DataCodec::new(self.cfg.code_rate, n_cbps, self.scrambler_seed)
    }

    /// The 802.11n stream parser's block: `s = max(N_BPSC/2, 1)` coded bits
    /// go to each stream in turn. A symbol holds `N_ss·48·N_BPSC` coded
    /// bits, a multiple of `N_ss·s`, so the round robin restarts at every
    /// symbol and parsing symbol by symbol is exact.
    fn parser_block(&self) -> usize {
        (self.cfg.modulation.bits_per_subcarrier() / 2).max(1)
    }

    /// Encodes a payload into `n_streams` per-antenna sample streams
    /// (training followed by data symbols).
    pub fn transmit(&self, payload: &[u8]) -> Vec<Vec<Complex>> {
        let n_ss = self.cfg.n_streams;
        let power_scale = 1.0 / (n_ss as f64).sqrt();
        let mut antennas = vec![vec![Complex::ZERO; self.frame_samples(payload.len())]; n_ss];
        let n_ltf = self.num_training_symbols();
        write_training(&mut antennas, n_ltf, power_scale);

        let ncbps = self.coded_bits_per_symbol_per_stream();
        let block = self.parser_block();
        let il = Interleaver::new(ncbps, self.cfg.modulation.bits_per_subcarrier());
        let constellation = Constellation::new(self.cfg.modulation);
        let mut stream_bits = vec![0u8; ncbps];
        let mut interleaved = vec![0u8; ncbps];
        let mut points = [Complex::ZERO; N_DATA];
        let n_sym = self.num_data_symbols(payload.len());
        self.codec().encode(payload, n_sym, |s, coded| {
            let blocks = coded.chunks_exact(block);
            for (i, ant) in antennas.iter_mut().enumerate() {
                let parsed = blocks.clone().skip(i).step_by(n_ss);
                for (dst, src) in stream_bits.chunks_exact_mut(block).zip(parsed) {
                    dst.copy_from_slice(src);
                }
                il.interleave_into(&stream_bits, &mut interleaved);
                constellation.map_into(&interleaved, &mut points);
                let slot = &mut ant[(n_ltf + s) * N_SYM_SAMPLES..][..N_SYM_SAMPLES];
                assemble_symbol_into(&points, s + 1, slot);
                for v in slot.iter_mut() {
                    *v = v.scale(power_scale);
                }
            }
        });
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
    /// Detection is batched: every symbol of every antenna is FFT'd in one
    /// planned pass, and each subcarrier's linear detector is factored
    /// once ([`LinearDetector::prepare_small`]) and applied across all data
    /// symbols — identical arithmetic to per-symbol detection, hoisted out
    /// of the hot loop. The bit path after demapping then runs one symbol
    /// at a time: each stream's LLRs are deinterleaved, merged back in
    /// stream-parser order and handed to the shared codec.
    pub fn receive(
        &self,
        rx: &[Vec<Complex>],
        n0: f64,
        payload_len: usize,
    ) -> Result<Vec<u8>, WlanError> {
        let n_rx = self.cfg.n_rx;
        let n_ss = self.cfg.n_streams;
        let n_ltf = self.num_training_symbols();
        let n_sym = self.num_data_symbols(payload_len);
        let spectra = Spectra::new(rx, n_rx, n_ltf + n_sym)?;
        let channel = spectra.channel(n_ss, n_ltf)?;

        // Structure-of-arrays detection: factor each subcarrier's detector
        // once, then run it down the frame's symbols. LLR planes are
        // preallocated at zero, so any failed carrier or symbol naturally
        // leaves erasures behind.
        // Effective noise after the tx_scale normalization.
        let n0_eff = (n0 / (tx_scale() * tx_scale())).max(1e-12);
        let bpsc = self.cfg.modulation.bits_per_subcarrier();
        let ncbps = self.coded_bits_per_symbol_per_stream();
        let mut stream_llrs: Vec<Vec<f64>> = vec![vec![0.0; n_sym * ncbps]; n_ss];
        let mut ys: Vec<Complex> = Vec::with_capacity(n_sym * n_rx);
        let mut symbols: Vec<Complex> = Vec::with_capacity(n_sym * n_ss);
        let mut sym_ok: Vec<bool> = Vec::with_capacity(n_sym);
        for (c, &k) in data_carriers().iter().enumerate() {
            // A carrier whose detector cannot be factored (rank-deficient or
            // non-finite channel) stays all-erasures, exactly as per-symbol
            // detection errors did.
            let Ok(mut det) = LinearDetector::prepare_small(self.cfg.detector, &channel[c], n0_eff)
            else {
                continue;
            };
            let bin = carrier_to_bin(k);
            ys.clear();
            for s in 0..n_sym {
                for r in 0..n_rx {
                    ys.push(spectra.bins(n_ltf + s, r)[bin]);
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
                    let slot = s * ncbps + c * bpsc;
                    qam::demap_soft_into(
                        self.cfg.modulation,
                        symbols[s * n_ss + i],
                        det.sinr()[i],
                        &mut llrs[slot..slot + bpsc],
                    );
                }
            }
        }

        // Per symbol: deinterleave each stream, merge (inverse parsing)
        // into the codec's buffer.
        let il = Interleaver::new(ncbps, bpsc);
        let block = self.parser_block();
        let mut deinterleaved = vec![0.0; ncbps];
        self.codec().decode(payload_len, n_sym, |s, merged| {
            for (i, llrs) in stream_llrs.iter().enumerate() {
                il.deinterleave_soft_into(&llrs[s * ncbps..(s + 1) * ncbps], &mut deinterleaved);
                let parsed = merged.chunks_exact_mut(block).skip(i).step_by(n_ss);
                for (dst, src) in parsed.zip(deinterleaved.chunks_exact(block)) {
                    dst.copy_from_slice(src);
                }
            }
        })
    }
}

/// Every OFDM symbol of every receive antenna, CP-stripped and FFT'd in
/// one planned pass: the front end of the multi-antenna receivers.
pub(crate) struct Spectra {
    /// `bins[(m·n_rx + r)·64..][..64]` is the spectrum of symbol `m` at
    /// antenna `r`.
    bins: Vec<Complex>,
    n_rx: usize,
}

impl Spectra {
    /// Transforms the first `n_sym` symbols of each of the `n_rx` streams
    /// in `rx`. A wrong antenna count or a stream shorter than `n_sym`
    /// symbols is a typed error, so injected faults become
    /// counted erasures.
    pub(crate) fn new(rx: &[Vec<Complex>], n_rx: usize, n_sym: usize) -> Result<Self, WlanError> {
        if rx.len() != n_rx {
            return Err(WlanError::LengthMismatch {
                expected: n_rx,
                got: rx.len(),
            });
        }
        let needed = n_sym * N_SYM_SAMPLES;
        for r in rx {
            if r.len() < needed {
                return Err(WlanError::FrameTruncated {
                    needed,
                    got: r.len(),
                });
            }
        }
        let inv_scale = 1.0 / tx_scale();
        let mut bins = Vec::with_capacity(n_sym * n_rx * N_FFT);
        for m in 0..n_sym {
            let offset = m * N_SYM_SAMPLES + N_CP;
            for r in rx {
                bins.extend(r[offset..offset + N_FFT].iter().map(|s| s.scale(inv_scale)));
            }
        }
        fft::cached_plan(N_FFT).try_fft_batch(&mut bins)?;
        Ok(Spectra { bins, n_rx })
    }

    /// The spectrum of symbol `m` at antenna `r`.
    pub(crate) fn bins(&self, m: usize, r: usize) -> &[Complex] {
        &self.bins[(m * self.n_rx + r) * N_FFT..][..N_FFT]
    }

    /// The `n_rx × n_ss` channel matrix at every data carrier, estimated
    /// from the first `n_ltf` symbols under the orthogonal `P` covers. It
    /// includes the transmit power scaling, which is what detection and
    /// combining should see. The PHYs' constructors hold `n_rx` and `n_ss`
    /// to 1–4, so every estimate fits its stack [`SmallMatrix`].
    pub(crate) fn channel(&self, n_ss: usize, n_ltf: usize) -> Result<Vec<SmallMatrix>, WlanError> {
        let estimate = |&k: &i32| {
            let bin = carrier_to_bin(k);
            let l = ltf_value(k);
            let mut h = SmallMatrix::zeros(self.n_rx, n_ss)?;
            for r in 0..self.n_rx {
                for (i, p_row) in P_HTLTF.iter().enumerate().take(n_ss) {
                    let mut acc = Complex::ZERO;
                    for (m, &p) in p_row.iter().enumerate().take(n_ltf) {
                        acc += self.bins(m, r)[bin].scale(p);
                    }
                    h.set(r, i, acc.scale(1.0 / (n_ltf as f64 * l)));
                }
            }
            Ok(h)
        };
        data_carriers().iter().map(estimate).collect()
    }
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
        .unwrap()
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
            let out = p.receive(&tx, 1e-9, payload.len()).unwrap();
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
            let rx = ch.propagate(&tx, n0, &mut rng).unwrap();
            if p.receive(&rx, n0, payload.len()).unwrap() == payload {
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
                let rx = ch.propagate(&tx, n0, &mut rng).unwrap();
                if p.receive(&rx, n0, payload.len()).unwrap() == payload {
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
    fn stream_count_validated() {
        let config = |n_streams, n_rx| MimoOfdmConfig {
            n_streams,
            n_rx,
            modulation: Modulation::Bpsk,
            code_rate: CodeRate::R1_2,
            detector: Detector::Mmse,
        };
        for (n_streams, n_rx) in [(0, 1), (5, 5), (2, 0), (2, 5)] {
            let err = MimoOfdmPhy::new(config(n_streams, n_rx)).unwrap_err();
            assert!(matches!(err, WlanError::InvalidConfig(_)), "{err:?}");
        }
    }

    #[test]
    fn try_receive_reports_truncation_as_typed_error() {
        let p = phy(2, 2, Modulation::Qpsk);
        let payload = vec![0x3Cu8; 50];
        let mut tx = p.transmit(&payload);
        // Healthy frame decodes cleanly.
        assert_eq!(p.receive(&tx, 1e-9, payload.len()).unwrap(), payload);
        // Truncate one antenna mid-frame: typed error, no panic.
        let cut = tx[1].len() / 2;
        tx[1].truncate(cut);
        let err = p.receive(&tx, 1e-9, payload.len()).unwrap_err();
        assert_eq!(
            err,
            WlanError::FrameTruncated {
                needed: p.frame_samples(payload.len()),
                got: cut,
            }
        );
        // Wrong antenna count is a length mismatch.
        let err = p.receive(&tx[..1], 1e-9, payload.len()).unwrap_err();
        assert_eq!(err, WlanError::LengthMismatch { expected: 2, got: 1 });
    }
}
