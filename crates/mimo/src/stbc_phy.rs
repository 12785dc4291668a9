//! A frame-level Alamouti STBC OFDM PHY (2 TX antennas, 1 stream).
//!
//! Where [`crate::phy`] spends antennas on *rate* (spatial multiplexing),
//! this chain spends them on *diversity*: the coded single-stream OFDM
//! symbol sequence is Alamouti-encoded per subcarrier across pairs of
//! consecutive OFDM symbols, giving every coded bit order-`2·N_rx`
//! diversity at an unchanged data rate. This is the 802.11n STBC mode the
//! paper's range-extension argument leans on, and the transmit-diversity
//! point of experiment E5.

use wlan_coding::interleaver::Interleaver;
use wlan_coding::puncture::{depuncture, puncture};
use wlan_coding::scrambler::Scrambler;
use wlan_coding::{bits, CodeRate, ConvEncoder, ViterbiDecoder};
use wlan_math::{fft, Complex, WlanError};
use wlan_ofdm::params::{data_carriers, Modulation, N_CP, N_FFT, N_SYM_SAMPLES};
use wlan_ofdm::preamble::ltf_value;
use wlan_ofdm::qam;
use wlan_ofdm::symbol::tx_scale;

use crate::phy::P_HTLTF;

/// An Alamouti 2×N_rx STBC OFDM PHY.
///
/// # Examples
///
/// ```
/// use wlan_coding::CodeRate;
/// use wlan_mimo::stbc_phy::StbcOfdmPhy;
/// use wlan_ofdm::params::Modulation;
///
/// let phy = StbcOfdmPhy::new(Modulation::Qpsk, CodeRate::R1_2, 1);
/// let tx = phy.transmit(b"diversity!");
/// assert_eq!(tx.len(), 2); // always two transmit antennas
/// // Identity channel: feed antenna sums as the single RX observation.
/// let rx: Vec<wlan_math::Complex> = tx[0].iter().zip(&tx[1]).map(|(&a, &b)| a + b).collect();
/// let out = phy.try_receive(&[rx], 1e-9, 10).unwrap();
/// assert_eq!(out, b"diversity!");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StbcOfdmPhy {
    modulation: Modulation,
    code_rate: CodeRate,
    n_rx: usize,
    scrambler_seed: u8,
}

impl StbcOfdmPhy {
    /// Creates a PHY with the given modulation/code rate and receive
    /// antenna count.
    ///
    /// # Panics
    ///
    /// Panics if `n_rx` is zero.
    pub fn new(modulation: Modulation, code_rate: CodeRate, n_rx: usize) -> Self {
        assert!(n_rx >= 1, "need at least one receive antenna");
        StbcOfdmPhy {
            modulation,
            code_rate,
            n_rx,
            scrambler_seed: 0x5D,
        }
    }

    /// Data bits per OFDM symbol (single stream).
    pub fn data_bits_per_symbol(&self) -> usize {
        let (n, d) = self.code_rate.as_fraction();
        48 * self.modulation.bits_per_subcarrier() * n / d
    }

    /// PHY rate in Mbps (STBC keeps the single-stream rate).
    pub fn rate_mbps(&self) -> f64 {
        self.data_bits_per_symbol() as f64 / 4.0
    }

    /// Number of data OFDM symbols (always even: Alamouti works in pairs).
    pub fn num_data_symbols(&self, len: usize) -> usize {
        let n = (16 + 8 * len + 6).div_ceil(self.data_bits_per_symbol());
        n + n % 2
    }

    /// Per-antenna frame length in samples (2 training + data symbols).
    pub fn frame_samples(&self, len: usize) -> usize {
        (2 + self.num_data_symbols(len)) * N_SYM_SAMPLES
    }

    /// Encodes a payload into the two per-antenna sample streams.
    pub fn transmit(&self, payload: &[u8]) -> Vec<Vec<Complex>> {
        let n_sym = self.num_data_symbols(payload.len());
        let total_bits = n_sym * self.data_bits_per_symbol();

        // Identical single-stream bit chain to the 802.11a DATA field.
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
        let il = Interleaver::new(
            48 * self.modulation.bits_per_subcarrier(),
            self.modulation.bits_per_subcarrier(),
        );
        let interleaved = il.interleave_stream(&coded);
        let points = qam::map_stream(self.modulation, &interleaved);

        // Frequency-domain OFDM symbols (48 points each).
        let symbols: Vec<&[Complex]> = points.chunks(48).collect();
        debug_assert_eq!(symbols.len(), n_sym);

        let g = std::f64::consts::FRAC_1_SQRT_2;
        let mut ant: Vec<Vec<Complex>> = std::iter::repeat_with(|| {
            Vec::with_capacity(self.frame_samples(payload.len()))
        })
        .take(2)
        .collect();

        // Two training symbols with the 2×2 P cover. Streams are
        // independent, so filling antenna-by-antenna keeps each stream's
        // symbol order m = 0, 1.
        let ltf = training_symbol();
        for (i, stream) in ant.iter_mut().enumerate() {
            for &p in P_HTLTF[i].iter().take(2) {
                let scale = p * g;
                stream.extend(ltf.iter().map(|&s| s.scale(scale)));
            }
        }

        // Alamouti pairs: over symbols (2t, 2t+1), per subcarrier:
        //   time 2t:   ant0 → s1,       ant1 → s2
        //   time 2t+1: ant0 → −s2*,     ant1 → s1*
        for pair in symbols.chunks(2) {
            let s1 = pair[0];
            let s2 = pair[1];
            let neg_conj: Vec<Complex> = s2.iter().map(|&v| -v.conj()).collect();
            let conj: Vec<Complex> = s1.iter().map(|&v| v.conj()).collect();
            ant[0].extend(assemble_scaled(s1, g));
            ant[1].extend(assemble_scaled(s2, g));
            ant[0].extend(assemble_scaled(&neg_conj, g));
            ant[1].extend(assemble_scaled(&conj, g));
        }
        ant
    }

    /// Decodes per-antenna receive streams (channel assumed static per
    /// frame, estimated from the training symbols). `n0` is the per-sample
    /// noise variance. Malformed input — wrong antenna count or truncated
    /// streams — returns a typed [`WlanError`] instead of panicking.
    pub fn try_receive(
        &self,
        rx: &[Vec<Complex>],
        n0: f64,
        payload_len: usize,
    ) -> Result<Vec<u8>, WlanError> {
        if rx.len() != self.n_rx {
            return Err(WlanError::LengthMismatch {
                expected: self.n_rx,
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
        let _ = n0; // kept for interface symmetry with MimoOfdmPhy

        // Channel estimation: h[r][i][k] from the two P-covered LTFs.
        let carriers = data_carriers();
        let mut train = Vec::with_capacity(2);
        for m in 0..2 {
            let per_rx: Vec<Vec<Complex>> = rx
                .iter()
                .map(|r| symbol_bins(&r[m * N_SYM_SAMPLES..(m + 1) * N_SYM_SAMPLES]))
                .collect();
            train.push(per_rx);
        }
        // h[r][i] per carrier index c.
        let mut h = vec![vec![vec![Complex::ZERO; carriers.len()]; 2]; self.n_rx];
        for (c, &k) in carriers.iter().enumerate() {
            let bin = carrier_to_bin(k);
            let l = ltf_value(k);
            for r in 0..self.n_rx {
                for i in 0..2 {
                    let mut acc = Complex::ZERO;
                    for (m, t) in train.iter().enumerate() {
                        acc += t[r][bin].scale(P_HTLTF[i][m]);
                    }
                    h[r][i][c] = acc.scale(1.0 / (2.0 * l));
                }
            }
        }

        // Alamouti combining per subcarrier over symbol pairs.
        let n_sym = self.num_data_symbols(payload_len);
        let mut llrs = Vec::with_capacity(n_sym * 48 * self.modulation.bits_per_subcarrier());
        let g = std::f64::consts::FRAC_1_SQRT_2;
        for t in 0..n_sym / 2 {
            let off1 = (2 + 2 * t) * N_SYM_SAMPLES;
            let off2 = off1 + N_SYM_SAMPLES;
            let y1: Vec<Vec<Complex>> = rx
                .iter()
                .map(|r| symbol_bins(&r[off1..off1 + N_SYM_SAMPLES]))
                .collect();
            let y2: Vec<Vec<Complex>> = rx
                .iter()
                .map(|r| symbol_bins(&r[off2..off2 + N_SYM_SAMPLES]))
                .collect();
            let mut sym1 = Vec::with_capacity(48);
            let mut sym2 = Vec::with_capacity(48);
            let mut csi = Vec::with_capacity(48);
            for (c, &k) in carriers.iter().enumerate() {
                let bin = carrier_to_bin(k);
                let mut c1 = Complex::ZERO;
                let mut c2 = Complex::ZERO;
                let mut gain = 0.0;
                for r in 0..self.n_rx {
                    let h1 = h[r][0][c];
                    let h2 = h[r][1][c];
                    let a = y1[r][bin];
                    let b = y2[r][bin];
                    c1 += h1.conj() * a + h2 * b.conj();
                    c2 += h2.conj() * a - h1 * b.conj();
                    gain += h1.norm_sqr() + h2.norm_sqr();
                }
                // The h estimates already include the 1/√2 TX scaling, so
                // the combiner normalization uses the estimated gain itself.
                let norm = gain.max(1e-300);
                sym1.push(c1 / norm);
                sym2.push(c2 / norm);
                csi.push(gain * g * g);
            }
            for (s, w) in sym1.iter().zip(&csi) {
                llrs.extend(qam::demap_soft(self.modulation, *s, *w));
            }
            for (s, w) in sym2.iter().zip(&csi) {
                llrs.extend(qam::demap_soft(self.modulation, *s, *w));
            }
        }

        let il = Interleaver::new(
            48 * self.modulation.bits_per_subcarrier(),
            self.modulation.bits_per_subcarrier(),
        );
        let deinterleaved = il.try_deinterleave_stream_soft(&llrs)?;
        let total_bits = n_sym * self.data_bits_per_symbol();
        let mother = depuncture(&deinterleaved, self.code_rate, total_bits * 2);
        let scrambled = ViterbiDecoder::new().decode_soft_unterminated(&mother, total_bits)?;
        let descrambled = Scrambler::new(self.scrambler_seed).scramble(&scrambled);
        Ok(bits::bits_to_bytes(&descrambled[16..16 + 8 * payload_len]))
    }
}

/// One 80-sample training symbol at data scale (no power split applied).
fn training_symbol() -> Vec<Complex> {
    let mut bins = vec![Complex::ZERO; N_FFT];
    for k in -26..=26i32 {
        let v = ltf_value(k);
        if v != 0.0 {
            bins[carrier_to_bin(k)] = Complex::from_re(v);
        }
    }
    finish_symbol(bins)
}

/// Assembles 48 data points (scaled by `scale`) into one 80-sample symbol,
/// pilots omitted (the Alamouti combiner needs no CPE correction in this
/// phase-noise-free simulation).
fn assemble_scaled(data: &[Complex], scale: f64) -> Vec<Complex> {
    let mut bins = vec![Complex::ZERO; N_FFT];
    for (i, &k) in data_carriers().iter().enumerate() {
        bins[carrier_to_bin(k)] = data[i].scale(scale);
    }
    finish_symbol(bins)
}

fn finish_symbol(bins: Vec<Complex>) -> Vec<Complex> {
    let time = fft::ifft(&bins);
    let s = tx_scale();
    let mut out = Vec::with_capacity(N_SYM_SAMPLES);
    out.extend(time[N_FFT - N_CP..].iter().map(|v| v.scale(s)));
    out.extend(time.iter().map(|v| v.scale(s)));
    out
}

fn symbol_bins(samples: &[Complex]) -> Vec<Complex> {
    let mut body: Vec<Complex> = samples[N_CP..N_CP + N_FFT]
        .iter()
        .map(|v| v.scale(1.0 / tx_scale()))
        .collect();
    fft::fft_in_place(&mut body);
    body
}

fn carrier_to_bin(k: i32) -> usize {
    ((k + N_FFT as i32) % N_FFT as i32) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::rng::{Rng, WlanRng};
    use wlan_channel::mimo::MimoMultipathChannel;
    use wlan_channel::PowerDelayProfile;

    fn identity_rx(tx: &[Vec<Complex>]) -> Vec<Complex> {
        tx[0].iter().zip(&tx[1]).map(|(&a, &b)| a + b).collect()
    }

    #[test]
    fn clean_roundtrip() {
        let phy = StbcOfdmPhy::new(Modulation::Qpsk, CodeRate::R1_2, 1);
        let payload: Vec<u8> = (0..60).map(|i| (i * 13) as u8).collect();
        let tx = phy.transmit(&payload);
        let rx = identity_rx(&tx);
        assert_eq!(phy.try_receive(&[rx], 1e-9, payload.len()).unwrap(), payload);
    }

    #[test]
    fn data_symbol_count_is_even() {
        let phy = StbcOfdmPhy::new(Modulation::Bpsk, CodeRate::R1_2, 1);
        for len in [1usize, 10, 33, 100] {
            assert_eq!(phy.num_data_symbols(len) % 2, 0, "len {len}");
        }
    }

    #[test]
    fn rate_is_single_stream() {
        // STBC spends the second antenna on diversity, not rate: QPSK r=1/2
        // stays at 12 Mbps.
        let phy = StbcOfdmPhy::new(Modulation::Qpsk, CodeRate::R1_2, 2);
        assert!((phy.rate_mbps() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn total_tx_power_matches_siso() {
        let phy = StbcOfdmPhy::new(Modulation::Qam16, CodeRate::R3_4, 1);
        let tx = phy.transmit(&[0x5Au8; 200]);
        let total: f64 = tx.iter().map(|a| wlan_math::complex::mean_power(a)).sum();
        assert!((total - 1.0).abs() < 0.15, "total TX power {total}");
    }

    #[test]
    fn roundtrip_through_fading_mimo_channel() {
        let mut rng = WlanRng::seed_from_u64(170);
        let phy = StbcOfdmPhy::new(Modulation::Qpsk, CodeRate::R1_2, 2);
        let payload: Vec<u8> = (0..80).map(|_| rng.gen()).collect();
        let pdp = PowerDelayProfile::flat();
        let n0 = wlan_math::special::db_to_lin(-18.0);
        let mut ok = 0;
        let trials = 10;
        for _ in 0..trials {
            let ch = MimoMultipathChannel::realize(2, 2, &pdp, &mut rng);
            let tx = phy.transmit(&payload);
            let rx = crate::phy::propagate(&ch, &tx, n0, &mut rng);
            if phy.try_receive(&rx, n0, payload.len()).unwrap() == payload {
                ok += 1;
            }
        }
        assert!(ok >= 9, "STBC 2x2 decoded only {ok}/{trials} at 18 dB");
    }

    #[test]
    fn stbc_beats_siso_in_deep_fades() {
        // At an SNR where flat-fading SISO frequently loses whole frames to
        // fades, STBC's diversity keeps most frames alive.
        let mut rng = WlanRng::seed_from_u64(171);
        let payload: Vec<u8> = (0..50).map(|_| rng.gen()).collect();
        let pdp = PowerDelayProfile::flat();
        let snr_db = 12.0;
        let n0 = wlan_math::special::db_to_lin(-snr_db);
        let trials = 40;

        // SISO baseline via the spatial-multiplexing PHY at 1 stream.
        use crate::detect::Detector;
        use crate::phy::{MimoOfdmConfig, MimoOfdmPhy};
        let siso = MimoOfdmPhy::new(MimoOfdmConfig {
            n_streams: 1,
            n_rx: 1,
            modulation: Modulation::Qpsk,
            code_rate: CodeRate::R1_2,
            detector: Detector::Mmse,
        });
        let stbc = StbcOfdmPhy::new(Modulation::Qpsk, CodeRate::R1_2, 1);

        let mut siso_ok = 0;
        let mut stbc_ok = 0;
        for _ in 0..trials {
            let ch1 = MimoMultipathChannel::realize(1, 1, &pdp, &mut rng);
            let tx = siso.transmit(&payload);
            let rx = crate::phy::propagate(&ch1, &tx, n0, &mut rng);
            if siso.try_receive(&rx, n0, payload.len()).unwrap() == payload {
                siso_ok += 1;
            }
            let ch2 = MimoMultipathChannel::realize(1, 2, &pdp, &mut rng);
            let tx = stbc.transmit(&payload);
            let rx = crate::phy::propagate(&ch2, &tx, n0, &mut rng);
            if stbc.try_receive(&rx, n0, payload.len()).unwrap() == payload {
                stbc_ok += 1;
            }
        }
        assert!(
            stbc_ok > siso_ok,
            "STBC ({stbc_ok}/{trials}) must beat SISO ({siso_ok}/{trials}) in fading"
        );
    }

    #[test]
    fn try_receive_reports_typed_errors() {
        let phy = StbcOfdmPhy::new(Modulation::Qpsk, CodeRate::R1_2, 1);
        let payload = b"stbc erasure";
        let tx = phy.transmit(payload);
        let rx = identity_rx(&tx);
        assert_eq!(
            phy.try_receive(std::slice::from_ref(&rx), 1e-9, payload.len())
                .unwrap(),
            payload.to_vec()
        );
        let err = phy
            .try_receive(&[rx[..100].to_vec()], 1e-9, payload.len())
            .unwrap_err();
        assert!(matches!(err, WlanError::FrameTruncated { .. }), "{err:?}");
        let err = phy.try_receive(&[], 1e-9, payload.len()).unwrap_err();
        assert_eq!(err, WlanError::LengthMismatch { expected: 1, got: 0 });
    }

    #[test]
    fn rx_count_checked() {
        let phy = StbcOfdmPhy::new(Modulation::Bpsk, CodeRate::R1_2, 2);
        let tx = phy.transmit(&[1, 2, 3]);
        let rx = identity_rx(&tx);
        let err = phy.try_receive(&[rx], 0.1, 3).unwrap_err();
        assert_eq!(err, WlanError::LengthMismatch { expected: 2, got: 1 });
    }
}
