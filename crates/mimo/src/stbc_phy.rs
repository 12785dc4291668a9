//! A frame-level Alamouti STBC OFDM PHY (2 TX antennas, 1 stream).
//!
//! Where [`crate::phy`] spends antennas on *rate* (spatial multiplexing),
//! this chain spends them on *diversity*: the coded single-stream OFDM
//! symbol sequence is Alamouti-encoded per subcarrier across pairs of
//! consecutive OFDM symbols, giving every coded bit order-`2·N_rx`
//! diversity at an unchanged data rate. This is the 802.11n STBC mode the
//! paper's range-extension argument leans on, and the transmit-diversity
//! point of experiment E5. The bit chain is the 802.11a DATA field's,
//! through the shared per-symbol codec; what is this chain's own is the
//! pairing of symbols and the combiner.

use std::f64::consts::FRAC_1_SQRT_2;

use crate::phy::{check_rx_antennas, rate_mbps, write_training, Spectra};
use wlan_coding::codec::DataCodec;
use wlan_coding::interleaver::Interleaver;
use wlan_coding::CodeRate;
use wlan_math::{Complex, WlanError};
use wlan_ofdm::params::{data_carriers, Modulation, N_DATA, N_FFT, N_SYM_SAMPLES};
use wlan_ofdm::qam::{self, Constellation};
use wlan_ofdm::symbol::{carrier_to_bin, ifft_into_slot, tx_scale};

/// An Alamouti 2×N_rx STBC OFDM PHY.
///
/// # Examples
///
/// ```
/// use wlan_coding::CodeRate;
/// use wlan_mimo::stbc_phy::StbcOfdmPhy;
/// use wlan_ofdm::params::Modulation;
///
/// let phy = StbcOfdmPhy::new(Modulation::Qpsk, CodeRate::R1_2, 1)?;
/// let tx = phy.transmit(b"diversity!");
/// assert_eq!(tx.len(), 2); // always two transmit antennas
/// // Identity channel: feed antenna sums as the single RX observation.
/// let rx: Vec<wlan_math::Complex> = tx[0].iter().zip(&tx[1]).map(|(&a, &b)| a + b).collect();
/// let out = phy.receive(&[rx], 10)?;
/// assert_eq!(out, b"diversity!");
/// # Ok::<(), wlan_math::WlanError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StbcOfdmPhy {
    modulation: Modulation,
    code_rate: CodeRate,
    n_rx: usize,
    scrambler_seed: u8,
}

/// Writes 48 data points, each `map`ped and scaled by `1/√2` (the
/// two antennas share the power), into one 80-sample slot. Pilots are
/// omitted: the Alamouti combiner needs no CPE correction in this
/// phase-noise-free simulation.
fn alamouti_symbol_into(points: &[Complex], map: fn(Complex) -> Complex, slot: &mut [Complex]) {
    let mut bins = [Complex::ZERO; N_FFT];
    for (&k, &v) in data_carriers().iter().zip(points) {
        bins[carrier_to_bin(k)] = map(v).scale(FRAC_1_SQRT_2);
    }
    ifft_into_slot(&mut bins, tx_scale(), slot);
}

impl StbcOfdmPhy {
    /// Creates a PHY with the given modulation/code rate and receive
    /// antenna count.
    ///
    /// # Errors
    ///
    /// [`WlanError::InvalidConfig`] if `n_rx` is not 1–4.
    pub fn new(
        modulation: Modulation,
        code_rate: CodeRate,
        n_rx: usize,
    ) -> Result<Self, WlanError> {
        check_rx_antennas(n_rx)?;
        Ok(StbcOfdmPhy {
            modulation,
            code_rate,
            n_rx,
            scrambler_seed: 0x5D,
        })
    }

    /// Data bits per OFDM symbol (single stream).
    pub fn data_bits_per_symbol(&self) -> usize {
        self.codec().data_bits_per_symbol()
    }

    /// PHY rate in Mbps (STBC keeps the single-stream rate).
    pub fn rate_mbps(&self) -> f64 {
        rate_mbps(1, self.modulation, self.code_rate)
    }

    /// Number of data OFDM symbols (always even: Alamouti works in pairs).
    pub fn num_data_symbols(&self, len: usize) -> usize {
        let n = self.codec().num_symbols(len);
        n + n % 2
    }

    /// Per-antenna frame length in samples (2 training + data symbols).
    pub fn frame_samples(&self, len: usize) -> usize {
        (2 + self.num_data_symbols(len)) * N_SYM_SAMPLES
    }

    fn codec(&self) -> DataCodec {
        let n_cbps = N_DATA * self.modulation.bits_per_subcarrier();
        DataCodec::new(self.code_rate, n_cbps, self.scrambler_seed)
    }

    fn interleaver(&self) -> Interleaver {
        let bpsc = self.modulation.bits_per_subcarrier();
        Interleaver::new(N_DATA * bpsc, bpsc)
    }

    /// Encodes a payload into the two per-antenna sample streams.
    pub fn transmit(&self, payload: &[u8]) -> Vec<Vec<Complex>> {
        let mut ant = vec![vec![Complex::ZERO; self.frame_samples(payload.len())]; 2];
        // Two training symbols with the 2×2 P cover.
        write_training(&mut ant, 2, FRAC_1_SQRT_2);

        let il = self.interleaver();
        let constellation = Constellation::new(self.modulation);
        let mut interleaved = vec![0u8; il.block_size()];
        // The pair's first and second symbol: s1, s2.
        let mut pair = [[Complex::ZERO; N_DATA]; 2];
        let n_sym = self.num_data_symbols(payload.len());
        self.codec().encode(payload, n_sym, |s, coded| {
            il.interleave_into(coded, &mut interleaved);
            constellation.map_into(&interleaved, &mut pair[s % 2]);
            if s % 2 == 0 {
                return;
            }
            // Alamouti pairs: over symbols (2t, 2t+1), per subcarrier:
            //   time 2t:   ant0 → s1,       ant1 → s2
            //   time 2t+1: ant0 → −s2*,     ant1 → s1*
            let [s1, s2] = &pair;
            let [ant0, ant1] = &mut ant[..] else {
                return;
            };
            let first = (2 + s - 1) * N_SYM_SAMPLES;
            let second = first + N_SYM_SAMPLES;
            alamouti_symbol_into(s1, |v| v, &mut ant0[first..second]);
            alamouti_symbol_into(s2, |v| v, &mut ant1[first..second]);
            alamouti_symbol_into(s2, |v| -v.conj(), &mut ant0[second..][..N_SYM_SAMPLES]);
            alamouti_symbol_into(s1, |v| v.conj(), &mut ant1[second..][..N_SYM_SAMPLES]);
        });
        ant
    }

    /// Decodes per-antenna receive streams (channel assumed static per
    /// frame, estimated from the training symbols; the combiner needs no
    /// noise variance). Malformed input — wrong antenna count or truncated
    /// streams — returns a typed [`WlanError`] instead of panicking.
    pub fn receive(&self, rx: &[Vec<Complex>], payload_len: usize) -> Result<Vec<u8>, WlanError> {
        let n_sym = self.num_data_symbols(payload_len);
        let spectra = Spectra::new(rx, self.n_rx, 2 + n_sym)?;
        let h = spectra.channel(2, 2)?;

        // Alamouti combining per subcarrier over symbol pairs: the pair is
        // combined at its first symbol, and each symbol is then demapped
        // and deinterleaved into the codec.
        let il = self.interleaver();
        let bpsc = self.modulation.bits_per_subcarrier();
        let mut llrs = vec![0.0; il.block_size()];
        let mut combined = [[Complex::ZERO; N_DATA]; 2];
        let mut csi = [0.0; N_DATA];
        self.codec().decode(payload_len, n_sym, |s, out| {
            if s % 2 == 0 {
                for (c, (&k, h)) in data_carriers().iter().zip(&h).enumerate() {
                    let bin = carrier_to_bin(k);
                    let mut c1 = Complex::ZERO;
                    let mut c2 = Complex::ZERO;
                    let mut gain = 0.0;
                    for r in 0..self.n_rx {
                        let (h1, h2) = (h.get(r, 0), h.get(r, 1));
                        let (a, b) = (spectra.bins(2 + s, r)[bin], spectra.bins(3 + s, r)[bin]);
                        c1 += h1.conj() * a + h2 * b.conj();
                        c2 += h2.conj() * a - h1 * b.conj();
                        gain += h1.norm_sqr() + h2.norm_sqr();
                    }
                    // The h estimates already include the 1/√2 TX scaling,
                    // so the combiner normalization uses the estimated
                    // gain itself.
                    let norm = gain.max(1e-300);
                    combined[0][c] = c1 / norm;
                    combined[1][c] = c2 / norm;
                    csi[c] = gain * FRAC_1_SQRT_2 * FRAC_1_SQRT_2;
                }
            }
            let symbol = combined[s % 2].iter().zip(&csi);
            for ((&y, &w), slot) in symbol.zip(llrs.chunks_exact_mut(bpsc)) {
                qam::demap_soft_into(self.modulation, y, w, slot);
            }
            il.deinterleave_soft_into(&llrs, out);
        })
    }
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
        let phy = StbcOfdmPhy::new(Modulation::Qpsk, CodeRate::R1_2, 1).unwrap();
        let payload: Vec<u8> = (0..60).map(|i| (i * 13) as u8).collect();
        let tx = phy.transmit(&payload);
        let rx = identity_rx(&tx);
        assert_eq!(phy.receive(&[rx], payload.len()).unwrap(), payload);
    }

    #[test]
    fn data_symbol_count_is_even() {
        let phy = StbcOfdmPhy::new(Modulation::Bpsk, CodeRate::R1_2, 1).unwrap();
        for len in [1usize, 10, 33, 100] {
            assert_eq!(phy.num_data_symbols(len) % 2, 0, "len {len}");
        }
    }

    #[test]
    fn rate_is_single_stream() {
        // STBC spends the second antenna on diversity, not rate: QPSK r=1/2
        // stays at 12 Mbps.
        let phy = StbcOfdmPhy::new(Modulation::Qpsk, CodeRate::R1_2, 2).unwrap();
        assert!((phy.rate_mbps() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn total_tx_power_matches_siso() {
        let phy = StbcOfdmPhy::new(Modulation::Qam16, CodeRate::R3_4, 1).unwrap();
        let tx = phy.transmit(&[0x5Au8; 200]);
        let total: f64 = tx.iter().map(|a| wlan_math::complex::mean_power(a)).sum();
        assert!((total - 1.0).abs() < 0.15, "total TX power {total}");
    }

    #[test]
    fn roundtrip_through_fading_mimo_channel() {
        let mut rng = WlanRng::seed_from_u64(170);
        let phy = StbcOfdmPhy::new(Modulation::Qpsk, CodeRate::R1_2, 2).unwrap();
        let payload: Vec<u8> = (0..80).map(|_| rng.gen()).collect();
        let pdp = PowerDelayProfile::flat();
        let n0 = wlan_math::special::db_to_lin(-18.0);
        let mut ok = 0;
        let trials = 10;
        for _ in 0..trials {
            let ch = MimoMultipathChannel::realize(2, 2, &pdp, &mut rng);
            let tx = phy.transmit(&payload);
            let rx = ch.propagate(&tx, n0, &mut rng).unwrap();
            if phy.receive(&rx, payload.len()).unwrap() == payload {
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
        })
        .unwrap();
        let stbc = StbcOfdmPhy::new(Modulation::Qpsk, CodeRate::R1_2, 1).unwrap();

        let mut siso_ok = 0;
        let mut stbc_ok = 0;
        for _ in 0..trials {
            let ch1 = MimoMultipathChannel::realize(1, 1, &pdp, &mut rng);
            let tx = siso.transmit(&payload);
            let rx = ch1.propagate(&tx, n0, &mut rng).unwrap();
            if siso.receive(&rx, n0, payload.len()).unwrap() == payload {
                siso_ok += 1;
            }
            let ch2 = MimoMultipathChannel::realize(1, 2, &pdp, &mut rng);
            let tx = stbc.transmit(&payload);
            let rx = ch2.propagate(&tx, n0, &mut rng).unwrap();
            if stbc.receive(&rx, payload.len()).unwrap() == payload {
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
        let phy = StbcOfdmPhy::new(Modulation::Qpsk, CodeRate::R1_2, 1).unwrap();
        let payload = b"stbc erasure";
        let tx = phy.transmit(payload);
        let rx = identity_rx(&tx);
        assert_eq!(
            phy.receive(std::slice::from_ref(&rx), payload.len())
                .unwrap(),
            payload.to_vec()
        );
        let err = phy
            .receive(&[rx[..100].to_vec()], payload.len())
            .unwrap_err();
        assert!(matches!(err, WlanError::FrameTruncated { .. }), "{err:?}");
        let err = phy.receive(&[], payload.len()).unwrap_err();
        assert_eq!(err, WlanError::LengthMismatch { expected: 1, got: 0 });
    }

    #[test]
    fn rx_count_checked() {
        let phy = StbcOfdmPhy::new(Modulation::Bpsk, CodeRate::R1_2, 2).unwrap();
        let tx = phy.transmit(&[1, 2, 3]);
        let rx = identity_rx(&tx);
        let err = phy.receive(&[rx], 3).unwrap_err();
        assert_eq!(err, WlanError::LengthMismatch { expected: 2, got: 1 });
        for n_rx in [0, 5] {
            let err = StbcOfdmPhy::new(Modulation::Bpsk, CodeRate::R1_2, n_rx).unwrap_err();
            assert!(matches!(err, WlanError::InvalidConfig(_)), "{err:?}");
        }
    }
}
