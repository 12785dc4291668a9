//! Frame-level DSSS/CCK transmit and receive chains.
//!
//! [`DsssPhy`] ties scrambling, modulation and spreading into the
//! chip-stream interface the link simulator drives: bits in → 11 Mchip/s
//! complex baseband out, and back.

use crate::barker;
use crate::cck::{CckDemodulator, CckModulator, CckRate};
use crate::modem::{Dbpsk, Dqpsk};
use wlan_coding::scrambler::Scrambler;
use wlan_math::Complex;

/// Data rates of the 802.11-1999 and 802.11b DSSS PHYs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DsssRate {
    /// 1 Mbps DBPSK + Barker-11 (802.11-1999).
    Dbpsk1M,
    /// 2 Mbps DQPSK + Barker-11 (802.11-1999).
    Dqpsk2M,
    /// 5.5 Mbps CCK (802.11b).
    Cck5_5M,
    /// 11 Mbps CCK (802.11b).
    Cck11M,
}

impl DsssRate {
    /// Data rate in Mbps.
    pub fn rate_mbps(self) -> f64 {
        match self {
            DsssRate::Dbpsk1M => 1.0,
            DsssRate::Dqpsk2M => 2.0,
            DsssRate::Cck5_5M => 5.5,
            DsssRate::Cck11M => 11.0,
        }
    }

    /// Occupied channel bandwidth in MHz (the paper quotes 20 MHz for the
    /// original DSSS channelization and 22 MHz for 802.11b).
    pub fn bandwidth_mhz(self) -> f64 {
        match self {
            DsssRate::Dbpsk1M | DsssRate::Dqpsk2M => 20.0,
            DsssRate::Cck5_5M | DsssRate::Cck11M => 22.0,
        }
    }

    /// Spectral efficiency in bps/Hz (the paper's headline metric).
    pub fn spectral_efficiency(self) -> f64 {
        self.rate_mbps() / self.bandwidth_mhz()
    }

    /// Information bits per modulation symbol.
    pub fn bits_per_symbol(self) -> usize {
        match self {
            DsssRate::Dbpsk1M => 1,
            DsssRate::Dqpsk2M => 2,
            DsssRate::Cck5_5M => 4,
            DsssRate::Cck11M => 8,
        }
    }

    /// All DSSS-family rates in increasing order.
    pub fn all() -> [DsssRate; 4] {
        [
            DsssRate::Dbpsk1M,
            DsssRate::Dqpsk2M,
            DsssRate::Cck5_5M,
            DsssRate::Cck11M,
        ]
    }
}

impl std::fmt::Display for DsssRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DsssRate::Dbpsk1M => write!(f, "1 Mbps DBPSK"),
            DsssRate::Dqpsk2M => write!(f, "2 Mbps DQPSK"),
            DsssRate::Cck5_5M => write!(f, "5.5 Mbps CCK"),
            DsssRate::Cck11M => write!(f, "11 Mbps CCK"),
        }
    }
}

/// A complete DSSS/CCK PHY at a fixed rate.
///
/// # Examples
///
/// ```
/// use wlan_dsss::{DsssPhy, DsssRate};
///
/// let phy = DsssPhy::new(DsssRate::Cck11M);
/// let bits = vec![0, 1, 1, 0, 1, 0, 1, 1];
/// let chips = phy.transmit(&bits);
/// assert_eq!(phy.receive(&chips), bits);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsssPhy {
    rate: DsssRate,
    scrambler_seed: u8,
}

impl DsssPhy {
    /// Creates a PHY at the given rate with the reference scrambler seed.
    pub fn new(rate: DsssRate) -> Self {
        DsssPhy {
            rate,
            scrambler_seed: 0x7F,
        }
    }

    /// The configured rate.
    pub fn rate(&self) -> DsssRate {
        self.rate
    }

    /// Pads `bits` to a whole number of symbols (with zeros) and returns the
    /// padded length the receiver will produce.
    fn padded_len(&self, num_bits: usize) -> usize {
        let bps = self.rate.bits_per_symbol();
        num_bits.div_ceil(bps) * bps
    }

    /// Transmits bits as 11 Mchip/s complex baseband.
    ///
    /// Bits are scrambled, padded to a whole symbol, then modulated and
    /// spread. Average chip power is 1.
    pub fn transmit(&self, bits: &[u8]) -> Vec<Complex> {
        let mut padded = bits.to_vec();
        padded.resize(self.padded_len(bits.len()), 0);
        let scrambled = Scrambler::new(self.scrambler_seed).scramble(&padded);
        match self.rate {
            DsssRate::Dbpsk1M => {
                let symbols = Dbpsk::modulate(&scrambled);
                let mut chips = barker::spread(&symbols);
                for c in chips.iter_mut() {
                    *c = c.scale((barker::SPREAD_FACTOR as f64).sqrt());
                }
                chips
            }
            DsssRate::Dqpsk2M => {
                let symbols = Dqpsk::modulate(&scrambled);
                let mut chips = barker::spread(&symbols);
                for c in chips.iter_mut() {
                    *c = c.scale((barker::SPREAD_FACTOR as f64).sqrt());
                }
                chips
            }
            DsssRate::Cck5_5M => CckModulator::new(CckRate::Half).modulate(&scrambled),
            DsssRate::Cck11M => CckModulator::new(CckRate::Full).modulate(&scrambled),
        }
    }

    /// Receives a chip stream back into (descrambled) bits.
    ///
    /// The output length is the padded bit count; callers truncate to their
    /// original length.
    ///
    /// # Panics
    ///
    /// Panics if the chip stream is not a whole number of symbols.
    pub fn receive(&self, chips: &[Complex]) -> Vec<u8> {
        let scrambled = match self.rate {
            DsssRate::Dbpsk1M => {
                let symbols = barker::despread(chips);
                Dbpsk::demodulate(&symbols)
            }
            DsssRate::Dqpsk2M => {
                let symbols = barker::despread(chips);
                Dqpsk::demodulate(&symbols)
            }
            DsssRate::Cck5_5M => CckDemodulator::new(CckRate::Half).demodulate(chips),
            DsssRate::Cck11M => CckDemodulator::new(CckRate::Full).demodulate(chips),
        };
        Scrambler::new(self.scrambler_seed).scramble(&scrambled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::rng::{Rng, WlanRng};

    #[test]
    fn spectral_efficiencies_match_paper() {
        // Paper: 0.1 bps/Hz for the original standard, 0.5 for 802.11b.
        assert!((DsssRate::Dqpsk2M.spectral_efficiency() - 0.1).abs() < 1e-12);
        assert!((DsssRate::Cck11M.spectral_efficiency() - 0.5).abs() < 1e-12);
        // And the paper's "fivefold increase".
        let ratio =
            DsssRate::Cck11M.spectral_efficiency() / DsssRate::Dqpsk2M.spectral_efficiency();
        assert!((ratio - 5.0).abs() < 1e-12);
    }

    #[test]
    fn all_rates_roundtrip_clean() {
        let mut rng = WlanRng::seed_from_u64(80);
        for rate in DsssRate::all() {
            let phy = DsssPhy::new(rate);
            let bits: Vec<u8> = (0..160).map(|_| rng.gen_range(0..2u8)).collect();
            let chips = phy.transmit(&bits);
            let out = phy.receive(&chips);
            assert_eq!(&out[..bits.len()], bits.as_slice(), "{rate}");
        }
    }

    #[test]
    fn odd_length_payload_is_padded() {
        let phy = DsssPhy::new(DsssRate::Cck11M);
        let bits = vec![1, 0, 1]; // not a multiple of 8
        let chips = phy.transmit(&bits);
        let out = phy.receive(&chips);
        assert_eq!(out.len(), 8);
        assert_eq!(&out[..3], bits.as_slice());
    }

    #[test]
    fn chip_power_is_unity() {
        let mut rng = WlanRng::seed_from_u64(81);
        for rate in DsssRate::all() {
            let phy = DsssPhy::new(rate);
            let bits: Vec<u8> = (0..800).map(|_| rng.gen_range(0..2u8)).collect();
            let chips = phy.transmit(&bits);
            let p = wlan_math::complex::mean_power(&chips);
            assert!((p - 1.0).abs() < 0.01, "{rate}: chip power {p}");
        }
    }

    #[test]
    fn scrambling_whitens_constant_payload() {
        // An all-zero payload must not produce a repetitive chip pattern
        // (that is the scrambler's whole job).
        let phy = DsssPhy::new(DsssRate::Dbpsk1M);
        let chips = phy.transmit(&[0u8; 64]);
        // Count sign changes in the real part: a constant payload without
        // scrambling would produce none beyond the Barker structure.
        let distinct_symbols: std::collections::HashSet<i8> = chips
            .chunks(barker::SPREAD_FACTOR)
            .map(|c| c[0].re.signum() as i8)
            .collect();
        assert_eq!(distinct_symbols.len(), 2, "scrambler must flip symbols");
    }

    #[test]
    fn roundtrip_through_awgn() {
        let mut rng = WlanRng::seed_from_u64(82);
        let phy = DsssPhy::new(DsssRate::Dqpsk2M);
        let bits: Vec<u8> = (0..400).map(|_| rng.gen_range(0..2u8)).collect();
        let mut chips = phy.transmit(&bits);
        // 0 dB chip SNR → 10.4 dB post-despreading: DQPSK survives easily.
        for c in chips.iter_mut() {
            *c += wlan_channel::noise::complex_gaussian(&mut rng);
        }
        let out = phy.receive(&chips);
        let errors = out[..bits.len()]
            .iter()
            .zip(&bits)
            .filter(|(a, b)| a != b)
            .count();
        // Expected BER here is well under 1%; 3% leaves headroom for the
        // particular noise realization without masking a broken receiver.
        assert!(errors < 12, "too many errors after despreading: {errors}");
    }
}
