//! The 802.11n HT modulation-and-coding-scheme table.
//!
//! MCS 0–31 cover one to four spatial streams, each cycling through the
//! eight base modulation/rate combinations. Together with the 40 MHz channel
//! and the 400 ns short guard interval this table is where the paper's
//! "600 Mbps" and "~15 bps/Hz" figures come from.

use wlan_coding::CodeRate;
use wlan_ofdm::params::Modulation;

/// Channel bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bandwidth {
    /// 20 MHz: 52 data subcarriers.
    Mhz20,
    /// 40 MHz: 108 data subcarriers.
    Mhz40,
}

impl Bandwidth {
    /// Data subcarriers carried (802.11n HT: 52 / 108).
    fn data_subcarriers(self) -> usize {
        match self {
            Bandwidth::Mhz20 => 52,
            Bandwidth::Mhz40 => 108,
        }
    }

    /// Channel width in MHz.
    pub fn mhz(self) -> f64 {
        match self {
            Bandwidth::Mhz20 => 20.0,
            Bandwidth::Mhz40 => 40.0,
        }
    }
}

/// OFDM guard interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuardInterval {
    /// 800 ns (4.0 µs symbol).
    Long,
    /// 400 ns (3.6 µs symbol).
    Short,
}

impl GuardInterval {
    /// Total symbol duration in microseconds (3.2 µs FFT + GI).
    fn symbol_duration_us(self) -> f64 {
        match self {
            GuardInterval::Long => 4.0,
            GuardInterval::Short => 3.6,
        }
    }
}

/// One row of the HT MCS table.
///
/// # Examples
///
/// ```
/// use wlan_mimo::mcs::{Bandwidth, GuardInterval, HtMcs};
///
/// let mcs15 = HtMcs::new(15).unwrap();
/// let r = mcs15.data_rate_mbps(Bandwidth::Mhz20, GuardInterval::Long);
/// assert!((r - 130.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HtMcs {
    index: u8,
}

impl HtMcs {
    /// Creates MCS `index` (0–31). Returns `None` for out-of-range indices.
    pub fn new(index: u8) -> Option<Self> {
        (index < 32).then_some(HtMcs { index })
    }

    /// All 32 MCS entries.
    pub fn all() -> impl Iterator<Item = HtMcs> {
        (0..32).map(|i| HtMcs { index: i })
    }

    /// The MCS index.
    pub fn index(&self) -> u8 {
        self.index
    }

    /// Number of spatial streams (1–4).
    fn spatial_streams(&self) -> usize {
        self.index as usize / 8 + 1
    }

    /// Subcarrier modulation.
    pub fn modulation(&self) -> Modulation {
        match self.index % 8 {
            0 => Modulation::Bpsk,
            1 | 2 => Modulation::Qpsk,
            3 | 4 => Modulation::Qam16,
            _ => Modulation::Qam64,
        }
    }

    /// Convolutional/LDPC code rate.
    pub fn code_rate(&self) -> CodeRate {
        match self.index % 8 {
            0 | 1 | 3 => CodeRate::R1_2,
            2 | 4 | 6 => CodeRate::R3_4,
            5 => CodeRate::R2_3,
            _ => CodeRate::R5_6,
        }
    }

    /// Data bits per OFDM symbol across all streams.
    pub fn data_bits_per_symbol(&self, bw: Bandwidth) -> f64 {
        bw.data_subcarriers() as f64
            * self.modulation().bits_per_subcarrier() as f64
            * self.code_rate().as_f64()
            * self.spatial_streams() as f64
    }

    /// PHY data rate in Mbps.
    pub fn data_rate_mbps(&self, bw: Bandwidth, gi: GuardInterval) -> f64 {
        self.data_bits_per_symbol(bw) / gi.symbol_duration_us()
    }

    /// Spectral efficiency in bps/Hz.
    pub fn spectral_efficiency(&self, bw: Bandwidth, gi: GuardInterval) -> f64 {
        self.data_rate_mbps(bw, gi) / bw.mhz()
    }
}

impl std::fmt::Display for HtMcs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MCS{} ({}×{}, r={})",
            self.index,
            self.spatial_streams(),
            self.modulation(),
            self.code_rate()
        )
    }
}

/// The peak 802.11n rate: MCS 31, 40 MHz, short GI (600 Mbps).
pub fn peak_rate_mbps() -> f64 {
    // MCS 31 is always constructible; the fallback is its known rate, so
    // this stays total without a panic path.
    HtMcs::new(31)
        .map(|mcs| mcs.data_rate_mbps(Bandwidth::Mhz40, GuardInterval::Short))
        .unwrap_or(600.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mcs0_to_7_match_standard_rates() {
        // 20 MHz, long GI single-stream rates from IEEE 802.11n table 20-30.
        let want = [6.5, 13.0, 19.5, 26.0, 39.0, 52.0, 58.5, 65.0];
        for (i, &w) in want.iter().enumerate() {
            let mcs = HtMcs::new(i as u8).unwrap();
            let r = mcs.data_rate_mbps(Bandwidth::Mhz20, GuardInterval::Long);
            assert!((r - w).abs() < 1e-9, "MCS{i}: {r} vs {w}");
        }
    }

    #[test]
    fn rates_scale_linearly_with_streams() {
        for base in 0..8u8 {
            let one = HtMcs::new(base).unwrap();
            for extra in 1..4u8 {
                let multi = HtMcs::new(base + 8 * extra).unwrap();
                let ratio = multi.data_rate_mbps(Bandwidth::Mhz20, GuardInterval::Long)
                    / one.data_rate_mbps(Bandwidth::Mhz20, GuardInterval::Long);
                assert!((ratio - (extra + 1) as f64).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn peak_rate_is_600() {
        assert!((peak_rate_mbps() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn peak_spectral_efficiency_is_15() {
        // The paper: "efficiencies up to 15 bps/Hz are likely to be specified".
        let se = HtMcs::new(31)
            .unwrap()
            .spectral_efficiency(Bandwidth::Mhz40, GuardInterval::Short);
        assert!((se - 15.0).abs() < 1e-9);
    }

    #[test]
    fn short_gi_gives_10_over_9() {
        let mcs = HtMcs::new(7).unwrap();
        let long = mcs.data_rate_mbps(Bandwidth::Mhz20, GuardInterval::Long);
        let short = mcs.data_rate_mbps(Bandwidth::Mhz20, GuardInterval::Short);
        assert!((short / long - 10.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn mcs_32_is_rejected() {
        assert!(HtMcs::new(32).is_none());
        assert_eq!(HtMcs::all().count(), 32);
    }

    #[test]
    fn mcs_table_modulations_cycle() {
        let m7 = HtMcs::new(7).unwrap();
        assert_eq!(m7.modulation(), Modulation::Qam64);
        assert_eq!(m7.code_rate(), CodeRate::R5_6);
        let m8 = HtMcs::new(8).unwrap();
        assert_eq!(m8.modulation(), Modulation::Bpsk);
        assert_eq!(m8.spatial_streams(), 2);
        assert_eq!(HtMcs::new(15).unwrap().spatial_streams(), 2);
    }

    #[test]
    fn fivefold_over_dot11a() {
        // The historical trend: each generation ≈ 5× the previous spectral
        // efficiency. 15 bps/Hz vs 802.11a's 2.7 → 5.56×.
        let se_n = HtMcs::new(31)
            .unwrap()
            .spectral_efficiency(Bandwidth::Mhz40, GuardInterval::Short);
        let se_a = 2.7;
        let ratio = se_n / se_a;
        assert!(ratio > 4.5 && ratio < 6.5, "ratio {ratio}");
    }
}
