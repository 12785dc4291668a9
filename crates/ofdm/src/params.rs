//! 802.11a symbol geometry and rate-dependent parameters (clause 17).

use wlan_coding::CodeRate;

/// FFT length at 20 MHz.
pub const N_FFT: usize = 64;
/// Cyclic prefix length in samples (0.8 µs at 20 MHz).
pub const N_CP: usize = 16;
/// Samples per OFDM symbol including CP (4 µs at 20 MHz).
pub const N_SYM_SAMPLES: usize = N_FFT + N_CP;
/// Number of data subcarriers.
pub const N_DATA: usize = 48;
/// Number of pilot subcarriers.
pub const N_PILOTS: usize = 4;
/// Occupied subcarriers (data + pilots).
pub const N_OCCUPIED: usize = N_DATA + N_PILOTS;
/// Sample rate in Hz.
pub const SAMPLE_RATE_HZ: f64 = 20e6;
/// Pilot subcarrier indices (signed, DC = 0).
pub const PILOT_CARRIERS: [i32; 4] = [-21, -7, 7, 21];
/// Base pilot values before the polarity sequence (at −21, −7, +7, +21).
pub const PILOT_VALUES: [f64; 4] = [1.0, 1.0, 1.0, -1.0];

/// Modulation order per subcarrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// 1 bit/subcarrier.
    Bpsk,
    /// 2 bits/subcarrier.
    Qpsk,
    /// 4 bits/subcarrier.
    Qam16,
    /// 6 bits/subcarrier.
    Qam64,
}

impl Modulation {
    /// Coded bits carried per subcarrier (`N_BPSC`).
    pub fn bits_per_subcarrier(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// Constellation size `M`.
    pub fn order(self) -> u32 {
        1 << self.bits_per_subcarrier()
    }
}

impl std::fmt::Display for Modulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Modulation::Bpsk => write!(f, "BPSK"),
            Modulation::Qpsk => write!(f, "QPSK"),
            Modulation::Qam16 => write!(f, "16-QAM"),
            Modulation::Qam64 => write!(f, "64-QAM"),
        }
    }
}

/// The eight 802.11a data rates (table 78).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OfdmRate {
    /// 6 Mbps — BPSK, rate 1/2.
    R6,
    /// 9 Mbps — BPSK, rate 3/4.
    R9,
    /// 12 Mbps — QPSK, rate 1/2.
    R12,
    /// 18 Mbps — QPSK, rate 3/4.
    R18,
    /// 24 Mbps — 16-QAM, rate 1/2.
    R24,
    /// 36 Mbps — 16-QAM, rate 3/4.
    R36,
    /// 48 Mbps — 64-QAM, rate 2/3.
    R48,
    /// 54 Mbps — 64-QAM, rate 3/4.
    R54,
}

impl OfdmRate {
    /// All rates in increasing order.
    pub fn all() -> [OfdmRate; 8] {
        [
            OfdmRate::R6,
            OfdmRate::R9,
            OfdmRate::R12,
            OfdmRate::R18,
            OfdmRate::R24,
            OfdmRate::R36,
            OfdmRate::R48,
            OfdmRate::R54,
        ]
    }

    /// Data rate in Mbps.
    pub fn rate_mbps(self) -> f64 {
        match self {
            OfdmRate::R6 => 6.0,
            OfdmRate::R9 => 9.0,
            OfdmRate::R12 => 12.0,
            OfdmRate::R18 => 18.0,
            OfdmRate::R24 => 24.0,
            OfdmRate::R36 => 36.0,
            OfdmRate::R48 => 48.0,
            OfdmRate::R54 => 54.0,
        }
    }

    /// Subcarrier modulation.
    pub fn modulation(self) -> Modulation {
        match self {
            OfdmRate::R6 | OfdmRate::R9 => Modulation::Bpsk,
            OfdmRate::R12 | OfdmRate::R18 => Modulation::Qpsk,
            OfdmRate::R24 | OfdmRate::R36 => Modulation::Qam16,
            OfdmRate::R48 | OfdmRate::R54 => Modulation::Qam64,
        }
    }

    /// Convolutional code rate.
    pub fn code_rate(self) -> CodeRate {
        match self {
            OfdmRate::R6 | OfdmRate::R12 | OfdmRate::R24 => CodeRate::R1_2,
            OfdmRate::R48 => CodeRate::R2_3,
            OfdmRate::R9 | OfdmRate::R18 | OfdmRate::R36 | OfdmRate::R54 => CodeRate::R3_4,
        }
    }

    /// Coded bits per OFDM symbol (`N_CBPS`).
    pub fn coded_bits_per_symbol(self) -> usize {
        N_DATA * self.modulation().bits_per_subcarrier()
    }

    /// Data bits per OFDM symbol (`N_DBPS`).
    pub fn data_bits_per_symbol(self) -> usize {
        let (n, d) = self.code_rate().as_fraction();
        self.coded_bits_per_symbol() * n / d
    }

    /// Channel bandwidth in MHz.
    pub fn bandwidth_mhz(self) -> f64 {
        20.0
    }

    /// Spectral efficiency in bps/Hz.
    pub fn spectral_efficiency(self) -> f64 {
        self.rate_mbps() / self.bandwidth_mhz()
    }

    /// The 4-bit RATE field encoding in the SIGNAL symbol (table 80).
    pub fn signal_bits(self) -> [u8; 4] {
        match self {
            OfdmRate::R6 => [1, 1, 0, 1],
            OfdmRate::R9 => [1, 1, 1, 1],
            OfdmRate::R12 => [0, 1, 0, 1],
            OfdmRate::R18 => [0, 1, 1, 1],
            OfdmRate::R24 => [1, 0, 0, 1],
            OfdmRate::R36 => [1, 0, 1, 1],
            OfdmRate::R48 => [0, 0, 0, 1],
            OfdmRate::R54 => [0, 0, 1, 1],
        }
    }

    /// Parses a RATE field back into a rate.
    pub fn from_signal_bits(bits: [u8; 4]) -> Option<OfdmRate> {
        OfdmRate::all().into_iter().find(|r| r.signal_bits() == bits)
    }
}

impl std::fmt::Display for OfdmRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} Mbps ({}, r={})",
            self.rate_mbps(),
            self.modulation(),
            self.code_rate()
        )
    }
}

/// The signed occupied-subcarrier indices in mapping order
/// (−26 … −1, 1 … 26, skipping DC), data and pilots interleaved per the
/// standard layout.
fn occupied_carriers() -> Vec<i32> {
    (-26..=26).filter(|&k| k != 0).collect()
}

/// The 48 data subcarrier indices in mapping order (occupied minus pilots).
///
/// Computed once per process: symbol assembly and equalization index this
/// table once per OFDM symbol, so it must not allocate per call.
pub fn data_carriers() -> &'static [i32; N_DATA] {
    static CACHE: std::sync::OnceLock<[i32; N_DATA]> = std::sync::OnceLock::new();
    CACHE.get_or_init(|| {
        let mut table = [0i32; N_DATA];
        let carriers = occupied_carriers()
            .into_iter()
            .filter(|k| !PILOT_CARRIERS.contains(k));
        for (slot, k) in table.iter_mut().zip(carriers) {
            *slot = k;
        }
        table
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_table_is_self_consistent() {
        // N_DBPS · (1 symbol / 4 µs) must equal the advertised rate.
        for rate in OfdmRate::all() {
            let symbol_s = N_SYM_SAMPLES as f64 / SAMPLE_RATE_HZ;
            let mbps = rate.data_bits_per_symbol() as f64 / (symbol_s * 1e6);
            assert!(
                (mbps - rate.rate_mbps()).abs() < 1e-9,
                "{rate}: {mbps} Mbps from table"
            );
        }
    }

    #[test]
    fn ncbps_ndbps_match_standard() {
        let want = [
            (OfdmRate::R6, 48, 24),
            (OfdmRate::R9, 48, 36),
            (OfdmRate::R12, 96, 48),
            (OfdmRate::R18, 96, 72),
            (OfdmRate::R24, 192, 96),
            (OfdmRate::R36, 192, 144),
            (OfdmRate::R48, 288, 192),
            (OfdmRate::R54, 288, 216),
        ];
        for (rate, ncbps, ndbps) in want {
            assert_eq!(rate.coded_bits_per_symbol(), ncbps, "{rate}");
            assert_eq!(rate.data_bits_per_symbol(), ndbps, "{rate}");
        }
    }

    #[test]
    fn spectral_efficiency_peaks_at_2_7() {
        // The paper: "A maximum data rate of 54 Mbps yielded a spectral
        // efficiency of 2.7 bps/Hz".
        assert!((OfdmRate::R54.spectral_efficiency() - 2.7).abs() < 1e-12);
    }

    #[test]
    fn carrier_sets_partition() {
        let data = data_carriers();
        let occ = occupied_carriers();
        assert_eq!(occ.len(), N_OCCUPIED);
        assert_eq!(data.len(), N_DATA);
        for p in PILOT_CARRIERS {
            assert!(occ.contains(&p));
            assert!(!data.contains(&p));
        }
        assert!(!occ.contains(&0), "DC must be unused");
    }

    #[test]
    fn signal_bits_roundtrip() {
        for rate in OfdmRate::all() {
            assert_eq!(OfdmRate::from_signal_bits(rate.signal_bits()), Some(rate));
        }
        assert_eq!(OfdmRate::from_signal_bits([0, 0, 0, 0]), None);
    }

    #[test]
    fn rates_strictly_increase() {
        let all = OfdmRate::all();
        for w in all.windows(2) {
            assert!(w[0].rate_mbps() < w[1].rate_mbps());
        }
    }
}
