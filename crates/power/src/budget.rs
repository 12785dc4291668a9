//! The device power budget: RF chains and baseband processing.
//!
//! Experiment E11 asks how total power scales from one antenna to four.
//! Structure of the model:
//!
//! - each transmit chain: DAC, mixer, filters (fixed mW) plus its share of
//!   the PA draw,
//! - each receive chain: LNA, mixer, ADC, AGC (fixed mW),
//! - baseband: energy per complex multiply-accumulate times the op counts
//!   of the blocks actually running (FFTs per stream, MIMO detection per
//!   subcarrier, Viterbi/LDPC per bit).
//!
//! Constants are mid-2000s published estimates; the experiments report
//! ratios, which depend on the model structure (chains × antennas,
//! detection ∝ streams², decoding ∝ bits) rather than the constants.

use crate::pa::PaClass;

/// Energy per complex multiply-accumulate in nanojoules (~0.13 µm CMOS).
pub const ENERGY_PER_CMAC_NJ: f64 = 0.02;
/// Energy per Viterbi trellis step (64 states, add-compare-select) in nJ.
pub const ENERGY_PER_VITERBI_BIT_NJ: f64 = 0.3;

/// A WLAN transceiver power budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBudget {
    /// Transmit chains (= antennas here).
    pub n_tx: usize,
    /// Receive chains.
    pub n_rx: usize,
    /// Fixed power per active TX chain in mW (excluding PA).
    pub tx_chain_mw: f64,
    /// Fixed power per active RX chain in mW.
    pub rx_chain_mw: f64,
    /// Shared synthesizer/PLL power in mW.
    pub synthesizer_mw: f64,
    /// Average radiated power in mW.
    pub radiated_mw: f64,
    /// PA class.
    pub pa_class: PaClass,
    /// PA output back-off in dB (driven by the waveform's PAPR).
    pub pa_backoff_db: f64,
}

impl PowerBudget {
    /// A typical mid-2000s CMOS WLAN radio with the given antenna counts:
    /// 120 mW per TX chain, 100 mW per RX chain, 40 mW synthesizer, 40 mW
    /// radiated through a class-B PA backed off 8 dB (OFDM).
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn wlan_2005(n_tx: usize, n_rx: usize) -> Self {
        assert!(n_tx > 0 && n_rx > 0, "chain counts must be positive");
        PowerBudget {
            n_tx,
            n_rx,
            tx_chain_mw: 120.0,
            rx_chain_mw: 100.0,
            synthesizer_mw: 40.0,
            radiated_mw: 40.0,
            pa_class: PaClass::B,
            pa_backoff_db: 8.0,
        }
    }

    /// Total transmit-mode RF power in mW: chains + PA + synthesizer. The
    /// radiated power is split across `n_tx` PAs (each backed off equally).
    pub fn tx_active_mw(&self) -> f64 {
        let pa_total = self.pa_class.dc_power_mw(self.radiated_mw, self.pa_backoff_db);
        self.synthesizer_mw + self.n_tx as f64 * self.tx_chain_mw + pa_total
    }

    /// Total receive-mode RF power in mW (all chains on).
    pub fn rx_active_mw(&self) -> f64 {
        self.synthesizer_mw + self.n_rx as f64 * self.rx_chain_mw
    }

    /// Receive-mode RF power with only `active` chains powered.
    ///
    /// # Panics
    ///
    /// Panics if `active` is 0 or exceeds `n_rx`.
    pub fn rx_partial_mw(&self, active: usize) -> f64 {
        assert!(
            (1..=self.n_rx).contains(&active),
            "active chains must be 1..=n_rx"
        );
        self.synthesizer_mw + active as f64 * self.rx_chain_mw
    }
}

/// Baseband op-count models for one OFDM symbol (64-FFT, 48 carriers).
pub mod ops {
    /// Complex MACs for one radix-2 FFT of length `n`.
    pub fn fft_cmacs(n: usize) -> f64 {
        (n as f64 / 2.0) * (n as f64).log2()
    }

    /// Complex MACs to MMSE-detect one subcarrier with `n_ss` streams and
    /// `n_rx` antennas: Gram matrix (n_ss²·n_rx) + inversion (n_ss³) +
    /// filtering (n_ss·n_rx).
    pub fn mimo_detect_cmacs(n_ss: usize, n_rx: usize) -> f64 {
        let s = n_ss as f64;
        let r = n_rx as f64;
        s * s * r + s * s * s + s * r
    }

    /// Viterbi energy in nJ for `bits` decoded bits.
    pub(crate) fn viterbi_nj(bits: f64) -> f64 {
        bits * super::ENERGY_PER_VITERBI_BIT_NJ * 64.0 / 64.0
    }
}

/// Baseband power in mW for a receiver running `n_ss` streams over `n_rx`
/// antennas at `symbol_rate_hz` OFDM symbols per second with `coded_bits`
/// coded bits per symbol (Viterbi decoding).
pub fn baseband_rx_mw(
    n_ss: usize,
    n_rx: usize,
    symbol_rate_hz: f64,
    coded_bits_per_symbol: f64,
) -> f64 {
    let fft = n_rx as f64 * ops::fft_cmacs(64);
    let detect = 48.0 * ops::mimo_detect_cmacs(n_ss, n_rx);
    let cmac_nj = (fft + detect) * ENERGY_PER_CMAC_NJ;
    let viterbi_nj = ops::viterbi_nj(coded_bits_per_symbol / 2.0);
    // nJ per symbol × symbols/s = nW; convert to mW.
    (cmac_nj + viterbi_nj) * symbol_rate_hz * 1e-9 * 1e3
}

/// Energy per delivered information bit in nanojoules, for a link running
/// at `rate_mbps` with total device power `device_mw`.
pub fn energy_per_bit_nj(device_mw: f64, rate_mbps: f64) -> f64 {
    // mW / Mbps = nJ/bit.
    device_mw / rate_mbps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rf_power_scales_with_chains() {
        let siso = PowerBudget::wlan_2005(1, 1);
        let mimo = PowerBudget::wlan_2005(4, 4);
        // RX: 40 + 4·100 = 440 vs 40 + 100 = 140 → >3×.
        assert!(mimo.rx_active_mw() > 3.0 * siso.rx_active_mw() - 1e-9);
        assert!(mimo.tx_active_mw() > 1.8 * siso.tx_active_mw());
    }

    #[test]
    fn chain_switching_saves_most_of_rx_power() {
        let mimo = PowerBudget::wlan_2005(4, 4);
        let full = mimo.rx_active_mw();
        let idle = mimo.rx_partial_mw(1);
        assert!(
            idle < 0.4 * full,
            "1-chain idle {idle} mW vs full {full} mW"
        );
    }

    #[test]
    fn pa_backoff_dominates_tx_power() {
        let mut b = PowerBudget::wlan_2005(1, 1);
        let backed_off = b.tx_active_mw();
        b.pa_backoff_db = 0.0;
        let constant_envelope = b.tx_active_mw();
        assert!(
            backed_off > constant_envelope + 50.0,
            "8 dB back-off {backed_off} vs 0 dB {constant_envelope}"
        );
    }

    #[test]
    fn fft_op_count_known_value() {
        assert_eq!(ops::fft_cmacs(64), 32.0 * 6.0);
    }

    #[test]
    fn detection_cost_grows_superlinearly_with_streams() {
        let one = ops::mimo_detect_cmacs(1, 1);
        let four = ops::mimo_detect_cmacs(4, 4);
        assert!(four > 10.0 * one, "4×4 {four} vs 1×1 {one}");
    }

    #[test]
    fn baseband_power_grows_with_streams() {
        let symbol_rate = 250_000.0; // 4 µs symbols
        let siso = baseband_rx_mw(1, 1, symbol_rate, 48.0);
        let mimo = baseband_rx_mw(4, 4, symbol_rate, 4.0 * 288.0);
        assert!(mimo > 3.0 * siso, "MIMO BB {mimo} mW vs SISO {siso} mW");
        assert!(siso > 0.0);
    }

    #[test]
    fn energy_per_bit_favours_fast_rates_at_fixed_power() {
        let device = 800.0;
        assert!(energy_per_bit_nj(device, 540.0) < energy_per_bit_nj(device, 54.0) / 9.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "active chains")]
    fn partial_chains_validated() {
        let _ = PowerBudget::wlan_2005(2, 2).rx_partial_mw(3);
    }
}
