//! ERP protection: the price 802.11g paid to share 2.4 GHz with 802.11b.
//!
//! The paper notes OFDM "was allowed into the 2.4 GHz band and was
//! standardized as 802.11g" — but legacy DSSS stations cannot hear OFDM
//! preambles, so a mixed cell forces every OFDM exchange to be announced
//! with a DSSS-rate CTS-to-self (or RTS/CTS). This module quantifies the
//! famous result: one 802.11b station in the cell roughly halves 802.11g
//! throughput.
//!
//! [`cts_to_self_overhead_us`] returns a typed [`WlanError`] on a
//! degenerate rate for programmatic callers like the city simulator; the
//! throughput functions panic instead, with the input contract documented
//! under `# Panics`. Neither can silently return NaN/∞: every input that
//! would is rejected up front. A DSSS CTS rate *faster* than the g data
//! rate is unusual but physically meaningful (11 Mbps CCK CTS protecting a
//! 6 Mbps OFDM frame) and is deliberately allowed — the overhead formula
//! stays well-defined and the penalty just shrinks.

use crate::params::{MacProfile, CTS_BYTES};
use wlan_math::WlanError;

fn validate_dsss_rate(dsss_rate_mbps: f64) -> Result<(), WlanError> {
    if !(dsss_rate_mbps > 0.0 && dsss_rate_mbps.is_finite()) {
        return Err(WlanError::InvalidConfig(
            "DSSS CTS rate must be positive and finite",
        ));
    }
    Ok(())
}

/// Post-validation CTS-to-self arithmetic.
fn cts_overhead_core(dsss_rate_mbps: f64) -> f64 {
    let b = MacProfile::dot11b(dsss_rate_mbps);
    // CTS at the DSSS rate with the long PLCP preamble, then SIFS before
    // the protected OFDM exchange.
    b.phy_overhead_us + (CTS_BYTES * 8) as f64 / dsss_rate_mbps + b.sifs_us
}

/// Post-validation throughput arithmetic.
fn erp_core(g_rate_mbps: f64, payload: usize, protection: bool, dsss_cts_rate_mbps: f64) -> f64 {
    let g = MacProfile::dot11g(g_rate_mbps);
    let mut cycle = g.difs_us() + g.data_frame_us(payload) + g.sifs_us + g.ack_us();
    if protection {
        cycle += cts_overhead_core(dsss_cts_rate_mbps);
    }
    (payload * 8) as f64 / cycle
}

/// Airtime of the DSSS-rate CTS-to-self announcement plus its SIFS, in µs.
///
/// Uses the 802.11b long-preamble profile at the given DSSS control rate.
///
/// # Errors
///
/// [`WlanError::InvalidConfig`] if the rate is nonpositive, infinite, or
/// NaN (which would otherwise yield an infinite or NaN airtime).
pub fn cts_to_self_overhead_us(dsss_rate_mbps: f64) -> Result<f64, WlanError> {
    validate_dsss_rate(dsss_rate_mbps)?;
    Ok(cts_overhead_core(dsss_rate_mbps))
}

/// Single-station (no-contention) 802.11g throughput in Mbps with or
/// without protection.
///
/// # Panics
///
/// Panics if `payload` is zero or either rate is nonpositive, infinite,
/// or NaN.
pub fn erp_throughput_mbps(
    g_rate_mbps: f64,
    payload: usize,
    protection: bool,
    dsss_cts_rate_mbps: f64,
) -> f64 {
    assert!(payload > 0, "payload must be nonempty");
    assert!(
        g_rate_mbps > 0.0 && g_rate_mbps.is_finite(),
        "g rate must be positive and finite"
    );
    assert!(
        dsss_cts_rate_mbps > 0.0 && dsss_cts_rate_mbps.is_finite(),
        "DSSS CTS rate must be positive and finite"
    );
    erp_core(g_rate_mbps, payload, protection, dsss_cts_rate_mbps)
}

/// The protection penalty: protected / unprotected throughput (≤ 1).
///
/// # Panics
///
/// Panics if `payload` is zero or either rate is nonpositive, infinite,
/// or NaN.
pub fn protection_penalty(g_rate_mbps: f64, payload: usize, dsss_cts_rate_mbps: f64) -> f64 {
    erp_throughput_mbps(g_rate_mbps, payload, true, dsss_cts_rate_mbps)
        / erp_throughput_mbps(g_rate_mbps, payload, false, dsss_cts_rate_mbps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cts_overhead_is_dominated_by_the_long_preamble() {
        // 192 µs preamble + 112 bits at 1 Mbps + 10 µs SIFS ≈ 314 µs.
        let o = cts_to_self_overhead_us(1.0).expect("valid");
        assert!((o - 314.0).abs() < 1.0, "overhead {o}");
        // At 11 Mbps the preamble still dominates.
        assert!(cts_to_self_overhead_us(11.0).expect("valid") > 200.0);
    }

    #[test]
    fn protection_roughly_halves_54mbps_short_frames() {
        // The classic mixed-cell number: small/medium frames at 54 Mbps
        // lose ~40-60 % to a 1 Mbps CTS-to-self.
        let penalty = protection_penalty(54.0, 500, 1.0);
        assert!(
            penalty > 0.25 && penalty < 0.6,
            "penalty {penalty} out of the expected band"
        );
    }

    #[test]
    fn penalty_shrinks_for_large_frames_and_fast_cts() {
        let small = protection_penalty(54.0, 250, 1.0);
        let large = protection_penalty(54.0, 2000, 1.0);
        assert!(large > small, "amortization over frame size");
        let fast_cts = protection_penalty(54.0, 500, 11.0);
        let slow_cts = protection_penalty(54.0, 500, 1.0);
        assert!(fast_cts > slow_cts, "11 Mbps CTS hurts less");
    }

    #[test]
    fn penalty_negligible_at_low_g_rates() {
        // A 6 Mbps OFDM frame is so long the CTS barely registers.
        let penalty = protection_penalty(6.0, 1500, 11.0);
        assert!(penalty > 0.85, "penalty {penalty}");
    }

    #[test]
    fn unprotected_matches_plain_g_profile() {
        let via_fn = erp_throughput_mbps(54.0, 1500, false, 1.0);
        let g = MacProfile::dot11g(54.0);
        let manual =
            (1500 * 8) as f64 / (g.difs_us() + g.data_frame_us(1500) + g.sifs_us + g.ack_us());
        assert!((via_fn - manual).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs_are_typed_errors_never_nan_or_inf() {
        // Zero / negative / non-finite DSSS CTS rate.
        for r in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(cts_to_self_overhead_us(r), Err(WlanError::InvalidConfig(_))),
                "r={r}"
            );
        }
        // Everything that passes validation is finite.
        for (g, p, cts) in [(54.0, 1, 1.0), (0.1, 4000, 11.0), (600.0, 1500, 1.0)] {
            let t = erp_throughput_mbps(g, p, true, cts);
            assert!(t.is_finite() && t > 0.0, "throughput {t}");
            let pen = protection_penalty(g, p, cts);
            assert!(pen.is_finite() && pen > 0.0 && pen <= 1.0, "penalty {pen}");
        }
    }

    #[test]
    fn cts_faster_than_g_rate_is_allowed_and_shrinks_the_penalty() {
        // 11 Mbps CCK CTS announcing a 6 Mbps OFDM frame: unusual but
        // well-defined. The penalty must stay in (0, 1] and beat the
        // 1 Mbps CTS case.
        let fast = protection_penalty(6.0, 1500, 11.0);
        let slow = protection_penalty(6.0, 1500, 1.0);
        assert!(fast > slow && fast <= 1.0, "fast {fast} slow {slow}");
    }
}
