//! A-MPDU frame aggregation and block acknowledgement.
//!
//! At 802.11n rates a lone 1500-byte frame is mostly overhead (see
//! [`crate::params`]). Aggregation amortizes the preamble, contention and
//! ACK across many subframes: an A-MPDU carries up to 64 MPDUs, each with a
//! 4-byte delimiter, answered by a single block ACK. Per-subframe CRCs make
//! losses selective — only errored subframes are retransmitted. Experiment
//! E14 sweeps aggregation size at 54 vs 600 Mbps.

use crate::params::{MacProfile, MAC_HEADER_BYTES};
use wlan_math::rng::Rng;

/// MPDU delimiter bytes per subframe.
pub const DELIMITER_BYTES: usize = 4;
/// Block ACK frame bytes.
pub const BLOCK_ACK_BYTES: usize = 32;
/// Maximum subframes per A-MPDU.
pub const MAX_SUBFRAMES: usize = 64;

/// Airtime of an A-MPDU with `n_subframes` payloads of `payload` bytes.
///
/// # Panics
///
/// Panics if `n_subframes` is 0 or exceeds [`MAX_SUBFRAMES`].
fn ampdu_duration_us(profile: &MacProfile, n_subframes: usize, payload: usize) -> f64 {
    assert!(
        (1..=MAX_SUBFRAMES).contains(&n_subframes),
        "subframe count must be 1-{MAX_SUBFRAMES}"
    );
    let per_subframe = DELIMITER_BYTES + MAC_HEADER_BYTES + payload;
    profile.phy_overhead_us + (n_subframes * per_subframe * 8) as f64 / profile.data_rate_mbps
}

/// Airtime of the block ACK response.
fn block_ack_us(profile: &MacProfile) -> f64 {
    profile.phy_overhead_us + (BLOCK_ACK_BYTES * 8) as f64 / profile.control_rate_mbps
}

/// Throughput of an isolated (no-contention) aggregated exchange in Mbps:
/// `n` payloads delivered per DIFS + A-MPDU + SIFS + block-ACK cycle.
pub fn aggregated_throughput_mbps(
    profile: &MacProfile,
    n_subframes: usize,
    payload: usize,
) -> f64 {
    let cycle = profile.difs_us()
        + ampdu_duration_us(profile, n_subframes, payload)
        + profile.sifs_us
        + block_ack_us(profile);
    (n_subframes * payload * 8) as f64 / cycle
}

/// MAC efficiency: aggregated throughput over the raw PHY rate.
pub fn mac_efficiency(profile: &MacProfile, n_subframes: usize, payload: usize) -> f64 {
    aggregated_throughput_mbps(profile, n_subframes, payload) / profile.data_rate_mbps
}

/// Result of the lossy-aggregation Monte Carlo.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregationResult {
    /// Goodput in Mbps after selective retransmission.
    pub goodput_mbps: f64,
    /// Average transmissions per delivered subframe.
    pub tx_per_subframe: f64,
}

/// Simulates aggregated transfer of `total_subframes` subframes where each
/// subframe independently fails with probability `subframe_per`, using
/// selective block-ACK retransmission.
///
/// # Panics
///
/// Panics if `subframe_per` is not in `[0, 1)` or sizes are invalid.
pub fn simulate_lossy_aggregation(
    profile: &MacProfile,
    n_subframes: usize,
    payload: usize,
    subframe_per: f64,
    total_subframes: usize,
    rng: &mut impl Rng,
) -> AggregationResult {
    assert!((0.0..1.0).contains(&subframe_per), "PER must be in [0, 1)");
    assert!(total_subframes > 0, "need subframes to send");
    let mut delivered = 0usize;
    let mut transmissions = 0usize;
    let mut airtime_us = 0.0;
    let mut pending = total_subframes;

    while pending > 0 {
        let batch = pending.min(n_subframes);
        airtime_us += profile.difs_us()
            + ampdu_duration_us(profile, batch, payload)
            + profile.sifs_us
            + block_ack_us(profile);
        transmissions += batch;
        let survived = (0..batch).filter(|_| rng.gen::<f64>() >= subframe_per).count();
        delivered += survived;
        pending -= survived;
        // Failed subframes stay pending and ride in the next A-MPDU.
    }

    AggregationResult {
        goodput_mbps: (delivered * payload * 8) as f64 / airtime_us,
        tx_per_subframe: transmissions as f64 / total_subframes as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::rng::WlanRng;

    #[test]
    fn aggregation_restores_efficiency_at_high_rate() {
        // E14's headline: at 600 Mbps, 1-subframe efficiency is dismal and
        // 64-subframe aggregation recovers most of the PHY rate.
        let p = MacProfile::dot11n(600.0);
        let single = mac_efficiency(&p, 1, 1500);
        let full = mac_efficiency(&p, 64, 1500);
        assert!(single < 0.35, "single-frame efficiency {single}");
        assert!(full > 0.85, "aggregated efficiency {full}");
    }

    #[test]
    fn aggregation_matters_less_at_54mbps() {
        let p54 = MacProfile::dot11a(54.0);
        let p600 = MacProfile::dot11n(600.0);
        let gain54 = mac_efficiency(&p54, 64, 1500) / mac_efficiency(&p54, 1, 1500);
        let gain600 = mac_efficiency(&p600, 64, 1500) / mac_efficiency(&p600, 1, 1500);
        assert!(
            gain600 > 1.8 * gain54,
            "aggregation gain at 600 Mbps ({gain600:.2}x) must dwarf 54 Mbps ({gain54:.2}x)"
        );
    }

    #[test]
    fn throughput_monotone_in_subframes() {
        let p = MacProfile::dot11n(300.0);
        let mut prev = 0.0;
        for n in [1, 2, 4, 8, 16, 32, 64] {
            let t = aggregated_throughput_mbps(&p, n, 1500);
            assert!(t > prev, "n={n}: {t} not above {prev}");
            prev = t;
        }
    }

    #[test]
    fn lossless_simulation_matches_analytic() {
        let p = MacProfile::dot11n(300.0);
        let mut rng = WlanRng::seed_from_u64(200);
        let sim = simulate_lossy_aggregation(&p, 32, 1500, 0.0, 3200, &mut rng);
        let analytic = aggregated_throughput_mbps(&p, 32, 1500);
        assert!(
            (sim.goodput_mbps - analytic).abs() / analytic < 1e-9,
            "sim {} vs analytic {analytic}",
            sim.goodput_mbps
        );
        assert_eq!(sim.tx_per_subframe, 1.0);
    }

    #[test]
    fn selective_retransmission_costs_match_per() {
        let p = MacProfile::dot11n(300.0);
        let mut rng = WlanRng::seed_from_u64(201);
        let per = 0.2;
        let sim = simulate_lossy_aggregation(&p, 64, 1500, per, 20_000, &mut rng);
        // Expected transmissions per delivered subframe = 1/(1−PER).
        let expected = 1.0 / (1.0 - per);
        assert!(
            (sim.tx_per_subframe - expected).abs() < 0.05,
            "tx/subframe {} vs {expected}",
            sim.tx_per_subframe
        );
    }

    #[test]
    fn losses_reduce_goodput_proportionally() {
        let p = MacProfile::dot11n(300.0);
        let mut rng = WlanRng::seed_from_u64(202);
        let clean = simulate_lossy_aggregation(&p, 32, 1500, 0.0, 6400, &mut rng);
        let lossy = simulate_lossy_aggregation(&p, 32, 1500, 0.3, 6400, &mut rng);
        let ratio = lossy.goodput_mbps / clean.goodput_mbps;
        assert!(
            (ratio - 0.7).abs() < 0.08,
            "goodput ratio {ratio} should track 1−PER"
        );
    }

    #[test]
    #[should_panic(expected = "subframe count")]
    fn subframe_count_checked() {
        let _ = ampdu_duration_us(&MacProfile::dot11n(300.0), 65, 1500);
    }
}
