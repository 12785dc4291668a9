//! SNR-driven rate adaptation.
//!
//! Every generation since 802.11b has shipped multiple rates precisely so
//! links can trade speed for robustness with distance. This module selects
//! the throughput-maximizing 802.11a rate for a given SNR using the same
//! sensitivity table the mesh crate uses for link rates, and estimates the
//! resulting throughput-versus-distance staircase.

use wlan_channel::pathloss::{LinkBudget, PathLossModel};
use wlan_mesh::topology::best_rate_for_snr;
use wlan_ofdm::OfdmRate;

/// The throughput-optimal 802.11a rate at a given SNR, or `None` below the
/// 6 Mbps sensitivity.
pub fn select_rate(snr_db: f64) -> Option<OfdmRate> {
    let mbps = best_rate_for_snr(snr_db)?;
    OfdmRate::all().into_iter().find(|r| r.rate_mbps() == mbps)
}

/// One step of the rate-versus-distance staircase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateAtDistance {
    /// Distance in metres.
    pub distance_m: f64,
    /// Median SNR there.
    pub snr_db: f64,
    /// Selected rate (`None` = out of range).
    pub rate: Option<OfdmRate>,
}

/// Sweeps distance and reports the adapted rate at each point.
pub fn rate_vs_distance(
    budget: &LinkBudget,
    model: &PathLossModel,
    distances_m: &[f64],
) -> Vec<RateAtDistance> {
    distances_m
        .iter()
        .map(|&d| {
            let snr_db = budget.snr_at_distance_db(model, d);
            RateAtDistance {
                distance_m: d,
                snr_db,
                rate: select_rate(snr_db),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_snr_selects_top_rate() {
        assert_eq!(select_rate(40.0), Some(OfdmRate::R54));
    }

    #[test]
    fn low_snr_selects_robust_rate() {
        assert_eq!(select_rate(5.5), Some(OfdmRate::R6));
        assert_eq!(select_rate(-3.0), None);
    }

    #[test]
    fn selection_is_monotone_in_snr() {
        let mut prev = 0.0;
        for snr in [5.0, 8.0, 11.0, 15.0, 19.0, 23.0, 25.0, 30.0] {
            let rate = select_rate(snr).expect("in range").rate_mbps();
            assert!(rate >= prev, "snr {snr}: {rate} < {prev}");
            prev = rate;
        }
    }

    #[test]
    fn staircase_descends_with_distance() {
        let budget = LinkBudget::typical_wlan();
        let model = PathLossModel::tgn_model_d();
        let steps = rate_vs_distance(&budget, &model, &[5.0, 30.0, 80.0, 150.0, 400.0]);
        // Rates must be non-increasing with distance.
        let rates: Vec<f64> = steps
            .iter()
            .map(|s| s.rate.map(|r| r.rate_mbps()).unwrap_or(0.0))
            .collect();
        for w in rates.windows(2) {
            assert!(w[0] >= w[1], "{rates:?}");
        }
        // Near: top rate; far: dead.
        assert_eq!(steps[0].rate, Some(OfdmRate::R54));
        assert_eq!(steps[4].rate, None);
    }
}
