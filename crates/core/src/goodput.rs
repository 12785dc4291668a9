//! User goodput versus distance — the cross-layer synthesis.
//!
//! Combines the path-loss model, per-standard rate adaptation and the MAC
//! overhead model into the curve end users actually experience: application
//! throughput as a function of distance, per generation. This is the
//! extension experiment (E15) behind the paper's overall narrative that
//! each generation multiplied *rate* while diversity and robustness decide
//! *range*.

use crate::adaptation::select_rate;
use wlan_channel::pathloss::{LinkBudget, PathLossModel};
use wlan_mac::aggregation::aggregated_throughput_mbps;
use wlan_mac::params::MacProfile;
use wlan_mac::protection::erp_throughput_mbps;
use wlan_mimo::mcs::{Bandwidth, GuardInterval, HtMcs};

/// DSSS/CCK rate steps with required SNR (dB), calibrated against the E4
/// link-simulation measurements (PER ≤ 10 %, 100-byte frames).
pub const DSSS_RATE_SNR_TABLE: [(f64, f64); 4] =
    [(1.0, 0.5), (2.0, 4.0), (5.5, 7.0), (11.0, 9.0)];

/// The fastest DSSS-family rate sustainable at the given SNR.
fn dsss_rate_for_snr(snr_db: f64) -> Option<f64> {
    DSSS_RATE_SNR_TABLE
        .iter()
        .rev()
        .find(|(_, req)| snr_db >= *req)
        .map(|(rate, _)| *rate)
}

/// The fastest 2-stream HT MCS (20 MHz, long GI) sustainable at the given
/// SNR, using a documented heuristic: the same-modulation OFDM sensitivity
/// plus 3 dB per additional spatial stream for stream separation.
fn ht_mcs_for_snr(snr_db: f64, n_streams: usize) -> Option<HtMcs> {
    let penalty = 3.0 * (n_streams.saturating_sub(1)) as f64;
    // Walk the 8 base MCS rows top-down with the OFDM-equivalent threshold.
    let thresholds = [5.0, 8.0, 11.0, 14.5, 18.5, 23.0, 24.5, 26.5];
    let base = (0..8u8)
        .rev()
        .find(|&i| snr_db >= thresholds[i as usize] + penalty)?;
    HtMcs::new((n_streams as u8 - 1) * 8 + base)
}

/// The 802.11 flavour whose goodput is being evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoodputStandard {
    /// DSSS/CCK with the 802.11b MAC timing.
    Dot11b,
    /// OFDM with the 802.11a MAC timing.
    Dot11a,
    /// OFDM in 2.4 GHz; `protected` adds the DSSS CTS-to-self.
    Dot11g {
        /// Legacy stations present → CTS-to-self protection.
        protected: bool,
    },
    /// 2-stream 802.11n with A-MPDU aggregation.
    Dot11n {
        /// Subframes per A-MPDU (1 = no aggregation).
        ampdu: usize,
    },
}

impl GoodputStandard {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            GoodputStandard::Dot11b => "802.11b".into(),
            GoodputStandard::Dot11a => "802.11a".into(),
            GoodputStandard::Dot11g { protected } => {
                if *protected {
                    "802.11g+prot".into()
                } else {
                    "802.11g".into()
                }
            }
            GoodputStandard::Dot11n { ampdu } => format!("802.11n(A{ampdu})"),
        }
    }
}

/// Single-user goodput (Mbps) at a distance, with 1500-byte frames.
///
/// Returns 0 when the link is below every rate's sensitivity.
pub fn goodput_at_distance(
    standard: GoodputStandard,
    budget: &LinkBudget,
    model: &PathLossModel,
    distance_m: f64,
) -> f64 {
    let snr_db = budget.snr_at_distance_db(model, distance_m);
    let payload = 1500;
    match standard {
        GoodputStandard::Dot11b => dsss_rate_for_snr(snr_db)
            .map(|r| MacProfile::dot11b(r).ideal_throughput_mbps(payload))
            .unwrap_or(0.0),
        GoodputStandard::Dot11a => select_rate(snr_db)
            .map(|r| MacProfile::dot11a(r.rate_mbps()).ideal_throughput_mbps(payload))
            .unwrap_or(0.0),
        GoodputStandard::Dot11g { protected } => select_rate(snr_db)
            .map(|r| erp_throughput_mbps(r.rate_mbps(), payload, protected, 1.0))
            .unwrap_or(0.0),
        GoodputStandard::Dot11n { ampdu } => ht_mcs_for_snr(snr_db, 2)
            .map(|mcs| {
                let rate = mcs.data_rate_mbps(Bandwidth::Mhz20, GuardInterval::Long);
                aggregated_throughput_mbps(&MacProfile::dot11n(rate), ampdu.max(1), payload)
            })
            .unwrap_or(0.0),
    }
}

/// Goodput curve over a distance sweep.
pub fn goodput_curve(
    standard: GoodputStandard,
    budget: &LinkBudget,
    model: &PathLossModel,
    distances_m: &[f64],
) -> Vec<f64> {
    distances_m
        .iter()
        .map(|&d| goodput_at_distance(standard, budget, model, d))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> (LinkBudget, PathLossModel) {
        (LinkBudget::typical_wlan(), PathLossModel::tgn_model_d())
    }

    #[test]
    fn curves_are_monotone_nonincreasing() {
        let (budget, model) = env();
        let d: Vec<f64> = (1..=60).map(|i| 5.0 * i as f64).collect();
        for std in [
            GoodputStandard::Dot11b,
            GoodputStandard::Dot11a,
            GoodputStandard::Dot11g { protected: true },
            GoodputStandard::Dot11n { ampdu: 32 },
        ] {
            let curve = goodput_curve(std, &budget, &model, &d);
            for w in curve.windows(2) {
                assert!(w[0] >= w[1] - 1e-9, "{}: {w:?}", std.label());
            }
        }
    }

    #[test]
    fn n_dominates_at_short_range() {
        let (budget, model) = env();
        let a = goodput_at_distance(GoodputStandard::Dot11a, &budget, &model, 5.0);
        let n = goodput_at_distance(GoodputStandard::Dot11n { ampdu: 32 }, &budget, &model, 5.0);
        assert!(n > 2.0 * a, "11n {n} vs 11a {a} at 5 m");
    }

    #[test]
    fn b_reaches_farther_than_a() {
        // The classic crossover: at extreme range 802.11b's 1 Mbps DSSS
        // (needs ~0.5 dB) still works where OFDM's 6 Mbps (needs 5 dB) died.
        let (budget, model) = env();
        let mut b_range = 0.0;
        let mut a_range = 0.0;
        for i in 1..=400 {
            let d = i as f64;
            if goodput_at_distance(GoodputStandard::Dot11b, &budget, &model, d) > 0.0 {
                b_range = d;
            }
            if goodput_at_distance(GoodputStandard::Dot11a, &budget, &model, d) > 0.0 {
                a_range = d;
            }
        }
        assert!(b_range > a_range, "b range {b_range} vs a range {a_range}");
    }

    #[test]
    fn protection_costs_throughput_everywhere_it_matters() {
        let (budget, model) = env();
        let plain = goodput_at_distance(
            GoodputStandard::Dot11g { protected: false },
            &budget,
            &model,
            10.0,
        );
        let prot = goodput_at_distance(
            GoodputStandard::Dot11g { protected: true },
            &budget,
            &model,
            10.0,
        );
        assert!(prot < 0.8 * plain, "protected {prot} vs plain {plain}");
    }

    #[test]
    fn aggregation_multiplies_11n_goodput() {
        let (budget, model) = env();
        let single =
            goodput_at_distance(GoodputStandard::Dot11n { ampdu: 1 }, &budget, &model, 5.0);
        let agg =
            goodput_at_distance(GoodputStandard::Dot11n { ampdu: 64 }, &budget, &model, 5.0);
        assert!(agg > 1.5 * single, "A64 {agg} vs A1 {single}");
    }

    #[test]
    fn ht_mcs_heuristic_is_sane() {
        assert_eq!(ht_mcs_for_snr(40.0, 2).map(|m| m.index()), Some(15));
        assert_eq!(ht_mcs_for_snr(8.5, 2).map(|m| m.index()), Some(8));
        assert_eq!(ht_mcs_for_snr(2.0, 2), None);
        assert_eq!(ht_mcs_for_snr(5.5, 1).map(|m| m.index()), Some(0));
    }

    #[test]
    fn dsss_rate_table_ordering() {
        assert_eq!(dsss_rate_for_snr(20.0), Some(11.0));
        assert_eq!(dsss_rate_for_snr(5.0), Some(2.0));
        assert_eq!(dsss_rate_for_snr(-2.0), None);
    }
}
