//! Opportunistic relay selection.
//!
//! With several third parties able to help, picking the single best relay
//! (by the harmonic mean of its source-relay and relay-destination SNRs —
//! the bottleneck-aware criterion) captures most of the cooperative gain at
//! a fraction of the coordination cost, and the selection pool size adds
//! diversity order.

use wlan_math::rng::Rng;
use wlan_channel::noise::complex_gaussian;

/// A candidate relay's instantaneous link qualities (linear channel power
/// gains).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelayCandidate {
    /// Source → relay channel power.
    pub gain_sr: f64,
    /// Relay → destination channel power.
    pub gain_rd: f64,
}

impl RelayCandidate {
    /// The bottleneck-aware selection metric: harmonic mean of the two hop
    /// gains (a chain is only as good as its weaker hop).
    fn harmonic_metric(&self) -> f64 {
        if self.gain_sr + self.gain_rd == 0.0 {
            return 0.0;
        }
        2.0 * self.gain_sr * self.gain_rd / (self.gain_sr + self.gain_rd)
    }
}

/// Picks the best relay index under the harmonic metric, or `None` when the
/// candidate list is empty.
fn select_relay(candidates: &[RelayCandidate]) -> Option<usize> {
    (0..candidates.len())
        .max_by(|&a, &b| {
            candidates[a]
                .harmonic_metric()
                .total_cmp(&candidates[b].harmonic_metric())
        })
        .filter(|_| !candidates.is_empty())
}

/// Simulates selection-combining outage: the destination is served by the
/// direct link plus the single selected relay (selective DF), at mean SNR
/// `snr_db` and target `rate` with `n_relays` i.i.d. Rayleigh candidates.
pub fn selection_outage(
    n_relays: usize,
    snr_db: f64,
    rate: f64,
    trials: usize,
    rng: &mut impl Rng,
) -> f64 {
    assert!(trials > 0, "need at least one trial");
    let snr = wlan_math::special::db_to_lin(snr_db);
    let mut outages = 0usize;
    for _ in 0..trials {
        let g_sd = complex_gaussian(rng).norm_sqr();
        let candidates: Vec<RelayCandidate> = (0..n_relays)
            .map(|_| RelayCandidate {
                gain_sr: complex_gaussian(rng).norm_sqr(),
                gain_rd: complex_gaussian(rng).norm_sqr(),
            })
            .collect();
        let combined = match select_relay(&candidates) {
            Some(idx) => {
                let c = candidates[idx];
                let relay_decodes = 0.5 * (1.0 + snr * c.gain_sr).log2() >= rate;
                if relay_decodes {
                    g_sd + c.gain_rd
                } else {
                    g_sd
                }
            }
            None => g_sd,
        };
        // Selection cooperation still halves the rate (two phases).
        let capacity = if n_relays > 0 {
            0.5 * (1.0 + snr * combined).log2()
        } else {
            (1.0 + snr * g_sd).log2()
        };
        if capacity < rate {
            outages += 1;
        }
    }
    outages as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::rng::WlanRng;

    #[test]
    fn harmonic_metric_is_bottleneck_aware() {
        let balanced = RelayCandidate {
            gain_sr: 1.0,
            gain_rd: 1.0,
        };
        let lopsided = RelayCandidate {
            gain_sr: 10.0,
            gain_rd: 0.1,
        };
        assert!(balanced.harmonic_metric() > lopsided.harmonic_metric());
    }

    #[test]
    fn select_best_candidate() {
        let cands = vec![
            RelayCandidate {
                gain_sr: 0.5,
                gain_rd: 0.5,
            },
            RelayCandidate {
                gain_sr: 2.0,
                gain_rd: 2.0,
            },
            RelayCandidate {
                gain_sr: 0.1,
                gain_rd: 9.0,
            },
        ];
        assert_eq!(select_relay(&cands), Some(1));
        assert_eq!(select_relay(&[]), None);
    }

    #[test]
    fn zero_gain_candidate_has_zero_metric() {
        let dead = RelayCandidate {
            gain_sr: 0.0,
            gain_rd: 0.0,
        };
        assert_eq!(dead.harmonic_metric(), 0.0);
    }

    #[test]
    fn more_relays_reduce_outage() {
        let mut rng = WlanRng::seed_from_u64(240);
        let p1 = selection_outage(1, 15.0, 1.0, 100_000, &mut rng);
        let p4 = selection_outage(4, 15.0, 1.0, 100_000, &mut rng);
        assert!(p4 < p1, "4 relays {p4} vs 1 relay {p1}");
    }

    #[test]
    fn zero_relays_matches_direct_analytic() {
        let mut rng = WlanRng::seed_from_u64(241);
        let p = selection_outage(0, 10.0, 1.0, 100_000, &mut rng);
        let ana = crate::outage::direct_outage_analytic(10.0, 1.0);
        assert!((p - ana).abs() < 0.01, "sim {p} vs analytic {ana}");
    }

    #[test]
    fn selection_is_deterministic_per_seed() {
        let a = selection_outage(2, 12.0, 1.0, 10_000, &mut WlanRng::seed_from_u64(9));
        let b = selection_outage(2, 12.0, 1.0, 10_000, &mut WlanRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
