//! Co-channel interference and hidden nodes.
//!
//! The unlicensed band the paper's history revolves around is shared: other
//! cells on the same channel raise the noise floor, and transmitters that
//! cannot hear each other (hidden nodes) collide at the receiver. This
//! module provides the SINR arithmetic for overlapping-BSS scenarios and a
//! Monte-Carlo hidden-node probability estimator.
//!
//! Every entry point returns a typed [`WlanError`] on degenerate inputs,
//! like every other public path: the city-scale simulator evaluates
//! [`try_noise_plus_interference_dbm`] once per cell per epoch inside a
//! long campaign, and a malformed layout must surface as a typed
//! configuration error, never a panic mid-run.

use crate::pathloss::{LinkBudget, PathLossModel};
use wlan_math::rng::Rng;
use wlan_math::special::{db_to_lin, lin_to_db};
use wlan_math::WlanError;

/// One co-channel interferer: distance from the victim receiver and the
/// fraction of time it transmits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interferer {
    /// Distance from the victim receiver in metres.
    pub distance_m: f64,
    /// Transmit duty cycle in `[0, 1]`.
    pub duty_cycle: f64,
}

/// Mean SINR (dB) of a link of length `signal_distance_m` in the presence
/// of co-channel interferers (mean interference = duty-weighted received
/// power; all stations use the same budget): the link's received power
/// minus [`try_noise_plus_interference_dbm`].
///
/// # Errors
///
/// [`WlanError::InvalidConfig`] if a distance is nonpositive, infinite, or
/// NaN, or a duty cycle is outside `[0, 1]` (NaN included).
pub fn co_channel_sinr_db(
    budget: &LinkBudget,
    model: &PathLossModel,
    signal_distance_m: f64,
    interferers: &[Interferer],
) -> Result<f64, WlanError> {
    if !(signal_distance_m > 0.0 && signal_distance_m.is_finite()) {
        return Err(WlanError::InvalidConfig(
            "signal distance must be positive and finite",
        ));
    }
    let signal_dbm = budget.rx_power_dbm(model.path_loss_db(signal_distance_m));
    Ok(signal_dbm - try_noise_plus_interference_dbm(budget, model, interferers)?)
}

/// Receiver noise floor plus the duty-weighted received power of
/// `interferers`, in dBm: the denominator of
/// [`co_channel_sinr_db`]. It depends only on the receiver, so a cell
/// computes it once and every member's SINR is its own received power
/// minus this value.
///
/// # Errors
///
/// [`WlanError::InvalidConfig`] if an interferer distance is nonpositive,
/// infinite, or NaN, or a duty cycle is outside `[0, 1]` (NaN included).
pub fn try_noise_plus_interference_dbm(
    budget: &LinkBudget,
    model: &PathLossModel,
    interferers: &[Interferer],
) -> Result<f64, WlanError> {
    let noise_mw = db_to_lin(budget.noise_floor_dbm());
    let mut interference_mw = 0.0;
    for i in interferers {
        if !(i.distance_m > 0.0 && i.distance_m.is_finite()) {
            return Err(WlanError::InvalidConfig(
                "interferer distance must be positive and finite",
            ));
        }
        if !(0.0..=1.0).contains(&i.duty_cycle) {
            return Err(WlanError::InvalidConfig("duty cycle must be in [0, 1]"));
        }
        let rx_dbm = budget.rx_power_dbm(model.path_loss_db(i.distance_m));
        interference_mw += i.duty_cycle * db_to_lin(rx_dbm);
    }
    Ok(lin_to_db(noise_mw + interference_mw))
}

/// Monte-Carlo hidden-node probability: place two contending transmitters
/// uniformly in a disc of radius `cell_radius_m` around the receiver and
/// count how often they are mutually out of carrier-sense range
/// (`cs_range_m`) while both are within `cell_radius_m` of the receiver —
/// the configuration where CSMA fails and RTS/CTS earns its keep
/// (experiment E13's ablation).
///
/// # Errors
///
/// [`WlanError::InvalidConfig`] if either radius is nonpositive, infinite,
/// or NaN, or `trials` is zero.
pub fn hidden_node_probability(
    cell_radius_m: f64,
    cs_range_m: f64,
    trials: usize,
    rng: &mut impl Rng,
) -> Result<f64, WlanError> {
    if !(cell_radius_m > 0.0 && cell_radius_m.is_finite()) {
        return Err(WlanError::InvalidConfig(
            "cell radius must be positive and finite",
        ));
    }
    if !(cs_range_m > 0.0 && cs_range_m.is_finite()) {
        return Err(WlanError::InvalidConfig(
            "carrier-sense range must be positive and finite",
        ));
    }
    if trials == 0 {
        return Err(WlanError::InvalidConfig("need at least one trial"));
    }
    let mut hidden = 0usize;
    for _ in 0..trials {
        let a = random_point_in_disc(cell_radius_m, rng);
        let b = random_point_in_disc(cell_radius_m, rng);
        let d2 = (a.0 - b.0).powi(2) + (a.1 - b.1).powi(2);
        if d2 > cs_range_m * cs_range_m {
            hidden += 1;
        }
    }
    Ok(hidden as f64 / trials as f64)
}

fn random_point_in_disc(radius: f64, rng: &mut impl Rng) -> (f64, f64) {
    // Inverse-CDF radius for a uniform disc.
    let r = radius * rng.gen::<f64>().sqrt();
    let theta = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::rng::WlanRng;

    fn env() -> (LinkBudget, PathLossModel) {
        (LinkBudget::typical_wlan(), PathLossModel::tgn_model_d())
    }

    fn sinr(
        budget: &LinkBudget,
        model: &PathLossModel,
        d: f64,
        interferers: &[Interferer],
    ) -> f64 {
        co_channel_sinr_db(budget, model, d, interferers).expect("valid geometry")
    }

    #[test]
    fn no_interferers_matches_plain_snr() {
        let (budget, model) = env();
        let s = sinr(&budget, &model, 20.0, &[]);
        let snr = budget.snr_at_distance_db(&model, 20.0);
        assert!((s - snr).abs() < 1e-9);
    }

    #[test]
    fn closer_interferer_hurts_more() {
        let (budget, model) = env();
        let far = sinr(
            &budget,
            &model,
            20.0,
            &[Interferer {
                distance_m: 200.0,
                duty_cycle: 1.0,
            }],
        );
        let near = sinr(
            &budget,
            &model,
            20.0,
            &[Interferer {
                distance_m: 30.0,
                duty_cycle: 1.0,
            }],
        );
        assert!(near < far - 10.0, "near {near} vs far {far}");
    }

    #[test]
    fn duty_cycle_scales_interference() {
        let (budget, model) = env();
        let make = |duty: f64| {
            sinr(
                &budget,
                &model,
                20.0,
                &[Interferer {
                    distance_m: 50.0,
                    duty_cycle: duty,
                }],
            )
        };
        let idle = make(0.0);
        let busy = make(1.0);
        let half = make(0.5);
        assert!((idle - budget.snr_at_distance_db(&model, 20.0)).abs() < 1e-9);
        assert!(busy < half && half < idle);
        // Interference-limited regime: halving duty buys ~3 dB.
        assert!((half - busy - 3.0).abs() < 0.5, "half {half} busy {busy}");
    }

    #[test]
    fn a_loud_neighbour_kills_the_top_rate() {
        // Tie to the mesh rate table: a full-duty interferer at equal
        // distance drives SINR to ~0 dB, below any OFDM sensitivity.
        let (budget, model) = env();
        let s = sinr(
            &budget,
            &model,
            30.0,
            &[Interferer {
                distance_m: 30.0,
                duty_cycle: 1.0,
            }],
        );
        assert!(s < 1.0, "equal-distance interferer leaves SINR {s}");
    }

    #[test]
    fn degenerate_inputs_are_typed_errors_not_panics() {
        let (budget, model) = env();
        let bad = |d: f64, interferers: &[Interferer]| {
            co_channel_sinr_db(&budget, &model, d, interferers).unwrap_err()
        };
        assert!(matches!(bad(0.0, &[]), WlanError::InvalidConfig(_)));
        assert!(matches!(bad(-5.0, &[]), WlanError::InvalidConfig(_)));
        assert!(matches!(bad(f64::NAN, &[]), WlanError::InvalidConfig(_)));
        assert!(matches!(bad(f64::INFINITY, &[]), WlanError::InvalidConfig(_)));
        let bad_i = |distance_m: f64, duty_cycle: f64| {
            bad(
                20.0,
                &[Interferer {
                    distance_m,
                    duty_cycle,
                }],
            )
        };
        assert!(matches!(bad_i(0.0, 0.5), WlanError::InvalidConfig(_)));
        assert!(matches!(bad_i(10.0, -0.1), WlanError::InvalidConfig(_)));
        assert!(matches!(bad_i(10.0, 1.5), WlanError::InvalidConfig(_)));
        assert!(matches!(bad_i(10.0, f64::NAN), WlanError::InvalidConfig(_)));
    }

    /// Seeded random geometry: a signal distance and 0–12 interferers.
    fn random_geometry(rng: &mut WlanRng) -> (f64, Vec<Interferer>) {
        let d = 1.0 + 199.0 * rng.gen::<f64>();
        let n = rng.gen_range(0..=12usize);
        let interferers = (0..n)
            .map(|_| Interferer {
                distance_m: 1.0 + 499.0 * rng.gen::<f64>(),
                duty_cycle: rng.gen::<f64>(),
            })
            .collect();
        (d, interferers)
    }

    #[test]
    fn co_channel_sinr_digest_is_pinned() {
        // FNV-1a over the SINR bits of 500 seeded geometries, recorded
        // before the noise-plus-interference split: summing the same terms
        // in the same order must reproduce every bit.
        let (budget, model) = env();
        let mut rng = WlanRng::seed_from_u64(0x5157);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..500 {
            let (d, interferers) = random_geometry(&mut rng);
            for b in sinr(&budget, &model, d, &interferers).to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(h, 0xf837_ef3f_31df_6d03);
    }

    #[test]
    fn sinr_is_signal_minus_noise_plus_interference() {
        let (budget, model) = env();
        let mut rng = WlanRng::seed_from_u64(0x5158);
        let bad = [0.0, -3.0, f64::NAN, f64::INFINITY];
        let mut errors = 0;
        for trial in 0..400 {
            let (d, mut interferers) = random_geometry(&mut rng);
            // Every fourth geometry carries one degenerate interferer.
            if trial % 4 == 3 && !interferers.is_empty() {
                let k = rng.gen_range(0..interferers.len());
                let v = bad[rng.gen_range(0..bad.len())];
                if rng.gen_bool(0.5) {
                    interferers[k].distance_m = v;
                } else {
                    interferers[k].duty_cycle = v - 0.5;
                }
            }
            let whole = co_channel_sinr_db(&budget, &model, d, &interferers);
            let ni = try_noise_plus_interference_dbm(&budget, &model, &interferers);
            match (whole, ni) {
                (Ok(s), Ok(ni)) => {
                    let split = budget.rx_power_dbm(model.path_loss_db(d)) - ni;
                    assert_eq!(s.to_bits(), split.to_bits(), "trial {trial}");
                }
                (Err(_), Err(_)) => errors += 1,
                (whole, ni) => panic!("trial {trial}: {whole:?} vs {ni:?}"),
            }
        }
        assert!(errors > 50, "only {errors} degenerate geometries drawn");
    }

    #[test]
    fn hidden_node_rejects_degenerate_geometry() {
        let mut rng = WlanRng::seed_from_u64(599);
        assert!(hidden_node_probability(0.0, 1.0, 10, &mut rng).is_err());
        assert!(hidden_node_probability(1.0, f64::NAN, 10, &mut rng).is_err());
        assert!(hidden_node_probability(1.0, 1.0, 0, &mut rng).is_err());
    }

    #[test]
    fn hidden_node_probability_shrinks_with_cs_range() {
        let mut rng = WlanRng::seed_from_u64(600);
        let p_short = hidden_node_probability(100.0, 100.0, 50_000, &mut rng).expect("valid");
        let p_long = hidden_node_probability(100.0, 200.0, 50_000, &mut rng).expect("valid");
        assert!(p_short > 0.2, "short CS range: {p_short}");
        assert!(p_long == 0.0, "CS covering the cell leaves none: {p_long}");
    }

    #[test]
    fn hidden_node_known_geometry() {
        // For cs = cell radius R, P(two uniform points in a disc of radius
        // R are farther than R apart) ≈ 0.4135 (known disc-line-picking
        // result).
        let mut rng = WlanRng::seed_from_u64(601);
        let p = hidden_node_probability(1.0, 1.0, 200_000, &mut rng).expect("valid");
        assert!((p - 0.4135).abs() < 0.01, "measured {p}");
    }
}
