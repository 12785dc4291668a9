//! Path loss, noise floor and link-budget arithmetic.
//!
//! The range experiments (E5, E8) convert distance to SNR with the IEEE
//! breakpoint model used by the 802.11 task groups: free-space (exponent 2)
//! out to a breakpoint distance, then a steeper indoor exponent beyond it,
//! plus optional log-normal shadowing.

use wlan_math::rng::Rng;

/// Boltzmann's constant times 290 K in dBm/Hz: the thermal noise density.
pub const THERMAL_NOISE_DBM_PER_HZ: f64 = -174.0;

/// Breakpoint log-distance path loss model.
///
/// # Examples
///
/// ```
/// use wlan_channel::PathLossModel;
///
/// let pl = PathLossModel::tgn_model_d();
/// // Path loss grows monotonically with distance.
/// assert!(pl.path_loss_db(50.0) > pl.path_loss_db(5.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLossModel {
    /// Breakpoint distance in metres.
    breakpoint_m: f64,
    /// Exponent before the breakpoint.
    exp_before: f64,
    /// Exponent after the breakpoint.
    exp_after: f64,
    /// Log-normal shadowing standard deviation in dB (0 = none).
    shadowing_db: f64,
    /// Free-space loss at 1 m for the carrier (set once in [`Self::new`]).
    ref_loss_db: f64,
    /// Median loss at the breakpoint (set once in [`Self::new`]), where the
    /// far branch of [`Self::path_loss_db`] starts: a call costs one `log10`.
    breakpoint_loss_db: f64,
}

impl PathLossModel {
    /// Creates a custom breakpoint model.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is nonpositive (except `shadowing_db`, which
    /// may be zero) .
    pub fn new(
        carrier_hz: f64,
        breakpoint_m: f64,
        exp_before: f64,
        exp_after: f64,
        shadowing_db: f64,
    ) -> Self {
        assert!(carrier_hz > 0.0, "carrier must be positive");
        assert!(breakpoint_m > 0.0, "breakpoint must be positive");
        assert!(exp_before > 0.0 && exp_after > 0.0, "exponents must be positive");
        assert!(shadowing_db >= 0.0, "shadowing must be nonnegative");
        // FSPL(d, f) = 20 log10(4π d f / c), at d = 1 m.
        let c = 299_792_458.0;
        let ref_loss_db = 20.0 * (4.0 * std::f64::consts::PI * carrier_hz / c).log10();
        PathLossModel {
            breakpoint_m,
            exp_before,
            exp_after,
            shadowing_db,
            ref_loss_db,
            breakpoint_loss_db: ref_loss_db + 10.0 * exp_before * breakpoint_m.log10(),
        }
    }

    /// TGn model D (typical office): 2.4 GHz, 10 m breakpoint, exponents
    /// 2.0 / 3.5, 5 dB shadowing after the breakpoint (ignored before).
    pub fn tgn_model_d() -> Self {
        PathLossModel::new(2.4e9, 10.0, 2.0, 3.5, 5.0)
    }

    /// TGn model B (residential): 5 m breakpoint.
    pub fn tgn_model_b() -> Self {
        PathLossModel::new(2.4e9, 5.0, 2.0, 3.5, 4.0)
    }

    /// Free-space at 5 GHz (for 802.11a outdoor comparisons).
    pub fn free_space_5ghz() -> Self {
        PathLossModel::new(5.2e9, 1e6, 2.0, 2.0, 0.0)
    }

    /// Free-space path loss at 1 m for this carrier (Friis).
    pub fn reference_loss_db(&self) -> f64 {
        self.ref_loss_db
    }

    /// Median path loss in dB at `distance_m` metres (no shadowing).
    ///
    /// # Panics
    ///
    /// Panics if `distance_m <= 0`.
    pub fn path_loss_db(&self, distance_m: f64) -> f64 {
        assert!(distance_m > 0.0, "distance must be positive");
        if distance_m <= self.breakpoint_m {
            self.ref_loss_db + 10.0 * self.exp_before * distance_m.log10()
        } else {
            self.breakpoint_loss_db
                + 10.0 * self.exp_after * (distance_m / self.breakpoint_m).log10()
        }
    }

    /// Path loss with a log-normal shadowing draw (applied only beyond the
    /// breakpoint, per the TGn convention).
    pub fn path_loss_shadowed_db(&self, distance_m: f64, rng: &mut impl Rng) -> f64 {
        let median = self.path_loss_db(distance_m);
        if distance_m <= self.breakpoint_m || self.shadowing_db == 0.0 {
            median
        } else {
            median + crate::noise::gaussian(rng) * self.shadowing_db
        }
    }
}

/// A transmit/receive link budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    /// Transmit power in dBm.
    pub tx_power_dbm: f64,
    /// Combined antenna gains in dBi.
    pub antenna_gain_dbi: f64,
    /// Receiver noise figure in dB.
    pub noise_figure_db: f64,
    /// Receiver bandwidth in Hz.
    pub bandwidth_hz: f64,
}

impl LinkBudget {
    /// A typical 802.11 client: 15 dBm TX, 0 dBi antennas, 6 dB NF, 20 MHz.
    pub fn typical_wlan() -> Self {
        LinkBudget {
            tx_power_dbm: 15.0,
            antenna_gain_dbi: 0.0,
            noise_figure_db: 6.0,
            bandwidth_hz: 20e6,
        }
    }

    /// Receiver noise floor in dBm: `−174 + 10·log10(B) + NF`.
    pub fn noise_floor_dbm(&self) -> f64 {
        THERMAL_NOISE_DBM_PER_HZ + 10.0 * self.bandwidth_hz.log10() + self.noise_figure_db
    }

    /// Received power in dBm after the given path loss.
    pub fn rx_power_dbm(&self, path_loss_db: f64) -> f64 {
        self.tx_power_dbm + self.antenna_gain_dbi - path_loss_db
    }

    /// Median SNR in dB at a distance under a path-loss model.
    pub fn snr_at_distance_db(&self, model: &PathLossModel, distance_m: f64) -> f64 {
        self.rx_power_dbm(model.path_loss_db(distance_m)) - self.noise_floor_dbm()
    }

    /// Largest distance (by bisection) at which the median SNR still meets
    /// `required_snr_db`, searched in `[0.1, max_m]` metres. Returns `None`
    /// when even 0.1 m fails.
    pub fn range_for_snr_m(
        &self,
        model: &PathLossModel,
        required_snr_db: f64,
        max_m: f64,
    ) -> Option<f64> {
        let mut lo = 0.1;
        if self.snr_at_distance_db(model, lo) < required_snr_db {
            return None;
        }
        if self.snr_at_distance_db(model, max_m) >= required_snr_db {
            return Some(max_m);
        }
        let mut hi = max_m;
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.snr_at_distance_db(model, mid) >= required_snr_db {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::rng::WlanRng;

    #[test]
    fn reference_loss_matches_friis_at_2_4ghz() {
        // FSPL(1 m, 2.4 GHz) ≈ 40.05 dB.
        let pl = PathLossModel::tgn_model_d();
        assert!((pl.reference_loss_db() - 40.05).abs() < 0.1);
    }

    #[test]
    fn slope_changes_at_breakpoint() {
        let pl = PathLossModel::tgn_model_d();
        // Before breakpoint: 2.0 decades/decade → doubling adds ~6 dB.
        let before = pl.path_loss_db(8.0) - pl.path_loss_db(4.0);
        assert!((before - 6.02).abs() < 0.1, "before {before}");
        // After: 3.5 → doubling adds ~10.5 dB.
        let after = pl.path_loss_db(80.0) - pl.path_loss_db(40.0);
        assert!((after - 10.54).abs() < 0.1, "after {after}");
    }

    #[test]
    fn path_loss_is_continuous_at_breakpoint() {
        let pl = PathLossModel::tgn_model_d();
        let eps = 1e-6;
        let below = pl.path_loss_db(10.0 - eps);
        let above = pl.path_loss_db(10.0 + eps);
        assert!((below - above).abs() < 1e-3);
    }

    #[test]
    fn path_loss_bits_are_pinned() {
        // Recorded from the direct formula (reference loss and breakpoint
        // term recomputed on every call); caching them per model must not
        // move a single bit, at the breakpoint or either side of it.
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let shared = [0.01, 0.25, 1.0, 3.7, 4.2, 10.5, 57.3, 137.5, 333.3, 1e3, 2e6];
        let cases: [(PathLossModel, f64, [u64; 11], [u64; 3]); 3] = [
            (
                PathLossModel::tgn_model_d(),
                10.0,
                [
                    0x3faa_a0cc_c84a_0800,
                    0x403c_02c4_5400_78c4,
                    0x4044_06a8_3332_1282,
                    0x4049_b540_e1c2_0ed2,
                    0x404a_422c_dadd_36d5,
                    0x404e_6595_c886_5b5c,
                    0x4055_a598_4952_524e,
                    0x4058_f920_6633_cc30,
                    0x405c_567a_c841_fcd2,
                    0x4060_41aa_0ccc_84a0,
                    0x406e_b2d1_5ecf_6b78,
                ],
                [0x404e_06a8_3332_1282; 3],
            ),
            (
                PathLossModel::tgn_model_b(),
                5.0,
                [
                    0x3faa_a0cc_c84a_0800,
                    0x403c_02c4_5400_78c4,
                    0x4044_06a8_3332_1282,
                    0x4049_b540_e1c2_0ed2,
                    0x404a_422c_dadd_36d5,
                    0x4050_53c8_05fc_85d4,
                    0x4056_c695_6b0b_aa74,
                    0x405a_1a1d_87ed_2456,
                    0x405d_7777_e9fb_54f8,
                    0x4060_d228_9da9_30b4,
                    0x406f_434f_efac_178a,
                ],
                [0x404b_0405_2e99_2772; 3],
            ),
            (
                PathLossModel::free_space_5ghz(),
                1e6,
                [
                    0x401b_1247_4b91_cba0,
                    0x4041_5d02_e040_6354,
                    0x4047_6248_e972_3974,
                    0x404d_10e1_9802_35c4,
                    0x404d_9dcd_911d_5dc7,
                    0x4050_cc43_c3f5_c3d4,
                    0x4054_7b94_8ffe_6b0a,
                    0x4056_622b_7bec_f9d5,
                    0x4058_4e5f_21ab_f10d,
                    0x405a_b124_74b9_1cba,
                    0x4065_993a_fb82_c921,
                ],
                [0x4064_d892_3a5c_8e5d; 3],
            ),
        ];
        for (model, bp, shared_bits, bp_bits) in cases {
            for (d, bits) in shared.iter().zip(shared_bits) {
                assert_eq!(model.path_loss_db(*d).to_bits(), bits, "{model:?} at {d} m");
            }
            for (d, bits) in [down(bp), bp, up(bp)].iter().zip(bp_bits) {
                assert_eq!(model.path_loss_db(*d).to_bits(), bits, "{model:?} at {d} m");
            }
        }
    }

    #[test]
    fn noise_floor_typical_value() {
        // −174 + 73 + 6 = −95 dBm for 20 MHz, NF 6 dB.
        let lb = LinkBudget::typical_wlan();
        assert!((lb.noise_floor_dbm() + 95.0).abs() < 0.1);
    }

    #[test]
    fn snr_decreases_with_distance() {
        let lb = LinkBudget::typical_wlan();
        let pl = PathLossModel::tgn_model_d();
        let mut prev = f64::INFINITY;
        for d in [1.0, 5.0, 10.0, 20.0, 50.0, 100.0] {
            let snr = lb.snr_at_distance_db(&pl, d);
            assert!(snr < prev);
            prev = snr;
        }
    }

    #[test]
    fn range_search_is_consistent() {
        let lb = LinkBudget::typical_wlan();
        let pl = PathLossModel::tgn_model_d();
        let required = 20.0;
        let range = lb.range_for_snr_m(&pl, required, 1000.0).unwrap();
        let at_range = lb.snr_at_distance_db(&pl, range);
        assert!((at_range - required).abs() < 0.01, "snr at range {at_range}");
        // Lower requirement → longer range.
        let longer = lb.range_for_snr_m(&pl, 5.0, 1000.0).unwrap();
        assert!(longer > range);
    }

    #[test]
    fn impossible_requirement_returns_none() {
        let lb = LinkBudget::typical_wlan();
        let pl = PathLossModel::tgn_model_d();
        assert_eq!(lb.range_for_snr_m(&pl, 200.0, 1000.0), None);
    }

    #[test]
    fn shadowing_only_after_breakpoint() {
        let mut rng = WlanRng::seed_from_u64(31);
        let pl = PathLossModel::tgn_model_d();
        // Before breakpoint: deterministic.
        let a = pl.path_loss_shadowed_db(5.0, &mut rng);
        let b = pl.path_loss_shadowed_db(5.0, &mut rng);
        assert_eq!(a, b);
        // After: varies with σ = 5 dB.
        let draws: Vec<f64> = (0..2000)
            .map(|_| pl.path_loss_shadowed_db(50.0, &mut rng))
            .collect();
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        let sd = (draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / draws.len() as f64)
            .sqrt();
        assert!((sd - 5.0).abs() < 0.5, "shadowing σ {sd}");
        assert!((mean - pl.path_loss_db(50.0)).abs() < 0.5);
    }
}
