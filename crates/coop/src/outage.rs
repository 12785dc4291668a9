//! Outage probability of cooperative protocols.
//!
//! A link is in outage when its instantaneous mutual information falls below
//! the target rate `R`. For direct Rayleigh transmission the outage is
//! `P = 1 − exp(−(2^R − 1)/γ̄)`; two-phase cooperation pays a rate penalty
//! (each symbol occupies two slots, so the threshold becomes `2^{2R} − 1`)
//! but gains diversity order 2 — outage falls with the *square* of SNR. The
//! crossover and the slope change are the content of experiment E9.

use wlan_math::rng::Rng;
use wlan_channel::noise::complex_gaussian;

/// Cooperative protocol under analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Source → destination only.
    Direct,
    /// Two-phase selective decode-and-forward with MRC.
    DecodeForward,
    /// Two-phase amplify-and-forward with MRC.
    AmplifyForward,
}

/// Analytic outage probability of direct Rayleigh transmission.
///
/// `snr_db` is the mean SNR, `rate` the target spectral efficiency in
/// bps/Hz.
pub fn direct_outage_analytic(snr_db: f64, rate: f64) -> f64 {
    let snr = wlan_math::special::db_to_lin(snr_db);
    let threshold = 2f64.powf(rate) - 1.0;
    1.0 - (-threshold / snr).exp()
}

/// Monte-Carlo outage probability of a protocol over i.i.d. unit Rayleigh
/// links at mean SNR `snr_db` and target rate `rate` bps/Hz.
///
/// # Panics
///
/// Panics if `trials` is zero or `rate <= 0`.
pub fn simulate_outage(
    protocol: Protocol,
    snr_db: f64,
    rate: f64,
    trials: usize,
    rng: &mut impl Rng,
) -> f64 {
    assert!(trials > 0, "need at least one trial");
    assert!(rate > 0.0, "rate must be positive");
    let snr = wlan_math::special::db_to_lin(snr_db);
    let mut outages = 0usize;
    for _ in 0..trials {
        let g_sd = complex_gaussian(rng).norm_sqr();
        let capacity = match protocol {
            Protocol::Direct => (1.0 + snr * g_sd).log2(),
            Protocol::DecodeForward => {
                let g_sr = complex_gaussian(rng).norm_sqr();
                let g_rd = complex_gaussian(rng).norm_sqr();
                // Half the slots carry new data (factor 1/2). The relay
                // participates only if it can decode phase 1 at rate 2R.
                let relay_decodes = 0.5 * (1.0 + snr * g_sr).log2() >= rate;
                let combined = if relay_decodes { g_sd + g_rd } else { g_sd };
                0.5 * (1.0 + snr * combined).log2()
            }
            Protocol::AmplifyForward => {
                let g_sr = complex_gaussian(rng).norm_sqr();
                let g_rd = complex_gaussian(rng).norm_sqr();
                // Harmonic-mean SNR of the cascaded relay path.
                let relay_snr = (snr * g_sr * snr * g_rd) / (snr * g_sr + snr * g_rd + 1.0);
                0.5 * (1.0 + snr * g_sd + relay_snr).log2()
            }
        };
        if capacity < rate {
            outages += 1;
        }
    }
    outages as f64 / trials as f64
}

/// Estimates the diversity order of a protocol as the negative slope of
/// `log10(outage)` versus `snr/10` between two SNR points.
pub fn diversity_order(
    protocol: Protocol,
    snr_lo_db: f64,
    snr_hi_db: f64,
    rate: f64,
    trials: usize,
    rng: &mut impl Rng,
) -> f64 {
    let p_lo = simulate_outage(protocol, snr_lo_db, rate, trials, rng).max(1e-12);
    let p_hi = simulate_outage(protocol, snr_hi_db, rate, trials, rng).max(1e-12);
    -(p_hi.log10() - p_lo.log10()) / ((snr_hi_db - snr_lo_db) / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::rng::WlanRng;

    #[test]
    fn simulation_matches_direct_analytic() {
        let mut rng = WlanRng::seed_from_u64(230);
        for snr_db in [5.0, 10.0, 20.0] {
            let sim = simulate_outage(Protocol::Direct, snr_db, 1.0, 100_000, &mut rng);
            let ana = direct_outage_analytic(snr_db, 1.0);
            assert!(
                (sim - ana).abs() < 0.01,
                "snr {snr_db}: sim {sim} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn outage_decreases_with_snr() {
        let mut rng = WlanRng::seed_from_u64(231);
        for proto in [Protocol::Direct, Protocol::DecodeForward, Protocol::AmplifyForward] {
            let lo = simulate_outage(proto, 5.0, 1.0, 50_000, &mut rng);
            let hi = simulate_outage(proto, 20.0, 1.0, 50_000, &mut rng);
            assert!(hi < lo, "{proto:?}: {hi} not below {lo}");
        }
    }

    #[test]
    fn cooperation_wins_at_high_snr() {
        // At high SNR the diversity gain dominates the half-rate penalty.
        let mut rng = WlanRng::seed_from_u64(232);
        let snr_db = 22.0;
        let direct = simulate_outage(Protocol::Direct, snr_db, 1.0, 200_000, &mut rng);
        let df = simulate_outage(Protocol::DecodeForward, snr_db, 1.0, 200_000, &mut rng);
        let af = simulate_outage(Protocol::AmplifyForward, snr_db, 1.0, 200_000, &mut rng);
        assert!(df < 0.3 * direct, "DF {df} vs direct {direct}");
        assert!(af < 0.3 * direct, "AF {af} vs direct {direct}");
    }

    #[test]
    fn direct_wins_at_very_low_snr() {
        // Below the crossover the half-rate penalty hurts more than
        // diversity helps — the textbook cooperative trade-off.
        let mut rng = WlanRng::seed_from_u64(233);
        let snr_db = 0.0;
        let direct = simulate_outage(Protocol::Direct, snr_db, 1.0, 100_000, &mut rng);
        let df = simulate_outage(Protocol::DecodeForward, snr_db, 1.0, 100_000, &mut rng);
        assert!(df > direct, "at 0 dB direct {direct} should beat DF {df}");
    }

    #[test]
    fn diversity_orders_are_one_and_two() {
        let mut rng = WlanRng::seed_from_u64(234);
        let d_direct = diversity_order(Protocol::Direct, 15.0, 25.0, 1.0, 400_000, &mut rng);
        let d_df = diversity_order(Protocol::DecodeForward, 15.0, 25.0, 1.0, 400_000, &mut rng);
        assert!(
            (d_direct - 1.0).abs() < 0.25,
            "direct diversity order {d_direct}"
        );
        assert!(d_df > 1.6, "DF diversity order {d_df} should approach 2");
    }

    #[test]
    fn analytic_limits() {
        assert!(direct_outage_analytic(60.0, 1.0) < 1e-5);
        assert!(direct_outage_analytic(-20.0, 1.0) > 0.99);
    }
}
