//! Closed-loop SVD transmit beamforming.
//!
//! With channel knowledge at the transmitter, `H = U·Σ·Vᴴ` turns the MIMO
//! channel into parallel scalar pipes: precode with `V`, combine with `Uᴴ`,
//! and each stream sees gain `σᵢ`. Water-filling then pours the power
//! budget into the strongest pipes. This is the paper's "closed loop,
//! transmit side beamforming ... to improve rate and reach", measured in
//! experiment E7, and the mechanism behind effective transmit power control
//! (experiment E12).

use wlan_math::svd::{svd, Svd};
use wlan_math::{CMatrix, Complex};

/// An SVD beamformer for one (flat or per-subcarrier) channel matrix.
///
/// # Examples
///
/// ```
/// use wlan_math::rng::WlanRng;
/// use wlan_channel::MimoChannel;
/// use wlan_mimo::beamforming::SvdBeamformer;
///
/// let mut rng = WlanRng::seed_from_u64(7);
/// let ch = MimoChannel::iid_rayleigh(4, 4, &mut rng);
/// let bf = SvdBeamformer::from_channel(ch.matrix(), 2);
/// assert_eq!(bf.stream_gains().len(), 2);
/// // Stream gains come out strongest-first.
/// assert!(bf.stream_gains()[0] >= bf.stream_gains()[1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SvdBeamformer {
    decomposition: Svd,
    n_streams: usize,
}

impl SvdBeamformer {
    /// Builds a beamformer for `n_streams` streams from full channel
    /// knowledge.
    ///
    /// # Panics
    ///
    /// Panics if `n_streams` is zero or exceeds `min(n_rx, n_tx)`.
    pub fn from_channel(h: &CMatrix, n_streams: usize) -> Self {
        let max = h.rows().min(h.cols());
        assert!(
            n_streams >= 1 && n_streams <= max,
            "stream count must be in 1..={max}"
        );
        SvdBeamformer {
            decomposition: svd(h),
            n_streams,
        }
    }

    /// Per-stream amplitude gains σ₁ ≥ σ₂ ≥ … (one per active stream).
    pub fn stream_gains(&self) -> &[f64] {
        &self.decomposition.sigma[..self.n_streams]
    }

    /// Per-stream effective SNRs (linear) given total transmit SNR
    /// `snr_total` split by `powers` (fractions summing to ≤ 1):
    /// `SNRᵢ = pᵢ·snr_total·σᵢ²`.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` is not the number of active streams.
    fn stream_snrs(&self, snr_total: f64, powers: &[f64]) -> Vec<f64> {
        assert_eq!(powers.len(), self.n_streams, "power allocation mismatch");
        self.stream_gains()
            .iter()
            .zip(powers)
            .map(|(&g, &p)| p * snr_total * g * g)
            .collect()
    }

    /// Beamformed capacity in bps/Hz with the given power allocation.
    pub fn capacity_bps_hz(&self, snr_total: f64, powers: &[f64]) -> f64 {
        self.stream_snrs(snr_total, powers)
            .iter()
            .map(|&s| (1.0 + s).log2())
            .sum()
    }
}

/// Water-filling power allocation over parallel channels with amplitude
/// gains `sigma` at total SNR `snr_total`: maximizes `Σ log2(1 + pᵢ·snr·σᵢ²)`
/// subject to `Σpᵢ = 1`, `pᵢ ≥ 0`. Returns the power fractions.
///
/// # Panics
///
/// Panics if `sigma` is empty or `snr_total <= 0`.
pub fn water_filling(sigma: &[f64], snr_total: f64) -> Vec<f64> {
    assert!(!sigma.is_empty(), "need at least one channel");
    assert!(snr_total > 0.0, "SNR must be positive");
    // Inverse noise-to-gain ratios.
    let inv_gain: Vec<f64> = sigma
        .iter()
        .map(|&s| {
            let g = s * s * snr_total;
            if g > 1e-300 {
                1.0 / g
            } else {
                f64::INFINITY
            }
        })
        .collect();
    // Sort indices by ascending inverse gain (strongest channel first).
    let mut order: Vec<usize> = (0..sigma.len()).collect();
    order.sort_by(|&a, &b| inv_gain[a].total_cmp(&inv_gain[b]));

    // Try k = n, n−1, … active channels until all powers are nonnegative.
    for k in (1..=sigma.len()).rev() {
        let active = &order[..k];
        if active.iter().any(|&i| inv_gain[i].is_infinite()) {
            continue;
        }
        let sum_inv: f64 = active.iter().map(|&i| inv_gain[i]).sum();
        let mu = (1.0 + sum_inv) / k as f64;
        if active.iter().all(|&i| mu >= inv_gain[i]) {
            let mut powers = vec![0.0; sigma.len()];
            for &i in active {
                powers[i] = mu - inv_gain[i];
            }
            return powers;
        }
    }
    // Degenerate: pour everything into the single strongest channel.
    let mut powers = vec![0.0; sigma.len()];
    powers[order[0]] = 1.0;
    powers
}

/// Capacity achieved when the transmitter precodes with a *stale* channel
/// estimate while the true channel has moved on — the closed-loop feedback
/// problem every 802.11n sounding protocol must manage.
///
/// Precoding/combining matrices come from `h_stale`; the signal actually
/// passes through `h_true`, so the effective channel
/// `G = Uᴴ_stale·H_true·V_stale` is no longer diagonal and the off-diagonal
/// leakage becomes inter-stream interference.
///
/// # Panics
///
/// Panics if shapes differ or `n_streams` is invalid.
pub fn stale_beamforming_capacity(
    h_true: &CMatrix,
    h_stale: &CMatrix,
    n_streams: usize,
    snr_total: f64,
) -> f64 {
    assert_eq!(
        (h_true.rows(), h_true.cols()),
        (h_stale.rows(), h_stale.cols()),
        "channel shapes must match"
    );
    let bf = SvdBeamformer::from_channel(h_stale, n_streams);
    let v = bf.decomposition.v();
    let u = &bf.decomposition.u;
    // Effective n_streams × n_streams channel G = Uᴴ H_true V (leading cols).
    let mut g = CMatrix::zeros(n_streams, n_streams);
    for i in 0..n_streams {
        for j in 0..n_streams {
            let mut acc = Complex::ZERO;
            for r in 0..h_true.rows() {
                let mut hv = Complex::ZERO;
                for t in 0..h_true.cols() {
                    hv += h_true.get(r, t) * v.get(t, j);
                }
                acc += u.get(r, i).conj() * hv;
            }
            g.set(i, j, acc);
        }
    }
    let p = snr_total / n_streams as f64;
    (0..n_streams)
        .map(|i| {
            let signal = p * g.get(i, i).norm_sqr();
            let interference: f64 = (0..n_streams)
                .filter(|&j| j != i)
                .map(|j| p * g.get(i, j).norm_sqr())
                .sum();
            (1.0 + signal / (1.0 + interference)).log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::rng::WlanRng;
    use wlan_channel::MimoChannel;

    #[test]
    fn water_filling_sums_to_one() {
        let sigma = [2.0, 1.0, 0.5, 0.1];
        for snr_db in [-5.0, 5.0, 20.0] {
            let p = water_filling(&sigma, wlan_math::special::db_to_lin(snr_db));
            let total: f64 = p.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "snr {snr_db}: total {total}");
            assert!(p.iter().all(|&x| x >= -1e-12));
        }
    }

    #[test]
    fn water_filling_favours_strong_channels_at_low_snr() {
        let sigma = [2.0, 0.2];
        let p = water_filling(&sigma, 0.1);
        assert!(p[0] > 0.99, "low SNR should allocate ~all power: {p:?}");
        // At high SNR allocation approaches uniform.
        let p = water_filling(&sigma, 1e5);
        assert!((p[0] - 0.5).abs() < 0.05, "high SNR should even out: {p:?}");
    }

    #[test]
    fn water_filling_beats_equal_power() {
        let mut rng = WlanRng::seed_from_u64(152);
        let snr = wlan_math::special::db_to_lin(10.0);
        let mut wf_sum = 0.0;
        let mut eq_sum = 0.0;
        for _ in 0..500 {
            let ch = MimoChannel::iid_rayleigh(4, 4, &mut rng);
            let bf = SvdBeamformer::from_channel(ch.matrix(), 4);
            let p_wf = water_filling(bf.stream_gains(), snr);
            let p_eq = vec![0.25; 4];
            wf_sum += bf.capacity_bps_hz(snr, &p_wf);
            eq_sum += bf.capacity_bps_hz(snr, &p_eq);
        }
        assert!(
            wf_sum > eq_sum,
            "water-filling {wf_sum:.1} must beat equal power {eq_sum:.1}"
        );
    }

    #[test]
    fn single_stream_beamforming_collects_full_array_gain() {
        // 4×2 beamforming on one stream: effective gain is σ₁², which for
        // i.i.d. Rayleigh is far above the single-antenna mean of 1.
        let mut rng = WlanRng::seed_from_u64(153);
        let mut acc = 0.0;
        let trials = 2_000;
        for _ in 0..trials {
            let ch = MimoChannel::iid_rayleigh(2, 4, &mut rng);
            let bf = SvdBeamformer::from_channel(ch.matrix(), 1);
            acc += bf.stream_gains()[0].powi(2);
        }
        let mean = acc / trials as f64;
        assert!(mean > 3.0, "σ₁² mean {mean} should far exceed 1");
    }

    #[test]
    #[should_panic(expected = "stream count must be")]
    fn stream_count_checked() {
        let h = CMatrix::identity(2);
        let _ = SvdBeamformer::from_channel(&h, 3);
    }

    #[test]
    fn fresh_estimate_matches_ideal_beamforming() {
        let mut rng = WlanRng::seed_from_u64(154);
        let ch = MimoChannel::iid_rayleigh(3, 3, &mut rng);
        let snr = wlan_math::special::db_to_lin(15.0);
        let stale = stale_beamforming_capacity(ch.matrix(), ch.matrix(), 2, snr);
        let bf = SvdBeamformer::from_channel(ch.matrix(), 2);
        let ideal = bf.capacity_bps_hz(snr, &[0.5, 0.5]);
        assert!(
            (stale - ideal).abs() < 1e-6,
            "fresh CSI: {stale} vs ideal {ideal}"
        );
    }

    #[test]
    fn stale_estimate_loses_capacity() {
        // Decorrelate the estimate progressively (Jakes-style aging):
        // H_stale = ρ·H + √(1−ρ²)·W. Capacity must fall monotonically in
        // expectation as ρ drops.
        let mut rng = WlanRng::seed_from_u64(155);
        let snr = wlan_math::special::db_to_lin(15.0);
        let trials = 400;
        let mut caps = Vec::new();
        for rho in [1.0f64, 0.95, 0.7, 0.0] {
            let mut acc = 0.0;
            for _ in 0..trials {
                let h = MimoChannel::iid_rayleigh(3, 3, &mut rng);
                let w = MimoChannel::iid_rayleigh(3, 3, &mut rng);
                let stale_m = &h.matrix().scale(rho)
                    + &w.matrix().scale((1.0 - rho * rho).sqrt());
                acc += stale_beamforming_capacity(h.matrix(), &stale_m, 2, snr);
            }
            caps.push(acc / trials as f64);
        }
        for w in caps.windows(2) {
            assert!(w[0] > w[1], "staleness must cost capacity: {caps:?}");
        }
        // Fully decorrelated feedback loses a large share.
        assert!(caps[3] < 0.7 * caps[0], "{caps:?}");
    }
}
