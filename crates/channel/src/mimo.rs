//! MIMO channel matrices.
//!
//! The "several-fold" range and rate gains the paper attributes to MIMO all
//! flow from the statistics of the channel matrix `H` (N_rx × N_tx). This
//! module draws i.i.d. Rayleigh realizations, both flat and per-subcarrier
//! (by pairing a [`crate::multipath`] delay profile with every antenna
//! pair).

use crate::multipath::{MultipathChannel, PowerDelayProfile};
use crate::noise::complex_gaussian;
use wlan_math::rng::Rng;
use wlan_math::{CMatrix, Complex, WlanError};

/// A flat MIMO channel realization.
///
/// # Examples
///
/// ```
/// use wlan_math::rng::WlanRng;
/// use wlan_channel::MimoChannel;
///
/// let mut rng = WlanRng::seed_from_u64(9);
/// let ch = MimoChannel::iid_rayleigh(2, 2, &mut rng);
/// assert_eq!(ch.matrix().rows(), 2);
/// assert!(ch.capacity_bps_hz(10.0) > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MimoChannel {
    h: CMatrix,
}

impl MimoChannel {
    /// Draws an `n_rx × n_tx` i.i.d. `CN(0, 1)` channel.
    ///
    /// # Panics
    ///
    /// Panics if either antenna count is zero.
    pub fn iid_rayleigh(n_rx: usize, n_tx: usize, rng: &mut impl Rng) -> Self {
        assert!(n_rx > 0 && n_tx > 0, "antenna counts must be positive");
        let mut h = CMatrix::zeros(n_rx, n_tx);
        for r in 0..n_rx {
            for c in 0..n_tx {
                h.set(r, c, complex_gaussian(rng));
            }
        }
        MimoChannel { h }
    }

    /// The channel matrix `H` (N_rx × N_tx).
    pub fn matrix(&self) -> &CMatrix {
        &self.h
    }

    /// Receive antenna count.
    pub fn n_rx(&self) -> usize {
        self.h.rows()
    }

    /// Transmit antenna count.
    pub fn n_tx(&self) -> usize {
        self.h.cols()
    }

    /// Applies the channel to one vector of transmit symbols (one per TX
    /// antenna), without noise.
    ///
    /// # Panics
    ///
    /// Panics if `tx.len() != self.n_tx()`.
    pub fn apply(&self, tx: &[Complex]) -> Vec<Complex> {
        self.h.mul_vec(tx)
    }

    /// Open-loop MIMO capacity `log2 det(I + (ρ/N_tx)·H·Hᴴ)` in bps/Hz at
    /// the given SNR (dB), with equal power allocation.
    pub fn capacity_bps_hz(&self, snr_db: f64) -> f64 {
        let snr = wlan_math::special::db_to_lin(snr_db);
        let scale = snr / self.n_tx() as f64;
        let hh = &self.h * &self.h.hermitian();
        let m = hh.scale(scale).add_diagonal(1.0);
        log2_det_hermitian(&m)
    }
}

/// A frequency-selective MIMO channel: one tapped delay line per antenna
/// pair, all sharing a power-delay profile.
#[derive(Debug, Clone)]
pub struct MimoMultipathChannel {
    n_rx: usize,
    n_tx: usize,
    /// Row-major per-pair channels: `pair[r * n_tx + c]`.
    pairs: Vec<MultipathChannel>,
}

impl MimoMultipathChannel {
    /// Draws independent multipath realizations for every antenna pair.
    ///
    /// # Panics
    ///
    /// Panics if an antenna count is zero.
    pub fn realize(
        n_rx: usize,
        n_tx: usize,
        pdp: &PowerDelayProfile,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(n_rx > 0 && n_tx > 0, "antenna counts must be positive");
        let pairs = (0..n_rx * n_tx)
            .map(|_| MultipathChannel::realize(pdp, rng))
            .collect();
        MimoMultipathChannel { n_rx, n_tx, pairs }
    }

    /// Receive antenna count.
    pub fn n_rx(&self) -> usize {
        self.n_rx
    }

    /// Transmit antenna count.
    pub fn n_tx(&self) -> usize {
        self.n_tx
    }

    /// The tapped-delay-line channel from TX antenna `tx` to RX antenna `rx`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn pair(&self, rx: usize, tx: usize) -> &MultipathChannel {
        assert!(rx < self.n_rx && tx < self.n_tx, "antenna index out of range");
        &self.pairs[rx * self.n_tx + tx]
    }

    /// Propagates per-antenna transmit streams through every antenna pair
    /// and adds AWGN of variance `n0` per receive antenna: one stream per
    /// receive antenna, as long as the longest transmit stream.
    ///
    /// # Errors
    ///
    /// [`WlanError::LengthMismatch`] if `tx.len() != self.n_tx()`.
    pub fn propagate(
        &self,
        tx: &[Vec<Complex>],
        n0: f64,
        rng: &mut impl Rng,
    ) -> Result<Vec<Vec<Complex>>, WlanError> {
        if tx.len() != self.n_tx {
            return Err(WlanError::LengthMismatch {
                expected: self.n_tx,
                got: tx.len(),
            });
        }
        let len = tx.iter().map(|t| t.len()).max().unwrap_or(0);
        let mut rx = Vec::with_capacity(self.n_rx);
        // One filter buffer serves every antenna pair. Each pair's output
        // is added whole, in transmit-antenna order, which fixes the
        // summation order of every received sample.
        let mut filtered = Vec::new();
        for r in 0..self.n_rx {
            let mut acc = vec![Complex::ZERO; len];
            for (t, stream) in tx.iter().enumerate() {
                self.pair(r, t).filter_into(stream, &mut filtered);
                for (a, &v) in acc.iter_mut().zip(&filtered) {
                    *a += v;
                }
            }
            if n0 > 0.0 {
                let sigma = n0.sqrt();
                for v in acc.iter_mut() {
                    *v += complex_gaussian(rng).scale(sigma);
                }
            }
            rx.push(acc);
        }
        Ok(rx)
    }

    /// The per-subcarrier channel matrices for an `n_fft`-point OFDM system:
    /// element `k` is the `n_rx × n_tx` matrix at subcarrier `k`.
    pub fn frequency_response(&self, n_fft: usize) -> Vec<CMatrix> {
        let responses: Vec<Vec<Complex>> = self
            .pairs
            .iter()
            .map(|p| p.frequency_response(n_fft))
            .collect();
        (0..n_fft)
            .map(|k| {
                let mut m = CMatrix::zeros(self.n_rx, self.n_tx);
                for r in 0..self.n_rx {
                    for c in 0..self.n_tx {
                        m.set(r, c, responses[r * self.n_tx + c][k]);
                    }
                }
                m
            })
            .collect()
    }
}

/// `log2 det(M)` for a Hermitian positive-definite `M`, via LU-free
/// Cholesky-style elimination on the real diagonal.
fn log2_det_hermitian(m: &CMatrix) -> f64 {
    let n = m.rows();
    let mut a = m.clone();
    let mut logdet = 0.0;
    for k in 0..n {
        let pivot = a.get(k, k).re;
        if pivot <= 0.0 {
            return f64::NEG_INFINITY;
        }
        logdet += pivot.log2();
        for i in (k + 1)..n {
            let factor = a.get(i, k) / a.get(k, k);
            for j in k..n {
                let v = a.get(i, j) - factor * a.get(k, j);
                a.set(i, j, v);
            }
        }
    }
    logdet
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::rng::WlanRng;

    #[test]
    fn propagate_checks_the_antenna_count() {
        let mut rng = WlanRng::seed_from_u64(163);
        let ch = MimoMultipathChannel::realize(2, 2, &PowerDelayProfile::flat(), &mut rng);
        let one = vec![Complex::ONE; 8];
        let err = ch.propagate(std::slice::from_ref(&one), 0.0, &mut rng).unwrap_err();
        assert_eq!(err, WlanError::LengthMismatch { expected: 2, got: 1 });
        let rx = ch.propagate(&[one.clone(), one], 0.0, &mut rng).unwrap();
        assert_eq!(rx.len(), 2);
    }

    #[test]
    fn iid_entries_have_unit_power() {
        let mut rng = WlanRng::seed_from_u64(50);
        let mut acc = 0.0;
        let trials = 5_000;
        for _ in 0..trials {
            let ch = MimoChannel::iid_rayleigh(2, 2, &mut rng);
            acc += ch.matrix().frobenius_norm().powi(2);
        }
        let per_entry = acc / (trials as f64 * 4.0);
        assert!((per_entry - 1.0).abs() < 0.05, "per-entry power {per_entry}");
    }

    #[test]
    fn capacity_grows_with_antennas() {
        // Ergodic capacity: 4×4 ≫ 2×2 ≫ 1×1 at high SNR.
        let mut rng = WlanRng::seed_from_u64(51);
        let snr_db = 20.0;
        let trials = 500;
        let mut caps = [0.0f64; 3];
        for _ in 0..trials {
            caps[0] += MimoChannel::iid_rayleigh(1, 1, &mut rng).capacity_bps_hz(snr_db);
            caps[1] += MimoChannel::iid_rayleigh(2, 2, &mut rng).capacity_bps_hz(snr_db);
            caps[2] += MimoChannel::iid_rayleigh(4, 4, &mut rng).capacity_bps_hz(snr_db);
        }
        for c in &mut caps {
            *c /= trials as f64;
        }
        assert!(caps[1] > 1.7 * caps[0], "2x2 {:.2} vs 1x1 {:.2}", caps[1], caps[0]);
        assert!(caps[2] > 1.7 * caps[1], "4x4 {:.2} vs 2x2 {:.2}", caps[2], caps[1]);
    }

    #[test]
    fn identity_channel_capacity_matches_shannon() {
        let ch = MimoChannel {
            h: CMatrix::identity(1),
        };
        let c = ch.capacity_bps_hz(10.0);
        let want = (1.0 + 10.0f64).log2();
        assert!((c - want).abs() < 1e-9);
    }

    #[test]
    fn apply_matches_matrix_product() {
        let mut rng = WlanRng::seed_from_u64(54);
        let ch = MimoChannel::iid_rayleigh(3, 2, &mut rng);
        let tx = [Complex::ONE, Complex::I];
        let rx = ch.apply(&tx);
        assert_eq!(rx.len(), 3);
        let manual = ch.matrix().mul_vec(&tx);
        for (a, b) in rx.iter().zip(&manual) {
            assert!((*a - *b).norm() < 1e-15);
        }
    }

    #[test]
    fn multipath_mimo_shapes() {
        let mut rng = WlanRng::seed_from_u64(55);
        let pdp = PowerDelayProfile::tgn_model('D');
        let ch = MimoMultipathChannel::realize(2, 3, &pdp, &mut rng);
        let fr = ch.frequency_response(64);
        assert_eq!(fr.len(), 64);
        assert_eq!((fr[0].rows(), fr[0].cols()), (2, 3));
        // Subcarrier 0 response equals the tap sum of each pair.
        let sum0: Complex = ch.pair(1, 2).taps().iter().copied().sum();
        assert!((fr[0].get(1, 2) - sum0).norm() < 1e-9);
    }
}
