//! Spatial-multiplexing detectors.
//!
//! Given `y = H·x + n` with `N_ss` unit-power streams and noise variance
//! `n0` per receive antenna, recover `x`. Zero-forcing inverts the channel
//! (noise-enhancing on ill-conditioned channels) and MMSE regularizes by
//! the noise level. The ZF/MMSE gap at low SNR is one of the E7 ablations.

use wlan_math::{CMatrix, Complex, WlanError};

/// Detector choice for the spatial-multiplexing receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Detector {
    /// Zero-forcing (channel pseudo-inverse).
    ZeroForcing,
    /// Linear minimum mean-square error.
    Mmse,
}

/// Result of linear detection: per-stream estimates and reliabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct Detected {
    /// Unbiased per-stream symbol estimates.
    pub symbols: Vec<Complex>,
    /// Per-stream post-detection SINR (linear) — the CSI weight for soft
    /// demapping.
    pub sinr: Vec<f64>,
}

/// Validates the shared preconditions of the linear detectors: consistent
/// dimensions, a positive finite noise variance, and finite inputs. A
/// singular realization under fault injection must surface as a typed
/// decode failure, never as a panic in the hot loop.
fn check_inputs(h: &CMatrix, y: &[Complex], n0: f64) -> Result<(), WlanError> {
    if y.len() != h.rows() {
        return Err(WlanError::LengthMismatch {
            expected: h.rows(),
            got: y.len(),
        });
    }
    if !n0.is_finite() {
        return Err(WlanError::NonFinite("noise variance"));
    }
    if n0 <= 0.0 {
        return Err(WlanError::InvalidConfig("noise variance must be positive"));
    }
    if !y.iter().all(|v| v.is_finite()) {
        return Err(WlanError::NonFinite("received vector"));
    }
    for r in 0..h.rows() {
        for c in 0..h.cols() {
            if !h.get(r, c).is_finite() {
                return Err(WlanError::NonFinite("channel matrix"));
            }
        }
    }
    Ok(())
}

/// Zero-forcing detection: `x̂ = (HᴴH)⁻¹Hᴴ·y`.
///
/// # Errors
///
/// Returns [`WlanError::SingularChannel`] when `HᴴH` is singular
/// (rank-deficient channel), [`WlanError::LengthMismatch`] on inconsistent
/// dimensions, and [`WlanError::NonFinite`] / [`WlanError::InvalidConfig`]
/// on degenerate inputs. Never panics.
fn zero_forcing(h: &CMatrix, y: &[Complex], n0: f64) -> Result<Detected, WlanError> {
    check_inputs(h, y, n0)?;
    let gram = h.gram();
    let gram_inv = gram.inverse()?;
    let hh = h.hermitian();
    let matched = hh.mul_vec(y);
    let symbols = gram_inv.mul_vec(&matched);
    // Post-ZF SNR of stream i: 1 / (n0 · [(HᴴH)⁻¹]_ii).
    let sinr = (0..h.cols())
        .map(|i| {
            let d = gram_inv.get(i, i).re.max(1e-300);
            1.0 / (n0 * d)
        })
        .collect();
    Ok(Detected { symbols, sinr })
}

/// Linear MMSE detection with unbiasing:
/// `x̂ = (HᴴH + n0·I)⁻¹Hᴴ·y`, rescaled per stream.
///
/// # Errors
///
/// Returns [`WlanError::SingularChannel`] only in pathological cases (the
/// regularized matrix is almost always invertible); input validation
/// matches zero-forcing detection. Never panics.
pub fn mmse(h: &CMatrix, y: &[Complex], n0: f64) -> Result<Detected, WlanError> {
    check_inputs(h, y, n0)?;
    let gram = h.gram();
    let reg_inv = gram.add_diagonal(n0).inverse()?;
    let matched = h.hermitian().mul_vec(y);
    let biased = reg_inv.mul_vec(&matched);

    // Error covariance E = (I + HᴴH/n0)⁻¹ = n0·(HᴴH + n0 I)⁻¹.
    // SINR_i = 1/E_ii − 1; bias factor of stream i is (1 − E_ii).
    let mut symbols = Vec::with_capacity(h.cols());
    let mut sinr = Vec::with_capacity(h.cols());
    for (i, &b) in biased.iter().enumerate() {
        let e_ii = (n0 * reg_inv.get(i, i).re).clamp(1e-12, 1.0);
        let s = (1.0 / e_ii - 1.0).max(0.0);
        sinr.push(s);
        symbols.push(b / (1.0 - e_ii).max(1e-12));
    }
    Ok(Detected { symbols, sinr })
}

/// Runs the chosen linear detector.
///
/// # Errors
///
/// Propagates [`WlanError`] from the underlying detector.
pub fn detect(
    detector: Detector,
    h: &CMatrix,
    y: &[Complex],
    n0: f64,
) -> Result<Detected, WlanError> {
    match detector {
        Detector::ZeroForcing => zero_forcing(h, y, n0),
        Detector::Mmse => mmse(h, y, n0),
    }
}

/// A linear detector prepared once per (channel, noise) pair and applied to
/// a batch of observations — the structure-of-arrays half of the MIMO-OFDM
/// receive kernel.
///
/// For OFDM the channel matrix of a subcarrier is constant across all of a
/// frame's symbols, so the expensive factorization (Gram matrix, regularized
/// inverse, per-stream SINR and unbiasing gains) is hoisted out of the
/// per-symbol loop. Application preserves the exact floating-point operation
/// sequence of [`mmse`] and of zero-forcing — matched filter, then inverse,
/// then per-stream unbiasing — so batched and per-symbol detection are
/// bit-identical; the batch equivalence suite pins this.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearDetector {
    /// `Hᴴ` (matched filter).
    hh: CMatrix,
    /// `(HᴴH)⁻¹` for ZF, `(HᴴH + n0·I)⁻¹` for MMSE.
    inv: CMatrix,
    /// Per-stream post-detection SINR (the CSI weight for soft demapping).
    sinr: Vec<f64>,
    /// Per-stream unbiasing divisors `(1 − E_ii)` — `None` for ZF, which is
    /// already unbiased.
    unbias: Option<Vec<f64>>,
    n_rx: usize,
    n_ss: usize,
    /// Matched-filter / output scratch, reused across observations.
    scratch: Vec<Complex>,
}

impl LinearDetector {
    /// Factors the detector for one `(h, n0)` pair.
    ///
    /// # Errors
    ///
    /// Returns [`WlanError::SingularChannel`] on a rank-deficient channel
    /// (ZF only, in practice), [`WlanError::NonFinite`] /
    /// [`WlanError::InvalidConfig`] on degenerate inputs. Never panics.
    pub fn prepare(detector: Detector, h: &CMatrix, n0: f64) -> Result<Self, WlanError> {
        if !n0.is_finite() {
            return Err(WlanError::NonFinite("noise variance"));
        }
        if n0 <= 0.0 {
            return Err(WlanError::InvalidConfig("noise variance must be positive"));
        }
        for r in 0..h.rows() {
            for c in 0..h.cols() {
                if !h.get(r, c).is_finite() {
                    return Err(WlanError::NonFinite("channel matrix"));
                }
            }
        }
        let gram = h.gram();
        let (inv, sinr, unbias) = match detector {
            Detector::ZeroForcing => {
                let gram_inv = gram.inverse()?;
                // Post-ZF SNR of stream i: 1 / (n0 · [(HᴴH)⁻¹]_ii).
                let sinr = (0..h.cols())
                    .map(|i| {
                        let d = gram_inv.get(i, i).re.max(1e-300);
                        1.0 / (n0 * d)
                    })
                    .collect();
                (gram_inv, sinr, None)
            }
            Detector::Mmse => {
                let reg_inv = gram.add_diagonal(n0).inverse()?;
                // Error covariance E = n0·(HᴴH + n0 I)⁻¹: SINR_i = 1/E_ii − 1
                // and the bias factor of stream i is (1 − E_ii).
                let mut sinr = Vec::with_capacity(h.cols());
                let mut unbias = Vec::with_capacity(h.cols());
                for i in 0..h.cols() {
                    let e_ii = (n0 * reg_inv.get(i, i).re).clamp(1e-12, 1.0);
                    sinr.push((1.0 / e_ii - 1.0).max(0.0));
                    unbias.push((1.0 - e_ii).max(1e-12));
                }
                (reg_inv, sinr, Some(unbias))
            }
        };
        Ok(LinearDetector {
            hh: h.hermitian(),
            inv,
            sinr,
            unbias,
            n_rx: h.rows(),
            n_ss: h.cols(),
            scratch: Vec::new(),
        })
    }

    /// Per-stream post-detection SINR (constant across a batch).
    pub fn sinr(&self) -> &[f64] {
        &self.sinr
    }

    /// Number of spatial streams each observation resolves into.
    pub fn n_streams(&self) -> usize {
        self.n_ss
    }

    /// Detects one observation, appending `n_streams` symbol estimates to
    /// `symbols`; on error nothing is appended.
    ///
    /// # Errors
    ///
    /// [`WlanError::LengthMismatch`] on a wrong observation length,
    /// [`WlanError::NonFinite`] on a non-finite observation.
    fn detect_append(
        &mut self,
        y: &[Complex],
        symbols: &mut Vec<Complex>,
    ) -> Result<(), WlanError> {
        if y.len() != self.n_rx {
            return Err(WlanError::LengthMismatch {
                expected: self.n_rx,
                got: y.len(),
            });
        }
        if !y.iter().all(|v| v.is_finite()) {
            return Err(WlanError::NonFinite("received vector"));
        }
        // Matched filter then inverse — the op order of mmse()/zero_forcing().
        self.scratch.clear();
        self.hh.mul_vec_append(y, &mut self.scratch);
        let base = symbols.len();
        self.inv.mul_vec_append(&self.scratch, symbols);
        if let Some(unbias) = &self.unbias {
            for (s, &d) in symbols[base..].iter_mut().zip(unbias) {
                // Componentwise division, matching `mmse`'s `b / divisor`
                // exactly (not a multiply by the reciprocal).
                let unbiased = *s / d;
                *s = unbiased;
            }
        }
        Ok(())
    }

    /// Detects a structure-of-arrays batch: `ys` holds whole `n_rx`-length
    /// observations back to back (`ys.len() / n_rx` of them, e.g. one
    /// subcarrier across all of a frame's OFDM symbols). Appends
    /// `n_streams` estimates per observation to `symbols` and one flag per
    /// observation to `ok`; a failed observation (non-finite input) appends
    /// `n_streams` zeros and `false`, so downstream demapping can emit
    /// erasures without disturbing the batch layout.
    ///
    /// # Errors
    ///
    /// [`WlanError::LengthMismatch`] if `ys` is not whole observations.
    pub fn detect_batch(
        &mut self,
        ys: &[Complex],
        symbols: &mut Vec<Complex>,
        ok: &mut Vec<bool>,
    ) -> Result<(), WlanError> {
        if !ys.len().is_multiple_of(self.n_rx) {
            return Err(WlanError::LengthMismatch {
                expected: ys.len().next_multiple_of(self.n_rx.max(1)),
                got: ys.len(),
            });
        }
        for y in ys.chunks_exact(self.n_rx) {
            match self.detect_append(y, symbols) {
                Ok(()) => ok.push(true),
                Err(_) => {
                    symbols.extend(std::iter::repeat_n(Complex::ZERO, self.n_ss));
                    ok.push(false);
                }
            }
        }
        Ok(())
    }

    /// Detects one observation into a [`Detected`] (per-call allocation;
    /// the equivalence tests compare this against [`detect`]).
    pub fn detect_one(&mut self, y: &[Complex]) -> Result<Detected, WlanError> {
        let mut symbols = Vec::with_capacity(self.n_ss);
        self.detect_append(y, &mut symbols)?;
        Ok(Detected { symbols, sinr: self.sinr.clone() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::rng::WlanRng;
    use wlan_channel::noise::complex_gaussian;
    use wlan_channel::MimoChannel;

    fn qpsk_alphabet() -> Vec<Complex> {
        let a = std::f64::consts::FRAC_1_SQRT_2;
        vec![
            Complex::new(a, a),
            Complex::new(a, -a),
            Complex::new(-a, a),
            Complex::new(-a, -a),
        ]
    }

    #[test]
    fn zf_inverts_clean_channel() {
        let mut rng = WlanRng::seed_from_u64(120);
        let ch = MimoChannel::iid_rayleigh(3, 3, &mut rng);
        let x = [Complex::ONE, Complex::I, -Complex::ONE];
        let y = ch.apply(&x);
        let det = zero_forcing(ch.matrix(), &y, 1e-6).unwrap();
        for (a, b) in det.symbols.iter().zip(&x) {
            assert!((*a - *b).norm() < 1e-6);
        }
    }

    #[test]
    fn mmse_approaches_zf_at_high_snr() {
        let mut rng = WlanRng::seed_from_u64(121);
        let ch = MimoChannel::iid_rayleigh(2, 2, &mut rng);
        let x = [Complex::new(0.7, 0.7), Complex::new(-0.7, 0.7)];
        let y = ch.apply(&x);
        let n0 = 1e-8;
        let zf = zero_forcing(ch.matrix(), &y, n0).unwrap();
        let mm = mmse(ch.matrix(), &y, n0).unwrap();
        for (a, b) in zf.symbols.iter().zip(&mm.symbols) {
            assert!((*a - *b).norm() < 1e-4);
        }
    }

    #[test]
    fn mmse_beats_zf_at_low_snr() {
        // Average post-detection symbol MSE over random channels at 3 dB.
        let mut rng = WlanRng::seed_from_u64(122);
        let n0: f64 = 0.5;
        let alphabet = qpsk_alphabet();
        let mut zf_err = 0.0;
        let mut mmse_err = 0.0;
        let trials = 3_000;
        for t in 0..trials {
            let ch = MimoChannel::iid_rayleigh(2, 2, &mut rng);
            let x = [
                alphabet[t % 4],
                alphabet[(t / 4) % 4],
            ];
            let mut y = ch.apply(&x);
            for v in y.iter_mut() {
                *v += complex_gaussian(&mut rng).scale(n0.sqrt());
            }
            if let Ok(d) = zero_forcing(ch.matrix(), &y, n0) {
                zf_err += d
                    .symbols
                    .iter()
                    .zip(&x)
                    .map(|(a, b)| (*a - *b).norm_sqr())
                    .sum::<f64>();
            }
            let d = mmse(ch.matrix(), &y, n0).unwrap();
            mmse_err += d
                .symbols
                .iter()
                .zip(&x)
                .map(|(a, b)| (*a - *b).norm_sqr())
                .sum::<f64>();
        }
        assert!(
            mmse_err < zf_err,
            "MMSE ({mmse_err:.1}) should beat ZF ({zf_err:.1}) at low SNR"
        );
    }

    #[test]
    fn sinr_predicts_more_antennas_help() {
        let mut rng = WlanRng::seed_from_u64(123);
        let n0 = 0.1;
        let mean_sinr = |n_rx: usize, rng: &mut WlanRng| -> f64 {
            let mut acc = 0.0;
            let trials = 2_000;
            for _ in 0..trials {
                let ch = MimoChannel::iid_rayleigh(n_rx, 2, rng);
                let y = vec![Complex::ZERO; n_rx];
                let d = mmse(ch.matrix(), &y, n0).unwrap();
                acc += d.sinr.iter().sum::<f64>() / 2.0;
            }
            acc / trials as f64
        };
        let two = mean_sinr(2, &mut rng);
        let four = mean_sinr(4, &mut rng);
        assert!(four > 2.0 * two, "4 RX {four} vs 2 RX {two}");
    }

    #[test]
    fn singular_channel_reported() {
        let h = CMatrix::from_rows(&[
            &[Complex::ONE, Complex::ONE],
            &[Complex::ONE, Complex::ONE],
        ]);
        let y = [Complex::ONE, Complex::ONE];
        assert_eq!(
            zero_forcing(&h, &y, 0.1).unwrap_err(),
            WlanError::SingularChannel
        );
        // MMSE regularization handles it.
        assert!(mmse(&h, &y, 0.1).is_ok());
    }

    #[test]
    fn degenerate_inputs_are_typed_errors_not_panics() {
        let h = CMatrix::identity(2);
        let y = [Complex::ONE, Complex::ONE];
        for det in [Detector::ZeroForcing, Detector::Mmse] {
            // Wrong observation length.
            assert_eq!(
                detect(det, &h, &y[..1], 0.1).unwrap_err(),
                WlanError::LengthMismatch { expected: 2, got: 1 }
            );
            // Degenerate noise variance.
            assert_eq!(
                detect(det, &h, &y, 0.0).unwrap_err(),
                WlanError::InvalidConfig("noise variance must be positive")
            );
            assert_eq!(
                detect(det, &h, &y, f64::NAN).unwrap_err(),
                WlanError::NonFinite("noise variance")
            );
            // Non-finite observation.
            let bad_y = [Complex::new(f64::NAN, 0.0), Complex::ONE];
            assert_eq!(
                detect(det, &h, &bad_y, 0.1).unwrap_err(),
                WlanError::NonFinite("received vector")
            );
            // Non-finite channel coefficient.
            let mut bad_h = CMatrix::identity(2);
            bad_h.set(1, 0, Complex::new(0.0, f64::INFINITY));
            assert_eq!(
                detect(det, &bad_h, &y, 0.1).unwrap_err(),
                WlanError::NonFinite("channel matrix")
            );
        }
    }
}
