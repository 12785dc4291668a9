//! Spatial-multiplexing detectors.
//!
//! Given `y = H·x + n` with `N_ss` unit-power streams and noise variance
//! `n0` per receive antenna, recover `x`. Zero-forcing inverts the channel
//! (noise-enhancing on ill-conditioned channels) and MMSE regularizes by
//! the noise level. The ZF/MMSE gap at low SNR is one of the E7 ablations.
//!
//! [`detect`] and [`mmse`] work on a [`CMatrix`] per call. The receivers
//! instead prepare a [`LinearDetector`] once per subcarrier and run it down
//! the frame's symbols; it holds the channel, `Hᴴ` and the inverse in
//! fixed 4×4 stack arrays (802.11n's antenna limit, [`MAX_ANTENNAS`]) and
//! repeats `CMatrix`'s operations in `CMatrix`'s order, so both give the
//! same bits with no allocation per carrier.

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

/// Largest antenna or stream count a [`SmallMatrix`] and a prepared
/// [`LinearDetector`] hold: 802.11n's four.
pub const MAX_ANTENNAS: usize = 4;

/// A fixed square block whose top-left corner holds a matrix of up to
/// [`MAX_ANTENNAS`] rows and columns; the rest stays zero.
type Block = [[Complex; MAX_ANTENNAS]; MAX_ANTENNAS];

const ZERO_BLOCK: Block = [[Complex::ZERO; MAX_ANTENNAS]; MAX_ANTENNAS];

/// A channel matrix of at most [`MAX_ANTENNAS`] rows and columns held on
/// the stack: one subcarrier's `n_rx × n_ss` estimate in the MIMO
/// receivers, with no heap allocation per carrier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmallMatrix {
    rows: usize,
    cols: usize,
    a: Block,
}

impl SmallMatrix {
    /// A `rows × cols` zero matrix.
    ///
    /// # Errors
    ///
    /// [`WlanError::InvalidConfig`] if a dimension is not 1–4.
    pub fn zeros(rows: usize, cols: usize) -> Result<Self, WlanError> {
        let dims = 1..=MAX_ANTENNAS;
        if !dims.contains(&rows) || !dims.contains(&cols) {
            return Err(WlanError::InvalidConfig("antenna and stream counts must be 1-4"));
        }
        Ok(SmallMatrix { rows, cols, a: ZERO_BLOCK })
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Complex {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.a[r][c]
    }

    /// Sets the element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Complex) {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.a[r][c] = v;
    }
}

impl TryFrom<&CMatrix> for SmallMatrix {
    type Error = WlanError;

    fn try_from(h: &CMatrix) -> Result<Self, WlanError> {
        let mut m = SmallMatrix::zeros(h.rows(), h.cols())?;
        for r in 0..h.rows() {
            for c in 0..h.cols() {
                m.set(r, c, h.get(r, c));
            }
        }
        Ok(m)
    }
}

/// `M·x` for the top-left `rows × x.len()` corner of `m`, each row a fold
/// from zero in column order: [`CMatrix::mul_vec`]'s operation order.
#[inline]
fn mul_vec_into(m: &Block, rows: usize, x: &[Complex], out: &mut [Complex]) {
    for (o, row) in out[..rows].iter_mut().zip(m) {
        *o = row.iter().zip(x).fold(Complex::ZERO, |acc, (&a, &b)| acc + a * b);
    }
}

/// Gauss–Jordan inverse of the top-left `n × n` corner of `a`, with
/// [`CMatrix::inverse`]'s exact operation order: partial pivot on the
/// largest `norm()` (the last of equals, as `max_by` picks), one
/// `recip()` per pivot row, and elimination that skips exact-zero
/// factors.
fn invert(mut a: Block, n: usize) -> Result<Block, WlanError> {
    let mut inv = ZERO_BLOCK;
    for (i, row) in inv.iter_mut().enumerate().take(n) {
        row[i] = Complex::ONE;
    }
    for col in 0..n {
        let mut pivot_row = col;
        for i in col + 1..n {
            if a[pivot_row][col].norm().total_cmp(&a[i][col].norm()).is_le() {
                pivot_row = i;
            }
        }
        if a[pivot_row][col].norm() < 1e-300 {
            return Err(WlanError::SingularChannel);
        }
        a.swap(col, pivot_row);
        inv.swap(col, pivot_row);
        let inv_pivot = a[col][col].recip();
        for c in 0..n {
            a[col][c] *= inv_pivot;
            inv[col][c] *= inv_pivot;
        }
        let (pivot_a, pivot_inv) = (a[col], inv[col]);
        for r in 0..n {
            if r == col {
                continue;
            }
            let factor = a[r][col];
            if factor.norm_sqr() == 0.0 {
                continue;
            }
            for c in 0..n {
                a[r][c] -= factor * pivot_a[c];
                inv[r][c] -= factor * pivot_inv[c];
            }
        }
    }
    Ok(inv)
}

/// A linear detector prepared once per (channel, noise) pair and applied to
/// a batch of observations — the structure-of-arrays half of the MIMO-OFDM
/// receive kernel.
///
/// For OFDM the channel matrix of a subcarrier is constant across all of a
/// frame's symbols, so the expensive factorization (Gram matrix, regularized
/// inverse, per-stream SINR and unbiasing gains) is hoisted out of the
/// per-symbol loop. `Hᴴ`, the inverse and the per-stream gains live in
/// fixed [`MAX_ANTENNAS`]-square stack arrays, so preparing and detecting
/// allocate nothing. Every product, the inverse and the unbiasing keep the
/// exact floating-point operation sequence of [`mmse`] and of
/// zero-forcing over [`CMatrix`] — matched filter, then inverse, then
/// per-stream unbiasing — so batched and per-symbol detection are
/// bit-identical; the batch equivalence suite and the detector pin in
/// `kernel_pins` hold this.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearDetector {
    /// `Hᴴ` (matched filter), `n_ss × n_rx`.
    hh: Block,
    /// `(HᴴH)⁻¹` for ZF, `(HᴴH + n0·I)⁻¹` for MMSE, `n_ss × n_ss`.
    inv: Block,
    /// Per-stream post-detection SINR (the CSI weight for soft demapping).
    sinr: [f64; MAX_ANTENNAS],
    /// Per-stream unbiasing divisors `(1 − E_ii)` — `None` for ZF, which is
    /// already unbiased.
    unbias: Option<[f64; MAX_ANTENNAS]>,
    n_rx: usize,
    n_ss: usize,
}

impl LinearDetector {
    /// Factors the detector for one `(h, n0)` pair; `h` is copied into a
    /// [`SmallMatrix`] and handed to [`LinearDetector::prepare_small`].
    ///
    /// # Errors
    ///
    /// [`WlanError::InvalidConfig`] if `h` has more than [`MAX_ANTENNAS`]
    /// rows or columns, otherwise as [`LinearDetector::prepare_small`].
    pub fn prepare(detector: Detector, h: &CMatrix, n0: f64) -> Result<Self, WlanError> {
        Self::prepare_small(detector, &SmallMatrix::try_from(h)?, n0)
    }

    /// Factors the detector for one `(h, n0)` pair.
    ///
    /// # Errors
    ///
    /// Returns [`WlanError::SingularChannel`] on a rank-deficient channel
    /// (ZF only, in practice), [`WlanError::NonFinite`] /
    /// [`WlanError::InvalidConfig`] on degenerate inputs. Never panics.
    pub fn prepare_small(detector: Detector, h: &SmallMatrix, n0: f64) -> Result<Self, WlanError> {
        if !n0.is_finite() {
            return Err(WlanError::NonFinite("noise variance"));
        }
        if n0 <= 0.0 {
            return Err(WlanError::InvalidConfig("noise variance must be positive"));
        }
        let (n_rx, n_ss) = (h.rows, h.cols);
        if !h.a.iter().flatten().all(|v| v.is_finite()) {
            return Err(WlanError::NonFinite("channel matrix"));
        }
        let mut hh = ZERO_BLOCK;
        for (r, h_row) in h.a.iter().enumerate().take(n_rx) {
            for (hh_row, &v) in hh.iter_mut().zip(h_row).take(n_ss) {
                hh_row[r] = v.conj();
            }
        }
        // Gram matrix HᴴH: CMatrix's product, which skips zero entries of
        // the left factor.
        let mut gram = ZERO_BLOCK;
        for (g, hh_row) in gram.iter_mut().zip(&hh).take(n_ss) {
            for (&a, h_row) in hh_row.iter().zip(&h.a).take(n_rx) {
                if a.norm_sqr() == 0.0 {
                    continue;
                }
                for (o, &b) in g.iter_mut().zip(h_row).take(n_ss) {
                    *o += a * b;
                }
            }
        }
        let mut sinr = [0.0; MAX_ANTENNAS];
        let (inv, unbias) = match detector {
            Detector::ZeroForcing => {
                let inv = invert(gram, n_ss)?;
                // Post-ZF SNR of stream i: 1 / (n0 · [(HᴴH)⁻¹]_ii).
                for (i, s) in sinr.iter_mut().enumerate().take(n_ss) {
                    let d = inv[i][i].re.max(1e-300);
                    *s = 1.0 / (n0 * d);
                }
                (inv, None)
            }
            Detector::Mmse => {
                for (i, row) in gram.iter_mut().enumerate().take(n_ss) {
                    row[i] += Complex::from_re(n0);
                }
                let inv = invert(gram, n_ss)?;
                // Error covariance E = n0·(HᴴH + n0 I)⁻¹: SINR_i = 1/E_ii − 1
                // and the bias factor of stream i is (1 − E_ii).
                let mut unbias = [0.0; MAX_ANTENNAS];
                for i in 0..n_ss {
                    let e_ii = (n0 * inv[i][i].re).clamp(1e-12, 1.0);
                    sinr[i] = (1.0 / e_ii - 1.0).max(0.0);
                    unbias[i] = (1.0 - e_ii).max(1e-12);
                }
                (inv, Some(unbias))
            }
        };
        Ok(LinearDetector { hh, inv, sinr, unbias, n_rx, n_ss })
    }

    /// Per-stream post-detection SINR (constant across a batch).
    pub fn sinr(&self) -> &[f64] {
        &self.sinr[..self.n_ss]
    }

    /// Number of spatial streams each observation resolves into.
    pub fn n_streams(&self) -> usize {
        self.n_ss
    }

    /// Detects one observation into the first `n_streams` entries of
    /// `out`.
    ///
    /// # Errors
    ///
    /// [`WlanError::LengthMismatch`] on a wrong observation length,
    /// [`WlanError::NonFinite`] on a non-finite observation.
    fn detect_into(&self, y: &[Complex], out: &mut [Complex; MAX_ANTENNAS]) -> Result<(), WlanError> {
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
        let mut matched = [Complex::ZERO; MAX_ANTENNAS];
        mul_vec_into(&self.hh, self.n_ss, y, &mut matched);
        mul_vec_into(&self.inv, self.n_ss, &matched[..self.n_ss], out);
        if let Some(unbias) = &self.unbias {
            for (s, &d) in out.iter_mut().zip(unbias).take(self.n_ss) {
                // Componentwise division, matching `mmse`'s `b / divisor`
                // exactly (not a multiply by the reciprocal).
                *s = *s / d;
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
                expected: ys.len().next_multiple_of(self.n_rx),
                got: ys.len(),
            });
        }
        let mut out = [Complex::ZERO; MAX_ANTENNAS];
        for y in ys.chunks_exact(self.n_rx) {
            let detected = self.detect_into(y, &mut out).is_ok();
            if !detected {
                out = [Complex::ZERO; MAX_ANTENNAS];
            }
            symbols.extend_from_slice(&out[..self.n_ss]);
            ok.push(detected);
        }
        Ok(())
    }

    /// Detects one observation into a [`Detected`] (per-call allocation;
    /// the equivalence tests compare this against [`detect`]).
    pub fn detect_one(&mut self, y: &[Complex]) -> Result<Detected, WlanError> {
        let mut out = [Complex::ZERO; MAX_ANTENNAS];
        self.detect_into(y, &mut out)?;
        Ok(Detected {
            symbols: out[..self.n_ss].to_vec(),
            sinr: self.sinr().to_vec(),
        })
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
