//! Radix-2 fast Fourier transform.
//!
//! The OFDM PHYs use 64-point (20 MHz) and 128-point (40 MHz) transforms.
//! The workhorse is [`FftPlan`]: a reusable plan holding the bit-reversal
//! permutation and direct-angle twiddle tables for one transform length,
//! with in-place single and batched execution and no per-call allocation.
//! The free functions ([`fft`], [`ifft`], [`fft_in_place`], …) route
//! through a thread-local plan cache, so casual callers get the same
//! tables the batched receive kernels use.
//!
//! Twiddles are tabulated from the angle directly (`e^{-2πik/len}` per
//! stage) rather than grown by the historical repeated multiplication
//! `w *= wlen`, which accumulated one rounding error per butterfly column
//! and cost the round trip `ifft(fft(x))` about half a decimal digit; the
//! `plan_roundtrip_precision` test pins the tabulated accuracy at a bound
//! the recurrence measurably failed.

use crate::Complex;
use crate::WlanError;
use std::cell::RefCell;
use std::f64::consts::PI;
use std::rc::Rc;

/// Returns `true` when `n` is a power of two (and nonzero).
#[inline]
fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// A reusable radix-2 FFT plan for one transform length.
///
/// Holds the bit-reversal swap list and per-stage twiddle tables, so
/// executing a transform performs no allocation and no trigonometry. One
/// plan serves both directions: the inverse runs on a conjugated copy of
/// the twiddles (exact) and applies the 1/N normalization.
///
/// # Examples
///
/// ```
/// use wlan_math::{Complex, fft::FftPlan};
///
/// let plan = FftPlan::new(8);
/// let mut data = vec![Complex::ONE; 8];
/// plan.fft_in_place(&mut data);
/// assert!((data[0].re - 8.0).abs() < 1e-12); // DC bin collects everything
/// assert!(data[1].norm() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversal permutation as an `(i, j)` swap list with `i < j`.
    swaps: Vec<(u32, u32)>,
    /// Forward twiddles `e^{-2πik/len}`, stage `len` at offset `len/2 - 1`
    /// holding `len/2` entries (total `n − 1`).
    twiddles: Vec<Complex>,
    /// The same table conjugated once at build (exact: only the sign of
    /// the imaginary part flips), so the inverse runs the forward
    /// butterflies unchanged.
    inverse_twiddles: Vec<Complex>,
}

impl FftPlan {
    /// Builds a plan for `n`-point transforms.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(is_power_of_two(n), "FFT length {n} must be a power of two");
        let mut swaps = Vec::new();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                swaps.push((i as u32, j as u32));
            }
        }
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            for k in 0..len / 2 {
                twiddles.push(Complex::from_polar(1.0, -2.0 * PI * k as f64 / len as f64));
            }
            len <<= 1;
        }
        let inverse_twiddles = twiddles.iter().map(|w| w.conj()).collect();
        FftPlan {
            n,
            swaps,
            twiddles,
            inverse_twiddles,
        }
    }

    /// The transform length this plan executes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the degenerate length-… never: plans are ≥ 1 point.
    pub fn is_empty(&self) -> bool {
        false
    }

    #[inline]
    fn permute(&self, data: &mut [Complex]) {
        for &(i, j) in &self.swaps {
            data.swap(i as usize, j as usize);
        }
    }

    /// Danielson-Lanczos butterflies over one `n`-sample block against a
    /// stage-ordered twiddle table. Each stage walks its butterfly groups
    /// with `chunks_exact_mut` and splits each group into its two halves,
    /// so the inner loop carries no direction branch and no bounds check.
    #[inline]
    fn butterflies(data: &mut [Complex], twiddles: &[Complex]) {
        let mut half = 1;
        let mut stage = 0usize;
        while half < data.len() {
            let stage_tw = &twiddles[stage..stage + half];
            for group in data.chunks_exact_mut(2 * half) {
                let (lo, hi) = group.split_at_mut(half);
                for ((u, v), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage_tw) {
                    let a = *u;
                    let b = *v * w;
                    *u = a + b;
                    *v = a - b;
                }
            }
            stage += half;
            half <<= 1;
        }
    }

    fn execute(&self, data: &mut [Complex], inverse: bool) {
        if self.n <= 1 {
            return;
        }
        self.permute(data);
        let twiddles = if inverse {
            &self.inverse_twiddles
        } else {
            &self.twiddles
        };
        Self::butterflies(data, twiddles);
        if inverse {
            let scale = 1.0 / self.n as f64;
            for v in data.iter_mut() {
                *v = v.scale(scale);
            }
        }
    }

    /// In-place forward FFT of one `n`-sample block.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn fft_in_place(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "plan length mismatch");
        self.execute(data, false);
    }

    /// In-place inverse FFT (1/N normalized) of one `n`-sample block.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn ifft_in_place(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "plan length mismatch");
        self.execute(data, true);
    }

    /// In-place forward FFT of a batch of contiguous `n`-sample blocks:
    /// `data` holds `data.len() / n` transforms back to back. Each block is
    /// transformed independently, in order, with exactly the ops of
    /// [`FftPlan::fft_in_place`] — batch and scalar execution are
    /// bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `self.len()`; see
    /// [`FftPlan::try_fft_batch`].
    pub fn fft_batch(&self, data: &mut [Complex]) {
        assert_eq!(data.len() % self.n, 0, "batch must be whole blocks");
        for block in data.chunks_exact_mut(self.n) {
            self.execute(block, false);
        }
    }

    /// In-place inverse FFT (1/N normalized per block) of a batch of
    /// contiguous `n`-sample blocks; bit-identical to per-block
    /// [`FftPlan::ifft_in_place`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `self.len()`.
    pub fn ifft_batch(&self, data: &mut [Complex]) {
        assert_eq!(data.len() % self.n, 0, "batch must be whole blocks");
        for block in data.chunks_exact_mut(self.n) {
            self.execute(block, true);
        }
    }

    /// Like [`FftPlan::fft_batch`], but a ragged batch returns
    /// [`WlanError::LengthMismatch`] instead of panicking.
    pub fn try_fft_batch(&self, data: &mut [Complex]) -> Result<(), WlanError> {
        if !data.len().is_multiple_of(self.n) {
            return Err(WlanError::LengthMismatch {
                expected: data.len().next_multiple_of(self.n.max(1)),
                got: data.len(),
            });
        }
        for block in data.chunks_exact_mut(self.n) {
            self.execute(block, false);
        }
        Ok(())
    }
}

// Thread-local plan cache, indexed by log2(n). Each `wlan_math::par`
// worker (and the caller's thread) builds its own plans on first use, so
// sweeps share nothing mutable across threads and every thread runs
// allocation-free after warm-up. 64 slots cover every usize power of two.
thread_local! {
    static PLAN_CACHE: RefCell<Vec<Option<Rc<FftPlan>>>> =
        RefCell::new(vec![None; usize::BITS as usize]);
}

/// A cached plan for `n` from this thread's plan table.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub fn cached_plan(n: usize) -> Rc<FftPlan> {
    assert!(is_power_of_two(n), "FFT length {n} must be a power of two");
    let slot = n.trailing_zeros() as usize;
    PLAN_CACHE.with(|cache| {
        // A failed borrow (re-entrant use from inside the cache closure —
        // not a path the workspace has) falls back to a fresh plan rather
        // than panicking.
        match cache.try_borrow_mut() {
            Ok(mut plans) => {
                if plans[slot].is_none() {
                    plans[slot] = Some(Rc::new(FftPlan::new(n)));
                }
                plans[slot].clone().unwrap_or_else(|| Rc::new(FftPlan::new(n)))
            }
            Err(_) => Rc::new(FftPlan::new(n)),
        }
    })
}

/// In-place forward FFT.
///
/// Computes `X[k] = Σ_n x[n]·e^{-2πi·kn/N}` without normalization.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fft_in_place(data: &mut [Complex]) {
    cached_plan(data.len()).fft_in_place(data);
}

/// In-place inverse FFT with 1/N normalization.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn ifft_in_place(data: &mut [Complex]) {
    cached_plan(data.len()).ifft_in_place(data);
}

/// Forward FFT returning a new vector.
///
/// # Panics
///
/// Panics if `input.len()` is not a power of two.
///
/// ```
/// use wlan_math::{Complex, fft};
/// let x = vec![Complex::ONE; 8];
/// let spec = fft::fft(&x);
/// assert!((spec[0].re - 8.0).abs() < 1e-12); // DC bin collects everything
/// assert!(spec[1].norm() < 1e-12);
/// ```
pub fn fft(input: &[Complex]) -> Vec<Complex> {
    let mut buf = input.to_vec();
    fft_in_place(&mut buf);
    buf
}

/// Inverse FFT returning a new vector (1/N normalized).
///
/// # Panics
///
/// Panics if `input.len()` is not a power of two.
pub fn ifft(input: &[Complex]) -> Vec<Complex> {
    let mut buf = input.to_vec();
    ifft_in_place(&mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternating_batch_sizes_on_one_plan_match_single_transforms() {
        // Regression pin for the shrinking-batch hazard on the cached
        // plan: one thread alternating batch sizes (8 → 2 → 5 → 1 → 8
        // blocks) through the same thread-local plan must produce
        // bit-identical spectra to fresh per-block transforms — a batch
        // call must never see scratch left over from a larger batch.
        use crate::rng::{Rng, WlanRng};
        let mut rng = WlanRng::seed_from_u64(55);
        let n = 64;
        let plan = cached_plan(n);
        for &blocks in &[8usize, 2, 5, 1, 8, 3, 2] {
            let mut batch: Vec<Complex> = (0..blocks * n)
                .map(|_| Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                .collect();
            let mut singles = batch.clone();
            plan.fft_batch(&mut batch);
            for block in singles.chunks_exact_mut(n) {
                FftPlan::new(n).fft_in_place(block);
            }
            for (i, (a, b)) in batch.iter().zip(&singles).enumerate() {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "re diverged at {i} ({blocks} blocks)");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "im diverged at {i} ({blocks} blocks)");
            }
        }
    }

    fn naive_dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|t| {
                        x[t] * Complex::from_polar(1.0, -2.0 * PI * (k * t) as f64 / n as f64)
                    })
                    .sum()
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        let x: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect();
        let fast = fft(&x);
        let slow = naive_dft(&x);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((*a - *b).norm() < 1e-9, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let x: Vec<Complex> = (0..64)
            .map(|i| Complex::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let back = ifft(&fft(&x));
        for (a, b) in back.iter().zip(&x) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }

    #[test]
    fn plan_roundtrip_precision() {
        // The precision pin for the tabulated twiddles: amplitude-1000
        // inputs round-trip to within 1e-12 at the two WLAN transform
        // sizes. The retired recurrence (`w *= wlen` per butterfly
        // column) measured 1.4e-12 – 3.3e-12 on exactly these inputs, so
        // this bound fails on the old tolerance and pins the fix.
        for n in [64usize, 128] {
            for s in 0..8 {
                let x: Vec<Complex> = (0..n)
                    .map(|i| {
                        let t = i as f64 + s as f64 * 17.0;
                        Complex::new((t * 0.37).sin() * 1e3, (t * 1.13).cos() * 1e3)
                    })
                    .collect();
                let worst = ifft(&fft(&x))
                    .iter()
                    .zip(&x)
                    .map(|(a, b)| (*a - *b).norm())
                    .fold(0.0f64, f64::max);
                assert!(worst <= 1e-12, "n={n} s={s}: round-trip error {worst:e}");
            }
        }
    }

    #[test]
    fn plan_single_and_batch_are_bit_identical() {
        let n = 64;
        let frames = 5;
        let plan = FftPlan::new(n);
        let x: Vec<Complex> = (0..n * frames)
            .map(|i| Complex::new((i as f64 * 0.29).sin(), (i as f64 * 0.83).cos()))
            .collect();
        let mut batch = x.clone();
        plan.fft_batch(&mut batch);
        for (f, block) in x.chunks(n).enumerate() {
            let mut single = block.to_vec();
            plan.fft_in_place(&mut single);
            for (k, (a, b)) in single.iter().zip(&batch[f * n..(f + 1) * n]).enumerate() {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "frame {f} bin {k} re");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "frame {f} bin {k} im");
            }
        }
        let mut ibatch = x.clone();
        plan.ifft_batch(&mut ibatch);
        for (f, block) in x.chunks(n).enumerate() {
            let mut single = block.to_vec();
            plan.ifft_in_place(&mut single);
            assert_eq!(single, ibatch[f * n..(f + 1) * n].to_vec(), "ifft frame {f}");
        }
    }

    #[test]
    fn plan_matches_free_functions_bitwise() {
        let x: Vec<Complex> = (0..128)
            .map(|i| Complex::from_polar(1.0, i as f64 * 0.51))
            .collect();
        let plan = FftPlan::new(128);
        let mut planned = x.clone();
        plan.fft_in_place(&mut planned);
        assert_eq!(planned, fft(&x));
    }

    #[test]
    fn try_variants_report_typed_errors() {
        let plan = FftPlan::new(8);
        let mut ragged = vec![Complex::ZERO; 12];
        assert_eq!(
            plan.try_fft_batch(&mut ragged).unwrap_err(),
            WlanError::LengthMismatch { expected: 16, got: 12 }
        );
    }

    #[test]
    fn parseval_energy_preserved() {
        let x: Vec<Complex> = (0..128)
            .map(|i| Complex::from_polar(1.0, i as f64))
            .collect();
        let time_energy: f64 = x.iter().map(|s| s.norm_sqr()).sum();
        let spec = fft(&x);
        let freq_energy: f64 = spec.iter().map(|s| s.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-6);
    }

    #[test]
    fn single_tone_lands_in_single_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<Complex> = (0..n)
            .map(|t| Complex::from_polar(1.0, 2.0 * PI * (k0 * t) as f64 / n as f64))
            .collect();
        let spec = fft(&x);
        for (k, v) in spec.iter().enumerate() {
            if k == k0 {
                assert!((v.norm() - n as f64).abs() < 1e-9);
            } else {
                assert!(v.norm() < 1e-9);
            }
        }
    }

    #[test]
    fn length_one_is_identity() {
        let x = vec![Complex::new(2.0, 3.0)];
        assert_eq!(fft(&x), x);
        assert_eq!(ifft(&x), x);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = fft(&vec![Complex::ZERO; 48]);
    }
}
