//! Viterbi decoding of the 802.11 convolutional code.
//!
//! Supports hard decisions (Hamming branch metrics) and soft decisions
//! (log-likelihood-ratio correlation metrics); the ≈2 dB gap between the two
//! is one of the design-choice ablations benchmarked in experiment E6.
//!
//! The workhorse is [`ViterbiKernel`]: a reusable decoder whose trellis pass
//! runs allocation-free against a scratch arena owned by the kernel — a flat
//! per-step branch-metric table (four correlation sums shared by all 64
//! states), the encoder's branch outputs for every 7-bit register value,
//! and one `u64` of bit-parallel survivor decisions per trellis step. The
//! forward pass runs on the widest of AVX-512F, AVX2 or the portable
//! scalar step the CPU supports; every vector path is pinned bit-identical
//! to the scalar step, survivor words included. The
//! ergonomic [`ViterbiDecoder`] front end delegates to a thread-local kernel,
//! so the per-call `Vec` churn of the original implementation is gone from
//! the sweep hot path while the public API is unchanged. Kernel and front
//! end are bit-identical by construction: the per-next-state formulation
//! visits the low predecessor first and replaces it only on a strictly
//! better high branch, exactly the add-compare-select order of the scalar
//! reference loop.

#[cfg(test)]
use crate::convolutional::trellis_step;
use crate::convolutional::{CONSTRAINT_LENGTH, NUM_STATES, OUTPUTS};
use std::cell::RefCell;
use wlan_math::WlanError;

const NEG_INF: f64 = f64::NEG_INFINITY;
/// Zero-termination tail length (drives the trellis back to state 0).
const TAIL: usize = CONSTRAINT_LENGTH - 1;

/// One frame's soft input to [`ViterbiKernel::decode_batch`].
///
/// The LLR convention is `llr = log(P(bit=0)/P(bit=1))`: positive values
/// favour 0, an erasure is exactly 0. LLRs are assumed finite (the demappers
/// only produce finite values).
#[derive(Debug, Clone, Copy)]
pub struct FrameLlrs<'a> {
    /// Coded LLRs, two per trellis step.
    pub llrs: &'a [f64],
    /// Information bits to recover.
    pub num_bits: usize,
    /// Whether the encoder appended the six zero tail bits (traceback from
    /// state 0) or not (traceback from the best-metric end state).
    pub terminated: bool,
}

impl<'a> FrameLlrs<'a> {
    /// A zero-terminated frame: `llrs.len()` must be `(num_bits + 6) * 2`.
    pub fn terminated(llrs: &'a [f64], num_bits: usize) -> Self {
        FrameLlrs { llrs, num_bits, terminated: true }
    }

    /// An unterminated stream: `llrs.len()` must be `num_bits * 2`.
    pub fn unterminated(llrs: &'a [f64], num_bits: usize) -> Self {
        FrameLlrs { llrs, num_bits, terminated: false }
    }

    fn total_steps(&self) -> usize {
        self.num_bits + if self.terminated { TAIL } else { 0 }
    }

    fn check(&self) -> Result<usize, WlanError> {
        let total_steps = self.total_steps();
        if self.llrs.len() != total_steps * 2 {
            return Err(WlanError::LengthMismatch {
                expected: total_steps * 2,
                got: self.llrs.len(),
            });
        }
        Ok(total_steps)
    }
}

/// Batched, allocation-free Viterbi kernel for the K=7, (133, 171) code.
///
/// Owns its scratch arena (survivor words and a decode buffer), so decoding
/// a frame — or a batch — performs no heap allocation once the arena has
/// grown to the longest frame seen. The kernel is `!Sync` by design: each
/// sweep worker holds its own (see `wlan_core::linksim`), which is what
/// keeps batched decoding bit-identical at any `WLAN_THREADS`.
///
/// # Examples
///
/// ```
/// use wlan_coding::{ConvEncoder, FrameLlrs, ViterbiKernel};
///
/// let data = vec![0, 1, 1, 0, 1, 0, 0, 1];
/// let coded = ConvEncoder::new().encode_terminated(&data);
/// let llrs: Vec<f64> = coded.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect();
/// let mut kernel = ViterbiKernel::new();
/// let frames = kernel
///     .decode_batch(&[FrameLlrs::terminated(&llrs, data.len())])
///     .unwrap();
/// assert_eq!(frames, vec![data]);
/// ```
#[derive(Debug, Clone)]
pub struct ViterbiKernel {
    /// Branch-metric sign tables for the vector paths (see [`simd`]);
    /// unused on the scalar path.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    signs: simd::SignTables,
    /// The forward pass this kernel runs, picked once at construction by
    /// runtime feature detection.
    path: AcsPath,
    /// One survivor word per trellis step: bit `s` set means next-state `s`
    /// kept its high (odd-register) predecessor.
    survivors: Vec<u64>,
    /// Traceback output buffer, reused across frames.
    decoded: Vec<u8>,
}

/// The add-compare-select implementations. Every vector path reproduces
/// [`acs_step_scalar`] bit for bit, survivor words included; the widest
/// one the CPU supports is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcsPath {
    /// The portable reference step.
    Scalar,
    /// 4 butterflies per 256-bit vector.
    Avx2,
    /// 8 butterflies per 512-bit vector, path metrics held in registers
    /// across the whole frame.
    Avx512,
}

impl AcsPath {
    /// Whether this process may run the path.
    fn available(self) -> bool {
        match self {
            AcsPath::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            AcsPath::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            AcsPath::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest available path.
    fn detect() -> Self {
        [AcsPath::Avx512, AcsPath::Avx2]
            .into_iter()
            .find(|p| p.available())
            .unwrap_or(AcsPath::Scalar)
    }
}

impl ViterbiKernel {
    /// Creates a kernel with an empty scratch arena.
    pub fn new() -> Self {
        ViterbiKernel {
            signs: simd::SignTables::new(&OUTPUTS),
            path: AcsPath::detect(),
            survivors: Vec::new(),
            decoded: Vec::new(),
        }
    }

    /// Decodes a batch of frames, reusing the kernel's scratch across all of
    /// them. Outputs are bit-identical to decoding each frame alone (the
    /// trellis carries no state between frames), which the batch/scalar
    /// equivalence suite pins across generations, rates, and SNRs.
    pub fn decode_batch(&mut self, frames: &[FrameLlrs<'_>]) -> Result<Vec<Vec<u8>>, WlanError> {
        // Validate every frame before decoding any, so a bad frame cannot
        // leave a half-decoded batch behind.
        for frame in frames {
            frame.check()?;
        }
        let mut out = Vec::with_capacity(frames.len());
        for frame in frames {
            let mut bits = Vec::new();
            self.decode_into(*frame, &mut bits)?;
            out.push(bits);
        }
        Ok(out)
    }

    /// Decodes one frame into a caller-owned buffer (cleared first) — the
    /// fully allocation-free entry point for hot paths that recycle their
    /// output storage.
    fn decode_into(&mut self, frame: FrameLlrs<'_>, bits: &mut Vec<u8>) -> Result<(), WlanError> {
        let total_steps = frame.check()?;
        self.run_trellis(frame.llrs, total_steps, frame.terminated);
        bits.clear();
        bits.extend_from_slice(&self.decoded[..frame.num_bits]);
        Ok(())
    }

    /// Decodes one frame, allocating the output.
    pub fn decode(&mut self, frame: FrameLlrs<'_>) -> Result<Vec<u8>, WlanError> {
        let mut bits = Vec::new();
        self.decode_into(frame, &mut bits)?;
        Ok(bits)
    }

    /// Add-compare-select forward pass + traceback into `self.decoded`
    /// (resized to `total_steps`; the first `num_bits` entries are the
    /// answer).
    fn run_trellis(&mut self, llrs: &[f64], total_steps: usize, terminated: bool) {
        self.survivors.clear();
        self.survivors.resize(total_steps, 0);
        let llrs = &llrs[..2 * total_steps];
        let metrics = match self.path {
            // SAFETY: `path` is only ever a vector path that
            // `AcsPath::available` confirmed on this CPU.
            #[cfg(target_arch = "x86_64")]
            AcsPath::Avx512 => unsafe {
                simd::forward_avx512(&self.signs, llrs, &mut self.survivors)
            },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            AcsPath::Avx2 => unsafe { simd::forward_avx2(&self.signs, llrs, &mut self.survivors) },
            _ => forward_scalar(llrs, &mut self.survivors),
        };

        // Terminated: trace back from state 0; otherwise from the best end
        // state. The fold is infallible over the fixed state set and keeps
        // `max_by`'s last-max-wins tie behaviour.
        let mut state = if terminated {
            0usize
        } else {
            let mut best = 0usize;
            for s in 1..NUM_STATES {
                if metrics[s].total_cmp(&metrics[best]) != std::cmp::Ordering::Less {
                    best = s;
                }
            }
            best
        };
        self.decoded.clear();
        self.decoded.resize(total_steps, 0);
        for t in (0..total_steps).rev() {
            // The input bit that produced `state` is its top register bit;
            // the survivor bit selects the low or high predecessor.
            self.decoded[t] = (state >= NUM_STATES / 2) as u8;
            let kept_hi = (self.survivors[t] >> state) & 1;
            state = ((state << 1) & (NUM_STATES - 1)) | kept_hi as usize;
        }
    }
}

impl Default for ViterbiKernel {
    fn default() -> Self {
        ViterbiKernel::new()
    }
}

/// The scalar forward pass: one [`acs_step_scalar`] per LLR pair, writing
/// one survivor word per step; returns the final path metrics.
fn forward_scalar(llrs: &[f64], survivors: &mut [u64]) -> [f64; NUM_STATES] {
    // Path metrics ping-pong between two stack banks via pointer swap.
    let mut bank_a = [NEG_INF; NUM_STATES];
    let mut bank_b = [NEG_INF; NUM_STATES];
    bank_a[0] = 0.0; // encoder starts in state 0
    let (mut metrics, mut next_metrics) = (&mut bank_a, &mut bank_b);
    for (pair, word) in llrs.chunks_exact(2).zip(survivors.iter_mut()) {
        *word = acs_step_scalar(metrics, next_metrics, pair[0], pair[1]);
        std::mem::swap(&mut metrics, &mut next_metrics);
    }
    *metrics
}

/// One add-compare-select trellis step (all 64 next-states); returns the
/// survivor word. This is the portable reference the vector paths must
/// match bit for bit.
fn acs_step_scalar(
    metrics: &[f64; NUM_STATES],
    next_metrics: &mut [f64; NUM_STATES],
    la: f64,
    lb: f64,
) -> u64 {
    // Correlation metric per branch-output pair (a, b): +llr when the
    // branch emits 0, indexed by (a << 1) | b.
    let bm = [la + lb, la - lb, -la + lb, -la - lb];
    let mut word = 0u64;
    // Butterfly pairing: next-states j and j+32 share predecessors 2j and
    // 2j+1, and because both generator polynomials have their top bit set,
    // flipping the input bit complements both outputs — the j+32 branch
    // metrics are the exact IEEE negations of the j ones (pinned by
    // `output_table_has_butterfly_symmetry`). One pass over the
    // predecessor metrics therefore feeds both halves.
    for j in 0..NUM_STATES / 2 {
        let reg_lo = j << 1;
        let m0 = metrics[reg_lo];
        let m1 = metrics[reg_lo | 1];
        let b0 = bm[OUTPUTS[reg_lo] as usize];
        let b1 = bm[OUTPUTS[reg_lo | 1] as usize];
        // Strict '>' keeps the scalar reference's low-predecessor-wins
        // tie-break, so outputs stay bit-identical.
        let (lo, hi) = (m0 + b0, m1 + b1);
        let take_hi = hi > lo;
        next_metrics[j] = if take_hi { hi } else { lo };
        word |= (take_hi as u64) << j;
        // next = j + 32 (input bit 1): negated metrics, and `m - b` is
        // bitwise `m + (-b)`.
        let (lo, hi) = (m0 - b0, m1 - b1);
        let take_hi = hi > lo;
        next_metrics[j + NUM_STATES / 2] = if take_hi { hi } else { lo };
        word |= (take_hi as u64) << (j + NUM_STATES / 2);
    }
    word
}

/// The vector add-compare-select passes.
///
/// Bit-identity with [`acs_step_scalar`] holds because every float op maps
/// one-to-one: branch metrics are `±la + ±lb` (sign multiplication is
/// exact), path updates are single IEEE adds/subs in the same operand
/// order, and the select uses the same strict `hi > lo` predicate
/// (`_CMP_GT_OQ`). No FMA contraction can occur — intrinsics lower to the
/// exact instructions named.
///
/// Only the even predecessor's branch metric `b0` is formed: the odd
/// predecessor of a butterfly emits the complementary output pair
/// (pinned by `output_table_has_butterfly_symmetry`), so `b1 = −b0`, and `m1 + b1`,
/// `m1 − b1` are computed as `m1 − b0`, `m1 + b0`. The two can differ only
/// in the sign of a zero branch metric, and adding `±0` to a path metric
/// gives the same bits unless the metric is `−0`, which no path metric
/// ever is: they start at `+0` or `−∞`, and a sum is `−0` only when both
/// operands are.
mod simd {
    use super::NUM_STATES;

    /// AVX2 butterfly lane order inside each 4-wide block: `unpacklo/hi_pd`
    /// interleave 128-bit lanes, so block k processes butterflies
    /// `4k + [0, 2, 1, 3]` in lanes 0..4. The permutation is self-inverse;
    /// sign tables are pre-permuted, results re-permuted before storing.
    const LANES: [usize; 4] = [0, 2, 1, 3];

    /// Maps a `movemask` nibble (lane order) to survivor bits (butterfly
    /// order): output bit `LANES[l]` = input bit `l`.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    const NIBBLE: [u8; 16] = {
        let mut table = [0u8; 16];
        let mut m = 0;
        while m < 16 {
            let mut l = 0;
            while l < 4 {
                table[m] |= (((m >> l) & 1) as u8) << LANES[l];
                l += 1;
            }
            m += 1;
        }
        table
    };

    /// Signs of the even predecessor's branch metric, `b0 = sa·la + sb·lb`
    /// with `sa, sb ∈ {+1, −1}` (+1 when the branch emits a 0): in AVX2
    /// lane order (entry `4k + l` belongs to butterfly `4k + LANES[l]`) and
    /// in butterfly order for AVX-512.
    #[derive(Debug, Clone)]
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(super) struct SignTables {
        sa_lanes: [f64; NUM_STATES / 2],
        sb_lanes: [f64; NUM_STATES / 2],
        sa: [f64; NUM_STATES / 2],
        sb: [f64; NUM_STATES / 2],
    }

    impl SignTables {
        pub(super) fn new(outputs: &[u8; 2 * NUM_STATES]) -> Self {
            let sign = |bit: u8| if bit == 0 { 1.0 } else { -1.0 };
            let mut t = SignTables {
                sa_lanes: [0.0; NUM_STATES / 2],
                sb_lanes: [0.0; NUM_STATES / 2],
                sa: [0.0; NUM_STATES / 2],
                sb: [0.0; NUM_STATES / 2],
            };
            for j in 0..NUM_STATES / 2 {
                let even = outputs[2 * j];
                let slot = (j & !3) | LANES[j & 3];
                t.sa_lanes[slot] = sign(even >> 1);
                t.sb_lanes[slot] = sign(even & 1);
                t.sa[j] = sign(even >> 1);
                t.sb[j] = sign(even & 1);
            }
            t
        }
    }

    /// AVX2 forward pass, 4 butterflies per vector; returns the final
    /// path metrics.
    ///
    /// Runs one step per LLR pair that has a survivor slot.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn forward_avx2(
        sgn: &SignTables,
        llrs: &[f64],
        survivors: &mut [u64],
    ) -> [f64; NUM_STATES] {
        use std::arch::x86_64::*;
        // Lane selector [0, 2, 1, 3]: undoes the unpack interleave.
        const UNSHUFFLE: i32 = 0b11_01_10_00;
        let mut bank_a = [f64::NEG_INFINITY; NUM_STATES];
        let mut bank_b = [f64::NEG_INFINITY; NUM_STATES];
        bank_a[0] = 0.0;
        let (mut metrics, mut next_metrics) = (&mut bank_a, &mut bank_b);
        for (pair, slot) in llrs.chunks_exact(2).zip(survivors.iter_mut()) {
            let la_v = _mm256_set1_pd(pair[0]);
            let lb_v = _mm256_set1_pd(pair[1]);
            let mut word = 0u64;
            for k in 0..NUM_STATES / 8 {
                // SAFETY (all loads/stores): 8k + 8 ≤ 64 metric slots and
                // 4k + 4 ≤ 32 sign slots for k < 8.
                // Predecessor metrics for butterflies 4k..4k+4: states
                // 8k..8k+8, split into even (m0) and odd (m1) lanes.
                let v0 = _mm256_loadu_pd(metrics.as_ptr().add(8 * k));
                let v1 = _mm256_loadu_pd(metrics.as_ptr().add(8 * k + 4));
                let m0 = _mm256_unpacklo_pd(v0, v1);
                let m1 = _mm256_unpackhi_pd(v0, v1);
                let b0 = _mm256_add_pd(
                    _mm256_mul_pd(_mm256_loadu_pd(sgn.sa_lanes.as_ptr().add(4 * k)), la_v),
                    _mm256_mul_pd(_mm256_loadu_pd(sgn.sb_lanes.as_ptr().add(4 * k)), lb_v),
                );
                // Input-0 half: next-states j = 4k..4k+4.
                let lo = _mm256_add_pd(m0, b0);
                let hi = _mm256_sub_pd(m1, b0);
                let take = _mm256_cmp_pd::<_CMP_GT_OQ>(hi, lo);
                let sel = _mm256_blendv_pd(lo, hi, take);
                _mm256_storeu_pd(
                    next_metrics.as_mut_ptr().add(4 * k),
                    _mm256_permute4x64_pd::<UNSHUFFLE>(sel),
                );
                let mask = _mm256_movemask_pd(take) as usize;
                word |= (NIBBLE[mask] as u64) << (4 * k);
                // Input-1 half: next-states j+32, exact IEEE negations.
                let lo = _mm256_sub_pd(m0, b0);
                let hi = _mm256_add_pd(m1, b0);
                let take = _mm256_cmp_pd::<_CMP_GT_OQ>(hi, lo);
                let sel = _mm256_blendv_pd(lo, hi, take);
                _mm256_storeu_pd(
                    next_metrics.as_mut_ptr().add(4 * k + NUM_STATES / 2),
                    _mm256_permute4x64_pd::<UNSHUFFLE>(sel),
                );
                let mask = _mm256_movemask_pd(take) as usize;
                word |= (NIBBLE[mask] as u64) << (4 * k + NUM_STATES / 2);
            }
            *slot = word;
            std::mem::swap(&mut metrics, &mut next_metrics);
        }
        *metrics
    }

    /// AVX-512F forward pass, 8 butterflies per vector; returns the final
    /// path metrics.
    ///
    /// The 64 path metrics live in eight registers for the whole frame:
    /// register `r` holds states `8r..8r+8`. Butterfly block `k` (next
    /// states `8k..8k+8` and `32+8k..32+8k+8`) reads registers `2k` and
    /// `2k+1`, whose even and odd states `permutex2var` splits into the two
    /// predecessor vectors. Lanes are in butterfly order, so the
    /// compare-into-mask is already the survivor byte and `mask_blend`
    /// is the select.
    ///
    /// Runs one step per LLR pair that has a survivor slot.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn forward_avx512(
        sgn: &SignTables,
        llrs: &[f64],
        survivors: &mut [u64],
    ) -> [f64; NUM_STATES] {
        use std::arch::x86_64::*;
        let even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
        let odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
        // SAFETY: each table holds 32 = 4 · 8 entries.
        let sa: [__m512d; 4] = std::array::from_fn(|k| _mm512_loadu_pd(sgn.sa.as_ptr().add(8 * k)));
        let sb: [__m512d; 4] = std::array::from_fn(|k| _mm512_loadu_pd(sgn.sb.as_ptr().add(8 * k)));
        let neg_inf = _mm512_set1_pd(f64::NEG_INFINITY);
        let mut regs = [neg_inf; NUM_STATES / 8];
        // State 0 starts at metric 0: lane 0 of register 0.
        regs[0] = _mm512_mask_blend_pd(1, neg_inf, _mm512_setzero_pd());
        for (pair, slot) in llrs.chunks_exact(2).zip(survivors.iter_mut()) {
            let la_v = _mm512_set1_pd(pair[0]);
            let lb_v = _mm512_set1_pd(pair[1]);
            let mut next = regs;
            let mut word = 0u64;
            for k in 0..NUM_STATES / 16 {
                let m0 = _mm512_permutex2var_pd(regs[2 * k], even, regs[2 * k + 1]);
                let m1 = _mm512_permutex2var_pd(regs[2 * k], odd, regs[2 * k + 1]);
                let b0 = _mm512_add_pd(_mm512_mul_pd(sa[k], la_v), _mm512_mul_pd(sb[k], lb_v));
                // Input-0 half: next-states j = 8k..8k+8.
                let lo = _mm512_add_pd(m0, b0);
                let hi = _mm512_sub_pd(m1, b0);
                let take = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(hi, lo);
                next[k] = _mm512_mask_blend_pd(take, lo, hi);
                word |= (take as u64) << (8 * k);
                // Input-1 half: next-states j+32, exact IEEE negations.
                let lo = _mm512_sub_pd(m0, b0);
                let hi = _mm512_add_pd(m1, b0);
                let take = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(hi, lo);
                next[k + NUM_STATES / 16] = _mm512_mask_blend_pd(take, lo, hi);
                word |= (take as u64) << (8 * k + NUM_STATES / 2);
            }
            *slot = word;
            regs = next;
        }
        let mut metrics = [0.0; NUM_STATES];
        for (r, reg) in regs.iter().enumerate() {
            // SAFETY: 8r + 8 ≤ 64 for r < 8.
            _mm512_storeu_pd(metrics.as_mut_ptr().add(8 * r), *reg);
        }
        metrics
    }
}

thread_local! {
    /// Per-thread kernel backing [`ViterbiDecoder`]: each `wlan_math::par`
    /// worker warms its own arena once and then decodes allocation-free.
    static THREAD_KERNEL: RefCell<ViterbiKernel> = RefCell::new(ViterbiKernel::new());
}

/// Runs `f` against this thread's kernel; a failed borrow (re-entrant use)
/// falls back to a fresh kernel rather than introducing a panic path.
fn with_thread_kernel<R>(f: impl FnOnce(&mut ViterbiKernel) -> R) -> R {
    THREAD_KERNEL.with(|cell| match cell.try_borrow_mut() {
        Ok(mut kernel) => f(&mut kernel),
        Err(_) => f(&mut ViterbiKernel::new()),
    })
}

/// Viterbi decoder for the K=7, (133, 171) code with zero termination.
///
/// A zero-sized handle over the thread-local [`ViterbiKernel`]; batch users
/// and sweep workers that want explicit arena ownership use the kernel
/// directly.
///
/// # Examples
///
/// ```
/// use wlan_coding::{ConvEncoder, ViterbiDecoder};
///
/// let data = vec![0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1];
/// let mut coded = ConvEncoder::new().encode_terminated(&data);
/// coded[3] ^= 1; // a channel error
/// coded[10] ^= 1; // another one
/// let decoded = ViterbiDecoder::new().decode_hard(&coded, data.len())?;
/// assert_eq!(decoded, data);
/// # Ok::<(), wlan_math::WlanError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViterbiDecoder {
    _private: (),
}

impl ViterbiDecoder {
    /// Creates a decoder.
    pub fn new() -> Self {
        ViterbiDecoder { _private: () }
    }

    /// Decodes hard bits.
    ///
    /// `coded` must contain `(num_info + 6) * 2` bits produced by
    /// [`crate::ConvEncoder::encode_terminated`]; `num_info` information bits
    /// are returned.
    ///
    /// # Errors
    ///
    /// [`WlanError::LengthMismatch`] if `coded.len() != (num_info + 6) * 2`
    /// (e.g. a truncated frame).
    pub fn decode_hard(&self, coded: &[u8], num_info: usize) -> Result<Vec<u8>, WlanError> {
        // Map hard bits to bipolar soft values: 0 → +1, 1 → −1.
        let llrs: Vec<f64> = coded.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect();
        self.decode_soft(&llrs, num_info)
    }

    /// Decodes soft log-likelihood ratios.
    ///
    /// The LLR convention is `llr = log(P(bit=0)/P(bit=1))`: positive values
    /// favour 0. An erasure (punctured position) is an LLR of exactly 0.
    ///
    /// # Errors
    ///
    /// [`WlanError::LengthMismatch`] if `llrs.len() != (num_info + 6) * 2`.
    pub fn decode_soft(&self, llrs: &[f64], num_info: usize) -> Result<Vec<u8>, WlanError> {
        with_thread_kernel(|k| k.decode(FrameLlrs::terminated(llrs, num_info)))
    }

    /// Decodes a stream that is *not* zero-terminated (e.g. the 802.11a DATA
    /// field, whose pad bits follow the tail): traceback starts from the
    /// best-metric end state instead of state 0. All `num_bits` inputs are
    /// returned.
    ///
    /// # Errors
    ///
    /// [`WlanError::LengthMismatch`] if `llrs.len() != num_bits * 2`.
    pub fn decode_soft_unterminated(
        &self,
        llrs: &[f64],
        num_bits: usize,
    ) -> Result<Vec<u8>, WlanError> {
        with_thread_kernel(|k| k.decode(FrameLlrs::unterminated(llrs, num_bits)))
    }
}

#[cfg(test)]
impl ViterbiKernel {
    /// Forces one add-compare-select path, so tests can pin every vector
    /// path the host supports against the scalar step on the same machine.
    fn on_path(mut self, path: AcsPath) -> Self {
        assert!(path.available(), "{path:?} is not available on this CPU");
        self.path = path;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolutional::ConvEncoder;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let coded = ConvEncoder::new().encode_terminated(data);
        ViterbiDecoder::new().decode_hard(&coded, data.len()).unwrap()
    }

    #[test]
    fn vector_and_scalar_trellis_are_bit_identical() {
        // Every vector path this host supports against the scalar step:
        // decoded bits and every survivor word, terminated frames and
        // unterminated streams (whose traceback starts from the final
        // metrics, so those are compared through the chosen end state).
        use wlan_math::rng::{Rng, WlanRng};
        let mut scalar = ViterbiKernel::new().on_path(AcsPath::Scalar);
        for path in [AcsPath::Avx2, AcsPath::Avx512] {
            if !path.available() {
                // The scalar path is the reference and is covered by every
                // other test.
                continue;
            }
            let mut fast = ViterbiKernel::new().on_path(path);
            let mut rng = WlanRng::seed_from_u64(17);
            for trial in 0..200u64 {
                let n = 8 + (trial as usize % 64);
                let data: Vec<u8> = (0..n).map(|_| rng.gen_range(0..2u8)).collect();
                let terminated = trial % 2 == 0;
                let coded = if terminated {
                    ConvEncoder::new().encode_terminated(&data)
                } else {
                    ConvEncoder::new().encode(&data)
                };
                // Noisy LLRs (including occasional exact erasures and
                // opposite pairs whose branch metric is an exact zero) so
                // survivor selections and tie-breaks are exercised, not
                // just clean runs.
                let mut llrs: Vec<f64> = coded
                    .iter()
                    .map(|&b| {
                        if rng.gen_bool(0.05) {
                            0.0
                        } else {
                            (if b == 0 { 1.0 } else { -1.0 }) + rng.gen_gaussian()
                        }
                    })
                    .collect();
                for pair in llrs.chunks_exact_mut(2) {
                    if rng.gen_bool(0.05) {
                        pair[1] = -pair[0];
                    }
                }
                let frame = if terminated {
                    FrameLlrs::terminated(&llrs, n)
                } else {
                    FrameLlrs::unterminated(&llrs, n)
                };
                let a = fast.decode(frame).unwrap();
                let b = scalar.decode(frame).unwrap();
                assert_eq!(a, b, "{path:?}: decoded bits diverge at trial {trial}");
                assert_eq!(
                    fast.survivors, scalar.survivors,
                    "{path:?}: survivor words diverge at trial {trial}"
                );
            }
        }
    }

    #[test]
    fn output_table_has_butterfly_symmetry() {
        // The scalar butterfly needs the input bit to complement both
        // outputs; the vector paths also need the two predecessors of a
        // butterfly to emit complementary pairs (so `b1 = -b0`).
        for state in 0..NUM_STATES {
            assert_eq!(OUTPUTS[state] ^ OUTPUTS[state | NUM_STATES], 3);
            let (a, b, _) = trellis_step(state as u32, 0);
            assert_eq!(OUTPUTS[state], (a << 1) | b);
        }
        for j in 0..NUM_STATES / 2 {
            assert_eq!(OUTPUTS[2 * j] ^ OUTPUTS[2 * j + 1], 3);
        }
    }

    #[test]
    fn alternating_batch_sizes_never_read_stale_scratch() {
        // Regression pin for the shrinking-batch hazard: one kernel reused
        // across growing and shrinking frame sizes on a single thread must
        // decode every frame exactly like a fresh kernel. The scratch
        // arenas (`survivors`, `decoded`) are resized per frame; a stale
        // tail surviving a shrink would corrupt the traceback of the
        // shorter frame.
        use wlan_math::rng::{Rng, WlanRng};
        let mut reused = ViterbiKernel::new();
        let mut rng = WlanRng::seed_from_u64(91);
        // Long → short → medium → long …: every transition direction,
        // several times over, with noisy LLRs so tracebacks traverse the
        // full arena.
        let sizes = [96usize, 8, 40, 96, 12, 64, 8, 96, 24];
        for (round, &n) in sizes.iter().cycle().take(4 * sizes.len()).enumerate() {
            let data: Vec<u8> = (0..n).map(|_| rng.gen_range(0..2u8)).collect();
            let coded = ConvEncoder::new().encode_terminated(&data);
            let llrs: Vec<f64> = coded
                .iter()
                .map(|&b| (if b == 0 { 1.0 } else { -1.0 }) + rng.gen_gaussian())
                .collect();
            let frame = FrameLlrs::terminated(&llrs, n);
            let stale = reused.decode(frame).unwrap();
            let fresh = ViterbiKernel::new().decode(frame).unwrap();
            assert_eq!(stale, fresh, "round {round}: n={n} diverged after batch-size change");
        }
    }

    #[test]
    fn alternating_batch_sizes_in_decode_batch_match_singles() {
        // Same invariant through the batch entry point: batches of
        // different sizes (and different frame lengths inside one batch)
        // interleaved on one kernel must equal per-frame decodes.
        use wlan_math::rng::{Rng, WlanRng};
        let mut rng = WlanRng::seed_from_u64(92);
        let mut kernel = ViterbiKernel::new();
        for batch_len in [8usize, 2, 5, 1, 8, 3] {
            let mut llr_store: Vec<(Vec<f64>, usize)> = Vec::new();
            for k in 0..batch_len {
                let n = 16 + 24 * (k % 3);
                let data: Vec<u8> = (0..n).map(|_| rng.gen_range(0..2u8)).collect();
                let coded = ConvEncoder::new().encode_terminated(&data);
                let llrs: Vec<f64> = coded
                    .iter()
                    .map(|&b| (if b == 0 { 1.0 } else { -1.0 }) + rng.gen_gaussian())
                    .collect();
                llr_store.push((llrs, n));
            }
            let frames: Vec<FrameLlrs<'_>> = llr_store
                .iter()
                .map(|(llrs, n)| FrameLlrs::terminated(llrs, *n))
                .collect();
            let batched = kernel.decode_batch(&frames).unwrap();
            for (frame, got) in frames.iter().zip(&batched) {
                let solo = ViterbiKernel::new().decode(*frame).unwrap();
                assert_eq!(*got, solo, "batch of {batch_len} diverged from solo decode");
            }
        }
    }

    #[test]
    fn error_free_roundtrip() {
        let data: Vec<u8> = (0..64).map(|i| ((i * 7 + 3) % 5 < 2) as u8).collect();
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn corrects_up_to_free_distance_errors() {
        // d_free = 10 → any 4 errors spread apart are correctable.
        let data: Vec<u8> = (0..40).map(|i| (i % 3 == 1) as u8).collect();
        let mut coded = ConvEncoder::new().encode_terminated(&data);
        for &pos in &[2usize, 20, 45, 70] {
            coded[pos] ^= 1;
        }
        let decoded = ViterbiDecoder::new().decode_hard(&coded, data.len()).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn burst_beyond_capability_fails_gracefully() {
        // 12 consecutive errors exceed what d_free=10 can fix; the decoder
        // must still return the right length without panicking.
        let data: Vec<u8> = (0..30).map(|i| (i % 2) as u8).collect();
        let mut coded = ConvEncoder::new().encode_terminated(&data);
        for b in coded.iter_mut().take(12) {
            *b ^= 1;
        }
        let decoded = ViterbiDecoder::new().decode_hard(&coded, data.len()).unwrap();
        assert_eq!(decoded.len(), data.len());
    }

    #[test]
    fn soft_decisions_use_reliability() {
        // One flipped bit marked unreliable (small LLR) plus a strong
        // correct neighbourhood: soft decoding must recover.
        let data = vec![1u8, 1, 0, 0, 1, 0, 1, 1, 0, 1];
        let coded = ConvEncoder::new().encode_terminated(&data);
        let mut llrs: Vec<f64> = coded.iter().map(|&b| if b == 0 { 5.0 } else { -5.0 }).collect();
        llrs[7] = -llrs[7].signum() * 0.1; // weak wrong observation
        let decoded = ViterbiDecoder::new().decode_soft(&llrs, data.len()).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn erasures_are_neutral() {
        // Zero LLRs (punctured bits) carry no information but must not
        // corrupt decoding when enough other bits survive.
        let data = vec![0u8, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0];
        let coded = ConvEncoder::new().encode_terminated(&data);
        let mut llrs: Vec<f64> = coded.iter().map(|&b| if b == 0 { 3.0 } else { -3.0 }).collect();
        for i in (0..llrs.len()).step_by(6) {
            llrs[i] = 0.0;
        }
        let decoded = ViterbiDecoder::new().decode_soft(&llrs, data.len()).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn empty_message_roundtrips() {
        assert_eq!(roundtrip(&[]), Vec::<u8>::new());
    }

    #[test]
    fn unterminated_stream_decodes() {
        // Encode without tail bits; decode with best-state traceback.
        let data: Vec<u8> = (0..50).map(|i| ((i * 3) % 4 == 1) as u8).collect();
        let mut enc = ConvEncoder::new();
        let coded = enc.encode(&data);
        let llrs: Vec<f64> = coded.iter().map(|&b| if b == 0 { 2.0 } else { -2.0 }).collect();
        let decoded = ViterbiDecoder::new().decode_soft_unterminated(&llrs, data.len()).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn unterminated_with_errors_recovers_prefix() {
        // Without termination the last few bits are weakly protected, but
        // bits well before the end must still decode despite channel errors.
        let data: Vec<u8> = (0..60).map(|i| (i % 5 < 2) as u8).collect();
        let coded = ConvEncoder::new().encode(&data);
        let mut llrs: Vec<f64> =
            coded.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect();
        llrs[10] = -llrs[10];
        llrs[50] = -llrs[50];
        let decoded = ViterbiDecoder::new().decode_soft_unterminated(&llrs, data.len()).unwrap();
        assert_eq!(&decoded[..50], &data[..50]);
    }

    #[test]
    fn try_variants_report_typed_errors() {
        use wlan_math::WlanError;
        let dec = ViterbiDecoder::new();
        assert_eq!(
            dec.decode_hard(&[0, 1, 0], 4).unwrap_err(),
            WlanError::LengthMismatch { expected: 20, got: 3 }
        );
        assert_eq!(
            dec.decode_soft_unterminated(&[0.0; 5], 4).unwrap_err(),
            WlanError::LengthMismatch { expected: 8, got: 5 }
        );
    }

    /// The scalar reference trellis the kernel must match bit-for-bit: the
    /// original per-(prev, input) loop with tuple survivors, kept here as a
    /// test oracle.
    fn reference_trellis(llrs: &[f64], total_steps: usize, keep: usize, terminated: bool) -> Vec<u8> {
        let mut metrics = vec![NEG_INF; NUM_STATES];
        metrics[0] = 0.0;
        let mut next_metrics = vec![NEG_INF; NUM_STATES];
        let mut survivors = vec![[(0u32, 0u8); NUM_STATES]; total_steps];
        for t in 0..total_steps {
            let la = llrs[2 * t];
            let lb = llrs[2 * t + 1];
            next_metrics.fill(NEG_INF);
            for state in 0..NUM_STATES as u32 {
                let m = metrics[state as usize];
                if m == NEG_INF {
                    continue;
                }
                for input in 0..=1u8 {
                    let (a, b, next) = trellis_step(state, input);
                    let branch = if a == 0 { la } else { -la } + if b == 0 { lb } else { -lb };
                    let cand = m + branch;
                    if cand > next_metrics[next as usize] {
                        next_metrics[next as usize] = cand;
                        survivors[t][next as usize] = (state, input);
                    }
                }
            }
            std::mem::swap(&mut metrics, &mut next_metrics);
        }
        let mut state = if terminated {
            0u32
        } else {
            let mut best = 0u32;
            for s in 1..NUM_STATES as u32 {
                if metrics[s as usize].total_cmp(&metrics[best as usize])
                    != std::cmp::Ordering::Less
                {
                    best = s;
                }
            }
            best
        };
        let mut decoded = vec![0u8; total_steps];
        for t in (0..total_steps).rev() {
            let (prev, input) = survivors[t][state as usize];
            decoded[t] = input;
            state = prev;
        }
        decoded.truncate(keep);
        decoded
    }

    #[test]
    fn kernel_matches_scalar_reference_bitwise() {
        // Noisy LLRs across many lengths, terminated and not: the u64
        // survivor kernel reproduces the tuple-survivor reference exactly.
        use wlan_math::rng::{Rng, WlanRng};
        let mut rng = WlanRng::seed_from_u64(99);
        let mut kernel = ViterbiKernel::new();
        for &n in &[1usize, 2, 7, 24, 48, 96, 200] {
            for trial in 0..4 {
                let data: Vec<u8> = (0..n).map(|_| (rng.gen::<u64>() & 1) as u8).collect();
                let coded = ConvEncoder::new().encode_terminated(&data);
                let llrs: Vec<f64> = coded
                    .iter()
                    .map(|&b| (if b == 0 { 1.0 } else { -1.0 }) + rng.gen_range(-1.5..1.5))
                    .collect();
                let reference = reference_trellis(&llrs, n + TAIL, n, true);
                let got = kernel.decode(FrameLlrs::terminated(&llrs, n)).unwrap();
                assert_eq!(got, reference, "terminated n={n} trial={trial}");

                let stream = ConvEncoder::new().encode(&data);
                let sllrs: Vec<f64> = stream
                    .iter()
                    .map(|&b| (if b == 0 { 1.0 } else { -1.0 }) + rng.gen_range(-1.5..1.5))
                    .collect();
                let reference = reference_trellis(&sllrs, n, n, false);
                let got = kernel.decode(FrameLlrs::unterminated(&sllrs, n)).unwrap();
                assert_eq!(got, reference, "unterminated n={n} trial={trial}");
            }
        }
    }

    #[test]
    fn batch_equals_one_at_a_time() {
        use wlan_math::rng::{Rng, WlanRng};
        let mut rng = WlanRng::seed_from_u64(7);
        let frames: Vec<(Vec<f64>, usize)> = [12usize, 40, 12, 96]
            .iter()
            .map(|&n| {
                let data: Vec<u8> = (0..n).map(|_| (rng.gen::<u64>() & 1) as u8).collect();
                let coded = ConvEncoder::new().encode_terminated(&data);
                let llrs = coded
                    .iter()
                    .map(|&b| (if b == 0 { 1.0 } else { -1.0 }) + rng.gen_range(-1.0..1.0))
                    .collect();
                (llrs, n)
            })
            .collect();
        let refs: Vec<FrameLlrs<'_>> = frames
            .iter()
            .map(|(llrs, n)| FrameLlrs::terminated(llrs, *n))
            .collect();
        let mut kernel = ViterbiKernel::new();
        let batched = kernel.decode_batch(&refs).unwrap();
        for (frame, want) in refs.iter().zip(&batched) {
            let mut fresh = ViterbiKernel::new();
            assert_eq!(fresh.decode(*frame).unwrap(), *want);
        }
    }

    #[test]
    fn batch_rejects_any_bad_frame_up_front() {
        let good = [1.0f64; 16]; // 2 info bits terminated
        let bad = [1.0f64; 5];
        let mut kernel = ViterbiKernel::new();
        let err = kernel
            .decode_batch(&[
                FrameLlrs::terminated(&good, 2),
                FrameLlrs::unterminated(&bad, 4),
            ])
            .unwrap_err();
        assert_eq!(err, WlanError::LengthMismatch { expected: 8, got: 5 });
    }

    #[test]
    fn decode_into_reuses_buffer() {
        let data = vec![1u8, 0, 1, 1, 0, 0, 1, 0];
        let coded = ConvEncoder::new().encode_terminated(&data);
        let llrs: Vec<f64> = coded.iter().map(|&b| if b == 0 { 4.0 } else { -4.0 }).collect();
        let mut kernel = ViterbiKernel::new();
        let mut bits = vec![9u8; 100]; // stale content must be cleared
        kernel
            .decode_into(FrameLlrs::terminated(&llrs, data.len()), &mut bits)
            .unwrap();
        assert_eq!(bits, data);
    }
}

#[cfg(test)]
mod perf_probe {
    use super::*;
    use crate::convolutional::ConvEncoder;

    #[test]
    #[ignore = "manual timing probe"]
    fn time_every_path() {
        use wlan_math::rng::{Rng, WlanRng};
        let mut rng = WlanRng::seed_from_u64(5);
        let data: Vec<u8> = (0..800).map(|_| rng.gen_range(0..2u8)).collect();
        let coded = ConvEncoder::new().encode_terminated(&data);
        let llrs: Vec<f64> = coded
            .iter()
            .map(|&b| (if b == 0 { 1.0 } else { -1.0 }) + 0.3 * rng.gen_gaussian())
            .collect();
        let mut bits = Vec::new();
        for path in [AcsPath::Scalar, AcsPath::Avx2, AcsPath::Avx512] {
            if !path.available() {
                continue;
            }
            let mut k = ViterbiKernel::new().on_path(path);
            let t = std::time::Instant::now();
            for _ in 0..2000 {
                k.decode_into(FrameLlrs::terminated(&llrs, data.len()), &mut bits)
                    .unwrap();
                std::hint::black_box(&bits);
            }
            let us = t.elapsed().as_secs_f64() / 2000.0 * 1e6;
            println!("{path:?}: {us:.1} us/frame");
        }
    }
}
