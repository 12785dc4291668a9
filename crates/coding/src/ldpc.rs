//! Low-density parity-check codes.
//!
//! The paper singles out LDPC codes as one of the 802.11n range-extending
//! technologies. This module implements an IRA-structured LDPC code — the
//! same architectural family as the 802.11n codes: `H = [A | P]` where `A`
//! is a sparse column-weight-3 information part and `P` is the dual-diagonal
//! accumulator that makes encoding linear-time — together with min-sum
//! belief-propagation decoding (plain and normalized, the ablation of
//! experiment E6).

/// Min-sum decoder variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MinSum {
    /// Plain min-sum: overestimates reliability, ~0.5 dB worse.
    Plain,
    /// Normalized min-sum with the given scale factor (typically 0.75–0.85).
    Normalized(f64),
}

/// Outcome of LDPC decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdpcDecode {
    /// Hard decisions for the information bits.
    pub info_bits: Vec<u8>,
    /// Whether all parity checks were satisfied (codeword found).
    pub converged: bool,
    /// Iterations actually used.
    pub iterations: usize,
}

/// An IRA-structured binary LDPC code.
///
/// # Examples
///
/// ```
/// use wlan_coding::ldpc::{LdpcCode, MinSum};
///
/// let code = LdpcCode::rate_half(324, 1);
/// let info: Vec<u8> = (0..324).map(|i| (i % 3 == 0) as u8).collect();
/// let cw = code.encode(&info);
/// // Noise-free LLRs decode immediately.
/// let llrs: Vec<f64> = cw.iter().map(|&b| if b == 0 { 4.0 } else { -4.0 }).collect();
/// let out = code.decode(&llrs, 30, MinSum::Normalized(0.8));
/// assert!(out.converged);
/// assert_eq!(out.info_bits, info);
/// ```
#[derive(Debug, Clone)]
pub struct LdpcCode {
    k: usize,
    m: usize,
    /// Column indices participating in each check row (including parity cols).
    rows: Vec<Vec<usize>>,
    /// CSR view of `rows` for the decoder hot loop: the variables of check
    /// `i` are `row_vars[row_offsets[i]..row_offsets[i+1]]`. Built once at
    /// construction; min-sum iterations walk one contiguous array instead
    /// of chasing per-row allocations.
    row_offsets: Vec<u32>,
    row_vars: Vec<u32>,
}

impl LdpcCode {
    /// Constructs a rate-1/2 code with `k` information bits (`k` parity
    /// checks, codeword length `2k`). `seed` selects the pseudorandom sparse
    /// part deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `k < 8`.
    pub fn rate_half(k: usize, seed: u64) -> Self {
        Self::new(k, k, seed)
    }

    /// Constructs a code with `k` information bits and `m` parity checks
    /// (codeword length `k + m`, rate `k/(k+m)`).
    ///
    /// # Panics
    ///
    /// Panics if `k < 8` or `m < 4`.
    pub fn new(k: usize, m: usize, seed: u64) -> Self {
        assert!(k >= 8, "need at least 8 information bits");
        assert!(m >= 4, "need at least 4 parity checks");
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); m];

        // Sparse information part A: column weight 3, 4-cycle avoidance by
        // bounded retry.
        let mut rng = SplitMix64::new(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let mut pair_used = std::collections::HashSet::new();
        for col in 0..k {
            let mut picked: Vec<usize> = Vec::with_capacity(3);
            let mut attempts = 0;
            while picked.len() < 3 {
                let r = (rng.next() % m as u64) as usize;
                attempts += 1;
                if picked.contains(&r) {
                    continue;
                }
                // Avoid creating a length-4 cycle (two columns sharing two
                // rows) unless we run out of patience.
                let creates_cycle = picked
                    .iter()
                    .any(|&p| pair_used.contains(&ordered(p, r)));
                if creates_cycle && attempts < 200 {
                    continue;
                }
                picked.push(r);
            }
            for i in 0..picked.len() {
                for j in (i + 1)..picked.len() {
                    pair_used.insert(ordered(picked[i], picked[j]));
                }
            }
            for &r in &picked {
                rows[r].push(col);
            }
        }

        // Dual-diagonal accumulator P: check i touches parity cols i and i−1.
        for (i, row) in rows.iter_mut().enumerate() {
            row.push(k + i);
            if i > 0 {
                row.push(k + i - 1);
            }
        }

        let mut row_offsets = Vec::with_capacity(m + 1);
        let mut row_vars = Vec::new();
        row_offsets.push(0u32);
        for row in &rows {
            row_vars.extend(row.iter().map(|&c| c as u32));
            row_offsets.push(row_vars.len() as u32);
        }
        // The decode hot loop gathers through these indices without bounds
        // checks; pin the invariant here, once per code construction.
        assert!(
            row_vars.iter().all(|&v| (v as usize) < k + m),
            "check matrix column out of range"
        );

        LdpcCode {
            k,
            m,
            rows,
            row_offsets,
            row_vars,
        }
    }

    /// Number of information bits.
    pub fn info_len(&self) -> usize {
        self.k
    }

    /// Codeword length `n = k + m`.
    pub fn codeword_len(&self) -> usize {
        self.k + self.m
    }

    /// Code rate `k/n`.
    pub fn rate(&self) -> f64 {
        self.k as f64 / self.codeword_len() as f64
    }

    /// Encodes information bits into a systematic codeword
    /// `[info | parity]`.
    ///
    /// # Panics
    ///
    /// Panics if `info.len() != self.info_len()` or a bit is not 0/1.
    pub fn encode(&self, info: &[u8]) -> Vec<u8> {
        assert_eq!(info.len(), self.k, "information length mismatch");
        assert!(info.iter().all(|&b| b <= 1), "bits must be 0 or 1");
        let mut cw = info.to_vec();
        cw.resize(self.codeword_len(), 0);
        // s_i = parity of the information positions of check i, then the
        // accumulator gives p_i = s_i ⊕ p_{i−1}.
        let mut prev = 0u8;
        for i in 0..self.m {
            let mut s = 0u8;
            for &c in &self.rows[i] {
                if c < self.k {
                    s ^= info[c];
                }
            }
            let p = s ^ prev;
            cw[self.k + i] = p;
            prev = p;
        }
        debug_assert!(self.is_codeword(&cw));
        cw
    }

    /// Checks whether `bits` satisfies every parity check.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != self.codeword_len()`.
    pub fn is_codeword(&self, bits: &[u8]) -> bool {
        assert_eq!(bits.len(), self.codeword_len(), "codeword length mismatch");
        self.row_offsets.windows(2).all(|w| {
            self.row_vars[w[0] as usize..w[1] as usize]
                .iter()
                .fold(0u8, |acc, &c| acc ^ bits[c as usize])
                == 0
        })
    }

    /// Decodes channel LLRs (`log(P(0)/P(1))`, positive ⇒ bit 0) with
    /// min-sum belief propagation.
    ///
    /// Stops early as soon as all checks are satisfied.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len() != self.codeword_len()`.
    pub fn decode(&self, llrs: &[f64], max_iters: usize, variant: MinSum) -> LdpcDecode {
        let n = self.codeword_len();
        assert_eq!(llrs.len(), n, "LLR length mismatch");
        self.decode_checked(llrs, max_iters, variant)
    }

    /// Like [`LdpcCode::decode`], but a mis-sized LLR block (a truncated
    /// codeword) returns [`wlan_math::WlanError::LengthMismatch`] instead
    /// of panicking.
    pub fn try_decode(
        &self,
        llrs: &[f64],
        max_iters: usize,
        variant: MinSum,
    ) -> Result<LdpcDecode, wlan_math::WlanError> {
        if llrs.len() != self.codeword_len() {
            return Err(wlan_math::WlanError::LengthMismatch {
                expected: self.codeword_len(),
                got: llrs.len(),
            });
        }
        Ok(self.decode_checked(llrs, max_iters, variant))
    }

    fn decode_checked(&self, llrs: &[f64], max_iters: usize, variant: MinSum) -> LdpcDecode {
        let alpha = match variant {
            MinSum::Plain => 1.0,
            MinSum::Normalized(a) => a,
        };

        // Check-to-variable messages, flattened row-major and aligned with
        // `row_vars`: one allocation for the whole graph instead of one Vec
        // per check row.
        let mut check_msgs = vec![0.0f64; self.row_vars.len()];
        let mut totals: Vec<f64> = llrs.to_vec();

        if self.syndrome_clear(&totals) {
            return LdpcDecode {
                info_bits: Self::hard_prefix(&totals, self.k),
                converged: true,
                iterations: 0,
            };
        }

        for iter in 1..=max_iters {
            for row in 0..self.m {
                let (start, end) =
                    (self.row_offsets[row] as usize, self.row_offsets[row + 1] as usize);
                let vars = &self.row_vars[start..end];
                let msgs = &mut check_msgs[start..end];
                // Variable-to-check = total − previous check-to-variable.
                // Compute sign product and two smallest magnitudes. The
                // gathers through `row_vars` skip bounds checks: every entry
                // is a column index < n, validated once when the CSR layout
                // is built in `new`.
                let mut sign = 1.0f64;
                let mut min1 = f64::INFINITY;
                let mut min2 = f64::INFINITY;
                let mut min_idx = 0usize;
                for (idx, &v) in vars.iter().enumerate() {
                    // SAFETY: `v < n == totals.len()`, checked in `new`.
                    let msg = unsafe { *totals.get_unchecked(v as usize) } - msgs[idx];
                    if msg < 0.0 {
                        sign = -sign;
                    }
                    let mag = msg.abs();
                    if mag < min1 {
                        min2 = min1;
                        min1 = mag;
                        min_idx = idx;
                    } else if mag < min2 {
                        min2 = mag;
                    }
                }
                for (idx, &v) in vars.iter().enumerate() {
                    let old = msgs[idx];
                    // SAFETY: `v < n == totals.len()`, checked in `new`.
                    let total = unsafe { totals.get_unchecked_mut(v as usize) };
                    let incoming = *total - old;
                    let excl_sign = if incoming < 0.0 { -sign } else { sign };
                    let mag = if idx == min_idx { min2 } else { min1 };
                    let new = alpha * excl_sign * mag;
                    msgs[idx] = new;
                    *total += new - old;
                }
            }

            if self.syndrome_clear(&totals) {
                return LdpcDecode {
                    info_bits: Self::hard_prefix(&totals, self.k),
                    converged: true,
                    iterations: iter,
                };
            }
        }

        LdpcDecode {
            info_bits: Self::hard_prefix(&totals, self.k),
            converged: false,
            iterations: max_iters,
        }
    }

    /// Whether the hard decisions implied by `totals` satisfy every check,
    /// reading sign bits directly so no per-iteration bit vector is built.
    fn syndrome_clear(&self, totals: &[f64]) -> bool {
        self.row_offsets.windows(2).all(|w| {
            self.row_vars[w[0] as usize..w[1] as usize]
                .iter()
                .fold(0u8, |acc, &c| acc ^ (totals[c as usize] < 0.0) as u8)
                == 0
        })
    }

    fn hard_prefix(totals: &[f64], k: usize) -> Vec<u8> {
        totals[..k].iter().map(|&l| (l < 0.0) as u8).collect()
    }
}

fn ordered(a: usize, b: usize) -> (usize, usize) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// SplitMix64 — tiny deterministic generator for code construction.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_code() -> LdpcCode {
        LdpcCode::rate_half(128, 7)
    }

    #[test]
    fn encoding_produces_valid_codewords() {
        let code = test_code();
        for pattern in 0..8u32 {
            let info: Vec<u8> = (0..code.info_len())
                .map(|i| (((i as u32).wrapping_mul(pattern + 1) >> 2) & 1) as u8)
                .collect();
            let cw = code.encode(&info);
            assert!(code.is_codeword(&cw));
            assert_eq!(&cw[..code.info_len()], info.as_slice(), "systematic");
        }
    }

    #[test]
    fn linearity() {
        let code = test_code();
        let a: Vec<u8> = (0..128).map(|i| (i % 5 == 0) as u8).collect();
        let b: Vec<u8> = (0..128).map(|i| (i % 7 == 1) as u8).collect();
        let ab: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let sum: Vec<u8> = code
            .encode(&a)
            .iter()
            .zip(code.encode(&b))
            .map(|(x, y)| x ^ y)
            .collect();
        assert_eq!(code.encode(&ab), sum);
    }

    #[test]
    fn clean_llrs_decode_instantly() {
        let code = test_code();
        let info: Vec<u8> = (0..128).map(|i| ((i * 3) % 4 == 0) as u8).collect();
        let cw = code.encode(&info);
        let llrs: Vec<f64> = cw.iter().map(|&b| if b == 0 { 6.0 } else { -6.0 }).collect();
        let out = code.decode(&llrs, 50, MinSum::Normalized(0.8));
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.info_bits, info);
    }

    #[test]
    fn corrects_scattered_errors() {
        let code = test_code();
        let info: Vec<u8> = (0..128).map(|i| (i % 2) as u8).collect();
        let cw = code.encode(&info);
        let mut llrs: Vec<f64> = cw.iter().map(|&b| if b == 0 { 2.0 } else { -2.0 }).collect();
        // Flip 12 scattered positions with moderate confidence.
        for i in 0..12 {
            let pos = i * 19 % llrs.len();
            llrs[pos] = -llrs[pos] * 0.5;
        }
        let out = code.decode(&llrs, 50, MinSum::Normalized(0.8));
        assert!(out.converged, "BP should fix 12/256 moderate errors");
        assert_eq!(out.info_bits, info);
    }

    #[test]
    fn hopeless_input_reports_failure() {
        let code = test_code();
        // Random garbage LLRs: decoder must terminate and say so.
        let mut rng = SplitMix64::new(99);
        let llrs: Vec<f64> = (0..code.codeword_len())
            .map(|_| ((rng.next() % 2000) as f64 - 1000.0) / 250.0)
            .collect();
        let out = code.decode(&llrs, 10, MinSum::Normalized(0.8));
        assert_eq!(out.info_bits.len(), code.info_len());
        // (converged may rarely be true by chance; iterations must be bounded.)
        assert!(out.iterations <= 10);
    }

    #[test]
    fn rate_and_lengths() {
        let code = LdpcCode::new(96, 32, 3);
        assert_eq!(code.info_len(), 96);
        assert_eq!(code.codeword_len(), 128);
        assert!((code.rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn variable_degrees_follow_structure() {
        let code = LdpcCode::new(64, 16, 1);
        // Degree of variable `col`: the parity checks that touch it.
        let degree = |col: usize| code.rows.iter().filter(|row| row.contains(&col)).count();
        for col in 0..64 {
            assert_eq!(degree(col), 3, "info column {col}");
        }
        for col in 64..79 {
            assert_eq!(degree(col), 2, "parity column {col}");
        }
        assert_eq!(degree(79), 1, "last parity column");
    }

    #[test]
    fn construction_is_deterministic() {
        let a = LdpcCode::rate_half(64, 42);
        let b = LdpcCode::rate_half(64, 42);
        let info: Vec<u8> = (0..64).map(|i| (i % 3 == 1) as u8).collect();
        assert_eq!(a.encode(&info), b.encode(&info));
    }

    #[test]
    fn normalized_beats_plain_at_low_snr() {
        // Count decoding successes over a fixed ensemble of noisy inputs.
        let code = LdpcCode::rate_half(256, 5);
        let info: Vec<u8> = (0..256).map(|i| (i % 2) as u8).collect();
        let cw = code.encode(&info);
        let mut rng = SplitMix64::new(1234);
        let mut successes = [0u32; 2];
        for trial in 0..30 {
            let llrs: Vec<f64> = cw
                .iter()
                .map(|&b| {
                    let sign = if b == 0 { 1.0 } else { -1.0 };
                    // Crude Gaussian via CLT of 4 uniforms, σ chosen near
                    // the decoding threshold.
                    let u: f64 = (0..4)
                        .map(|_| (rng.next() % 10_000) as f64 / 10_000.0 - 0.5)
                        .sum();
                    sign * 2.0 + u * 4.4 + trial as f64 * 0.0
                })
                .collect();
            for (i, variant) in [MinSum::Normalized(0.8), MinSum::Plain].iter().enumerate() {
                let out = code.decode(&llrs, 40, *variant);
                if out.converged && out.info_bits == info {
                    successes[i] += 1;
                }
            }
        }
        assert!(
            successes[0] >= successes[1],
            "normalized ({}) should not lose to plain ({})",
            successes[0],
            successes[1]
        );
    }

    #[test]
    #[should_panic(expected = "information length mismatch")]
    fn encode_length_checked() {
        let _ = test_code().encode(&[0, 1]);
    }

    #[test]
    fn try_decode_reports_truncated_codewords() {
        let code = test_code();
        let err = code
            .try_decode(&vec![0.0; code.codeword_len() - 3], 10, MinSum::Plain)
            .unwrap_err();
        assert_eq!(
            err,
            wlan_math::WlanError::LengthMismatch {
                expected: code.codeword_len(),
                got: code.codeword_len() - 3,
            }
        );
        // The happy path agrees with the panicking decoder.
        let info: Vec<u8> = (0..code.info_len()).map(|i| (i % 2) as u8).collect();
        let cw = code.encode(&info);
        let llrs: Vec<f64> = cw.iter().map(|&b| if b == 0 { 4.0 } else { -4.0 }).collect();
        let out = code.try_decode(&llrs, 20, MinSum::Plain).unwrap();
        assert_eq!(out, code.decode(&llrs, 20, MinSum::Plain));
        assert!(out.converged);
    }
}
