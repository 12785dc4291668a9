//! The 802.11a/n block interleaver.
//!
//! Coded bits of each OFDM symbol pass through two permutations
//! (IEEE 802.11a-1999 §17.3.5.6): the first spreads adjacent coded bits onto
//! non-adjacent subcarriers; the second alternates them between more- and
//! less-significant constellation bit positions so deep fades do not wipe
//! out runs of equally-unreliable bits. 802.11n keeps both permutations
//! and only changes the column count of the first (13 for its 52 HT-20
//! data carriers, where 802.11a's 48 use 16).

/// Block interleaver parameterized by coded bits per symbol (`n_cbps`),
/// coded bits per subcarrier (`n_bpsc`) and column count.
///
/// # Examples
///
/// ```
/// use wlan_coding::interleaver::Interleaver;
///
/// // 16-QAM, rate irrelevant: 192 coded bits/symbol, 4 bits/subcarrier.
/// let il = Interleaver::new(192, 4);
/// let bits: Vec<u8> = (0..192).map(|i| (i % 2) as u8).collect();
/// let tx = il.interleave(&bits);
/// assert_eq!(il.deinterleave(&tx), bits);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interleaver {
    n_cbps: usize,
    /// Forward map: output position k carries input bit `perm[k]`.
    forward: Vec<usize>,
    inverse: Vec<usize>,
}

impl Interleaver {
    /// Creates the 802.11a interleaver (16 columns) for a symbol of
    /// `n_cbps` coded bits carrying `n_bpsc` bits per subcarrier.
    ///
    /// # Panics
    ///
    /// Panics if `n_cbps % 16 != 0` or `n_bpsc` is zero.
    pub fn new(n_cbps: usize, n_bpsc: usize) -> Self {
        Interleaver::with_columns(n_cbps, n_bpsc, 16)
    }

    /// The same two permutations over `n_col` columns of `n_cbps / n_col`
    /// rows: 802.11n writes its 52-carrier HT-20 symbols into 13 columns
    /// (4·N_BPSC rows) and its 108-carrier HT-40 symbols into 18 (6·N_BPSC
    /// rows), where 802.11a uses 16.
    ///
    /// # Panics
    ///
    /// Panics if `n_cbps` is not a multiple of `n_col`, or `n_bpsc` or
    /// `n_col` is zero.
    pub fn with_columns(n_cbps: usize, n_bpsc: usize, n_col: usize) -> Self {
        assert!(n_bpsc > 0, "bits per subcarrier must be positive");
        assert!(
            n_col > 0 && n_cbps.is_multiple_of(n_col),
            "N_CBPS must be a multiple of {n_col}"
        );
        let n_row = n_cbps / n_col;
        let s = (n_bpsc / 2).max(1);

        // Standard text defines where input bit k lands; build that map.
        let mut land = vec![0usize; n_cbps]; // land[k] = output index of input k
        for (k, slot) in land.iter_mut().enumerate() {
            let i = n_row * (k % n_col) + k / n_col;
            *slot = s * (i / s) + (i + n_cbps - n_col * i / n_cbps) % s;
        }
        let mut forward = vec![0usize; n_cbps];
        for (k, &j) in land.iter().enumerate() {
            forward[j] = k;
        }
        Interleaver {
            n_cbps,
            inverse: land,
            forward,
        }
    }

    /// Coded bits per OFDM symbol this interleaver handles.
    pub fn block_size(&self) -> usize {
        self.n_cbps
    }

    /// Interleaves exactly one symbol worth of bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != self.block_size()`.
    pub fn interleave(&self, bits: &[u8]) -> Vec<u8> {
        assert_eq!(bits.len(), self.n_cbps, "interleaver block size mismatch");
        self.forward.iter().map(|&k| bits[k]).collect()
    }

    /// Like [`Interleaver::interleave`], but gathers into a caller-owned
    /// block (the per-symbol transmit chain's stack buffer).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` or `out.len()` is not the block size.
    pub fn interleave_into(&self, bits: &[u8], out: &mut [u8]) {
        assert_eq!(bits.len(), self.n_cbps, "interleaver block size mismatch");
        assert_eq!(out.len(), self.n_cbps, "interleaver block size mismatch");
        for (o, &k) in out.iter_mut().zip(&self.forward) {
            *o = bits[k];
        }
    }

    /// Inverse permutation.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != self.block_size()`.
    pub fn deinterleave(&self, bits: &[u8]) -> Vec<u8> {
        assert_eq!(bits.len(), self.n_cbps, "interleaver block size mismatch");
        self.inverse.iter().map(|&k| bits[k]).collect()
    }

    /// Deinterleaves soft values (LLRs) instead of bits, gathering into a
    /// caller-owned block (the per-symbol receive chain's stack buffer).
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` or `out.len()` is not the block size.
    pub fn deinterleave_soft_into(&self, llrs: &[f64], out: &mut [f64]) {
        assert_eq!(llrs.len(), self.n_cbps, "interleaver block size mismatch");
        assert_eq!(out.len(), self.n_cbps, "interleaver block size mismatch");
        for (o, &k) in out.iter_mut().zip(&self.inverse) {
            *o = llrs[k];
        }
    }

    /// Interleaves a multi-symbol stream symbol by symbol.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of the block size.
    pub fn interleave_stream(&self, bits: &[u8]) -> Vec<u8> {
        assert_eq!(bits.len() % self.n_cbps, 0, "stream must be whole symbols");
        // One output allocation for the whole stream (this runs once per
        // symbol per frame); element order matches per-symbol interleaving.
        let mut out = Vec::with_capacity(bits.len());
        for c in bits.chunks(self.n_cbps) {
            out.extend(self.forward.iter().map(|&k| c[k]));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All (N_CBPS, N_BPSC) pairs used by 802.11a.
    const CONFIGS: [(usize, usize); 4] = [(48, 1), (96, 2), (192, 4), (288, 6)];

    #[test]
    fn permutation_is_bijective() {
        for (n_cbps, n_bpsc) in CONFIGS {
            let il = Interleaver::new(n_cbps, n_bpsc);
            let mut seen = vec![false; n_cbps];
            for k in 0..n_cbps {
                let one_hot: Vec<u8> = (0..n_cbps).map(|i| (i == k) as u8).collect();
                let out = il.interleave(&one_hot);
                let pos = out.iter().position(|&b| b == 1).unwrap();
                assert!(!seen[pos], "two inputs map to output {pos}");
                seen[pos] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn roundtrip_all_configs() {
        for (n_cbps, n_bpsc) in CONFIGS {
            let il = Interleaver::new(n_cbps, n_bpsc);
            let bits: Vec<u8> = (0..n_cbps).map(|i| ((i * 31) % 7 < 3) as u8).collect();
            assert_eq!(il.deinterleave(&il.interleave(&bits)), bits);
        }
    }

    #[test]
    fn first_permutation_spreads_adjacent_bits() {
        // Adjacent coded bits must land at least N_CBPS/16 apart (in the
        // subcarrier dimension) so a fade cannot erase a run.
        let il = Interleaver::new(48, 1);
        let pos = |k: usize| {
            let one_hot: Vec<u8> = (0..48).map(|i| (i == k) as u8).collect();
            il.interleave(&one_hot).iter().position(|&b| b == 1).unwrap()
        };
        let d = (pos(0) as isize - pos(1) as isize).unsigned_abs();
        assert!(d >= 3, "adjacent bits separated by only {d}");
    }

    #[test]
    fn bpsk_case_matches_standard_formula() {
        // For BPSK (s = 1) the second permutation is the identity, so
        // input bit k lands at i = (N/16)(k mod 16) + ⌊k/16⌋.
        let n = 48;
        let il = Interleaver::new(n, 1);
        let bits: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
        let out = il.interleave(&bits);
        for (k, bit) in bits.iter().enumerate() {
            let i = (n / 16) * (k % 16) + k / 16;
            assert_eq!(out[i], *bit, "input bit {k} should land at {i}");
        }
    }

    #[test]
    fn soft_and_hard_deinterleave_agree() {
        let il = Interleaver::new(96, 2);
        let bits: Vec<u8> = (0..96).map(|i| ((i / 5) % 2) as u8).collect();
        let tx = il.interleave(&bits);
        let llrs: Vec<f64> = tx.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect();
        let mut soft = [0.0; 96];
        il.deinterleave_soft_into(&llrs, &mut soft);
        let hard: Vec<u8> = soft.iter().map(|&l| (l < 0.0) as u8).collect();
        assert_eq!(hard, bits);
    }

    #[test]
    fn stream_processing_is_per_symbol() {
        let il = Interleaver::new(48, 1);
        let sym: Vec<u8> = (0..48).map(|i| ((i * 13) % 5 < 2) as u8).collect();
        let mut two = sym.clone();
        two.extend_from_slice(&sym);
        let out = il.interleave_stream(&two);
        assert_eq!(&out[..48], &out[48..], "identical symbols interleave identically");
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn rejects_bad_block_size() {
        let _ = Interleaver::new(50, 1);
    }

    /// The 20 MHz (13 columns) and 40 MHz (18 columns) HT interleavers.
    fn ht_interleavers(bpsc: usize) -> [Interleaver; 2] {
        [
            Interleaver::with_columns(52 * bpsc, bpsc, 13),
            Interleaver::with_columns(108 * bpsc, bpsc, 18),
        ]
    }

    #[test]
    fn ht_block_sizes_match_standard() {
        // 20 MHz: 13 columns × 4·N_BPSC rows; 40 MHz: 18 × 6·N_BPSC.
        for bpsc in [1usize, 2, 4, 6] {
            let [ht20, ht40] = ht_interleavers(bpsc);
            assert_eq!(ht20.block_size(), 52 * bpsc);
            assert_eq!(ht40.block_size(), 108 * bpsc);
        }
        // BPSK (s = 1): input bit k lands at N_ROW·(k mod 13) + ⌊k/13⌋.
        let [ht20, _] = ht_interleavers(1);
        let bits: Vec<u8> = (0..52).map(|i| (i % 3 == 0) as u8).collect();
        let out = ht20.interleave(&bits);
        for (k, bit) in bits.iter().enumerate() {
            assert_eq!(out[4 * (k % 13) + k / 13], *bit, "input bit {k}");
        }
    }

    #[test]
    fn ht_permutation_is_bijective() {
        for bpsc in [1usize, 2, 4, 6] {
            for il in ht_interleavers(bpsc) {
                let n = il.block_size();
                let mut seen = vec![false; n];
                for k in 0..n {
                    let one_hot: Vec<u8> = (0..n).map(|i| (i == k) as u8).collect();
                    let pos = il
                        .interleave(&one_hot)
                        .iter()
                        .position(|&b| b == 1)
                        .expect("bit survives");
                    assert!(!seen[pos], "collision at {pos}");
                    seen[pos] = true;
                }
            }
        }
    }

    #[test]
    fn ht_roundtrip() {
        let [il, _] = ht_interleavers(6);
        let bits: Vec<u8> = (0..il.block_size()).map(|i| ((i * 17) % 3 == 0) as u8).collect();
        assert_eq!(il.deinterleave(&il.interleave(&bits)), bits);
        // The soft path agrees with the hard path.
        let tx = il.interleave(&bits);
        let llrs: Vec<f64> = tx.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect();
        let mut soft = vec![0.0; llrs.len()];
        il.deinterleave_soft_into(&llrs, &mut soft);
        let hard: Vec<u8> = soft.iter().map(|&l| (l < 0.0) as u8).collect();
        assert_eq!(hard, bits);
    }

    #[test]
    fn ht_spreads_adjacent_bits() {
        let [il, _] = ht_interleavers(2);
        let pos = |k: usize| {
            let n = il.block_size();
            let one_hot: Vec<u8> = (0..n).map(|i| (i == k) as u8).collect();
            il.interleave(&one_hot).iter().position(|&b| b == 1).expect("found")
        };
        let d = (pos(0) as isize - pos(1) as isize).unsigned_abs();
        assert!(d >= 4, "adjacent coded bits only {d} apart");
    }
}
