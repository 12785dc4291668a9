//! Ziggurat sampling for the standard normal (Marsaglia & Tsang, in
//! Doornik's corrected formulation).
//!
//! AWGN generation draws two normals per complex sample, and a PER sweep
//! draws tens of millions of them; the Box–Muller `ln`/`cos` pair was the
//! single largest cost in the whole link simulator. The ziggurat's fast
//! path is one `u64` draw, two table reads, one multiply and one compare
//! (~98.5 % of draws at 256 layers), several times cheaper.
//!
//! Only that fast path is inlined into callers: [`standard_normal`] is a
//! handful of instructions, and the wedge and tail rejections live in one
//! cold, never-inlined function that takes the rejected word and keeps
//! drawing from the same generator. The split moves no draw: every
//! caller sees the same normals from the same words in the same order.
//!
//! The layer tables are built once per process by bisecting the ziggurat
//! closure condition — no magic constants to trust — and the construction
//! is pure `f64` arithmetic, so the sampler is exactly reproducible: a
//! given RNG stream yields the same normals on every run and thread.

use crate::rng::Rng;
use crate::special::erfc;
use std::sync::OnceLock;

const LAYERS: usize = 256;

struct Tables {
    /// Layer edges, decreasing: `x[0] = v/f(r)` (virtual base width),
    /// `x[1] = r`, …, `x[LAYERS] ≈ 0`.
    x: [f64; LAYERS + 1],
    /// `f(x[i])` for the wedge test, increasing towards `f(0) = 1`.
    f: [f64; LAYERS + 1],
    /// Tail split point.
    r: f64,
}

/// Unnormalized standard-normal density `exp(-x²/2)`.
fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// `∫_r^∞ exp(-x²/2) dx = √(π/2)·erfc(r/√2)`.
fn tail_area(r: f64) -> f64 {
    (std::f64::consts::PI / 2.0).sqrt() * erfc(r / std::f64::consts::SQRT_2)
}

/// Builds the layer edges for a candidate split point `r` and returns the
/// closure error: how far `f` overshoots 1 at the topmost layer. The
/// correct `r` makes the error zero, i.e. the 256 equal-area layers tile
/// the region under the density exactly.
fn build(r: f64, x: &mut [f64; LAYERS + 1]) -> f64 {
    let v = r * density(r) + tail_area(r);
    x[0] = v / density(r);
    x[1] = r;
    let mut fi = density(r);
    for i in 1..LAYERS {
        fi += v / x[i];
        if fi >= 1.0 {
            // Overshot before the top: pad the rest with 0 edges.
            for e in x.iter_mut().skip(i + 1) {
                *e = 0.0;
            }
            return fi - 1.0 + (LAYERS - 1 - i) as f64;
        }
        x[i + 1] = (-2.0 * fi.ln()).sqrt();
    }
    // After the loop fi = f(x[LAYERS-1]) + v/x[LAYERS-1], i.e. the height
    // the top layer would need; closure wants it to be exactly f(0) = 1.
    fi - 1.0
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        // Smaller r means a fatter base layer (larger v), so the stack
        // overshoots f = 1 early: err(r) decreases with r. Bisect keeping
        // err(lo) > 0 > err(hi), and settle on the hi side so the final
        // table never overshoots (all edges stay real).
        let mut x = [0.0; LAYERS + 1];
        let (mut lo, mut hi) = (3.0f64, 4.0f64);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if build(mid, &mut x) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let r = hi;
        build(r, &mut x);
        x[LAYERS] = 0.0;
        let mut f = [0.0; LAYERS + 1];
        for i in 0..=LAYERS {
            f[i] = density(x[i]);
        }
        Tables { x, f, r }
    })
}

/// The signed in-layer uniform of a candidate: the top 53 bits of `bits`
/// scaled onto `[-1, 1)`. The shifted value is below 2⁵³, so the signed
/// conversion (one instruction, unlike the unsigned one) is exact.
#[inline]
fn signed_uniform(bits: u64) -> f64 {
    ((bits >> 11) as i64) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
}

/// One standard-normal draw.
///
/// Layer choice and the in-layer uniform share a single `u64` (8 low bits
/// pick the layer, the top 53 make the signed uniform). The inlined fast
/// path is that one word, the layer index, the uniform, one multiply and
/// one compare; a rejected candidate goes to [`rejected`], which keeps
/// drawing from the same `rng`, so the per-sample draw count is
/// data-dependent but fully determined by the stream.
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let t = tables();
    let bits = rng.next_u64();
    let i = (bits & 0xFF) as usize;
    let x = signed_uniform(bits) * t.x[i];
    if x.abs() < t.x[i + 1] {
        return x;
    }
    rejected(t, bits, rng)
}

/// The slow path of [`standard_normal`] for a candidate `bits` that
/// missed its layer's rectangle: the tail beyond `r` for the base layer,
/// the wedge test otherwise, and a fresh candidate (fast test first) after
/// each wedge rejection.
#[cold]
#[inline(never)]
fn rejected<R: Rng + ?Sized>(t: &Tables, mut bits: u64, rng: &mut R) -> f64 {
    loop {
        let i = (bits & 0xFF) as usize;
        let u = signed_uniform(bits);
        let x = u * t.x[i];
        if i == 0 {
            // Base layer outside the rectangle: sample the tail beyond r
            // (Marsaglia's exponential-rejection scheme).
            let sign = if u < 0.0 { -1.0 } else { 1.0 };
            loop {
                let e1 = -(1.0 - rng.next_f64()).ln() / t.r;
                let e2 = -(1.0 - rng.next_f64()).ln();
                if e2 + e2 > e1 * e1 {
                    return sign * (t.r + e1);
                }
            }
        }
        // Wedge: exact accept/reject against the density.
        let y = t.f[i] + rng.next_f64() * (t.f[i + 1] - t.f[i]);
        if y < density(x) {
            return x;
        }
        bits = rng.next_u64();
        let i = (bits & 0xFF) as usize;
        let x = signed_uniform(bits) * t.x[i];
        if x.abs() < t.x[i + 1] {
            return x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::WlanRng;

    #[test]
    fn layers_have_equal_area() {
        let t = tables();
        let v = t.r * density(t.r) + tail_area(t.r);
        // Base layer: rectangle up to r plus the tail.
        let base = t.r * t.f[1] + tail_area(t.r);
        assert!((base - v).abs() < 1e-12, "base {base} vs v {v}");
        for i in 1..LAYERS {
            let area = t.x[i] * (t.f[i + 1] - t.f[i]);
            assert!((area - v).abs() < 1e-9, "layer {i}: {area} vs {v}");
        }
        // Split point lands in the classic 256-layer neighbourhood.
        assert!((3.6..3.7).contains(&t.r), "r = {}", t.r);
    }

    #[test]
    fn moments_match_standard_normal() {
        let mut rng = WlanRng::seed_from_u64(7);
        let n = 400_000;
        let (mut m1, mut m2, mut m4) = (0.0, 0.0, 0.0);
        let mut beyond3 = 0usize;
        for _ in 0..n {
            let z = standard_normal(&mut rng);
            m1 += z;
            m2 += z * z;
            m4 += z * z * z * z;
            if z.abs() > 3.0 {
                beyond3 += 1;
            }
        }
        let nf = n as f64;
        assert!((m1 / nf).abs() < 0.01, "mean {}", m1 / nf);
        assert!((m2 / nf - 1.0).abs() < 0.01, "variance {}", m2 / nf);
        assert!((m4 / nf - 3.0).abs() < 0.1, "kurtosis {}", m4 / nf);
        // Tail mass beyond 3σ: 2·Q(3) ≈ 2.70e-3. The ziggurat's explicit
        // tail path must populate it (Box–Muller equivalence check).
        let frac = beyond3 as f64 / nf;
        assert!(
            (2.0e-3..3.4e-3).contains(&frac),
            "3σ tail mass {frac}"
        );
    }

    #[test]
    fn deep_tail_is_reachable() {
        // The tail sampler must produce values beyond r, not clip there.
        let mut rng = WlanRng::seed_from_u64(11);
        let mut max = 0.0f64;
        for _ in 0..2_000_000 {
            max = max.max(standard_normal(&mut rng));
        }
        assert!(max > 4.0, "max of 2M draws only {max}");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = WlanRng::seed_from_u64(99);
        let mut b = WlanRng::seed_from_u64(99);
        for _ in 0..10_000 {
            assert_eq!(
                standard_normal(&mut a).to_bits(),
                standard_normal(&mut b).to_bits()
            );
        }
    }
}
