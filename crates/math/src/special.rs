//! Special functions and unit conversions used across the workspace.
//!
//! Provides the complementary error function and the dB ↔ linear
//! conversions every link budget needs.

/// Complementary error function `erfc(x)`, accurate to ~1.2e-7.
///
/// Uses the Numerical-Recipes rational Chebyshev approximation, which is far
/// more than accurate enough for BER work (probabilities down to 1e-15 keep
/// several significant digits).
///
/// ```
/// use wlan_math::special::erfc;
/// assert!((erfc(0.0) - 1.0).abs() < 1e-7);
/// assert!(erfc(3.0) < 3e-5);
/// ```
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587
                                        + t * (-0.82215223 + t * 0.17087277)))))))))
        .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Converts a linear power ratio to decibels: `10·log10(x)`.
///
/// Returns `-inf` for zero and NaN for negative input, mirroring `log10`.
pub fn lin_to_db(x: f64) -> f64 {
    10.0 * x.log10()
}

/// Converts decibels to a linear power ratio: `10^(x/10)`.
///
/// ```
/// use wlan_math::special::{db_to_lin, lin_to_db};
/// assert!((db_to_lin(3.0) - 1.995).abs() < 1e-2);
/// assert!((lin_to_db(db_to_lin(-7.5)) + 7.5).abs() < 1e-12);
/// ```
pub fn db_to_lin(x: f64) -> f64 {
    10f64.powf(x / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_known_values() {
        // Reference values from standard tables.
        let cases = [(0.0, 1.0), (0.5, 0.4795), (1.0, 0.1573), (2.0, 0.00468)];
        for (x, want) in cases {
            assert!((erfc(x) - want).abs() < 1e-3, "erfc({x})");
        }
    }

    #[test]
    fn erfc_is_antisymmetric_about_one() {
        for x in [-2.0, -0.5, 0.3, 1.7] {
            assert!((erfc(x) + erfc(-x) - 2.0).abs() < 1e-10);
        }
    }

    #[test]
    fn db_roundtrip() {
        for x in [0.001, 0.5, 1.0, 42.0, 1e6] {
            assert!((db_to_lin(lin_to_db(x)) - x).abs() / x < 1e-12);
        }
    }
}
