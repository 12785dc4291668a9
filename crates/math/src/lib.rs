//! Numerical foundations for the `wlan-evolve` simulator.
//!
//! This crate provides the small, self-contained numerical toolkit that the
//! physical-layer crates build on:
//!
//! - [`Complex`] — double-precision complex arithmetic for baseband samples,
//! - [`fft`] — radix-2 FFT/IFFT used by the OFDM modulator/demodulator,
//! - [`matrix::CMatrix`] — dense complex matrices with inverse/Gram products
//!   for MIMO detection,
//! - [`svd`] — singular value decomposition for SVD transmit beamforming,
//! - [`special`] — erfc and dB conversions for SNR work,
//! - [`stats`] — running statistics, percentiles and CCDF estimation used by
//!   the experiment harness (e.g. PAPR CCDFs),
//! - [`par`] — the deterministic scoped thread pool behind every parallel
//!   Monte-Carlo sweep (`WLAN_THREADS` knob; bit-identical at any thread
//!   count),
//! - [`ci`] — Wilson score confidence bounds on Bernoulli
//!   tallies, the substrate for sequential early stopping and the CI
//!   half-widths campaign reports quote.
//!
//! # Examples
//!
//! ```
//! use wlan_math::{Complex, fft};
//!
//! // A pure tone occupies a single FFT bin.
//! let n = 64;
//! let tone: Vec<Complex> = (0..n)
//!     .map(|k| Complex::from_polar(1.0, 2.0 * std::f64::consts::PI * 3.0 * k as f64 / n as f64))
//!     .collect();
//! let spectrum = fft::fft(&tone);
//! let peak = spectrum
//!     .iter()
//!     .enumerate()
//!     .max_by(|a, b| a.1.norm().total_cmp(&b.1.norm()))
//!     .map(|(i, _)| i);
//! assert_eq!(peak, Some(3));
//! ```

pub mod ci;
pub mod complex;
pub mod error;
pub mod fft;
pub mod matrix;
pub mod par;
pub mod rng;
pub mod special;
pub mod stats;
pub mod svd;
pub mod ziggurat;

pub use complex::Complex;
pub use error::WlanError;
pub use matrix::CMatrix;
pub use rng::{Rng, WlanRng};
