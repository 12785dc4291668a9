//! Wireless channel models for the `wlan-evolve` simulator.
//!
//! These models stand in for the 2.4/5 GHz radio environment that the paper's
//! real systems operated in (see DESIGN.md, substitution table):
//!
//! - [`noise`] — complex AWGN at a specified SNR,
//! - [`multipath`] — tapped-delay-line frequency-selective channels with
//!   exponential power-delay profiles (TGn-model-like presets),
//! - [`pathloss`] — IEEE breakpoint log-distance path loss, noise floor and
//!   link-budget arithmetic,
//! - [`mimo`] — i.i.d. Rayleigh MIMO channel matrices, flat or
//!   per-subcarrier.
//!
//! Everything takes an explicit `&mut impl Rng` so Monte-Carlo experiments
//! are reproducible from a seed.
//!
//! # Examples
//!
//! ```
//! use wlan_math::rng::WlanRng;
//! use wlan_channel::noise::Awgn;
//! use wlan_math::Complex;
//!
//! let mut rng = WlanRng::seed_from_u64(7);
//! let tx = vec![Complex::ONE; 1000];
//! let rx = Awgn::from_snr_db(10.0).apply(&tx, &mut rng);
//! // Received power ≈ signal + noise power.
//! let p = wlan_math::complex::mean_power(&rx);
//! assert!((p - 1.1).abs() < 0.05);
//! ```

pub mod interference;
pub mod mimo;
pub mod multipath;
pub mod noise;
pub mod pathloss;

pub use mimo::MimoChannel;
pub use multipath::{MultipathChannel, PowerDelayProfile};
pub use noise::Awgn;
pub use pathloss::PathLossModel;
