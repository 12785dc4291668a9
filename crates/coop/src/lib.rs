//! Cooperative diversity — the paper's "Future Developments".
//!
//! > "third parties which can successfully decode an on-going exchange will
//! > effectively regenerate and relay, with appropriate coding, the original
//! > transmission in order to improve the effective link quality between
//! > the intended parties."
//!
//! That is decode-and-forward relaying. This crate implements the outage
//! analysis of the classic two-phase cooperative protocols that quantifies
//! their benefit (experiment E9):
//!
//! - [`outage`] — Monte-Carlo and analytic outage probability, plus the
//!   diversity-order estimator (the slope that jumps from 1 to 2),
//! - [`selection`] — opportunistic relay selection among candidates.
//!
//! # Examples
//!
//! ```
//! use wlan_math::rng::WlanRng;
//! use wlan_coop::outage::{direct_outage_analytic, simulate_outage, Protocol};
//!
//! let mut rng = WlanRng::seed_from_u64(3);
//! let snr_db = 15.0;
//! let rate = 1.0; // bps/Hz target
//! let direct = simulate_outage(Protocol::Direct, snr_db, rate, 20_000, &mut rng);
//! let coop = simulate_outage(Protocol::DecodeForward, snr_db, rate, 20_000, &mut rng);
//! assert!(coop < direct, "cooperation must reduce outage");
//! let analytic = direct_outage_analytic(snr_db, rate);
//! assert!((direct - analytic).abs() < 0.02);
//! ```

pub mod outage;
pub mod selection;

pub use outage::Protocol;
