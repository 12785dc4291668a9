//! The 802.11n MIMO-OFDM physical layer.
//!
//! The paper's "Emerging Developments" section is about exactly this crate:
//! multiple-input multiple-output antenna technology pushing spectral
//! efficiency to ~15 bps/Hz (600 Mbps in 40 MHz) while extending range
//! several-fold through spatial diversity.
//!
//! - [`mcs`] — the HT MCS table 0–31 (1–4 streams, 20/40 MHz, long/short
//!   guard interval), reproducing the 600 Mbps headline rate,
//! - [`detect`] — zero-forcing and MMSE detection for spatial
//!   multiplexing,
//! - [`stbc_phy`] — an Alamouti space-time block coded OFDM frame chain
//!   (transmit diversity),
//! - [`mrc`] — maximal-ratio receive combining,
//! - [`beamforming`] — closed-loop SVD transmit beamforming with
//!   water-filling power allocation (the paper's "closed loop, transmit
//!   side beamforming"),
//! - [`phy`] — a complete spatially-multiplexed MIMO-OFDM frame chain with
//!   HT-LTF-style orthogonal training and per-subcarrier MMSE detection.
//!
//! # Examples
//!
//! ```
//! use wlan_mimo::mcs::{Bandwidth, GuardInterval, HtMcs};
//!
//! // The paper: "rates potentially as high as 600 Mbps in a 40 MHz channel".
//! let mcs31 = HtMcs::new(31).unwrap();
//! let rate = mcs31.data_rate_mbps(Bandwidth::Mhz40, GuardInterval::Short);
//! assert!((rate - 600.0).abs() < 1e-9);
//! ```

pub mod beamforming;
pub mod detect;
pub mod ht;
pub mod ht_ldpc;
pub mod mcs;
pub mod mrc;
pub mod phy;
pub mod stbc_phy;

pub use mcs::HtMcs;
pub use phy::MimoOfdmPhy;
