//! Component-level power models for WLAN devices.
//!
//! The paper's "Low Power" section makes four quantitative arguments; this
//! crate models each of them:
//!
//! - [`pa`] — power-amplifier efficiency versus output back-off: OFDM's
//!   PAPR forces the PA deep into its inefficient linear region (E10),
//! - [`budget`] — the device power budget: RF chains multiply with
//!   antennas, baseband op counts grow with streams and bandwidth (E11),
//! - [`adaptive`] — the mitigations: receive-chain switching, beamforming
//!   transmit power control, cooperative power sharing and PSM duty
//!   cycling (E12).
//!
//! Absolute milliwatt values are published-parameter estimates for
//! mid-2000s CMOS radios (see DESIGN.md); every experiment reads *ratios*
//! off these models, which are set by their structure rather than the
//! constants.
//!
//! # Examples
//!
//! ```
//! use wlan_power::budget::PowerBudget;
//!
//! let siso = PowerBudget::wlan_2005(1, 1);
//! let mimo = PowerBudget::wlan_2005(4, 4);
//! // The paper: multiple RF chains "significantly increase the power
//! // consumption over single antenna devices".
//! assert!(mimo.rx_active_mw() > 2.5 * siso.rx_active_mw());
//! ```

pub mod adaptive;
pub mod budget;
pub mod pa;

pub use budget::PowerBudget;
pub use pa::PaClass;
