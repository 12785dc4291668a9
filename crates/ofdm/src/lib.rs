//! The 802.11a/g OFDM physical layer.
//!
//! OFDM is where the paper's "Historical Developments" arc culminates: with
//! the spreading mandate lifted, 802.11a packs 48 data subcarriers into a
//! 20 MHz channel for up to 54 Mbps (2.7 bps/Hz). This crate implements the
//! full clause-17 baseband chain:
//!
//! - [`params`] — the rate table (6–54 Mbps) and symbol geometry,
//! - [`qam`] — Gray-mapped BPSK/QPSK/16-QAM/64-QAM with soft LLR demapping,
//! - [`symbol`] — the symbol I/O the 802.11a and 802.11n chains share:
//!   subcarrier mapping, pilots, IFFT/FFT with cyclic prefix, and the
//!   legacy and HT training symbols,
//! - [`preamble`] — short/long training fields and LS channel estimation,
//! - [`phy`] — the frame-level encode/decode chain
//!   (scramble → BCC → interleave → map → IFFT, and back),
//! - [`papr`] — peak-to-average power ratio measurement (experiment E10).
//!
//! # Examples
//!
//! ```
//! use wlan_ofdm::phy::OfdmPhy;
//! use wlan_ofdm::params::OfdmRate;
//!
//! let phy = OfdmPhy::new(OfdmRate::R54);
//! let payload = b"hello 802.11a".to_vec();
//! let frame = phy.transmit(&payload);
//! let decoded = phy.receive_ideal(&frame).expect("clean channel decodes");
//! assert_eq!(decoded, payload);
//! ```

pub mod cfo;
pub mod papr;
pub mod params;
pub mod phy;
pub mod preamble;
pub mod qam;
pub mod spectrum;
pub mod symbol;

pub use params::OfdmRate;
pub use phy::OfdmPhy;
