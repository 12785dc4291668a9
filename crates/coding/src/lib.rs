//! Channel coding for the 802.11 family.
//!
//! Every bit-level transform the standards' PHYs apply between the MAC frame
//! and the modulator lives here:
//!
//! - [`scrambler`] — the 127-periodic frame-synchronous scrambler
//!   (x⁷ + x⁴ + 1) shared by all 802.11 PHYs,
//! - [`convolutional`] — the K=7, (133, 171) octal convolutional encoder of
//!   802.11a/g/n,
//! - [`viterbi`] — hard- and soft-decision Viterbi decoding,
//! - [`puncture`] — rate 2/3, 3/4 and 5/6 puncturing/depuncturing,
//! - [`interleaver`] — the two-permutation block interleaver of
//!   802.11a §17.3.5.6 (16 columns) and 802.11n (13 at HT-20),
//! - [`codec`] — the per-symbol BCC data-field codec (scramble → encode →
//!   puncture, and depuncture → Viterbi → descramble) every BCC-coded
//!   OFDM chain shares,
//! - [`crc`] — CRC-32 (the 802.11 FCS),
//! - [`ldpc`] — an IRA-structured quasi-regular LDPC code with normalized
//!   min-sum decoding, standing in for the optional 802.11n LDPC codes,
//! - [`bits`] — byte ↔ bit packing helpers.
//!
//! # Examples
//!
//! Encode and decode a payload through the full 802.11a rate-1/2 BCC chain:
//!
//! ```
//! use wlan_coding::{convolutional::ConvEncoder, viterbi::ViterbiDecoder};
//!
//! let data = vec![1, 0, 1, 1, 0, 0, 1, 0];
//! let coded = ConvEncoder::new().encode_terminated(&data);
//! let decoded = ViterbiDecoder::new().decode_hard(&coded, data.len())?;
//! assert_eq!(decoded, data);
//! # Ok::<(), wlan_math::WlanError>(())
//! ```

pub mod bits;
pub mod codec;
pub mod convolutional;
pub mod crc;
pub mod interleaver;
pub mod ldpc;
pub mod puncture;
pub mod scrambler;
pub mod viterbi;

pub use convolutional::ConvEncoder;
pub use puncture::CodeRate;
pub use viterbi::{FrameLlrs, ViterbiDecoder, ViterbiKernel};
