//! The DSSS PLCP header checksum (802.11-1999 clause 15 / 802.11b
//! clause 18).
//!
//! The 48-bit PLCP header — SIGNAL (rate), SERVICE, LENGTH (µs of
//! payload) — is protected by CRC-16/CCITT.

/// CRC-16/CCITT (poly 0x1021, init 0xFFFF, output complemented), as used
/// by the PLCP header FCS.
pub fn crc16_ccitt(data: &[u8]) -> u16 {
    let mut crc = 0xFFFFu16;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc16_known_value() {
        // CRC-16/CCITT-FALSE of "123456789" is 0x29B1; ours complements.
        assert_eq!(crc16_ccitt(b"123456789"), !0x29B1);
    }
}
