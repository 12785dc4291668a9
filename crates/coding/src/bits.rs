//! Byte ↔ bit conversion helpers.
//!
//! Throughout the workspace a "bit" is a `u8` that is 0 or 1, and bytes are
//! serialized LSB-first, matching the 802.11 convention of transmitting the
//! least-significant bit of each octet first.

/// Expands bytes into bits, LSB of each byte first (802.11 transmit order).
///
/// ```
/// use wlan_coding::bits::bytes_to_bits;
/// assert_eq!(bytes_to_bits(&[0b0000_0101]), vec![1, 0, 1, 0, 0, 0, 0, 0]);
/// ```
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for i in 0..8 {
            bits.push((b >> i) & 1);
        }
    }
    bits
}

/// Packs bits (LSB-first per byte) back into bytes.
///
/// A trailing partial byte is zero-padded in its high bits.
///
/// # Panics
///
/// Panics if any element is not 0 or 1.
pub fn bits_to_bytes(bits: &[u8]) -> Vec<u8> {
    let mut bytes = vec![0u8; bits.len().div_ceil(8)];
    for (i, &bit) in bits.iter().enumerate() {
        assert!(bit <= 1, "bit values must be 0 or 1");
        bytes[i / 8] |= bit << (i % 8);
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bytes_bits() {
        let data = [0x00, 0xFF, 0xA5, 0x3C, 0x01];
        assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    #[test]
    fn lsb_first_order() {
        // 0x80 has only its MSB set, which is transmitted last.
        let bits = bytes_to_bits(&[0x80]);
        assert_eq!(bits, vec![0, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn partial_byte_zero_padded() {
        assert_eq!(bits_to_bytes(&[1, 1, 1]), vec![0b0000_0111]);
    }

    #[test]
    #[should_panic(expected = "bit values")]
    fn rejects_non_binary() {
        let _ = bits_to_bytes(&[2]);
    }
}
