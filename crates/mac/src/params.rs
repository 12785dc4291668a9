//! MAC timing parameters per 802.11 generation.
//!
//! All durations are in microseconds (µs), the natural MAC unit; the
//! simulators convert to the event kernel's nanoseconds internally.

/// MAC header bytes (3-address data frame) + FCS.
pub const MAC_HEADER_BYTES: usize = 28;
/// ACK frame bytes.
pub const ACK_BYTES: usize = 14;
/// RTS frame bytes.
pub const RTS_BYTES: usize = 20;
/// CTS frame bytes.
pub const CTS_BYTES: usize = 14;

/// Per-generation MAC/PHY timing profile.
///
/// # Examples
///
/// ```
/// use wlan_mac::params::MacProfile;
///
/// let a = MacProfile::dot11a(54.0);
/// assert_eq!(a.difs_us(), 16.0 + 2.0 * 9.0);
/// // A 1500-byte frame at 54 Mbps takes ~250 µs on the air.
/// let d = a.data_frame_us(1500);
/// assert!(d > 200.0 && d < 300.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacProfile {
    /// Human-readable generation tag.
    pub name: &'static str,
    /// Slot time in µs.
    pub slot_us: f64,
    /// SIFS in µs.
    pub sifs_us: f64,
    /// Minimum contention window (slots − 1), e.g. 15 or 31.
    pub cw_min: u32,
    /// Maximum contention window.
    pub cw_max: u32,
    /// PHY preamble + PLCP header overhead per frame in µs.
    pub phy_overhead_us: f64,
    /// Data rate in Mbps for payload bits.
    pub data_rate_mbps: f64,
    /// Rate used for control frames (ACK/RTS/CTS) in Mbps.
    pub control_rate_mbps: f64,
}

impl MacProfile {
    /// 802.11b DSSS timing (long preamble), data at `rate` Mbps.
    pub fn dot11b(rate: f64) -> Self {
        MacProfile {
            name: "802.11b",
            slot_us: 20.0,
            sifs_us: 10.0,
            cw_min: 31,
            cw_max: 1023,
            phy_overhead_us: 192.0,
            data_rate_mbps: rate,
            control_rate_mbps: 1.0,
        }
    }

    /// 802.11a OFDM timing, data at `rate` Mbps.
    pub fn dot11a(rate: f64) -> Self {
        MacProfile {
            name: "802.11a",
            slot_us: 9.0,
            sifs_us: 16.0,
            cw_min: 15,
            cw_max: 1023,
            phy_overhead_us: 20.0,
            data_rate_mbps: rate,
            control_rate_mbps: 6.0,
        }
    }

    /// 802.11g OFDM timing (short slot, 2.4 GHz SIFS), data at `rate` Mbps.
    pub fn dot11g(rate: f64) -> Self {
        MacProfile {
            name: "802.11g",
            slot_us: 9.0,
            sifs_us: 10.0,
            cw_min: 15,
            cw_max: 1023,
            phy_overhead_us: 20.0,
            data_rate_mbps: rate,
            control_rate_mbps: 6.0,
        }
    }

    /// 802.11n HT timing (greenfield-ish preamble), data at `rate` Mbps.
    pub fn dot11n(rate: f64) -> Self {
        MacProfile {
            name: "802.11n",
            slot_us: 9.0,
            sifs_us: 16.0,
            cw_min: 15,
            cw_max: 1023,
            phy_overhead_us: 36.0,
            data_rate_mbps: rate,
            control_rate_mbps: 24.0,
        }
    }

    /// DIFS = SIFS + 2·slot.
    pub fn difs_us(&self) -> f64 {
        self.sifs_us + 2.0 * self.slot_us
    }

    /// Airtime of a data frame with `payload` bytes (header + payload at the
    /// data rate, plus PHY overhead).
    pub fn data_frame_us(&self, payload: usize) -> f64 {
        self.phy_overhead_us
            + ((MAC_HEADER_BYTES + payload) * 8) as f64 / self.data_rate_mbps
    }

    /// Airtime of an ACK.
    pub fn ack_us(&self) -> f64 {
        self.phy_overhead_us + (ACK_BYTES * 8) as f64 / self.control_rate_mbps
    }

    /// Airtime of an RTS.
    fn rts_us(&self) -> f64 {
        self.phy_overhead_us + (RTS_BYTES * 8) as f64 / self.control_rate_mbps
    }

    /// Airtime of a CTS.
    pub fn cts_us(&self) -> f64 {
        self.phy_overhead_us + (CTS_BYTES * 8) as f64 / self.control_rate_mbps
    }

    /// Duration of a successful basic-access exchange
    /// (DATA + SIFS + ACK + DIFS).
    pub fn success_duration_us(&self, payload: usize) -> f64 {
        self.data_frame_us(payload) + self.sifs_us + self.ack_us() + self.difs_us()
    }

    /// Duration wasted by a basic-access collision
    /// (DATA + ACK timeout ≈ DATA + DIFS).
    pub fn collision_duration_us(&self, payload: usize) -> f64 {
        self.data_frame_us(payload) + self.difs_us()
    }

    /// Duration of a successful RTS/CTS exchange.
    pub fn rts_success_duration_us(&self, payload: usize) -> f64 {
        self.rts_us()
            + self.sifs_us
            + self.cts_us()
            + self.sifs_us
            + self.data_frame_us(payload)
            + self.sifs_us
            + self.ack_us()
            + self.difs_us()
    }

    /// Duration wasted by an RTS collision (RTS + CTS timeout ≈ RTS + DIFS).
    pub fn rts_collision_duration_us(&self) -> f64 {
        self.rts_us() + self.difs_us()
    }

    /// The ideal no-contention single-station throughput in Mbps: payload
    /// bits over one full exchange (the MAC-efficiency ceiling of E13/E14).
    pub fn ideal_throughput_mbps(&self, payload: usize) -> f64 {
        (payload * 8) as f64 / self.success_duration_us(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difs_values_match_standard() {
        assert_eq!(MacProfile::dot11b(11.0).difs_us(), 50.0);
        assert_eq!(MacProfile::dot11a(54.0).difs_us(), 34.0);
        assert_eq!(MacProfile::dot11g(54.0).difs_us(), 28.0);
    }

    #[test]
    fn frame_durations_scale_with_rate() {
        let slow = MacProfile::dot11a(6.0).data_frame_us(1500);
        let fast = MacProfile::dot11a(54.0).data_frame_us(1500);
        assert!(slow > fast * 5.0, "slow {slow} vs fast {fast}");
    }

    #[test]
    fn mac_efficiency_collapses_at_high_rate() {
        // The E13 punchline: at 600 Mbps a single 1500-byte frame spends
        // most of its airtime on overhead, so efficiency falls well below
        // 50 %, while at 6 Mbps efficiency is ~90 %.
        let slow = MacProfile::dot11a(6.0);
        let eff_slow = slow.ideal_throughput_mbps(1500) / 6.0;
        let fast = MacProfile::dot11n(600.0);
        let eff_fast = fast.ideal_throughput_mbps(1500) / 600.0;
        assert!(eff_slow > 0.8, "6 Mbps efficiency {eff_slow}");
        assert!(eff_fast < 0.5, "600 Mbps efficiency {eff_fast}");
    }

    #[test]
    fn rts_exchange_is_longer_than_basic() {
        let p = MacProfile::dot11a(54.0);
        assert!(p.rts_success_duration_us(1500) > p.success_duration_us(1500));
        // But an RTS collision is far cheaper than a data collision.
        assert!(p.rts_collision_duration_us() < p.collision_duration_us(1500) / 2.0);
    }

    #[test]
    fn control_frames_use_control_rate() {
        let p = MacProfile::dot11a(54.0);
        // ACK: 20 µs preamble + 14·8/6 ≈ 38.7 µs.
        assert!((p.ack_us() - (20.0 + 112.0 / 6.0)).abs() < 1e-9);
    }

    #[test]
    fn dot11b_long_preamble_dominates_short_frames() {
        let p = MacProfile::dot11b(11.0);
        let d = p.data_frame_us(40);
        // 192 µs preamble vs ~49 µs of payload+header.
        assert!(d > 192.0 && d < 260.0);
    }
}
