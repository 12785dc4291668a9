//! PER lookup tables: the contract that lets a city run at MAC speed.
//!
//! A city-scale epoch evaluates tens of thousands of station SINRs; at
//! roughly a millisecond per real 1 200-byte PHY frame (tx + channel +
//! rx, averaged over the rate ladder; EXPERIMENTS.md E20) even the
//! per-symbol kernels would cap the city at about a thousand frames per
//! second. Instead the PHY is consulted *once*, at calibration time:
//! [`PerTable::calibrate`] sweeps a real TX→channel→RX chain over an SNR
//! grid (`wlan_core::linksim::sweep_per`) and the hot loop interpolates
//! the resulting curve in SINR.
//!
//! Calibration is the city's whole set-up cost: [`PerTableSet::calibrated`]
//! runs 9 links × 20 SNR points × `frames` trials every time it is called,
//! with no in-process memo, so a restarted process pays for it again. What
//! makes it cheaper is the chain itself — the OFDM links stream one
//! symbol at a time through cache-resident buffers and decode on the
//! widest Viterbi kernel the CPU has — and every speed-up must keep the
//! tables bit-identical (the digests pinned below and in
//! `tests/tests/kernel_pins.rs`).
//!
//! Calibration contract (see DESIGN.md "City-scale scenarios"):
//!
//! - one table per (generation, rate), calibrated with the campaign's
//!   payload length and a fixed calibration seed;
//! - tables are pure data — `(SNR, PER)` points, strictly increasing in
//!   SNR, PER in `[0, 1]`;
//! - lookup clamps outside the calibrated grid (no extrapolation) and
//!   maps a NaN SINR to PER = 1.0 (an unmeasurable link delivers
//!   nothing, mirroring `mesh::topology::best_rate_for_snr`);
//! - [`PerTable::digest`] hashes the exact table bits into the campaign
//!   journal key, so resuming against tables calibrated differently is a
//!   typed `KeyMismatch`, never silent drift.

use std::cmp::Ordering;

use wlan_core::linksim::{sweep_per, DsssLink, OfdmLink, PhyLink};
use wlan_core::dsss::DsssRate;
use wlan_core::ofdm::phy::MAX_PAYLOAD;
use wlan_core::ofdm::OfdmRate;
use wlan_math::WlanError;
use wlan_runner::journal::fnv1a64;

/// A calibrated `(SNR dB, PER)` curve with clamped linear interpolation.
#[derive(Debug, Clone, PartialEq)]
pub struct PerTable {
    snr_db: Vec<f64>,
    per: Vec<f64>,
}

impl PerTable {
    /// Builds a table from `(snr_db, per)` points.
    ///
    /// # Errors
    ///
    /// [`WlanError::InvalidConfig`] if the table is empty, SNRs are not
    /// finite and strictly increasing, or a PER is outside `[0, 1]`
    /// (NaN included).
    fn from_points(points: &[(f64, f64)]) -> Result<Self, WlanError> {
        if points.is_empty() {
            return Err(WlanError::InvalidConfig(
                "PER table needs at least one point",
            ));
        }
        for w in points.windows(2) {
            // partial_cmp keeps the NaN-rejecting semantics: an
            // incomparable pair is not "strictly increasing".
            if w[1].0.partial_cmp(&w[0].0) != Some(Ordering::Greater) {
                return Err(WlanError::InvalidConfig(
                    "PER table SNRs must be strictly increasing",
                ));
            }
        }
        for &(snr, per) in points {
            if !snr.is_finite() {
                return Err(WlanError::InvalidConfig("PER table SNR must be finite"));
            }
            if !(0.0..=1.0).contains(&per) {
                return Err(WlanError::InvalidConfig("PER must be in [0, 1]"));
            }
        }
        Ok(PerTable {
            snr_db: points.iter().map(|p| p.0).collect(),
            per: points.iter().map(|p| p.1).collect(),
        })
    }

    /// Calibrates a table by sweeping a real PHY chain: `frames` Monte-
    /// Carlo trials per SNR point, per-trial forked streams (bit-identical
    /// at any `WLAN_THREADS`).
    ///
    /// # Errors
    ///
    /// [`WlanError::InvalidConfig`] if the grid is empty/non-increasing
    /// or `frames`/`payload_len` is zero.
    pub fn calibrate(
        link: &dyn PhyLink,
        snrs_db: &[f64],
        payload_len: usize,
        frames: usize,
        seed: u64,
    ) -> Result<Self, WlanError> {
        if frames == 0 || payload_len == 0 {
            return Err(WlanError::InvalidConfig(
                "calibration needs nonzero frames and payload",
            ));
        }
        if snrs_db.is_empty() {
            return Err(WlanError::InvalidConfig(
                "calibration needs at least one SNR point",
            ));
        }
        for w in snrs_db.windows(2) {
            if w[1].partial_cmp(&w[0]) != Some(Ordering::Greater) {
                return Err(WlanError::InvalidConfig(
                    "calibration SNR grid must be strictly increasing",
                ));
            }
        }
        let curve = sweep_per(link, snrs_db, payload_len, frames, seed);
        let points: Vec<(f64, f64)> = curve.points.iter().map(|p| (p.snr_db, p.per)).collect();
        Self::from_points(&points)
    }

    /// PER at a SINR, clamped to the calibrated grid ends; NaN → 1.0.
    fn per_at(&self, sinr_db: f64) -> f64 {
        if sinr_db.is_nan() {
            return 1.0;
        }
        let n = self.snr_db.len();
        if sinr_db <= self.snr_db[0] {
            return self.per[0];
        }
        if sinr_db >= self.snr_db[n - 1] {
            return self.per[n - 1];
        }
        // partition_point: first index with snr > sinr; 1..=n-1 here.
        let hi = self.snr_db.partition_point(|&s| s <= sinr_db);
        let lo = hi - 1;
        let t = (sinr_db - self.snr_db[lo]) / (self.snr_db[hi] - self.snr_db[lo]);
        self.per[lo] + t * (self.per[hi] - self.per[lo])
    }

    /// FNV-1a-64 over the exact bit patterns of every point — the value
    /// folded into the campaign journal key.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.snr_db.len() * 16);
        for (&s, &p) in self.snr_db.iter().zip(&self.per) {
            bytes.extend_from_slice(&s.to_bits().to_le_bytes());
            bytes.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        fnv1a64(&bytes)
    }
}

/// The city's full PHY cost model: one DSSS table for legacy 11b
/// stations and one OFDM table per 11g rate step, with target-PER rate
/// adaptation.
#[derive(Debug, Clone, PartialEq)]
pub struct PerTableSet {
    dsss_rate_mbps: f64,
    dsss: PerTable,
    /// `(rate_mbps, table)`, ascending in rate.
    ofdm: Vec<(f64, PerTable)>,
}

/// Rate adaptation target: a station picks the fastest rate whose
/// interpolated PER stays at or below this.
pub const RATE_TARGET_PER: f64 = 0.1;

impl PerTableSet {
    /// Assembles a set from pre-built tables.
    ///
    /// # Errors
    ///
    /// [`WlanError::InvalidConfig`] if rates are not positive, finite and
    /// strictly increasing, or the OFDM list is empty.
    pub fn new(
        dsss_rate_mbps: f64,
        dsss: PerTable,
        ofdm: Vec<(f64, PerTable)>,
    ) -> Result<Self, WlanError> {
        if !(dsss_rate_mbps > 0.0 && dsss_rate_mbps.is_finite()) {
            return Err(WlanError::InvalidConfig(
                "DSSS rate must be positive and finite",
            ));
        }
        if ofdm.is_empty() {
            return Err(WlanError::InvalidConfig("need at least one OFDM table"));
        }
        for w in ofdm.windows(2) {
            if w[1].0.partial_cmp(&w[0].0) != Some(Ordering::Greater) {
                return Err(WlanError::InvalidConfig(
                    "OFDM rates must be strictly increasing",
                ));
            }
        }
        if ofdm
            .iter()
            .any(|(r, _)| !(*r > 0.0 && r.is_finite()))
        {
            return Err(WlanError::InvalidConfig(
                "OFDM rates must be positive and finite",
            ));
        }
        Ok(PerTableSet {
            dsss_rate_mbps,
            dsss,
            ofdm,
        })
    }

    /// Calibrates the full set from the real PHY chains: 11 Mbps CCK for
    /// the legacy stations, every 802.11a/g OFDM rate step for the rest.
    /// `frames` Monte-Carlo trials per SNR point per link — the only time
    /// the city touches a PHY.
    ///
    /// # Errors
    ///
    /// [`WlanError::InvalidConfig`] on zero `frames`/`payload_len`, or a
    /// payload longer than an 802.11a frame carries ([`MAX_PAYLOAD`]).
    pub fn calibrated(payload_len: usize, frames: usize, seed: u64) -> Result<Self, WlanError> {
        if payload_len > MAX_PAYLOAD {
            return Err(WlanError::InvalidConfig(
                "calibration payload exceeds the 12-bit OFDM LENGTH field",
            ));
        }
        // −4..34 dB in 2 dB steps spans CCK's knee (~5 dB) through 64-QAM
        // r3/4's (~25 dB) with clamp headroom on both ends.
        let snrs: Vec<f64> = (0..20).map(|i| -4.0 + 2.0 * i as f64).collect();
        let dsss = PerTable::calibrate(
            &DsssLink {
                rate: DsssRate::Cck11M,
            },
            &snrs,
            payload_len,
            frames,
            seed,
        )?;
        let mut ofdm = Vec::new();
        for rate in [
            OfdmRate::R6,
            OfdmRate::R9,
            OfdmRate::R12,
            OfdmRate::R18,
            OfdmRate::R24,
            OfdmRate::R36,
            OfdmRate::R48,
            OfdmRate::R54,
        ] {
            let link = OfdmLink::awgn(rate);
            let table = PerTable::calibrate(&link, &snrs, payload_len, frames, seed)?;
            ofdm.push((link.rate_mbps(), table));
        }
        Self::new(DsssRate::Cck11M.rate_mbps(), dsss, ofdm)
    }

    /// A cheap analytic stand-in for tests and benches: logistic PER
    /// curves anchored at the per-rate SNR thresholds of
    /// `wlan_mesh::topology::RATE_SNR_TABLE` (CCK knee at 8 dB). Same
    /// shape and contract as a calibrated set, no PHY work.
    pub fn synthetic() -> Self {
        let logistic = |mid: f64| {
            let points: Vec<(f64, f64)> = (0..46)
                .map(|i| {
                    let snr = -5.0 + i as f64;
                    (snr, 1.0 / (1.0 + ((snr - mid) / 1.2).exp()))
                })
                .collect();
            PerTable::from_points(&points).unwrap_or(PerTable {
                // Unreachable: the grid above is strictly increasing
                // and logistic values sit in (0, 1).
                snr_db: vec![0.0],
                per: vec![1.0],
            })
        };
        let ofdm = wlan_core::mesh::topology::RATE_SNR_TABLE
            .iter()
            .map(|&(rate, snr_req)| (rate, logistic(snr_req - 1.0)))
            .collect();
        PerTableSet {
            dsss_rate_mbps: 11.0,
            dsss: logistic(8.0),
            ofdm,
        }
    }

    /// Legacy (11b) station rate in Mbps.
    pub fn dsss_rate_mbps(&self) -> f64 {
        self.dsss_rate_mbps
    }

    /// Legacy (11b) PER at a SINR.
    pub fn dsss_per(&self, sinr_db: f64) -> f64 {
        self.dsss.per_at(sinr_db)
    }

    /// Rate adaptation for an OFDM (11g) station: the fastest rate whose
    /// PER at this SINR is ≤ [`RATE_TARGET_PER`], or the slowest rate
    /// (taking whatever PER it has) when none qualifies. Returns
    /// `(rate_mbps, per)`.
    pub fn ofdm_rate_and_per(&self, sinr_db: f64) -> (f64, f64) {
        for (rate, table) in self.ofdm.iter().rev() {
            let per = table.per_at(sinr_db);
            if per <= RATE_TARGET_PER {
                return (*rate, per);
            }
        }
        let (rate, table) = &self.ofdm[0];
        (*rate, table.per_at(sinr_db))
    }

    /// Digest over every table in the set (journal-key component).
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&self.dsss_rate_mbps.to_bits().to_le_bytes());
        bytes.extend_from_slice(&self.dsss.digest().to_le_bytes());
        for (rate, table) in &self.ofdm {
            bytes.extend_from_slice(&rate.to_bits().to_le_bytes());
            bytes.extend_from_slice(&table.digest().to_le_bytes());
        }
        fnv1a64(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_validation_rejects_bad_points() {
        assert!(PerTable::from_points(&[]).is_err());
        assert!(PerTable::from_points(&[(0.0, 0.5), (0.0, 0.4)]).is_err());
        assert!(PerTable::from_points(&[(1.0, 0.5), (0.0, 0.4)]).is_err());
        assert!(PerTable::from_points(&[(f64::NAN, 0.5)]).is_err());
        assert!(PerTable::from_points(&[(0.0, 1.5)]).is_err());
        assert!(PerTable::from_points(&[(0.0, f64::NAN)]).is_err());
        assert!(PerTable::from_points(&[(0.0, 0.5)]).is_ok());
    }

    #[test]
    fn interpolation_clamps_and_interpolates() {
        let t = PerTable::from_points(&[(0.0, 1.0), (10.0, 0.0)]).expect("valid");
        assert_eq!(t.per_at(-5.0), 1.0);
        assert_eq!(t.per_at(20.0), 0.0);
        assert!((t.per_at(5.0) - 0.5).abs() < 1e-12);
        assert!((t.per_at(7.5) - 0.25).abs() < 1e-12);
        assert_eq!(t.per_at(f64::NAN), 1.0);
    }

    #[test]
    fn digest_tracks_content() {
        let a = PerTable::from_points(&[(0.0, 1.0), (10.0, 0.0)]).expect("valid");
        let b = PerTable::from_points(&[(0.0, 1.0), (10.0, 0.0)]).expect("valid");
        let c = PerTable::from_points(&[(0.0, 1.0), (10.0, 0.1)]).expect("valid");
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn synthetic_set_adapts_rate_with_sinr() {
        let set = PerTableSet::synthetic();
        let (slow_rate, _) = set.ofdm_rate_and_per(6.0);
        let (fast_rate, fast_per) = set.ofdm_rate_and_per(30.0);
        assert!(fast_rate > slow_rate, "{slow_rate} -> {fast_rate}");
        assert_eq!(fast_rate, 54.0);
        assert!(fast_per <= RATE_TARGET_PER);
        // Hopeless SINR: slowest rate, terrible PER — but never NaN.
        let (floor_rate, floor_per) = set.ofdm_rate_and_per(-10.0);
        assert_eq!(floor_rate, 6.0);
        assert!(floor_per > 0.9 && floor_per <= 1.0);
        assert!(set.dsss_per(-10.0) > 0.9);
        assert!(set.dsss_per(30.0) < 0.01);
    }

    #[test]
    fn calibrated_rejects_oversize_payload() {
        // 4096 bytes do not fit the SIGNAL LENGTH field: a typed error up
        // front, before any link is swept.
        assert!(matches!(
            PerTableSet::calibrated(4096, 1, 7),
            Err(WlanError::InvalidConfig(_))
        ));
    }

    #[test]
    fn calibrated_tables_come_from_the_real_phy() {
        // Tiny calibration: enough frames to see the PER fall with SNR.
        let set = PerTableSet::calibrated(100, 12, 7).expect("calibration");
        assert!(set.dsss_per(-4.0) > set.dsss_per(34.0));
        let (r_lo, _) = set.ofdm_rate_and_per(-4.0);
        let (r_hi, _) = set.ofdm_rate_and_per(34.0);
        assert!(r_hi >= r_lo);
        // Determinism: same seed, same digest.
        let again = PerTableSet::calibrated(100, 12, 7).expect("calibration");
        assert_eq!(set.digest(), again.digest());
        // Golden pin, recorded when calibration ran on a second
        // (flowgraph) execution path: the per-trial chain must reproduce
        // the exact table bits.
        let digest = set.digest();
        assert_eq!(digest, 0x0ce6_cee7_117e_cba6, "calibration digest {digest:#018x}");
    }
}
