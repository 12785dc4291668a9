//! Seeded city deployment: AP grid, channel colouring, stations,
//! neighbourhoods, hidden-node geometry.
//!
//! Everything here is computed once per campaign from the master seed and
//! is immutable during simulation; per-epoch state lives in
//! [`crate::sim::CityState`]. Layout draws use dedicated fork streams
//! ([`crate::sim::S_LAYOUT`], [`crate::sim::S_STATIONS`],
//! [`crate::sim::S_HIDDEN`]) so adding epochs or threads never shifts the
//! deployment.

use crate::sim::{S_HIDDEN, S_LAYOUT, S_STATIONS};
use wlan_channel::interference::try_hidden_node_probability;
use wlan_channel::pathloss::{LinkBudget, PathLossModel};
use wlan_core::ofdm::phy::MAX_PAYLOAD;
use wlan_math::rng::{Rng, WlanRng};
use wlan_math::WlanError;
use wlan_mesh::layout::{grid_side, jittered_grid};

/// Which PHY generation a station speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generation {
    /// Legacy 802.11b (DSSS/CCK) — forces protection onto its BSS.
    DsssB,
    /// 802.11g (OFDM).
    OfdmG,
}

/// Full configuration of a city scenario. Every field shapes the
/// deterministic result (and is therefore part of the campaign journal
/// key) except none — budgets and threads live in
/// [`crate::campaign::CityCampaignConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct CityConfig {
    /// Access points to deploy (≥ 1, ≤ 65 535).
    pub n_aps: usize,
    /// Stations per AP (total stations = `n_aps * stations_per_ap`).
    pub stations_per_ap: usize,
    /// Grid pitch between adjacent APs in metres.
    pub ap_spacing_m: f64,
    /// Independent channels for reuse colouring (3 ≈ 2.4 GHz reality).
    pub n_channels: usize,
    /// Carrier-sense range for OBSS deference, metres.
    pub cs_range_m: f64,
    /// Co-channel APs beyond this distance are ignored as interferers.
    pub interference_range_m: f64,
    /// Probability a station is legacy 802.11b.
    pub b_fraction: f64,
    /// Probability a station has a frame queued in any contention cycle
    /// (1.0 = full saturation; a city is mostly idle stations).
    pub offered_load: f64,
    /// MAC payload per frame, bytes.
    pub payload_bytes: usize,
    /// Simulated epochs (an epoch is the OBSS/roaming decision quantum).
    pub epochs: u64,
    /// Epoch length in milliseconds.
    pub epoch_ms: f64,
    /// Run the roaming pass every this many epochs (0 disables roaming).
    pub roam_every_epochs: u64,
    /// RSSI hysteresis a candidate AP must beat to trigger a handoff, dB.
    pub hysteresis_db: f64,
    /// Log-normal shadowing σ applied to roaming RSSI measurements, dB.
    pub shadow_sigma_db: f64,
    /// Monte-Carlo trials for the hidden-node probability estimate.
    pub hidden_node_trials: usize,
    /// Master seed; every stream in the city forks off this.
    pub seed: u64,
}

impl CityConfig {
    /// A small city for tests: 9 APs × ~22 stations on 3 channels.
    pub fn small_test() -> Self {
        CityConfig {
            n_aps: 9,
            stations_per_ap: 22,
            ap_spacing_m: 40.0,
            n_channels: 3,
            cs_range_m: 60.0,
            interference_range_m: 140.0,
            b_fraction: 0.15,
            offered_load: 0.35,
            payload_bytes: 1000,
            epochs: 8,
            epoch_ms: 20.0,
            roam_every_epochs: 2,
            hysteresis_db: 4.0,
            shadow_sigma_db: 3.0,
            hidden_node_trials: 4_000,
            seed: 2005,
        }
    }

    /// A metro-scale deployment: `n_aps` APs at 35 m pitch, reuse-3.
    pub fn metro(n_aps: usize, stations_per_ap: usize, seed: u64) -> Self {
        CityConfig {
            n_aps,
            stations_per_ap,
            ap_spacing_m: 35.0,
            n_channels: 3,
            cs_range_m: 55.0,
            interference_range_m: 125.0,
            b_fraction: 0.1,
            offered_load: 0.2,
            payload_bytes: 1200,
            epochs: 20,
            epoch_ms: 50.0,
            roam_every_epochs: 4,
            hysteresis_db: 4.0,
            shadow_sigma_db: 4.0,
            hidden_node_trials: 20_000,
            seed,
        }
    }

    /// Total stations in the city.
    pub fn n_stations(&self) -> usize {
        self.n_aps * self.stations_per_ap
    }

    /// Validates the whole envelope.
    ///
    /// # Errors
    ///
    /// [`WlanError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), WlanError> {
        if self.n_aps == 0 || self.n_aps > u16::MAX as usize {
            return Err(WlanError::InvalidConfig("n_aps must be in 1..=65535"));
        }
        if self.stations_per_ap == 0 {
            return Err(WlanError::InvalidConfig("stations_per_ap must be ≥ 1"));
        }
        if !(self.ap_spacing_m > 0.0 && self.ap_spacing_m.is_finite()) {
            return Err(WlanError::InvalidConfig(
                "ap_spacing_m must be positive and finite",
            ));
        }
        if self.n_channels == 0 {
            return Err(WlanError::InvalidConfig("n_channels must be ≥ 1"));
        }
        if !(self.cs_range_m > 0.0 && self.cs_range_m.is_finite()) {
            return Err(WlanError::InvalidConfig(
                "cs_range_m must be positive and finite",
            ));
        }
        if !(self.interference_range_m > 0.0 && self.interference_range_m.is_finite()) {
            return Err(WlanError::InvalidConfig(
                "interference_range_m must be positive and finite",
            ));
        }
        if !(0.0..=1.0).contains(&self.b_fraction) {
            return Err(WlanError::InvalidConfig("b_fraction must be in [0, 1]"));
        }
        if !(self.offered_load > 0.0 && self.offered_load <= 1.0) {
            return Err(WlanError::InvalidConfig("offered_load must be in (0, 1]"));
        }
        if !(1..=MAX_PAYLOAD).contains(&self.payload_bytes) {
            return Err(WlanError::InvalidConfig(
                "payload_bytes must be in 1..=4095 (the 12-bit OFDM LENGTH field)",
            ));
        }
        if self.epochs == 0 {
            return Err(WlanError::InvalidConfig("epochs must be ≥ 1"));
        }
        if !(self.epoch_ms > 0.0 && self.epoch_ms.is_finite()) {
            return Err(WlanError::InvalidConfig(
                "epoch_ms must be positive and finite",
            ));
        }
        if !(self.hysteresis_db >= 0.0 && self.hysteresis_db.is_finite()) {
            return Err(WlanError::InvalidConfig(
                "hysteresis_db must be nonnegative and finite",
            ));
        }
        if !(self.shadow_sigma_db >= 0.0 && self.shadow_sigma_db.is_finite()) {
            return Err(WlanError::InvalidConfig(
                "shadow_sigma_db must be nonnegative and finite",
            ));
        }
        if self.hidden_node_trials == 0 {
            return Err(WlanError::InvalidConfig("hidden_node_trials must be ≥ 1"));
        }
        Ok(())
    }
}

/// The immutable deployment derived from a [`CityConfig`].
#[derive(Debug, Clone)]
pub struct CityLayout {
    /// AP positions, metres.
    pub ap_pos: Vec<(f64, f64)>,
    /// Channel index per AP (reuse-3 colouring on the grid).
    pub ap_channel: Vec<u8>,
    /// Station positions, metres.
    pub station_pos: Vec<(f64, f64)>,
    /// PHY generation per station.
    pub station_gen: Vec<Generation>,
    /// EDCA access-category index (0..4) per station.
    pub station_ac: Vec<u8>,
    /// Candidate APs per station: the 3×3 grid neighbourhood of its cell
    /// (the only APs roaming will consider).
    pub candidates: Vec<Vec<u16>>,
    /// Initial association: nearest candidate AP.
    pub initial_assoc: Vec<u16>,
    /// Per AP: co-channel APs within carrier-sense range (OBSS deference
    /// partners).
    pub cs_neighbors: Vec<Vec<u16>>,
    /// Per AP: co-channel APs within interference range (SINR
    /// contributors).
    pub interferers: Vec<Vec<u16>>,
    /// Hidden-node probability of the cell geometry (one Monte-Carlo
    /// estimate shared city-wide).
    pub p_hidden: f64,
}

impl CityLayout {
    /// Builds the deployment. Pure function of the config (all draws come
    /// from forked streams of `config.seed`).
    ///
    /// # Errors
    ///
    /// [`WlanError::InvalidConfig`] if the config fails
    /// [`CityConfig::validate`].
    pub fn build(cfg: &CityConfig) -> Result<Self, WlanError> {
        cfg.validate()?;
        let master = WlanRng::seed_from_u64(cfg.seed);
        let side = grid_side(cfg.n_aps);
        let extent = side as f64 * cfg.ap_spacing_m;
        let cell = cfg.ap_spacing_m;

        let mut layout_rng = master.fork(S_LAYOUT);
        let ap_pos = jittered_grid(cfg.n_aps, extent, 0.25, &mut layout_rng);
        // Reuse-3 colouring: (col + 2·row) mod n stripes the grid so that
        // no two adjacent cells (including diagonal neighbours on the
        // same row offset) share a channel when n == 3.
        let ap_channel: Vec<u8> = (0..cfg.n_aps)
            .map(|i| (((i % side) + 2 * (i / side)) % cfg.n_channels) as u8)
            .collect();

        let n_sta = cfg.n_stations();
        let mut sta_rng = master.fork(S_STATIONS);
        let mut station_pos = Vec::with_capacity(n_sta);
        let mut station_gen = Vec::with_capacity(n_sta);
        let mut station_ac = Vec::with_capacity(n_sta);
        for s in 0..n_sta {
            let x = sta_rng.gen::<f64>() * extent;
            let y = sta_rng.gen::<f64>() * extent;
            station_pos.push((x, y));
            station_gen.push(if sta_rng.gen_bool(cfg.b_fraction) {
                Generation::DsssB
            } else {
                Generation::OfdmG
            });
            station_ac.push((s % 4) as u8);
        }

        // Candidate APs: the 3×3 cell neighbourhood around the station.
        let cell_of = |x: f64| ((x / cell) as usize).min(side - 1);
        let mut candidates = Vec::with_capacity(n_sta);
        for &(x, y) in &station_pos {
            let (cc, cr) = (cell_of(x), cell_of(y));
            let mut list = Vec::with_capacity(9);
            for dr in -1i64..=1 {
                for dc in -1i64..=1 {
                    let r = cr as i64 + dr;
                    let c = cc as i64 + dc;
                    if r < 0 || c < 0 || r >= side as i64 || c >= side as i64 {
                        continue;
                    }
                    let ap = r as usize * side + c as usize;
                    if ap < cfg.n_aps {
                        list.push(ap as u16);
                    }
                }
            }
            // Bottom-edge stations of a ragged last row may have an empty
            // neighbourhood only if n_aps < side² leaves holes — fall
            // back to AP 0 so every station has a home.
            if list.is_empty() {
                list.push(0);
            }
            candidates.push(list);
        }

        // Initial association: nearest candidate (lowest index wins ties)
        // — deterministic, shadowing only enters at roaming time.
        let initial_assoc: Vec<u16> = station_pos
            .iter()
            .zip(&candidates)
            .map(|(&p, cands)| {
                let mut best = cands[0];
                let mut best_d2 = f64::INFINITY;
                for &ap in cands {
                    let d2 = dist2(p, ap_pos[ap as usize]);
                    if d2 < best_d2 {
                        best_d2 = d2;
                        best = ap;
                    }
                }
                best
            })
            .collect();

        // Co-channel neighbourhoods (brute force: setup-time only).
        let mut cs_neighbors = vec![Vec::new(); cfg.n_aps];
        let mut interferers = vec![Vec::new(); cfg.n_aps];
        let cs2 = cfg.cs_range_m * cfg.cs_range_m;
        let int2 = cfg.interference_range_m * cfg.interference_range_m;
        for a in 0..cfg.n_aps {
            for b in 0..cfg.n_aps {
                if a == b || ap_channel[a] != ap_channel[b] {
                    continue;
                }
                let d2 = dist2(ap_pos[a], ap_pos[b]);
                if d2 <= cs2 {
                    cs_neighbors[a].push(b as u16);
                }
                if d2 <= int2 {
                    interferers[a].push(b as u16);
                }
            }
        }

        // One hidden-node probability for the common cell geometry: two
        // stations in a disc of one grid pitch around the AP (roaming and
        // shadowing let stations camp a full cell away), mutual carrier
        // sense at cs_range. The disc must outreach cs_range/2 or hidden
        // pairs would be geometrically impossible.
        let cell_radius = cfg.ap_spacing_m;
        let mut hidden_rng = master.fork(S_HIDDEN);
        let p_hidden = try_hidden_node_probability(
            cell_radius,
            cfg.cs_range_m,
            cfg.hidden_node_trials,
            &mut hidden_rng,
        )?;

        Ok(CityLayout {
            ap_pos,
            ap_channel,
            station_pos,
            station_gen,
            station_ac,
            candidates,
            initial_assoc,
            cs_neighbors,
            interferers,
            p_hidden,
        })
    }

    /// Distance from station `s` to AP `ap`, clamped to ≥ 1 m so the
    /// path-loss model's near-field singularity never fires.
    pub fn sta_ap_distance_m(&self, s: usize, ap: usize) -> f64 {
        dist2(self.station_pos[s], self.ap_pos[ap]).sqrt().max(1.0)
    }
}

/// Default propagation environment for the city: TGn model D path loss
/// and the typical WLAN link budget (shared with mesh/goodput).
pub fn propagation() -> (LinkBudget, PathLossModel) {
    (LinkBudget::typical_wlan(), PathLossModel::tgn_model_d())
}

fn dist2(a: (f64, f64), b: (f64, f64)) -> f64 {
    (a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic() {
        let cfg = CityConfig::small_test();
        let a = CityLayout::build(&cfg).expect("valid config");
        let b = CityLayout::build(&cfg).expect("valid config");
        assert_eq!(a.ap_pos, b.ap_pos);
        assert_eq!(a.station_pos, b.station_pos);
        assert_eq!(a.initial_assoc, b.initial_assoc);
        assert_eq!(a.p_hidden.to_bits(), b.p_hidden.to_bits());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let good = CityConfig::small_test();
        assert!(good.validate().is_ok());
        for f in [
            |c: &mut CityConfig| c.n_aps = 0,
            |c: &mut CityConfig| c.n_aps = 70_000,
            |c: &mut CityConfig| c.stations_per_ap = 0,
            |c: &mut CityConfig| c.ap_spacing_m = 0.0,
            |c: &mut CityConfig| c.ap_spacing_m = f64::NAN,
            |c: &mut CityConfig| c.n_channels = 0,
            |c: &mut CityConfig| c.cs_range_m = -1.0,
            |c: &mut CityConfig| c.b_fraction = 1.5,
            |c: &mut CityConfig| c.offered_load = 0.0,
            |c: &mut CityConfig| c.offered_load = f64::NAN,
            |c: &mut CityConfig| c.payload_bytes = 0,
            |c: &mut CityConfig| c.payload_bytes = 4096,
            |c: &mut CityConfig| c.epochs = 0,
            |c: &mut CityConfig| c.epoch_ms = 0.0,
            |c: &mut CityConfig| c.hysteresis_db = f64::NAN,
            |c: &mut CityConfig| c.hidden_node_trials = 0,
        ] {
            let mut bad = good.clone();
            f(&mut bad);
            assert!(bad.validate().is_err(), "{bad:?}");
            assert!(CityLayout::build(&bad).is_err());
        }
    }

    #[test]
    fn payload_limit_is_the_ofdm_length_field() {
        // The PER tables are calibrated on 802.11a frames, whose 12-bit
        // LENGTH field caps the payload at 4095 bytes.
        let mut cfg = CityConfig::small_test();
        cfg.payload_bytes = 4095;
        assert!(cfg.validate().is_ok());
        cfg.payload_bytes = 4096;
        assert!(matches!(cfg.validate(), Err(WlanError::InvalidConfig(_))));
    }

    #[test]
    fn reuse_3_colouring_separates_adjacent_cells() {
        let cfg = CityConfig::small_test(); // 9 APs, 3×3 grid
        let l = CityLayout::build(&cfg).expect("valid config");
        let side = 3;
        for r in 0..side {
            for c in 0..side {
                let ap = r * side + c;
                if c + 1 < side {
                    assert_ne!(l.ap_channel[ap], l.ap_channel[ap + 1]);
                }
                if r + 1 < side {
                    assert_ne!(l.ap_channel[ap], l.ap_channel[ap + side]);
                }
            }
        }
    }

    #[test]
    fn stations_associate_with_a_nearby_candidate() {
        let cfg = CityConfig::small_test();
        let l = CityLayout::build(&cfg).expect("valid config");
        for s in 0..cfg.n_stations() {
            let home = l.initial_assoc[s];
            assert!(l.candidates[s].contains(&home));
            // Nearest candidate: no other candidate is strictly closer.
            let d_home = l.sta_ap_distance_m(s, home as usize);
            for &ap in &l.candidates[s] {
                assert!(l.sta_ap_distance_m(s, ap as usize) >= d_home - 1e-9);
            }
        }
    }

    #[test]
    fn neighbourhoods_are_co_channel_and_symmetric() {
        let cfg = CityConfig::metro(25, 2, 1);
        let l = CityLayout::build(&cfg).expect("valid config");
        for a in 0..cfg.n_aps {
            for &b in &l.cs_neighbors[a] {
                assert_eq!(l.ap_channel[a], l.ap_channel[b as usize]);
                assert!(l.cs_neighbors[b as usize].contains(&(a as u16)));
            }
            for &b in &l.interferers[a] {
                assert_eq!(l.ap_channel[a], l.ap_channel[b as usize]);
            }
        }
        assert!(l.p_hidden > 0.0 && l.p_hidden < 1.0, "{}", l.p_hidden);
    }
}
