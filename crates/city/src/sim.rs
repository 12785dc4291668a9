//! The epoch-based city simulator.
//!
//! Time advances in *epochs* (tens of milliseconds). Within an epoch each
//! BSS runs an independent DCF/EDCA contention loop over its associated
//! stations; coupling between BSSs — OBSS deference and co-channel
//! interference — enters through the *previous* epoch's per-BSS airtime
//! (a Jacobi-style fixed-point iteration). That one-epoch lag is what
//! makes the city embarrassingly parallel without losing the physics:
//! every BSS-epoch is a pure function of `(layout, tables, assoc,
//! busy_frac[prev], epoch, seed)`, so the fan-out over
//! [`wlan_math::par`] is bit-identical at any thread count and the
//! campaign journal can snapshot exactly between epochs.
//!
//! Within a BSS-epoch the MAC is a cycle-level contention model (not
//! per-slot): every member with a queued frame (an `offered_load` coin
//! per cycle) draws an EDCA backoff (current window plus AIFS extra
//! slots) for the cycle, the minimum wins the channel, ties collide.
//! Windows follow binary exponential backoff between the AC's
//! `cw_min`/`cw_max` *within* the epoch and reset at the epoch boundary
//! — deliberately, so an epoch carries no hidden MAC state into the
//! next one and kill/resume is exact (the boundary reset is the one
//! approximation bought for that guarantee). PHY cost comes from the
//! [`crate::pertable::PerTableSet`] SINR lookup; hidden-node losses
//! scale with the OBSS neighbourhood load and the layout's Monte-Carlo
//! `p_hidden`.

use crate::edca::{AccessCategory, EdcaParams};
use crate::layout::{propagation, CityConfig, CityLayout, Generation};
use crate::pertable::PerTableSet;
use wlan_channel::interference::{try_noise_plus_interference_dbm, Interferer};
use wlan_channel::pathloss::{LinkBudget, PathLossModel};
use wlan_mac::params::MacProfile;
use wlan_mac::protection::cts_to_self_overhead_us;
use wlan_math::par::parallel_map_with_threads;
use wlan_math::rng::{Rng, WlanRng};
use wlan_math::WlanError;

/// Fork stream: AP grid jitter.
pub const S_LAYOUT: u64 = 1;
/// Fork stream: station placement / generation draws.
pub const S_STATIONS: u64 = 2;
/// Fork stream: hidden-node Monte-Carlo.
pub const S_HIDDEN: u64 = 3;
/// Fork stream: per-(BSS, epoch) MAC contention.
pub const S_MAC: u64 = 4;
/// Fork stream: per-(station, epoch) roaming shadowing.
pub const S_ROAM: u64 = 5;

/// A deferring BSS always keeps this fraction of the epoch: total OBSS
/// starvation would freeze a cell forever (its neighbours' airtime never
/// drains), and real EDCA always wins *some* slots.
pub const MIN_AVAILABILITY: f64 = 0.05;

/// Slot time charged in a protection-mode (mixed b/g) BSS, µs — the
/// long-slot compatibility option mixed cells must run.
pub const PROTECTED_SLOT_US: f64 = 20.0;

/// Slot time in a pure-OFDM BSS, µs.
pub const OFDM_SLOT_US: f64 = 9.0;

/// An instantiated city: immutable deployment + PHY tables + propagation.
#[derive(Debug, Clone)]
pub struct City {
    /// Scenario configuration.
    pub cfg: CityConfig,
    /// The seeded deployment.
    pub layout: CityLayout,
    /// PER lookup tables (the PHY cost model).
    pub tables: PerTableSet,
    budget: LinkBudget,
    model: PathLossModel,
}

/// Mutable per-campaign state; everything the journal snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct CityState {
    /// Epochs completed so far.
    pub epoch: u64,
    /// Station → AP association.
    pub assoc: Vec<u16>,
    /// Frames delivered per station (cumulative).
    pub delivered: Vec<u64>,
    /// Previous epoch's airtime fraction per BSS (the OBSS coupling
    /// term).
    pub busy_frac: Vec<f64>,
    /// MAC transmission attempts (the campaign's trial unit).
    pub attempts: u64,
    /// Failed attempts: collisions + PER/hidden-node losses.
    pub failures: u64,
    /// Completed handoffs.
    pub handoffs: u64,
    /// Airtime deferred to carrier-sensed OBSS neighbours, µs
    /// (member-carrying BSSs only).
    pub defer_us: f64,
    /// Delivered frames per access category.
    pub ac_delivered: [u64; 4],
    /// Attempts per access category.
    pub ac_attempts: [u64; 4],
    /// Frames delivered by OFDM stations in protected (mixed) BSSs.
    pub prot_delivered: u64,
    /// OFDM station-epochs spent in protected BSSs.
    pub prot_sta_epochs: u64,
    /// Frames delivered by OFDM stations in unprotected BSSs.
    pub unprot_delivered: u64,
    /// OFDM station-epochs spent in unprotected BSSs.
    pub unprot_sta_epochs: u64,
}

/// Aggregate results derived from a [`CityState`]; every float is a pure
/// function of integer tallies and the config, so reports are
/// bit-identical whenever states are.
#[derive(Debug, Clone, PartialEq)]
pub struct CityReport {
    /// Epochs simulated.
    pub epochs_run: u64,
    /// Access points in the deployment.
    pub aps: u64,
    /// Stations in the deployment.
    pub stations: u64,
    /// MAC attempts (campaign trials).
    pub attempts: u64,
    /// Failed attempts.
    pub failures: u64,
    /// Completed handoffs.
    pub handoffs: u64,
    /// Total frames delivered.
    pub delivered_frames: u64,
    /// City-wide goodput in Mbps.
    pub throughput_mbps: f64,
    /// failures / attempts (0 when no attempts).
    pub loss_rate: f64,
    /// Jain fairness over per-station delivered frames.
    pub jain_fairness: f64,
    /// Goodput per access category, Mbps.
    pub ac_throughput_mbps: [f64; 4],
    /// Jain fairness within each access category.
    pub ac_jain: [f64; 4],
    /// In-situ protection penalty: per-station OFDM delivery rate in
    /// protected BSSs over the rate in unprotected BSSs. `None` when the
    /// city had no population on one side of the comparison.
    pub measured_protection_penalty: Option<f64>,
    /// Fraction of AP-airtime deferred to OBSS neighbours.
    pub defer_frac: f64,
    /// The layout's hidden-node probability.
    pub p_hidden: f64,
}

/// One BSS's contribution to an epoch (merged in BSS order).
struct BssEpoch {
    delivered: Vec<u64>,
    attempts: u64,
    failures: u64,
    busy_frac: f64,
    defer_us: f64,
    ac_delivered: [u64; 4],
    ac_attempts: [u64; 4],
    prot_delivered: u64,
    prot_sta: u64,
    unprot_delivered: u64,
    unprot_sta: u64,
}

/// Slots an entirely idle cycle advances time by (nobody queued a
/// frame): a DIFS-scale listening quantum.
const IDLE_CYCLE_SLOTS: f64 = 16.0;

/// Backoff stages are capped so `(cw_min + 1) << stage` cannot overflow;
/// per-AC `cw_max` clamps the window far earlier in practice.
const MAX_BACKOFF_STAGE: u32 = 10;

/// Per-member precomputed contention/PHY parameters for one epoch.
struct MemberParams {
    cw_min: u32,
    cw_max: u32,
    extra_slots: u32,
    ac: usize,
    success_us: f64,
    collide_us: f64,
    p_loss: f64,
    is_ofdm: bool,
}

impl MemberParams {
    /// Contention window at a backoff stage: binary exponential growth
    /// from the AC's `cw_min`, clamped to its `cw_max`.
    fn window(&self, stage: u32) -> u32 {
        let grown = ((self.cw_min + 1) << stage.min(MAX_BACKOFF_STAGE)) - 1;
        grown.min(self.cw_max)
    }
}

impl City {
    /// Builds the city: validates the config and derives the layout.
    ///
    /// # Errors
    ///
    /// [`WlanError::InvalidConfig`] from [`CityConfig::validate`].
    pub fn new(cfg: CityConfig, tables: PerTableSet) -> Result<Self, WlanError> {
        let layout = CityLayout::build(&cfg)?;
        let (budget, model) = propagation();
        Ok(City {
            cfg,
            layout,
            tables,
            budget,
            model,
        })
    }

    /// Fresh epoch-zero state: initial associations, idle airtime.
    pub fn fresh_state(&self) -> CityState {
        let n_sta = self.cfg.n_stations();
        CityState {
            epoch: 0,
            assoc: self.layout.initial_assoc.clone(),
            delivered: vec![0; n_sta],
            busy_frac: vec![0.0; self.cfg.n_aps],
            attempts: 0,
            failures: 0,
            handoffs: 0,
            defer_us: 0.0,
            ac_delivered: [0; 4],
            ac_attempts: [0; 4],
            prot_delivered: 0,
            prot_sta_epochs: 0,
            unprot_delivered: 0,
            unprot_sta_epochs: 0,
        }
    }

    /// Advances the state by one epoch on `threads` workers. Results are
    /// bit-identical at any `threads` value (per-BSS and per-station
    /// streams are addressed by coordinates, reductions run in index
    /// order).
    pub fn run_epoch(&self, state: &mut CityState, threads: usize) {
        let rec = wlan_obs::global();
        let span = rec.histogram("city.epoch").start();

        let n_aps = self.cfg.n_aps;
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); n_aps];
        for (s, &ap) in state.assoc.iter().enumerate() {
            members[ap as usize].push(s as u32);
        }
        let busy_prev = std::mem::take(&mut state.busy_frac);
        let epoch = state.epoch;

        let results = parallel_map_with_threads(threads, &members, |bss, mem| {
            self.bss_epoch(bss, mem, &busy_prev, epoch)
        });

        let mut attempts_delta = 0u64;
        let mut delivered_delta = 0u64;
        let mut failures_delta = 0u64;
        state.busy_frac = vec![0.0; n_aps];
        for (bss, r) in results.iter().enumerate() {
            state.busy_frac[bss] = r.busy_frac;
            for (k, &s) in members[bss].iter().enumerate() {
                state.delivered[s as usize] += r.delivered[k];
                delivered_delta += r.delivered[k];
            }
            state.attempts += r.attempts;
            state.failures += r.failures;
            state.defer_us += r.defer_us;
            attempts_delta += r.attempts;
            failures_delta += r.failures;
            for i in 0..4 {
                state.ac_delivered[i] += r.ac_delivered[i];
                state.ac_attempts[i] += r.ac_attempts[i];
            }
            state.prot_delivered += r.prot_delivered;
            state.prot_sta_epochs += r.prot_sta;
            state.unprot_delivered += r.unprot_delivered;
            state.unprot_sta_epochs += r.unprot_sta;
        }

        if self.cfg.roam_every_epochs > 0 && (epoch + 1).is_multiple_of(self.cfg.roam_every_epochs)
        {
            let handoffs = self.roam(state, threads, epoch);
            rec.counter("city.handoffs").add(handoffs);
        }
        state.epoch += 1;

        rec.counter("city.attempts").add(attempts_delta);
        rec.counter("city.delivered").add(delivered_delta);
        rec.counter("city.failures").add(failures_delta);
        span.stop();
    }

    /// One BSS's epoch: OBSS deference, per-member SINR → (rate, PER),
    /// EDCA cycle contention. Pure function of its arguments plus the
    /// immutable city.
    fn bss_epoch(&self, bss: usize, mem: &[u32], busy_prev: &[f64], epoch: u64) -> BssEpoch {
        let cfg = &self.cfg;
        let lay = &self.layout;
        let epoch_us = cfg.epoch_ms * 1000.0;

        // OBSS deference: carrier-sensed co-channel neighbours' airtime
        // (previous epoch) shrinks this epoch's usable window.
        let neighbor_busy: f64 = lay.cs_neighbors[bss]
            .iter()
            .map(|&n| busy_prev[n as usize])
            .sum();
        let avail = (1.0 - neighbor_busy).clamp(MIN_AVAILABILITY, 1.0);
        let t_avail = epoch_us * avail;

        let mut out = BssEpoch {
            delivered: vec![0; mem.len()],
            attempts: 0,
            failures: 0,
            busy_frac: 0.0,
            defer_us: 0.0,
            ac_delivered: [0; 4],
            ac_attempts: [0; 4],
            prot_delivered: 0,
            prot_sta: 0,
            unprot_delivered: 0,
            unprot_sta: 0,
        };
        if mem.is_empty() {
            return out;
        }
        out.defer_us = epoch_us - t_avail;

        let ni_dbm = self.noise_plus_interference_dbm(bss, busy_prev);
        let obss_load = neighbor_busy.min(1.0);

        let protected = mem
            .iter()
            .any(|&s| lay.station_gen[s as usize] == Generation::DsssB);
        let slot_us = if protected {
            PROTECTED_SLOT_US
        } else {
            OFDM_SLOT_US
        };
        // The DSSS rate is validated positive at PerTableSet
        // construction, so the overhead call cannot fail.
        let cts_us = cts_to_self_overhead_us(self.tables.dsss_rate_mbps()).unwrap_or(0.0);

        let params: Vec<MemberParams> = mem
            .iter()
            .map(|&s| {
                let s = s as usize;
                let sinr = self.member_sinr_db(s, bss, ni_dbm);
                let is_ofdm = lay.station_gen[s] == Generation::OfdmG;
                let (profile, per) = if is_ofdm {
                    let (rate, per) = self.tables.ofdm_rate_and_per(sinr);
                    (MacProfile::dot11g(rate), per)
                } else {
                    (
                        MacProfile::dot11b(self.tables.dsss_rate_mbps()),
                        self.tables.dsss_per(sinr),
                    )
                };
                // Hidden-node collisions: stations of OBSS cells that this
                // AP hears but the member does not, scaled by how busy the
                // neighbourhood actually is.
                let p_loss =
                    (per + (1.0 - per) * lay.p_hidden * obss_load).clamp(0.0, 1.0);
                let ac = lay.station_ac[s] as usize;
                let edca = EdcaParams::for_ac(&profile, AccessCategory::from_index(ac));
                let success_us = profile.success_duration_us(cfg.payload_bytes)
                    + if protected && is_ofdm { cts_us } else { 0.0 };
                MemberParams {
                    cw_min: edca.cw_min,
                    cw_max: edca.cw_max,
                    extra_slots: edca.extra_aifs_slots(),
                    ac,
                    success_us,
                    collide_us: profile.collision_duration_us(cfg.payload_bytes),
                    p_loss,
                    is_ofdm,
                }
            })
            .collect();

        for p in &params {
            if p.is_ofdm {
                if protected {
                    out.prot_sta += 1;
                } else {
                    out.unprot_sta += 1;
                }
            }
        }

        let mut rng = WlanRng::seed_from_u64(cfg.seed)
            .fork(S_MAC)
            .fork(bss as u64)
            .fork(epoch);
        // Backoff stages persist across cycles *within* the epoch
        // (binary exponential backoff: collisions and lost frames double
        // the window up to the AC's cw_max, delivery resets it) and reset
        // at the epoch boundary, so `CityState` alone is still the
        // complete simulation state for kill/resume.
        let mut stages: Vec<u32> = vec![0; params.len()];
        let mut backoffs: Vec<u32> = vec![u32::MAX; params.len()];
        let mut t = 0.0f64;
        let mut busy = 0.0f64;
        while t < t_avail {
            // Cycle: every member with a queued frame (offered-load coin)
            // draws an EDCA backoff from its current window; minimum
            // wins, ties collide.
            let mut min_bo = u32::MAX;
            for (k, p) in params.iter().enumerate() {
                backoffs[k] = if rng.gen_bool(cfg.offered_load) {
                    let bo = rng.gen_range(0..=p.window(stages[k])) + p.extra_slots;
                    min_bo = min_bo.min(bo);
                    bo
                } else {
                    u32::MAX
                };
            }
            if min_bo == u32::MAX {
                // Nobody queued a frame: the cell idles for a listening
                // quantum and the next cycle re-draws.
                t += IDLE_CYCLE_SLOTS * slot_us;
                continue;
            }
            t += min_bo as f64 * slot_us;
            let mut first = usize::MAX;
            let mut tie_count = 0usize;
            let mut collide_dur = 0.0f64;
            for (k, &bo) in backoffs.iter().enumerate() {
                if bo == min_bo {
                    if first == usize::MAX {
                        first = k;
                    }
                    tie_count += 1;
                    collide_dur = collide_dur.max(params[k].collide_us);
                }
            }
            if tie_count >= 2 {
                // Collision: every tied member burned an attempt and
                // doubled its window; the channel is busy for the longest
                // colliding frame.
                for (k, &bo) in backoffs.iter().enumerate() {
                    if bo == min_bo {
                        out.attempts += 1;
                        out.failures += 1;
                        out.ac_attempts[params[k].ac] += 1;
                        stages[k] = (stages[k] + 1).min(MAX_BACKOFF_STAGE);
                    }
                }
                t += collide_dur;
                busy += collide_dur;
            } else {
                let k = first;
                let p = &params[k];
                out.attempts += 1;
                out.ac_attempts[p.ac] += 1;
                t += p.success_us;
                busy += p.success_us;
                if rng.gen_bool(p.p_loss) {
                    // No ACK: the sender cannot tell loss from collision
                    // and doubles its window too.
                    out.failures += 1;
                    stages[k] = (stages[k] + 1).min(MAX_BACKOFF_STAGE);
                } else {
                    out.delivered[k] += 1;
                    out.ac_delivered[p.ac] += 1;
                    stages[k] = 0;
                    if p.is_ofdm {
                        if protected {
                            out.prot_delivered += 1;
                        } else {
                            out.unprot_delivered += 1;
                        }
                    }
                }
            }
        }
        out.busy_frac = (busy / epoch_us).clamp(0.0, 1.0);
        out
    }

    /// Noise plus interference (dBm) at `bss`'s AP receiver: co-channel
    /// neighbour APs stand in for their cells' transmitters, duty = their
    /// previous-epoch airtime. It is the same for every member, so a
    /// BSS-epoch computes it once. `None` marks an impossible geometry.
    fn noise_plus_interference_dbm(&self, bss: usize, busy_prev: &[f64]) -> Option<f64> {
        let lay = &self.layout;
        let interferers: Vec<Interferer> = lay.interferers[bss]
            .iter()
            .map(|&i| Interferer {
                distance_m: ap_distance_m(lay, bss, i as usize),
                duty_cycle: busy_prev[i as usize].clamp(0.0, 1.0),
            })
            .collect();
        try_noise_plus_interference_dbm(&self.budget, &self.model, &interferers).ok()
    }

    /// Mean SINR (dB) of station `s` at AP `bss`: its received power minus
    /// the cell's noise plus interference. Layout validation guarantees
    /// positive finite distances and clamped duties, so this cannot fail;
    /// an impossible geometry degrades to SINR −∞ (PER 1) rather than UB.
    fn member_sinr_db(&self, s: usize, bss: usize, ni_dbm: Option<f64>) -> f64 {
        let d = self.layout.sta_ap_distance_m(s, bss);
        match ni_dbm {
            Some(ni) if d > 0.0 && d.is_finite() => self.rx_power_dbm(d) - ni,
            _ => f64::NEG_INFINITY,
        }
    }

    /// Median received power (dBm) of a link `d` metres long.
    fn rx_power_dbm(&self, d: f64) -> f64 {
        self.budget.rx_power_dbm(self.model.path_loss_db(d))
    }

    /// RSSI-hysteresis roaming: every station re-measures its candidate
    /// APs (log-normal shadowing from its own `(station, epoch)` stream)
    /// and hands off when the best candidate beats the current AP by the
    /// hysteresis margin. Returns the number of handoffs.
    fn roam(&self, state: &mut CityState, threads: usize, epoch: u64) -> u64 {
        let cfg = &self.cfg;
        let lay = &self.layout;
        let new_assoc: Vec<u16> =
            parallel_map_with_threads(threads, &state.assoc, |s, &cur| {
                let cands = &lay.candidates[s];
                if cands.len() <= 1 {
                    return cur;
                }
                let mut rng = WlanRng::seed_from_u64(cfg.seed)
                    .fork(S_ROAM)
                    .fork(s as u64)
                    .fork(epoch);
                let mut best_ap = cur;
                let mut best_rssi = f64::NEG_INFINITY;
                let mut cur_rssi = f64::NEG_INFINITY;
                for &ap in cands {
                    let d = lay.sta_ap_distance_m(s, ap as usize);
                    let rssi = self.rx_power_dbm(d) + cfg.shadow_sigma_db * rng.gen_gaussian();
                    if ap == cur {
                        cur_rssi = rssi;
                    }
                    if rssi > best_rssi {
                        best_rssi = rssi;
                        best_ap = ap;
                    }
                }
                if best_ap != cur && best_rssi > cur_rssi + cfg.hysteresis_db {
                    best_ap
                } else {
                    cur
                }
            });
        let handoffs = new_assoc
            .iter()
            .zip(&state.assoc)
            .filter(|(a, b)| a != b)
            .count() as u64;
        state.handoffs += handoffs;
        state.assoc = new_assoc;
        handoffs
    }

    /// Derives the aggregate report from a state.
    pub fn report(&self, state: &CityState) -> CityReport {
        let cfg = &self.cfg;
        let sim_us = state.epoch as f64 * cfg.epoch_ms * 1000.0;
        let bits = |frames: u64| frames as f64 * (cfg.payload_bytes * 8) as f64;
        let mbps = |frames: u64| {
            if sim_us > 0.0 {
                bits(frames) / sim_us
            } else {
                0.0
            }
        };
        let delivered_frames: u64 = state.ac_delivered.iter().sum();
        let mut ac_throughput = [0.0; 4];
        let mut ac_jain = [0.0; 4];
        for i in 0..4 {
            ac_throughput[i] = mbps(state.ac_delivered[i]);
            let per_sta: Vec<u64> = state
                .delivered
                .iter()
                .zip(&self.layout.station_ac)
                .filter(|(_, &ac)| ac as usize == i)
                .map(|(&d, _)| d)
                .collect();
            ac_jain[i] = jain(&per_sta);
        }
        let penalty = if state.prot_sta_epochs > 0
            && state.unprot_sta_epochs > 0
            && state.unprot_delivered > 0
        {
            let prot_rate = state.prot_delivered as f64 / state.prot_sta_epochs as f64;
            let unprot_rate = state.unprot_delivered as f64 / state.unprot_sta_epochs as f64;
            Some(prot_rate / unprot_rate)
        } else {
            None
        };
        let total_ap_us = sim_us * cfg.n_aps as f64;
        CityReport {
            epochs_run: state.epoch,
            aps: cfg.n_aps as u64,
            stations: cfg.n_stations() as u64,
            attempts: state.attempts,
            failures: state.failures,
            handoffs: state.handoffs,
            delivered_frames,
            throughput_mbps: mbps(delivered_frames),
            loss_rate: if state.attempts > 0 {
                state.failures as f64 / state.attempts as f64
            } else {
                0.0
            },
            jain_fairness: jain(&state.delivered),
            ac_throughput_mbps: ac_throughput,
            ac_jain,
            measured_protection_penalty: penalty,
            defer_frac: if total_ap_us > 0.0 {
                state.defer_us / total_ap_us
            } else {
                0.0
            },
            p_hidden: self.layout.p_hidden,
        }
    }
}

/// AP-to-AP distance, clamped to ≥ 1 m (same floor as station links).
fn ap_distance_m(lay: &CityLayout, a: usize, b: usize) -> f64 {
    let (ax, ay) = lay.ap_pos[a];
    let (bx, by) = lay.ap_pos[b];
    ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt().max(1.0)
}

/// Jain fairness index `(Σx)² / (n·Σx²)`; 1.0 for an empty or all-zero
/// population (nobody is being favoured).
fn jain(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let sum: f64 = values.iter().map(|&v| v as f64).sum();
    let sum_sq: f64 = values.iter().map(|&v| (v as f64) * (v as f64)).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (values.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_city() -> City {
        City::new(CityConfig::small_test(), PerTableSet::synthetic()).expect("valid config")
    }

    fn run(city: &City, threads: usize, epochs: u64) -> CityState {
        let mut state = city.fresh_state();
        for _ in 0..epochs {
            city.run_epoch(&mut state, threads);
        }
        state
    }

    #[test]
    fn epochs_deliver_frames_and_track_tallies() {
        let city = small_city();
        let state = run(&city, 1, 4);
        assert_eq!(state.epoch, 4);
        assert!(state.attempts > 0);
        let delivered: u64 = state.delivered.iter().sum();
        assert_eq!(delivered, state.ac_delivered.iter().sum::<u64>());
        assert!(delivered > 0, "a small city must deliver something");
        assert!(state.failures <= state.attempts);
        assert!(state.busy_frac.iter().all(|b| (0.0..=1.0).contains(b)));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let city = small_city();
        let serial = run(&city, 1, 3);
        let two = run(&city, 2, 3);
        let eight = run(&city, 8, 3);
        assert_eq!(serial, two);
        assert_eq!(serial, eight);
    }

    #[test]
    fn per_cell_interference_matches_the_per_member_call() {
        // Each member's SINR is its received power minus the cell's noise
        // plus interference, computed once per BSS-epoch; it must equal
        // the direct per-member co-channel SINR bit for bit, on the
        // (assoc, busy_prev) inputs every later epoch actually sees.
        use wlan_channel::interference::co_channel_sinr_db;
        let city = small_city();
        let lay = &city.layout;
        let mut state = city.fresh_state();
        let mut loaded = 0;
        for _ in 0..5 {
            city.run_epoch(&mut state, 1);
            let busy = &state.busy_frac;
            for (s, &ap) in state.assoc.iter().enumerate() {
                let bss = ap as usize;
                let interferers: Vec<Interferer> = lay.interferers[bss]
                    .iter()
                    .map(|&i| Interferer {
                        distance_m: ap_distance_m(lay, bss, i as usize),
                        duty_cycle: busy[i as usize].clamp(0.0, 1.0),
                    })
                    .collect();
                loaded += usize::from(interferers.iter().any(|i| i.duty_cycle > 0.0));
                let d = lay.sta_ap_distance_m(s, bss);
                let direct = co_channel_sinr_db(&city.budget, &city.model, d, &interferers)
                    .expect("valid geometry");
                let ni = city.noise_plus_interference_dbm(bss, busy);
                assert_eq!(
                    city.member_sinr_db(s, bss, ni).to_bits(),
                    direct.to_bits(),
                    "epoch {} station {s}",
                    state.epoch
                );
            }
        }
        assert!(loaded > 0, "no member saw a busy interferer");
    }

    #[test]
    fn edca_priority_wins_airtime() {
        // Voice (AC 0) must out-deliver background (AC 3) in aggregate:
        // station ACs are assigned round-robin so populations are equal.
        let mut cfg = CityConfig::small_test();
        cfg.epochs = 6;
        let city = City::new(cfg, PerTableSet::synthetic()).expect("valid config");
        let state = run(&city, 1, 6);
        assert!(
            state.ac_delivered[0] > state.ac_delivered[3],
            "VO {} must beat BK {}",
            state.ac_delivered[0],
            state.ac_delivered[3]
        );
    }

    #[test]
    fn roaming_moves_stations_within_their_candidate_sets() {
        let city = small_city();
        let state = run(&city, 1, 6);
        assert!(state.handoffs > 0, "shadowed RSSI must trigger handoffs");
        for (s, &ap) in state.assoc.iter().enumerate() {
            assert!(city.layout.candidates[s].contains(&ap));
        }
        // Hysteresis sanity: an enormous margin freezes roaming.
        let mut frozen_cfg = CityConfig::small_test();
        frozen_cfg.hysteresis_db = 500.0;
        let frozen = City::new(frozen_cfg, PerTableSet::synthetic()).expect("valid config");
        let fstate = run(&frozen, 1, 6);
        assert_eq!(fstate.handoffs, 0);
        assert_eq!(fstate.assoc, frozen.layout.initial_assoc);
    }

    #[test]
    fn obss_deference_reports_deferred_airtime() {
        let city = small_city();
        let state = run(&city, 1, 4);
        // Epoch 0 starts idle (no deference); once cells carry traffic,
        // co-channel neighbours within cs range must defer.
        assert!(state.defer_us > 0.0, "busy neighbours must cause deference");
        let report = city.report(&state);
        assert!(report.defer_frac > 0.0 && report.defer_frac < 1.0);
    }

    #[test]
    fn mixed_cells_pay_the_protection_penalty() {
        // Small cells and a moderate legacy fraction, so the city holds
        // both mixed (protected) and pure-OFDM (unprotected) BSSs — the
        // in-situ penalty needs population on both sides.
        let mut cfg = CityConfig::small_test();
        cfg.n_aps = 25;
        cfg.stations_per_ap = 8;
        cfg.b_fraction = 0.2;
        cfg.epochs = 6;
        let city = City::new(cfg, PerTableSet::synthetic()).expect("valid config");
        let state = run(&city, 1, 6);
        assert!(state.prot_sta_epochs > 0, "some cells must be mixed");
        assert!(state.unprot_sta_epochs > 0, "some cells must be pure OFDM");
        let report = city.report(&state);
        let penalty = report
            .measured_protection_penalty
            .expect("mixed city must measure a penalty");
        assert!(
            penalty > 0.0 && penalty < 1.0,
            "protected OFDM stations must deliver less: {penalty}"
        );
    }

    #[test]
    fn report_floats_are_finite_and_consistent() {
        let city = small_city();
        let state = run(&city, 1, 4);
        let r = city.report(&state);
        assert!(r.throughput_mbps.is_finite() && r.throughput_mbps > 0.0);
        assert!((0.0..=1.0).contains(&r.loss_rate));
        assert!((0.0..=1.0).contains(&r.jain_fairness));
        for i in 0..4 {
            assert!(r.ac_throughput_mbps[i].is_finite());
            assert!((0.0..=1.0).contains(&r.ac_jain[i]));
        }
        // Fresh state: zero-division guards hold.
        let empty = city.report(&city.fresh_state());
        assert_eq!(empty.throughput_mbps, 0.0);
        assert_eq!(empty.loss_rate, 0.0);
        assert_eq!(empty.jain_fairness, 1.0);
    }

    #[test]
    fn jain_edge_cases() {
        assert_eq!(jain(&[]), 1.0);
        assert_eq!(jain(&[0, 0, 0]), 1.0);
        assert_eq!(jain(&[5, 5, 5, 5]), 1.0);
        let skewed = jain(&[100, 0, 0, 0]);
        assert!((skewed - 0.25).abs() < 1e-12, "{skewed}");
    }
}
