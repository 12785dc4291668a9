//! Legacy 802.11 power-save mode (PSM).
//!
//! The paper closes by noting WLAN protocols "make few concessions to
//! issues of power management". The one concession 802.11 did make is PSM:
//! a station tells the AP it is dozing, wakes only for beacons, checks the
//! TIM bitmap, and polls for buffered frames when indicated. This module
//! models the awake/doze duty cycle and the latency cost, feeding the
//! energy comparison of experiment E12.

use wlan_math::rng::Rng;
use wlan_sim::{Scheduler, Time, MICROSECOND};

/// PSM configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsmConfig {
    /// Beacon interval in µs (typically 102_400 = 102.4 ms).
    pub beacon_interval_us: f64,
    /// Listen interval: station wakes every `n` beacons.
    pub listen_interval: u32,
    /// Time awake around each beacon (receive + TIM decode) in µs.
    pub beacon_awake_us: f64,
    /// Time to retrieve one buffered frame (PS-Poll + data + ACK) in µs.
    pub retrieval_us: f64,
    /// Mean downlink frame arrival rate (frames per second).
    pub arrival_rate_hz: f64,
    /// Simulated time in µs.
    pub sim_time_us: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PsmConfig {
    fn default() -> Self {
        PsmConfig {
            beacon_interval_us: 102_400.0,
            listen_interval: 1,
            beacon_awake_us: 2_000.0,
            retrieval_us: 1_500.0,
            arrival_rate_hz: 5.0,
            sim_time_us: 10_000_000.0,
            seed: 1,
        }
    }
}

/// PSM simulation outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsmResult {
    /// Fraction of time the radio was awake (duty cycle).
    pub awake_fraction: f64,
    /// Mean delivery latency of buffered frames in µs.
    pub mean_latency_us: f64,
    /// Frames delivered.
    pub delivered: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Beacon,
    Arrival,
}

/// Simulates PSM doze/wake cycles with Poisson downlink arrivals buffered
/// at the AP until the station's next listened beacon.
///
/// # Panics
///
/// Panics if intervals or rates are not positive.
pub fn simulate_psm(cfg: &PsmConfig) -> PsmResult {
    assert!(cfg.beacon_interval_us > 0.0, "beacon interval must be positive");
    assert!(cfg.listen_interval >= 1, "listen interval must be at least 1");
    assert!(cfg.sim_time_us > 0.0, "simulation time must be positive");
    use wlan_math::rng::WlanRng;
    let mut rng = WlanRng::seed_from_u64(cfg.seed);

    let to_ns = |us: f64| -> Time { (us * MICROSECOND as f64).round() as Time };
    let horizon = to_ns(cfg.sim_time_us);
    let mut sim: Scheduler<Event> = Scheduler::new();
    sim.schedule_at(to_ns(cfg.beacon_interval_us), Event::Beacon);
    let exp_gap = |rng: &mut WlanRng| -> Time {
        let u: f64 = 1.0 - rng.gen::<f64>();
        to_ns(-u.ln() / cfg.arrival_rate_hz * 1e6)
    };
    let first = exp_gap(&mut rng);
    sim.schedule_at(first, Event::Arrival);

    let mut beacon_count = 0u64;
    let mut awake_ns = 0f64;
    let mut buffered: Vec<Time> = Vec::new();
    let mut latency_sum_ns = 0f64;
    let mut delivered = 0u64;

    while let Some((t, ev)) = sim.pop() {
        if t >= horizon {
            break;
        }
        match ev {
            Event::Arrival => {
                buffered.push(t);
                sim.schedule_in(exp_gap(&mut rng), Event::Arrival);
            }
            Event::Beacon => {
                beacon_count += 1;
                sim.schedule_in(to_ns(cfg.beacon_interval_us), Event::Beacon);
                // Station listens every `listen_interval` beacons.
                if !beacon_count.is_multiple_of(cfg.listen_interval as u64) {
                    continue;
                }
                awake_ns += to_ns(cfg.beacon_awake_us) as f64;
                // TIM indicated: retrieve everything buffered.
                for &arrival in &buffered {
                    awake_ns += to_ns(cfg.retrieval_us) as f64;
                    latency_sum_ns += (t - arrival) as f64;
                    delivered += 1;
                }
                buffered.clear();
            }
        }
    }

    PsmResult {
        awake_fraction: awake_ns / horizon as f64,
        mean_latency_us: if delivered > 0 {
            latency_sum_ns / delivered as f64 / MICROSECOND as f64
        } else {
            0.0
        },
        delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duty_cycle_is_far_below_always_on() {
        let out = simulate_psm(&PsmConfig::default());
        assert!(
            out.awake_fraction < 0.15,
            "PSM duty cycle {} should be ≪ 1",
            out.awake_fraction
        );
        assert!(out.awake_fraction > 0.0);
    }

    #[test]
    fn mean_latency_is_half_listen_period() {
        // Poisson arrivals buffered until the next listened beacon wait half
        // a listen period on average.
        let cfg = PsmConfig::default();
        let out = simulate_psm(&cfg);
        let expect = cfg.beacon_interval_us * cfg.listen_interval as f64 / 2.0;
        assert!(
            (out.mean_latency_us - expect).abs() < 0.15 * expect,
            "latency {} vs expected {expect}",
            out.mean_latency_us
        );
    }

    #[test]
    fn longer_listen_interval_trades_energy_for_latency() {
        let base = PsmConfig::default();
        let eager = simulate_psm(&base);
        let lazy = simulate_psm(&PsmConfig {
            listen_interval: 5,
            ..base
        });
        assert!(lazy.awake_fraction < eager.awake_fraction);
        assert!(lazy.mean_latency_us > 3.0 * eager.mean_latency_us);
    }

    #[test]
    fn busier_traffic_increases_duty_cycle() {
        let base = PsmConfig::default();
        let quiet = simulate_psm(&PsmConfig {
            arrival_rate_hz: 1.0,
            ..base
        });
        let busy = simulate_psm(&PsmConfig {
            arrival_rate_hz: 50.0,
            ..base
        });
        assert!(busy.awake_fraction > quiet.awake_fraction);
        assert!(busy.delivered > quiet.delivered);
    }

    #[test]
    fn all_arrivals_before_horizon_minus_beacon_are_delivered() {
        let cfg = PsmConfig {
            sim_time_us: 5_000_000.0,
            arrival_rate_hz: 20.0,
            ..PsmConfig::default()
        };
        let out = simulate_psm(&cfg);
        // ~100 expected arrivals; allow boundary losses of a beacon's worth.
        let expected = cfg.arrival_rate_hz * cfg.sim_time_us / 1e6;
        assert!(
            (out.delivered as f64) > 0.7 * expected,
            "delivered {} of ~{expected}",
            out.delivered
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate_psm(&PsmConfig::default());
        let b = simulate_psm(&PsmConfig::default());
        assert_eq!(a, b);
    }
}
