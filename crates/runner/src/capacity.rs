//! Survivable gateway-capacity campaigns.
//!
//! Wraps `wlan_mesh::capacity::gateway_capacity` in budgets and
//! checkpoint/resume. The per-client routing unit is
//! `wlan_mesh::capacity::client_route`; clients are processed in list
//! order in fixed-size waves and the airtime sum folds client-by-client
//! — the same association as the one-shot analysis — so a campaign run
//! over all clients equals `gateway_capacity` bit-for-bit and a resumed
//! campaign (airtime sum journaled as an IEEE bit pattern) continues the
//! fold bit-identically.

use std::path::PathBuf;

use wlan_mesh::capacity::{client_route, GatewayCapacity};
use wlan_math::par;

use crate::budget::{Budget, Outcome};
use crate::campaign::{drive, Campaign, Wave};
use crate::journal::{f64_to_hex, kv_f64, kv_u64, JournalError};
use crate::Resume;

/// Clients routed per wave.
pub const CLIENTS_PER_WAVE: usize = 16;

/// Configuration for a survivable capacity campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityCampaignConfig {
    /// Mesh node positions (node 0 is the gateway).
    pub infrastructure: Vec<(f64, f64)>,
    /// Client positions to route, in order.
    pub clients: Vec<(f64, f64)>,
    /// Resource limits: `max_trials` (= clients) is cumulative across
    /// resume, `wall_ms` is per-invocation (see [`crate::budget`]).
    pub budget: Budget,
    /// Checkpoint journal path; `None` disables checkpointing.
    pub journal: Option<PathBuf>,
    /// Worker threads; `None` = the `WLAN_THREADS` pool.
    pub threads: Option<usize>,
}

impl CapacityCampaignConfig {
    /// A campaign equivalent to `gateway_capacity(infrastructure,
    /// clients)`: budget from the environment, no journal.
    pub fn new(infrastructure: &[(f64, f64)], clients: &[(f64, f64)]) -> Self {
        Self {
            infrastructure: infrastructure.to_vec(),
            clients: clients.to_vec(),
            budget: Budget::from_env(),
            journal: None,
            threads: None,
        }
    }

    /// Sets the checkpoint journal path.
    pub fn with_journal(mut self, path: PathBuf) -> Self {
        self.journal = Some(path);
        self
    }

    /// Replaces the budget (default: from the environment).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Pins the worker thread count (results are identical at any value).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }
}

/// The full result of a capacity campaign invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityCampaignReport {
    /// Clients routed so far (in list order; a prefix when partial).
    pub routed: u64,
    /// Routed clients that reached the gateway.
    pub connected: u64,
    /// Total round airtime over connected clients, µs.
    pub round_airtime_us: f64,
    /// Total hops over connected clients.
    pub hop_sum: u64,
    /// Whether the campaign finished or hit a budget.
    pub outcome: Outcome,
    /// How this invocation started.
    pub resume: Resume,
    /// Set when a checkpoint failed to write.
    pub journal_error: Option<JournalError>,
}

impl CapacityCampaignReport {
    /// Compatibility view as the one-shot analysis' result type (over the
    /// clients routed so far).
    pub fn to_gateway_capacity(&self) -> GatewayCapacity {
        let connected = self.connected as usize;
        let per_client_mbps = if connected > 0 && self.round_airtime_us > 0.0 {
            wlan_mesh::metric::AIRTIME_TEST_FRAME_BITS / self.round_airtime_us
        } else {
            0.0
        };
        GatewayCapacity {
            connected,
            round_airtime_us: self.round_airtime_us,
            per_client_mbps,
            mean_hops: if connected > 0 {
                self.hop_sum as f64 / connected as f64
            } else {
                0.0
            },
        }
    }
}

/// Runs (or resumes) a survivable capacity campaign.
///
/// # Panics
///
/// Panics if `infrastructure` is empty.
pub fn run_capacity_campaign(cfg: &CapacityCampaignConfig) -> CapacityCampaignReport {
    assert!(!cfg.infrastructure.is_empty(), "need at least the gateway");

    let run = drive(&CapacityCampaign(cfg), cfg.budget, cfg.journal.as_deref(), 1);
    CapacityCampaignReport {
        routed: run.state.routed,
        connected: run.state.connected,
        round_airtime_us: run.state.round_airtime_us,
        hop_sum: run.state.hop_sum,
        outcome: run.outcome,
        resume: run.resume,
        journal_error: run.journal_error,
    }
}

/// Clients routed so far and what the connected ones add up to.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Tally {
    routed: u64,
    connected: u64,
    round_airtime_us: f64,
    hop_sum: u64,
}

struct CapacityCampaign<'a>(&'a CapacityCampaignConfig);

impl Campaign for CapacityCampaign<'_> {
    type State = Tally;
    const KIND: &'static str = "capacity";
    const SALVAGE: bool = false;

    fn key(&self) -> String {
        let pos = |v: &[(f64, f64)]| -> String {
            v.iter()
                .map(|&(x, y)| format!("{},{}", f64_to_hex(x), f64_to_hex(y)))
                .collect::<Vec<_>>()
                .join(";")
        };
        format!(
            "capacity v1 infra={} clients={}",
            pos(&self.0.infrastructure),
            pos(&self.0.clients)
        )
    }

    fn fresh(&self) -> Tally {
        Tally::default()
    }

    fn encode(&self, t: &Tally) -> Vec<String> {
        vec![format!(
            "cap routed={} connected={} airtime={} hops={}",
            t.routed,
            t.connected,
            f64_to_hex(t.round_airtime_us),
            t.hop_sum
        )]
    }

    fn decode(&self, body: &[String], _complete: bool) -> Result<Tally, JournalError> {
        let [line] = body else {
            return Err(JournalError::Truncated);
        };
        let parsed = (|| {
            let mut t = line.strip_prefix("cap ")?.split_whitespace();
            let routed = kv_u64(t.next()?, "routed")?;
            let connected = kv_u64(t.next()?, "connected")?;
            let round_airtime_us = kv_f64(t.next()?, "airtime")?;
            let hop_sum = kv_u64(t.next()?, "hops")?;
            let valid = t.next().is_none()
                && routed <= self.0.clients.len() as u64
                && connected <= routed
                && round_airtime_us.is_finite();
            valid.then_some(Tally {
                routed,
                connected,
                round_airtime_us,
                hop_sum,
            })
        })();
        parsed.ok_or(JournalError::Malformed { line: 3 })
    }

    fn trials(&self, t: &Tally) -> u64 {
        t.routed
    }

    fn wave(&self, t: &mut Tally) -> Wave {
        let cfg = self.0;
        let start = t.routed as usize;
        let end = cfg.clients.len().min(start + CLIENTS_PER_WAVE);
        let wave = &cfg.clients[start..end];
        let route_one = |_: usize, &client: &(f64, f64)| client_route(&cfg.infrastructure, client);
        let threads = cfg.threads.unwrap_or_else(par::num_threads);
        let routes = par::parallel_map_with_threads(threads, wave, route_one);
        // Client-order fold, one client at a time — the one-shot
        // analysis' float association.
        for (airtime_us, hops) in routes.iter().flatten() {
            t.round_airtime_us += airtime_us;
            t.connected += 1;
            t.hop_sum += *hops as u64;
        }
        t.routed = end as u64;
        Wave {
            trials: (end - start) as u64,
            ..Wave::default()
        }
    }

    fn done(&self, t: &Tally) -> bool {
        t.routed >= self.0.clients.len() as u64
    }

    fn remaining(&self, t: &Tally) -> u64 {
        self.0.clients.len() as u64 - t.routed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_mesh::capacity::gateway_capacity;

    fn infra() -> Vec<(f64, f64)> {
        vec![(0.0, 0.0), (150.0, 0.0), (0.0, 150.0), (150.0, 150.0)]
    }

    fn clients(n: usize) -> Vec<(f64, f64)> {
        (0..n).map(|i| (10.0 * (i % 20) as f64, 15.0 * (i / 20) as f64)).collect()
    }

    #[test]
    fn complete_campaign_matches_one_shot_analysis() {
        let c = clients(40);
        let cfg = CapacityCampaignConfig::new(&infra(), &c)
            .with_budget(Budget::unlimited())
            .with_threads(1);
        let report = run_capacity_campaign(&cfg);
        assert!(report.outcome.is_complete());
        let one_shot = gateway_capacity(&infra(), &c);
        assert_eq!(report.to_gateway_capacity(), one_shot);
    }

    #[test]
    fn budget_stops_on_wave_boundary_and_resume_completes() {
        let path = std::env::temp_dir()
            .join(format!("wlan_cap_resume_{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let c = clients(40);

        let mut loops: u64 = 0;
        let resumed = loop {
            // Cumulative trial budget: each invocation may route one more
            // wave beyond what the journal already holds.
            let cfg = CapacityCampaignConfig::new(&infra(), &c)
                .with_budget(
                    Budget::unlimited().with_max_trials(CLIENTS_PER_WAVE as u64 * (loops + 1)),
                )
                .with_journal(path.clone())
                .with_threads(1);
            let r = run_capacity_campaign(&cfg);
            loops += 1;
            assert!(loops < 10, "failed to converge");
            match r.outcome {
                Outcome::Complete => break r,
                Outcome::Partial { completed, .. } => {
                    assert_eq!(completed % CLIENTS_PER_WAVE as u64, 0);
                }
            }
        };
        assert!(loops > 1);
        let one_shot = gateway_capacity(&infra(), &c);
        let got = resumed.to_gateway_capacity();
        assert_eq!(got, one_shot);
        assert_eq!(
            got.round_airtime_us.to_bits(),
            one_shot.round_airtime_us.to_bits(),
            "resumed fold must be bit-identical"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_journal_cold_starts() {
        let path = std::env::temp_dir()
            .join(format!("wlan_cap_corrupt_{}.journal", std::process::id()));
        let c = clients(40);
        let cfg = CapacityCampaignConfig::new(&infra(), &c)
            .with_budget(Budget::unlimited().with_max_trials(16))
            .with_journal(path.clone())
            .with_threads(1);
        run_capacity_campaign(&cfg);
        // Flip one byte of the verified journal: a strict kind never
        // salvages, so the whole campaign restarts.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let report = run_capacity_campaign(&cfg.clone().with_budget(Budget::unlimited()));
        assert!(
            matches!(report.resume, Resume::ColdStart { .. }),
            "{:?}",
            report.resume
        );
        assert!(report.outcome.is_complete());
        assert_eq!(report.to_gateway_capacity(), gateway_capacity(&infra(), &c));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_client_list_is_complete_with_nothing_routed() {
        let cfg = CapacityCampaignConfig::new(&infra(), &[])
            .with_budget(Budget::unlimited())
            .with_threads(1);
        let report = run_capacity_campaign(&cfg);
        assert!(report.outcome.is_complete());
        assert_eq!(report.to_gateway_capacity(), gateway_capacity(&infra(), &[]));
    }
}
