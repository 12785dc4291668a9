//! Survivable MAC traffic-ensemble campaigns.
//!
//! Wraps `wlan_mac::traffic::simulate_traffic_multi` in budgets,
//! checkpoint/resume, and run quarantine. The ensemble's parallel unit is
//! the run: run `r` always uses `ensemble_seed(cfg.seed, r)`, runs are
//! processed in index order in fixed-size waves, and checkpoints land
//! only on wave boundaries — so the set of finished runs is always an
//! index prefix, and a resumed campaign's ensemble equals the
//! uninterrupted one's bit-for-bit (per-run floats are journaled as IEEE
//! bit patterns and the summary statistics are re-folded in run order
//! from those exact values).
//!
//! Quarantine here means *step-budget truncation*: a run whose
//! contention-loop step count exceeds `max_steps_per_run` (runaway
//! backoff under pathological loss) is excluded from the ensemble
//! statistics and recorded with its derived seed and step count, so it
//! can be re-run and dissected standalone while the campaign completes.

use std::path::PathBuf;

use wlan_mac::traffic::{
    ensemble_seed, simulate_traffic_stepped, TrafficConfig, TrafficEnsemble, TrafficResult,
};
use wlan_math::par;
use wlan_math::stats::RunningStats;

use crate::budget::{Budget, Outcome};
use crate::campaign::{drive, Campaign, Wave};
use crate::journal::{self, f64_to_hex, kv_f64, kv_u64, JournalError};
use crate::quarantine::QuarantinedRun;
use crate::Resume;

/// Runs per wave: budget checks and checkpoints land between waves.
pub const RUNS_PER_WAVE: usize = 4;

/// Configuration for a survivable traffic-ensemble campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficCampaignConfig {
    /// The per-run simulation configuration (its `seed` is the ensemble
    /// master seed; run `r` uses `ensemble_seed(seed, r)`).
    pub base: TrafficConfig,
    /// Ensemble size.
    pub runs: usize,
    /// Per-run step budget; a run exceeding it is quarantined.
    /// `u64::MAX` disables quarantine.
    pub max_steps_per_run: u64,
    /// Resource limits: `max_trials` (= runs) is cumulative across
    /// resume, `wall_ms` is per-invocation (see [`crate::budget`]).
    pub budget: Budget,
    /// Checkpoint journal path; `None` disables checkpointing.
    pub journal: Option<PathBuf>,
    /// Worker threads; `None` = the `WLAN_THREADS` pool.
    pub threads: Option<usize>,
}

impl TrafficCampaignConfig {
    /// A campaign equivalent to `simulate_traffic_multi(base, runs)`:
    /// no step budget, budget from the environment, no journal.
    pub fn new(base: TrafficConfig, runs: usize) -> Self {
        Self {
            base,
            runs,
            max_steps_per_run: u64::MAX,
            budget: Budget::from_env(),
            journal: None,
            threads: None,
        }
    }

    /// Sets the per-run step budget (quarantine threshold).
    pub fn with_max_steps(mut self, steps: u64) -> Self {
        self.max_steps_per_run = steps;
        self
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

/// One finished run: either a result or a quarantine entry.
#[derive(Debug, Clone, PartialEq)]
enum RunRecord {
    Done(usize, TrafficResult),
    Quarantined(QuarantinedRun),
}

impl RunRecord {
    fn index(&self) -> usize {
        match self {
            RunRecord::Done(i, _) => *i,
            RunRecord::Quarantined(q) => q.run,
        }
    }

    fn to_line(&self) -> String {
        match self {
            RunRecord::Done(i, r) => format!(
                "run i={i} offered={} delivered={} meand={} p95={} backlog={} retries={} dropped={} prot={}",
                f64_to_hex(r.offered_mbps),
                f64_to_hex(r.delivered_mbps),
                f64_to_hex(r.mean_delay_us),
                f64_to_hex(r.p95_delay_us),
                r.backlog,
                r.retries,
                r.dropped,
                r.protected_tx,
            ),
            RunRecord::Quarantined(q) => q.to_line(),
        }
    }

    fn from_line(line: &str) -> Option<Self> {
        if line.starts_with("quarrun ") {
            return QuarantinedRun::from_line(line).map(RunRecord::Quarantined);
        }
        let rest = line.strip_prefix("run ")?;
        let mut t = rest.split_whitespace();
        let i = kv_u64(t.next()?, "i")? as usize;
        let offered_mbps = kv_f64(t.next()?, "offered")?;
        let delivered_mbps = kv_f64(t.next()?, "delivered")?;
        let mean_delay_us = kv_f64(t.next()?, "meand")?;
        let p95_delay_us = kv_f64(t.next()?, "p95")?;
        let backlog = kv_u64(t.next()?, "backlog")? as usize;
        let retries = kv_u64(t.next()?, "retries")?;
        let dropped = kv_u64(t.next()?, "dropped")?;
        let protected_tx = kv_u64(t.next()?, "prot")?;
        if t.next().is_some() {
            return None;
        }
        Some(RunRecord::Done(
            i,
            TrafficResult {
                offered_mbps,
                delivered_mbps,
                mean_delay_us,
                p95_delay_us,
                backlog,
                retries,
                dropped,
                protected_tx,
            },
        ))
    }
}

/// The full result of a traffic campaign invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficCampaignReport {
    /// Completed runs as `(run index, result)`, in run order.
    pub runs: Vec<(usize, TrafficResult)>,
    /// Step-budget-truncated runs, in run order.
    pub quarantine: Vec<QuarantinedRun>,
    /// Delivered throughput across completed runs (Mbps).
    pub delivered_mbps: RunningStats,
    /// Mean frame delay across completed runs (µs).
    pub mean_delay_us: RunningStats,
    /// Dropped frames across completed runs.
    pub dropped: RunningStats,
    /// Whether the campaign finished or hit a budget.
    pub outcome: Outcome,
    /// How this invocation started.
    pub resume: Resume,
    /// Set when a checkpoint failed to write.
    pub journal_error: Option<JournalError>,
}

impl TrafficCampaignReport {
    /// Compatibility view as [`TrafficEnsemble`] over the completed runs.
    /// With no quarantine and a complete outcome this equals
    /// `simulate_traffic_multi` bit-for-bit.
    pub fn to_ensemble(&self) -> TrafficEnsemble {
        TrafficEnsemble {
            runs: self.runs.iter().map(|(_, r)| *r).collect(),
            delivered_mbps: self.delivered_mbps,
            mean_delay_us: self.mean_delay_us,
            dropped: self.dropped,
        }
    }
}

/// Runs (or resumes) a survivable traffic-ensemble campaign.
///
/// # Panics
///
/// Panics if `runs` is zero (the underlying simulator's own
/// preconditions — positive rates and times — apply per run).
pub fn run_traffic_campaign(cfg: &TrafficCampaignConfig) -> TrafficCampaignReport {
    assert!(cfg.runs > 0, "need at least one run");

    let run = drive(&TrafficCampaign(cfg), cfg.budget, cfg.journal.as_deref(), 1);

    // Summary statistics: re-folded in run order from the exact per-run
    // values (journaled as bit patterns), so resumed == uninterrupted.
    let mut runs = Vec::new();
    let mut quarantine = Vec::new();
    let mut delivered_mbps = RunningStats::new();
    let mut mean_delay_us = RunningStats::new();
    let mut dropped = RunningStats::new();
    for rec in run.state {
        match rec {
            RunRecord::Done(i, r) => {
                delivered_mbps.push(r.delivered_mbps);
                mean_delay_us.push(r.mean_delay_us);
                dropped.push(r.dropped as f64);
                runs.push((i, r));
            }
            RunRecord::Quarantined(q) => quarantine.push(q),
        }
    }

    TrafficCampaignReport {
        runs,
        quarantine,
        delivered_mbps,
        mean_delay_us,
        dropped,
        outcome: run.outcome,
        resume: run.resume,
        journal_error: run.journal_error,
    }
}

/// The finished runs are always an index prefix, one record per run.
struct TrafficCampaign<'a>(&'a TrafficCampaignConfig);

impl Campaign for TrafficCampaign<'_> {
    type State = Vec<RunRecord>;
    const KIND: &'static str = "traffic";
    const SALVAGE: bool = false;

    fn key(&self) -> String {
        format!(
            "traffic v1 runs={} maxsteps={} cfg={:?}",
            self.0.runs, self.0.max_steps_per_run, self.0.base
        )
    }

    fn fresh(&self) -> Vec<RunRecord> {
        Vec::new()
    }

    fn encode(&self, records: &Vec<RunRecord>) -> Vec<String> {
        records.iter().map(RunRecord::to_line).collect()
    }

    fn decode(&self, body: &[String], _complete: bool) -> Result<Vec<RunRecord>, JournalError> {
        let mut records = Vec::with_capacity(body.len());
        journal::decode_lines(body, |line| {
            // Finished runs must form an index prefix in order — anything
            // else means the journal was not written by this campaign shape.
            let next = records.len();
            match RunRecord::from_line(line) {
                Some(rec) if rec.index() == next && next < self.0.runs => {
                    records.push(rec);
                    true
                }
                _ => false,
            }
        })?;
        Ok(records)
    }

    fn trials(&self, records: &Vec<RunRecord>) -> u64 {
        records.len() as u64
    }

    fn wave(&self, records: &mut Vec<RunRecord>) -> Wave {
        let done = records.len();
        let wave: Vec<usize> = (done..self.0.runs.min(done + RUNS_PER_WAVE)).collect();
        let run_one = |_: usize, &r: &usize| {
            let seed = ensemble_seed(self.0.base.seed, r);
            let stepped = simulate_traffic_stepped(
                &TrafficConfig {
                    seed,
                    ..self.0.base
                },
                self.0.max_steps_per_run,
            );
            if stepped.truncated {
                RunRecord::Quarantined(QuarantinedRun {
                    run: r,
                    seed,
                    steps: stepped.steps,
                })
            } else {
                RunRecord::Done(r, stepped.result)
            }
        };
        let threads = self.0.threads.unwrap_or_else(par::num_threads);
        let wave_records = par::parallel_map_with_threads(threads, &wave, run_one);
        let quarantined = wave_records
            .iter()
            .filter(|r| matches!(r, RunRecord::Quarantined(_)))
            .count();
        records.extend(wave_records);
        Wave {
            trials: wave.len() as u64,
            quarantined: quarantined as u64,
            ..Wave::default()
        }
    }

    fn done(&self, records: &Vec<RunRecord>) -> bool {
        records.len() >= self.0.runs
    }

    fn remaining(&self, records: &Vec<RunRecord>) -> u64 {
        (self.0.runs - records.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_mac::arq::{ArqConfig, GeLossConfig};
    use wlan_mac::traffic::simulate_traffic_multi;
    use wlan_mac::MacProfile;

    fn base() -> TrafficConfig {
        TrafficConfig {
            profile: MacProfile::dot11a(54.0),
            n_stations: 4,
            payload_bytes: 800,
            arrival_rate_hz: 60.0,
            sim_time_us: 200_000.0,
            seed: 33,
            arq: ArqConfig::disabled(),
            loss: GeLossConfig::clean(),
        }
    }

    #[test]
    fn complete_campaign_matches_simulate_traffic_multi() {
        let cfg = TrafficCampaignConfig::new(base(), 6)
            .with_budget(Budget::unlimited())
            .with_threads(1);
        let report = run_traffic_campaign(&cfg);
        assert!(report.outcome.is_complete());
        assert!(report.quarantine.is_empty());
        let ensemble = simulate_traffic_multi(&base(), 6);
        assert_eq!(report.to_ensemble(), ensemble);
    }

    #[test]
    fn budget_stops_on_wave_boundary() {
        let cfg = TrafficCampaignConfig::new(base(), 10)
            .with_budget(Budget::unlimited().with_max_trials(4))
            .with_threads(1);
        let report = run_traffic_campaign(&cfg);
        assert_eq!(
            report.outcome,
            Outcome::Partial {
                completed: 4,
                remaining: 6,
                reason: crate::budget::StopReason::TrialBudget
            }
        );
        assert_eq!(report.runs.len(), 4);
    }

    #[test]
    fn resume_from_journal_matches_uninterrupted() {
        let path = std::env::temp_dir()
            .join(format!("wlan_traffic_resume_{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let uninterrupted = run_traffic_campaign(
            &TrafficCampaignConfig::new(base(), 8)
                .with_budget(Budget::unlimited())
                .with_threads(1),
        );

        // The trial budget is cumulative across resume, so each loop
        // raises the cap by one wave's worth of runs.
        let mut loops: u64 = 0;
        let resumed = loop {
            let cfg = TrafficCampaignConfig::new(base(), 8)
                .with_budget(Budget::unlimited().with_max_trials(4 * (loops + 1)))
                .with_journal(path.clone())
                .with_threads(1);
            let r = run_traffic_campaign(&cfg);
            loops += 1;
            assert!(loops < 10, "failed to converge");
            if r.outcome.is_complete() {
                break r;
            }
        };
        assert!(loops > 1);
        assert!(matches!(resumed.resume, Resume::Resumed { .. }));
        assert_eq!(resumed.runs, uninterrupted.runs);
        assert_eq!(resumed.delivered_mbps, uninterrupted.delivered_mbps);
        assert_eq!(resumed.mean_delay_us, uninterrupted.mean_delay_us);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_journal_cold_starts() {
        let path = std::env::temp_dir()
            .join(format!("wlan_traffic_corrupt_{}.journal", std::process::id()));
        let cfg = TrafficCampaignConfig::new(base(), 6)
            .with_budget(Budget::unlimited())
            .with_journal(path.clone())
            .with_threads(1);
        // A checksum-valid journal whose first record is not run 0.
        journal::save(&path, &TrafficCampaign(&cfg).key(), &["run i=3".to_owned()]).unwrap();
        let report = run_traffic_campaign(&cfg);
        assert_eq!(
            report.resume,
            Resume::ColdStart {
                error: JournalError::Malformed { line: 3 }
            }
        );
        assert!(report.outcome.is_complete());
        assert_eq!(report.to_ensemble(), simulate_traffic_multi(&base(), 6));
        // The cold start rewrote the journal: it now resumes as complete.
        let again = run_traffic_campaign(&cfg);
        assert_eq!(again.resume, Resume::Resumed { trials: 6 });
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tiny_step_budget_quarantines_runs_but_completes() {
        let cfg = TrafficCampaignConfig::new(base(), 4)
            .with_budget(Budget::unlimited())
            .with_max_steps(50)
            .with_threads(1);
        let report = run_traffic_campaign(&cfg);
        assert!(report.outcome.is_complete());
        assert_eq!(report.quarantine.len(), 4, "50 steps cannot finish 200 ms");
        assert!(report.runs.is_empty());
        for (i, q) in report.quarantine.iter().enumerate() {
            assert_eq!(q.run, i);
            assert_eq!(q.seed, ensemble_seed(base().seed, i));
            assert!(q.steps >= 50);
        }
    }

    #[test]
    fn quarantined_runs_round_trip_through_journal() {
        let path = std::env::temp_dir()
            .join(format!("wlan_traffic_quar_{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = TrafficCampaignConfig::new(base(), 4)
            .with_budget(Budget::unlimited())
            .with_max_steps(50)
            .with_journal(path.clone())
            .with_threads(1);
        let first = run_traffic_campaign(&cfg);
        // Re-invoking a complete campaign resumes it without re-running.
        let second = run_traffic_campaign(&cfg);
        assert!(matches!(second.resume, Resume::Resumed { trials: 4 }));
        assert_eq!(second.quarantine, first.quarantine);
        let _ = std::fs::remove_file(&path);
    }
}
