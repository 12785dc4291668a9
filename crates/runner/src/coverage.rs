//! Survivable mesh-coverage campaigns.
//!
//! Wraps `wlan_mesh::coverage::estimate_coverage_seeded` in budgets,
//! checkpoint/resume, and Wilson-score early stopping on the covered
//! fraction. Sample `i` always draws from `master.fork(i)` and the
//! covered-count/throughput fold walks samples singly in sample order —
//! the exact association the one-shot estimator uses — so a campaign run
//! to `max_samples` equals `estimate_coverage_seeded` bit-for-bit, and a
//! resumed campaign (throughput sum journaled as an IEEE bit pattern at
//! a round boundary) continues the same fold bit-identically.

use std::path::PathBuf;

use wlan_mesh::coverage::{coverage_sample, Coverage};
use wlan_math::ci::{wilson95, Interval};
use wlan_math::par;
use wlan_math::rng::WlanRng;

use crate::budget::{Budget, Outcome};
use crate::campaign::{drive, Campaign, Wave};
use crate::journal::{f64_to_hex, kv, kv_f64, kv_u64, JournalError};
use crate::Resume;

/// Samples per wave: budget checks, stopping decisions, and checkpoints
/// land only on these boundaries.
pub const SAMPLES_PER_ROUND: u64 = 64;
const SAMPLES_PER_BATCH: usize = 8;

/// Configuration for a survivable coverage campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageCampaignConfig {
    /// Mesh node positions (node 0 is the gateway).
    pub infrastructure: Vec<(f64, f64)>,
    /// Side of the sampled square region, metres.
    pub side_m: f64,
    /// Hard cap on samples.
    pub max_samples: u64,
    /// No early stop before this many samples.
    pub min_samples: u64,
    /// Early-stop once the Wilson 95 % half-width on the covered
    /// fraction reaches this; `None` always runs `max_samples`.
    pub target_half_width: Option<f64>,
    /// Master seed; sample `i` uses stream `seed → fork(i)`.
    pub seed: u64,
    /// Resource limits: `max_trials` (= samples) is cumulative across
    /// resume, `wall_ms` is per-invocation (see [`crate::budget`]).
    pub budget: Budget,
    /// Checkpoint journal path; `None` disables checkpointing.
    pub journal: Option<PathBuf>,
    /// Worker threads; `None` = the `WLAN_THREADS` pool.
    pub threads: Option<usize>,
}

impl CoverageCampaignConfig {
    /// A campaign equivalent to `estimate_coverage_seeded(infra, side_m,
    /// max_samples, seed)`: no early stopping, budget from the
    /// environment, no journal.
    pub fn new(infrastructure: &[(f64, f64)], side_m: f64, max_samples: u64, seed: u64) -> Self {
        Self {
            infrastructure: infrastructure.to_vec(),
            side_m,
            max_samples,
            min_samples: SAMPLES_PER_ROUND,
            target_half_width: None,
            seed,
            budget: Budget::from_env(),
            journal: None,
            threads: None,
        }
    }

    /// Enables Wilson-score early stopping at the given 95 % half-width.
    pub fn with_target_half_width(mut self, hw: f64) -> Self {
        self.target_half_width = Some(hw);
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

/// The full result of a coverage campaign invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageCampaignReport {
    /// Samples evaluated.
    pub samples: u64,
    /// Samples that reached the gateway at some rate.
    pub covered: u64,
    /// Sum of end-to-end throughputs over covered samples (Mbps).
    pub throughput_sum: f64,
    /// `true` when the CI target stopped the campaign before
    /// `max_samples`.
    pub stopped_early: bool,
    /// Whether the campaign finished or hit a budget.
    pub outcome: Outcome,
    /// How this invocation started.
    pub resume: Resume,
    /// Set when a checkpoint failed to write.
    pub journal_error: Option<JournalError>,
}

impl CoverageCampaignReport {
    /// Wilson 95 % confidence interval on the covered fraction; `None`
    /// before any sample has run.
    pub fn ci(&self) -> Option<Interval> {
        (self.samples > 0).then(|| wilson95(self.covered, self.samples))
    }

    /// Compatibility view as the one-shot estimator's result type.
    pub fn to_coverage(&self) -> Coverage {
        Coverage {
            covered_fraction: if self.samples > 0 {
                self.covered as f64 / self.samples as f64
            } else {
                f64::NAN
            },
            mean_throughput_mbps: if self.covered > 0 {
                self.throughput_sum / self.covered as f64
            } else {
                0.0
            },
            samples: self.samples as usize,
        }
    }
}

/// Runs (or resumes) a survivable coverage campaign.
///
/// # Panics
///
/// Panics if `infrastructure` is empty, `max_samples` is zero, or
/// `min_samples` is zero.
pub fn run_coverage_campaign(cfg: &CoverageCampaignConfig) -> CoverageCampaignReport {
    assert!(!cfg.infrastructure.is_empty(), "need at least a gateway node");
    assert!(cfg.max_samples > 0, "need at least one sample");
    assert!(cfg.min_samples > 0, "min_samples must be at least 1");

    let campaign = CoverageCampaign {
        cfg,
        master: WlanRng::seed_from_u64(cfg.seed),
    };
    let run = drive(&campaign, cfg.budget, cfg.journal.as_deref(), 1);
    CoverageCampaignReport {
        samples: run.state.samples,
        covered: run.state.covered,
        throughput_sum: run.state.throughput_sum,
        stopped_early: run.state.samples < cfg.max_samples && run.outcome.is_complete(),
        outcome: run.outcome,
        resume: run.resume,
        journal_error: run.journal_error,
    }
}

/// Samples evaluated, how many were covered, and their throughput sum.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Tally {
    samples: u64,
    covered: u64,
    throughput_sum: f64,
}

struct CoverageCampaign<'a> {
    cfg: &'a CoverageCampaignConfig,
    master: WlanRng,
}

impl Campaign for CoverageCampaign<'_> {
    type State = Tally;
    const KIND: &'static str = "coverage";
    const SALVAGE: bool = false;

    fn key(&self) -> String {
        let cfg = self.cfg;
        let infra: Vec<String> = cfg
            .infrastructure
            .iter()
            .map(|&(x, y)| format!("{},{}", f64_to_hex(x), f64_to_hex(y)))
            .collect();
        let target = match cfg.target_half_width {
            Some(t) => f64_to_hex(t),
            None => "none".to_owned(),
        };
        format!(
            "coverage v1 seed={} side={} max={} min={} target={} infra={}",
            cfg.seed,
            f64_to_hex(cfg.side_m),
            cfg.max_samples,
            cfg.min_samples,
            target,
            infra.join(";"),
        )
    }

    fn fresh(&self) -> Tally {
        Tally::default()
    }

    /// One `cov` line; `done=yes` marks a journal that resumes as
    /// complete.
    fn encode(&self, t: &Tally) -> Vec<String> {
        vec![format!(
            "cov samples={} covered={} tsum={} done={}",
            t.samples,
            t.covered,
            f64_to_hex(t.throughput_sum),
            if self.done(t) { "yes" } else { "no" }
        )]
    }

    /// The `done` flag is validated but not stored: the stopping rule
    /// recomputes it from the tallies.
    fn decode(&self, body: &[String], _complete: bool) -> Result<Tally, JournalError> {
        let [line] = body else {
            return Err(JournalError::Truncated);
        };
        let parsed = (|| {
            let mut t = line.strip_prefix("cov ")?.split_whitespace();
            let samples = kv_u64(t.next()?, "samples")?;
            let covered = kv_u64(t.next()?, "covered")?;
            let throughput_sum = kv_f64(t.next()?, "tsum")?;
            let done = kv(t.next()?, "done")?;
            let valid = matches!(done, "yes" | "no")
                && t.next().is_none()
                && samples <= self.cfg.max_samples
                && covered <= samples
                && throughput_sum.is_finite();
            valid.then_some(Tally {
                samples,
                covered,
                throughput_sum,
            })
        })();
        parsed.ok_or(JournalError::Malformed { line: 3 })
    }

    fn trials(&self, t: &Tally) -> u64 {
        t.samples
    }

    fn wave(&self, t: &mut Tally) -> Wave {
        let cfg = self.cfg;
        let start = t.samples;
        let end = cfg.max_samples.min(start + SAMPLES_PER_ROUND);
        let work: Vec<std::ops::Range<u64>> = par::batches((end - start) as usize, SAMPLES_PER_BATCH)
            .into_iter()
            .map(|b| start + b.start as u64..start + b.end as u64)
            .collect();
        let run_batch = |_: usize, range: &std::ops::Range<u64>| {
            range
                .clone()
                .map(|i| coverage_sample(&cfg.infrastructure, cfg.side_m, &self.master, i))
                .collect::<Vec<(bool, f64)>>()
        };
        let threads = cfg.threads.unwrap_or_else(par::num_threads);
        let batches = par::parallel_map_with_threads(threads, &work, run_batch);

        // Single-sample fold in sample order: the same float association
        // as `estimate_coverage_seeded`'s reduction.
        for (hit, throughput) in batches.iter().flatten() {
            t.covered += *hit as u64;
            t.throughput_sum += throughput;
        }
        t.samples = end;
        Wave {
            trials: end - start,
            early_stops: if end < cfg.max_samples && self.done(t) {
                vec![0]
            } else {
                Vec::new()
            },
            ..Wave::default()
        }
    }

    /// All samples run, or the Wilson CI on the covered fraction is tight
    /// enough.
    fn done(&self, t: &Tally) -> bool {
        let cfg = self.cfg;
        t.samples >= cfg.max_samples
            || cfg.target_half_width.is_some_and(|target| {
                t.samples >= cfg.min_samples
                    && wilson95(t.covered, t.samples).half_width() <= target
            })
    }

    fn remaining(&self, t: &Tally) -> u64 {
        self.cfg.max_samples - t.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_mesh::coverage::estimate_coverage_seeded;

    fn mesh() -> Vec<(f64, f64)> {
        vec![(50.0, 50.0), (220.0, 50.0), (50.0, 220.0), (220.0, 220.0)]
    }

    #[test]
    fn complete_campaign_matches_one_shot_estimator() {
        let cfg = CoverageCampaignConfig::new(&mesh(), 450.0, 256, 5)
            .with_budget(Budget::unlimited())
            .with_threads(1);
        let report = run_coverage_campaign(&cfg);
        assert!(report.outcome.is_complete());
        assert!(!report.stopped_early);
        let one_shot = estimate_coverage_seeded(&mesh(), 450.0, 256, 5);
        assert_eq!(report.to_coverage(), one_shot);
    }

    #[test]
    fn early_stopping_reports_achieved_ci() {
        let cfg = CoverageCampaignConfig::new(&mesh(), 450.0, 100_000, 5)
            .with_budget(Budget::unlimited())
            .with_target_half_width(0.08)
            .with_threads(1);
        let report = run_coverage_campaign(&cfg);
        assert!(report.outcome.is_complete());
        assert!(report.stopped_early);
        assert!(report.samples < 100_000, "stopped at {}", report.samples);
        assert_eq!(report.samples % SAMPLES_PER_ROUND, 0);
        let ci = report.ci().unwrap();
        assert!(ci.half_width() <= 0.08, "achieved {}", ci.half_width());
        assert!(ci.contains(report.to_coverage().covered_fraction));
    }

    #[test]
    fn resume_is_bit_identical_to_uninterrupted() {
        let path = std::env::temp_dir()
            .join(format!("wlan_cov_resume_{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let uninterrupted = run_coverage_campaign(
            &CoverageCampaignConfig::new(&mesh(), 450.0, 256, 5)
                .with_budget(Budget::unlimited())
                .with_threads(1),
        );

        let mut loops: u64 = 0;
        let resumed = loop {
            // Cumulative trial budget: each invocation may bank one more
            // round beyond what the journal already holds.
            let cfg = CoverageCampaignConfig::new(&mesh(), 450.0, 256, 5)
                .with_budget(Budget::unlimited().with_max_trials(SAMPLES_PER_ROUND * (loops + 1)))
                .with_journal(path.clone())
                .with_threads(1);
            let r = run_coverage_campaign(&cfg);
            loops += 1;
            assert!(loops < 20, "failed to converge");
            if r.outcome.is_complete() {
                break r;
            }
        };
        assert!(loops > 1);
        assert_eq!(resumed.samples, uninterrupted.samples);
        assert_eq!(resumed.covered, uninterrupted.covered);
        assert_eq!(
            resumed.throughput_sum.to_bits(),
            uninterrupted.throughput_sum.to_bits(),
            "resumed fold must be bit-identical"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_journal_cold_starts() {
        let path = std::env::temp_dir()
            .join(format!("wlan_cov_corrupt_{}.journal", std::process::id()));
        std::fs::write(&path, "garbage\n").unwrap();
        let cfg = CoverageCampaignConfig::new(&mesh(), 450.0, 128, 5)
            .with_budget(Budget::unlimited())
            .with_journal(path.clone())
            .with_threads(1);
        let report = run_coverage_campaign(&cfg);
        assert!(matches!(report.resume, Resume::ColdStart { .. }));
        assert!(report.outcome.is_complete());
        let _ = std::fs::remove_file(&path);
    }
}
