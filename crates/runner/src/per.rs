//! Survivable PER campaigns over any [`PhyLink`].
//!
//! Wraps `wlan_core::linksim::sweep_per_faulted`'s trial streams in the
//! four robustness mechanisms: budgets, checkpoint/resume, sequential
//! early stopping (Wilson score), and trial quarantine.
//!
//! # Determinism contract
//!
//! A campaign advances every active SNR point by one *round* of
//! [`ROUND_TRIALS`] frame trials per wave. Trial `(point, frame)` draws
//! its whole universe from `master.fork(point).fork(frame)` — identical
//! to the one-shot sweep — and tallies are integers folded in work-item
//! order, so:
//!
//! * run to completion with early stopping disabled, the campaign's
//!   per-point tallies equal `sweep_per_faulted`'s bit-for-bit at any
//!   `WLAN_THREADS` setting;
//! * stopping decisions are pure functions of the integer tallies `(k,
//!   n)` evaluated only at round boundaries, so a campaign interrupted
//!   (budget, `SIGKILL`) and resumed from its journal reaches the same
//!   final report, bit-identically, as one that never stopped;
//! * a budget-terminated campaign's partial tallies are an exact prefix
//!   of the uninterrupted campaign's (the wave schedule never depends on
//!   wall-clock — only *how many* waves ran does).

use std::collections::HashSet;
use std::path::PathBuf;

use wlan_core::linksim::{
    frame_trial_at, run_frames, FaultSweep, FaultSweepPoint, PhyLink, RoundTally, FRAMES_PER_BATCH,
};
use wlan_fault::FaultChain;
use wlan_math::ci::{wilson95, Interval};
use wlan_math::par;
use wlan_math::rng::WlanRng;

use crate::budget::{Budget, Outcome};
use crate::campaign::{drive, Campaign, Wave};
use crate::journal::{self, f64_to_hex, kv, kv_u64, JournalError};
use crate::quarantine::QuarantinedTrial;
use crate::Resume;

/// Frame trials one wave adds to each active point: four 8-frame batches,
/// matching the one-shot sweep's batch grain. Stopping rules and
/// checkpoints land only on round boundaries, so the set of trials a
/// point executes is a pure function of its tallies — never of where an
/// interruption fell.
pub const ROUND_TRIALS: u64 = 32;

/// Configuration for a survivable PER campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct PerCampaignConfig {
    /// SNR points to sweep, in dB.
    pub snrs_db: Vec<f64>,
    /// Payload bytes per frame trial.
    pub payload_len: usize,
    /// Hard cap on frame trials per point.
    pub max_frames: u64,
    /// No early stop before this many trials per point.
    pub min_frames: u64,
    /// Early-stop a point once its Wilson 95 % half-width reaches this;
    /// `None` disables early stopping (every point runs `max_frames`).
    pub target_half_width: Option<f64>,
    /// Master seed; trial `(i, j)` uses stream `seed → fork(i) → fork(j)`.
    pub seed: u64,
    /// Resource limits: `max_trials` is cumulative across resume,
    /// `wall_ms` is per-invocation (see [`crate::budget`] module docs).
    pub budget: Budget,
    /// Checkpoint journal path (written after every wave); `None`
    /// disables checkpointing.
    pub journal: Option<PathBuf>,
    /// Worker threads; `None` = the `WLAN_THREADS` pool. Results are
    /// identical either way — this exists so tests can pin a thread count
    /// without racing on the environment.
    pub threads: Option<usize>,
}

impl PerCampaignConfig {
    /// A campaign equivalent to `sweep_per_faulted(link, faults, snrs,
    /// payload_len, max_frames, seed)`: no early stopping, budget from
    /// the environment, no journal.
    pub fn new(snrs_db: &[f64], payload_len: usize, max_frames: u64, seed: u64) -> Self {
        Self {
            snrs_db: snrs_db.to_vec(),
            payload_len,
            max_frames,
            min_frames: ROUND_TRIALS,
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

    /// The preconditions every PER campaign, single-process or
    /// distributed, checks before it starts.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is vacuous: no SNR points, zero
    /// `payload_len`, zero `max_frames`, or `min_frames == 0`.
    pub fn assert_valid(&self) {
        assert!(!self.snrs_db.is_empty(), "need at least one SNR point");
        assert!(self.payload_len > 0, "payload must be nonempty");
        assert!(self.max_frames > 0, "need at least one frame per point");
        assert!(self.min_frames > 0, "min_frames must be at least 1");
    }

    /// The journal key: every parameter that shapes trial streams or
    /// stopping decisions. Budgets and thread counts are deliberately
    /// absent — resuming under a different budget or thread count is the
    /// whole point. Public so the distributed
    /// coordinator (`wlan-dist`) can derive its own journal key from the
    /// same campaign identity.
    pub fn journal_key(&self, link: &dyn PhyLink, faults: &FaultChain) -> String {
        let snrs: Vec<String> = self.snrs_db.iter().map(|&s| f64_to_hex(s)).collect();
        let target = match self.target_half_width {
            Some(t) => f64_to_hex(t),
            None => "none".to_owned(),
        };
        format!(
            "per v1 seed={} payload={} max={} min={} target={} snrs={} link={} fault={}",
            self.seed,
            self.payload_len,
            self.max_frames,
            self.min_frames,
            target,
            snrs.join(","),
            link.name(),
            faults.name(),
        )
    }
}

/// Where one SNR point stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointStatus {
    /// Still accumulating trials.
    Active,
    /// Hit the target CI half-width before `max_frames`.
    StoppedEarly,
    /// Ran the full `max_frames` trials.
    Exhausted,
}

impl PointStatus {
    fn as_str(self) -> &'static str {
        match self {
            PointStatus::Active => "active",
            PointStatus::StoppedEarly => "early",
            PointStatus::Exhausted => "full",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "active" => Some(PointStatus::Active),
            "early" => Some(PointStatus::StoppedEarly),
            "full" => Some(PointStatus::Exhausted),
            _ => None,
        }
    }
}

/// Tallies and status of one SNR point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointProgress {
    /// SNR in dB.
    pub snr_db: f64,
    /// Frame trials executed.
    pub trials: u64,
    /// Frames the receiver got wrong (silent corruption plus erasures).
    pub errors: u64,
    /// Trials ending in a typed [`wlan_math::WlanError`] erasure.
    pub erasures: u64,
    /// Whether the point is done, and why.
    pub status: PointStatus,
}

impl PointProgress {
    /// Measured PER so far (`NaN` before any trial has run, matching the
    /// aborted-sweep placeholder convention `snr_for_per` skips).
    pub fn per(&self) -> f64 {
        if self.trials == 0 {
            f64::NAN
        } else {
            self.errors as f64 / self.trials as f64
        }
    }

    /// Erasure fraction so far (`NaN` before any trial).
    pub fn erasure_rate(&self) -> f64 {
        if self.trials == 0 {
            f64::NAN
        } else {
            self.erasures as f64 / self.trials as f64
        }
    }

    /// Wilson 95 % confidence interval on the PER; `None` before any
    /// trial has run.
    pub fn ci(&self) -> Option<Interval> {
        (self.trials > 0).then(|| wilson95(self.errors, self.trials))
    }

    /// Journal body line for this point (see [`PerProgress::decode`]).
    pub fn to_line(self, index: usize) -> String {
        format!(
            "point i={index} trials={} errors={} erasures={} status={}",
            self.trials,
            self.errors,
            self.erasures,
            self.status.as_str()
        )
    }

    /// Parses [`PointProgress::to_line`] output for point `index` of
    /// `cfg`; `None` on any malformation or out-of-range tally. A
    /// campaign banks whole rounds only, so a frontier off the
    /// [`ROUND_TRIALS`] grid (short of `max_frames`) is malformed too.
    fn from_line(line: &str, index: usize, cfg: &PerCampaignConfig) -> Option<Self> {
        let mut tokens = line.strip_prefix("point ")?.split_whitespace();
        let i = kv_u64(tokens.next()?, "i")? as usize;
        let trials = kv_u64(tokens.next()?, "trials")?;
        let errors = kv_u64(tokens.next()?, "errors")?;
        let erasures = kv_u64(tokens.next()?, "erasures")?;
        let status = PointStatus::parse(kv(tokens.next()?, "status")?)?;
        let valid = tokens.next().is_none()
            && i == index
            && i < cfg.snrs_db.len()
            && trials <= cfg.max_frames
            && (trials.is_multiple_of(ROUND_TRIALS) || trials == cfg.max_frames)
            && errors <= trials
            && erasures <= errors;
        valid.then(|| PointProgress {
            snr_db: cfg.snrs_db[i],
            trials,
            errors,
            erasures,
            status,
        })
    }
}

/// What a PER journal restores: per-point tallies and the trial
/// quarantine ledger. The distributed coordinator holds one too, folds
/// its workers' rounds into it with [`PerProgress::fold_round`], and
/// journals it with its own `qlease` lines between ledger and tallies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerProgress {
    /// Per-point tallies, in SNR order.
    pub points: Vec<PointProgress>,
    /// Trials that returned typed errors, in execution order.
    pub quarantine: Vec<QuarantinedTrial>,
    /// `(point, frame)` of every ledger entry. After a salvage, restored
    /// entries may belong to trials whose tallies were lost; those trials
    /// re-run and regenerate identical entries, which must not duplicate.
    seen: HashSet<(usize, u64)>,
}

impl PerProgress {
    /// Zeroed, active progress for every configured SNR.
    pub fn fresh(cfg: &PerCampaignConfig) -> Self {
        Self::default().pad(cfg)
    }

    /// Folds one round of point `point` — its tally and its erasures as
    /// `(frame, error)` — and applies the stopping rule at the round
    /// boundary. An erasure already in the ledger is not recorded twice.
    /// Returns the point's new status.
    pub fn fold_round<E: ToString>(
        &mut self,
        cfg: &PerCampaignConfig,
        point: usize,
        tally: RoundTally,
        erasures: impl IntoIterator<Item = (u64, E)>,
    ) -> PointStatus {
        let p = &mut self.points[point];
        p.trials += tally.trials;
        p.errors += tally.errors;
        p.erasures += tally.erasures;
        p.status = evaluate_status(p, cfg);
        let status = p.status;
        for (frame, error) in erasures {
            if self.seen.insert((point, frame)) {
                self.quarantine.push(QuarantinedTrial {
                    seed: cfg.seed,
                    point,
                    snr_db: cfg.snrs_db[point],
                    frame,
                    error: error.to_string(),
                });
            }
        }
        status
    }

    /// Journal body lines: the ledger, then `extra` (the coordinator's
    /// `qlease` lines), then the tallies. A salvaged prefix then never
    /// holds a tally whose ledger entries were lost: either the full
    /// ledger precedes the surviving tallies, or lost tallies re-run and
    /// their entries deduplicate against the restored ledger.
    pub fn encode(&self, extra: impl IntoIterator<Item = String>) -> Vec<String> {
        let mut body: Vec<String> = self.quarantine.iter().map(QuarantinedTrial::to_line).collect();
        body.extend(extra);
        body.extend(self.points.iter().enumerate().map(|(i, p)| p.to_line(i)));
        body
    }

    /// Inverse of [`PerProgress::encode`]: `point` tallies in index
    /// order and `quar` ledger entries; any other line must pass `extra`
    /// and is not restored. With `complete` set (an intact journal) every
    /// configured point must be present; a salvaged prefix may cover only
    /// the first points, and the rest start fresh.
    pub fn decode(
        cfg: &PerCampaignConfig,
        body: &[String],
        complete: bool,
        extra: impl Fn(&str) -> bool,
    ) -> Result<Self, JournalError> {
        let mut state = Self::default();
        journal::decode_lines(body, |line| {
            if line.starts_with("point ") {
                let Some(p) = PointProgress::from_line(line, state.points.len(), cfg) else {
                    return false;
                };
                state.points.push(p);
            } else if let Some(q) = QuarantinedTrial::from_line(line, cfg.seed) {
                state.seen.insert((q.point, q.frame));
                state.quarantine.push(q);
            } else {
                return extra(line);
            }
            true
        })?;
        if complete && state.points.len() != cfg.snrs_db.len() {
            return Err(JournalError::Truncated);
        }
        Ok(state.pad(cfg))
    }

    /// Total trials banked across all points.
    pub fn trials(&self) -> u64 {
        self.points.iter().map(|p| p.trials).sum()
    }

    /// Trials still owed by the points that are not done.
    pub fn remaining(&self, cfg: &PerCampaignConfig) -> u64 {
        let active = self.points.iter().filter(|p| p.status == PointStatus::Active);
        active.map(|p| cfg.max_frames - p.trials).sum()
    }

    /// Appends fresh points up to the configured count and recomputes
    /// every status — cheap, and it makes "statuses are current at every
    /// wave boundary" independent of what a journal stored.
    fn pad(mut self, cfg: &PerCampaignConfig) -> Self {
        for &snr_db in cfg.snrs_db.iter().skip(self.points.len()) {
            self.points.push(PointProgress {
                snr_db,
                trials: 0,
                errors: 0,
                erasures: 0,
                status: PointStatus::Active,
            });
        }
        for p in &mut self.points {
            p.status = evaluate_status(p, cfg);
        }
        self
    }
}

/// The full result of a campaign invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct PerCampaignReport {
    /// Link name.
    pub name: String,
    /// Fault chain name.
    pub fault: String,
    /// PHY rate in Mbps.
    pub rate_mbps: f64,
    /// Master seed.
    pub seed: u64,
    /// Per-point tallies, one per configured SNR.
    pub points: Vec<PointProgress>,
    /// Ledger of trials that returned typed errors, in execution order.
    pub quarantine: Vec<QuarantinedTrial>,
    /// Whether the campaign finished or hit a budget.
    pub outcome: Outcome,
    /// How this invocation started (fresh / resumed / cold start).
    pub resume: Resume,
    /// Set when a checkpoint failed to write (the campaign continues —
    /// checkpointing is an optimisation, not a correctness requirement).
    pub journal_error: Option<JournalError>,
}

impl PerCampaignReport {
    /// Compatibility view as the one-shot sweep's result type. Rates are
    /// relative to trials actually run, so an early-stopped point reports
    /// its measured PER, and an untouched point reports `NaN`.
    pub fn to_fault_sweep(&self) -> FaultSweep {
        FaultSweep {
            name: self.name.clone(),
            fault: self.fault.clone(),
            rate_mbps: self.rate_mbps,
            points: self
                .points
                .iter()
                .map(|p| FaultSweepPoint {
                    snr_db: p.snr_db,
                    per: p.per(),
                    erasure_rate: p.erasure_rate(),
                })
                .collect(),
        }
    }

    /// Total trials banked across all points (including resumed ones).
    pub fn completed_trials(&self) -> u64 {
        self.points.iter().map(|p| p.trials).sum()
    }
}

/// Runs (or resumes) a survivable PER campaign.
///
/// # Panics
///
/// Panics on a vacuous configuration (see
/// [`PerCampaignConfig::assert_valid`]).
pub fn run_per_campaign(
    link: &dyn PhyLink,
    faults: &FaultChain,
    cfg: &PerCampaignConfig,
) -> PerCampaignReport {
    cfg.assert_valid();
    let campaign = PerCampaign {
        link,
        faults,
        cfg,
        master: WlanRng::seed_from_u64(cfg.seed),
    };
    let run = drive(&campaign, cfg.budget, cfg.journal.as_deref(), 1);
    PerCampaignReport {
        name: link.name(),
        fault: faults.name(),
        rate_mbps: link.rate_mbps(),
        seed: cfg.seed,
        points: run.state.points,
        quarantine: run.state.quarantine,
        outcome: run.outcome,
        resume: run.resume,
        journal_error: run.journal_error,
    }
}

struct PerCampaign<'a> {
    link: &'a dyn PhyLink,
    faults: &'a FaultChain,
    cfg: &'a PerCampaignConfig,
    master: WlanRng,
}

impl Campaign for PerCampaign<'_> {
    type State = PerProgress;
    const KIND: &'static str = "per";
    // A checkpoint is a ledger plus per-point tallies, so a verified
    // prefix is worth restoring.
    const SALVAGE: bool = true;

    fn key(&self) -> String {
        self.cfg.journal_key(self.link, self.faults)
    }

    fn fresh(&self) -> PerProgress {
        PerProgress::fresh(self.cfg)
    }

    fn encode(&self, state: &PerProgress) -> Vec<String> {
        state.encode([])
    }

    fn decode(&self, body: &[String], complete: bool) -> Result<PerProgress, JournalError> {
        PerProgress::decode(self.cfg, body, complete, |_| false)
    }

    fn trials(&self, state: &PerProgress) -> u64 {
        state.trials()
    }

    /// Up to [`ROUND_TRIALS`] new frames for every active point, split
    /// into the one-shot sweep's 8-frame batch grain; each point's
    /// batches then fold as one round, in work-item order.
    fn wave(&self, state: &mut PerProgress) -> Wave {
        let cfg = self.cfg;
        let mut work: Vec<(usize, std::ops::Range<u64>)> = Vec::new();
        for (i, p) in state.points.iter().enumerate() {
            if p.status != PointStatus::Active {
                continue;
            }
            let end = cfg.max_frames.min(p.trials + ROUND_TRIALS);
            for start in (p.trials..end).step_by(FRAMES_PER_BATCH) {
                work.push((i, start..end.min(start + FRAMES_PER_BATCH as u64)));
            }
        }

        let threads = cfg.threads.unwrap_or_else(par::num_threads);
        let results = par::parallel_map_with_threads(threads, &work, |_, (point, frames)| {
            let point_rng = self.master.fork(*point as u64);
            let snr_db = cfg.snrs_db[*point];
            run_frames(self.link, self.faults, snr_db, cfg.payload_len, &point_rng, frames.clone())
        });
        let mut rounds: Vec<(usize, RoundTally, Vec<_>)> = Vec::new();
        for ((point, _), (tally, erasures)) in work.iter().zip(results) {
            match rounds.last_mut() {
                Some((p, round, round_erasures)) if p == point => {
                    *round += tally;
                    round_erasures.extend(erasures);
                }
                _ => rounds.push((*point, tally, erasures)),
            }
        }

        let mut wave = Wave::default();
        for (point, tally, erasures) in rounds {
            wave.trials += tally.trials;
            wave.quarantined += erasures.len() as u64;
            if state.fold_round(cfg, point, tally, erasures) == PointStatus::StoppedEarly {
                wave.early_stops.push(point);
            }
        }
        wave
    }

    fn done(&self, state: &PerProgress) -> bool {
        state.points.iter().all(|p| p.status != PointStatus::Active)
    }

    fn remaining(&self, state: &PerProgress) -> u64 {
        state.remaining(self.cfg)
    }
}

/// Re-executes one quarantined trial from its ledger coordinates,
/// bit-identical to its first execution.
pub fn replay_trial(
    link: &dyn PhyLink,
    faults: &FaultChain,
    payload_len: usize,
    entry: &QuarantinedTrial,
) -> Result<bool, wlan_math::WlanError> {
    let point_rng = WlanRng::seed_from_u64(entry.seed).fork(entry.point as u64);
    frame_trial_at(link, faults, entry.snr_db, payload_len, &point_rng, entry.frame)
}

/// The stopping rule: a pure function of a point's integer tallies and
/// the campaign configuration, evaluated only at round boundaries by
/// [`PerProgress::fold_round`]. The distributed coordinator folds through
/// the same method at the same boundaries, which is what makes its
/// per-point results bit-identical to the single-process campaign's.
pub fn evaluate_status(p: &PointProgress, cfg: &PerCampaignConfig) -> PointStatus {
    if p.trials >= cfg.max_frames {
        return PointStatus::Exhausted;
    }
    if let Some(target) = cfg.target_half_width {
        if p.trials >= cfg.min_frames && wilson95(p.errors, p.trials).half_width() <= target {
            return PointStatus::StoppedEarly;
        }
    }
    PointStatus::Active
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_core::linksim::{sweep_per_faulted, FhssLink};
    use wlan_fault::FaultChain;

    fn link() -> FhssLink {
        FhssLink
    }

    fn base_cfg() -> PerCampaignConfig {
        PerCampaignConfig::new(&[2.0, 5.0, 8.0], 20, 64, 99)
            .with_budget(Budget::unlimited())
            .with_threads(1)
    }

    #[test]
    fn complete_campaign_matches_one_shot_sweep() {
        let l = link();
        let cfg = base_cfg();
        let report = run_per_campaign(&l, &FaultChain::clean(), &cfg);
        assert!(report.outcome.is_complete());
        assert_eq!(report.resume, Resume::Fresh);

        let sweep = sweep_per_faulted(&l, &FaultChain::clean(), &cfg.snrs_db, 20, 64, 99);
        let view = report.to_fault_sweep();
        assert_eq!(view, sweep, "campaign tallies must equal the one-shot sweep");
    }

    #[test]
    fn trial_budget_yields_partial_prefix() {
        let l = link();
        let full = run_per_campaign(&l, &FaultChain::clean(), &base_cfg());
        // 3 points × 32 trials = 96 per wave; cap at one wave.
        let cfg = base_cfg().with_budget(Budget::unlimited().with_max_trials(96));
        let partial = run_per_campaign(&l, &FaultChain::clean(), &cfg);
        let Outcome::Partial {
            completed,
            remaining,
            reason,
        } = partial.outcome
        else {
            panic!("expected partial outcome, got {:?}", partial.outcome);
        };
        assert_eq!(completed, 96);
        assert_eq!(remaining, 96);
        assert_eq!(reason, crate::budget::StopReason::TrialBudget);
        // The partial tallies are a prefix: first 32 trials of each point
        // were also the first 32 of the full run (same streams), so
        // errors so far can never exceed the full-run errors.
        for (p, f) in partial.points.iter().zip(&full.points) {
            assert_eq!(p.trials, 32);
            assert!(p.errors <= f.errors);
        }
    }

    #[test]
    fn early_stopping_stops_before_max_and_reports_ci() {
        let l = link();
        // At high SNR the PER is ~0, so Wilson collapses fast; a loose
        // target must stop well before max_frames.
        let mut cfg = PerCampaignConfig::new(&[12.0], 20, 4096, 7)
            .with_budget(Budget::unlimited())
            .with_threads(1)
            .with_target_half_width(0.05);
        cfg.min_frames = 32;
        let report = run_per_campaign(&l, &FaultChain::clean(), &cfg);
        assert!(report.outcome.is_complete());
        let p = &report.points[0];
        assert_eq!(p.status, PointStatus::StoppedEarly);
        assert!(p.trials < 4096, "stopped at {}", p.trials);
        assert_eq!(p.trials % ROUND_TRIALS, 0, "stops land on round boundaries");
        let ci = p.ci().unwrap();
        assert!(ci.half_width() <= 0.05, "achieved {}", ci.half_width());
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let l = link();
        let serial = run_per_campaign(&l, &FaultChain::clean(), &base_cfg().with_threads(1));
        let parallel = run_per_campaign(&l, &FaultChain::clean(), &base_cfg().with_threads(4));
        assert_eq!(serial.points, parallel.points);
        assert_eq!(serial.quarantine, parallel.quarantine);
    }

    #[test]
    fn resume_from_journal_is_bit_identical() {
        let l = link();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("wlan_per_resume_{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let uninterrupted = run_per_campaign(&l, &FaultChain::clean(), &base_cfg());

        // Interrupt after every wave until done, resuming each time. The
        // trial budget is cumulative across resume, so each invocation
        // gets a cap one past what the journal already banked: exactly
        // one more wave runs per invocation.
        let mut rounds = 0;
        let mut completed = 0u64;
        let report = loop {
            let cfg = base_cfg()
                .with_journal(path.clone())
                .with_budget(Budget::unlimited().with_max_trials(completed + 1));
            let r = run_per_campaign(&l, &FaultChain::clean(), &cfg);
            assert!(r.journal_error.is_none(), "{:?}", r.journal_error);
            rounds += 1;
            assert!(rounds < 100, "campaign failed to converge");
            completed = r.completed_trials();
            if r.outcome.is_complete() {
                break r;
            }
        };
        assert!(rounds > 1, "interruption never happened");
        assert_eq!(report.points, uninterrupted.points);
        assert_eq!(report.quarantine, uninterrupted.quarantine);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_journal_cold_starts_with_typed_error() {
        let l = link();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("wlan_per_corrupt_{}.journal", std::process::id()));
        std::fs::write(&path, "WLANJRNL 1\nkey nonsense\nsum 0000000000000000\n").unwrap();

        let cfg = base_cfg().with_journal(path.clone());
        let report = run_per_campaign(&l, &FaultChain::clean(), &cfg);
        assert!(
            matches!(report.resume, Resume::ColdStart { .. }),
            "{:?}",
            report.resume
        );
        // Cold start must still produce the exact campaign result.
        let fresh = run_per_campaign(&l, &FaultChain::clean(), &base_cfg());
        assert_eq!(report.points, fresh.points);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn config_change_invalidates_journal_key() {
        let l = link();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("wlan_per_key_{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let r1 = run_per_campaign(&l, &FaultChain::clean(), &base_cfg().with_journal(path.clone()));
        assert!(r1.outcome.is_complete());

        // Different seed → same journal path must be rejected as a
        // different campaign, not silently reused.
        let mut cfg2 = base_cfg().with_journal(path.clone());
        cfg2.seed = 100;
        let r2 = run_per_campaign(&l, &FaultChain::clean(), &cfg2);
        assert_eq!(
            r2.resume,
            Resume::ColdStart {
                error: JournalError::KeyMismatch
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_reproduces_quarantined_trials() {
        // Hard truncation forces FrameTruncated erasures, so the
        // quarantine ledger is nonempty and each entry must replay to the
        // same typed error.
        let l = link();
        let faults = wlan_fault::FaultKind::FrameTruncation.chain(1.0);
        let cfg = base_cfg();
        let report = run_per_campaign(&l, &faults, &cfg);
        assert!(
            !report.quarantine.is_empty(),
            "sample-drop chain should quarantine some trials"
        );
        for q in report.quarantine.iter().take(8) {
            let replayed = replay_trial(&l, &faults, cfg.payload_len, q);
            let err = replayed.expect_err("quarantined trial must replay to an error");
            assert_eq!(err.to_string(), q.error);
        }
    }
}
