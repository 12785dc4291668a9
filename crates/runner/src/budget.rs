//! Campaign budgets: trial caps and wall-clock deadlines.
//!
//! A budget never aborts mid-trial: campaign runners check it only
//! between waves (fixed-size rounds of work), so a budget-terminated
//! campaign always stops at a deterministic round boundary and its
//! partial tallies are an exact prefix of the uninterrupted campaign's.
//! *Which* boundary a wall-clock budget lands on is machine-dependent —
//! the bit-identity guarantee is about the tallies at each boundary, and
//! about the final report once a resumed campaign runs to completion.
//!
//! # The resume contract
//!
//! The two limits deliberately meter different things:
//!
//! * **`max_trials` (`WLAN_MAX_TRIALS`) is cumulative across
//!   checkpoint/resume**: trials restored from a journal count against
//!   the cap, so "at most N trials of compute for this campaign" means
//!   N in total, no matter how many times the process is killed and
//!   re-invoked. Campaign runners seed their meter with the banked
//!   trial count ([`BudgetMeter::resumed`]); a re-invocation whose
//!   journal already holds `>= max_trials` makes zero new progress.
//!   (Before PR 5 the meter reset to zero on every resume, silently
//!   re-spending the trial budget each invocation.)
//! * **`wall_ms` (`WLAN_BUDGET_MS`) is per-invocation**: the journal
//!   stores no wall-clock, and a resumed campaign gets a fresh clock —
//!   which is what makes "run 30 s, checkpoint, rerun" loops converge.
//!
//! `tests/tests/kill_and_resume.rs::trial_budget_is_cumulative_across_resume`
//! pins the cumulative half of this contract.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Environment knob: per-campaign wall-clock budget in milliseconds.
pub const BUDGET_MS_ENV: &str = "WLAN_BUDGET_MS";
/// Environment knob: per-campaign trial budget.
pub const MAX_TRIALS_ENV: &str = "WLAN_MAX_TRIALS";

static WARNED_BAD_ENV: AtomicBool = AtomicBool::new(false);

/// Resource limits for a campaign. `max_trials` is cumulative across
/// checkpoint/resume (journal-restored trials count against it);
/// `wall_ms` meters only the current invocation's wall clock — see the
/// module docs for why the two differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Stop once the campaign has banked this many trials in total —
    /// restored-from-journal plus newly run. `None` = unlimited.
    pub max_trials: Option<u64>,
    /// Stop after this much wall-clock time in *this invocation*,
    /// `None` = unlimited.
    pub wall_ms: Option<u64>,
}

impl Budget {
    /// No limits at all.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Reads [`BUDGET_MS_ENV`] and [`MAX_TRIALS_ENV`]. Unset means
    /// unlimited; unparsable or zero values warn once on stderr and are
    /// ignored (a budget of zero trials would forbid all progress, so it
    /// is treated as a configuration mistake, not a request).
    pub fn from_env() -> Self {
        Self {
            max_trials: read_env_u64(MAX_TRIALS_ENV),
            wall_ms: read_env_u64(BUDGET_MS_ENV),
        }
    }

    /// Caps total campaign trials (cumulative across resume).
    pub fn with_max_trials(mut self, trials: u64) -> Self {
        self.max_trials = Some(trials);
        self
    }
}

fn read_env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().parse::<u64>() {
        Ok(v) if v > 0 => Some(v),
        _ => {
            if !WARNED_BAD_ENV.swap(true, Ordering::Relaxed) {
                eprintln!("wlan-runner: ignoring invalid {name}={raw:?} (want a positive integer)");
            }
            None
        }
    }
}

/// Why a campaign stopped before finishing its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The trial budget ran out.
    TrialBudget,
    /// The wall-clock budget ran out.
    WallClock,
    /// Work was abandoned: a distributed campaign quarantined leases
    /// that exhausted their dispatch budget, leaving holes no budget
    /// increase will fill (replay the quarantined leases instead).
    Abandoned,
    /// An operator asked the campaign to stop (a `campaign serve`
    /// shutdown frame): in-flight leases were drained, no new work was
    /// dispatched, and the journal holds everything banked so far — a
    /// re-run resumes bit-identically.
    Interrupted,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::TrialBudget => write!(f, "trial budget exhausted"),
            StopReason::WallClock => write!(f, "wall-clock budget exhausted"),
            StopReason::Abandoned => write!(f, "leases abandoned after dispatch failures"),
            StopReason::Interrupted => write!(f, "shutdown requested; drained and checkpointed"),
        }
    }
}

/// How a campaign ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every point/run/client reached its stopping rule.
    Complete,
    /// The budget ran out first. `completed` counts trials banked so far
    /// (including any restored from a journal); `remaining` is an upper
    /// bound on trials still owed (early stopping may need fewer).
    Partial {
        /// Trials banked so far, including journal-restored ones.
        completed: u64,
        /// Upper bound on trials still owed.
        remaining: u64,
        /// Which budget ran out.
        reason: StopReason,
    },
}

impl Outcome {
    /// `true` when the campaign finished all its work.
    pub fn is_complete(&self) -> bool {
        matches!(self, Outcome::Complete)
    }
}

/// Meters one campaign invocation against its [`Budget`]. The wall
/// clock starts at construction (per-invocation); the trial count
/// starts at whatever the campaign restored from its journal
/// (cumulative) — see [`BudgetMeter::resumed`].
#[derive(Debug)]
pub struct BudgetMeter {
    budget: Budget,
    started: Instant,
    trials: u64,
}

impl BudgetMeter {
    /// Starts the wall clock now with zero trials banked (a fresh,
    /// journal-less campaign).
    pub fn new(budget: Budget) -> Self {
        Self::resumed(budget, 0)
    }

    /// Starts the wall clock now with `banked` trials already counted
    /// against the trial budget. Campaign runners pass the trial total
    /// restored from the journal here, which is what makes
    /// `max_trials` a *campaign-wide* cap rather than a per-invocation
    /// allowance that resets on every resume.
    pub fn resumed(budget: Budget, banked: u64) -> Self {
        Self {
            budget,
            started: Instant::now(),
            trials: banked,
        }
    }

    /// Records `n` trials spent by the wave that just finished.
    pub fn add_trials(&mut self, n: u64) {
        self.trials = self.trials.saturating_add(n);
    }

    /// Trials counted against the budget so far: journal-restored plus
    /// spent by this invocation.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Checks both limits; called between waves, never mid-trial. The
    /// trial limit is checked first so `WLAN_MAX_TRIALS` alone is fully
    /// deterministic.
    pub fn exhausted(&self) -> Option<StopReason> {
        if let Some(max) = self.budget.max_trials {
            if self.trials >= max {
                return Some(StopReason::TrialBudget);
            }
        }
        if let Some(ms) = self.budget.wall_ms {
            if self.started.elapsed() >= Duration::from_millis(ms) {
                return Some(StopReason::WallClock);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let mut m = BudgetMeter::new(Budget::unlimited());
        m.add_trials(u64::MAX);
        assert_eq!(m.exhausted(), None);
    }

    #[test]
    fn trial_budget_trips_at_the_cap() {
        let mut m = BudgetMeter::new(Budget::unlimited().with_max_trials(100));
        m.add_trials(99);
        assert_eq!(m.exhausted(), None);
        m.add_trials(1);
        assert_eq!(m.exhausted(), Some(StopReason::TrialBudget));
    }

    #[test]
    fn wall_clock_budget_trips_after_deadline() {
        let m = BudgetMeter::new(Budget {
            wall_ms: Some(1),
            ..Budget::unlimited()
        });
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(m.exhausted(), Some(StopReason::WallClock));
    }

    #[test]
    fn trial_limit_wins_over_wall_clock() {
        let mut m = BudgetMeter::new(Budget {
            wall_ms: Some(1),
            ..Budget::unlimited().with_max_trials(1)
        });
        m.add_trials(1);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(m.exhausted(), Some(StopReason::TrialBudget));
    }

    #[test]
    fn resumed_meter_counts_banked_trials_against_the_cap() {
        // The cumulative contract: a resume that restores 90 trials
        // under a 100-trial cap has only 10 left, and a resume at or
        // past the cap is exhausted before any new work.
        let mut m = BudgetMeter::resumed(Budget::unlimited().with_max_trials(100), 90);
        assert_eq!(m.trials(), 90);
        assert_eq!(m.exhausted(), None);
        m.add_trials(10);
        assert_eq!(m.exhausted(), Some(StopReason::TrialBudget));

        let spent = BudgetMeter::resumed(Budget::unlimited().with_max_trials(100), 100);
        assert_eq!(spent.exhausted(), Some(StopReason::TrialBudget));
    }

    #[test]
    fn trial_count_saturates() {
        let mut m = BudgetMeter::new(Budget::unlimited());
        m.add_trials(u64::MAX);
        m.add_trials(10);
        assert_eq!(m.trials(), u64::MAX);
    }

    #[test]
    fn outcome_completeness() {
        assert!(Outcome::Complete.is_complete());
        assert!(!Outcome::Partial {
            completed: 1,
            remaining: 2,
            reason: StopReason::WallClock
        }
        .is_complete());
    }
}
