//! One budget/journal/resume loop for every campaign kind.
//!
//! A campaign kind (PER, traffic, coverage, capacity, city and the
//! distributed PER coordinator) describes
//! *what* a wave computes and how its state is journaled, by
//! implementing [`Campaign`]; [`drive`] alone decides *when* things
//! happen:
//!
//! 1. restore the state from the journal — [`restore`]'s ladder of
//!    `Fresh` / `Resumed` / `Salvaged` / `ColdStart`;
//! 2. seed the [`BudgetMeter`] with the restored trials (the trial cap
//!    is cumulative across resume, the wall clock per-invocation);
//! 3. loop: stop if the campaign's stopping rule holds or the budget is
//!    spent, checkpoint if the cadence is due, run one wave, and stop if
//!    the wave halted ([`Wave::halt`]);
//! 4. checkpoint on exit and report an [`Outcome`].
//!
//! Every decision is taken between waves and is a pure function of the
//! folded state (plus the budget, and a halt the wave reports), which is
//! what makes a budget-stopped campaign an exact prefix of the
//! uninterrupted one, and a resumed one bit-identical to it.
//!
//! Observability is write-only, as everywhere: [`drive`] counts
//! `runner.waves`, `runner.trials`, `runner.early_stops` and
//! `runner.quarantined`, times each checkpoint write into the kind's
//! [`Campaign::JOURNAL_TIMER`] histogram, and emits the `campaign_start`,
//! `wave`, `early_stop` and `campaign_done` events tagged with
//! [`Campaign::KIND`].

use std::path::Path;

use wlan_obs::json::Value;

use crate::budget::{Budget, BudgetMeter, Outcome, StopReason};
use crate::journal::{self, JournalError};
use crate::Resume;

/// One kind of survivable campaign, as seen by [`drive`].
pub trait Campaign {
    /// Everything a checkpoint holds and a wave advances.
    type State: PartialEq;
    /// Tags every lifecycle event (`"per"`, `"city"`, ...).
    const KIND: &'static str;
    /// `true`: a damaged journal restores the body lines of its longest
    /// verified prefix ([`journal::load_salvage`]), decoded with
    /// `complete = false`. `false`: any damage cold-starts
    /// ([`journal::load`]) — right for kinds whose body is one record or
    /// one snapshot, where a prefix means nothing.
    const SALVAGE: bool;
    /// Histogram that times checkpoint writes.
    const JOURNAL_TIMER: &'static str = "runner.journal_write";

    /// The journal key: every parameter that shapes the result, and none
    /// (budget, threads, cadence) that may change between resumes.
    fn key(&self) -> String;
    /// The state before any trial has run.
    fn fresh(&self) -> Self::State;
    /// Journal body lines for `state`.
    fn encode(&self, state: &Self::State) -> Vec<String>;
    /// Inverse of [`Campaign::encode`]. `complete` is `false` only for a
    /// salvaged prefix, which may stop short of the full record set.
    fn decode(&self, body: &[String], complete: bool) -> Result<Self::State, JournalError>;
    /// Trials banked in `state`, in the unit the budget meters.
    fn trials(&self, state: &Self::State) -> u64;
    /// Runs one wave and folds it into `state` in a fixed order.
    fn wave(&self, state: &mut Self::State) -> Wave;
    /// The stopping rule: `true` once no work is left.
    fn done(&self, state: &Self::State) -> bool;
    /// Upper bound on the trials still owed.
    fn remaining(&self, state: &Self::State) -> u64;
}

/// What one wave did, for the budget meter and the event stream.
#[derive(Debug, Clone, Default)]
pub struct Wave {
    /// Trials the wave added.
    pub trials: u64,
    /// Trials the wave quarantined.
    pub quarantined: u64,
    /// Units (SNR points, or 0 for a campaign-wide rule) that the
    /// stopping rule retired early in this wave.
    pub early_stops: Vec<usize>,
    /// Set when the campaign cannot go on in this invocation (its fleet
    /// is lost, or an operator asked it to stop): [`drive`] stops after
    /// this wave with the reason, and still writes its exit checkpoint.
    pub halt: Option<StopReason>,
}

/// The result of [`drive`].
#[derive(Debug, Clone)]
pub struct Driven<S> {
    /// The final state.
    pub state: S,
    /// Complete, or partial with the budget that ran out.
    pub outcome: Outcome,
    /// How this invocation started.
    pub resume: Resume,
    /// Waves run by this invocation.
    pub waves: u64,
    /// The first checkpoint write that failed, if any. The campaign
    /// carries on: checkpointing is an optimisation, not a correctness
    /// requirement.
    pub journal_error: Option<JournalError>,
}

/// Runs (or resumes) campaign `c` until its stopping rule holds or
/// `budget` is spent. With a `journal`, the state is checkpointed before
/// a wave once `checkpoint_every` waves are unsaved (`0`: only on exit),
/// and always on exit when a wave ran or the campaign is complete.
pub fn drive<C: Campaign>(
    c: &C,
    budget: Budget,
    journal: Option<&Path>,
    checkpoint_every: u64,
) -> Driven<C::State> {
    let key = c.key();
    let (mut state, resume) = restore(c, journal, &key);
    let mut meter = BudgetMeter::resumed(budget, c.trials(&state));

    let obs = wlan_obs::global();
    let c_waves = obs.counter("runner.waves");
    let c_trials = obs.counter("runner.trials");
    let c_early = obs.counter("runner.early_stops");
    let c_quar = obs.counter("runner.quarantined");
    let t_journal = obs.histogram(C::JOURNAL_TIMER);
    let kind = || ("kind", Value::Str(C::KIND.into()));
    obs.event(
        "campaign_start",
        &[kind(), ("banked_trials", Value::U64(meter.trials()))],
    );

    let mut journal_error = None;
    let mut checkpoint = |state: &C::State| {
        let Some(path) = journal else {
            return;
        };
        let span = t_journal.start();
        let saved = journal::save(path, &key, &c.encode(state));
        span.stop();
        if let Err(e) = saved {
            journal_error.get_or_insert(e);
        }
    };
    let mut waves = 0u64;
    let mut unsaved = 0u64;
    let stop_reason = loop {
        if c.done(&state) {
            break None;
        }
        if let Some(reason) = meter.exhausted() {
            break Some(reason);
        }
        if checkpoint_every > 0 && unsaved >= checkpoint_every {
            checkpoint(&state);
            unsaved = 0;
        }
        let wave = c.wave(&mut state);
        meter.add_trials(wave.trials);
        waves += 1;
        unsaved += 1;
        c_waves.inc();
        c_trials.add(wave.trials);
        c_quar.add(wave.quarantined);
        for &unit in &wave.early_stops {
            c_early.inc();
            obs.event(
                "early_stop",
                &[
                    kind(),
                    ("unit", Value::U64(unit as u64)),
                    ("banked_trials", Value::U64(meter.trials())),
                ],
            );
        }
        obs.event(
            "wave",
            &[
                kind(),
                ("trials", Value::U64(wave.trials)),
                ("banked_trials", Value::U64(meter.trials())),
                ("quarantined", Value::U64(wave.quarantined)),
            ],
        );
        if wave.halt.is_some() {
            break wave.halt;
        }
    };
    // The exit checkpoint makes a budget-stopped campaign resumable from
    // its exact exit state, and a complete one reload as complete (which
    // also rewrites a salvaged journal's damaged tail).
    if unsaved > 0 || stop_reason.is_none() {
        checkpoint(&state);
    }

    let outcome = match stop_reason {
        None => Outcome::Complete,
        Some(reason) => Outcome::Partial {
            completed: meter.trials(),
            remaining: c.remaining(&state),
            reason,
        },
    };
    obs.event(
        "campaign_done",
        &[
            kind(),
            ("complete", Value::Bool(outcome.is_complete())),
            ("banked_trials", Value::U64(meter.trials())),
        ],
    );
    Driven {
        state,
        outcome,
        resume,
        waves,
        journal_error,
    }
}

/// The restore ladder of [`drive`]. Never panics:
///
/// * no journal configured, or none on disk yet: `fresh()`, [`Resume::Fresh`];
/// * a verified journal that decodes: [`Resume::Resumed`];
/// * with [`Campaign::SALVAGE`], a damaged journal whose verified prefix
///   decodes (`complete = false`) to something other than `fresh()`:
///   [`Resume::Salvaged`], so only the damaged tail re-runs;
/// * anything else: `fresh()`, [`Resume::ColdStart`] with the typed error.
fn restore<C: Campaign>(c: &C, journal: Option<&Path>, key: &str) -> (C::State, Resume) {
    let Some(path) = journal else {
        return (c.fresh(), Resume::Fresh);
    };
    let (body, damage) = if C::SALVAGE {
        journal::load_salvage(path, key)
    } else {
        match journal::load(path, key) {
            Ok(body) => (body, None),
            Err(error) => (Vec::new(), Some(error)),
        }
    };
    let error = match damage {
        None => match c.decode(&body, true) {
            Ok(state) => {
                let trials = c.trials(&state);
                return (state, Resume::Resumed { trials });
            }
            Err(error) => error,
        },
        Some(JournalError::Io(std::io::ErrorKind::NotFound)) => {
            return (c.fresh(), Resume::Fresh);
        }
        Some(error) => match C::SALVAGE.then(|| c.decode(&body, false)) {
            Some(Ok(state)) if state != c.fresh() => {
                let trials = c.trials(&state);
                return (state, Resume::Salvaged { trials, error });
            }
            _ => error,
        },
    };
    (c.fresh(), Resume::ColdStart { error })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::path::PathBuf;

    /// A toy kind: `units` trials, `per_wave` per wave, one body line
    /// per banked trial, so a salvaged prefix is meaningful.
    struct Toy<const SALVAGE: bool> {
        units: u64,
        per_wave: u64,
        /// Checkpoints written so far.
        saves: Cell<u64>,
        /// Halt with `Interrupted` after this many waves.
        halt_after: Option<u64>,
        /// Waves run so far.
        waves: Cell<u64>,
    }

    impl<const S: bool> Campaign for Toy<S> {
        type State = u64;
        const KIND: &'static str = "toy";
        const SALVAGE: bool = S;

        fn key(&self) -> String {
            format!("toy v1 units={}", self.units)
        }
        fn fresh(&self) -> u64 {
            0
        }
        fn encode(&self, done: &u64) -> Vec<String> {
            self.saves.set(self.saves.get() + 1);
            (0..*done).map(|i| format!("unit i={i}")).collect()
        }
        fn decode(&self, body: &[String], complete: bool) -> Result<u64, JournalError> {
            let mut done = 0;
            journal::decode_lines(body, |line| {
                let ok = line == format!("unit i={done}") && done < self.units;
                done += u64::from(ok);
                ok
            })?;
            // An intact journal is only ever written at a wave boundary.
            if complete && done % self.per_wave != 0 && done != self.units {
                return Err(JournalError::Truncated);
            }
            Ok(done)
        }
        fn trials(&self, done: &u64) -> u64 {
            *done
        }
        fn wave(&self, done: &mut u64) -> Wave {
            let trials = self.per_wave.min(self.units - *done);
            *done += trials;
            self.waves.set(self.waves.get() + 1);
            let halt = self.halt_after == Some(self.waves.get());
            Wave {
                trials,
                halt: halt.then_some(StopReason::Interrupted),
                ..Wave::default()
            }
        }
        fn done(&self, done: &u64) -> bool {
            *done >= self.units
        }
        fn remaining(&self, done: &u64) -> u64 {
            self.units - done
        }
    }

    fn toy<const S: bool>(units: u64) -> Toy<S> {
        Toy {
            units,
            per_wave: 4,
            saves: Cell::new(0),
            halt_after: None,
            waves: Cell::new(0),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "wlan_campaign_{}_{name}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn capped(trials: u64) -> Budget {
        Budget::unlimited().with_max_trials(trials)
    }

    /// Banks 8 of the toy's 10 trials into a journal at `path`.
    fn bank_two_waves(path: &Path) {
        let d = drive(&toy::<true>(10), capped(8), Some(path), 1);
        assert_eq!(d.state, 8);
    }

    #[test]
    fn missing_journal_is_fresh() {
        let path = tmp("missing");
        let d = drive(&toy::<true>(10), Budget::unlimited(), Some(&path), 1);
        assert_eq!(d.resume, Resume::Fresh);
        assert_eq!((d.state, d.waves, d.outcome), (10, 3, Outcome::Complete));
        let d = drive(&toy::<true>(10), Budget::unlimited(), None, 1);
        assert_eq!((d.resume, d.state), (Resume::Fresh, 10));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn intact_journal_resumes_with_its_trials() {
        let path = tmp("intact");
        bank_two_waves(&path);
        for salvage in [true, false] {
            let (state, resume) = if salvage {
                restore_toy(&toy::<true>(10), &path)
            } else {
                restore_toy(&toy::<false>(10), &path)
            };
            assert_eq!((state, resume), (8, Resume::Resumed { trials: 8 }));
        }
        let d = drive(&toy::<true>(10), Budget::unlimited(), Some(&path), 1);
        assert_eq!((d.state, d.waves, d.outcome), (10, 1, Outcome::Complete));
        let _ = std::fs::remove_file(&path);
    }

    fn restore_toy<const S: bool>(c: &Toy<S>, path: &Path) -> (u64, Resume) {
        restore(c, Some(path), &c.key())
    }

    #[test]
    fn wrong_key_cold_starts() {
        let path = tmp("key");
        bank_two_waves(&path);
        let other = toy::<true>(11);
        let d = drive(&other, Budget::unlimited(), Some(&path), 1);
        assert_eq!(
            d.resume,
            Resume::ColdStart {
                error: JournalError::KeyMismatch
            }
        );
        assert_eq!(d.state, 11);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tail_bit_flip_salvages_only_when_salvage_is_set() {
        let path = tmp("flip");
        bank_two_waves(&path);
        let mut bytes = std::fs::read(&path).expect("journal");
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write");

        // The flip breaks only the last `sum`: seven of eight lines verify.
        assert_eq!(
            restore_toy(&toy::<true>(10), &path),
            (
                7,
                Resume::Salvaged {
                    trials: 7,
                    error: JournalError::ChecksumMismatch
                }
            )
        );
        assert_eq!(
            restore_toy(&toy::<false>(10), &path),
            (
                0,
                Resume::ColdStart {
                    error: JournalError::ChecksumMismatch
                }
            )
        );
        // A salvaged run re-runs only the tail and ends complete.
        let d = drive(&toy::<true>(10), Budget::unlimited(), Some(&path), 1);
        assert!(matches!(d.resume, Resume::Salvaged { trials: 7, .. }));
        assert_eq!((d.state, d.outcome), (10, Outcome::Complete));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cadence_counts_waves_and_exit_saves_only_new_or_complete_state() {
        let path = tmp("cadence");
        // Three waves: a checkpoint is due before a wave once `every`
        // waves are unsaved, plus one on exit.
        for (every, saves) in [(0, 1), (1, 3), (2, 2)] {
            let c = toy::<true>(10);
            let _ = std::fs::remove_file(&path);
            let d = drive(&c, Budget::unlimited(), Some(&path), every);
            assert_eq!((d.waves, c.saves.get()), (3, saves), "every={every}");
        }
        // A complete journal is rewritten on exit; a budget-stopped
        // invocation that ran no wave leaves its journal alone.
        let c = toy::<true>(10);
        drive(&c, Budget::unlimited(), Some(&path), 1);
        assert_eq!(c.saves.get(), 1);
        let _ = std::fs::remove_file(&path);
        bank_two_waves(&path);
        let c = toy::<true>(10);
        let d = drive(&c, capped(8), Some(&path), 1);
        assert_eq!((d.waves, c.saves.get()), (0, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn halted_wave_stops_with_its_reason_and_checkpoints() {
        let path = tmp("halt");
        let c = Toy {
            halt_after: Some(2),
            ..toy::<true>(10)
        };
        let d = drive(&c, Budget::unlimited(), Some(&path), 1);
        let interrupted = Outcome::Partial {
            completed: 8,
            remaining: 2,
            reason: StopReason::Interrupted,
        };
        assert_eq!((d.state, d.waves, d.outcome), (8, 2, interrupted));
        // One checkpoint before the second wave, one on exit.
        assert_eq!(c.saves.get(), 2);
        assert_eq!(
            restore_toy(&toy::<true>(10), &path),
            (8, Resume::Resumed { trials: 8 })
        );
        // Driven again, it finishes as the uninterrupted run does.
        let resumed = drive(&toy::<true>(10), Budget::unlimited(), Some(&path), 1);
        let whole = drive(&toy::<true>(10), Budget::unlimited(), None, 1);
        assert_eq!(
            (resumed.state, resumed.outcome),
            (whole.state, whole.outcome)
        );
        let _ = std::fs::remove_file(&path);
    }
}
