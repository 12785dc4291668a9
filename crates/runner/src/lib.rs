//! # wlan-runner — survivable Monte-Carlo campaigns
//!
//! The simulation crates answer "what is the PER at this SNR?"; this
//! crate answers "how do I get that number out of a machine that might
//! run out of time, get `SIGKILL`ed, or hit a pathological trial along
//! the way?" — the operational robustness layer the paper's multi-day
//! evaluation campaigns need.
//!
//! Every sweep entry point in the workspace gets a campaign wrapper with
//! four mechanisms:
//!
//! * **Budgets** ([`budget`]): per-campaign trial and wall-clock limits
//!   (`WLAN_MAX_TRIALS`, `WLAN_BUDGET_MS` or programmatic) that
//!   terminate cleanly at a wave boundary with
//!   [`budget::Outcome::Partial`] — never a panic, never a corrupt
//!   result.
//! * **Sequential early stopping** (`wlan_math::ci`): a PER point stops
//!   as soon as its Wilson 95 % half-width reaches the target, and the
//!   report carries the achieved interval, so easy high-SNR points stop
//!   after hundreds of trials instead of burning the full budget.
//! * **Checkpoint/resume** ([`journal`]): versioned, checksummed,
//!   dependency-free journals written atomically; a resumed campaign
//!   reproduces the uninterrupted campaign's report bit-for-bit, and a
//!   corrupt journal is a typed error plus a cold start, never a panic.
//! * **Trial quarantine** ([`quarantine`]): trials that return typed
//!   `WlanError`s (or MAC runs that blow their step budget) land in a
//!   ledger with their exact `(seed, point, frame)` stream coordinates
//!   for later bit-identical replay, while the campaign keeps going.
//!
//! The loop that composes them — restore, meter, wave, stop check,
//! checkpoint, [`Outcome`] — is written once, in [`campaign::drive`];
//! each campaign kind only implements [`campaign::Campaign`].
//!
//! Determinism is inherited, not re-derived: campaigns fan out over
//! `wlan_math::par` using the same stream addressing as the one-shot
//! sweeps, so a completed campaign equals the one-shot sweep at any
//! `WLAN_THREADS` setting.

#![warn(missing_docs)]

pub mod budget;
pub mod campaign;
pub mod capacity;
pub mod coverage;
pub mod journal;
pub mod per;
pub mod quarantine;
pub mod traffic;

pub use budget::{Budget, Outcome, StopReason};
pub use journal::JournalError;
pub use quarantine::{QuarantinedRun, QuarantinedTrial};

/// How a campaign invocation started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resume {
    /// No journal configured, or none on disk yet.
    Fresh,
    /// State restored from a verified journal.
    Resumed {
        /// Trials already banked by earlier invocations.
        trials: u64,
    },
    /// The journal was damaged, but its cumulative checksum chain
    /// verified a prefix ([`journal::load_salvage`]); the campaign
    /// restored that prefix and re-runs only the damaged tail.
    Salvaged {
        /// Trials recovered from the verified prefix.
        trials: u64,
        /// What was wrong with the journal.
        error: JournalError,
    },
    /// A journal existed but could not be trusted (and nothing could be
    /// salvaged); the campaign started over, carrying the reason.
    ColdStart {
        /// Why the journal was rejected.
        error: JournalError,
    },
}
