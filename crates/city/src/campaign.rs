//! The city campaign runner: budgets, checkpoint/resume, early stopping.
//!
//! A campaign wraps [`crate::sim::City`] in the `wlan-runner`
//! conventions: a [`Budget`] metered in MAC attempts (the city's trial
//! unit), an optional checkpoint journal, and Wilson-interval early
//! stopping on the city-wide loss rate.
//!
//! # Journal semantics
//!
//! The journal is a *state snapshot at an epoch boundary*, not an
//! append-only tally log: because the per-epoch MAC is memoryless,
//! `CityState` between epochs is the complete simulation state, and a
//! resumed campaign continues bit-identically from it. That also means a
//! *partially* intact journal is useless — unlike the per-point PER
//! campaigns there is no meaningful prefix of a snapshot — so restore
//! uses strict [`journal::load`] only (no salvage): any damage is a
//! [`wlan_runner::Resume::ColdStart`].
//!
//! The journal key pins every result-shaping parameter (the full
//! [`CityConfig`], the PER-table digest, the stopping rule), so a
//! checkpoint can never silently resume a different city.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::layout::CityConfig;
use crate::pertable::PerTableSet;
use crate::sim::{City, CityReport, CityState};
use wlan_math::ci::wilson95;
use wlan_math::par::num_threads;
use wlan_obs::json::Value;
use wlan_runner::budget::BudgetMeter;
use wlan_runner::journal::{self, f64_from_hex, f64_to_hex, kv, kv_u64};
use wlan_runner::{Budget, JournalError, Outcome, Resume, StopReason};
use wlan_math::WlanError;

/// Values packed per journal body line. The journal adds a 21-byte `sum`
/// line after every body line, so big chunks keep that overhead small
/// (and lines a readable length) even at 10⁵ stations.
const CHUNK: usize = 1024;

/// Everything a city campaign invocation needs.
#[derive(Debug, Clone)]
pub struct CityCampaignConfig {
    /// The scenario.
    pub city: CityConfig,
    /// PER lookup tables (calibrated or synthetic).
    pub tables: PerTableSet,
    /// Trial (MAC-attempt) and wall-clock limits.
    pub budget: Budget,
    /// Checkpoint journal path; `None` disables checkpointing.
    pub journal: Option<PathBuf>,
    /// Checkpoint every this many epochs (0 = only at campaign end).
    pub checkpoint_every_epochs: u64,
    /// Worker threads; `None` uses `WLAN_THREADS`/available parallelism.
    /// Never affects results, only wall-clock.
    pub threads: Option<usize>,
    /// Early-stop once the Wilson-95 half-width of the city-wide loss
    /// rate drops below this; `None` always runs all epochs.
    pub target_half_width: Option<f64>,
    /// Epochs that must complete before early stopping may trigger
    /// (transient-free measurement window).
    pub min_epochs: u64,
}

impl CityCampaignConfig {
    /// A campaign over `city` with no budget, journal, or early stopping.
    pub fn new(city: CityConfig, tables: PerTableSet) -> Self {
        CityCampaignConfig {
            city,
            tables,
            budget: Budget::unlimited(),
            journal: None,
            checkpoint_every_epochs: 0,
            threads: None,
            target_half_width: None,
            min_epochs: 0,
        }
    }
}

/// What a campaign invocation produced.
#[derive(Debug, Clone)]
pub struct CityRunSummary {
    /// Aggregates derived from the final state.
    pub report: CityReport,
    /// Complete, or partial with the budget that ran out.
    pub outcome: Outcome,
    /// How the invocation started (fresh / resumed / cold-start).
    pub resume: Resume,
    /// Whether the Wilson early-stop rule ended the run before `epochs`.
    pub early_stopped: bool,
    /// Epochs simulated by *this* invocation (excludes restored ones).
    pub epochs_this_invocation: u64,
    /// The final state (journal-equivalent; lets callers diff runs).
    pub state: CityState,
}

/// Runs (or resumes) a city campaign to completion, budget exhaustion,
/// or early stop. Results are bit-identical at any thread count and
/// across any kill/resume schedule.
///
/// # Errors
///
/// [`WlanError::InvalidConfig`] if the scenario fails validation.
pub fn run_city_campaign(cfg: &CityCampaignConfig) -> Result<CityRunSummary, WlanError> {
    let city = City::new(cfg.city.clone(), cfg.tables.clone())?;
    let key = journal_key(cfg);
    let threads = cfg.threads.unwrap_or_else(num_threads);

    let (mut state, resume) = restore(cfg, &city, &key);
    let banked = state.attempts;
    let mut meter = BudgetMeter::resumed(cfg.budget, banked);

    let obs = wlan_obs::global();
    obs.event(
        "city_campaign_start",
        &[
            ("kind", Value::Str("city".into())),
            ("aps", Value::U64(cfg.city.n_aps as u64)),
            ("stations", Value::U64(cfg.city.n_stations() as u64)),
            ("epochs", Value::U64(cfg.city.epochs)),
            ("restored_epochs", Value::U64(state.epoch)),
            ("banked_trials", Value::U64(banked)),
        ],
    );

    let epochs_at_entry = state.epoch;
    let mut early_stopped = false;
    let mut stop_reason: Option<StopReason> = None;
    let t_checkpoint = obs.histogram("city.journal_write");

    while state.epoch < cfg.city.epochs {
        if let Some(reason) = meter.exhausted() {
            stop_reason = Some(reason);
            break;
        }
        let attempts_before = state.attempts;
        city.run_epoch(&mut state, threads);
        meter.add_trials(state.attempts - attempts_before);

        if let Some(path) = &cfg.journal {
            let cadence = cfg.checkpoint_every_epochs;
            if cadence > 0 && state.epoch % cadence == 0 && state.epoch < cfg.city.epochs {
                let span = t_checkpoint.start();
                // Checkpoint failures are non-fatal: the campaign still
                // holds its state and will try again at the next cadence.
                let saved = journal::save(path, &key, &snapshot(&state)).is_ok();
                span.stop();
                obs.event(
                    "city_checkpoint",
                    &[
                        ("epoch", Value::U64(state.epoch)),
                        ("trials", Value::U64(state.attempts)),
                        ("saved", Value::Bool(saved)),
                    ],
                );
            }
        }

        if let Some(target) = cfg.target_half_width {
            if state.epoch >= cfg.min_epochs && state.attempts > 0 {
                let hw = wilson95(state.failures, state.attempts).half_width();
                if hw < target {
                    early_stopped = true;
                    obs.counter("city.early_stops").add(1);
                    obs.event(
                        "city_early_stop",
                        &[
                            ("epoch", Value::U64(state.epoch)),
                            ("half_width", Value::F64(hw)),
                            ("target", Value::F64(target)),
                        ],
                    );
                    break;
                }
            }
        }
    }

    // Final checkpoint: a budget-stopped campaign must be resumable, and
    // a completed one leaves a journal that resumes to a no-op.
    if let Some(path) = &cfg.journal {
        let span = t_checkpoint.start();
        let _ = journal::save(path, &key, &snapshot(&state));
        span.stop();
    }

    let outcome = match stop_reason {
        None => Outcome::Complete,
        Some(reason) => {
            let epochs_done = state.epoch.max(1);
            let per_epoch = state.attempts / epochs_done;
            let remaining_epochs = cfg.city.epochs - state.epoch;
            Outcome::Partial {
                completed: meter.trials(),
                remaining: remaining_epochs * per_epoch.max(1),
                reason,
            }
        }
    };

    let report = city.report(&state);
    obs.event(
        "city_campaign_done",
        &[
            ("epochs_run", Value::U64(state.epoch)),
            ("attempts", Value::U64(state.attempts)),
            ("delivered", Value::U64(report.delivered_frames)),
            ("complete", Value::Bool(outcome.is_complete())),
            ("early_stopped", Value::Bool(early_stopped)),
        ],
    );

    Ok(CityRunSummary {
        report,
        outcome,
        resume,
        early_stopped,
        epochs_this_invocation: state.epoch - epochs_at_entry,
        state,
    })
}

/// The campaign identity: every parameter that shapes the deterministic
/// result. A journal written under a different key never resumes.
fn journal_key(cfg: &CityCampaignConfig) -> String {
    let c = &cfg.city;
    let target = match cfg.target_half_width {
        Some(t) => f64_to_hex(t),
        None => "none".to_owned(),
    };
    format!(
        "city v1 aps={} sta={} spacing={} ch={} cs={} int={} b={} load={} payload={} \
         epochs={} epoch_ms={} roam={} hyst={} shadow={} hnt={} seed={} \
         tables={:016x} target={} min_epochs={}",
        c.n_aps,
        c.stations_per_ap,
        f64_to_hex(c.ap_spacing_m),
        c.n_channels,
        f64_to_hex(c.cs_range_m),
        f64_to_hex(c.interference_range_m),
        f64_to_hex(c.b_fraction),
        f64_to_hex(c.offered_load),
        c.payload_bytes,
        c.epochs,
        f64_to_hex(c.epoch_ms),
        c.roam_every_epochs,
        f64_to_hex(c.hysteresis_db),
        f64_to_hex(c.shadow_sigma_db),
        c.hidden_node_trials,
        c.seed,
        cfg.tables.digest(),
        target,
        cfg.min_epochs
    )
}

/// Serialises a state snapshot into journal body lines.
fn snapshot(state: &CityState) -> Vec<String> {
    let mut body = Vec::new();
    let d = &state.ac_delivered;
    let a = &state.ac_attempts;
    body.push(format!(
        "state epoch={} attempts={} failures={} handoffs={} defer={} \
         pd={} pse={} ud={} use={} \
         d0={} d1={} d2={} d3={} a0={} a1={} a2={} a3={}",
        state.epoch,
        state.attempts,
        state.failures,
        state.handoffs,
        f64_to_hex(state.defer_us),
        state.prot_delivered,
        state.prot_sta_epochs,
        state.unprot_delivered,
        state.unprot_sta_epochs,
        d[0], d[1], d[2], d[3], a[0], a[1], a[2], a[3]
    ));
    push_chunks(&mut body, "assoc", &state.assoc, false, u64::from);
    push_chunks(&mut body, "del", &state.delivered, false, |v| v);
    // Busy fractions as IEEE-754 bit patterns, exactly as `f64_to_hex`.
    push_chunks(&mut body, "busy", &state.busy_frac, true, f64::to_bits);
    body.push("end".to_owned());
    body
}

/// Appends one `<tag> o=<offset> v=<v>,<v>,…` body line per [`CHUNK`]
/// values, each rendered from `bits(value)` as decimal or as 16 hex
/// digits. A line is sized exactly up front and every value is written
/// straight into it — no per-value strings.
fn push_chunks<T: Copy>(
    body: &mut Vec<String>,
    tag: &str,
    values: &[T],
    hex: bool,
    bits: impl Fn(T) -> u64,
) {
    let width = |v: u64| if hex { 16 } else { decimal_len(v) };
    for (index, chunk) in values.chunks(CHUNK).enumerate() {
        let offset = index * CHUNK;
        let len = tag.len()
            + " o= v=".len()
            + decimal_len(offset as u64)
            + chunk.iter().map(|&v| width(bits(v))).sum::<usize>()
            + chunk.len()
            - 1;
        let mut line = String::with_capacity(len);
        let _ = write!(line, "{tag} o={offset} v=");
        for (i, &value) in chunk.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let v = bits(value);
            let _ = if hex { write!(line, "{v:016x}") } else { write!(line, "{v}") };
        }
        body.push(line);
    }
}

/// Number of decimal digits in `v`.
fn decimal_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Rebuilds a state from journal body lines. `None` on any structural
/// defect (the caller cold-starts).
fn parse_snapshot(city: &City, body: &[String]) -> Option<CityState> {
    let mut state = city.fresh_state();
    let mut have_header = false;
    let mut have_end = false;
    let mut assoc_seen = 0usize;
    let mut del_seen = 0usize;
    let mut busy_seen = 0usize;

    for line in body {
        if have_end {
            return None; // trailing garbage after the end marker
        }
        let mut tokens = line.split_ascii_whitespace();
        match tokens.next()? {
            "state" => {
                let t: Vec<&str> = tokens.collect();
                if t.len() != 17 {
                    return None;
                }
                state.epoch = kv_u64(t[0], "epoch")?;
                state.attempts = kv_u64(t[1], "attempts")?;
                state.failures = kv_u64(t[2], "failures")?;
                state.handoffs = kv_u64(t[3], "handoffs")?;
                state.defer_us = f64_from_hex(kv(t[4], "defer")?)?;
                state.prot_delivered = kv_u64(t[5], "pd")?;
                state.prot_sta_epochs = kv_u64(t[6], "pse")?;
                state.unprot_delivered = kv_u64(t[7], "ud")?;
                state.unprot_sta_epochs = kv_u64(t[8], "use")?;
                for i in 0..4 {
                    state.ac_delivered[i] = kv_u64(t[9 + i], &format!("d{i}"))?;
                    state.ac_attempts[i] = kv_u64(t[13 + i], &format!("a{i}"))?;
                }
                have_header = true;
            }
            "assoc" => {
                let (o, vals) = chunk_fields(&mut tokens)?;
                if o != assoc_seen {
                    return None;
                }
                for v in vals.split(',') {
                    if assoc_seen >= state.assoc.len() {
                        return None;
                    }
                    state.assoc[assoc_seen] = v.parse().ok()?;
                    assoc_seen += 1;
                }
            }
            "del" => {
                let (o, vals) = chunk_fields(&mut tokens)?;
                if o != del_seen {
                    return None;
                }
                for v in vals.split(',') {
                    if del_seen >= state.delivered.len() {
                        return None;
                    }
                    state.delivered[del_seen] = v.parse().ok()?;
                    del_seen += 1;
                }
            }
            "busy" => {
                let (o, vals) = chunk_fields(&mut tokens)?;
                if o != busy_seen {
                    return None;
                }
                for v in vals.split(',') {
                    if busy_seen >= state.busy_frac.len() {
                        return None;
                    }
                    state.busy_frac[busy_seen] = f64_from_hex(v)?;
                    busy_seen += 1;
                }
            }
            "end" => have_end = true,
            _ => return None,
        }
    }

    let complete = have_header
        && have_end
        && assoc_seen == state.assoc.len()
        && del_seen == state.delivered.len()
        && busy_seen == state.busy_frac.len()
        && state.assoc.iter().all(|&ap| (ap as usize) < city.cfg.n_aps)
        && state.failures <= state.attempts
        && state.epoch <= city.cfg.epochs;
    complete.then_some(state)
}

/// Parses `o=<offset> v=<csv>` out of a chunked line's remaining tokens.
fn chunk_fields<'a, I: Iterator<Item = &'a str>>(tokens: &mut I) -> Option<(usize, &'a str)> {
    let o: usize = kv(tokens.next()?, "o")?.parse().ok()?;
    let vals = kv(tokens.next()?, "v")?;
    tokens.next().is_none().then_some((o, vals))
}

/// Restores state from the configured journal (strict load, no salvage —
/// see the module docs for why a snapshot has no usable prefix).
fn restore(cfg: &CityCampaignConfig, city: &City, key: &str) -> (CityState, Resume) {
    let Some(path) = &cfg.journal else {
        return (city.fresh_state(), Resume::Fresh);
    };
    match journal::load(path, key) {
        Ok(body) => match parse_snapshot(city, &body) {
            Some(state) => {
                let trials = state.attempts;
                (state, Resume::Resumed { trials })
            }
            // Verified checksum but unparseable body: treat like any
            // other untrustworthy journal.
            None => (
                city.fresh_state(),
                Resume::ColdStart {
                    error: JournalError::Malformed { line: 0 },
                },
            ),
        },
        Err(JournalError::Io(std::io::ErrorKind::NotFound)) => {
            (city.fresh_state(), Resume::Fresh)
        }
        Err(error) => (city.fresh_state(), Resume::ColdStart { error }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn tmp_journal(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wlan_city_campaign_{}_{name}", std::process::id()));
        p
    }

    fn small_campaign(journal: Option<PathBuf>) -> CityCampaignConfig {
        let mut cfg =
            CityCampaignConfig::new(CityConfig::small_test(), PerTableSet::synthetic());
        cfg.journal = journal;
        cfg.checkpoint_every_epochs = 2;
        cfg.threads = Some(1);
        cfg
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let cfg = small_campaign(None);
        let city = City::new(cfg.city.clone(), cfg.tables.clone()).expect("valid");
        let mut state = city.fresh_state();
        for _ in 0..3 {
            city.run_epoch(&mut state, 1);
        }
        let body = snapshot(&state);
        let back = parse_snapshot(&city, &body).expect("round trip");
        assert_eq!(back, state);
    }

    #[test]
    fn snapshot_bytes_are_pinned() {
        // FNV-1a digest of the small city's snapshot after three epochs,
        // recorded from the original `to_string` + `join` encoder: the
        // in-place encoder must write the very same bytes.
        let cfg = small_campaign(None);
        let city = City::new(cfg.city.clone(), cfg.tables.clone()).expect("valid");
        let mut state = city.fresh_state();
        for _ in 0..3 {
            city.run_epoch(&mut state, 1);
        }
        let body = snapshot(&state);
        let text: String = body.iter().map(|line| format!("{line}\n")).collect();
        assert_eq!((body.len(), text.len()), (5, 1151));
        assert_eq!(journal::fnv1a64(text.as_bytes()), 0xa231_fdf9_43f3_a17b);
    }

    #[test]
    fn multi_chunk_snapshot_round_trips_exactly() {
        // 25 × 95 = 2375 stations: three chunks per station vector, the
        // last one partial — the shape a real metro checkpoint has (busy
        // fractions are per AP, one chunk).
        for (seed, epochs) in [(3, 1), (11, 3)] {
            let city = City::new(CityConfig::metro(25, 95, seed), PerTableSet::synthetic())
                .expect("valid");
            let mut state = city.fresh_state();
            assert!(state.assoc.len() > 2 * CHUNK);
            for _ in 0..epochs {
                city.run_epoch(&mut state, 1);
            }
            let body = snapshot(&state);
            let chunked: Vec<&String> = body[1..body.len() - 1].iter().collect();
            let heads: Vec<String> = chunked
                .iter()
                .map(|l| l.split_ascii_whitespace().take(2).collect::<Vec<_>>().join(" "))
                .collect();
            assert_eq!(
                heads,
                [
                    "assoc o=0", "assoc o=1024", "assoc o=2048", "del o=0", "del o=1024",
                    "del o=2048", "busy o=0"
                ]
            );
            // Every chunk line was sized exactly before it was written.
            assert!(chunked.iter().all(|l| l.len() == l.capacity()));
            let back = parse_snapshot(&city, &body).expect("round trip");
            assert_eq!(back, state);
            if seed == 3 {
                // Recorded from the original encoder, like the small city.
                let text: String = body.iter().map(|line| format!("{line}\n")).collect();
                assert_eq!(journal::fnv1a64(text.as_bytes()), 0x8bf7_71f1_8b01_ba0c);
            }
        }
    }

    #[test]
    fn parse_rejects_structural_damage() {
        let cfg = small_campaign(None);
        let city = City::new(cfg.city.clone(), cfg.tables.clone()).expect("valid");
        let mut state = city.fresh_state();
        city.run_epoch(&mut state, 1);
        let good = snapshot(&state);

        // Dropped end marker, dropped header, truncated chunks, trailing
        // garbage, out-of-range association.
        let mut no_end = good.clone();
        no_end.pop();
        assert!(parse_snapshot(&city, &no_end).is_none());

        let headerless = good[1..].to_vec();
        assert!(parse_snapshot(&city, &headerless).is_none());

        let mut truncated = good.clone();
        truncated.remove(1);
        assert!(parse_snapshot(&city, &truncated).is_none());

        let mut trailing = good.clone();
        trailing.push("assoc o=0 v=1".to_owned());
        assert!(parse_snapshot(&city, &trailing).is_none());

        let mut bad_ap = good.clone();
        bad_ap[1] = bad_ap[1].replacen("v=", "v=9999,", 1);
        assert!(parse_snapshot(&city, &bad_ap).is_none());
    }

    #[test]
    fn campaign_completes_and_reports() {
        let cfg = small_campaign(None);
        let summary = run_city_campaign(&cfg).expect("runs");
        assert!(summary.outcome.is_complete());
        assert!(matches!(summary.resume, Resume::Fresh));
        assert_eq!(summary.report.epochs_run, cfg.city.epochs);
        assert!(summary.report.delivered_frames > 0);
        assert_eq!(summary.epochs_this_invocation, cfg.city.epochs);
    }

    #[test]
    fn kill_and_resume_matches_uninterrupted_run() {
        let path = tmp_journal("resume");
        let _ = std::fs::remove_file(&path);

        let uninterrupted = run_city_campaign(&small_campaign(None)).expect("runs");

        // Step the same campaign through repeated tiny trial budgets
        // until it completes, checkpointing every epoch.
        let mut stepped = small_campaign(Some(path.clone()));
        stepped.checkpoint_every_epochs = 1;
        let mut step = stepped.clone();
        let mut last = None;
        for round in 0..200 {
            let budget_trials = (round as u64 + 1) * 2_000;
            step.budget = Budget::unlimited().with_max_trials(budget_trials);
            let summary = run_city_campaign(&step).expect("runs");
            if round > 0 && summary.epochs_this_invocation > 0 {
                assert!(
                    matches!(summary.resume, Resume::Resumed { .. }),
                    "{:?}",
                    summary.resume
                );
            }
            let done = summary.outcome.is_complete();
            last = Some(summary);
            if done {
                break;
            }
        }
        let resumed = last.expect("at least one round");
        assert!(resumed.outcome.is_complete(), "stepped campaign finished");
        assert_eq!(resumed.state, uninterrupted.state, "bit-identical resume");
        assert_eq!(resumed.report, uninterrupted.report);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_key_journal_cold_starts() {
        let path = tmp_journal("coldstart");
        journal::save(&path, "some other campaign", &["end".to_owned()]).expect("save");
        let cfg = small_campaign(Some(path.clone()));
        let summary = run_city_campaign(&cfg).expect("runs");
        assert!(
            matches!(
                summary.resume,
                Resume::ColdStart {
                    error: JournalError::KeyMismatch
                }
            ),
            "{:?}",
            summary.resume
        );
        assert!(summary.outcome.is_complete());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn exhausted_budget_reports_partial_with_resumable_journal() {
        let path = tmp_journal("partial");
        let _ = std::fs::remove_file(&path);
        let mut cfg = small_campaign(Some(path.clone()));
        cfg.budget = Budget::unlimited().with_max_trials(1);
        let summary = run_city_campaign(&cfg).expect("runs");
        match summary.outcome {
            Outcome::Partial {
                completed,
                remaining,
                reason,
            } => {
                assert_eq!(reason, StopReason::TrialBudget);
                assert!(completed >= 1);
                assert!(remaining > 0);
            }
            Outcome::Complete => panic!("1-trial budget cannot complete 8 epochs"),
        }
        // The final save must leave a loadable journal.
        assert!(Path::new(&path).exists());
        let key = journal_key(&cfg);
        assert!(journal::load(&path, &key).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn early_stopping_ends_the_campaign_before_all_epochs() {
        let mut cfg = small_campaign(None);
        cfg.city.epochs = 50;
        cfg.target_half_width = Some(0.05); // loose: trips quickly
        cfg.min_epochs = 2;
        let summary = run_city_campaign(&cfg).expect("runs");
        assert!(summary.early_stopped);
        assert!(summary.outcome.is_complete());
        assert!(summary.report.epochs_run >= 2);
        assert!(summary.report.epochs_run < 50);
    }

    #[test]
    fn journal_key_pins_result_shaping_parameters() {
        let base = small_campaign(None);
        let k0 = journal_key(&base);
        let mut seed = base.clone();
        seed.city.seed += 1;
        assert_ne!(journal_key(&seed), k0);
        let mut stop = base.clone();
        stop.target_half_width = Some(0.01);
        assert_ne!(journal_key(&stop), k0);
        // Budgets and threads do not shape results: same key.
        let mut budgeted = base.clone();
        budgeted.budget = Budget::unlimited().with_max_trials(5);
        budgeted.threads = Some(7);
        assert_eq!(journal_key(&budgeted), k0);
    }
}
