//! The city campaign runner: budgets, checkpoint/resume, early stopping.
//!
//! A campaign wraps [`crate::sim::City`] in the `wlan-runner`
//! conventions — it is one more [`Campaign`] kind run by
//! [`wlan_runner::campaign::drive`]: a [`Budget`] metered in MAC
//! attempts (the city's trial unit), one epoch per wave, an optional
//! checkpoint journal, and Wilson-interval early stopping on the
//! city-wide loss rate.
//!
//! # Journal semantics
//!
//! The journal is a *state snapshot at an epoch boundary*, not an
//! append-only tally log: because the per-epoch MAC is memoryless,
//! `CityState` between epochs is the complete simulation state, and a
//! resumed campaign continues bit-identically from it. That also means a
//! *partially* intact journal is useless — unlike the per-point PER
//! campaigns there is no meaningful prefix of a snapshot — so restore
//! is strict (no salvage): any damage is a
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
use wlan_math::WlanError;
use wlan_runner::campaign::{drive, Campaign, Wave};
use wlan_runner::journal::{self, f64_from_hex, f64_to_hex, kv, kv_u64};
use wlan_runner::{Budget, JournalError, Outcome, Resume};

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
    /// Checkpoint every this many epochs of an invocation (0 = only when
    /// the invocation ends).
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
    /// Whether the Wilson early-stop rule ended the run.
    pub early_stopped: bool,
    /// Epochs simulated by *this* invocation (excludes restored ones).
    pub epochs_this_invocation: u64,
    /// The final state (journal-equivalent; lets callers diff runs).
    pub state: CityState,
    /// Set when a checkpoint failed to write (the campaign continues —
    /// checkpointing is an optimisation, not a correctness requirement).
    pub journal_error: Option<JournalError>,
}

/// Runs (or resumes) a city campaign to completion, budget exhaustion,
/// or early stop. Results are bit-identical at any thread count and
/// across any kill/resume schedule.
///
/// # Errors
///
/// [`WlanError::InvalidConfig`] if the scenario fails validation.
pub fn run_city_campaign(cfg: &CityCampaignConfig) -> Result<CityRunSummary, WlanError> {
    let campaign = CityCampaign {
        cfg,
        city: City::new(cfg.city.clone(), cfg.tables.clone())?,
        threads: cfg.threads.unwrap_or_else(num_threads),
    };
    let journal = cfg.journal.as_deref();
    let run = drive(&campaign, cfg.budget, journal, cfg.checkpoint_every_epochs);
    Ok(CityRunSummary {
        report: campaign.city.report(&run.state),
        early_stopped: run.outcome.is_complete() && campaign.early_stop(&run.state),
        outcome: run.outcome,
        resume: run.resume,
        epochs_this_invocation: run.waves,
        state: run.state,
        journal_error: run.journal_error,
    })
}

struct CityCampaign<'a> {
    cfg: &'a CityCampaignConfig,
    city: City,
    threads: usize,
}

impl CityCampaign<'_> {
    /// The Wilson early-stop rule on the city-wide loss rate.
    fn early_stop(&self, state: &CityState) -> bool {
        self.cfg.target_half_width.is_some_and(|target| {
            state.epoch >= self.cfg.min_epochs
                && state.attempts > 0
                && wilson95(state.failures, state.attempts).half_width() < target
        })
    }
}

impl Campaign for CityCampaign<'_> {
    type State = CityState;
    const KIND: &'static str = "city";
    const SALVAGE: bool = false;
    const JOURNAL_TIMER: &'static str = "city.journal_write";

    fn key(&self) -> String {
        journal_key(self.cfg)
    }

    fn fresh(&self) -> CityState {
        self.city.fresh_state()
    }

    fn encode(&self, state: &CityState) -> Vec<String> {
        snapshot(state)
    }

    fn decode(&self, body: &[String], _complete: bool) -> Result<CityState, JournalError> {
        parse_snapshot(&self.city, body)
    }

    fn trials(&self, state: &CityState) -> u64 {
        state.attempts
    }

    fn wave(&self, state: &mut CityState) -> Wave {
        let attempts = state.attempts;
        self.city.run_epoch(state, self.threads);
        Wave {
            trials: state.attempts - attempts,
            early_stops: if self.early_stop(state) { vec![0] } else { Vec::new() },
            ..Wave::default()
        }
    }

    fn done(&self, state: &CityState) -> bool {
        state.epoch >= self.cfg.city.epochs || self.early_stop(state)
    }

    /// Remaining epochs at the mean attempts per epoch so far.
    fn remaining(&self, state: &CityState) -> u64 {
        let per_epoch = state.attempts / state.epoch.max(1);
        (self.cfg.city.epochs - state.epoch) * per_epoch.max(1)
    }
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

/// Rebuilds a state from journal body lines: the `state` header, then
/// the `assoc`, `del` and `busy` chunks — each section complete before
/// the next begins — then `end`. A defective line is `Malformed` at its
/// file line; a snapshot that stops short is `Malformed` at the line
/// where the next record belongs.
fn parse_snapshot(city: &City, body: &[String]) -> Result<CityState, JournalError> {
    let mut state = city.fresh_state();
    let n_aps = city.cfg.n_aps;
    let mut header = false;
    let mut ended = false;
    let mut filled = [0usize; 3]; // values restored into assoc, del, busy
    journal::decode_lines(body, |line| {
        let mut tokens = line.split_ascii_whitespace();
        let tag = tokens.next();
        if !header {
            header = tag == Some("state") && parse_header(&mut state, tokens, city.cfg.epochs);
            return header;
        }
        let full = [state.assoc.len(), state.delivered.len(), state.busy_frac.len()];
        let section = match tag {
            Some("assoc") => 0,
            Some("del") => 1,
            Some("busy") => 2,
            Some("end") if !ended && filled == full => {
                ended = true;
                return tokens.next().is_none();
            }
            _ => return false,
        };
        if ended || filled[..section] != full[..section] {
            return false;
        }
        let Some((offset, values)) = chunk_fields(&mut tokens) else {
            return false;
        };
        let seen = &mut filled[section];
        offset == *seen
            && match section {
                0 => fill(&mut state.assoc, seen, values, |v| {
                    v.parse().ok().filter(|&ap: &u16| usize::from(ap) < n_aps)
                }),
                1 => fill(&mut state.delivered, seen, values, |v| v.parse().ok()),
                _ => fill(&mut state.busy_frac, seen, values, f64_from_hex),
            }
    })?;
    if !ended {
        return Err(JournalError::Malformed {
            line: body.len() + 3,
        });
    }
    Ok(state)
}

/// Parses the `state` header's 17 fields into `state`; `false` on any
/// malformation or impossible tally.
fn parse_header<'a>(
    state: &mut CityState,
    tokens: impl Iterator<Item = &'a str>,
    max_epochs: u64,
) -> bool {
    let t: Vec<&str> = tokens.collect();
    let parsed = (|| {
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
        Some(())
    })();
    parsed.is_some() && state.failures <= state.attempts && state.epoch <= max_epochs
}

/// Writes one chunk's comma-separated values into `dst` from index
/// `*seen` on; `false` on a bad value or overflow.
fn fill<T>(
    dst: &mut [T],
    seen: &mut usize,
    values: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> bool {
    for v in values.split(',') {
        match (dst.get_mut(*seen), parse(v)) {
            (Some(slot), Some(value)) => *slot = value,
            _ => return false,
        }
        *seen += 1;
    }
    true
}

/// Parses `o=<offset> v=<csv>` out of a chunked line's remaining tokens.
fn chunk_fields<'a, I: Iterator<Item = &'a str>>(tokens: &mut I) -> Option<(usize, &'a str)> {
    let o: usize = kv(tokens.next()?, "o")?.parse().ok()?;
    let vals = kv(tokens.next()?, "v")?;
    tokens.next().is_none().then_some((o, vals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use wlan_runner::StopReason;

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

        assert_eq!(good.len(), 5, "state, assoc, del, busy, end");
        let line = |body: &[String]| match parse_snapshot(&city, body) {
            Err(JournalError::Malformed { line }) => line,
            other => panic!("expected a malformed line, got {other:?}"),
        };

        // Dropped end marker: the snapshot stops short where `end`
        // belongs (body line 4, file line 7).
        let mut no_end = good.clone();
        no_end.pop();
        assert_eq!(line(&no_end), 7);

        // Dropped header: the first body line (file line 3) is a chunk.
        assert_eq!(line(&good[1..]), 3);

        // Dropped assoc chunk: `del` starts before assoc is complete.
        let mut truncated = good.clone();
        truncated.remove(1);
        assert_eq!(line(&truncated), 4);

        // Trailing garbage after the end marker.
        let mut trailing = good.clone();
        trailing.push("assoc o=0 v=1".to_owned());
        assert_eq!(line(&trailing), 8);

        // Out-of-range association in the assoc chunk.
        let mut bad_ap = good.clone();
        bad_ap[1] = bad_ap[1].replacen("v=", "v=9999,", 1);
        assert_eq!(line(&bad_ap), 4);

        // More failures than attempts in the header.
        let mut bad_header = good.clone();
        bad_header[0] = bad_header[0]
            .split(' ')
            .map(|t| if t.starts_with("failures=") { "failures=18446744073709551615" } else { t })
            .collect::<Vec<_>>()
            .join(" ");
        assert_eq!(line(&bad_header), 3);
    }

    #[test]
    fn unwritable_journal_is_reported_and_the_campaign_completes() {
        let path = tmp_journal("missing_dir").join("journal");
        let summary = run_city_campaign(&small_campaign(Some(path))).expect("runs");
        assert!(summary.outcome.is_complete());
        assert!(
            matches!(summary.journal_error, Some(JournalError::Io(_))),
            "{:?}",
            summary.journal_error
        );
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
