//! Tier-1 survivability harness: interrupted-and-resumed campaigns must
//! reproduce uninterrupted campaigns bit-for-bit.
//!
//! The contract under test (see DESIGN.md "Survivable campaigns"):
//!
//! 1. a campaign run to completion equals the one-shot sweep it wraps —
//!    same trial streams, same tallies, at any thread count;
//! 2. a campaign interrupted at an arbitrary wave boundary (trial budget
//!    here; `SIGKILL` in the ci.sh smoke) and resumed from its journal,
//!    as many times as it takes, produces the same final report —
//!    per-point tallies *and* CI bounds — as one that never stopped;
//! 3. a corrupted, truncated, or mismatched journal is a typed
//!    [`JournalError`] plus either a salvaged checksummed prefix
//!    ([`Resume::Salvaged`]) or a clean cold start — never a panic —
//!    and the recovered campaign still produces the exact result.

use std::path::PathBuf;

use wlan_core::fault::{FaultChain, FaultKind};
use wlan_core::linksim::{sweep_per_faulted, FhssLink, OfdmLink};
use wlan_core::mac::arq::{ArqConfig, GeLossConfig};
use wlan_core::mac::traffic::{simulate_traffic_multi, TrafficConfig};
use wlan_core::mac::MacProfile;
use wlan_core::mesh::coverage::estimate_coverage_seeded;
use wlan_core::ofdm::OfdmRate;
use wlan_runner::budget::Budget;
use wlan_runner::coverage::{run_coverage_campaign, CoverageCampaignConfig};
use wlan_runner::per::{run_per_campaign, PerCampaignConfig, PointStatus};
use wlan_runner::traffic::{run_traffic_campaign, TrafficCampaignConfig};
use wlan_runner::{JournalError, Outcome, Resume, StopReason};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wlan_kr_{}_{name}.journal", std::process::id()))
}

const SNRS: [f64; 4] = [2.0, 5.0, 8.0, 11.0];

fn per_cfg(threads: Option<usize>) -> PerCampaignConfig {
    let mut cfg = PerCampaignConfig::new(&SNRS, 25, 96, 2005).with_budget(Budget::unlimited());
    cfg.threads = threads;
    cfg
}

#[test]
fn complete_campaign_equals_one_shot_sweep_at_any_thread_count() {
    let link = FhssLink;
    let chain = FaultKind::FrameTruncation.chain(0.5);
    let sweep = sweep_per_faulted(&link, &chain, &SNRS, 25, 96, 2005);
    for threads in [Some(1), None] {
        let report = run_per_campaign(&link, &chain, &per_cfg(threads));
        assert!(report.outcome.is_complete());
        assert_eq!(
            report.to_fault_sweep(),
            sweep,
            "threads={threads:?}: campaign tallies must equal sweep_per_faulted"
        );
    }
}

/// Interrupt a PER campaign after every single wave via a trial budget,
/// resuming from the journal each time, and require the converged report
/// — tallies, statuses, CI bounds, quarantine ledger — to be
/// bit-identical to the uninterrupted campaign's. Run at pinned serial
/// and default threading.
#[test]
fn killed_and_resumed_per_campaign_is_bit_identical() {
    let link = FhssLink;
    let chain = FaultKind::FrameTruncation.chain(0.5);
    for threads in [Some(1), None] {
        let path = tmp(&format!("per_{threads:?}"));
        let _ = std::fs::remove_file(&path);

        let mut uninterrupted_cfg = per_cfg(threads).with_target_half_width(0.08);
        uninterrupted_cfg.max_frames = 256;
        // Guarantee several waves per point so the one-wave budget below
        // really interrupts the campaign mid-flight.
        uninterrupted_cfg.min_frames = 96;
        let uninterrupted = run_per_campaign(&link, &chain, &uninterrupted_cfg);

        let mut loops = 0;
        let mut completed = 0u64;
        let resumed = loop {
            // One wave per invocation: the harshest interruption pattern
            // a budget can produce. The trial budget is cumulative across
            // resume, so each invocation's cap is one past the journal.
            let cfg = uninterrupted_cfg
                .clone()
                .with_journal(path.clone())
                .with_budget(Budget::unlimited().with_max_trials(completed + 1));
            let r = run_per_campaign(&link, &chain, &cfg);
            assert_eq!(r.journal_error, None);
            completed = r.completed_trials();
            loops += 1;
            assert!(loops < 200, "campaign failed to converge");
            match r.outcome {
                Outcome::Complete => break r,
                Outcome::Partial { .. } => {}
            }
        };
        assert!(loops > 2, "budget never actually interrupted the campaign");
        assert!(matches!(resumed.resume, Resume::Resumed { .. }));

        assert_eq!(resumed.points, uninterrupted.points, "threads={threads:?}");
        assert_eq!(resumed.quarantine, uninterrupted.quarantine);
        for (a, b) in resumed.points.iter().zip(&uninterrupted.points) {
            let (ca, cb) = (a.ci().unwrap(), b.ci().unwrap());
            assert_eq!(ca.lo.to_bits(), cb.lo.to_bits(), "CI lower bound must be bit-identical");
            assert_eq!(ca.hi.to_bits(), cb.hi.to_bits(), "CI upper bound must be bit-identical");
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn early_stopping_survives_interruption() {
    // With a CI target, the resumed campaign must stop each point at the
    // same round as the uninterrupted one (stopping is a pure function
    // of tallies at round boundaries).
    let link = OfdmLink::awgn(OfdmRate::R12);
    let chain = FaultChain::clean();
    let path = tmp("early");
    let _ = std::fs::remove_file(&path);

    let mut base = PerCampaignConfig::new(&[3.0, 6.0], 40, 512, 7)
        .with_budget(Budget::unlimited())
        .with_target_half_width(0.07);
    base.threads = Some(1);
    let uninterrupted = run_per_campaign(&link, &chain, &base);
    assert!(uninterrupted
        .points
        .iter()
        .any(|p| p.status == PointStatus::StoppedEarly));

    let mut loops = 0;
    let mut completed = 0u64;
    let resumed = loop {
        // Cumulative cap: one more round of trials than already banked.
        let cfg = base
            .clone()
            .with_journal(path.clone())
            .with_budget(Budget::unlimited().with_max_trials(completed + 32));
        let r = run_per_campaign(&link, &chain, &cfg);
        completed = r.completed_trials();
        loops += 1;
        assert!(loops < 100, "failed to converge");
        if r.outcome.is_complete() {
            break r;
        }
    };
    assert_eq!(resumed.points, uninterrupted.points);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_journal_is_typed_error_and_clean_cold_start() {
    let link = FhssLink;
    let chain = FaultChain::clean();
    let path = tmp("corrupt");

    // A half-finished campaign writes a valid journal...
    let cfg = per_cfg(Some(1))
        .with_journal(path.clone())
        .with_budget(Budget::unlimited().with_max_trials(1));
    let partial = run_per_campaign(&link, &chain, &cfg);
    assert!(!partial.outcome.is_complete());

    // ...which then gets a byte flipped.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] = bytes[mid].wrapping_add(1);
    std::fs::write(&path, &bytes).unwrap();

    let report = run_per_campaign(&link, &chain, &cfg.clone().with_budget(Budget::unlimited()));
    // Damage yields a typed error either way; whether a checksummed
    // prefix survived the flip decides Salvaged vs ColdStart.
    let error = match &report.resume {
        Resume::Salvaged { error, .. } | Resume::ColdStart { error } => error,
        other => panic!("expected salvage or cold start, got {other:?}"),
    };
    assert!(
        matches!(
            error,
            JournalError::ChecksumMismatch
                | JournalError::Malformed { .. }
                | JournalError::Truncated
                | JournalError::KeyMismatch
                | JournalError::MissingHeader
        ),
        "{error:?}"
    );
    // Either recovery path still converges to the exact uninterrupted
    // result.
    let fresh = run_per_campaign(&link, &chain, &per_cfg(Some(1)));
    assert_eq!(report.points, fresh.points);

    // Truncation (torn tail) is likewise typed and non-fatal.
    let valid = std::fs::read(&path).unwrap();
    std::fs::write(&path, &valid[..valid.len() * 2 / 3]).unwrap();
    let report = run_per_campaign(&link, &chain, &cfg.clone().with_budget(Budget::unlimited()));
    assert!(matches!(
        report.resume,
        Resume::ColdStart { .. } | Resume::Salvaged { .. }
    ));
    assert_eq!(report.points, fresh.points);

    // An empty journal file too.
    std::fs::write(&path, b"").unwrap();
    let report = run_per_campaign(&link, &chain, &cfg.clone().with_budget(Budget::unlimited()));
    assert_eq!(
        report.resume,
        Resume::ColdStart {
            error: JournalError::Truncated
        }
    );
    let _ = std::fs::remove_file(&path);
}

/// `WLAN_MAX_TRIALS` meters the whole campaign, not each invocation:
/// trials restored from the journal count against the cap, so a
/// re-invocation under an already-spent budget makes zero new progress.
/// (Before PR 5 the meter reset on every resume, silently re-spending
/// the trial budget each time the process was killed and re-run.)
/// Referenced by the `wlan_runner::budget` module docs.
#[test]
fn trial_budget_is_cumulative_across_resume() {
    let link = FhssLink;
    let chain = FaultChain::clean();
    let path = tmp("cumulative");
    let _ = std::fs::remove_file(&path);

    let capped = per_cfg(Some(1))
        .with_journal(path.clone())
        .with_budget(Budget::unlimited().with_max_trials(64));

    let first = run_per_campaign(&link, &chain, &capped);
    assert!(!first.outcome.is_complete());
    let banked = first.completed_trials();
    assert!(banked >= 64, "expected the cap to be reached, banked {banked}");

    // Re-invoking with the same cap finds the budget already spent: no
    // new trials, same tallies, a typed TrialBudget stop.
    let second = run_per_campaign(&link, &chain, &capped);
    assert!(matches!(second.resume, Resume::Resumed { .. }));
    assert_eq!(
        second.completed_trials(),
        banked,
        "a resumed invocation must not re-spend the trial budget"
    );
    assert_eq!(second.points, first.points);
    assert!(matches!(
        second.outcome,
        Outcome::Partial {
            reason: StopReason::TrialBudget,
            ..
        }
    ));

    // Raising the cap lets the campaign continue from the journal.
    let third = run_per_campaign(
        &link,
        &chain,
        &capped
            .clone()
            .with_budget(Budget::unlimited().with_max_trials(banked + 1)),
    );
    assert!(
        third.completed_trials() > banked,
        "a raised cap must buy new progress"
    );
    let _ = std::fs::remove_file(&path);
}

/// A damaged journal tail must not cost the verified prefix: flip one
/// byte near the end of a multi-checkpoint journal and the next
/// invocation reports [`Resume::Salvaged`] with banked trials, re-runs
/// only the damaged tail, and still converges to the exact
/// uninterrupted result. (Regression for the salvage chain: before it,
/// any single bit flip cold-started the whole campaign.)
#[test]
fn bit_flip_in_journal_tail_salvages_the_verified_prefix() {
    let link = FhssLink;
    let chain = FaultChain::clean();
    let path = tmp("salvage");
    let _ = std::fs::remove_file(&path);

    let uninterrupted = run_per_campaign(&link, &chain, &per_cfg(Some(1)));

    // Bank several waves (and therefore several verified `sum` lines).
    let mut completed = 0u64;
    for _ in 0..2 {
        let cfg = per_cfg(Some(1))
            .with_journal(path.clone())
            .with_budget(Budget::unlimited().with_max_trials(completed + 1));
        let r = run_per_campaign(&link, &chain, &cfg);
        assert!(!r.outcome.is_complete());
        completed = r.completed_trials();
    }
    assert!(completed > 0);

    // Flip one bit near the tail: the cumulative checksum chain breaks
    // there, but every earlier `sum` line still verifies.
    let mut bytes = std::fs::read(&path).unwrap();
    let idx = bytes.len() - 2;
    bytes[idx] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let report = run_per_campaign(
        &link,
        &chain,
        &per_cfg(Some(1)).with_journal(path.clone()).with_budget(Budget::unlimited()),
    );
    let Resume::Salvaged { trials, .. } = &report.resume else {
        panic!("expected salvage, got {:?}", report.resume);
    };
    assert!(*trials > 0, "the verified prefix must not be empty");
    assert_eq!(report.points, uninterrupted.points);
    assert_eq!(report.quarantine, uninterrupted.quarantine);
    let _ = std::fs::remove_file(&path);
}

/// The same salvage for a distributed campaign's `" dist v1"` journal:
/// banked rounds are folded by the coordinator, the tail is flipped, and
/// the next invocation restores the verified prefix through the same
/// ladder, then finishes equal by `f64::to_bits` to the single-process
/// campaign — tallies, rates and quarantine ledger.
#[test]
fn bit_flip_in_dist_journal_tail_salvages_the_verified_prefix() {
    use wlan_dist::{run_dist_per_campaign, DistConfig, FaultSpec, InProcessFactory, LinkSpec};

    let spec = LinkSpec::Fhss;
    let fault = FaultSpec::Single {
        kind: FaultKind::FrameTruncation,
        severity: 0.5,
    };
    let path = tmp("dist_salvage");
    let _ = std::fs::remove_file(&path);
    let run = |budget: Budget| {
        let per = per_cfg(Some(1)).with_journal(path.clone()).with_budget(budget);
        run_dist_per_campaign(spec, fault, &DistConfig::new(per, 1), &mut InProcessFactory::clean())
    };

    let mut baseline = run_per_campaign(&*spec.build(), &fault.build(), &per_cfg(Some(1)));
    baseline.quarantine.sort_by_key(|q| (q.point, q.frame));
    assert!(!baseline.quarantine.is_empty(), "the ledger must take part in the salvage");

    // Bank one round per invocation: several verified `sum` lines.
    let mut completed = 0u64;
    for _ in 0..2 {
        let r = run(Budget::unlimited().with_max_trials(completed + 1));
        assert!(!r.outcome.is_complete());
        completed = r.completed_trials();
    }
    assert!(completed > 0);

    let mut bytes = std::fs::read(&path).unwrap();
    let idx = bytes.len() - 2;
    bytes[idx] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let report = run(Budget::unlimited());
    let Resume::Salvaged { trials, .. } = &report.resume else {
        panic!("expected salvage, got {:?}", report.resume);
    };
    assert!(*trials > 0, "the verified prefix must not be empty");
    assert!(report.outcome.is_complete());
    assert_eq!(report.points, baseline.points);
    assert_eq!(report.quarantine, baseline.quarantine);
    for (a, b) in report.points.iter().zip(&baseline.points) {
        assert_eq!(a.per().to_bits(), b.per().to_bits());
        assert_eq!(a.erasure_rate().to_bits(), b.erasure_rate().to_bits());
    }
    let _ = std::fs::remove_file(&path);
}

/// Campaigns bank whole rounds only, so a checksummed dist journal whose
/// point frontier sits off the [`ROUND_TRIALS`] grid is malformed: it
/// cold-starts, where the same line on the grid resumes.
#[test]
fn dist_journal_frontier_off_the_round_grid_cold_starts() {
    use wlan_dist::{run_dist_per_campaign, DistConfig, FaultSpec, InProcessFactory, LinkSpec};
    use wlan_runner::journal;
    use wlan_runner::per::ROUND_TRIALS;

    let spec = LinkSpec::Fhss;
    let fault = FaultSpec::Clean;
    let path = tmp("dist_grid");
    let per = per_cfg(Some(1)).with_journal(path.clone());
    let key = format!("{} dist v1", per.journal_key(&*spec.build(), &fault.build()));
    let baseline = run_per_campaign(&*spec.build(), &fault.build(), &per_cfg(Some(1)));

    for (trials, on_grid) in [(ROUND_TRIALS, true), (ROUND_TRIALS + 8, false)] {
        let _ = std::fs::remove_file(&path);
        let body: Vec<String> = (0..SNRS.len())
            .map(|i| {
                let t = if i == 0 { trials } else { 0 };
                format!("point i={i} trials={t} errors=0 erasures=0 status=active")
            })
            .collect();
        journal::save(&path, &key, &body).unwrap();
        let cfg = DistConfig::new(per.clone(), 1);
        let report = run_dist_per_campaign(spec, fault, &cfg, &mut InProcessFactory::clean());
        if on_grid {
            assert_eq!(report.resume, Resume::Resumed { trials });
        } else {
            let error = JournalError::Malformed { line: 3 };
            assert_eq!(report.resume, Resume::ColdStart { error });
            assert_eq!(report.points, baseline.points, "a cold start still finishes exactly");
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Quarantine replay determinism matrix: a campaign run single-process
/// or distributed, serial or threaded, must produce the *same*
/// quarantine ledger, and every entry must replay to the identical
/// typed error from its recorded stream coordinates alone. This is the
/// property that makes a quarantined lease's `qlease` line actionable:
/// the replay coordinates mean the same thing no matter which worker
/// originally hit the failure.
#[test]
fn quarantine_replay_is_deterministic_across_threads_and_workers() {
    use wlan_dist::{
        run_dist_per_campaign, DistConfig, FaultSpec, InProcessFactory, LinkSpec,
    };
    use wlan_runner::per::replay_trial;

    let spec = LinkSpec::Fhss;
    let fault = FaultSpec::Single {
        kind: wlan_fault::FaultKind::FrameTruncation,
        severity: 1.0,
    };
    let payload = 20;
    let per = |threads: Option<usize>| {
        let mut cfg = PerCampaignConfig::new(&SNRS, payload, 96, 2005)
            .with_budget(Budget::unlimited());
        cfg.threads = threads;
        cfg
    };

    let link = spec.build();
    let chain = fault.build();
    let mut baseline = run_per_campaign(&*link, &chain, &per(Some(1)));
    assert!(
        !baseline.quarantine.is_empty(),
        "matrix needs a non-empty ledger to mean anything"
    );
    baseline.quarantine.sort_by_key(|q| (q.point, q.frame));

    for threads in [Some(1), Some(2), None] {
        for workers in [1usize, 2] {
            let cfg = DistConfig::new(per(threads), workers);
            let mut factory = InProcessFactory::clean();
            let report = run_dist_per_campaign(spec, fault, &cfg, &mut factory);
            assert_eq!(
                report.quarantine, baseline.quarantine,
                "threads={threads:?} workers={workers}: ledgers must agree"
            );
            for entry in &report.quarantine {
                let replayed = replay_trial(&*link, &chain, payload, entry);
                let err = replayed.expect_err("a quarantined trial must replay to an error");
                assert_eq!(
                    format!("{err}"),
                    entry.error,
                    "threads={threads:?} workers={workers}: replay must reproduce \
                     the recorded error for point={} frame={}",
                    entry.point,
                    entry.frame
                );
            }
        }
    }
}

#[test]
fn traffic_campaign_resumes_to_ensemble_equality() {
    let base = TrafficConfig {
        profile: MacProfile::dot11a(54.0),
        n_stations: 5,
        payload_bytes: 700,
        arrival_rate_hz: 80.0,
        sim_time_us: 150_000.0,
        seed: 13,
        arq: ArqConfig::disabled(),
        loss: GeLossConfig::clean(),
    };
    let ensemble = simulate_traffic_multi(&base, 8);

    let path = tmp("traffic");
    let _ = std::fs::remove_file(&path);
    let mut loops: u64 = 0;
    let resumed = loop {
        // Cumulative cap: one more wave of runs per invocation.
        let cfg = TrafficCampaignConfig::new(base, 8)
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
    assert_eq!(
        resumed.to_ensemble(),
        ensemble,
        "resumed traffic campaign must equal simulate_traffic_multi bit-for-bit"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn coverage_campaign_resumes_to_estimator_equality() {
    let mesh = [(50.0, 50.0), (220.0, 50.0), (50.0, 220.0), (220.0, 220.0)];
    let one_shot = estimate_coverage_seeded(&mesh, 450.0, 192, 8);

    let path = tmp("coverage");
    let _ = std::fs::remove_file(&path);
    let mut loops: u64 = 0;
    let resumed = loop {
        // Cumulative cap: one more round of samples per invocation.
        let cfg = CoverageCampaignConfig::new(&mesh, 450.0, 192, 8)
            .with_budget(Budget::unlimited().with_max_trials(64 * (loops + 1)))
            .with_journal(path.clone())
            .with_threads(1);
        let r = run_coverage_campaign(&cfg);
        loops += 1;
        assert!(loops < 10, "failed to converge");
        if r.outcome.is_complete() {
            break r;
        }
    };
    assert!(loops > 1);
    let got = resumed.to_coverage();
    assert_eq!(got, one_shot, "resumed coverage must equal the one-shot estimator");
    assert_eq!(
        got.mean_throughput_mbps.to_bits(),
        one_shot.mean_throughput_mbps.to_bits(),
        "float fold must be bit-identical, not merely approximately equal"
    );
    let _ = std::fs::remove_file(&path);
}
