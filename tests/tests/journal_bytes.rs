//! On-disk journal bytes are a compatibility contract: a journal written
//! by an older build must resume under a newer one. Each case runs a
//! small campaign into a fresh journal, once stopped mid-campaign by a
//! trial budget and once to completion, and pins the file's length and
//! FNV-1a 64 digest, so any change to a key, a body line, a record
//! order or the state a campaign exits with shows up here. (The city
//! snapshot is pinned by `wlan_city`'s own `snapshot_bytes_are_pinned`.)

use std::path::{Path, PathBuf};

use wlan_core::fault::FaultKind;
use wlan_core::linksim::FhssLink;
use wlan_core::mac::arq::{ArqConfig, GeLossConfig};
use wlan_core::mac::traffic::TrafficConfig;
use wlan_core::mac::MacProfile;
use wlan_dist::{run_dist_per_campaign, DistConfig, FaultSpec, InProcessFactory, LinkSpec};
use wlan_runner::budget::{Budget, Outcome, StopReason};
use wlan_runner::capacity::{run_capacity_campaign, CapacityCampaignConfig};
use wlan_runner::coverage::{run_coverage_campaign, CoverageCampaignConfig};
use wlan_runner::journal::fnv1a64;
use wlan_runner::per::{run_per_campaign, PerCampaignConfig};
use wlan_runner::traffic::{run_traffic_campaign, TrafficCampaignConfig};
use wlan_runner::Resume;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wlan_jb_{}_{name}.journal", std::process::id()))
}

/// `(length, FNV-1a 64)` of the journal at `path`, which is then removed.
fn pin(path: &Path) -> (usize, u64) {
    let bytes = std::fs::read(path).expect("campaign wrote a journal");
    let _ = std::fs::remove_file(path);
    (bytes.len(), fnv1a64(&bytes))
}

/// Runs `run` twice into fresh journals — under a `mid` trial cap, then
/// unlimited — and returns both pins.
fn pins(name: &str, mid: u64, run: impl Fn(&Path, Budget)) -> [(usize, u64); 2] {
    [
        Budget::unlimited().with_max_trials(mid),
        Budget::unlimited(),
    ]
    .map(|budget| {
        let path = tmp(name);
        let _ = std::fs::remove_file(&path);
        run(&path, budget);
        pin(&path)
    })
}

/// Three SNR points under frame truncation, so every trial lands in the
/// journal's `quar` ledger, and a CI target that stops each point
/// `early` after its third wave.
fn per_cfg() -> PerCampaignConfig {
    let mut cfg = PerCampaignConfig::new(&[4.0, 8.0, 12.0], 20, 160, 2005)
        .with_target_half_width(0.06)
        .with_threads(1);
    cfg.min_frames = 96;
    cfg
}

#[test]
fn per_journal_bytes_are_pinned() {
    let chain = FaultKind::FrameTruncation.chain(0.1);
    let got = pins("per", 96, |path, budget| {
        let cfg = per_cfg()
            .with_journal(path.to_path_buf())
            .with_budget(budget);
        run_per_campaign(&FhssLink, &chain, &cfg);
    });
    assert_eq!(
        got,
        [
            (0x2ca8, 0x6c0e_e6c8_0cc8_f948),
            (0x82e5, 0x8b31_0ae1_b4a4_bbf5)
        ],
        "per: {got:x?}"
    );
}

#[test]
fn dist_journal_bytes_are_pinned() {
    // No workers: every lease runs in-process in creation order, so the
    // fold order — and with it the budget-stopped journal — is fixed.
    let fault = FaultSpec::Single {
        kind: FaultKind::FrameTruncation,
        severity: 0.1,
    };
    let got = pins("dist", 96, |path, budget| {
        let per = per_cfg()
            .with_journal(path.to_path_buf())
            .with_budget(budget);
        let cfg = DistConfig::new(per, 0);
        run_dist_per_campaign(LinkSpec::Fhss, fault, &cfg, &mut InProcessFactory::clean());
    });
    assert_eq!(
        got,
        [
            (0x2cbd, 0x7c3f_0546_05fc_cbb2),
            (0x82ed, 0x3a6f_89fc_aace_911f)
        ],
        "dist: {got:x?}"
    );

    // Fleet loss without fallback abandons. (a) From a fresh journal the
    // campaign gives up at once and journals its fresh state.
    let run = |path: &Path, budget: Budget, fallback: bool| {
        let per = per_cfg()
            .with_journal(path.to_path_buf())
            .with_budget(budget);
        let mut cfg = DistConfig::new(per, 0);
        if !fallback {
            cfg = cfg.without_fallback();
        }
        run_dist_per_campaign(LinkSpec::Fhss, fault, &cfg, &mut InProcessFactory::clean())
    };
    let path = tmp("dist_abandon");
    let _ = std::fs::remove_file(&path);
    let fresh = run(&path, Budget::unlimited(), false);
    let got = (pin(&path), fresh.outcome, fresh.resume);
    let abandoned = |completed, remaining| Outcome::Partial {
        completed,
        remaining,
        reason: StopReason::Abandoned,
    };
    assert_eq!(
        got,
        (
            (0x1a5, 0x71b6_d999_4681_cdf0),
            abandoned(0, 480),
            Resume::Fresh
        ),
        "dist abandoned fresh: {got:x?}"
    );

    // (b) Banked in-process to the mid cap, then re-invoked with no fleet
    // and no fallback: the journal keeps the banked bytes, and the outcome
    // counts the banked trials as completed.
    let banked = run(&path, Budget::unlimited().with_max_trials(96), true);
    let bytes = std::fs::read(&path).expect("banked journal");
    let banked = (bytes.len(), fnv1a64(&bytes), banked.outcome, banked.resume);
    let resumed = run(&path, Budget::unlimited(), false);
    let got = (banked, (pin(&path), resumed.outcome, resumed.resume));
    assert_eq!(
        got,
        (
            (
                0x2cbd,
                0x7c3f_0546_05fc_cbb2,
                Outcome::Partial {
                    completed: 96,
                    remaining: 320,
                    reason: StopReason::TrialBudget,
                },
                Resume::Fresh
            ),
            (
                (0x2cbd, 0x7c3f_0546_05fc_cbb2),
                abandoned(96, 320),
                Resume::Resumed { trials: 96 }
            )
        ),
        "dist abandoned resumed: {got:x?}"
    );
}

#[test]
fn traffic_journal_bytes_are_pinned() {
    let base = TrafficConfig {
        profile: MacProfile::dot11a(54.0),
        n_stations: 4,
        payload_bytes: 800,
        arrival_rate_hz: 60.0,
        sim_time_us: 100_000.0,
        seed: 33,
        arq: ArqConfig::disabled(),
        loss: GeLossConfig::clean(),
    };
    let got = pins("traffic", 4, |path, budget| {
        let cfg = TrafficCampaignConfig::new(base, 6)
            .with_journal(path.to_path_buf())
            .with_budget(budget)
            .with_threads(1);
        run_traffic_campaign(&cfg);
    });
    assert_eq!(
        got,
        [
            (0x495, 0x2cb7_39ad_2605_7f10),
            (0x5d9, 0x5b6b_efaa_421e_e2f8)
        ],
        "traffic: {got:x?}"
    );
}

#[test]
fn coverage_journal_bytes_are_pinned() {
    let mesh = [(50.0, 50.0), (220.0, 50.0), (50.0, 220.0), (220.0, 220.0)];
    let got = pins("coverage", 64, |path, budget| {
        let cfg = CoverageCampaignConfig::new(&mesh, 450.0, 192, 5)
            .with_journal(path.to_path_buf())
            .with_budget(budget)
            .with_threads(1);
        run_coverage_campaign(&cfg);
    });
    assert_eq!(
        got,
        [
            (0x12e, 0x6ceb_1a65_12dd_39ec),
            (0x131, 0x222c_6b07_975b_89aa)
        ],
        "coverage: {got:x?}"
    );
}

#[test]
fn capacity_journal_bytes_are_pinned() {
    let infra = [(0.0, 0.0), (150.0, 0.0), (0.0, 150.0), (150.0, 150.0)];
    let clients: Vec<(f64, f64)> = (0..40)
        .map(|i| (10.0 * (i % 20) as f64, 15.0 * (i / 20) as f64))
        .collect();
    let got = pins("capacity", 16, |path, budget| {
        let cfg = CapacityCampaignConfig::new(&infra, &clients)
            .with_journal(path.to_path_buf())
            .with_budget(budget)
            .with_threads(1);
        run_capacity_campaign(&cfg);
    });
    assert_eq!(
        got,
        [
            (0x652, 0x7e3e_f115_a86f_8955),
            (0x652, 0x591c_9d88_65d3_4a87)
        ],
        "capacity: {got:x?}"
    );
}
