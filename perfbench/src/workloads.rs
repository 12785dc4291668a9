//! The four closed-loop workloads. One client runs campaigns back to
//! back: each starts when the previous one finishes. Every campaign's
//! result is checked against its golden reference after the timed phase.

use std::path::{Path, PathBuf};
use std::time::Instant;

use wlan_city::{run_city_campaign, CityCampaignConfig, CityConfig, PerTableSet};
use wlan_core::coding::CodeRate;
use wlan_core::dsss::DsssRate;
use wlan_core::fault::{FaultChain, FaultKind};
use wlan_core::linksim::{
    frame_trial_at, DsssLink, FhssLink, HtLink, MimoLink, OfdmLink, PhyLink, StbcLink,
};
use wlan_core::math::par;
use wlan_core::math::rng::{SplitMix64, WlanRng};
use wlan_core::ofdm::params::Modulation;
use wlan_core::ofdm::OfdmRate;
use wlan_dist::{
    run_dist_per_campaign_on, DistConfig, DistStats, FaultSpec, Fleet, LinkSpec, ProcessFactory,
};
use wlan_runner::per::{run_per_campaign, PerCampaignConfig, PerCampaignReport};
use wlan_runner::{Budget, Resume};

use crate::cores::Cores;
use crate::golden;
use crate::trace::{core_balanced_fps, Unit};

/// Payload bytes of every PHY campaign frame (E04/E16's 100-byte frames).
pub const PHY_PAYLOAD: usize = 100;
/// Threads the verification replays use; they run after the timed phase.
const VERIFY_THREADS: usize = 2;

/// The `k`-th campaign seed of a run seeded with `seed`.
pub fn campaign_seed(seed: u64, k: u64) -> u64 {
    SplitMix64::new(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// What one workload run measured.
pub struct RunResult {
    /// Golden-checked units attempted (campaign passes, kill/resume
    /// pairs, fleet campaigns).
    pub attempted: u64,
    /// Why each failed unit failed, one entry per failed unit.
    pub errors: Vec<String>,
    /// Every timed unit.
    pub units: Vec<Unit>,
    /// Set-up times measured in this process, in seconds.
    pub setup_samples: Vec<f64>,
    /// `VmHWM` at the end of the timed phase, in MB.
    pub peak_rss_mb: f64,
}

impl RunResult {
    fn new() -> Self {
        RunResult {
            attempted: 0,
            errors: Vec::new(),
            units: Vec::new(),
            setup_samples: Vec::new(),
            peak_rss_mb: 0.0,
        }
    }

    fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.errors.push(e);
        }
    }

    pub fn frames_per_s(&self) -> f64 {
        core_balanced_fps(&self.units).unwrap_or(0.0)
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// PHY workloads
// ---------------------------------------------------------------------

/// A link with the generation its per-frame timings are filed under.
pub struct Link {
    pub generation: &'static str,
    pub phy: Box<dyn PhyLink>,
}

fn link(generation: &'static str, phy: impl PhyLink + 'static) -> Link {
    Link {
        generation,
        phy: Box::new(phy),
    }
}

/// E04's eight links: DSSS 1/2/11, OFDM 6/24/54, MIMO 2×2 and 1×2.
pub fn waterfall_links() -> Vec<Link> {
    vec![
        link(
            "dsss",
            DsssLink {
                rate: DsssRate::Dbpsk1M,
            },
        ),
        link(
            "dsss",
            DsssLink {
                rate: DsssRate::Dqpsk2M,
            },
        ),
        link(
            "dsss",
            DsssLink {
                rate: DsssRate::Cck11M,
            },
        ),
        link("ofdm", OfdmLink::awgn(OfdmRate::R6)),
        link("ofdm", OfdmLink::awgn(OfdmRate::R24)),
        link("ofdm", OfdmLink::awgn(OfdmRate::R54)),
        link("mimo", MimoLink::flat(2, 2)),
        link("mimo", MimoLink::flat(1, 2)),
    ]
}

/// E16's six links, one per generation.
pub fn faulted_links() -> Vec<Link> {
    vec![
        link("fhss", FhssLink),
        link(
            "dsss",
            DsssLink {
                rate: DsssRate::Cck11M,
            },
        ),
        link("ofdm", OfdmLink::awgn(OfdmRate::R24)),
        link(
            "ht_ldpc",
            HtLink {
                modulation: Modulation::Qam16,
                code_rate: CodeRate::R1_2,
                ldpc: true,
                fading: false,
            },
        ),
        link("mimo", MimoLink::flat(2, 2)),
        link("stbc", StbcLink::flat(1)),
    ]
}

/// E04's 12-point clean grid, −2..31 dB.
pub fn waterfall_snrs() -> Vec<f64> {
    (0..12).map(|i| -2.0 + 3.0 * f64::from(i)).collect()
}

/// SNR of every faulted campaign (E16's operating point).
pub const FAULTED_SNR_DB: f64 = 18.0;
const FAULT_SEVERITIES: [f64; 3] = [0.0, 0.5, 1.0];

/// One campaign of a pass: which link, which fault chain, which config.
pub struct Campaign {
    pub link: usize,
    pub faults: FaultChain,
    pub cfg: PerCampaignConfig,
}

fn phy_config(snrs: &[f64], max_frames: u64, seed: u64) -> PerCampaignConfig {
    PerCampaignConfig::new(snrs, PHY_PAYLOAD, max_frames, seed).with_budget(Budget::unlimited())
}

/// A waterfall pass: every link over the clean grid with Wilson early
/// stopping (half-width 0.06, 32..96 frames per point).
pub fn waterfall_pass(links: &[Link], seed: u64) -> Vec<Campaign> {
    let snrs = waterfall_snrs();
    (0..links.len())
        .map(|link| Campaign {
            link,
            faults: FaultChain::clean(),
            cfg: phy_config(&snrs, 96, seed).with_target_half_width(0.06),
        })
        .collect()
}

/// A faulted pass: links × fault kinds × severities, each a one-point
/// 40-frame campaign at 18 dB.
pub fn faulted_pass(links: &[Link], seed: u64) -> Vec<Campaign> {
    let mut pass = Vec::new();
    for link in 0..links.len() {
        for kind in FaultKind::all() {
            for severity in FAULT_SEVERITIES {
                pass.push(Campaign {
                    link,
                    faults: kind.chain(severity),
                    cfg: phy_config(&[FAULTED_SNR_DB], 40, seed),
                });
            }
        }
    }
    pass
}

/// Builds a workload's links and runs one warm-up frame on each: the
/// set-up a fresh process pays before its first timed frame.
pub fn phy_setup(workload: &str, seed: u64) -> (Vec<Link>, f64) {
    let started = Instant::now();
    let links = if workload == "phy_waterfall" {
        waterfall_links()
    } else {
        faulted_links()
    };
    let warm = WlanRng::seed_from_u64(seed).fork(u64::MAX);
    for l in &links {
        let _ = std::hint::black_box(frame_trial_at(
            l.phy.as_ref(),
            &FaultChain::clean(),
            FAULTED_SNR_DB,
            PHY_PAYLOAD,
            &warm,
            0,
        ));
    }
    (links, started.elapsed().as_secs_f64())
}

/// Runs the campaigns of one pass on `core`, returning their reports and
/// the timing of each as a unit whose slot is its place in the pass.
pub fn run_pass(
    links: &[Link],
    pass: &[Campaign],
    core: usize,
) -> (Vec<PerCampaignReport>, Vec<Unit>) {
    pass.iter()
        .enumerate()
        .map(|(slot, c)| {
            let started = Instant::now();
            let report = run_per_campaign(links[c.link].phy.as_ref(), &c.faults, &c.cfg);
            let unit = Unit {
                slot,
                core,
                frames: report.completed_trials(),
                seconds: started.elapsed().as_secs_f64(),
            };
            (report, unit)
        })
        .unzip()
}

/// Checks every campaign of a pass against its reference.
pub fn verify_pass(
    links: &[Link],
    pass: &[Campaign],
    reports: &[PerCampaignReport],
) -> Result<(), String> {
    let items: Vec<(&Campaign, &PerCampaignReport)> = pass.iter().zip(reports).collect();
    let checks = par::parallel_map_with_threads(VERIFY_THREADS, &items, |_, (c, r)| {
        golden::check_campaign(links[c.link].phy.as_ref(), &c.faults, &c.cfg, r)
    });
    let errors: Vec<String> = checks.into_iter().filter_map(Result::err).collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

/// Builds a pass of `workload` for campaign seed `seed`.
pub fn phy_pass(workload: &str, links: &[Link], seed: u64) -> Vec<Campaign> {
    if workload == "phy_waterfall" {
        waterfall_pass(links, seed)
    } else {
        faulted_pass(links, seed)
    }
}

/// `phy_waterfall` / `phy_faulted`: passes with fresh campaign seeds until
/// `seconds` of timed work, then every pass against its reference.
pub fn run_phy(workload: &str, seed: u64, seconds: f64) -> RunResult {
    let mut out = RunResult::new();
    let (links, setup_s) = phy_setup(workload, seed);
    out.setup_samples.push(setup_s);

    let cores = Cores::allowed();
    let mut passes = Vec::new();
    let mut timed = 0.0;
    let mut k = 0;
    while timed < seconds {
        let pass = phy_pass(workload, &links, campaign_seed(seed, k));
        let core = cores.pin(k as usize);
        let (mut reports, units) = run_pass(&links, &pass, core);
        timed += units.iter().map(|u| u.seconds).sum::<f64>();
        out.units.extend(units);
        // The quarantine ledger is not part of the digest. Dropping it keeps
        // memory flat across passes, so peak RSS does not depend on how
        // many passes fit into the run.
        for r in &mut reports {
            r.quarantine = Vec::new();
        }
        passes.push((pass, reports));
        k += 1;
    }
    out.peak_rss_mb = peak_rss_mb();
    cores.release();
    for (pass, reports) in &passes {
        out.record(verify_pass(&links, pass, reports));
    }
    out
}

// ---------------------------------------------------------------------
// city_metro
// ---------------------------------------------------------------------

/// Frames per SNR point when calibrating the city's PER tables. The
/// `city_campaign` example uses 200, which takes about a minute per
/// calibration at one thread; a pair calibrates twice. At 8 the cost per
/// calibration frame is the same (1.6 ms for 1200-byte frames, so the
/// per-sweep overhead stays negligible), and the tables resolve PER in
/// eighths, which moved the campaign's MAC attempts by 0.04 % for seed 7.
pub const CITY_CAL_FRAMES: usize = 8;

/// The `city_campaign` example's city: the 529-AP / 50 255-station
/// reuse-3 metro with its default 1200-byte payloads, 12 epochs.
pub fn city_config(seed: u64) -> CityConfig {
    let mut city = CityConfig::metro(529, 95, seed);
    city.epochs = 12;
    city.b_fraction = 0.03;
    city
}

pub fn calibrate(city: &CityConfig) -> Result<PerTableSet, String> {
    PerTableSet::calibrated(city.payload_bytes, CITY_CAL_FRAMES, city.seed)
        .map_err(|e| format!("PER calibration failed: {e}"))
}

/// A city campaign checkpointing every epoch to `journal`, with a
/// cumulative trial cap (`None` = run to completion).
pub fn city_campaign(
    city: &CityConfig,
    tables: PerTableSet,
    journal: Option<&Path>,
    max_trials: Option<u64>,
) -> CityCampaignConfig {
    let mut cfg = CityCampaignConfig::new(city.clone(), tables);
    cfg.journal = journal.map(Path::to_path_buf);
    cfg.checkpoint_every_epochs = 1;
    // The example's early-stop rule.
    cfg.target_half_width = Some(0.0005);
    cfg.min_epochs = 6;
    if let Some(cap) = max_trials {
        cfg.budget = Budget::unlimited().with_max_trials(cap);
    }
    cfg
}

/// The golden uninterrupted run: its report digest, total MAC attempts,
/// and the calibrated tables' digest.
pub struct CityGolden {
    pub digest: u64,
    pub attempts: u64,
    pub tables_digest: u64,
}

pub fn city_golden(city: &CityConfig) -> Result<CityGolden, String> {
    let tables = calibrate(city)?;
    let tables_digest = tables.digest();
    let summary = run_city_campaign(&city_campaign(city, tables, None, None))
        .map_err(|e| format!("uninterrupted city run failed: {e}"))?;
    Ok(CityGolden {
        digest: golden::city_digest(&summary.report),
        attempts: summary.report.attempts,
        tables_digest,
    })
}

/// One timed kill/resume pair.
pub struct CityPair {
    /// Both calibrations, in seconds.
    pub setup_s: f64,
    /// The two campaign invocations (epochs, journal writes, restore),
    /// each with the MAC attempts it simulated.
    pub units: Vec<Unit>,
    pub check: Result<(), String>,
}

/// Invocation 1 calibrates and runs until the trial cap stops it near
/// mid-campaign; invocation 2 calibrates again, as a restarted process
/// does, resumes from the journal and finishes.
pub fn city_pair(city: &CityConfig, golden: &CityGolden, journal: &Path, core: usize) -> CityPair {
    let _ = std::fs::remove_file(journal);
    let cap = (golden.attempts / 2).max(1);
    let mut setup_s = 0.0;
    let mut units = Vec::new();
    let mut banked = 0;
    let mut invocation = |max_trials: Option<u64>| {
        let started = Instant::now();
        let tables = calibrate(city)?;
        setup_s += started.elapsed().as_secs_f64();
        if tables.digest() != golden.tables_digest {
            return Err("PER calibration is not reproducible".to_owned());
        }
        let started = Instant::now();
        let summary = run_city_campaign(&city_campaign(city, tables, Some(journal), max_trials))
            .map_err(|e| format!("city campaign failed: {e}"))?;
        units.push(Unit {
            slot: units.len(),
            core,
            frames: summary.report.attempts - banked,
            seconds: started.elapsed().as_secs_f64(),
        });
        banked = summary.report.attempts;
        Ok(summary)
    };
    let check = (|| {
        let first = invocation(Some(cap))?;
        if first.resume != Resume::Fresh || first.outcome.is_complete() {
            return Err(format!(
                "killed invocation: resume {:?}, outcome {:?}",
                first.resume, first.outcome
            ));
        }
        let second = invocation(None)?;
        if !matches!(second.resume, Resume::Resumed { .. }) || !second.outcome.is_complete() {
            return Err(format!(
                "resumed invocation: resume {:?}, outcome {:?}",
                second.resume, second.outcome
            ));
        }
        let got = golden::city_digest(&second.report);
        if got != golden.digest {
            return Err(format!(
                "resumed city digest {got:016x} != uninterrupted {:016x}",
                golden.digest
            ));
        }
        Ok(())
    })();
    let _ = std::fs::remove_file(journal);
    CityPair {
        setup_s,
        units,
        check,
    }
}

/// `city_metro`: kill/resume pairs until `seconds` of timed work.
pub fn run_city(seed: u64, seconds: f64, tmp: &Path) -> RunResult {
    let mut out = RunResult::new();
    let city = city_config(seed);
    let golden = match city_golden(&city) {
        Ok(g) => g,
        Err(e) => {
            out.record(Err(e));
            return out;
        }
    };
    let journal = tmp.join("city.jrnl");
    let cores = Cores::allowed();
    let mut timed = 0.0;
    let mut k = 0;
    while timed < seconds {
        let pair = city_pair(&city, &golden, &journal, cores.pin(k));
        k += 1;
        timed += pair.units.iter().map(|u| u.seconds).sum::<f64>();
        out.units.extend(pair.units);
        out.setup_samples.push(pair.setup_s);
        out.record(pair.check);
    }
    cores.release();
    out.peak_rss_mb = peak_rss_mb();
    out
}

// ---------------------------------------------------------------------
// dist_fleet
// ---------------------------------------------------------------------

/// Stdio worker processes per fleet.
pub const FLEET_WORKERS: usize = 2;
/// Fleets spawned back to back for one set-up sample, which is their mean:
/// a single spawn's time jumps by scheduler slices (about 2 ms) on a
/// two-core host, and the median of single spawns jumps with it.
const SPAWNS_PER_SAMPLE: usize = 4;
const DIST_PAYLOAD: usize = 24;

pub fn dist_link() -> LinkSpec {
    LinkSpec::Ofdm(OfdmRate::R54)
}

/// The fleet campaign: OFDM 54 Mbps, short 24-byte frames over the
/// waterfall, Wilson early stopping, journal on.
pub fn dist_config(seed: u64, journal: Option<PathBuf>) -> DistConfig {
    let snrs: Vec<f64> = (0..10).map(|i| 8.0 + f64::from(i)).collect();
    let mut per = PerCampaignConfig::new(&snrs, DIST_PAYLOAD, 2048, seed)
        .with_target_half_width(0.02)
        .with_budget(Budget::unlimited());
    if let Some(path) = journal {
        per = per.with_journal(path);
    }
    DistConfig::new(per, FLEET_WORKERS).with_heartbeat_ms(200)
}

/// A fleet of stdio workers: this executable re-invoked with `--worker`.
pub fn worker_factory() -> Result<ProcessFactory, String> {
    let program = std::env::current_exe().map_err(|e| format!("cannot locate executable: {e}"))?;
    Ok(ProcessFactory {
        program,
        args: vec!["--worker".to_owned()],
    })
}

/// Spawns a fleet and handshakes every worker: a campaign holds one
/// one-frame lease per worker, and workers take leases only after their
/// handshake. Returns the fleet and the seconds this took, or why the
/// fleet is unhealthy (the fleet is then shut down).
pub fn spawn_fleet(factory: &mut ProcessFactory, seed: u64) -> Result<(Fleet, f64), String> {
    let started = Instant::now();
    let mut fleet = Fleet::spawn(FLEET_WORKERS, factory);
    let snrs: Vec<f64> = (0..FLEET_WORKERS).map(|i| 12.0 + i as f64).collect();
    let mut per =
        PerCampaignConfig::new(&snrs, DIST_PAYLOAD, 1, seed).with_budget(Budget::unlimited());
    per.min_frames = 1;
    let cfg = DistConfig::new(per, FLEET_WORKERS).with_heartbeat_ms(200);
    let report =
        run_dist_per_campaign_on(dist_link(), FaultSpec::Clean, &cfg, &mut fleet, "", None);
    let seconds = started.elapsed().as_secs_f64();
    let s = &report.stats;
    let alive = fleet.alive_workers();
    if alive != FLEET_WORKERS
        || s.worker_deaths != 0
        || s.fallback_leases != 0
        || !report.outcome.is_complete()
    {
        fleet.shutdown();
        return Err(format!(
            "fleet set-up unhealthy: {alive} of {FLEET_WORKERS} workers alive, \
             {} deaths, {} fallback leases, outcome {:?}",
            s.worker_deaths, s.fallback_leases, report.outcome
        ));
    }
    Ok((fleet, seconds))
}

/// One set-up sample: the mean time of `SPAWNS_PER_SAMPLE` fleets spawned
/// and handshaken one after another, each shut down before the next. Every
/// fleet is a checked unit of `out`; a sample with an unhealthy fleet is
/// not recorded.
fn setup_sample(out: &mut RunResult, factory: &mut ProcessFactory, seed: u64) {
    let mut total = 0.0;
    let mut healthy = true;
    for i in 0..SPAWNS_PER_SAMPLE {
        let check = spawn_fleet(factory, campaign_seed(seed, i as u64)).map(|(mut fleet, s)| {
            fleet.shutdown();
            total += s;
        });
        healthy &= check.is_ok();
        out.record(check);
    }
    if healthy {
        out.setup_samples.push(total / SPAWNS_PER_SAMPLE as f64);
    }
}

/// One fleet campaign's rendered table, frames, fleet statistics and
/// health verdict.
pub struct FleetRun {
    pub table: Vec<u8>,
    pub frames: u64,
    pub stats: DistStats,
    pub health: Result<(), String>,
}

/// Runs one fleet campaign with a fresh journal.
pub fn fleet_campaign(fleet: &mut Fleet, cfg: &DistConfig) -> FleetRun {
    if let Some(path) = &cfg.per.journal {
        let _ = std::fs::remove_file(path);
    }
    let report = run_dist_per_campaign_on(dist_link(), FaultSpec::Clean, cfg, fleet, "", None);
    let s = &report.stats;
    let health = if s.redispatches != 0 || s.worker_deaths != 0 || s.fallback_leases != 0 {
        Err(format!(
            "fleet unhealthy: {} redispatches, {} deaths, {} fallback leases",
            s.redispatches, s.worker_deaths, s.fallback_leases
        ))
    } else if report.resume != Resume::Fresh || report.journal_error.is_some() {
        Err(format!(
            "journal: resume {:?}, error {:?}",
            report.resume, report.journal_error
        ))
    } else if !report.outcome.is_complete() {
        Err(format!("fleet campaign incomplete: {:?}", report.outcome))
    } else {
        Ok(())
    };
    if let Some(path) = &cfg.per.journal {
        let _ = std::fs::remove_file(path);
    }
    FleetRun {
        table: golden::render(&report),
        frames: report.completed_trials(),
        stats: report.stats,
        health,
    }
}

/// A fleet run passes when the fleet stayed healthy and its table equals
/// the in-process campaign's byte for byte.
pub fn check_fleet_run(cfg: &DistConfig, run: FleetRun) -> Result<(), String> {
    run.health?;
    if in_process_table(cfg, VERIFY_THREADS) == run.table {
        Ok(())
    } else {
        Err(format!(
            "fleet table differs from in-process (seed {})",
            cfg.per.seed
        ))
    }
}

/// The in-process table the fleet's must equal.
pub fn in_process_table(cfg: &DistConfig, threads: usize) -> Vec<u8> {
    let mut per = cfg.per.clone().with_threads(threads);
    per.journal = None;
    let report = run_per_campaign(dist_link().build().as_ref(), &FaultChain::clean(), &per);
    golden::in_process_table(&report)
}

/// `dist_fleet`: fleet campaigns back to back until `seconds` of timed
/// work, each checked against the in-process campaign. A set-up sample is
/// taken after each timed campaign, on fleets of its own, so the samples
/// spread over the run instead of catching one moment of the host.
pub fn run_dist(seed: u64, seconds: f64, tmp: &Path) -> RunResult {
    let mut out = RunResult::new();
    let mut factory = match worker_factory() {
        Ok(f) => f,
        Err(e) => {
            out.record(Err(e));
            return out;
        }
    };
    let mut fleet = match spawn_fleet(&mut factory, campaign_seed(seed, u64::MAX)) {
        Ok((fleet, _)) => fleet,
        Err(e) => {
            out.record(Err(e));
            return out;
        }
    };

    let journal = tmp.join("dist.jrnl");
    let mut runs = Vec::new();
    let mut timed = 0.0;
    let mut k = 0;
    while timed < seconds {
        let cfg = dist_config(campaign_seed(seed, k), Some(journal.clone()));
        let started = Instant::now();
        let run = fleet_campaign(&mut fleet, &cfg);
        let seconds = started.elapsed().as_secs_f64();
        timed += seconds;
        out.units.push(Unit {
            slot: 0,
            core: 0,
            frames: run.frames,
            seconds,
        });
        runs.push((cfg, run));
        setup_sample(&mut out, &mut factory, campaign_seed(seed, 1 << 32 | k));
        k += 1;
    }
    out.peak_rss_mb = peak_rss_mb();
    fleet.shutdown();

    for (cfg, run) in runs {
        out.record(check_fleet_run(&cfg, run));
    }
    out
}
