//! Distributed-campaign demonstrator for the ci.sh chaos smoke.
//!
//! Runs one PER campaign sharded over N worker subprocesses (this same
//! binary re-invoked with `--worker`) and prints the final result table
//! to stdout; fleet chatter goes to stderr. The table must be
//! *byte-identical* for any worker count and any kill schedule — the
//! coordinator's bit-identity contract — and ci.sh pins exactly that:
//! it diffs a 1-worker run against a 3-worker run that loses a worker
//! to the chaos kill mid-flight.
//!
//! Usage:
//!   distributed_campaign [--workers N] [--kill-one-after-leases L] [--journal PATH]
//!   distributed_campaign --worker        (internal: worker mode)

use wlan_core::ofdm::OfdmRate;
use wlan_dist::{run_dist_per_campaign, DistConfig, FaultSpec, LinkSpec, ProcessFactory};
use wlan_runner::per::PerCampaignConfig;
use wlan_runner::{Outcome, Resume};

fn usage() -> ! {
    eprintln!(
        "usage: distributed_campaign [--workers N] [--kill-one-after-leases L] [--journal PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--worker") {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        wlan_dist::serve(stdin.lock(), stdout.lock());
        return;
    }

    let mut workers: usize = 3;
    let mut kill_after_leases: Option<u64> = None;
    let mut journal: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => workers = n,
                None => usage(),
            },
            "--kill-one-after-leases" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => kill_after_leases = Some(n),
                None => usage(),
            },
            "--journal" => match it.next() {
                Some(p) => journal = Some(p.clone()),
                None => usage(),
            },
            _ => usage(),
        }
    }

    // The same R12 waterfall region the kill-and-resume smoke sweeps:
    // enough frames per point that a chaos kill lands mid-campaign.
    let link = LinkSpec::Ofdm(OfdmRate::R12);
    let fault = FaultSpec::Clean;
    let snrs: Vec<f64> = (0..6).map(|i| 1.0 + i as f64).collect();
    let mut per = PerCampaignConfig::new(&snrs, 150, 4096, 77).with_target_half_width(0.02);
    if let Some(path) = journal {
        per = per.with_journal(path.into());
    }

    let mut cfg = DistConfig::new(per, workers)
        .with_lease_timeout_ms(10_000)
        .with_heartbeat_ms(200);
    if let Some(n) = kill_after_leases {
        cfg = cfg.with_chaos_kill(n, 1);
    }

    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate own executable for worker re-invocation");
        std::process::exit(2);
    };
    let mut factory = ProcessFactory {
        program: exe,
        args: vec!["--worker".to_owned()],
    };
    let report = run_dist_per_campaign(link, fault, &cfg, &mut factory);

    match &report.resume {
        Resume::Fresh => eprintln!("started fresh"),
        Resume::Resumed { trials } => eprintln!("resumed with {trials} trials banked"),
        Resume::Salvaged { trials, error } => {
            eprintln!("salvaged {trials} trials from a damaged journal ({error})")
        }
        Resume::ColdStart { error } => eprintln!("cold start: {error}"),
    }
    eprintln!(
        "fleet: {} spawned, {} died, {} timeouts, {} redispatches, {} fallback leases, {} discarded trials",
        report.stats.workers_spawned,
        report.stats.worker_deaths,
        report.stats.timeouts,
        report.stats.redispatches,
        report.stats.fallback_leases,
        report.stats.discarded_trials,
    );
    match &report.outcome {
        Outcome::Complete => eprintln!("campaign complete"),
        Outcome::Partial {
            completed,
            remaining,
            reason,
        } => eprintln!("partial: {completed} done, <= {remaining} to go ({reason})"),
    }

    // The deterministic result table: stdout only, no timing, no fleet
    // state, no paths — identical bytes at any worker count.
    let mut out = std::io::stdout().lock();
    let _ = report.render_table(&mut out);

    if !report.outcome.is_complete() {
        std::process::exit(3);
    }
}
