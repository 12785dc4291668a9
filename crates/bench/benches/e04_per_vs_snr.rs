//! E4 — PER versus SNR for every generation's representative rates: the
//! robustness-for-rate trade that each fivefold step paid.

use wlan_bench::emit::BenchRun;
use wlan_bench::header;
use wlan_bench::timing::Timer;
use wlan_core::dsss::DsssRate;
use wlan_core::fault::FaultChain;
use wlan_core::linksim::{sweep_per, DsssLink, MimoLink, OfdmLink, PhyLink};
use wlan_core::ofdm::OfdmRate;
use wlan_runner::per::{run_per_campaign, PerCampaignConfig};

fn experiment(c: &mut Timer) {
    let run = BenchRun::start("e04");
    header(
        "E4",
        "PER vs SNR by generation (100-byte frames, AWGN / flat fading)",
    );
    let snrs: Vec<f64> = (0..12).map(|i| -2.0 + 3.0 * i as f64).collect();
    let payload = 100;

    let links: Vec<Box<dyn PhyLink>> = vec![
        Box::new(DsssLink {
            rate: DsssRate::Dbpsk1M,
        }),
        Box::new(DsssLink {
            rate: DsssRate::Dqpsk2M,
        }),
        Box::new(DsssLink {
            rate: DsssRate::Cck11M,
        }),
        Box::new(OfdmLink::awgn(OfdmRate::R6)),
        Box::new(OfdmLink::awgn(OfdmRate::R24)),
        Box::new(OfdmLink::awgn(OfdmRate::R54)),
        Box::new(MimoLink::flat(2, 2)),
        Box::new(MimoLink::flat(1, 2)),
    ];

    print!("{:>30}", "SNR(dB):");
    for s in &snrs {
        print!("{s:>6.0}");
    }
    println!();
    let sweep_started = std::time::Instant::now();
    let mut required = Vec::new();
    let mut trial_total = 0u64;
    for link in &links {
        // Survivable campaign: each point stops at a Wilson 95%
        // half-width of 0.06 (min 32, max 96 frames), so saturated
        // points (PER ~0 or ~1) finish in one round while waterfall
        // points earn extra frames. WLAN_BUDGET_MS / WLAN_MAX_TRIALS
        // bound the whole table if set.
        let cfg = PerCampaignConfig::new(&snrs, payload, 96, 4).with_target_half_width(0.06);
        let report = run_per_campaign(link.as_ref(), &FaultChain::clean(), &cfg);
        trial_total += report.completed_trials();
        print!("{:>30}", report.name);
        for p in &report.points {
            print!("{:>6.2}", p.per());
        }
        println!();
        let curve = report.to_fault_sweep().into_per_curve();
        required.push((curve.name.clone(), curve.snr_for_per(0.1)));
    }
    // Trials fan out over (SNR point, frame batch) work items with
    // per-trial forked RNG streams, so this wall-clock scales with
    // WLAN_THREADS while the table above stays bit-identical.
    println!(
        "\nfull sweep wall-clock: {:.2} s for {} adaptively allocated trials \
         at WLAN_THREADS={}",
        sweep_started.elapsed().as_secs_f64(),
        trial_total,
        wlan_core::math::par::num_threads()
    );

    println!("\nSNR required for PER <= 10 %:");
    for (name, snr) in required {
        match snr {
            Some(s) => println!("{name:>30}: {s:>5.1} dB"),
            None => println!("{name:>30}:   not reached in sweep"),
        }
    }

    // Each E4 trial is one frame, so the two rates coincide. The file is
    // written before the timing loop below, so its counters and wall
    // clock cover the experiment alone.
    run.finish(trial_total, trial_total);

    let link = OfdmLink::awgn(OfdmRate::R24);
    c.bench_function("e04_ofdm24_frame_at_15db", |b| {
        b.iter(|| sweep_per(&link, &[15.0], payload, 5, 1))
    });
}

fn main() {
    experiment(&mut Timer::from_env());
}
