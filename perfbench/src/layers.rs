//! The traced run: per-layer metrics, with `wlan_obs` recording on.
//!
//! Layer costs come from timing calls into each crate's public functions
//! from here (in benchmark-owned spans) and from the counters and
//! histograms the program already records. Every ratio is reported next
//! to its base. Thread counts other than one appear only here.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use wlan_city::{run_city_campaign, City};
use wlan_core::channel::Awgn;
use wlan_core::coding::interleaver::Interleaver;
use wlan_core::coding::ldpc::{LdpcCode, MinSum};
use wlan_core::coding::puncture::puncture;
use wlan_core::coding::{CodeRate, ConvEncoder, FrameLlrs, ViterbiKernel};
use wlan_core::dsss::DsssRate;
use wlan_core::fault::{FaultChain, FaultKind};
use wlan_core::linksim::{
    frame_trial_at, sweep_per, sweep_per_oracle, DsssLink, OfdmLink, PhyLink,
};
use wlan_core::math::fft::FftPlan;
use wlan_core::math::rng::{Rng, WlanRng};
use wlan_core::math::{par, ziggurat, CMatrix, Complex};
use wlan_core::mimo::detect::{Detector, LinearDetector};
use wlan_core::ofdm::OfdmRate;
use wlan_dist::{
    run_dist_per_campaign_on, run_tcp_worker, Acceptor, DistStats, FaultSpec, Fleet, WorkerOpts,
};
use wlan_runner::per::run_per_campaign;
use wlan_runner::Resume;

use crate::catalog::GENERATIONS;
use crate::trace::{median, p99, Tracer};
use crate::workloads::{self as wl, Link, PHY_PAYLOAD};

/// Per-frame samples each generation needs: p99 must have ten beyond it.
const MIN_FRAME_SAMPLES: usize = 1000;

/// Metrics gathered so far, plus the checks the traced run made.
pub struct Traced {
    pub metrics: Vec<(String, f64)>,
    pub attempted: u64,
    pub errors: Vec<String>,
}

impl Traced {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), value));
    }

    fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.errors.push(e);
        }
    }
}

fn counter(name: &str) -> u64 {
    wlan_obs::global().counter(name).value()
}

fn hist_sum_ns(name: &str) -> u64 {
    wlan_obs::global().histogram(name).snapshot().sum_ns
}

fn hist(name: &str) -> (u64, u64) {
    let s = wlan_obs::global().histogram(name).snapshot();
    (s.count, s.sum_ns)
}

/// Times `f` repeatedly until at least `min` has elapsed; returns the
/// seconds per call.
fn per_call(min: Duration, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || started.elapsed() < min {
        f();
        calls += 1;
    }
    started.elapsed().as_secs_f64() / calls as f64
}

/// Runs every layer measurement. `tmp` holds the journals.
pub fn run(seed: u64, tmp: &Path, tracer: &mut Tracer) -> Traced {
    let mut t = Traced {
        metrics: Vec::new(),
        attempted: 0,
        errors: Vec::new(),
    };
    tracer.span("phy", |tr| phy_layers(&mut t, seed, tr));
    tracer.span("flow", |tr| flow_layers(&mut t, seed, tr));
    tracer.span("kernels", |tr| kernel_layers(&mut t, seed, tr));
    tracer.span("city", |tr| city_layers(&mut t, seed, tmp, tr));
    tracer.span("dist", |tr| dist_layers(&mut t, seed, tmp, tr));
    tracer.span("obs", |tr| obs_overhead(&mut t, seed, tmp, tr));
    t
}

// ---------------------------------------------------------------------
// runner + core
// ---------------------------------------------------------------------

/// Runs each campaign of `pass`, then re-runs its trial coordinates
/// directly through `frame_trial_at`, timing every frame. Campaign and
/// replay alternate campaign by campaign, so host drift hits both alike.
/// Returns campaign and replay seconds and checks the replay's tallies
/// against the campaign's.
fn campaigns_and_replay(
    links: &[Link],
    pass: &[wl::Campaign],
    samples: &mut [Vec<f64>; 6],
    tr: &mut Tracer,
) -> (f64, f64, Result<(), String>) {
    let bits = (PHY_PAYLOAD * 8) as f64;
    let (mut campaign_s, mut replay_s) = (0.0, 0.0);
    let mut check = Ok(());
    for c in pass {
        let link = &links[c.link];
        let gen = GENERATIONS
            .iter()
            .position(|g| *g == link.generation)
            .expect("every link's generation is catalogued");
        let started = Instant::now();
        let r = tr.span("runner.run_per_campaign", |_| {
            run_per_campaign(link.phy.as_ref(), &c.faults, &c.cfg)
        });
        campaign_s += started.elapsed().as_secs_f64();
        let master = WlanRng::seed_from_u64(c.cfg.seed);
        tr.span("core.frame_trial_at", |_| {
            for (i, p) in r.points.iter().enumerate() {
                let point_rng = master.fork(i as u64);
                let (mut errors, mut erasures) = (0, 0);
                for frame in 0..p.trials {
                    let started = Instant::now();
                    let v = frame_trial_at(
                        link.phy.as_ref(),
                        &c.faults,
                        p.snr_db,
                        PHY_PAYLOAD,
                        &point_rng,
                        frame,
                    );
                    let dt = started.elapsed().as_secs_f64();
                    replay_s += dt;
                    samples[gen].push(dt * 1e9 / bits);
                    match v {
                        Ok(true) => {}
                        Ok(false) => errors += 1,
                        Err(_) => {
                            errors += 1;
                            erasures += 1;
                        }
                    }
                }
                if (errors, erasures) != (p.errors, p.erasures) && check.is_ok() {
                    check = Err(format!(
                        "{} / {}: replay disagrees with campaign",
                        r.name, r.fault
                    ));
                }
            }
        });
    }
    (campaign_s, replay_s, check)
}

fn phy_layers(t: &mut Traced, seed: u64, tr: &mut Tracer) {
    let waves0 = counter("runner.waves");
    let trials0 = counter("runner.trials");
    let frames0 = counter("linksim.frames");
    let erasures0 = counter("linksim.erasures");
    let stage0: Vec<u64> = ["linksim.tx", "linksim.channel", "linksim.rx"]
        .iter()
        .map(|h| hist_sum_ns(h))
        .collect();

    let mut samples: [Vec<f64>; 6] = Default::default();
    let (wf_links, _) = wl::phy_setup("phy_waterfall", seed);
    let pass = wl::waterfall_pass(&wf_links, wl::campaign_seed(seed, 0));
    let (_, _, check) = tr.span("phy_waterfall", |tr| {
        campaigns_and_replay(&wf_links, &pass, &mut samples, tr)
    });
    t.check(check);

    // The faulted passes carry the runner-overhead measurement: many tiny
    // fixed-size campaigns, where per-campaign cost is most visible.
    let (ft_links, _) = wl::phy_setup("phy_faulted", seed);
    let mut campaign_s = 0.0;
    let mut replay_s = 0.0;
    let mut k = 0;
    while k < 2 || samples.iter().any(|s| s.len() < MIN_FRAME_SAMPLES) && k < 6 {
        let pass = wl::faulted_pass(&ft_links, wl::campaign_seed(seed, k));
        let (c, r, check) = tr.span("phy_faulted", |tr| {
            campaigns_and_replay(&ft_links, &pass, &mut samples, tr)
        });
        campaign_s += c;
        replay_s += r;
        t.check(check);
        k += 1;
    }
    t.put("runner.overhead_frac", (campaign_s - replay_s) / campaign_s);
    t.put("runner.campaign_ms", campaign_s * 1e3);
    t.put("runner.waves", (counter("runner.waves") - waves0) as f64);
    t.put("runner.trials", (counter("runner.trials") - trials0) as f64);

    for (g, s) in GENERATIONS.iter().zip(&samples) {
        t.put(
            &format!("core.ns_per_bit.{g}"),
            median(s).unwrap_or(f64::NAN),
        );
        t.put(
            &format!("core.ns_per_bit_p99.{g}"),
            p99(s).unwrap_or(f64::NAN),
        );
        t.put(&format!("core.samples.{g}"), s.len() as f64);
    }

    let stages: Vec<f64> = ["linksim.tx", "linksim.channel", "linksim.rx"]
        .iter()
        .zip(&stage0)
        .map(|(h, before)| (hist_sum_ns(h) - before) as f64)
        .collect();
    let stage_total: f64 = stages.iter().sum();
    t.put("core.tx_share", stages[0] / stage_total);
    t.put("core.channel_share", stages[1] / stage_total);
    t.put("core.rx_share", stages[2] / stage_total);
    t.put("core.stage_ms", stage_total * 1e-6);
    let frames = counter("linksim.frames") - frames0;
    t.put(
        "core.erasure_frac",
        (counter("linksim.erasures") - erasures0) as f64 / frames as f64,
    );
    t.put("core.frames", frames as f64);
}

// ---------------------------------------------------------------------
// flow vs oracle
// ---------------------------------------------------------------------

/// The city calibration's links: 11 Mbps CCK and every 802.11a/g rate.
fn calibration_links() -> Vec<Box<dyn PhyLink>> {
    let mut links: Vec<Box<dyn PhyLink>> = vec![Box::new(DsssLink {
        rate: DsssRate::Cck11M,
    })];
    for rate in [
        OfdmRate::R6,
        OfdmRate::R9,
        OfdmRate::R12,
        OfdmRate::R18,
        OfdmRate::R24,
        OfdmRate::R36,
        OfdmRate::R48,
        OfdmRate::R54,
    ] {
        links.push(Box::new(OfdmLink::awgn(rate)));
    }
    links
}

/// Sweeps per path and thread count in the flow-versus-oracle comparison.
const FLOW_REPEATS: usize = 3;

fn flow_layers(t: &mut Traced, seed: u64, tr: &mut Tracer) {
    let city = wl::city_config(seed);
    let snrs: Vec<f64> = (0..20).map(|i| -4.0 + 2.0 * f64::from(i)).collect();
    let links = calibration_links();
    let frames = wl::CITY_CAL_FRAMES;
    let total = (links.len() * snrs.len() * frames) as f64;
    for threads in [1usize, 2] {
        std::env::set_var("WLAN_THREADS", threads.to_string());
        let mut run = |name: &str, oracle: bool| {
            let started = Instant::now();
            let curves: Vec<Vec<u64>> = tr.span(name, |_| {
                links
                    .iter()
                    .map(|l| {
                        let curve = if oracle {
                            sweep_per_oracle(l.as_ref(), &snrs, city.payload_bytes, frames, seed)
                        } else {
                            sweep_per(l.as_ref(), &snrs, city.payload_bytes, frames, seed)
                        };
                        curve.points.iter().map(|p| p.per.to_bits()).collect()
                    })
                    .collect()
            });
            (total / started.elapsed().as_secs_f64(), curves)
        };
        // Flowgraph and oracle alternate; each reports its median sweep.
        let (mut flow_fps, mut oracle_fps) = (Vec::new(), Vec::new());
        let mut same = true;
        for _ in 0..FLOW_REPEATS {
            let (fps, flow) = run("flow.sweep_per", false);
            flow_fps.push(fps);
            let (fps, oracle) = run("core.sweep_per_oracle", true);
            oracle_fps.push(fps);
            same &= flow == oracle;
        }
        t.put(
            &format!("flow.sweep_fps.t{threads}"),
            median(&flow_fps).unwrap_or(f64::NAN),
        );
        t.put(
            &format!("core.oracle_sweep_fps.t{threads}"),
            median(&oracle_fps).unwrap_or(f64::NAN),
        );
        t.check(if same {
            Ok(())
        } else {
            Err(format!(
                "flowgraph and oracle sweeps differ at {threads} threads"
            ))
        });
    }
    std::env::set_var("WLAN_THREADS", "1");
}

// ---------------------------------------------------------------------
// coding, math, mimo, channel, fault kernels
// ---------------------------------------------------------------------

const KERNEL_TIME: Duration = Duration::from_millis(150);

fn random_bits(rng: &mut WlanRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.gen::<u8>() & 1).collect()
}

/// BPSK LLRs of `bits` over AWGN with noise variance `n0`.
fn bpsk_llrs(rng: &mut WlanRng, bits: &[u8], n0: f64) -> Vec<f64> {
    let sigma = n0.sqrt();
    bits.iter()
        .map(|&b| {
            let y = if b == 0 { 1.0 } else { -1.0 } + sigma * ziggurat::standard_normal(rng);
            2.0 * y / n0
        })
        .collect()
}

fn kernel_layers(t: &mut Traced, seed: u64, tr: &mut Tracer) {
    let mut rng = WlanRng::seed_from_u64(seed).fork(0xC0DE);

    // Viterbi: eight terminated 816-bit frames per batch, rate 1/2 at 2 dB.
    let info_bits = 816;
    let coded: Vec<Vec<f64>> = (0..8)
        .map(|_| {
            let bits = random_bits(&mut rng, info_bits);
            let cw = ConvEncoder::new().encode_terminated(&bits);
            bpsk_llrs(&mut rng, &cw, 0.63)
        })
        .collect();
    let frames: Vec<FrameLlrs<'_>> = coded
        .iter()
        .map(|l| FrameLlrs::terminated(l, info_bits))
        .collect();
    let mut kernel = ViterbiKernel::new();
    let s = tr.span("coding.viterbi", |_| {
        per_call(KERNEL_TIME, || {
            black_box(
                kernel
                    .decode_batch(black_box(&frames))
                    .map(|v| v.len())
                    .ok(),
            );
        })
    });
    t.put(
        "coding.viterbi.ns_per_bit",
        s * 1e9 / (8 * info_bits) as f64,
    );

    // Encoder, puncturer and interleaver of a 54 Mbps frame.
    let bits = random_bits(&mut rng, 864);
    let il = Interleaver::new(288, 6);
    let s = tr.span("coding.encode", |_| {
        per_call(KERNEL_TIME, || {
            let cw = ConvEncoder::new().encode_terminated(black_box(&bits));
            let mut p = puncture(&cw, CodeRate::R3_4);
            p.resize(p.len().next_multiple_of(288), 0);
            black_box(il.interleave_stream(&p));
        })
    });
    t.put("coding.encode.ns_per_bit", s * 1e9 / bits.len() as f64);

    // LDPC: the HT-LDPC 16-QAM r1/2 code, above and below threshold.
    let code = LdpcCode::new(728, 728, 0x11AC);
    let k = code.info_len() as f64;
    let mut converged = 0usize;
    let mut blocks = 0usize;
    for (label, n0) in [("converging", 0.5), ("failing", 1.6)] {
        let llrs: Vec<Vec<f64>> = (0..24)
            .map(|_| {
                let info = random_bits(&mut rng, code.info_len());
                bpsk_llrs(&mut rng, &code.encode(&info), n0)
            })
            .collect();
        let mut iters = 0usize;
        let mut decodes = 0usize;
        let started = Instant::now();
        tr.span(&format!("coding.ldpc.{label}"), |_| {
            while decodes < llrs.len() || started.elapsed() < KERNEL_TIME {
                let out = code.decode(&llrs[decodes % llrs.len()], 40, MinSum::Normalized(0.8));
                if decodes < llrs.len() {
                    iters += out.iterations;
                    converged += usize::from(out.converged);
                    blocks += 1;
                }
                decodes += 1;
            }
        });
        let s = started.elapsed().as_secs_f64() / decodes as f64;
        t.put(&format!("coding.ldpc.ns_per_bit.{label}"), s * 1e9 / k);
        if label == "failing" {
            t.put(
                "coding.ldpc.iters_failing",
                iters as f64 / llrs.len() as f64,
            );
        }
    }
    t.put(
        "coding.ldpc.converged_frac",
        converged as f64 / blocks as f64,
    );
    t.put("coding.ldpc.blocks", blocks as f64);

    // 64-point FFT over a 256-symbol batch.
    let plan = FftPlan::new(64);
    let template: Vec<Complex> = (0..64 * 256)
        .map(|_| Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
        .collect();
    let mut data = template.clone();
    let s = tr.span("math.fft64", |_| {
        per_call(KERNEL_TIME, || {
            data.copy_from_slice(&template);
            plan.fft_batch(black_box(&mut data));
        })
    });
    t.put("math.fft64.ns_per_symbol", s * 1e9 / 256.0);

    let s = tr.span("math.gaussian", |_| {
        per_call(KERNEL_TIME, || {
            let mut acc = 0.0;
            for _ in 0..4096 {
                acc += ziggurat::standard_normal(&mut rng);
            }
            black_box(acc);
        })
    });
    t.put("math.gaussian.ns_per_draw", s * 1e9 / 4096.0);

    let items = [1u64, 2];
    let s = tr.span("math.par", |_| {
        per_call(KERNEL_TIME, || {
            black_box(par::parallel_map_with_threads(2, &items, |i, x| {
                x + i as u64
            }));
        })
    });
    t.put("math.par.call_us", s * 1e6);

    // 2×2 MMSE: prepare once per channel realization, then a frame's
    // worth of received vectors (52 subcarriers × 20 symbols).
    let vectors = 52 * 20;
    let ys: Vec<Complex> = (0..2 * vectors)
        .map(|_| Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
        .collect();
    let h = CMatrix::from_vec(
        2,
        2,
        (0..4)
            .map(|_| Complex::new(rng.gen::<f64>() + 0.2, rng.gen::<f64>() - 0.5))
            .collect(),
    );
    let mut symbols = Vec::with_capacity(2 * vectors);
    let mut ok = Vec::with_capacity(vectors);
    let s = tr.span("mimo.detect", |_| {
        per_call(KERNEL_TIME, || {
            symbols.clear();
            ok.clear();
            if let Ok(mut det) = LinearDetector::prepare(Detector::Mmse, black_box(&h), 0.1) {
                let _ = det.detect_batch(&ys, &mut symbols, &mut ok);
            }
            black_box(symbols.len());
        })
    });
    t.put("mimo.detect.ns_per_vector", s * 1e9 / vectors as f64);

    let awgn = Awgn::from_snr_db(10.0);
    let clean: Vec<Complex> = (0..4096)
        .map(|i| Complex::new(f64::from(i % 7), 0.5))
        .collect();
    let mut buf = clean.clone();
    let s = tr.span("channel.awgn", |_| {
        per_call(KERNEL_TIME, || {
            buf.copy_from_slice(&clean);
            awgn.apply_in_place(black_box(&mut buf), &mut rng);
        })
    });
    t.put("channel.awgn.ns_per_sample", s * 1e9 / clean.len() as f64);

    let mut chain = FaultChain::clean();
    for kind in FaultKind::all() {
        chain.push(kind.injector(0.5));
    }
    let mut samples = Vec::with_capacity(clean.len());
    let s = tr.span("fault.chain", |_| {
        per_call(KERNEL_TIME, || {
            samples.clear();
            samples.extend_from_slice(&clean);
            chain.inject(black_box(&mut samples), &mut rng);
        })
    });
    t.put("fault.chain.ns_per_sample", s * 1e9 / clean.len() as f64);
}

// ---------------------------------------------------------------------
// city
// ---------------------------------------------------------------------

fn city_layers(t: &mut Traced, seed: u64, tmp: &Path, tr: &mut Tracer) {
    let city = wl::city_config(seed);
    let tables = match tr.span("city.calibrate", |_| wl::calibrate(&city)) {
        Ok(tables) => tables,
        Err(e) => return t.check(Err(e)),
    };
    t.put(
        "city.calibrate_s",
        tr.last_s("city.calibrate").unwrap_or(f64::NAN),
    );

    let built = tr.span("city.build", |_| City::new(city.clone(), tables.clone()));
    let Ok(sim) = built else {
        return t.check(Err("city configuration rejected".to_owned()));
    };
    t.put(
        "city.build_ms",
        tr.last_s("city.build").unwrap_or(f64::NAN) * 1e3,
    );
    let mut state = sim.fresh_state();
    let epochs: Vec<f64> = (0..city.epochs)
        .map(|_| {
            let started = Instant::now();
            tr.span("city.epoch", |_| sim.run_epoch(&mut state, 1));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    t.put("city.epoch_ms", median(&epochs).unwrap_or(f64::NAN));

    let journal = tmp.join("city-traced.jrnl");
    let _ = std::fs::remove_file(&journal);
    let (writes0, write_ns0) = hist("city.journal_write");
    let cfg = wl::city_campaign(&city, tables, Some(&journal), None);
    let started = Instant::now();
    let first = tr.span("city.campaign", |_| run_city_campaign(&cfg));
    let campaign_s = started.elapsed().as_secs_f64();
    let (writes, write_ns) = hist("city.journal_write");
    let write_ns = (write_ns - write_ns0) as f64;
    t.put(
        "city.journal_write_ms",
        write_ns * 1e-6 / (writes - writes0).max(1) as f64,
    );
    t.put(
        "city.journal_bytes",
        std::fs::metadata(&journal).map_or(f64::NAN, |m| m.len() as f64),
    );
    t.put("city.journal_share", write_ns * 1e-9 / campaign_s);
    t.put("city.campaign_ms", campaign_s * 1e3);

    let restored = tr.span("city.restore", |_| run_city_campaign(&cfg));
    t.put(
        "city.restore_ms",
        tr.last_s("city.restore").unwrap_or(f64::NAN) * 1e3,
    );
    t.check(match (first, restored) {
        (Ok(a), Ok(b))
            if matches!(b.resume, Resume::Resumed { .. })
                && b.epochs_this_invocation == 0
                && b.report == a.report
                && state.epoch == a.state.epoch
                && sim.report(&state) == a.report =>
        {
            Ok(())
        }
        _ => Err("city restore or direct epochs disagree with the campaign".to_owned()),
    });
    let _ = std::fs::remove_file(&journal);
}

// ---------------------------------------------------------------------
// dist
// ---------------------------------------------------------------------

/// Runs the fleet campaigns for `seeds` on `fleet`, checking each against
/// the in-process campaign; returns fleet frames per second and the summed
/// fleet statistics.
fn fleet_fps(t: &mut Traced, fleet: &mut Fleet, seeds: &[u64], journal: &Path) -> (f64, DistStats) {
    let mut frames = 0;
    let started = Instant::now();
    let mut runs = Vec::new();
    for &s in seeds {
        let cfg = wl::dist_config(s, Some(journal.to_path_buf()));
        let run = wl::fleet_campaign(fleet, &cfg);
        frames += run.frames;
        runs.push((cfg, run));
    }
    let fps = frames as f64 / started.elapsed().as_secs_f64();
    let mut stats = DistStats::default();
    for (cfg, run) in runs {
        stats.leases_completed += run.stats.leases_completed;
        stats.redispatches += run.stats.redispatches;
        stats.worker_deaths += run.stats.worker_deaths;
        t.check(wl::check_fleet_run(&cfg, run));
    }
    (fps, stats)
}

fn dist_layers(t: &mut Traced, seed: u64, tmp: &Path, tr: &mut Tracer) {
    let mut factory = match wl::worker_factory() {
        Ok(f) => f,
        Err(e) => return t.check(Err(e)),
    };
    let journal = tmp.join("dist-traced.jrnl");
    let seeds = [wl::campaign_seed(seed, 0), wl::campaign_seed(seed, 1)];

    let (mut fleet, spawn_s) = match tr.span("dist.spawn", |_| wl::spawn_fleet(&mut factory, seed))
    {
        Ok(f) => f,
        Err(e) => return t.check(Err(e)),
    };
    t.put("dist.spawn_ms", spawn_s * 1e3);
    let (stdio_fps, stats) = tr.span("dist.stdio", |_| fleet_fps(t, &mut fleet, &seeds, &journal));
    fleet.shutdown();
    t.put("dist.stdio_fps", stdio_fps);
    t.put("dist.leases", stats.leases_completed as f64);
    t.put("dist.redispatches", stats.redispatches as f64);
    t.put("dist.worker_deaths", stats.worker_deaths as f64);

    let mut frames = 0;
    let started = Instant::now();
    tr.span("dist.in_process", |_| {
        for &s in &seeds {
            let mut per = wl::dist_config(s, None).per.with_threads(1);
            per.journal = None;
            frames += wlan_runner::per::run_per_campaign(
                wl::dist_link().build().as_ref(),
                &FaultChain::clean(),
                &per,
            )
            .completed_trials();
        }
    });
    let inproc_fps = frames as f64 / started.elapsed().as_secs_f64();
    t.put("dist.inproc_fps", inproc_fps);
    t.put(
        "dist.scaling_eff",
        stdio_fps / (wl::FLEET_WORKERS as f64 * inproc_fps),
    );

    let tcp_fps = tr.span("dist.tcp", |_| tcp_fleet_fps(t, &seeds, &journal));
    t.put("dist.tcp_vs_stdio", tcp_fps / stdio_fps);
}

/// The same campaigns over a loopback TCP fleet of worker threads.
fn tcp_fleet_fps(t: &mut Traced, seeds: &[u64], journal: &Path) -> f64 {
    let (acceptor, joiners) = match Acceptor::bind("127.0.0.1:0") {
        Ok(bound) => bound,
        Err(e) => {
            t.check(Err(format!("cannot bind loopback acceptor: {e}")));
            return f64::NAN;
        }
    };
    let addr = acceptor.local_addr();
    let opts = WorkerOpts {
        retries: 20,
        backoff_ms: 5,
        backoff_cap_ms: 40,
        read_timeout_ms: 10_000,
        reconnect: false,
        ..WorkerOpts::default()
    };
    let workers: Vec<_> = (0..wl::FLEET_WORKERS)
        .map(|_| {
            let (addr, opts) = (addr.clone(), opts.clone());
            std::thread::spawn(move || run_tcp_worker(&addr, &opts))
        })
        .collect();
    let mut fleet = Fleet::from_joiners(joiners);
    // Warm-up campaign: every worker handshakes before the timed ones.
    let mut warm = wl::dist_config(seeds[0] ^ 1, None);
    warm.per.snrs_db.truncate(2);
    warm.per.max_frames = 32;
    while fleet.alive_workers() < wl::FLEET_WORKERS {
        std::thread::sleep(Duration::from_millis(5));
        let _ = run_dist_per_campaign_on(
            wl::dist_link(),
            FaultSpec::Clean,
            &warm,
            &mut fleet,
            "",
            None,
        );
    }
    let (fps, _) = fleet_fps(t, &mut fleet, seeds, journal);
    fleet.shutdown();
    acceptor.close();
    for w in workers {
        let _ = w.join();
    }
    fps
}

// ---------------------------------------------------------------------
// obs overhead
// ---------------------------------------------------------------------

/// One unit of each workload with recording off, then on: the traced
/// run's cost against the untraced one.
fn obs_overhead(t: &mut Traced, seed: u64, tmp: &Path, tr: &mut Tracer) {
    let obs = wlan_obs::global();
    let s = wl::campaign_seed(seed, 7);
    let record = |t: &mut Traced, name: &str, fps: [f64; 2]| {
        t.put(&format!("obs.overhead_frac.{name}"), fps[0] / fps[1] - 1.0);
        t.put(&format!("obs.untraced_fps.{name}"), fps[0]);
    };

    for workload in ["phy_waterfall", "phy_faulted"] {
        let (links, _) = wl::phy_setup(workload, seed);
        let pass = wl::phy_pass(workload, &links, s);
        let fps = [false, true].map(|on| {
            obs.set_enabled(on);
            let started = Instant::now();
            let (_, units) = tr.span(&format!("obs.{workload}"), |_| {
                wl::run_pass(&links, &pass, 0)
            });
            units.iter().map(|u| u.frames).sum::<u64>() as f64 / started.elapsed().as_secs_f64()
        });
        record(t, workload, fps);
    }

    let city = wl::city_config(seed);
    let fps = match wl::city_golden(&city) {
        Ok(golden) => [false, true].map(|on| {
            obs.set_enabled(on);
            let pair = tr.span("obs.city_metro", |_| {
                wl::city_pair(&city, &golden, &tmp.join("city-obs.jrnl"), 0)
            });
            t.check(pair.check);
            let frames: u64 = pair.units.iter().map(|u| u.frames).sum();
            frames as f64 / pair.units.iter().map(|u| u.seconds).sum::<f64>()
        }),
        Err(e) => {
            t.check(Err(e));
            [f64::NAN; 2]
        }
    };
    record(t, "city_metro", fps);

    let fps = match wl::worker_factory() {
        Ok(mut factory) => [false, true].map(|on| {
            obs.set_enabled(on);
            // Workers read WLAN_OBS when they start.
            std::env::set_var("WLAN_OBS", if on { "1" } else { "0" });
            let mut fleet = match wl::spawn_fleet(&mut factory, seed) {
                Ok((fleet, _)) => fleet,
                Err(e) => {
                    t.check(Err(e));
                    return f64::NAN;
                }
            };
            let (fps, _) = tr.span("obs.dist_fleet", |_| {
                fleet_fps(t, &mut fleet, &[s], &tmp.join("dist-obs.jrnl"))
            });
            fleet.shutdown();
            fps
        }),
        Err(e) => {
            t.check(Err(e));
            [f64::NAN; 2]
        }
    };
    record(t, "dist_fleet", fps);
    obs.set_enabled(true);
    std::env::set_var("WLAN_OBS", "1");
}
