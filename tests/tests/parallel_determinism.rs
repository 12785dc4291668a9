//! Tier-1 parallel-determinism harness: the thread count is a performance
//! knob, never a physics knob.
//!
//! For every PHY generation and every fault injector, a sweep run at
//! `WLAN_THREADS=1`, `WLAN_THREADS=2` and the machine default must produce
//! bit-identical `FaultSweep`/`PerCurve` values; likewise MAC traffic
//! ensembles and seeded mesh coverage. The pinned regression values live in
//! `regression.rs` and run in the same suite — `ci.sh` executes the whole
//! suite twice (`WLAN_THREADS=1` and default), so a scheme that leaked
//! thread count into results would fail twice over.
//!
//! `WLAN_THREADS` is process-global, so every env mutation in this file
//! happens inside a single #[test] (other tests in this binary may observe
//! a different thread *count* mid-flight, but by the property under test
//! that cannot change their results).

use wlan_core::coding::CodeRate;
use wlan_core::dsss::DsssRate;
use wlan_core::fault::FaultKind;
use wlan_core::linksim::{
    sweep_per_faulted, DsssLink, FhssLink, HtLink, MimoLink, OfdmLink, PhyLink, StbcLink,
};
use wlan_core::mac::arq::{ArqConfig, GeLossConfig};
use wlan_core::mac::params::MacProfile;
use wlan_core::mac::traffic::{simulate_traffic_multi, TrafficConfig};
use wlan_core::mesh::coverage::estimate_coverage_seeded;
use wlan_core::ofdm::params::Modulation;
use wlan_core::ofdm::OfdmRate;

const MASTER_SEED: u64 = 0x9A11E1;
const PAYLOAD: usize = 24;
const FRAMES: usize = 10; // > one 8-frame batch, so batching is exercised
const SNRS_DB: [f64; 2] = [8.0, 14.0];

/// One link per generation (mirrors the no-panic harness roster).
fn all_generations() -> Vec<Box<dyn PhyLink>> {
    vec![
        Box::new(FhssLink),
        Box::new(DsssLink {
            rate: DsssRate::Dbpsk1M,
        }),
        Box::new(OfdmLink::awgn(OfdmRate::R12)),
        Box::new(HtLink {
            modulation: Modulation::Qpsk,
            code_rate: CodeRate::R1_2,
            ldpc: false,
            fading: false,
        }),
        Box::new(HtLink {
            modulation: Modulation::Qpsk,
            code_rate: CodeRate::R1_2,
            ldpc: true,
            fading: false,
        }),
        Box::new(MimoLink::flat(2, 2)),
        Box::new(StbcLink::flat(1)),
    ]
}

/// Runs `f` with `WLAN_THREADS` pinned (or unset for the machine default).
fn with_threads<T>(threads: Option<&str>, f: impl FnOnce() -> T) -> T {
    match threads {
        Some(v) => std::env::set_var("WLAN_THREADS", v),
        None => std::env::remove_var("WLAN_THREADS"),
    }
    let out = f();
    std::env::remove_var("WLAN_THREADS");
    out
}

/// FNV-1a over the `per`/`erasure_rate` bits of every generation ×
/// injector serial sweep, recorded when sweeps still had a second
/// (flowgraph) execution path; the single per-trial chain must reproduce
/// it bit for bit.
const GOLDEN_SWEEP_DIGEST: u64 = 0x321c_93ea_af7d_f62d;

#[test]
fn every_generation_and_injector_is_thread_count_invariant() {
    let mut bits = Vec::new();
    for link in all_generations() {
        for kind in FaultKind::all() {
            let chain = kind.chain(0.7);
            let run =
                || sweep_per_faulted(link.as_ref(), &chain, &SNRS_DB, PAYLOAD, FRAMES, MASTER_SEED);
            let serial = with_threads(Some("1"), run);
            let two = with_threads(Some("2"), run);
            let default = with_threads(None, run);
            for p in &serial.points {
                bits.extend_from_slice(&p.per.to_bits().to_le_bytes());
                bits.extend_from_slice(&p.erasure_rate.to_bits().to_le_bytes());
            }
            assert_eq!(
                serial,
                two,
                "{} under {}: 1 vs 2 threads diverged",
                link.name(),
                kind.name()
            );
            assert_eq!(
                serial,
                default,
                "{} under {}: 1 thread vs default diverged",
                link.name(),
                kind.name()
            );
        }
    }
    let digest = wlan_runner::journal::fnv1a64(&bits);
    assert_eq!(digest, GOLDEN_SWEEP_DIGEST, "sweep digest {digest:#018x}");
}

#[test]
fn mac_ensemble_and_mesh_coverage_are_thread_count_invariant() {
    let cfg = TrafficConfig {
        profile: MacProfile::dot11a(54.0),
        n_stations: 5,
        payload_bytes: 1500,
        arrival_rate_hz: 80.0,
        sim_time_us: 300_000.0,
        seed: MASTER_SEED,
        arq: ArqConfig::basic(),
        loss: GeLossConfig::bursty(),
    };
    let mac = || simulate_traffic_multi(&cfg, 4);
    let mac_serial = with_threads(Some("1"), mac);
    assert_eq!(mac_serial, with_threads(Some("2"), mac));
    assert_eq!(mac_serial, with_threads(None, mac));

    let relays = [(50.0, 50.0), (220.0, 50.0), (50.0, 220.0), (220.0, 220.0)];
    let mesh = || estimate_coverage_seeded(&relays, 450.0, 200, MASTER_SEED);
    let mesh_serial = with_threads(Some("1"), mesh);
    assert_eq!(mesh_serial, with_threads(Some("2"), mesh));
    assert_eq!(mesh_serial, with_threads(None, mesh));
}

#[test]
fn garbage_wlan_threads_values_fall_back_instead_of_diverging() {
    let link = OfdmLink::awgn(OfdmRate::R12);
    let chain = FaultKind::BurstInterference.chain(1.0);
    let run = || sweep_per_faulted(&link, &chain, &SNRS_DB, PAYLOAD, FRAMES, MASTER_SEED);
    let baseline = with_threads(Some("1"), run);
    for bad in ["0", "lots", "-3", ""] {
        assert_eq!(baseline, with_threads(Some(bad), run), "WLAN_THREADS={bad:?}");
    }
}
