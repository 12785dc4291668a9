//! Tier-1 chaos harness for distributed campaigns (DESIGN.md
//! "Distributed campaigns").
//!
//! The contract under test: `wlan_dist::run_dist_per_campaign` is a
//! *transparent* execution strategy. For any worker count and any kill
//! schedule, the campaign report — per-point tallies, PER, Wilson CI
//! bounds (compared via `f64::to_bits`, not approximately), and the
//! quarantine ledger — equals the single-process
//! `wlan_runner::per::run_per_campaign` result, at pinned serial and
//! default threading. Transport-fault injectors on the coordinator ↔
//! worker links must never panic the coordinator: every lease either
//! retries to completion (still bit-identical) or lands in the lease
//! quarantine with exact replay coordinates.

use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use wlan_dist::coord::MAX_DISPATCHES;
use wlan_dist::proto::read_frame;
use wlan_dist::transport::{
    encode_connect, parse_handshake_reply, HANDSHAKE_TIMEOUT_MS, PROTO_VERSION,
};
use wlan_dist::{
    catalog_digest, connect_worker, run_dist_per_campaign, run_dist_per_campaign_on,
    run_tcp_worker, serve, server_handshake, Acceptor, DistConfig, DistPerReport, FaultSpec,
    Fleet, InProcessFactory, LinkSpec, ProtoError, Role, ServeEnd, WorkerOpts,
};
use wlan_fault::transport::FaultedWriter;
use wlan_fault::{FaultKind, TransportFaults};
use wlan_math::WlanRng;
use wlan_runner::budget::Budget;
use wlan_runner::per::{run_per_campaign, PerCampaignConfig, PerCampaignReport};
use wlan_runner::{Outcome, StopReason};

const SNRS: [f64; 3] = [2.0, 5.0, 8.0];
const PAYLOAD: usize = 20;
const MAX_FRAMES: u64 = 64;
const SEED: u64 = 99;

fn per_cfg(threads: Option<usize>) -> PerCampaignConfig {
    let mut cfg = PerCampaignConfig::new(&SNRS, PAYLOAD, MAX_FRAMES, SEED)
        .with_budget(Budget::unlimited());
    cfg.threads = threads;
    cfg
}

fn baseline(spec: LinkSpec, fault: FaultSpec, threads: Option<usize>) -> PerCampaignReport {
    let mut report = run_per_campaign(&*spec.build(), &fault.build(), &per_cfg(threads));
    // The coordinator folds lease results in frame order, so its ledger
    // comes out (point, frame)-sorted; normalise the baseline the same
    // way before comparing.
    report.quarantine.sort_by_key(|q| (q.point, q.frame));
    report
}

/// Bitwise comparison: tallies via `PartialEq`, floats via `to_bits`.
fn assert_bit_identical(report: &DistPerReport, base: &PerCampaignReport, label: &str) {
    assert!(report.outcome.is_complete(), "{label}: must complete");
    assert_eq!(report.points, base.points, "{label}: point tallies");
    assert_eq!(report.quarantine, base.quarantine, "{label}: ledger");
    for (a, b) in report.points.iter().zip(&base.points) {
        assert_eq!(
            a.per().to_bits(),
            b.per().to_bits(),
            "{label}: PER must be bit-identical"
        );
        match (a.ci(), b.ci()) {
            (Some(ca), Some(cb)) => {
                assert_eq!(ca.lo.to_bits(), cb.lo.to_bits(), "{label}: CI lo");
                assert_eq!(ca.hi.to_bits(), cb.hi.to_bits(), "{label}: CI hi");
            }
            (None, None) => {}
            other => panic!("{label}: CI presence diverged: {other:?}"),
        }
    }
}

/// The full bit-identity matrix from the acceptance criteria:
/// {1 worker, 3 workers, 3 workers + chaos kill, all workers dead →
/// in-process fallback} × {serial, default threading}, all against the
/// single-process baseline, with an erasure-producing fault chain so the
/// quarantine ledger is exercised too.
#[test]
fn kill_schedule_matrix_is_bit_identical_to_single_process() {
    let spec = LinkSpec::Fhss;
    let fault = FaultSpec::Single {
        kind: FaultKind::FrameTruncation,
        severity: 1.0,
    };

    for threads in [Some(1), None] {
        let base = baseline(spec, fault, threads);
        assert!(
            !base.quarantine.is_empty(),
            "matrix needs erasures to exercise ledger merging"
        );

        // One worker: the degenerate fleet.
        let mut factory = InProcessFactory::clean();
        let report =
            run_dist_per_campaign(spec, fault, &DistConfig::new(per_cfg(threads), 1), &mut factory);
        assert_bit_identical(&report, &base, &format!("threads={threads:?} workers=1"));

        // Three workers: real sharding.
        let mut factory = InProcessFactory::clean();
        let report =
            run_dist_per_campaign(spec, fault, &DistConfig::new(per_cfg(threads), 3), &mut factory);
        assert_bit_identical(&report, &base, &format!("threads={threads:?} workers=3"));

        // Three workers, two killed right after the first dispatch:
        // survivors absorb the re-dispatched leases.
        let mut factory = InProcessFactory::clean();
        let cfg = DistConfig::new(per_cfg(threads), 3).with_chaos_kill(1, 2);
        let report = run_dist_per_campaign(spec, fault, &cfg, &mut factory);
        assert!(
            report.stats.worker_deaths >= 1,
            "threads={threads:?}: the chaos kill must actually fire"
        );
        assert_bit_identical(&report, &base, &format!("threads={threads:?} chaos kill"));

        // Entire fleet killed: graceful degradation to in-process
        // execution must still finish the campaign bit-exactly.
        let mut factory = InProcessFactory::clean();
        let cfg = DistConfig::new(per_cfg(threads), 3).with_chaos_kill(1, 3);
        let report = run_dist_per_campaign(spec, fault, &cfg, &mut factory);
        assert_bit_identical(&report, &base, &format!("threads={threads:?} fleet loss"));
    }
}

/// Transport chaos at increasing severity: dropped, duplicated,
/// truncated, corrupted, and stalled frames in both directions. The
/// coordinator must never panic; if every lease still completes (the
/// protocol retries around the damage) the result is bit-identical, and
/// any lease that exhausts its dispatch budget must be quarantined with
/// a valid replay range rather than silently lost.
#[test]
fn transport_faults_never_panic_and_account_for_every_lease() {
    let spec = LinkSpec::Fhss;
    let fault = FaultSpec::Clean;
    let base = baseline(spec, fault, Some(1));

    for severity in [0.2, 0.6, 1.0] {
        let mut factory = InProcessFactory {
            to_worker: TransportFaults::chaos(severity),
            from_worker: TransportFaults::chaos(severity),
            relay_seed: 0xC4A0 + (severity * 10.0) as u64,
        };
        // Tight deadlines so dropped Done frames turn into redispatches
        // in test time, not in 30 s.
        let cfg = DistConfig::new(per_cfg(Some(1)), 3)
            .with_lease_timeout_ms(700)
            .with_heartbeat_ms(50);
        let report = run_dist_per_campaign(spec, fault, &cfg, &mut factory);

        match &report.outcome {
            Outcome::Complete => {
                assert!(
                    report.lease_quarantine.is_empty(),
                    "severity={severity}: complete yet leases quarantined"
                );
                assert_bit_identical(&report, &base, &format!("severity={severity}"));
            }
            Outcome::Partial { reason, .. } => {
                assert_eq!(
                    *reason,
                    StopReason::Abandoned,
                    "severity={severity}: a transport-starved campaign stops as Abandoned"
                );
                assert!(
                    !report.lease_quarantine.is_empty(),
                    "severity={severity}: partial without quarantined leases"
                );
                for q in &report.lease_quarantine {
                    assert!(q.start < q.end, "severity={severity}: empty replay range");
                    assert!(q.end <= MAX_FRAMES, "severity={severity}: range out of bounds");
                    assert!(
                        q.attempts >= MAX_DISPATCHES,
                        "severity={severity}: lease quarantined before its dispatch budget"
                    );
                }
                // Accounting: every incomplete point is explained by at
                // least one quarantined lease — no trials silently lost.
                for (idx, p) in report.points.iter().enumerate() {
                    if p.trials < MAX_FRAMES {
                        assert!(
                            report.lease_quarantine.iter().any(|q| q.point == idx),
                            "severity={severity}: point {idx} incomplete at {} trials \
                             with no quarantined lease to explain it",
                            p.trials
                        );
                    }
                }
            }
        }
    }
}

/// A trial budget that dies mid-campaign yields an aggregated
/// `Outcome::Partial` whose `completed`/`remaining` come from the
/// distributed merge — round-aligned and equal in total to the
/// single-process campaign under the same cap. (The *shape* of partial
/// progress legitimately differs: the single-process scheduler
/// round-robins waves across points while the coordinator fills points
/// in order. Only completed campaigns promise point-identical tallies;
/// both partial shapes resume to the same converged result, which the
/// journal-resume tests pin.)
#[test]
fn budget_exhaustion_mid_campaign_aggregates_partials() {
    let spec = LinkSpec::Fhss;
    let fault = FaultSpec::Clean;
    let cap = 96; // 3 waves of a 3 × 64 = 192-trial campaign

    let capped =
        |threads| per_cfg(threads).with_budget(Budget::unlimited().with_max_trials(cap));
    let single = run_per_campaign(&*spec.build(), &fault.build(), &capped(Some(1)));
    let Outcome::Partial {
        completed: base_completed,
        remaining: base_remaining,
        reason: StopReason::TrialBudget,
    } = single.outcome
    else {
        panic!("baseline must exhaust its budget, got {:?}", single.outcome);
    };

    for workers in [1usize, 3] {
        let mut factory = InProcessFactory::clean();
        let cfg = DistConfig::new(capped(Some(1)), workers);
        let report = run_dist_per_campaign(spec, fault, &cfg, &mut factory);
        let Outcome::Partial {
            completed,
            remaining,
            reason,
        } = report.outcome
        else {
            panic!("workers={workers}: expected Partial, got {:?}", report.outcome);
        };
        assert_eq!(reason, StopReason::TrialBudget, "workers={workers}");
        assert_eq!(completed, base_completed, "workers={workers}: banked trials");
        assert_eq!(remaining, base_remaining, "workers={workers}: merged remainder");
        assert_eq!(completed % 32, 0, "workers={workers}: budget cuts on wave grid");
        let banked: u64 = report.points.iter().map(|p| p.trials).sum();
        assert_eq!(banked, completed, "workers={workers}: tallies must match the meter");
        for p in &report.points {
            assert_eq!(p.trials % 32, 0, "workers={workers}: every point on the wave grid");
        }
    }
}

// --- TCP fleets -------------------------------------------------------
//
// The same transparency contract, but over real sockets: an `Acceptor`
// on an ephemeral port, `run_tcp_worker` threads dialling in with
// reconnect/backoff, and the coordinator running on whoever handshakes.
// Results must match the stdio/in-process runs bit-for-bit under every
// kill and reconnect schedule.

struct TcpRun {
    report: DistPerReport,
    worker_results: Vec<Result<u64, ProtoError>>,
}

/// Runs one campaign over a freshly-bound TCP fleet: `workers` real
/// `run_tcp_worker` threads against an ephemeral-port acceptor.
fn run_over_tcp(
    spec: LinkSpec,
    fault: FaultSpec,
    cfg: &DistConfig,
    workers: usize,
    reconnect: bool,
) -> TcpRun {
    let (acceptor, joiners) = Acceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr();
    let opts = WorkerOpts {
        retries: 20,
        backoff_ms: 5,
        backoff_cap_ms: 40,
        read_timeout_ms: 2_000,
        reconnect,
        ..WorkerOpts::default()
    };
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let addr = addr.clone();
            let opts = opts.clone();
            std::thread::spawn(move || run_tcp_worker(&addr, &opts))
        })
        .collect();
    let mut fleet = Fleet::from_joiners(joiners);
    // Wait (bounded) until every worker has handshaken into the fleet
    // before the coordinator's first pass — late joiners would still
    // attach, but the matrix wants real TCP sharding from lease one, and
    // a worker that attaches after a chaos kill does the leases the
    // fleet-loss case must see fall back in-process.
    let deadline = Instant::now() + Duration::from_secs(10);
    while fleet.alive_workers() < workers && Instant::now() < deadline {
        fleet.idle_tick(50);
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(fleet.alive_workers(), workers, "the TCP fleet must form");
    let report = run_dist_per_campaign_on(spec, fault, cfg, &mut fleet, "", None);
    fleet.shutdown();
    acceptor.close();
    let worker_results = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread"))
        .collect();
    TcpRun {
        report,
        worker_results,
    }
}

/// The acceptance matrix over sockets: {1 worker, 3 workers, 3 workers
/// with kill-and-reconnect, fleet loss → in-process fallback} × {serial,
/// default threading}, all bit-identical to the single-process
/// baseline (and therefore to the stdio and in-process runs of the
/// sibling matrix above, which compare against the same baseline).
#[test]
fn tcp_fleet_matrix_is_bit_identical_to_single_process() {
    let spec = LinkSpec::Fhss;
    let fault = FaultSpec::Single {
        kind: FaultKind::FrameTruncation,
        severity: 1.0,
    };

    for threads in [Some(1), None] {
        let base = baseline(spec, fault, threads);
        let tcp_cfg = || {
            DistConfig::new(per_cfg(threads), 0)
                .with_lease_timeout_ms(10_000)
                .with_heartbeat_ms(50)
        };

        // One worker: every lease crosses the same socket.
        let cfg = tcp_cfg().without_fallback();
        let run = run_over_tcp(spec, fault, &cfg, 1, true);
        assert_eq!(run.report.stats.fallback_leases, 0);
        assert_bit_identical(&run.report, &base, &format!("threads={threads:?} tcp-1"));

        // Three workers: real sharding over three sockets.
        let cfg = tcp_cfg().without_fallback();
        let run = run_over_tcp(spec, fault, &cfg, 3, true);
        assert_bit_identical(&run.report, &base, &format!("threads={threads:?} tcp-3"));

        // Chaos kill of one worker: the coordinator shuts the socket
        // down mid-lease, re-dispatches, and the worker's reconnect
        // loop re-handshakes as a fresh slot.
        let cfg = tcp_cfg().without_fallback().with_chaos_kill(1, 1);
        let run = run_over_tcp(spec, fault, &cfg, 3, true);
        assert!(
            run.report.stats.worker_deaths >= 1,
            "threads={threads:?}: the chaos kill must actually fire"
        );
        assert_bit_identical(&run.report, &base, &format!("threads={threads:?} tcp-kill"));
        for (w, r) in run.worker_results.iter().enumerate() {
            assert!(
                matches!(r, Ok(n) if *n >= 1),
                "threads={threads:?}: worker {w} must end orderly, got {r:?}"
            );
        }

        // Fleet loss: every worker is one-shot (no reconnect) and all
        // are killed — graceful degradation to in-process fallback.
        let cfg = tcp_cfg().with_chaos_kill(1, 3);
        let run = run_over_tcp(spec, fault, &cfg, 3, false);
        assert!(
            run.report.stats.worker_deaths >= 3,
            "threads={threads:?}: all three kills must land"
        );
        assert!(
            run.report.stats.fallback_leases >= 1,
            "threads={threads:?}: fleet loss must degrade to in-process"
        );
        assert_bit_identical(&run.report, &base, &format!("threads={threads:?} tcp-loss"));
    }
}

/// A peer speaking a different protocol version gets a typed
/// `Incompatible` refusal — delivered as a `reject` frame carrying the
/// server's identity — well inside the handshake deadline.
#[test]
fn tcp_handshake_version_mismatch_is_typed_and_fast() {
    let (acceptor, _joiners) = Acceptor::bind("127.0.0.1:0").expect("bind");
    let start = Instant::now();
    let stream = TcpStream::connect(acceptor.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(HANDSHAKE_TIMEOUT_MS)))
        .expect("deadline");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer
        .write_all(&encode_connect(
            PROTO_VERSION + 1,
            catalog_digest(),
            Role::Worker,
        ))
        .and_then(|()| writer.flush())
        .expect("send connect");
    let reply = read_frame(&mut reader)
        .expect("read reply")
        .expect("server must answer, not hang up silently");
    match parse_handshake_reply(&reply) {
        Err(ProtoError::Incompatible { ours, theirs }) => {
            assert!(ours.contains(&format!("v={PROTO_VERSION}")), "{ours}");
            assert!(theirs.contains("v="), "{theirs}");
        }
        other => panic!("expected Incompatible, got {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_millis(HANDSHAKE_TIMEOUT_MS),
        "refusal must beat the deadline, took {:?}",
        start.elapsed()
    );
    acceptor.close();
}

/// An abrupt half-close (peer hangs up before its connect frame) is a
/// typed I/O error immediately — EOF, not a deadline wait.
#[test]
fn tcp_half_close_during_handshake_fails_typed_immediately() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let start = Instant::now();
        (server_handshake(stream), start.elapsed())
    });
    let client = TcpStream::connect(addr).expect("connect");
    client.shutdown(Shutdown::Write).expect("half-close");
    let (result, elapsed) = server.join().expect("server thread");
    match result {
        Err(ProtoError::Io(_)) => {}
        other => panic!("expected a typed Io error, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_millis(HANDSHAKE_TIMEOUT_MS / 2),
        "EOF must resolve immediately, took {elapsed:?}"
    );
    drop(client);
}

/// The nastier half-close: the connection stays up but nothing arrives
/// (a `FaultedWriter` that swallows every frame while reporting
/// success, wrapping a real socket). The handshake deadline — not
/// goodwill — bounds how long the server-side is held.
#[test]
fn tcp_silent_half_closed_peer_is_bounded_by_the_handshake_deadline() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let start = Instant::now();
        (server_handshake(stream), start.elapsed())
    });
    let stream = TcpStream::connect(addr).expect("connect");
    let mut half_closed = FaultedWriter::new(
        stream.try_clone().expect("clone"),
        TransportFaults::none(),
        WlanRng::seed_from_u64(1),
    )
    .with_half_close_after(0);
    // The write "succeeds" — from our side the handshake was sent.
    half_closed
        .write_all(&encode_connect(PROTO_VERSION, catalog_digest(), Role::Worker))
        .and_then(|()| half_closed.flush())
        .expect("half-closed writes still report success");
    assert!(half_closed.is_half_closed());

    let (result, elapsed) = server.join().expect("server thread");
    match result {
        Err(ProtoError::Io(kind)) => assert!(
            matches!(
                kind,
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "expected a read-deadline error, got {kind:?}"
        ),
        other => panic!("expected a deadline Io error, got {other:?}"),
    }
    assert!(
        elapsed >= Duration::from_millis(HANDSHAKE_TIMEOUT_MS / 2),
        "the server gave up before the deadline could have fired: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_millis(HANDSHAKE_TIMEOUT_MS * 2),
        "the deadline did not bound the wait: {elapsed:?}"
    );
    drop(stream);
}

/// A worker whose socket writer drops and corrupts frames (the
/// `wlan_fault` byte-stream injector over real TCP) must never corrupt
/// results: the coordinator strikes it out, re-dispatches its leases to
/// the clean worker, and the campaign completes bit-identically — or
/// quarantines with exact replay coordinates, never silently wrong.
#[test]
fn tcp_worker_with_faulted_socket_writer_never_corrupts_results() {
    let spec = LinkSpec::Fhss;
    let fault = FaultSpec::Clean;
    let base = baseline(spec, fault, Some(1));

    let (acceptor, joiners) = Acceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr();
    let opts = WorkerOpts {
        retries: 20,
        backoff_ms: 5,
        backoff_cap_ms: 40,
        read_timeout_ms: 2_000,
        ..WorkerOpts::default()
    };
    let clean_addr = addr.clone();
    let clean_opts = opts.clone();
    let clean = std::thread::spawn(move || run_tcp_worker(&clean_addr, &clean_opts));
    let chaotic_addr = addr.clone();
    let chaotic_opts = opts.clone();
    let chaotic = std::thread::spawn(move || {
        // Hand-rolled worker loop so the *socket writer* carries the
        // fault schedule; reconnects after every strike-out.
        let mut sessions = 0u64;
        loop {
            match connect_worker(&chaotic_addr, &chaotic_opts) {
                Ok(conn) => {
                    sessions += 1;
                    let faulted = FaultedWriter::new(
                        conn.writer,
                        TransportFaults {
                            drop: 0.3,
                            corrupt: 0.3,
                            ..TransportFaults::none()
                        },
                        WlanRng::seed_from_u64(0xBAD),
                    );
                    if serve(conn.reader, faulted) == ServeEnd::Shutdown {
                        return sessions;
                    }
                }
                Err(_) => return sessions,
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    });

    let mut fleet = Fleet::from_joiners(joiners);
    std::thread::sleep(Duration::from_millis(100));
    let cfg = DistConfig::new(per_cfg(Some(1)), 0)
        .with_lease_timeout_ms(700)
        .with_heartbeat_ms(50);
    let report = run_dist_per_campaign_on(spec, fault, &cfg, &mut fleet, "", None);
    fleet.shutdown();
    acceptor.close();
    assert!(matches!(clean.join(), Ok(Ok(n)) if n >= 1));
    assert!(chaotic.join().expect("chaotic thread") >= 1);

    match &report.outcome {
        Outcome::Complete => {
            assert!(report.lease_quarantine.is_empty());
            assert_bit_identical(&report, &base, "faulted socket writer");
        }
        Outcome::Partial { reason, .. } => {
            assert_eq!(*reason, StopReason::Abandoned);
            assert!(!report.lease_quarantine.is_empty());
            for q in &report.lease_quarantine {
                assert!(q.start < q.end && q.end <= MAX_FRAMES);
            }
        }
    }
}
