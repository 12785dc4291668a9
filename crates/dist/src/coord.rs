//! The coordinator: wave-aligned leases over a fleet of mortal workers.
//!
//! The coordinator owns the campaign state (tallies, stopping decisions,
//! budgets, the journal) and never runs trials itself unless every
//! worker is gone. Workers own nothing: each lease names an exact
//! `(point, trial-range)` whose result is a pure function of the
//! campaign seed, so a worker's death loses only wall-clock time — the
//! lease is re-dispatched (with exponential backoff and deterministic
//! jitter) to any surviving worker, or run in-process as a last resort.
//!
//! # Bit-identity argument
//!
//! * A lease's rounds are aligned to the single-process wave grid
//!   ([`ROUND_TRIALS`] frames, anchored at frame 0), and each trial
//!   draws its universe from `seed → fork(point) → fork(frame)` — the
//!   same addressing [`run_per_campaign`](wlan_runner::per::run_per_campaign)
//!   uses. So lease results do not depend on which worker ran them, how
//!   many times they were re-dispatched, or whether they fell back
//!   in-process.
//! * The coordinator folds results *in frame order per point* (a lease
//!   completing out of order waits in a buffer until the point's
//!   frontier reaches it) and applies
//!   [`evaluate_status`](wlan_runner::per::evaluate_status) after every
//!   folded round — the same pure stopping rule at the same round
//!   boundaries. Rounds past a stopping decision are discarded unfolded,
//!   exactly as the single-process campaign would never have run them.
//! * Therefore per-point tallies, stopping decisions, and the trial
//!   quarantine ledger are bit-identical to the single-process
//!   campaign's for **any** worker count and **any** kill schedule —
//!   the chaos harness in `tests/tests/dist_chaos.rs` pins this.
//!
//! Only *liveness* is wall-clock dependent (which worker dies, how often
//! a lease retries); *results* never are.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use wlan_fault::TransportFaults;
use wlan_math::rng::{Rng, WlanRng};
use wlan_obs::json;
use wlan_runner::budget::{BudgetMeter, Outcome, StopReason};
use wlan_runner::journal::{self, f64_from_hex, f64_to_hex, kv_u64, JournalError};
use wlan_core::linksim::PhyLink;
use wlan_fault::FaultChain;
use wlan_runner::campaign;
use wlan_runner::per::{
    evaluate_status, PerCampaignConfig, PerProgress, PointProgress, PointStatus, ROUND_TRIALS,
};
use wlan_runner::quarantine::QuarantinedTrial;
use wlan_runner::Resume;

use crate::catalog::{FaultSpec, LinkSpec};
use crate::duplex::{pipe, relay, PipeCloser};
use crate::proto::{read_msg, write_msg, Msg, ProtoError, RoundTally};
use crate::worker::{run_lease, serve, LeaseJob};

/// Configuration for a distributed PER campaign: the underlying
/// campaign plus the fleet geometry and failure-handling knobs.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// The campaign itself (snrs, payload, budgets, journal). The
    /// `threads` field only affects in-process fallback execution.
    pub per: PerCampaignConfig,
    /// Worker fleet size; `0` means pure in-process execution.
    pub workers: usize,
    /// Rounds of [`ROUND_TRIALS`] trials per lease.
    pub lease_rounds: u64,
    /// A lease (or a pending hello) past this deadline kills its worker.
    pub lease_timeout_ms: u64,
    /// Ping cadence for idle workers; an idle worker silent for four
    /// heartbeats is declared dead.
    pub heartbeat_ms: u64,
    /// At-most-K dispatch: a lease failing this many times is
    /// quarantined and its point abandoned.
    pub max_dispatches: u32,
    /// Base re-dispatch backoff; doubles per attempt, plus
    /// deterministic jitter in `[0, backoff/2)`.
    pub retry_backoff_ms: u64,
    /// Run leases in-process when no worker survives (graceful
    /// degradation). With this off, losing the whole fleet abandons the
    /// campaign instead.
    pub fallback_in_process: bool,
    /// Chaos harness: kill workers this long after start.
    pub chaos_kill_after_ms: Option<u64>,
    /// How many workers the chaos kill takes down.
    pub chaos_kill_count: usize,
    /// Outstanding leases per point (pipelining depth).
    pub speculation: usize,
}

impl DistConfig {
    /// Defaults tuned for subprocess fleets; tests shrink the timeouts.
    pub fn new(per: PerCampaignConfig, workers: usize) -> Self {
        Self {
            per,
            workers,
            lease_rounds: 4,
            lease_timeout_ms: 30_000,
            heartbeat_ms: 500,
            max_dispatches: 3,
            retry_backoff_ms: 50,
            fallback_in_process: true,
            chaos_kill_after_ms: None,
            chaos_kill_count: 1,
            speculation: 2,
        }
    }

    /// Sets the per-lease (and hello) deadline.
    pub fn with_lease_timeout_ms(mut self, ms: u64) -> Self {
        self.lease_timeout_ms = ms;
        self
    }

    /// Sets the idle-worker heartbeat cadence.
    pub fn with_heartbeat_ms(mut self, ms: u64) -> Self {
        self.heartbeat_ms = ms;
        self
    }

    /// Arms the chaos kill: take down `count` workers after `ms`.
    pub fn with_chaos_kill(mut self, ms: u64, count: usize) -> Self {
        self.chaos_kill_after_ms = Some(ms);
        self.chaos_kill_count = count;
        self
    }

    /// Disables in-process fallback (fleet loss abandons the campaign).
    pub fn without_fallback(mut self) -> Self {
        self.fallback_in_process = false;
        self
    }

    /// The deadline for a lease spanning `[start, end)`:
    /// `lease_timeout_ms` *per round* of work, so a big lease gets
    /// proportionally more time. (Bugfix: the deadline used to be flat
    /// per lease, so a multi-round lease of slow faulted points could
    /// blow it while making perfectly healthy progress — the coordinator
    /// then killed the worker and re-dispatched work that was nearly
    /// done, and at the quarantine limit abandoned the point outright.
    /// `multi_round_leases_get_scaled_deadlines` pins the fix.)
    fn lease_deadline(&self, start: u64, end: u64) -> Duration {
        let rounds = end.saturating_sub(start).div_ceil(ROUND_TRIALS).max(1);
        Duration::from_millis(self.lease_timeout_ms.saturating_mul(rounds))
    }
}

/// The I/O a coordinator holds onto one worker: its stdin, its stdout,
/// and a way to kill it.
pub struct WorkerIo {
    /// Coordinator → worker (the worker's stdin).
    pub writer: Box<dyn Write + Send>,
    /// Worker → coordinator (the worker's stdout).
    pub reader: Box<dyn Read + Send>,
    /// Terminates the worker and releases its resources (idempotent).
    pub kill: Box<dyn FnMut() + Send>,
}

/// Spawns workers. Two implementations ship: [`ProcessFactory`]
/// (subprocesses over stdio) and [`InProcessFactory`] (threads over
/// in-memory pipes, optionally behind fault-injecting relays — the
/// chaos harness's workhorse).
pub trait WorkerFactory {
    /// Spawns worker `id` and returns its I/O handles.
    fn spawn(&mut self, id: usize) -> std::io::Result<WorkerIo>;
}

/// Spawns real subprocesses: `program args...` with piped stdio. The
/// program must enter worker mode ([`serve`] on stdio) when given these
/// arguments — conventionally the same binary re-invoked with
/// `--worker`.
pub struct ProcessFactory {
    /// Worker executable (usually `std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments selecting worker mode.
    pub args: Vec<String>,
}

impl WorkerFactory for ProcessFactory {
    fn spawn(&mut self, _id: usize) -> std::io::Result<WorkerIo> {
        let mut child = Command::new(&self.program)
            .args(&self.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child
            .stdin
            .take()
            .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::BrokenPipe))?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::BrokenPipe))?;
        Ok(WorkerIo {
            writer: Box::new(stdin),
            reader: Box::new(stdout),
            kill: Box::new(move || {
                let _ = child.kill();
                let _ = child.wait();
            }),
        })
    }
}

/// Spawns worker *threads* over in-memory pipes, with optional
/// transport-fault relays in each direction. "Killing" such a worker
/// severs its pipes: readers see EOF, writers see `BrokenPipe`, exactly
/// like a subprocess dying — which lets the chaos harness exercise every
/// coordinator failure path deterministically and cheaply.
pub struct InProcessFactory {
    /// Faults on the coordinator → worker direction.
    pub to_worker: TransportFaults,
    /// Faults on the worker → coordinator direction.
    pub from_worker: TransportFaults,
    /// Seed for the relays' fault schedules (worker `id` forks it).
    pub relay_seed: u64,
}

impl InProcessFactory {
    /// A factory with clean, fault-free transport.
    pub fn clean() -> Self {
        Self {
            to_worker: TransportFaults::none(),
            from_worker: TransportFaults::none(),
            relay_seed: 0,
        }
    }
}

impl WorkerFactory for InProcessFactory {
    fn spawn(&mut self, id: usize) -> std::io::Result<WorkerIo> {
        let mut closers: Vec<PipeCloser> = Vec::new();
        let (coord_w, coord_r): (Box<dyn Write + Send>, Box<dyn Read + Send>) =
            if self.to_worker.is_clean() && self.from_worker.is_clean() {
                let (cw, wr, c1) = pipe();
                let (ww, cr, c2) = pipe();
                closers.extend([c1, c2]);
                std::thread::spawn(move || serve(wr, ww));
                (Box::new(cw), Box::new(cr))
            } else {
                // coordinator → relay → worker, worker → relay → coordinator
                let (cw, to_relay, c1) = pipe();
                let (from_relay, wr, c2) = pipe();
                let (ww, to_back, c3) = pipe();
                let (from_back, cr, c4) = pipe();
                closers.extend([c1, c2, c3, c4]);
                let tw = self.to_worker;
                let fw = self.from_worker;
                let base = WlanRng::seed_from_u64(self.relay_seed).fork(id as u64);
                let fwd_rng = base.fork(0);
                let rev_rng = base.fork(1);
                std::thread::spawn(move || relay(to_relay, from_relay, tw, fwd_rng));
                std::thread::spawn(move || relay(to_back, from_back, fw, rev_rng));
                std::thread::spawn(move || serve(wr, ww));
                (Box::new(cw), Box::new(cr))
            };
        Ok(WorkerIo {
            writer: coord_w,
            reader: coord_r,
            kill: Box::new(move || {
                for c in &closers {
                    c.close();
                }
            }),
        })
    }
}

/// A lease that exhausted its dispatch budget: the exact trial range
/// and the last failure, enough to replay the work standalone. Written
/// to the journal for post-mortems (and skipped on restore, so a
/// re-invocation retries the range fresh).
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedLease {
    /// SNR point index.
    pub point: usize,
    /// SNR in dB.
    pub snr_db: f64,
    /// First frame of the leased range.
    pub start: u64,
    /// One past the last frame.
    pub end: u64,
    /// Dispatch attempts spent.
    pub attempts: u32,
    /// The last failure's description.
    pub error: String,
}

impl QuarantinedLease {
    /// Journal body line (free-text error last, as with `quar` lines).
    pub fn to_line(&self) -> String {
        format!(
            "qlease point={} start={} end={} attempts={} snr={} error={}",
            self.point,
            self.start,
            self.end,
            self.attempts,
            f64_to_hex(self.snr_db),
            self.error
        )
    }

    /// Parses [`QuarantinedLease::to_line`]; `None` on malformation.
    pub fn from_line(line: &str) -> Option<Self> {
        let rest = line.strip_prefix("qlease ")?;
        let (coords, error) = rest.split_once(" error=")?;
        let mut tokens = coords.split_whitespace();
        let point = kv_u64(tokens.next()?, "point")? as usize;
        let start = kv_u64(tokens.next()?, "start")?;
        let end = kv_u64(tokens.next()?, "end")?;
        let attempts = kv_u64(tokens.next()?, "attempts")? as u32;
        let snr_db = f64_from_hex(tokens.next()?.strip_prefix("snr=")?)?;
        if tokens.next().is_some() || start >= end {
            return None;
        }
        Some(Self {
            point,
            snr_db,
            start,
            end,
            attempts,
            error: error.to_owned(),
        })
    }
}

/// Fleet-health counters for one coordinator invocation. These describe
/// *liveness* (wall-clock-dependent) and are deliberately outside the
/// bit-identity contract, unlike the tallies they sit next to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistStats {
    /// Workers successfully spawned.
    pub workers_spawned: u64,
    /// Workers declared dead (EOF, timeout, kill, corrupt stream).
    pub worker_deaths: u64,
    /// Leases whose deadline expired.
    pub timeouts: u64,
    /// Lease re-dispatches (after worker death or invalid results).
    pub redispatches: u64,
    /// Protocol frames that failed checksum/format validation.
    pub corrupt_frames: u64,
    /// Leases executed in-process after fleet loss.
    pub fallback_leases: u64,
    /// Leases that completed with valid results.
    pub leases_completed: u64,
}

/// The result of a distributed campaign invocation: the single-process
/// report fields (bit-identical tallies and trial quarantine) plus the
/// lease quarantine and fleet statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DistPerReport {
    /// Link name.
    pub name: String,
    /// Fault chain name.
    pub fault: String,
    /// PHY rate in Mbps.
    pub rate_mbps: f64,
    /// Master seed.
    pub seed: u64,
    /// Per-point tallies — bit-identical to the single-process
    /// campaign's at any worker count and kill schedule.
    pub points: Vec<PointProgress>,
    /// Trial quarantine ledger in canonical `(point, frame)` order
    /// (lease completion order is timing-dependent, so the distributed
    /// report sorts; the single-process report keeps execution order,
    /// which for it is the same thing).
    pub quarantine: Vec<QuarantinedTrial>,
    /// Leases abandoned after exhausting their dispatch budget, in
    /// `(point, start)` order.
    pub lease_quarantine: Vec<QuarantinedLease>,
    /// Whether the campaign finished, aggregated across all points via
    /// [`Outcome::merge`].
    pub outcome: Outcome,
    /// How this invocation started (fresh / resumed / salvaged / cold).
    pub resume: Resume,
    /// First checkpoint-write failure, if any (campaign continues).
    pub journal_error: Option<JournalError>,
    /// Fleet-health counters (wall-clock-dependent; not part of the
    /// bit-identity contract).
    pub stats: DistStats,
}

impl DistPerReport {
    /// Total trials banked across all points.
    pub fn completed_trials(&self) -> u64 {
        self.points.iter().map(|p| p.trials).sum()
    }

    /// Writes the deterministic result table: campaign header, one row
    /// per point, then the quarantine tallies. The bytes contain no
    /// timing, fleet state, or paths, so they are identical at any
    /// worker count, kill schedule, or transport — the ci smokes diff
    /// exactly this output across fleet geometries.
    pub fn render_table(&self, out: &mut dyn Write) -> std::io::Result<()> {
        writeln!(out, "campaign {} / {}", self.name, self.fault)?;
        writeln!(
            out,
            "{:>8} {:>8} {:>8} {:>10} {:>10} {:>22}",
            "snr_db", "trials", "errors", "per", "erasure", "wilson95"
        )?;
        for p in &self.points {
            let ci = p.ci().map_or_else(
                || "n/a".to_owned(),
                |ci| format!("[{:.6}, {:.6}]", ci.lo, ci.hi),
            );
            writeln!(
                out,
                "{:>8.1} {:>8} {:>8} {:>10.6} {:>10.6} {:>22}",
                p.snr_db,
                p.trials,
                p.errors,
                p.per(),
                p.erasure_rate(),
                ci
            )?;
        }
        writeln!(out, "quarantined {}", self.quarantine.len())?;
        writeln!(out, "abandoned leases {}", self.lease_quarantine.len())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeaseState {
    Pending,
    InFlight,
    Done,
    Quarantined,
    Cancelled,
}

struct Lease {
    point: usize,
    start: u64,
    end: u64,
    attempts: u32,
    state: LeaseState,
    not_before: Instant,
    worker: Option<usize>,
    deadline: Instant,
    quars: Vec<(u64, String)>,
    last_error: String,
}

struct Slot {
    writer: Box<dyn Write + Send>,
    kill: Box<dyn FnMut() + Send>,
    alive: bool,
    ready: bool,
    strikes: u32,
    inflight: Option<u64>,
    last_seen: Instant,
    last_ping: Instant,
    hello_sent: Instant,
    hello_resends: u32,
}

enum Event {
    Msg(usize, Msg),
    Corrupt(usize),
    Eof(usize),
}

fn reader_loop(w: usize, reader: Box<dyn Read + Send>, tx: mpsc::Sender<Event>) {
    let mut r = BufReader::new(reader);
    loop {
        match read_msg(&mut r) {
            Ok(Some(msg)) => {
                if tx.send(Event::Msg(w, msg)).is_err() {
                    return;
                }
            }
            Ok(None) | Err(ProtoError::Io(_)) => {
                let _ = tx.send(Event::Eof(w));
                return;
            }
            Err(_) => {
                if tx.send(Event::Corrupt(w)).is_err() {
                    return;
                }
            }
        }
    }
}

/// A fleet of worker connections that can outlive a single campaign:
/// the worker slots, the event channel their reader threads feed, the
/// next lease id, and an optional channel of *late-joining* workers (a
/// TCP acceptor's output). [`run_dist_per_campaign_on`] runs one
/// campaign over a fleet and leaves it connected, which is what lets a
/// `campaign serve` service run queued campaigns back-to-back on the
/// same workers — and lets a worker that reconnects mid-campaign rejoin
/// the pool as a fresh slot.
///
/// Lease ids live here, not in the per-campaign state, so they are
/// globally unique across every campaign a fleet ever runs: a `done`
/// frame from a worker still chewing on campaign N's lease can never be
/// mistaken for a result in campaign N+1.
pub struct Fleet {
    slots: Vec<Option<Slot>>,
    tx: mpsc::Sender<Event>,
    rx: mpsc::Receiver<Event>,
    joiners: Option<mpsc::Receiver<WorkerIo>>,
    next_lease: u64,
    /// Workers attached since the last campaign took credit for them.
    fresh_spawns: u64,
}

impl Fleet {
    fn new_empty() -> Self {
        let (tx, rx) = mpsc::channel();
        Self {
            slots: Vec::new(),
            tx,
            rx,
            joiners: None,
            next_lease: 0,
            fresh_spawns: 0,
        }
    }

    /// Spawns `workers` workers up front from `factory`. A failed spawn
    /// leaves an empty slot (the campaign degrades rather than aborts).
    pub fn spawn(workers: usize, factory: &mut dyn WorkerFactory) -> Self {
        let mut fleet = Self::new_empty();
        let now = Instant::now();
        for w in 0..workers {
            match factory.spawn(w) {
                Ok(io) => {
                    fleet.attach(io, now);
                }
                Err(_) => fleet.slots.push(None),
            }
        }
        fleet
    }

    /// An initially-empty fleet fed by `joiners` — every [`WorkerIo`]
    /// sent down the channel (a freshly handshaken TCP worker, say) is
    /// attached at the next coordinator pass, mid-campaign included.
    pub fn from_joiners(joiners: mpsc::Receiver<WorkerIo>) -> Self {
        let mut fleet = Self::new_empty();
        fleet.joiners = Some(joiners);
        fleet
    }

    /// Attaches a connected worker as a new slot (slots are never
    /// reused: a reconnecting worker gets a fresh index, and its old
    /// slot stays dead). Returns the slot index.
    fn attach(&mut self, io: WorkerIo, now: Instant) -> usize {
        let w = self.slots.len();
        let tx = self.tx.clone();
        let reader = io.reader;
        std::thread::spawn(move || reader_loop(w, reader, tx));
        self.slots.push(Some(Slot {
            writer: io.writer,
            kill: io.kill,
            alive: true,
            ready: false,
            strikes: 0,
            inflight: None,
            last_seen: now,
            last_ping: now,
            hello_sent: now,
            hello_resends: 0,
        }));
        self.fresh_spawns += 1;
        wlan_obs::global().event(
            wlan_obs::events::DIST_WORKER_SPAWN,
            &[("worker", json::Value::U64(w as u64))],
        );
        w
    }

    /// Workers currently alive (attached and not declared dead).
    pub fn alive_workers(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.as_ref().map(|s| s.alive).unwrap_or(false))
            .count()
    }

    /// Keeps an idle fleet warm between campaigns: attaches queued
    /// joiners, pings every live worker on roughly `heartbeat_ms`
    /// cadence, and reaps streams that ended. A `campaign serve`
    /// service calls this while lingering for its next campaign (or a
    /// shutdown frame), so idle TCP workers see traffic inside their
    /// read deadlines instead of timing out and churning reconnects.
    pub fn idle_tick(&mut self, heartbeat_ms: u64) {
        let now = Instant::now();
        let mut ios = Vec::new();
        if let Some(rx) = &self.joiners {
            while let Ok(io) = rx.try_recv() {
                ios.push(io);
            }
        }
        for io in ios {
            self.attach(io, now);
        }
        let heartbeat = Duration::from_millis(heartbeat_ms.max(1));
        for slot in self.slots.iter_mut().flatten() {
            if slot.alive && now.duration_since(slot.last_ping) >= heartbeat {
                slot.last_ping = now;
                if write_msg(&mut slot.writer, &Msg::Ping { n: 0 }).is_err() {
                    slot.alive = false;
                    (slot.kill)();
                }
            }
        }
        while let Ok(ev) = self.rx.try_recv() {
            match ev {
                Event::Eof(w) => {
                    if let Some(Some(slot)) = self.slots.get_mut(w) {
                        if slot.alive {
                            slot.alive = false;
                            (slot.kill)();
                        }
                    }
                }
                Event::Msg(w, _) => {
                    if let Some(Some(slot)) = self.slots.get_mut(w) {
                        slot.last_seen = now;
                    }
                }
                Event::Corrupt(_) => {}
            }
        }
    }

    /// Polite shutdown frame to every live worker, then the hard kill
    /// (which also reaps subprocesses and severs in-process pipes).
    pub fn shutdown(&mut self) {
        for slot in self.slots.iter_mut().flatten() {
            if slot.alive {
                let _ = write_msg(&mut slot.writer, &Msg::Shutdown);
                (slot.kill)();
                slot.alive = false;
            }
        }
    }
}

/// Everything the coordinator mutates while the fleet runs.
/// A validated lease result buffered until the fold frontier reaches
/// it: the per-round tallies plus the quarantined `(frame, error)`
/// pairs.
type LeaseResult = (Vec<RoundTally>, Vec<(u64, String)>);

struct Coord<'a> {
    cfg: &'a DistConfig,
    fleet: &'a mut Fleet,
    link_id: String,
    fault_id: String,
    snrs: Vec<f64>,
    points: Vec<PointProgress>,
    quarantine: Vec<QuarantinedTrial>,
    seen_quars: HashSet<(usize, u64)>,
    lease_quarantine: Vec<QuarantinedLease>,
    abandoned: HashSet<usize>,
    leases: BTreeMap<u64, Lease>,
    dispatched: Vec<u64>,
    completed: HashMap<(usize, u64), LeaseResult>,
    stats: DistStats,
    obs: &'static wlan_obs::Recorder,
}

impl Coord<'_> {
    fn emit(&self, event: &str, fields: &[(&str, json::Value)]) {
        self.obs.event(event, fields);
    }

    fn alive_workers(&self) -> usize {
        self.fleet.alive_workers()
    }

    /// Takes credit for workers the fleet attached since the last call
    /// (initial spawns and late joiners alike).
    fn credit_spawns(&mut self) {
        self.stats.workers_spawned += std::mem::take(&mut self.fleet.fresh_spawns);
    }

    /// Attaches any queued late joiners and sends them this campaign's
    /// hello — a reconnecting (or brand-new) worker rejoins the pool
    /// mid-campaign as a fresh slot.
    fn drain_joiners(&mut self, now: Instant) {
        let mut ios = Vec::new();
        if let Some(rx) = &self.fleet.joiners {
            while let Ok(io) = rx.try_recv() {
                ios.push(io);
            }
        }
        for io in ios {
            let w = self.fleet.attach(io, now);
            self.send_hello(w, now);
        }
        self.credit_spawns();
    }

    /// Sends the campaign hello to slot `w` and resets its per-campaign
    /// bookkeeping.
    fn send_hello(&mut self, w: usize, now: Instant) {
        let hello = self.hello_msg();
        let failed = {
            let Some(slot) = self.fleet.slots[w].as_mut() else {
                return;
            };
            if !slot.alive {
                return;
            }
            slot.ready = false;
            slot.strikes = 0;
            slot.inflight = None;
            slot.last_seen = now;
            slot.last_ping = now;
            slot.hello_sent = now;
            slot.hello_resends = 0;
            write_msg(&mut slot.writer, &hello).is_err()
        };
        if failed {
            // The reader thread will also deliver the EOF; declaring
            // the death now just reclaims the slot promptly.
            self.worker_dead(w, "write failed", now);
        }
    }

    /// Receives events, blocking up to `wait` for the first one.
    fn pump_events(&mut self, wait: Duration) {
        match self.fleet.rx.recv_timeout(wait) {
            Ok(ev) => self.handle_event(ev, Instant::now()),
            Err(_) => return,
        }
        while let Ok(ev) = self.fleet.rx.try_recv() {
            self.handle_event(ev, Instant::now());
        }
    }

    /// Receives any already-queued events without blocking.
    fn drain_events(&mut self, now: Instant) {
        while let Ok(ev) = self.fleet.rx.try_recv() {
            self.handle_event(ev, now);
        }
    }

    fn point_resolved(&self, p: usize) -> bool {
        self.points[p].status != PointStatus::Active || self.abandoned.contains(&p)
    }

    fn all_resolved(&self) -> bool {
        (0..self.points.len()).all(|p| self.point_resolved(p))
    }

    /// Declares worker `w` dead: kills it, frees its slot, and fails
    /// whatever lease it held.
    fn worker_dead(&mut self, w: usize, reason: &str, now: Instant) {
        let Some(slot) = self.fleet.slots[w].as_mut() else {
            return;
        };
        if !slot.alive {
            return;
        }
        slot.alive = false;
        slot.ready = false;
        (slot.kill)();
        let inflight = slot.inflight.take();
        self.stats.worker_deaths += 1;
        self.emit(
            wlan_obs::events::DIST_WORKER_DEATH,
            &[
                ("worker", json::Value::U64(w as u64)),
                ("reason", json::Value::Str(reason.to_owned())),
            ],
        );
        if let Some(id) = inflight {
            self.fail_lease(id, &format!("worker {w} died: {reason}"), now);
        }
    }

    /// A lease attempt failed: re-dispatch with backoff, or quarantine
    /// the lease (and abandon its point) once the dispatch budget is
    /// spent.
    fn fail_lease(&mut self, id: u64, reason: &str, now: Instant) {
        let Some(lease) = self.leases.get_mut(&id) else {
            return;
        };
        if !matches!(lease.state, LeaseState::InFlight | LeaseState::Pending) {
            return;
        }
        lease.worker = None;
        lease.quars.clear();
        lease.last_error = reason.to_owned();
        if lease.attempts >= self.cfg.max_dispatches {
            lease.state = LeaseState::Quarantined;
            let (point, start, end, attempts, error) = (
                lease.point,
                lease.start,
                lease.end,
                lease.attempts,
                lease.last_error.clone(),
            );
            self.lease_quarantine.push(QuarantinedLease {
                point,
                snr_db: self.snrs[point],
                start,
                end,
                attempts,
                error,
            });
            self.emit(
                wlan_obs::events::DIST_LEASE_QUARANTINED,
                &[
                    ("lease", json::Value::U64(id)),
                    ("point", json::Value::U64(point as u64)),
                    ("attempts", json::Value::U64(attempts as u64)),
                ],
            );
            self.abandon_point(point);
        } else {
            // Exponential backoff with deterministic jitter: the jitter
            // stream is a pure function of (seed, lease, attempt), so a
            // replayed failure schedule backs off identically.
            let attempts = lease.attempts;
            let shift = (attempts.saturating_sub(1)).min(10);
            let base = self.cfg.retry_backoff_ms.saturating_mul(1 << shift);
            let jitter = (WlanRng::seed_from_u64(self.cfg.per.seed ^ 0x9e37_79b9_7f4a_7c15)
                .fork(id)
                .fork(attempts as u64)
                .next_f64()
                * (base as f64 / 2.0)) as u64;
            let backoff = base + jitter;
            lease.state = LeaseState::Pending;
            lease.not_before = now + Duration::from_millis(backoff);
            self.stats.redispatches += 1;
            self.emit(
                wlan_obs::events::DIST_REDISPATCH,
                &[
                    ("lease", json::Value::U64(id)),
                    ("attempt", json::Value::U64(attempts as u64)),
                    ("backoff_ms", json::Value::U64(backoff)),
                ],
            );
        }
    }

    /// Abandons a point: its outstanding leases are cancelled and no
    /// new ones are created. Its banked tallies stay (they are an exact
    /// prefix); its remaining trials become `Partial { remaining }`.
    fn abandon_point(&mut self, point: usize) {
        self.abandoned.insert(point);
        self.cancel_point_leases(point);
    }

    fn cancel_point_leases(&mut self, point: usize) {
        for lease in self.leases.values_mut() {
            if lease.point == point
                && matches!(lease.state, LeaseState::Pending | LeaseState::InFlight)
            {
                lease.state = LeaseState::Cancelled;
                // An in-flight worker finishes and its stale result is
                // ignored; the slot frees when Done (or death) arrives.
            }
        }
        self.completed.retain(|(p, _), _| *p != point);
    }

    /// Validates a `done` against its lease's exact round grid. Chaos
    /// transports can deliver structurally valid but damaged results;
    /// anything that fails validation is treated like a worker failure
    /// (strike + re-dispatch), never folded.
    fn valid_done(lease: &Lease, rounds: &[RoundTally]) -> bool {
        let span = lease.end - lease.start;
        let expect_rounds = span.div_ceil(ROUND_TRIALS);
        if rounds.len() as u64 != expect_rounds {
            return false;
        }
        let mut off = 0u64;
        for r in rounds {
            let want = ROUND_TRIALS.min(span - off);
            if r.trials != want || r.errors > r.trials || r.erasures > r.errors {
                return false;
            }
            // Every erasure must carry a quarantine entry for a unique
            // frame inside this round, else entries were lost in transit.
            let round_quars = lease
                .quars
                .iter()
                .filter(|(f, _)| (lease.start + off..lease.start + off + want).contains(f))
                .count() as u64;
            if round_quars != r.erasures {
                return false;
            }
            off += want;
        }
        let frames: HashSet<u64> = lease.quars.iter().map(|(f, _)| *f).collect();
        frames.len() == lease.quars.len()
            && frames.iter().all(|f| (lease.start..lease.end).contains(f))
    }

    fn handle_done(&mut self, w: usize, id: u64, rounds: Vec<RoundTally>, now: Instant) {
        if let Some(slot) = self.fleet.slots[w].as_mut() {
            if slot.inflight == Some(id) {
                slot.inflight = None;
            }
        }
        let Some(lease) = self.leases.get(&id) else {
            return;
        };
        if lease.state != LeaseState::InFlight || lease.worker != Some(w) {
            return; // stale or cancelled result
        }
        if !Self::valid_done(lease, &rounds) {
            self.strike(w, now);
            self.fail_lease(id, "result failed validation", now);
            return;
        }
        let trials: u64 = rounds.iter().map(|r| r.trials).sum();
        let Some(lease) = self.leases.get_mut(&id) else {
            return;
        };
        lease.state = LeaseState::Done;
        let key = (lease.point, lease.start);
        let quars = std::mem::take(&mut lease.quars);
        self.completed.insert(key, (rounds, quars));
        self.stats.leases_completed += 1;
        self.emit(
            wlan_obs::events::DIST_ACK,
            &[
                ("lease", json::Value::U64(id)),
                ("worker", json::Value::U64(w as u64)),
                ("trials", json::Value::U64(trials)),
            ],
        );
    }

    fn strike(&mut self, w: usize, now: Instant) {
        if let Some(slot) = self.fleet.slots[w].as_mut() {
            slot.strikes += 1;
            if slot.strikes >= 3 {
                self.worker_dead(w, "too many corrupt frames", now);
            }
        }
    }

    fn handle_event(&mut self, ev: Event, now: Instant) {
        match ev {
            Event::Eof(w) => self.worker_dead(w, "stream ended", now),
            Event::Corrupt(w) => {
                self.stats.corrupt_frames += 1;
                self.strike(w, now);
            }
            Event::Msg(w, msg) => {
                if let Some(slot) = self.fleet.slots[w].as_mut() {
                    slot.last_seen = now;
                }
                match msg {
                    Msg::Ready => {
                        if let Some(slot) = self.fleet.slots[w].as_mut() {
                            slot.ready = true;
                        }
                    }
                    Msg::Pong { .. } => {}
                    Msg::QuarTrial {
                        lease: id,
                        frame,
                        error,
                    } => {
                        if let Some(lease) = self.leases.get_mut(&id) {
                            if lease.state == LeaseState::InFlight && lease.worker == Some(w) {
                                lease.quars.push((frame, error));
                            }
                        }
                    }
                    Msg::Done { lease, rounds } => self.handle_done(w, lease, rounds, now),
                    // Coordinator-bound streams carrying coordinator
                    // messages mean chaos mangled something; ignore.
                    Msg::Hello { .. } | Msg::Lease { .. } | Msg::Ping { .. } | Msg::Shutdown => {}
                }
            }
        }
    }

    /// Folds completed leases into the per-point tallies, in frame
    /// order, applying the stopping rule at every round boundary.
    /// Returns the number of rounds folded (any fold is checkpointed).
    fn fold(&mut self, meter: &mut BudgetMeter) -> u64 {
        let mut folded = 0u64;
        for p in 0..self.points.len() {
            'point: while self.points[p].status == PointStatus::Active
                && !self.abandoned.contains(&p)
            {
                let pos = self.points[p].trials;
                let Some((rounds, quars)) = self.completed.remove(&(p, pos)) else {
                    break;
                };
                let mut off = 0u64;
                for r in &rounds {
                    // The budget caps trials *banked*, checked at the
                    // same round granularity the single-process wave
                    // loop uses; surplus results a worker already
                    // computed are discarded, keeping the tallies an
                    // exact round-aligned prefix.
                    if meter.exhausted().is_some() {
                        return folded;
                    }
                    let round_start = pos + off;
                    let round_end = round_start + r.trials;
                    let pt = &mut self.points[p];
                    pt.trials += r.trials;
                    pt.errors += r.errors;
                    pt.erasures += r.erasures;
                    meter.add_trials(r.trials);
                    folded += 1;
                    for (frame, error) in &quars {
                        if (round_start..round_end).contains(frame)
                            && self.seen_quars.insert((p, *frame))
                        {
                            self.quarantine.push(QuarantinedTrial {
                                seed: self.cfg.per.seed,
                                point: p,
                                snr_db: self.snrs[p],
                                frame: *frame,
                                error: error.clone(),
                            });
                        }
                    }
                    let status = evaluate_status(&self.points[p], &self.cfg.per);
                    self.points[p].status = status;
                    if status != PointStatus::Active {
                        // The single-process campaign never runs past a
                        // stopping decision; discard the rest unfolded.
                        self.cancel_point_leases(p);
                        break 'point;
                    }
                    off += r.trials;
                }
            }
        }
        folded
    }

    /// Creates new wave-aligned leases up to the speculation depth for
    /// every point that still owes trials.
    fn create_leases(&mut self, now: Instant) {
        for p in 0..self.points.len() {
            if self.point_resolved(p) {
                continue;
            }
            loop {
                let outstanding = self
                    .leases
                    .values()
                    .filter(|l| {
                        l.point == p
                            && matches!(l.state, LeaseState::Pending | LeaseState::InFlight)
                    })
                    .count();
                // Count buffered-but-unfolded leases against the depth
                // (their results still sit in `completed` waiting for
                // the frontier), or a stalled point would lease
                // unboundedly ahead. Folded leases stay `Done` in the
                // map but no longer hold a buffered result, so they
                // must not count — they would starve the point of new
                // leases once the first `speculation` folded.
                let done_waiting = self
                    .leases
                    .values()
                    .filter(|l| {
                        l.point == p
                            && l.state == LeaseState::Done
                            && self.completed.contains_key(&(l.point, l.start))
                    })
                    .count();
                if outstanding + done_waiting >= self.cfg.speculation.max(1)
                    || self.dispatched[p] >= self.cfg.per.max_frames
                {
                    break;
                }
                let start = self.dispatched[p];
                let end = self
                    .cfg
                    .per
                    .max_frames
                    .min(start + self.cfg.lease_rounds.max(1) * ROUND_TRIALS);
                self.dispatched[p] = end;
                let id = self.fleet.next_lease;
                self.fleet.next_lease += 1;
                self.leases.insert(
                    id,
                    Lease {
                        point: p,
                        start,
                        end,
                        attempts: 0,
                        state: LeaseState::Pending,
                        not_before: now,
                        worker: None,
                        deadline: now,
                        quars: Vec::new(),
                        last_error: String::new(),
                    },
                );
            }
        }
    }

    /// Dispatches due pending leases to idle ready workers.
    fn dispatch(&mut self, now: Instant) {
        let due: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, l)| l.state == LeaseState::Pending && now >= l.not_before)
            .map(|(id, _)| *id)
            .collect();
        for id in due {
            // `worker_dead` clears `alive`, so a failed write naturally
            // drops that slot out of the next search.
            let Some(w) = (0..self.fleet.slots.len()).find(|&w| {
                self.fleet.slots[w]
                    .as_ref()
                    .map(|s| s.alive && s.ready && s.inflight.is_none())
                    .unwrap_or(false)
            }) else {
                break;
            };
            let Some(lease) = self.leases.get_mut(&id) else {
                continue;
            };
            let msg = Msg::Lease {
                id,
                point: lease.point,
                start: lease.start,
                end: lease.end,
            };
            let Some(slot) = self.fleet.slots[w].as_mut() else {
                continue;
            };
            if write_msg(&mut slot.writer, &msg).is_err() {
                // The lease stays Pending (it never reached the worker,
                // so this is not a dispatch attempt) and retries on a
                // surviving worker next pass.
                self.worker_dead(w, "write failed", now);
                continue;
            }
            lease.state = LeaseState::InFlight;
            lease.worker = Some(w);
            lease.attempts += 1;
            lease.deadline = now + self.cfg.lease_deadline(lease.start, lease.end);
            let (point, attempt) = (lease.point, lease.attempts);
            slot.inflight = Some(id);
            self.emit(
                wlan_obs::events::DIST_DISPATCH,
                &[
                    ("lease", json::Value::U64(id)),
                    ("worker", json::Value::U64(w as u64)),
                    ("point", json::Value::U64(point as u64)),
                    ("attempt", json::Value::U64(attempt as u64)),
                ],
            );
        }
    }

    /// Liveness: hello deadlines, lease deadlines, idle heartbeats.
    fn police(&mut self, now: Instant) {
        let timeout = Duration::from_millis(self.cfg.lease_timeout_ms);
        let heartbeat = Duration::from_millis(self.cfg.heartbeat_ms.max(1));
        for w in 0..self.fleet.slots.len() {
            let Some(slot) = self.fleet.slots[w].as_mut() else {
                continue;
            };
            if !slot.alive {
                continue;
            }
            if !slot.ready {
                if now.duration_since(slot.hello_sent) >= timeout {
                    if slot.hello_resends < 2 {
                        slot.hello_resends += 1;
                        slot.hello_sent = now;
                        let hello = self.hello_msg();
                        let Some(slot) = self.fleet.slots[w].as_mut() else {
                            continue;
                        };
                        if write_msg(&mut slot.writer, &hello).is_err() {
                            self.worker_dead(w, "write failed", now);
                        }
                    } else {
                        self.worker_dead(w, "never became ready", now);
                    }
                }
                continue;
            }
            if let Some(id) = slot.inflight {
                let expired = self
                    .leases
                    .get(&id)
                    .map(|l| l.state == LeaseState::InFlight && now >= l.deadline)
                    .unwrap_or(false);
                if expired {
                    self.stats.timeouts += 1;
                    let attempt = self.leases.get(&id).map(|l| l.attempts).unwrap_or(0);
                    self.emit(
                        wlan_obs::events::DIST_TIMEOUT,
                        &[
                            ("lease", json::Value::U64(id)),
                            ("worker", json::Value::U64(w as u64)),
                            ("attempt", json::Value::U64(attempt as u64)),
                        ],
                    );
                    // A worker that blows a deadline is indistinguishable
                    // from a hung one; reclaim the slot the hard way.
                    self.worker_dead(w, "lease deadline exceeded", now);
                }
            } else {
                if now.duration_since(slot.last_seen) > 4 * heartbeat {
                    self.worker_dead(w, "heartbeat silence", now);
                    continue;
                }
                if now.duration_since(slot.last_ping) >= heartbeat {
                    slot.last_ping = now;
                    let n = now.duration_since(slot.last_seen).as_millis() as u64;
                    let Some(slot) = self.fleet.slots[w].as_mut() else {
                        continue;
                    };
                    if write_msg(&mut slot.writer, &Msg::Ping { n }).is_err() {
                        self.worker_dead(w, "write failed", now);
                    }
                }
            }
        }
    }

    fn hello_msg(&self) -> Msg {
        Msg::Hello {
            seed: self.cfg.per.seed,
            payload_len: self.cfg.per.payload_len,
            link: self.link_id.clone(),
            fault: self.fault_id.clone(),
            snrs: self.snrs.clone(),
        }
    }

    /// Runs one pending lease on the coordinator's own thread — the
    /// graceful-degradation path once every worker is gone. Inline
    /// execution uses the same [`run_lease`] the workers do, so results
    /// stay bit-identical; it simply cannot fail or time out.
    fn run_inline(&mut self, id: u64, link: &dyn PhyLink, faults: &FaultChain) {
        let Some(lease) = self.leases.get_mut(&id) else {
            return;
        };
        if lease.state != LeaseState::Pending {
            return;
        }
        lease.state = LeaseState::Done;
        lease.attempts += 1;
        let (point, start, end) = (lease.point, lease.start, lease.end);
        let (rounds, quars) = run_lease(
            link,
            faults,
            self.cfg.per.seed,
            self.cfg.per.payload_len,
            LeaseJob {
                point,
                snr_db: self.snrs[point],
                start,
                end,
            },
        );
        self.completed.insert((point, start), (rounds, quars));
        self.stats.fallback_leases += 1;
        self.stats.leases_completed += 1;
    }

    /// Journal body lines: ledgers first, tallies after — the same
    /// salvage-consistency ordering the single-process campaign uses
    /// (lost tallies re-run and their quarantine entries deduplicate; a
    /// tally never survives without its ledger entries).
    fn journal_body(&self) -> Vec<String> {
        let mut body: Vec<String> = self.quarantine.iter().map(QuarantinedTrial::to_line).collect();
        body.extend(self.lease_quarantine.iter().map(QuarantinedLease::to_line));
        body.extend(self.points.iter().enumerate().map(|(i, p)| p.to_line(i)));
        body
    }
}

/// Runs (or resumes) a distributed PER campaign over a worker fleet.
///
/// Per-point tallies, stopping decisions, and the trial-quarantine
/// ledger are bit-identical to
/// [`run_per_campaign`](wlan_runner::per::run_per_campaign) with the
/// same [`PerCampaignConfig`] — for any worker count, any kill
/// schedule, and the in-process fallback (see the module docs for the
/// argument, and `tests/tests/dist_chaos.rs` for the harness pinning
/// it).
///
/// This is the one-shot entry point: it spawns `cfg.workers` workers
/// from `factory`, runs the campaign, and shuts the fleet down. To run
/// several campaigns back-to-back on one fleet (or over TCP joiners),
/// build a [`Fleet`] yourself and call [`run_dist_per_campaign_on`].
///
/// # Panics
///
/// Panics on a vacuous configuration, with the same preconditions as
/// the single-process campaign (no SNR points, zero payload, zero
/// frames).
pub fn run_dist_per_campaign(
    link_spec: LinkSpec,
    fault_spec: FaultSpec,
    cfg: &DistConfig,
    factory: &mut dyn WorkerFactory,
) -> DistPerReport {
    let mut fleet = Fleet::spawn(cfg.workers, factory);
    let report = run_dist_per_campaign_on(link_spec, fault_spec, cfg, &mut fleet, "", None);
    fleet.shutdown();
    report
}

/// Runs (or resumes) one distributed PER campaign over an existing
/// [`Fleet`], leaving the fleet connected for the next campaign.
///
/// `key_suffix` is appended verbatim to the journal key — a
/// `campaign serve` service uses it to bind each queued campaign's
/// journal entry to its listen address and queue position, so two
/// services sharing a journal file never cross-resume. Pass `""` for
/// the classic one-shot identity.
///
/// `stop` is a cooperative drain flag: once it reads `true`, no new
/// leases are created or dispatched, in-flight leases are allowed to
/// finish (still policed by their deadlines), and the campaign exits
/// with [`StopReason::Interrupted`] — checkpointed, so a later run
/// resumes bit-identically where the drain stopped.
///
/// # Panics
///
/// Same preconditions as [`run_dist_per_campaign`].
pub fn run_dist_per_campaign_on(
    link_spec: LinkSpec,
    fault_spec: FaultSpec,
    cfg: &DistConfig,
    fleet: &mut Fleet,
    key_suffix: &str,
    stop: Option<&std::sync::atomic::AtomicBool>,
) -> DistPerReport {
    assert!(!cfg.per.snrs_db.is_empty(), "need at least one SNR point");
    assert!(cfg.per.payload_len > 0, "payload must be nonempty");
    assert!(cfg.per.max_frames > 0, "need at least one frame per point");
    assert!(cfg.per.min_frames > 0, "min_frames must be at least 1");

    let link = link_spec.build();
    let faults = fault_spec.build();
    // Same campaign identity as the single-process journal key, plus a
    // marker so the two journal families never collide on one path.
    let key = format!(
        "{} dist v1{key_suffix}",
        cfg.per.journal_key(link.as_ref(), &faults)
    );

    // PER's restore ladder and body decoder, plus the two dist extras:
    // `qlease` ledger lines are validated but *not* restored (a
    // re-invocation retries abandoned ranges fresh rather than
    // inheriting last run's fleet failures), and every restored frontier
    // must sit on the lease grid, since distributed folds stop only at
    // round boundaries.
    let journal_path = cfg.per.journal.as_deref();
    let on_grid =
        |p: &PointProgress| p.trials.is_multiple_of(ROUND_TRIALS) || p.trials == cfg.per.max_frames;
    let (PerProgress { points, quarantine, .. }, resume) = campaign::restore(
        journal_path,
        &key,
        true,
        || PerProgress::fresh(&cfg.per),
        |body, complete| {
            let mut progress = PerProgress::default();
            journal::decode_lines(body, |line| {
                if line.starts_with("qlease ") {
                    QuarantinedLease::from_line(line).is_some()
                } else {
                    progress.decode_line(&cfg.per, line) && progress.points.last().is_none_or(on_grid)
                }
            })?;
            progress.finish(&cfg.per, complete)
        },
        PerProgress::trials,
    );
    let banked: u64 = points.iter().map(|p| p.trials).sum();
    let mut meter = BudgetMeter::resumed(cfg.per.budget, banked);
    let mut journal_error: Option<JournalError> = None;
    let mut checkpoint = |coord: &Coord| {
        if let Some(path) = journal_path {
            if let Err(e) = journal::save(path, &key, &coord.journal_body()) {
                journal_error.get_or_insert(e);
            }
        }
    };

    let obs = wlan_obs::global();
    let start = Instant::now();

    let seen_quars: HashSet<(usize, u64)> =
        quarantine.iter().map(|q| (q.point, q.frame)).collect();
    let mut coord = Coord {
        cfg,
        fleet,
        link_id: link_spec.id(),
        fault_id: fault_spec.id(),
        snrs: cfg.per.snrs_db.clone(),
        points,
        quarantine,
        seen_quars,
        lease_quarantine: Vec::new(),
        abandoned: HashSet::new(),
        leases: BTreeMap::new(),
        dispatched: Vec::new(),
        completed: HashMap::new(),
        stats: DistStats::default(),
        obs,
    };
    // Take credit for the fleet's existing spawns, then (re)hello every
    // connected worker — a fleet that just finished campaign N has
    // slots whose per-campaign state (ready, strikes, inflight) belongs
    // to N; the hello reset scrubs it for this campaign.
    coord.credit_spawns();
    for w in 0..coord.fleet.slots.len() {
        coord.send_hello(w, start);
    }
    coord.dispatched = coord.points.iter().map(|p| p.trials).collect();

    obs.event(
        "campaign_start",
        &[
            ("kind", json::Value::Str("dist_per".into())),
            ("link", json::Value::Str(link.name())),
            ("workers", json::Value::U64(cfg.workers as u64)),
            ("banked_trials", json::Value::U64(banked)),
        ],
    );

    let mut chaos_done = false;
    let mut fallback_announced = false;
    let stop_reason = loop {
        let now = Instant::now();
        // Joiners first: a worker queued before the campaign started (or
        // one reconnecting right now) must be attached before the
        // zero-workers fallback/abandon decision below sees the fleet.
        coord.drain_joiners(now);
        if let Some(ms) = cfg.chaos_kill_after_ms {
            if !chaos_done && now.duration_since(start) >= Duration::from_millis(ms) {
                chaos_done = true;
                let victims: Vec<usize> = (0..coord.fleet.slots.len())
                    .filter(|&w| {
                        coord.fleet.slots[w]
                            .as_ref()
                            .map(|s| s.alive)
                            .unwrap_or(false)
                    })
                    .take(cfg.chaos_kill_count)
                    .collect();
                for w in victims {
                    coord.worker_dead(w, "chaos kill", now);
                }
            }
        }

        if coord.fold(&mut meter) > 0 {
            checkpoint(&coord);
        }
        if coord.all_resolved() {
            break None;
        }
        if let Some(reason) = meter.exhausted() {
            break Some(reason);
        }

        // Cooperative drain: stop creating and dispatching work, let
        // in-flight leases finish (deadlines still policed so a hung
        // worker cannot wedge the drain), fold what arrives, and exit
        // Interrupted once nothing is in flight. The checkpoint below
        // makes the drained state the resume point.
        if stop.is_some_and(|s| s.load(std::sync::atomic::Ordering::Relaxed)) {
            let inflight = coord
                .leases
                .values()
                .any(|l| l.state == LeaseState::InFlight);
            if !inflight {
                break Some(StopReason::Interrupted);
            }
            coord.police(now);
            coord.pump_events(Duration::from_millis(5));
            continue;
        }

        coord.police(now);
        coord.create_leases(now);
        coord.dispatch(now);

        if coord.alive_workers() == 0 {
            if !cfg.fallback_in_process {
                break Some(StopReason::Abandoned);
            }
            let pending: Vec<u64> = coord
                .leases
                .iter()
                .filter(|(_, l)| l.state == LeaseState::Pending)
                .map(|(id, _)| *id)
                .collect();
            if !fallback_announced {
                fallback_announced = true;
                coord.emit(
                    wlan_obs::events::DIST_FALLBACK,
                    &[("leases_left", json::Value::U64(pending.len() as u64))],
                );
            }
            if let Some(&id) = pending.first() {
                coord.run_inline(id, link.as_ref(), &faults);
            }
            coord.drain_events(now);
            continue;
        }

        coord.pump_events(Duration::from_millis(5));
    };

    // Final checkpoint: a budget-stopped campaign resumes from its exact
    // exit state; a complete one re-loads as complete.
    checkpoint(&coord);

    let mut outcome = Outcome::Complete;
    for (p, pt) in coord.points.iter().enumerate() {
        if pt.status == PointStatus::Active {
            let reason = if coord.abandoned.contains(&p) {
                StopReason::Abandoned
            } else {
                stop_reason.unwrap_or(StopReason::Abandoned)
            };
            outcome = outcome.merge(Outcome::Partial {
                completed: pt.trials,
                remaining: cfg.per.max_frames - pt.trials,
                reason,
            });
        }
    }
    // `merge` summed only the unfinished points' trials; report
    // `completed` over the whole campaign, finished points included.
    if let Outcome::Partial {
        remaining, reason, ..
    } = outcome
    {
        outcome = Outcome::Partial {
            completed: coord.points.iter().map(|p| p.trials).sum(),
            remaining,
            reason,
        };
    }

    coord.quarantine.sort_by_key(|q| (q.point, q.frame));
    coord.lease_quarantine.sort_by_key(|q| (q.point, q.start));

    obs.event(
        "campaign_done",
        &[
            ("kind", json::Value::Str("dist_per".into())),
            ("complete", json::Value::Bool(outcome.is_complete())),
            (
                "banked_trials",
                json::Value::U64(coord.points.iter().map(|p| p.trials).sum()),
            ),
            ("worker_deaths", json::Value::U64(coord.stats.worker_deaths)),
            ("quarantined", json::Value::U64(coord.quarantine.len() as u64)),
        ],
    );

    DistPerReport {
        name: link.name(),
        fault: faults.name(),
        rate_mbps: link.rate_mbps(),
        seed: cfg.per.seed,
        points: coord.points,
        quarantine: coord.quarantine,
        lease_quarantine: coord.lease_quarantine,
        outcome,
        resume,
        journal_error,
        stats: coord.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_runner::budget::Budget;
    use wlan_runner::per::run_per_campaign;

    fn base_per() -> PerCampaignConfig {
        PerCampaignConfig::new(&[2.0, 5.0, 8.0], 20, 64, 99)
            .with_budget(Budget::unlimited())
            .with_threads(1)
    }

    fn sorted_quarantine(mut q: Vec<QuarantinedTrial>) -> Vec<QuarantinedTrial> {
        q.sort_by(|a, b| (a.point, a.frame).cmp(&(b.point, b.frame)));
        q
    }

    #[test]
    fn one_worker_matches_single_process_bit_exactly() {
        let spec = LinkSpec::Fhss;
        let fault = FaultSpec::Clean;
        let baseline = run_per_campaign(&*spec.build(), &fault.build(), &base_per());

        let cfg = DistConfig::new(base_per(), 1);
        let mut factory = InProcessFactory::clean();
        let report = run_dist_per_campaign(spec, fault, &cfg, &mut factory);

        assert!(report.outcome.is_complete());
        assert_eq!(report.points, baseline.points);
        assert_eq!(
            report.quarantine,
            sorted_quarantine(baseline.quarantine.clone())
        );
        assert!(report.lease_quarantine.is_empty());
        assert_eq!(report.stats.worker_deaths, 0);
    }

    /// Points longer than `speculation × lease_rounds × 32` frames need
    /// the coordinator to keep minting leases *after* the first batch
    /// folds. (Regression: folded leases stay `Done` in the lease map;
    /// counting them against the speculation depth starved every long
    /// point after its first two leases, hanging the campaign.)
    #[test]
    fn long_points_keep_leasing_past_the_speculation_depth() {
        let spec = LinkSpec::Fhss;
        let fault = FaultSpec::Clean;
        // 320 frames per point: with lease_rounds=4 (128 trials) and
        // speculation=2, completing a point takes 3 lease generations.
        let per = PerCampaignConfig::new(&[2.0, 5.0], 20, 320, 99)
            .with_budget(Budget::unlimited())
            .with_threads(1);
        let baseline = run_per_campaign(&*spec.build(), &fault.build(), &per);

        for workers in [1usize, 2] {
            let cfg = DistConfig::new(per.clone(), workers);
            let mut factory = InProcessFactory::clean();
            let report = run_dist_per_campaign(spec, fault, &cfg, &mut factory);
            assert!(report.outcome.is_complete(), "workers={workers}");
            assert_eq!(report.points, baseline.points, "workers={workers}");
        }
    }

    #[test]
    fn three_workers_with_erasures_match_single_process() {
        let spec = LinkSpec::Fhss;
        let fault = FaultSpec::Single {
            kind: wlan_fault::FaultKind::FrameTruncation,
            severity: 1.0,
        };
        let baseline = run_per_campaign(&*spec.build(), &fault.build(), &base_per());
        assert!(
            !baseline.quarantine.is_empty(),
            "need erasures to test ledger merging"
        );

        let cfg = DistConfig::new(base_per(), 3);
        let mut factory = InProcessFactory::clean();
        let report = run_dist_per_campaign(spec, fault, &cfg, &mut factory);

        assert_eq!(report.points, baseline.points);
        assert_eq!(report.quarantine, sorted_quarantine(baseline.quarantine));
    }

    #[test]
    fn zero_workers_fall_back_in_process() {
        let spec = LinkSpec::Fhss;
        let fault = FaultSpec::Clean;
        let baseline = run_per_campaign(&*spec.build(), &fault.build(), &base_per());

        let cfg = DistConfig::new(base_per(), 0);
        let mut factory = InProcessFactory::clean();
        let report = run_dist_per_campaign(spec, fault, &cfg, &mut factory);

        assert!(report.outcome.is_complete());
        assert_eq!(report.points, baseline.points);
        assert!(report.stats.fallback_leases > 0);
        assert_eq!(report.stats.workers_spawned, 0);
    }

    #[test]
    fn fleet_loss_without_fallback_abandons() {
        let cfg = DistConfig::new(base_per(), 0).without_fallback();
        let mut factory = InProcessFactory::clean();
        let report = run_dist_per_campaign(LinkSpec::Fhss, FaultSpec::Clean, &cfg, &mut factory);
        let Outcome::Partial {
            completed,
            remaining,
            reason,
        } = report.outcome
        else {
            panic!("expected partial, got {:?}", report.outcome);
        };
        assert_eq!(completed, 0);
        assert_eq!(remaining, 3 * 64);
        assert_eq!(reason, StopReason::Abandoned);
    }

    #[test]
    fn early_stopping_folds_at_the_same_boundaries() {
        // Leases run 4 rounds ahead, but the coordinator must stop a
        // point exactly where the single-process wave loop would, and
        // discard the surplus rounds unfolded.
        let mut per = PerCampaignConfig::new(&[12.0], 20, 4096, 7)
            .with_budget(Budget::unlimited())
            .with_threads(1)
            .with_target_half_width(0.05);
        per.min_frames = 32;
        let baseline = run_per_campaign(&FhssLinkForTest, &FaultChain::clean(), &per);

        let cfg = DistConfig::new(per, 2);
        let mut factory = InProcessFactory::clean();
        let report = run_dist_per_campaign(LinkSpec::Fhss, FaultSpec::Clean, &cfg, &mut factory);
        assert_eq!(report.points, baseline.points);
        assert_eq!(report.points[0].status, PointStatus::StoppedEarly);
    }

    use wlan_core::linksim::FhssLink as FhssLinkForTest;

    #[test]
    fn trial_budget_yields_aggregated_partial() {
        // 3 points x 64 frames = 192 trials of work under a 96-trial
        // budget: banking stops at the 96-trial round boundary and the
        // merged outcome owes exactly the rest.
        let per = base_per().with_budget(Budget::unlimited().with_max_trials(96));
        let cfg = DistConfig::new(per, 2);
        let mut factory = InProcessFactory::clean();
        let report = run_dist_per_campaign(LinkSpec::Fhss, FaultSpec::Clean, &cfg, &mut factory);
        let Outcome::Partial {
            completed,
            remaining,
            reason,
        } = report.outcome
        else {
            panic!("expected partial, got {:?}", report.outcome);
        };
        assert_eq!(reason, StopReason::TrialBudget);
        assert_eq!(completed, 96);
        assert_eq!(remaining, 96);
        assert_eq!(report.completed_trials(), 96);
        assert_eq!(
            report.points.iter().map(|p| p.trials % ROUND_TRIALS).sum::<u64>(),
            0,
            "budget stops land on round boundaries"
        );
    }

    #[test]
    fn chaos_kill_mid_run_still_matches_single_process() {
        let spec = LinkSpec::Fhss;
        let fault = FaultSpec::Clean;
        let baseline = run_per_campaign(&*spec.build(), &fault.build(), &base_per());

        // Kill 2 of 3 workers essentially immediately: the survivors
        // (or the fallback) must still produce identical results.
        let cfg = DistConfig::new(base_per(), 3)
            .with_chaos_kill(1, 2)
            .with_lease_timeout_ms(2_000)
            .with_heartbeat_ms(50);
        let mut factory = InProcessFactory::clean();
        let report = run_dist_per_campaign(spec, fault, &cfg, &mut factory);
        assert!(report.outcome.is_complete(), "{:?}", report.outcome);
        assert_eq!(report.points, baseline.points);
        assert!(report.stats.worker_deaths >= 2);
    }

    #[test]
    fn qlease_line_round_trips() {
        let q = QuarantinedLease {
            point: 2,
            snr_db: -1.5,
            start: 64,
            end: 192,
            attempts: 3,
            error: "worker 1 died: stream ended".to_owned(),
        };
        assert_eq!(QuarantinedLease::from_line(&q.to_line()), Some(q));
        assert_eq!(QuarantinedLease::from_line("qlease nope"), None);
        assert_eq!(
            QuarantinedLease::from_line(
                "qlease point=0 start=64 end=64 attempts=1 snr=0000000000000000 error=x"
            ),
            None,
            "empty ranges are malformed"
        );
    }

    #[test]
    fn journal_resume_is_bit_identical_across_invocations() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("wlan_dist_resume_{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let baseline = run_per_campaign(
            &FhssLinkForTest,
            &FaultChain::clean(),
            &base_per(),
        );

        // Budget-interrupt after every 32 banked trials, resuming each
        // time, until complete.
        let mut completed = 0u64;
        let mut invocations = 0;
        let report = loop {
            let per = base_per()
                .with_journal(path.clone())
                .with_budget(Budget::unlimited().with_max_trials(completed + 1));
            let cfg = DistConfig::new(per, 1);
            let mut factory = InProcessFactory::clean();
            let r = run_dist_per_campaign(LinkSpec::Fhss, FaultSpec::Clean, &cfg, &mut factory);
            assert!(r.journal_error.is_none(), "{:?}", r.journal_error);
            invocations += 1;
            assert!(invocations < 100, "failed to converge");
            completed = r.completed_trials();
            if r.outcome.is_complete() {
                break r;
            }
        };
        assert!(invocations > 1, "interruption never happened");
        assert_eq!(report.points, baseline.points);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lease_deadline_scales_with_rounds() {
        let cfg = DistConfig::new(base_per(), 1).with_lease_timeout_ms(100);
        // One round (or less) gets the base deadline.
        assert_eq!(cfg.lease_deadline(0, 32), Duration::from_millis(100));
        assert_eq!(cfg.lease_deadline(5, 5), Duration::from_millis(100));
        // Four rounds get four times the base.
        assert_eq!(cfg.lease_deadline(0, 128), Duration::from_millis(400));
        // Partial rounds round up.
        assert_eq!(cfg.lease_deadline(64, 97), Duration::from_millis(200));
    }

    /// The bugfix test for flat per-lease deadlines: a multi-round lease
    /// on a slow transport must get proportionally more time. With the
    /// old flat deadline this configuration timed out its only worker's
    /// first lease, killed the worker, and abandoned the campaign.
    #[test]
    fn multi_round_leases_get_scaled_deadlines() {
        let spec = LinkSpec::Fhss;
        let fault = FaultSpec::Clean;
        // One point of 256 frames, leased as a single 8-round lease.
        let per = PerCampaignConfig::new(&[2.0], 20, 256, 99)
            .with_budget(Budget::unlimited())
            .with_threads(1);
        let baseline = run_per_campaign(&*spec.build(), &fault.build(), &per);

        // Every worker→coordinator line crosses a relay that stalls it
        // 500 ms (and lines queue serially behind each other): far over
        // the old flat 300 ms deadline, comfortably under the scaled
        // 8 × 300 ms one.
        let mut cfg = DistConfig::new(per, 1)
            .with_lease_timeout_ms(300)
            .without_fallback();
        cfg.lease_rounds = 8;
        let mut factory = InProcessFactory {
            to_worker: TransportFaults::none(),
            from_worker: TransportFaults {
                stall: 1.0,
                stall_ms: 500,
                ..TransportFaults::none()
            },
            relay_seed: 0,
        };
        let report = run_dist_per_campaign(spec, fault, &cfg, &mut factory);
        assert!(report.outcome.is_complete(), "{:?}", report.outcome);
        assert_eq!(report.stats.timeouts, 0, "healthy progress must not time out");
        assert_eq!(report.points, baseline.points);
    }

    #[test]
    fn one_fleet_runs_queued_campaigns_back_to_back() {
        // Two different campaigns over the same two workers; each must
        // match its own one-shot baseline bit-exactly, and the second
        // must not have needed fresh spawns.
        let per_a = base_per();
        let per_b = PerCampaignConfig::new(&[1.0, 4.0], 24, 96, 1234)
            .with_budget(Budget::unlimited())
            .with_threads(1);
        let base_a = run_per_campaign(
            &*LinkSpec::Fhss.build(),
            &FaultChain::clean(),
            &per_a,
        );
        let base_b = run_per_campaign(
            &*LinkSpec::Dsss(wlan_core::dsss::DsssRate::Dqpsk2M).build(),
            &FaultChain::clean(),
            &per_b,
        );

        let mut factory = InProcessFactory::clean();
        let mut fleet = Fleet::spawn(2, &mut factory);
        let cfg_a = DistConfig::new(per_a, 2);
        let ra = run_dist_per_campaign_on(LinkSpec::Fhss, FaultSpec::Clean, &cfg_a, &mut fleet, "", None);
        let cfg_b = DistConfig::new(per_b, 2);
        let rb = run_dist_per_campaign_on(
            LinkSpec::Dsss(wlan_core::dsss::DsssRate::Dqpsk2M),
            FaultSpec::Clean,
            &cfg_b,
            &mut fleet,
            "",
            None,
        );
        fleet.shutdown();

        assert!(ra.outcome.is_complete() && rb.outcome.is_complete());
        assert_eq!(ra.points, base_a.points);
        assert_eq!(rb.points, base_b.points);
        assert_eq!(ra.stats.workers_spawned, 2);
        assert_eq!(rb.stats.workers_spawned, 0, "campaign 2 reuses the fleet");
        assert_eq!(rb.stats.worker_deaths, 0);
    }

    #[test]
    fn queued_joiner_is_attached_before_fallback_decision() {
        // A worker queued on the joiners channel before the campaign
        // starts must be attached before the zero-workers abandon/
        // fallback decision — even with fallback disabled, the campaign
        // completes on the joiner.
        let (tx, rx) = mpsc::channel();
        let mut factory = InProcessFactory::clean();
        let io = factory.spawn(0).expect("in-process spawn is infallible");
        tx.send(io).expect("queue the joiner");

        let baseline = run_per_campaign(
            &*LinkSpec::Fhss.build(),
            &FaultChain::clean(),
            &base_per(),
        );
        let cfg = DistConfig::new(base_per(), 0).without_fallback();
        let mut fleet = Fleet::from_joiners(rx);
        let report =
            run_dist_per_campaign_on(LinkSpec::Fhss, FaultSpec::Clean, &cfg, &mut fleet, "", None);
        fleet.shutdown();

        assert!(report.outcome.is_complete(), "{:?}", report.outcome);
        assert_eq!(report.points, baseline.points);
        assert_eq!(report.stats.workers_spawned, 1);
        assert_eq!(report.stats.fallback_leases, 0);
    }

    #[test]
    fn late_joiner_attaches_mid_campaign() {
        // 320 frames per point keeps the campaign busy long enough for
        // a second worker to dial in halfway; results stay bit-identical.
        let per = PerCampaignConfig::new(&[2.0, 5.0], 20, 320, 99)
            .with_budget(Budget::unlimited())
            .with_threads(1);
        let baseline = run_per_campaign(&*LinkSpec::Fhss.build(), &FaultChain::clean(), &per);

        let (tx, rx) = mpsc::channel();
        let mut factory = InProcessFactory::clean();
        let first = factory.spawn(0).expect("spawn");
        tx.send(first).expect("queue the first worker");
        let late = factory.spawn(1).expect("spawn");
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let _ = tx.send(late);
        });

        let cfg = DistConfig::new(per, 0).without_fallback();
        let mut fleet = Fleet::from_joiners(rx);
        let report =
            run_dist_per_campaign_on(LinkSpec::Fhss, FaultSpec::Clean, &cfg, &mut fleet, "", None);
        fleet.shutdown();

        assert!(report.outcome.is_complete(), "{:?}", report.outcome);
        assert_eq!(report.points, baseline.points);
        assert!(report.stats.workers_spawned >= 1);
    }

    #[test]
    fn stop_flag_drains_and_interrupts_then_resumes_bit_identically() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("wlan_dist_stop_{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let baseline = run_per_campaign(
            &FhssLinkForTest,
            &FaultChain::clean(),
            &base_per(),
        );

        // Stop requested before the first lease: the campaign must exit
        // Interrupted without dispatching anything, checkpointed.
        let stop = std::sync::atomic::AtomicBool::new(true);
        let per = base_per().with_journal(path.clone());
        let cfg = DistConfig::new(per.clone(), 1);
        let mut factory = InProcessFactory::clean();
        let mut fleet = Fleet::spawn(1, &mut factory);
        let interrupted = run_dist_per_campaign_on(
            LinkSpec::Fhss,
            FaultSpec::Clean,
            &cfg,
            &mut fleet,
            "",
            Some(&stop),
        );
        fleet.shutdown();
        let Outcome::Partial { reason, .. } = interrupted.outcome else {
            panic!("expected partial, got {:?}", interrupted.outcome);
        };
        assert_eq!(reason, StopReason::Interrupted);

        // Re-run without the stop flag: resumes and completes with
        // bit-identical results.
        let cfg = DistConfig::new(per, 1);
        let mut factory = InProcessFactory::clean();
        let resumed = run_dist_per_campaign(LinkSpec::Fhss, FaultSpec::Clean, &cfg, &mut factory);
        assert!(resumed.outcome.is_complete(), "{:?}", resumed.outcome);
        assert_eq!(resumed.points, baseline.points);
        let _ = std::fs::remove_file(&path);
    }
}
