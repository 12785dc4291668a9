//! `wlan-obs`: zero-dependency observability for the simulation stack.
//!
//! The workspace runs large deterministic Monte-Carlo campaigns; this
//! crate answers *where the work goes* — frames simulated, backoff slots
//! burned, waves checkpointed, nanoseconds per pipeline stage — without
//! perturbing a single result. Three primitives, all atomic and
//! thread-safe (they are shared freely with `wlan_math::par` worker
//! threads):
//!
//! * [`Counter`] — a monotonic `u64`;
//! * [`Histogram`] — fixed power-of-two buckets with count/sum/min/max,
//!   fed by a [`Span`] timer ([`Histogram::start`]);
//! * [`Recorder`] — the registry handing out those handles, with an
//!   optional JSONL event sink and a [`Recorder::snapshot`] export.
//!
//! # Determinism guarantee
//!
//! Observability is strictly write-only from the simulation's point of
//! view: nothing in this crate is ever *read back* into a simulation
//! decision, no RNG is consumed, and wall-clock readings flow only
//! *into* histograms. Disabling the recorder (`WLAN_OBS=0`) therefore
//! changes no simulated result — a contract pinned by the tier-1
//! `obs_determinism` test, which runs the same sweep with the gate off
//! and on and requires bit-identical reports.
//!
//! # Cost model
//!
//! A disabled recorder costs one `Relaxed` atomic load per operation.
//! An enabled counter add is one `fetch_add`; a span is two
//! `Instant::now` calls plus five `Relaxed` atomic RMWs on stop. Handle
//! *resolution* ([`Recorder::counter`] / [`Recorder::histogram`]) takes
//! a registry mutex, so hot paths resolve handles once (per batch, or
//! once per process via `OnceLock`) and then record lock-free.
//!
//! # Environment
//!
//! * `WLAN_OBS` — unset / `1` / `on` / `true` enable the global
//!   recorder; `0` / `off` / `false` disable it. Anything else disables
//!   it with a warning on stderr (same fallback shape as
//!   `wlan_bench::timing::Timer::from_env`).
//! * `WLAN_OBS_JSONL` — path to append JSONL events to. Unset means no
//!   event sink; an unopenable path warns and disables the sink, never
//!   the run.

#![warn(missing_docs)]

pub mod events;
pub mod json;

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use json::Value;

/// Environment variable gating the global recorder.
pub const OBS_ENV: &str = "WLAN_OBS";
/// Environment variable naming the JSONL event sink path.
pub const JSONL_ENV: &str = "WLAN_OBS_JSONL";

/// Number of power-of-two histogram buckets. Bucket `i` holds values
/// whose bit length is `i` (bucket 0 holds exactly 0), so the last
/// bucket starts at 2^38 ns ≈ 4.6 minutes — far beyond any span the
/// simulator times.
pub const HIST_BUCKETS: usize = 40;

/// Lock a mutex, recovering the guard from a poisoned lock: observers
/// must keep working after a panicking thread, and the data inside is
/// monotonic atomics for which every interleaving is valid.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn bucket_index(ns: u64) -> usize {
    let bits = (u64::BITS - ns.leading_zeros()) as usize;
    bits.min(HIST_BUCKETS - 1)
}

/// Inclusive upper bound of histogram bucket `i`, in nanoseconds.
fn bucket_upper_ns(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

// ---------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------

struct HistCells {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistCells {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one value. Every field is a commutative atomic update
    /// (`add`/`min`/`max`), so concurrent recordings merge
    /// order-independently — the same totals from any interleaving.
    fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.min.fetch_min(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        HistSnapshot {
            count,
            sum_ns: self.sum.load(Ordering::Relaxed),
            min_ns: if count == 0 { 0 } else { min },
            max_ns: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((bucket_upper_ns(i), n))
                })
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------

/// A monotonic counter handle. Cloning is cheap (two `Arc`s); all
/// clones share the same cell.
#[derive(Clone)]
pub struct Counter {
    gate: Arc<AtomicBool>,
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add `n` to the counter (no-op while the recorder is disabled).
    pub fn add(&self, n: u64) {
        if self.gate.load(Ordering::Relaxed) {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add 1 to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (readable even while disabled).
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram handle; values are nanoseconds by
/// convention but any `u64` works.
#[derive(Clone)]
pub struct Histogram {
    gate: Arc<AtomicBool>,
    cells: Arc<HistCells>,
}

impl Histogram {
    /// Start a span; its wall-clock duration is recorded when the
    /// returned [`Span`] is dropped or [`Span::stop`]ped. While the
    /// recorder is disabled the span is inert and no clock is read.
    pub fn start(&self) -> Span {
        Span {
            live: self
                .gate
                .load(Ordering::Relaxed)
                .then(|| (Arc::clone(&self.cells), Instant::now())),
        }
    }

    /// Snapshot of the current tallies.
    pub fn snapshot(&self) -> HistSnapshot {
        self.cells.snapshot()
    }
}

/// An in-flight timing span. Spans are independent values: dropping
/// them in any order — out of nesting order, leaked via `mem::forget`,
/// or during unwinding — is safe and never panics.
pub struct Span {
    live: Option<(Arc<HistCells>, Instant)>,
}

impl Span {
    /// Stop the span now (equivalent to dropping it).
    pub fn stop(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((cells, started)) = self.live.take() {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            cells.record(ns);
        }
    }
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// Point-in-time copy of one histogram's tallies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (ns).
    pub sum_ns: u64,
    /// Smallest recorded value (0 when empty).
    pub min_ns: u64,
    /// Largest recorded value (0 when empty).
    pub max_ns: u64,
    /// Non-empty buckets as `(inclusive_upper_bound_ns, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    /// Mean recorded value in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// JSON form: `{count, sum_ns, mean_ns, min_ns, max_ns, buckets}`.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("count".into(), Value::U64(self.count)),
            ("sum_ns".into(), Value::U64(self.sum_ns)),
            ("mean_ns".into(), Value::F64(self.mean_ns())),
            ("min_ns".into(), Value::U64(self.min_ns)),
            ("max_ns".into(), Value::U64(self.max_ns)),
            (
                "buckets".into(),
                Value::Arr(
                    self.buckets
                        .iter()
                        .map(|&(le, n)| {
                            Value::Obj(vec![
                                ("le_ns".into(), Value::U64(le)),
                                ("count".into(), Value::U64(n)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Point-in-time copy of every metric a recorder has registered.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counter name → value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram name → tallies, sorted by name.
    pub histograms: Vec<(String, HistSnapshot)>,
}

impl Snapshot {
    /// JSON form: `{"counters": {...}, "stages": {...}}`.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            (
                "counters".into(),
                Value::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::U64(*v)))
                        .collect(),
                ),
            ),
            (
                "stages".into(),
                Value::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

// ---------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------

struct Inner {
    gate: Arc<AtomicBool>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistCells>>>,
    sink: Mutex<Option<Box<dyn Write + Send>>>,
}

/// The observability registry: hands out [`Counter`] / [`Histogram`]
/// handles, owns the optional JSONL event sink, and exports
/// [`Snapshot`]s. Cloning shares the same underlying state.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Recorder {
    /// A recorder with the gate initially `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            inner: Arc::new(Inner {
                gate: Arc::new(AtomicBool::new(enabled)),
                counters: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                sink: Mutex::new(None),
            }),
        }
    }

    /// A no-op recorder: handles work but record nothing.
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// Build a recorder from `WLAN_OBS` / `WLAN_OBS_JSONL`. Garbage
    /// `WLAN_OBS` values disable recording with a stderr warning; an
    /// unopenable sink path warns and proceeds without a sink.
    pub fn from_env() -> Self {
        let raw = std::env::var(OBS_ENV).ok();
        let enabled = match parse_obs_env(raw.as_deref()) {
            Ok(enabled) => enabled,
            Err(bad) => {
                eprintln!(
                    "warning: unrecognised {OBS_ENV}={bad:?}; observability disabled \
                     (use 0/off/false or 1/on/true)"
                );
                false
            }
        };
        let rec = Self::new(enabled);
        if let Ok(path) = std::env::var(JSONL_ENV) {
            if !path.is_empty() {
                match std::fs::OpenOptions::new().create(true).append(true).open(&path) {
                    Ok(file) => rec.set_sink(Box::new(file)),
                    Err(e) => {
                        eprintln!("warning: cannot open {JSONL_ENV}={path:?}: {e}; events disabled");
                    }
                }
            }
        }
        rec
    }

    /// Whether recording is currently enabled.
    fn is_enabled(&self) -> bool {
        self.inner.gate.load(Ordering::Relaxed)
    }

    /// Flip the gate at runtime. Existing handles observe the change on
    /// their next operation. Toggling never touches recorded tallies
    /// and — like every API here — cannot affect simulation results.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.gate.store(enabled, Ordering::Relaxed);
    }

    /// Resolve (registering on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = locked(&self.inner.counters);
        let cell = match map.get(name) {
            Some(cell) => Arc::clone(cell),
            None => {
                let cell = Arc::new(AtomicU64::new(0));
                map.insert(name.to_owned(), Arc::clone(&cell));
                cell
            }
        };
        Counter {
            gate: Arc::clone(&self.inner.gate),
            cell,
        }
    }

    /// Resolve (registering on first use) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = locked(&self.inner.histograms);
        let cells = match map.get(name) {
            Some(cells) => Arc::clone(cells),
            None => {
                let cells = Arc::new(HistCells::new());
                map.insert(name.to_owned(), Arc::clone(&cells));
                cells
            }
        };
        Histogram {
            gate: Arc::clone(&self.inner.gate),
            cells,
        }
    }

    /// Install a JSONL event sink (one JSON object per line).
    fn set_sink(&self, sink: Box<dyn Write + Send>) {
        *locked(&self.inner.sink) = Some(sink);
    }

    /// Emit one structured event line `{"event": name, ...fields}` to
    /// the sink. A no-op without a sink or while disabled; write errors
    /// are swallowed (observability must never fail the run).
    pub fn event(&self, name: &str, fields: &[(&str, Value)]) {
        if !self.is_enabled() {
            return;
        }
        let mut guard = locked(&self.inner.sink);
        let Some(sink) = guard.as_mut() else {
            return;
        };
        let mut pairs = Vec::with_capacity(fields.len() + 1);
        pairs.push(("event".to_owned(), Value::Str(name.to_owned())));
        for (k, v) in fields {
            pairs.push(((*k).to_owned(), v.clone()));
        }
        let mut line = Value::Obj(pairs).to_json();
        line.push('\n');
        let _ = sink.write_all(line.as_bytes());
        let _ = sink.flush();
    }

    /// Snapshot every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let counters = locked(&self.inner.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = locked(&self.inner.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }
}

/// Parse a `WLAN_OBS` value. `None` (unset) enables; recognised
/// off/on spellings map accordingly; anything else is `Err(raw)` and
/// callers must treat it as *disabled* after warning (the conservative
/// fallback: a typo never silently pays observability costs).
fn parse_obs_env(raw: Option<&str>) -> Result<bool, &str> {
    let Some(raw) = raw else {
        return Ok(true);
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "" => Ok(true),
        "0" | "off" | "false" | "no" => Ok(false),
        "1" | "on" | "true" | "yes" => Ok(true),
        _ => Err(raw),
    }
}

/// The process-global recorder, lazily built from the environment on
/// first use. Instrumented code resolves handles from here.
pub fn global() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(Recorder::from_env)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count_and_gate() {
        let rec = Recorder::new(true);
        let c = rec.counter("x");
        c.inc();
        c.add(41);
        assert_eq!(c.value(), 42);
        assert_eq!(rec.counter("x").value(), 42, "same name, same cell");

        rec.set_enabled(false);
        c.add(1000);
        assert_eq!(c.value(), 42, "disabled adds are dropped");
        rec.set_enabled(true);
        c.inc();
        assert_eq!(c.value(), 43);
    }

    #[test]
    fn histogram_tallies_and_buckets() {
        let rec = Recorder::new(true);
        let h = rec.histogram("t");
        for ns in [0u64, 1, 1, 7, 1024] {
            h.cells.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum_ns, 1033);
        assert_eq!(s.min_ns, 0);
        assert_eq!(s.max_ns, 1024);
        assert!((s.mean_ns() - 206.6).abs() < 1e-9);
        // 0 → bucket 0 (le 0); 1,1 → bucket 1 (le 1); 7 → bucket 3
        // (le 7); 1024 → bucket 11 (le 2047).
        assert_eq!(s.buckets, vec![(0, 1), (1, 2), (7, 1), (2047, 1)]);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let rec = Recorder::new(true);
        let s = rec.histogram("empty").snapshot();
        assert_eq!((s.count, s.sum_ns, s.min_ns, s.max_ns), (0, 0, 0, 0));
        assert_eq!(s.mean_ns(), 0.0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn bucket_bounds_are_monotone_and_cover_u64() {
        let mut prev = 0u64;
        for i in 1..HIST_BUCKETS {
            let b = bucket_upper_ns(i);
            assert!(b > prev, "bucket {i} bound must grow");
            prev = b;
        }
        assert_eq!(bucket_upper_ns(HIST_BUCKETS - 1), u64::MAX);
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        // Every value lands in a bucket whose bound contains it.
        for v in [0u64, 1, 2, 3, 1000, 1 << 20, u64::MAX] {
            assert!(v <= bucket_upper_ns(bucket_index(v)));
        }
    }

    /// Satellite pin: counter/histogram merges across threads are
    /// order-independent — N threads recording a fixed multiset produce
    /// the same snapshot as one thread recording it serially, over
    /// several shuffled interleavings.
    #[test]
    fn cross_thread_merge_is_order_independent() {
        let values: Vec<u64> = (0..400).map(|i| (i * 37) % 2048).collect();

        let serial = Recorder::new(true);
        let h = serial.histogram("t");
        let c = serial.counter("n");
        for &v in &values {
            h.cells.record(v);
            c.add(v);
        }
        let expect = serial.snapshot();

        for rotation in [0usize, 13, 101, 399] {
            let rec = Recorder::new(true);
            let chunks: Vec<Vec<u64>> = (0..4)
                .map(|t| {
                    values
                        .iter()
                        .cycle()
                        .skip(rotation)
                        .take(values.len())
                        .enumerate()
                        .filter(|(i, _)| i % 4 == t)
                        .map(|(_, &v)| v)
                        .collect()
                })
                .collect();
            std::thread::scope(|scope| {
                for chunk in &chunks {
                    let h = rec.histogram("t");
                    let c = rec.counter("n");
                    scope.spawn(move || {
                        for &v in chunk {
                            h.cells.record(v);
                            c.add(v);
                        }
                    });
                }
            });
            assert_eq!(
                rec.snapshot(),
                expect,
                "rotation {rotation}: concurrent merge must equal serial tallies"
            );
        }
    }

    /// Satellite pin: span handling never panics however spans are
    /// dropped — out of nesting order, leaked, or stopped twice over
    /// the same histogram.
    #[test]
    fn unbalanced_span_drops_never_panic() {
        let rec = Recorder::new(true);
        let h = rec.histogram("spans");

        let outer = h.start();
        let inner = h.start();
        drop(outer); // dropped before the "nested" inner span
        inner.stop();

        let leaked = h.start();
        std::mem::forget(leaked); // leaked spans simply never record

        let crossing = h.start();
        std::thread::scope(|scope| {
            scope.spawn(move || drop(crossing)); // dropped on another thread
        });

        let gated = {
            let s = h.start();
            rec.set_enabled(false);
            s
        };
        drop(gated); // gate flipped mid-span: records (started enabled)
        rec.set_enabled(true);

        let snap = h.snapshot();
        assert_eq!(snap.count, 4, "all non-leaked spans recorded");
    }

    /// Satellite pin: `WLAN_OBS` garbage falls back to *off* (and the
    /// caller warns), mirroring `Timer::from_env` clamping. Pure-parse
    /// cases only — the env var itself is process-global, so `from_env`
    /// behaviour is exercised through the documented parse function.
    #[test]
    fn obs_env_parsing_accepts_documented_values_and_rejects_garbage() {
        assert_eq!(parse_obs_env(None), Ok(true), "unset means on");
        for on in ["1", "on", "ON", "true", "yes", " 1 ", ""] {
            assert_eq!(parse_obs_env(Some(on)), Ok(true), "{on:?}");
        }
        for off in ["0", "off", "OFF", "false", "no", " 0\t"] {
            assert_eq!(parse_obs_env(Some(off)), Ok(false), "{off:?}");
        }
        for garbage in ["2", "-1", "enable", "0ff", "tru", "🦀"] {
            assert_eq!(
                parse_obs_env(Some(garbage)),
                Err(garbage),
                "garbage {garbage:?} must be rejected so callers warn and disable"
            );
        }
    }

    #[test]
    fn disabled_recorder_is_inert_but_cheap_handles_still_resolve() {
        let rec = Recorder::disabled();
        let c = rec.counter("c");
        let h = rec.histogram("h");
        c.add(5);
        h.start().stop();
        assert_eq!(c.value(), 0);
        assert_eq!(h.snapshot().count, 0);
        assert!(!rec.is_enabled());
    }

    #[test]
    fn events_write_jsonl_lines() {
        let rec = Recorder::new(true);
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));

        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                locked(&self.0).extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        rec.set_sink(Box::new(SharedBuf(Arc::clone(&buf))));
        rec.event("wave", &[("trials", Value::U64(32)), ("point", Value::F64(2.5))]);
        rec.set_enabled(false);
        rec.event("dropped", &[]);
        rec.set_enabled(true);
        rec.event("done", &[]);

        let text = String::from_utf8(locked(&buf).clone()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "disabled events are dropped");
        let first = Value::parse(lines[0]).expect("line parses");
        assert_eq!(first.get("event").and_then(Value::as_str), Some("wave"));
        assert_eq!(first.get("trials").and_then(Value::as_u64), Some(32));
        let second = Value::parse(lines[1]).expect("line parses");
        assert_eq!(second.get("event").and_then(Value::as_str), Some("done"));
    }

    #[test]
    fn snapshot_to_value_has_counters_and_stages() {
        let rec = Recorder::new(true);
        rec.counter("a.b").add(7);
        rec.histogram("c.d").cells.record(9);
        let v = rec.snapshot().to_value();
        assert_eq!(
            v.get("counters").and_then(|c| c.get("a.b")).and_then(Value::as_u64),
            Some(7)
        );
        let stage = v.get("stages").and_then(|s| s.get("c.d")).expect("stage");
        assert_eq!(stage.get("count").and_then(Value::as_u64), Some(1));
        assert_eq!(stage.get("sum_ns").and_then(Value::as_u64), Some(9));
    }
}
