//! Machine-readable bench emission: `BENCH_<EXP>.json`.
//!
//! [`BenchRun`] brackets an experiment's `main`: [`BenchRun::start`]
//! switches the global `wlan-obs` recorder on (a bench exists to be
//! measured; observability never changes simulated results, so forcing
//! it on is safe) and starts a wall clock; [`BenchRun::finish`]
//! snapshots every counter and stage histogram the run recorded and
//! writes one self-describing JSON file next to the working directory
//! (or under [`JSON_DIR_ENV`] if set):
//!
//! ```text
//! {
//!   "experiment": "E04",
//!   "schema": 1,
//!   "threads": 8,
//!   "wall_s": 1.42,
//!   "frames": 36864,
//!   "trials": 36864,
//!   "frames_per_s": 25961.3,
//!   "trials_per_s": 25961.3,
//!   "stages": { "linksim.tx": { "count": ..., "sum_ns": ..., ... } },
//!   "counters": { "linksim.frames": ..., "par.calls": ..., ... }
//! }
//! ```
//!
//! The schema is validated by the `check_bench_json` example, which
//! ci.sh runs against a smoke campaign's emission. `frames` and
//! `trials` are passed by the experiment (each knows its own unit of
//! work); rates are derived from the wall clock and are the only
//! machine-dependent fields — everything under `counters` is
//! deterministic for a fixed configuration.

use std::path::PathBuf;
use std::time::Instant;

use wlan_obs::json::Value;

/// Environment knob: directory receiving `BENCH_<EXP>.json` files
/// (default: the current working directory).
pub const JSON_DIR_ENV: &str = "WLAN_BENCH_JSON_DIR";

/// Version stamped into the `schema` field; bump on breaking changes.
pub const SCHEMA_VERSION: u64 = 1;

/// Keys every `BENCH_<EXP>.json` must carry (checked by
/// `check_bench_json`).
pub const REQUIRED_KEYS: [&str; 10] = [
    "experiment",
    "schema",
    "threads",
    "wall_s",
    "frames",
    "trials",
    "frames_per_s",
    "trials_per_s",
    "stages",
    "counters",
];

/// One timed, instrumented experiment run.
pub struct BenchRun {
    experiment: String,
    started: Instant,
}

impl BenchRun {
    /// Starts the wall clock and enables the global recorder so stage
    /// timers and counters populate even without `WLAN_OBS=1`.
    pub fn start(experiment: &str) -> Self {
        wlan_obs::global().set_enabled(true);
        BenchRun {
            experiment: experiment.to_ascii_uppercase(),
            started: Instant::now(),
        }
    }

    /// Stops the clock, snapshots the recorder, and writes
    /// `BENCH_<EXP>.json`. Returns the path written, or `None` after
    /// printing a warning if the write failed (a bench must still
    /// report its table on a read-only filesystem).
    pub fn finish(self, frames: u64, trials: u64) -> Option<PathBuf> {
        self.finish_with(frames, trials, &[])
    }

    /// [`BenchRun::finish`] plus experiment-specific keys appended to
    /// the document (the schema only *requires* the common keys, so
    /// extras — per-AC rates, fairness indices — validate cleanly).
    pub fn finish_with(self, frames: u64, trials: u64, extra: &[(&str, Value)]) -> Option<PathBuf> {
        let wall_s = self.started.elapsed().as_secs_f64();
        let snap = wlan_obs::global().snapshot();

        // Guard the rate division: a sub-resolution wall clock must not
        // emit inf/NaN (which the JSON layer would null out anyway).
        let rate = |n: u64| {
            if wall_s > 0.0 {
                n as f64 / wall_s
            } else {
                0.0
            }
        };

        let mut fields = vec![
            ("experiment".into(), Value::Str(self.experiment.clone())),
            ("schema".into(), Value::U64(SCHEMA_VERSION)),
            (
                "threads".into(),
                Value::U64(wlan_core::math::par::num_threads() as u64),
            ),
            ("wall_s".into(), Value::F64(wall_s)),
            ("frames".into(), Value::U64(frames)),
            ("trials".into(), Value::U64(trials)),
            ("frames_per_s".into(), Value::F64(rate(frames))),
            ("trials_per_s".into(), Value::F64(rate(trials))),
            (
                "stages".into(),
                Value::Obj(
                    snap.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_value()))
                        .collect(),
                ),
            ),
            (
                "counters".into(),
                Value::Obj(
                    snap.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::U64(*v)))
                        .collect(),
                ),
            ),
        ];
        for (k, v) in extra {
            fields.push(((*k).to_owned(), v.clone()));
        }
        let doc = Value::Obj(fields);

        let dir = std::env::var_os(JSON_DIR_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."));
        let path = dir.join(format!("BENCH_{}.json", self.experiment));
        let mut body = doc.to_json();
        body.push('\n');
        match std::fs::write(&path, body) {
            Ok(()) => {
                println!("\nbench emission: {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("warning: could not write {}: {e}", path.display());
                None
            }
        }
    }
}

/// Validates one parsed `BENCH_<EXP>.json` document against the schema;
/// returns every violation found (empty = valid). Shared by the
/// `check_bench_json` example and the unit tests.
pub fn schema_violations(doc: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    if !doc.is_obj() {
        return vec!["document is not a JSON object".into()];
    }
    for key in REQUIRED_KEYS {
        if doc.get(key).is_none() {
            errs.push(format!("missing required key {key:?}"));
        }
    }
    if let Some(v) = doc.get("experiment") {
        match v.as_str() {
            Some(s) if !s.is_empty() => {}
            _ => errs.push("experiment must be a non-empty string".into()),
        }
    }
    if let Some(v) = doc.get("schema") {
        if v.as_u64() != Some(SCHEMA_VERSION) {
            errs.push(format!("schema must be {SCHEMA_VERSION}"));
        }
    }
    for key in ["threads", "frames", "trials"] {
        if let Some(v) = doc.get(key) {
            if v.as_u64().is_none() {
                errs.push(format!("{key} must be a non-negative integer"));
            }
        }
    }
    for key in ["wall_s", "frames_per_s", "trials_per_s"] {
        if let Some(v) = doc.get(key) {
            match v.as_f64() {
                Some(x) if x.is_finite() && x >= 0.0 => {}
                _ => errs.push(format!("{key} must be a finite non-negative number")),
            }
        }
    }
    for key in ["stages", "counters"] {
        if let Some(v) = doc.get(key) {
            if !v.is_obj() {
                errs.push(format!("{key} must be an object"));
            }
        }
    }
    if let Some(Value::Obj(stages)) = doc.get("stages") {
        for (name, h) in stages {
            for field in ["count", "sum_ns", "mean_ns", "min_ns", "max_ns", "buckets"] {
                if h.get(field).is_none() {
                    errs.push(format!("stage {name:?} missing {field:?}"));
                }
            }
        }
    }
    errs
}

/// A throughput floor for one experiment: the `--floor EXP=FRAMES_PER_S`
/// argument of `check_bench_json`.
#[derive(Debug)]
pub struct Floor {
    /// Experiment name as stamped in the document (`"E04"`).
    pub experiment: String,
    /// Lowest acceptable `frames_per_s`.
    pub frames_per_s: f64,
}

impl Floor {
    /// Parses `EXP=FRAMES_PER_S` (a non-empty name, a finite
    /// non-negative rate).
    ///
    /// # Errors
    ///
    /// A message naming the malformed argument.
    pub fn parse(arg: &str) -> Result<Floor, String> {
        let bad = || format!("floor {arg:?} is not EXP=FRAMES_PER_S");
        let (experiment, rate) = arg.split_once('=').ok_or_else(bad)?;
        let frames_per_s: f64 = rate.parse().map_err(|_| bad())?;
        if experiment.is_empty() || !(frames_per_s.is_finite() && frames_per_s >= 0.0) {
            return Err(bad());
        }
        Ok(Floor {
            experiment: experiment.to_owned(),
            frames_per_s,
        })
    }

    /// Checks a schema-valid document against the floor: `Ok` carries
    /// the guard line to print, `Err` the regression.
    ///
    /// # Errors
    ///
    /// The document's `frames_per_s` is missing or below the floor.
    pub fn check(&self, doc: &Value) -> Result<String, String> {
        let name = &self.experiment;
        let floor = self.frames_per_s;
        match doc.get("frames_per_s").and_then(Value::as_f64) {
            Some(fresh) if fresh >= floor => Ok(format!(
                "bench guard: {name} frames/s {fresh:.1} >= seed floor {floor:.1} ({:.2}x)",
                fresh / floor
            )),
            fresh => Err(format!(
                "bench regression: {name} frames/s {} below seed floor {floor:.1}",
                fresh.map_or("missing".to_owned(), |v| format!("{v:.1}"))
            )),
        }
    }
}

/// Validates one parsed `wlan-obs` JSONL event line; returns every
/// violation found (empty = valid). The event schema is open — any
/// object carrying a non-empty string `"event"` passes — except for the
/// event names the distributed coordinator emits
/// ([`wlan_obs::events::ALL`]), which must carry their declared
/// required fields ([`wlan_obs::events::required_fields`]): a fleet
/// post-mortem that cannot tell *which* lease timed out on *which*
/// worker is no post-mortem at all.
pub fn jsonl_violations(doc: &Value) -> Vec<String> {
    if !doc.is_obj() {
        return vec!["event line is not a JSON object".into()];
    }
    let name = match doc.get("event").and_then(Value::as_str) {
        Some(s) if !s.is_empty() => s.to_owned(),
        _ => return vec!["missing or empty \"event\" key".into()],
    };
    let mut errs = Vec::new();
    if let Some(required) = wlan_obs::events::required_fields(&name) {
        for field in required {
            if doc.get(field).is_none() {
                errs.push(format!("event {name:?} missing required field {field:?}"));
            }
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_doc() -> Value {
        Value::parse(
            r#"{"experiment":"E99","schema":1,"threads":4,"wall_s":0.5,
                "frames":100,"trials":10,"frames_per_s":200.0,
                "trials_per_s":20.0,"stages":{},"counters":{"x":3}}"#,
        )
        .expect("valid test document")
    }

    #[test]
    fn schema_accepts_a_well_formed_document() {
        assert_eq!(schema_violations(&valid_doc()), Vec::<String>::new());
    }

    #[test]
    fn schema_rejects_missing_and_mistyped_keys() {
        let missing = Value::parse(r#"{"experiment":"E99"}"#).expect("parse");
        let errs = schema_violations(&missing);
        assert!(errs.iter().any(|e| e.contains("\"frames\"")), "{errs:?}");

        let bad =
            Value::parse(r#"{"experiment":"","schema":2,"threads":-1,"wall_s":null,
                "frames":1,"trials":1,"frames_per_s":1.0,"trials_per_s":1.0,
                "stages":[],"counters":{}}"#)
                .expect("parse");
        let errs = schema_violations(&bad);
        assert!(errs.iter().any(|e| e.contains("non-empty string")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("schema must be")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("stages must be an object")), "{errs:?}");
    }

    #[test]
    fn floors_parse_and_gate_frames_per_s() {
        let floor = Floor::parse("E99=150").expect("valid floor");
        assert_eq!(floor.experiment, "E99");
        assert!(floor.check(&valid_doc()).is_ok());
        let high = Floor::parse("E99=200.5").expect("valid floor");
        let err = high.check(&valid_doc()).unwrap_err();
        assert!(err.contains("below seed floor 200.5"), "{err}");
        let missing = Value::parse(r#"{"experiment":"E99"}"#).expect("parse");
        assert!(floor.check(&missing).is_err());
        for bad in ["E99", "=10", "E99=", "E99=x", "E99=-1", "E99=NaN", "E99=inf"] {
            assert!(Floor::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn jsonl_accepts_known_events_with_all_required_fields() {
        let doc = Value::parse(
            r#"{"event":"dist_dispatch","lease":3,"worker":1,"point":0,"attempt":1,"t_ms":12}"#,
        )
        .expect("parse");
        assert_eq!(jsonl_violations(&doc), Vec::<String>::new());
    }

    #[test]
    fn jsonl_accepts_unknown_events_open_schema() {
        let doc = Value::parse(r#"{"event":"campaign_done","whatever":true}"#).expect("parse");
        assert_eq!(jsonl_violations(&doc), Vec::<String>::new());
    }

    #[test]
    fn jsonl_rejects_violation_fixtures() {
        // A coordinator dispatch record that lost its attempt counter:
        // useless for redispatch forensics, so the validator must say so.
        let missing_field =
            Value::parse(r#"{"event":"dist_dispatch","lease":3,"worker":1,"point":0}"#)
                .expect("parse");
        let errs = jsonl_violations(&missing_field);
        assert!(
            errs.iter().any(|e| e.contains("\"attempt\"")),
            "{errs:?}"
        );

        let no_event = Value::parse(r#"{"lease":3}"#).expect("parse");
        assert!(!jsonl_violations(&no_event).is_empty());

        let empty_event = Value::parse(r#"{"event":""}"#).expect("parse");
        assert!(!jsonl_violations(&empty_event).is_empty());

        let not_an_object = Value::parse(r#"[1,2,3]"#).expect("parse");
        assert!(!jsonl_violations(&not_an_object).is_empty());

        let quarantined_missing_attempts = Value::parse(
            r#"{"event":"dist_lease_quarantined","lease":9,"point":2}"#,
        )
        .expect("parse");
        let errs = jsonl_violations(&quarantined_missing_attempts);
        assert!(
            errs.iter().any(|e| e.contains("\"attempts\"")),
            "{errs:?}"
        );
    }

    #[test]
    fn jsonl_validates_service_and_connection_events() {
        // Well-formed serve_*/conn_* lines pass.
        for line in [
            r#"{"event":"serve_start","addr":"127.0.0.1:7690"}"#,
            r#"{"event":"serve_campaign_start","q":0,"link":"ofdm:12","fault":"clean"}"#,
            r#"{"event":"serve_campaign_done","q":0,"complete":true,"trials":4096}"#,
            r#"{"event":"serve_shutdown","campaigns":2,"requested":true}"#,
            r#"{"event":"conn_accept","conn":0,"role":"worker"}"#,
            r#"{"event":"conn_reject","reason":"incompatible peer"}"#,
            r#"{"event":"conn_close","conn":0}"#,
        ] {
            let doc = Value::parse(line).expect("parse");
            assert_eq!(jsonl_violations(&doc), Vec::<String>::new(), "{line}");
        }

        // Violation fixtures: each drops one field the post-mortem needs.
        let serve_start_missing_addr =
            Value::parse(r#"{"event":"serve_start"}"#).expect("parse");
        let errs = jsonl_violations(&serve_start_missing_addr);
        assert!(errs.iter().any(|e| e.contains("\"addr\"")), "{errs:?}");

        let campaign_done_missing_q = Value::parse(
            r#"{"event":"serve_campaign_done","complete":true,"trials":9}"#,
        )
        .expect("parse");
        let errs = jsonl_violations(&campaign_done_missing_q);
        assert!(errs.iter().any(|e| e.contains("\"q\"")), "{errs:?}");

        let accept_missing_role =
            Value::parse(r#"{"event":"conn_accept","conn":4}"#).expect("parse");
        let errs = jsonl_violations(&accept_missing_role);
        assert!(errs.iter().any(|e| e.contains("\"role\"")), "{errs:?}");

        let reject_missing_reason = Value::parse(r#"{"event":"conn_reject"}"#).expect("parse");
        let errs = jsonl_violations(&reject_missing_reason);
        assert!(errs.iter().any(|e| e.contains("\"reason\"")), "{errs:?}");

        let shutdown_missing_requested =
            Value::parse(r#"{"event":"serve_shutdown","campaigns":1}"#).expect("parse");
        let errs = jsonl_violations(&shutdown_missing_requested);
        assert!(errs.iter().any(|e| e.contains("\"requested\"")), "{errs:?}");
    }

    #[test]
    fn emitted_file_round_trips_through_the_validator() {
        let dir = std::env::temp_dir().join(format!("wlan_bench_emit_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        std::env::set_var(JSON_DIR_ENV, &dir);
        let run = BenchRun::start("e99");
        let path = run.finish(120, 12).expect("emission must succeed");
        std::env::remove_var(JSON_DIR_ENV);

        let text = std::fs::read_to_string(&path).expect("read back");
        let doc = Value::parse(&text).expect("parse back");
        assert_eq!(schema_violations(&doc), Vec::<String>::new());
        assert_eq!(doc.get("experiment").and_then(Value::as_str), Some("E99"));
        assert_eq!(doc.get("frames").and_then(Value::as_u64), Some(120));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn extra_keys_are_emitted_and_still_validate() {
        let dir = std::env::temp_dir().join(format!("wlan_bench_extra_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        std::env::set_var(JSON_DIR_ENV, &dir);
        let run = BenchRun::start("e98");
        let path = run
            .finish_with(
                10,
                10,
                &[
                    ("jain_fairness", Value::F64(0.93)),
                    ("handoffs", Value::U64(4)),
                ],
            )
            .expect("emission must succeed");
        std::env::remove_var(JSON_DIR_ENV);

        let text = std::fs::read_to_string(&path).expect("read back");
        let doc = Value::parse(&text).expect("parse back");
        assert_eq!(schema_violations(&doc), Vec::<String>::new());
        assert_eq!(doc.get("jain_fairness").and_then(Value::as_f64), Some(0.93));
        assert_eq!(doc.get("handoffs").and_then(Value::as_u64), Some(4));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
