//! Validates machine-readable bench emission, for ci.sh.
//!
//! Two modes:
//!
//! * `check_bench_json [--floor EXP=FRAMES_PER_S]... FILE...` — each
//!   file must parse as JSON and pass the `BENCH_<EXP>.json` schema
//!   (`wlan_bench::emit::REQUIRED_KEYS`). A file whose experiment has a
//!   floor must also report `frames_per_s` at or above it, and every
//!   floor must match one of the files (`wlan_bench::emit::Floor`).
//! * `check_bench_json --jsonl FILE...` — each file is a `wlan-obs`
//!   event stream: every non-empty line must parse as a JSON object
//!   carrying a non-empty string `"event"` key, and lines whose event
//!   name the coordinator schema governs
//!   (`wlan_obs::events::required_fields`) must carry every declared
//!   field.
//!
//! Prints one line per file and exits non-zero on the first kind of
//! violation found anywhere, so a CI step is just
//! `cargo run --example check_bench_json -- BENCH_E04.json ...`.

use std::process::ExitCode;

use wlan_bench::emit::{jsonl_violations, schema_violations, Floor};
use wlan_obs::json::Value;

/// Checks one bench file, and its floor if `floors` has one for its
/// experiment; a matched floor is removed from `floors`.
fn check_bench_file(path: &str, floors: &mut Vec<Floor>) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let errs = schema_violations(&doc);
    if !errs.is_empty() {
        return Err(errs.join("; "));
    }
    let experiment = doc
        .get("experiment")
        .and_then(Value::as_str)
        .unwrap_or("?")
        .to_string();
    let counters = match doc.get("counters") {
        Some(Value::Obj(entries)) => entries.len(),
        _ => 0,
    };
    let mut msg = format!("{experiment}: schema ok, {counters} counters");
    if let Some(i) = floors.iter().position(|f| f.experiment == experiment) {
        msg = format!("{msg}; {}", floors.remove(i).check(&doc)?);
    }
    Ok(msg)
}

fn check_jsonl_file(path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let mut events = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Value::parse(line)
            .map_err(|e| format!("line {}: invalid JSON: {e}", i + 1))?;
        let errs = jsonl_violations(&doc);
        if !errs.is_empty() {
            return Err(format!("line {}: {}", i + 1, errs.join("; ")));
        }
        events += 1;
    }
    if events == 0 {
        return Err("no events in stream".into());
    }
    Ok(format!("{events} events, all well-formed"))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let jsonl = args.first().is_some_and(|a| a == "--jsonl");
    if jsonl {
        args.remove(0);
    }
    let mut floors = Vec::new();
    while !jsonl && args.first().is_some_and(|a| a == "--floor") {
        let floor = args
            .get(1)
            .ok_or_else(|| "--floor needs EXP=FRAMES_PER_S".to_owned())
            .and_then(|a| Floor::parse(a));
        match floor {
            Ok(f) => floors.push(f),
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
        args.drain(..2);
    }
    if args.is_empty() {
        eprintln!("usage: check_bench_json [--jsonl | --floor EXP=FRAMES_PER_S...] FILE...");
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for path in &args {
        let result = if jsonl {
            check_jsonl_file(path)
        } else {
            check_bench_file(path, &mut floors)
        };
        match result {
            Ok(msg) => println!("ok   {path}: {msg}"),
            Err(msg) => {
                eprintln!("FAIL {path}: {msg}");
                failed = true;
            }
        }
    }
    for f in &floors {
        eprintln!("FAIL floor {}: no file reports that experiment", f.experiment);
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
