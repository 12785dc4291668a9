//! End-to-end and per-layer benchmark for the wlan-evolve workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each invocation starts its workload in a
//! child process of its own (this executable again) with an explicit
//! environment: `WLAN_THREADS=1`, `WLAN_OBS` set, every other `WLAN_*`
//! knob removed, and a fresh temporary directory under `.perfbench_tmp/`
//! that is deleted afterwards; single-threaded timed work rotates over the
//! allowed cores (see `cores`). The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with every end-to-end
//! metric (`--trace 0`) or every per-layer metric (`--trace 1`). The span
//! trace of a traced run goes to stderr at exit. Exit status is 0 only
//! when every golden check passed.

mod catalog;
mod cores;
mod env;
mod golden;
mod layers;
mod trace;
mod workloads;

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use wlan_obs::json::Value;

use catalog::{END_TO_END, LAYER, WORKLOADS};

/// Fresh processes whose set-up is timed for each PHY run: PHY set-up is
/// dominated by first-use costs (lazy tables, plan caches, page faults)
/// that only a new process pays.
const PHY_SETUP_PROBES: usize = 12;
/// Hard limit on one invocation, children included.
const RUN_LIMIT: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// `Some(mode)` in a child process: `run`, `setup` or `trace`.
    child: Option<String>,
    tmp: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        child: None,
        tmp: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            "--child" => args.child = Some(value.clone()),
            "--tmp" => args.tmp = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--worker") {
        wlan_dist::serve(std::io::stdin().lock(), std::io::stdout().lock());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.child.as_deref() {
        None => parent(&args),
        Some(mode) => child(mode, &args),
    }
}

// ---------------------------------------------------------------------
// Parent: one invocation of the benchmark
// ---------------------------------------------------------------------

fn parent(args: &Args) -> ExitCode {
    let deadline = Instant::now() + RUN_LIMIT;
    let tmp_root = PathBuf::from(".perfbench_tmp");
    let tmp = tmp_root.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let outcome = run_children(args, &tmp, deadline);
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(&tmp_root);

    let (attempted, metrics, errors) = match outcome {
        Ok(o) => o,
        Err(e) => (1, Vec::new(), vec![e]),
    };
    for e in &errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    let failed = errors.len() as u64;
    let correct = failed == 0;
    let metrics = metrics
        .into_iter()
        .map(|(name, value)| {
            let unit = catalog::unit_of(&name).unwrap_or("?");
            (
                name,
                Value::Obj(vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted.max(failed).max(1))),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", result.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Units attempted, metrics, and one error per failed unit.
type Outcome = (u64, Vec<(String, f64)>, Vec<String>);

/// Runs the child processes of one invocation and assembles its metrics.
fn run_children(args: &Args, tmp: &Path, deadline: Instant) -> Result<Outcome, String> {
    if args.trace {
        let out = spawn_child("trace", args, tmp, deadline)?;
        let metrics = metric_list(&out)?;
        let missing: Vec<&str> = LAYER
            .iter()
            .map(|l| l.name)
            .filter(|n| !metrics.iter().any(|(m, v)| m == n && v.is_finite()))
            .collect();
        let mut errors = child_errors(&out);
        if !missing.is_empty() {
            errors.push(format!(
                "per-layer metrics missing or not finite: {missing:?}"
            ));
        }
        return Ok((field_u64(&out, "attempted")?, metrics, errors));
    }

    let mut setup = Vec::new();
    if args.workload.starts_with("phy_") {
        for _ in 0..PHY_SETUP_PROBES {
            let probe = spawn_child("setup", args, tmp, deadline)?;
            setup.extend(f64_list(&probe, "setup_samples")?);
        }
    }
    let out = spawn_child("run", args, tmp, deadline)?;
    setup.extend(f64_list(&out, "setup_samples")?);
    let mut metrics = metric_list(&out)?;
    metrics.push((
        "setup_s".to_owned(),
        trace::median(&setup).ok_or("no set-up samples")?,
    ));
    metrics.sort_by_key(|(name, _)| END_TO_END.iter().position(|(n, _)| n == name));
    Ok((field_u64(&out, "attempted")?, metrics, child_errors(&out)))
}

/// Runs this executable in child `mode` under the scrubbed environment,
/// returning the JSON object its last stdout line holds. The child is
/// killed (and reaped) if it outlives `deadline`.
fn spawn_child(mode: &str, args: &Args, tmp: &Path, deadline: Instant) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate executable: {e}"))?;
    let obs = if args.trace { "1" } else { "0" };
    let mut child = Command::new(exe)
        .args([
            "--child",
            mode,
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--tmp",
        ])
        .arg(tmp)
        .env_clear()
        .envs(env::workload_env(std::env::vars(), 1, obs))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start {mode} child: {e}"))?;
    let mut stdout = child.stdout.take().ok_or("child stdout missing")?;
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("{mode} child exceeded the time limit"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => break Err(format!("waiting for {mode} child: {e}")),
        }
    };
    let text = reader.join().unwrap_or_default();
    let status = status?;
    if !status.success() {
        return Err(format!("{mode} child failed ({status})"));
    }
    let last = text.lines().last().unwrap_or("");
    Value::parse(last).map_err(|e| format!("{mode} child printed no result ({e})"))
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("child result lacks {key}"))
}

fn f64_list(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    match v.get(key) {
        Some(Value::Arr(items)) => items
            .iter()
            .map(|x| x.as_f64().ok_or_else(|| format!("non-number in {key}")))
            .collect(),
        _ => Err(format!("child result lacks {key}")),
    }
}

fn metric_list(v: &Value) -> Result<Vec<(String, f64)>, String> {
    match v.get("metrics") {
        Some(Value::Obj(pairs)) => Ok(pairs
            .iter()
            .map(|(k, x)| (k.clone(), x.as_f64().unwrap_or(f64::NAN)))
            .collect()),
        _ => Err("child result lacks metrics".to_owned()),
    }
}

fn child_errors(v: &Value) -> Vec<String> {
    match v.get("errors") {
        Some(Value::Arr(items)) => items
            .iter()
            .filter_map(|e| e.as_str().map(str::to_owned))
            .collect(),
        _ => Vec::new(),
    }
}

// ---------------------------------------------------------------------
// Child: one workload process
// ---------------------------------------------------------------------

fn child(mode: &str, args: &Args) -> ExitCode {
    if let Err(e) = env::check_workload_env(std::env::vars()) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let Some(tmp) = args.tmp.as_deref() else {
        eprintln!("perfbench: child needs --tmp");
        return ExitCode::from(2);
    };
    let seconds = args.seconds as f64;
    let (attempted, errors, metrics, setup) = match mode {
        "setup" => {
            let (_, setup_s) = workloads::phy_setup(&args.workload, args.seed);
            (0, Vec::new(), Vec::new(), vec![setup_s])
        }
        "run" => {
            let r = match args.workload.as_str() {
                "city_metro" => workloads::run_city(args.seed, seconds, tmp),
                "dist_fleet" => workloads::run_dist(args.seed, seconds, tmp),
                w => workloads::run_phy(w, args.seed, seconds),
            };
            let metrics = vec![
                ("frames_per_s".to_owned(), r.frames_per_s()),
                ("peak_rss_mb".to_owned(), r.peak_rss_mb),
            ];
            eprintln!(
                "perfbench: {} seed {}: {} checked, {} timed units, set-up samples {:?}",
                args.workload,
                args.seed,
                r.attempted,
                r.units.len(),
                r.setup_samples
            );
            (r.attempted, r.errors, metrics, r.setup_samples)
        }
        "trace" => {
            let mut tracer = trace::Tracer::new();
            let t = layers::run(args.seed, tmp, &mut tracer);
            let _ = tracer.write(&mut std::io::stderr().lock());
            for (name, value) in &t.metrics {
                if let Some(l) = LAYER.iter().find(|l| l.name == name) {
                    eprintln!("{name:<36} {value:>16.4} {:<7} moves {:?}", l.unit, l.moves);
                }
            }
            (t.attempted, t.errors, t.metrics, Vec::new())
        }
        _ => {
            eprintln!("perfbench: unknown child mode {mode}");
            return ExitCode::from(2);
        }
    };
    let result = Value::Obj(vec![
        ("attempted".into(), Value::U64(attempted)),
        (
            "errors".into(),
            Value::Arr(errors.into_iter().map(Value::Str).collect()),
        ),
        (
            "metrics".into(),
            Value::Obj(
                metrics
                    .into_iter()
                    .map(|(k, v)| (k, Value::F64(v)))
                    .collect(),
            ),
        ),
        (
            "setup_samples".into(),
            Value::Arr(setup.into_iter().map(Value::F64).collect()),
        ),
    ]);
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
