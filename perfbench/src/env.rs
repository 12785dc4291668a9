//! The hermetic environment each workload process runs under.
//!
//! The program reads several `WLAN_*` knobs at run time, and a stray one
//! silently changes the workload: `PerCampaignConfig::new` reads
//! `Budget::from_env()`, so `WLAN_MAX_TRIALS` shrinks every campaign, and
//! `WLAN_OBS_JSONL` adds file writes to every event. Workload processes
//! therefore get every `WLAN_*` variable removed, then exactly the thread
//! count and observability switch the benchmark chooses.

/// Knobs that must never reach a workload process.
pub const FORBIDDEN: [&str; 5] = [
    "WLAN_BUDGET_MS",
    "WLAN_MAX_TRIALS",
    "WLAN_OBS_JSONL",
    "WLAN_BENCH_JSON_DIR",
    "WLAN_DIST_",
];

/// The environment for a workload process: the parent's variables minus
/// every `WLAN_*` knob, plus `WLAN_THREADS` and `WLAN_OBS`.
pub fn workload_env(
    parent: impl IntoIterator<Item = (String, String)>,
    threads: usize,
    obs: &str,
) -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = parent
        .into_iter()
        .filter(|(k, _)| !k.starts_with("WLAN_"))
        .collect();
    vars.push(("WLAN_THREADS".to_owned(), threads.to_string()));
    vars.push(("WLAN_OBS".to_owned(), obs.to_owned()));
    vars
}

/// Checked by every workload process at start: the knobs are gone and
/// the thread count and observability switch are set.
pub fn check_workload_env(vars: impl IntoIterator<Item = (String, String)>) -> Result<(), String> {
    let mut threads = false;
    let mut obs = false;
    for (k, _) in vars {
        if FORBIDDEN.iter().any(|f| k.starts_with(f)) {
            return Err(format!("{k} is set in the workload environment"));
        }
        threads |= k == "WLAN_THREADS";
        obs |= k == "WLAN_OBS";
    }
    if threads && obs {
        Ok(())
    } else {
        Err("WLAN_THREADS and WLAN_OBS must be set for a workload".to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn polluted() -> Vec<(String, String)> {
        [
            ("PATH", "/bin"),
            ("WLAN_MAX_TRIALS", "64"),
            ("WLAN_BUDGET_MS", "5"),
            ("WLAN_OBS_JSONL", "events.jsonl"),
            ("WLAN_BENCH_JSON_DIR", "out"),
            ("WLAN_DIST_ADDR", "127.0.0.1:9"),
            ("WLAN_DIST_HEARTBEAT_MS", "1"),
            ("WLAN_THREADS", "7"),
            ("WLAN_OBS", "garbage"),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
    }

    #[test]
    fn the_scrub_clears_every_knob_and_sets_threads_and_obs() {
        let env = workload_env(polluted(), 1, "0");
        for f in FORBIDDEN {
            assert!(!env.iter().any(|(k, _)| k.starts_with(f)), "{f} survived");
        }
        let get = |key: &str| -> Vec<&str> {
            env.iter()
                .filter(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
                .collect()
        };
        assert_eq!(get("WLAN_THREADS"), ["1"]);
        assert_eq!(get("WLAN_OBS"), ["0"]);
        assert_eq!(get("PATH"), ["/bin"]);
        assert_eq!(check_workload_env(env), Ok(()));
    }

    #[test]
    fn a_workload_refuses_an_unscrubbed_environment() {
        assert!(check_workload_env(polluted()).is_err());
        let bare: Vec<(String, String)> = vec![("PATH".into(), "/bin".into())];
        assert!(check_workload_env(bare).is_err());
    }

    /// The scrub holds for a real process: a child started the way the
    /// benchmark starts workloads sees none of the knobs.
    #[test]
    fn a_spawned_process_sees_the_scrubbed_environment() {
        let out = std::process::Command::new("env")
            .env_clear()
            .envs(workload_env(polluted(), 1, "1"))
            .output()
            .expect("run env");
        let text = String::from_utf8(out.stdout).expect("utf8");
        let vars = text
            .lines()
            .filter_map(|l| l.split_once('=').map(|(k, v)| (k.to_owned(), v.to_owned())));
        assert_eq!(check_workload_env(vars), Ok(()));
        assert!(text.contains("WLAN_THREADS=1") && !text.contains("WLAN_MAX_TRIALS"));
    }
}
