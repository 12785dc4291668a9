//! The benchmark's vocabulary: workload names, end-to-end metrics, and
//! per-layer metrics with the end-to-end metric and workload each one is
//! expected to move. `BENCHMARK.json` at the repository root must list the
//! same names and units; the self-tests pin the two together.

/// The four closed-loop workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["phy_waterfall", "phy_faulted", "city_metro", "dist_fleet"];

/// End-to-end metrics: every untraced run reports all of them.
pub const END_TO_END: [(&str, &str); 3] = [
    ("frames_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// One per-layer metric of the traced run.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `(end-to-end metric, workload)` pairs this layer metric should move.
    pub moves: &'static [(&'static str, &'static str)],
}

const fn m(
    name: &'static str,
    unit: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> LayerMetric {
    LayerMetric { name, unit, moves }
}

const FPS_WF: (&str, &str) = ("frames_per_s", "phy_waterfall");
const FPS_FT: (&str, &str) = ("frames_per_s", "phy_faulted");
const FPS_CITY: (&str, &str) = ("frames_per_s", "city_metro");
const FPS_DIST: (&str, &str) = ("frames_per_s", "dist_fleet");
const SETUP_CITY: (&str, &str) = ("setup_s", "city_metro");
const SETUP_DIST: (&str, &str) = ("setup_s", "dist_fleet");

/// The PHY generations the per-frame timings are split by.
pub const GENERATIONS: [&str; 6] = ["dsss", "ofdm", "mimo", "fhss", "ht_ldpc", "stbc"];

/// Every per-layer metric, grouped by crate. Ratios are followed by the
/// base they are taken against.
pub const LAYER: &[LayerMetric] = &[
    // runner
    m("runner.overhead_frac", "frac", &[FPS_FT, FPS_WF]),
    m("runner.campaign_ms", "ms", &[FPS_FT]),
    m("runner.waves", "count", &[FPS_FT, FPS_WF]),
    m("runner.trials", "count", &[FPS_FT, FPS_WF]),
    // core: per-frame frame_trial_at time per information bit
    m("core.ns_per_bit.dsss", "ns/bit", &[FPS_WF, FPS_FT]),
    m("core.ns_per_bit.ofdm", "ns/bit", &[FPS_WF, FPS_FT]),
    m("core.ns_per_bit.mimo", "ns/bit", &[FPS_WF, FPS_FT]),
    m("core.ns_per_bit.fhss", "ns/bit", &[FPS_FT]),
    m("core.ns_per_bit.ht_ldpc", "ns/bit", &[FPS_FT]),
    m("core.ns_per_bit.stbc", "ns/bit", &[FPS_FT]),
    m("core.ns_per_bit_p99.dsss", "ns/bit", &[FPS_WF, FPS_FT]),
    m("core.ns_per_bit_p99.ofdm", "ns/bit", &[FPS_WF, FPS_FT]),
    m("core.ns_per_bit_p99.mimo", "ns/bit", &[FPS_WF, FPS_FT]),
    m("core.ns_per_bit_p99.fhss", "ns/bit", &[FPS_FT]),
    m("core.ns_per_bit_p99.ht_ldpc", "ns/bit", &[FPS_FT]),
    m("core.ns_per_bit_p99.stbc", "ns/bit", &[FPS_FT]),
    m("core.samples.dsss", "count", &[FPS_WF, FPS_FT]),
    m("core.samples.ofdm", "count", &[FPS_WF, FPS_FT]),
    m("core.samples.mimo", "count", &[FPS_WF, FPS_FT]),
    m("core.samples.fhss", "count", &[FPS_FT]),
    m("core.samples.ht_ldpc", "count", &[FPS_FT]),
    m("core.samples.stbc", "count", &[FPS_FT]),
    m("core.tx_share", "frac", &[FPS_WF, FPS_FT]),
    m("core.channel_share", "frac", &[FPS_WF, FPS_FT]),
    m("core.rx_share", "frac", &[FPS_WF, FPS_FT]),
    m("core.stage_ms", "ms", &[FPS_WF, FPS_FT]),
    m("core.erasure_frac", "frac", &[FPS_FT]),
    m("core.frames", "count", &[FPS_WF, FPS_FT]),
    // flow vs oracle on the city calibration grid
    m("flow.sweep_fps.t1", "1/s", &[SETUP_CITY]),
    m("flow.sweep_fps.t2", "1/s", &[SETUP_CITY]),
    m("core.oracle_sweep_fps.t1", "1/s", &[SETUP_CITY]),
    m("core.oracle_sweep_fps.t2", "1/s", &[SETUP_CITY]),
    // coding
    m("coding.viterbi.ns_per_bit", "ns/bit", &[FPS_WF, SETUP_CITY]),
    m("coding.encode.ns_per_bit", "ns/bit", &[FPS_WF, SETUP_CITY]),
    m("coding.ldpc.ns_per_bit.converging", "ns/bit", &[FPS_FT]),
    m("coding.ldpc.ns_per_bit.failing", "ns/bit", &[FPS_FT]),
    m("coding.ldpc.iters_failing", "iters", &[FPS_FT]),
    m("coding.ldpc.converged_frac", "frac", &[FPS_FT]),
    m("coding.ldpc.blocks", "count", &[FPS_FT]),
    // math
    m("math.fft64.ns_per_symbol", "ns", &[FPS_WF, SETUP_CITY]),
    m("math.gaussian.ns_per_draw", "ns", &[FPS_WF, SETUP_CITY]),
    m("math.par.call_us", "us", &[FPS_FT]),
    // mimo
    m("mimo.detect.ns_per_vector", "ns", &[FPS_WF]),
    // channel / fault
    m("channel.awgn.ns_per_sample", "ns", &[FPS_WF]),
    m("fault.chain.ns_per_sample", "ns", &[FPS_FT]),
    // city
    m("city.calibrate_s", "s", &[SETUP_CITY]),
    m("city.build_ms", "ms", &[FPS_CITY]),
    m("city.epoch_ms", "ms", &[FPS_CITY]),
    m("city.journal_write_ms", "ms", &[FPS_CITY]),
    m("city.journal_bytes", "bytes", &[FPS_CITY]),
    m("city.restore_ms", "ms", &[FPS_CITY]),
    m("city.journal_share", "frac", &[FPS_CITY]),
    m("city.campaign_ms", "ms", &[FPS_CITY]),
    // dist
    m("dist.spawn_ms", "ms", &[SETUP_DIST]),
    m("dist.scaling_eff", "frac", &[FPS_DIST]),
    m("dist.inproc_fps", "1/s", &[FPS_DIST]),
    m("dist.leases", "count", &[FPS_DIST]),
    m("dist.redispatches", "count", &[FPS_DIST]),
    m("dist.worker_deaths", "count", &[FPS_DIST]),
    m("dist.tcp_vs_stdio", "frac", &[FPS_DIST]),
    m("dist.stdio_fps", "1/s", &[FPS_DIST]),
    // obs: traced fps against untraced fps, per workload
    m("obs.overhead_frac.phy_waterfall", "frac", &[FPS_WF]),
    m("obs.overhead_frac.phy_faulted", "frac", &[FPS_FT]),
    m("obs.overhead_frac.city_metro", "frac", &[FPS_CITY]),
    m("obs.overhead_frac.dist_fleet", "frac", &[FPS_DIST]),
    m("obs.untraced_fps.phy_waterfall", "1/s", &[FPS_WF]),
    m("obs.untraced_fps.phy_faulted", "1/s", &[FPS_FT]),
    m("obs.untraced_fps.city_metro", "1/s", &[FPS_CITY]),
    m("obs.untraced_fps.dist_fleet", "1/s", &[FPS_DIST]),
];

/// Unit of a metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .or_else(|| LAYER.iter().find(|l| l.name == name).map(|l| l.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use wlan_obs::json::Value;

    /// Whether `name` is a valid metric or workload name: 1..=64 characters
    /// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
    pub fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        Value::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        match doc.get(key) {
            Some(Value::Arr(items)) => items,
            _ => panic!("BENCHMARK.json lacks the {key} list"),
        }
    }

    fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).expect("string field")
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|(n, _)| *n))
            .chain(LAYER.iter().map(|l| l.name));
        for name in all {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        assert!(!valid_name("a b") && !valid_name(".x") && !valid_name(""));
    }

    #[test]
    fn every_layer_metric_names_an_end_to_end_metric_and_workload() {
        for l in LAYER {
            assert!(!l.moves.is_empty(), "{} moves nothing", l.name);
            for (metric, workload) in l.moves {
                assert!(
                    END_TO_END.iter().any(|(n, _)| n == metric),
                    "{} names unknown metric {metric}",
                    l.name
                );
                assert!(
                    WORKLOADS.contains(workload),
                    "{} names unknown workload {workload}",
                    l.name
                );
            }
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalog() {
        let doc = benchmark_json();
        let workloads: Vec<&str> = entries(&doc, "workloads")
            .iter()
            .map(|w| str_field(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<(&str, &str)> = entries(&doc, "end_to_end")
            .iter()
            .map(|e| (str_field(e, "name"), str_field(e, "unit")))
            .collect();
        assert_eq!(e2e, END_TO_END);
        let layer: Vec<(&str, &str)> = entries(&doc, "per_layer")
            .iter()
            .map(|e| (str_field(e, "name"), str_field(e, "unit")))
            .collect();
        let ours: Vec<(&str, &str)> = LAYER.iter().map(|l| (l.name, l.unit)).collect();
        assert_eq!(layer, ours);
    }

    #[test]
    fn per_frame_metrics_cover_every_generation() {
        for g in GENERATIONS {
            for prefix in ["core.ns_per_bit.", "core.ns_per_bit_p99.", "core.samples."] {
                assert!(unit_of(&format!("{prefix}{g}")).is_some(), "{prefix}{g}");
            }
        }
        for w in WORKLOADS {
            assert!(unit_of(&format!("obs.overhead_frac.{w}")).is_some());
            assert!(unit_of(&format!("obs.untraced_fps.{w}")).is_some());
        }
    }
}
