//! In-memory spans for the traced run, plus the order statistics every
//! timing is reported with.
//!
//! Spans are recorded only from the benchmark's own files, around calls
//! into each crate: name, start, end and the span that was open when it
//! started. They stay in memory and are written once, at exit.

use std::time::Instant;

use wlan_core::math::stats::percentile;
use wlan_obs::json::Value;

struct SpanRec {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A single-threaded span recorder. Spans nest strictly: a span closes
/// before its parent does.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, returning its result.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Duration of the most recent span called `name`, in seconds.
    pub fn last_s(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
    }

    /// Self time of each span: its duration minus the time its direct
    /// children cover (children never overlap: one thread records).
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
            .collect()
    }

    /// Writes every span as one JSON line, then a self-time total per
    /// span name, to `out`.
    pub fn write(&self, out: &mut dyn std::io::Write) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        for (i, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let line = Value::Obj(vec![
                ("span".into(), Value::U64(i as u64)),
                ("name".into(), Value::Str(s.name.clone())),
                ("start_ns".into(), Value::U64(s.start_ns)),
                ("end_ns".into(), Value::U64(s.end_ns)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                ),
                ("self_ns".into(), Value::U64(*own)),
            ]);
            writeln!(out, "{}", line.to_json())?;
        }
        let mut totals: Vec<(&str, u64, u64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(&self_ns) {
            match totals.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(t) => {
                    t.1 += own;
                    t.2 += 1;
                }
                None => totals.push((&s.name, *own, 1)),
            }
        }
        writeln!(out, "{:<36} {:>12} {:>7}", "span", "self_ms", "count")?;
        for (name, own, count) in totals {
            writeln!(out, "{name:<36} {:>12.3} {count:>7}", own as f64 * 1e-6)?;
        }
        Ok(())
    }
}

/// The median of `values` (the mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// The 99th percentile of `values`, or `None` with fewer than ten samples
/// beyond it: a tail estimate resting on fewer points is not reported.
pub fn p99(values: &[f64]) -> Option<f64> {
    if values.len() < 1000 {
        return None;
    }
    percentile(values, 0.99)
}

/// One timed unit of a closed-loop run: the slot it fills in the
/// repeating sequence of units (a campaign's place in its pass, an
/// invocation's place in its kill/resume pair), the core it ran on, its
/// frames and seconds.
pub struct Unit {
    pub slot: usize,
    pub core: usize,
    pub frames: u64,
    pub seconds: f64,
}

/// Frames per second over `units`, weighing the host's cores alike. For
/// each slot, the seconds per frame on each core is that core's total time
/// over its total frames in the slot, and the slot's cost is the mean of
/// these over the cores. Every unit counts, slow ones included; runs that
/// rotate over the cores weigh each core alike, and the mix of slots the
/// workload runs is kept as measured.
pub fn core_balanced_fps(units: &[Unit]) -> Option<f64> {
    let slots = units.iter().map(|u| u.slot).max()? + 1;
    let (mut frames, mut seconds) = (0.0, 0.0);
    for slot in 0..slots {
        let mine: Vec<&Unit> = units.iter().filter(|u| u.slot == slot).collect();
        let mut cores: Vec<usize> = mine.iter().map(|u| u.core).collect();
        cores.sort_unstable();
        cores.dedup();
        let per_core: Vec<f64> = cores
            .iter()
            .filter_map(|&c| {
                let on_core = mine.iter().filter(|u| u.core == c);
                let f: u64 = on_core.clone().map(|u| u.frames).sum();
                let s: f64 = on_core.map(|u| u.seconds).sum();
                (f > 0).then(|| s / f as f64)
            })
            .collect();
        if !per_core.is_empty() {
            let spf = per_core.iter().sum::<f64>() / per_core.len() as f64;
            let n: u64 = mine.iter().map(|u| u.frames).sum();
            frames += n as f64;
            seconds += n as f64 * spf;
        }
    }
    (seconds > 0.0).then(|| frames / seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let own = t.self_ns();
        let outer = &t.spans[0];
        let inner = &t.spans[1];
        assert_eq!(inner.parent, Some(0));
        assert_eq!(
            own[0],
            (outer.end_ns - outer.start_ns) - (inner.end_ns - inner.start_ns)
        );
        assert!(own[1] >= 20_000_000);
        let mut out = Vec::new();
        t.write(&mut out).expect("in-memory write");
        assert!(String::from_utf8(out)
            .expect("utf8")
            .contains("\"name\":\"inner\""));
    }

    #[test]
    fn core_balanced_fps_counts_every_unit_and_weighs_cores_alike() {
        let unit = |slot, core, frames, seconds| Unit {
            slot,
            core,
            frames,
            seconds,
        };
        // One core: plain frames over seconds, a stalled unit included.
        let units = [
            unit(0, 0, 100, 0.1),
            unit(1, 0, 100, 0.3),
            unit(0, 0, 100, 0.1),
            unit(1, 0, 100, 0.3),
            unit(0, 0, 100, 0.4),
            unit(1, 0, 100, 0.3),
        ];
        let fps = core_balanced_fps(&units).expect("units");
        assert!((fps - 600.0 / 1.5).abs() < 1e-9, "{fps}");
        assert_eq!(core_balanced_fps(&[]), None);

        // Core 1 runs at half speed: each core counts once per slot,
        // however many units ran on it.
        let units = [
            unit(0, 0, 100, 0.1),
            unit(0, 0, 100, 0.1),
            unit(0, 0, 100, 0.1),
            unit(0, 1, 100, 0.2),
        ];
        let fps = core_balanced_fps(&units).expect("units");
        assert!((fps - 1.0 / 0.0015).abs() < 1e-6, "{fps}");
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(p99(&few), None);
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!((p99(&enough).expect("enough samples") - 989.01).abs() < 1e-9);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }
}
