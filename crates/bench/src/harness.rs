//! A dependency-free wall-clock micro-bench harness.
//!
//! Stands in for Criterion with the subset these benches need: per-bench
//! iteration-count calibration against a target sample duration, repeated
//! samples summarized by [`crate::stats::Summary`], an optional substring
//! filter from the command line, and machine-readable `BENCH_<group>.json`
//! reports written through `rfid_system::json`. Building it in-repo keeps
//! `cargo bench` working offline with an empty cargo registry.
//!
//! A bench binary is a plain `fn main()` (the workspace sets
//! `harness = false` for every `[[bench]]` target):
//!
//! ```no_run
//! use rfid_bench::Bench;
//!
//! let mut b = Bench::new("example");
//! b.bench("add", || std::hint::black_box(2u64) + 2);
//! b.finish();
//! ```

use std::time::Instant;

use rfid_system::{Json, ToJson};

use crate::stats::Summary;

/// Default number of timed samples per benchmark.
const DEFAULT_SAMPLES: usize = 10;
/// Calibration aims for samples of roughly this duration.
const TARGET_SAMPLE_NANOS: u128 = 5_000_000;
/// Never fold more than this many iterations into one sample.
const MAX_ITERS_PER_SAMPLE: u64 = 1_000_000;

/// One benchmark's timing result (per-iteration nanoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Benchmark name within its group.
    pub name: String,
    /// Iterations folded into each timed sample.
    pub iters_per_sample: u64,
    /// Per-iteration nanoseconds across the samples.
    pub nanos: Summary,
}

impl ToJson for Measurement {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".to_string(), self.name.to_json()),
            (
                "iters_per_sample".to_string(),
                self.iters_per_sample.to_json(),
            ),
            ("samples".to_string(), self.nanos.count.to_json()),
            ("mean_ns".to_string(), self.nanos.mean.to_json()),
            ("std_ns".to_string(), self.nanos.std.to_json()),
            ("min_ns".to_string(), self.nanos.min.to_json()),
            ("max_ns".to_string(), self.nanos.max.to_json()),
        ])
    }
}

/// A group of related benchmarks sharing a report file.
#[derive(Debug)]
pub struct Bench {
    group: String,
    samples: usize,
    filter: Option<String>,
    results: Vec<Measurement>,
}

impl Bench {
    /// A new group. Reads the process arguments: the first argument that is
    /// not a `-`-flag (cargo passes `--bench`) becomes a substring filter on
    /// benchmark names, mirroring `cargo bench <filter>`.
    pub fn new(group: &str) -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'))
            .filter(|a| !a.is_empty());
        Bench {
            group: group.to_string(),
            samples: DEFAULT_SAMPLES,
            filter,
            results: Vec::new(),
        }
    }

    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        assert!(samples >= 2, "need at least 2 samples");
        self.samples = samples;
        self
    }

    /// Times `f`, recording per-iteration nanoseconds. The iteration count
    /// per sample is calibrated from one untimed warm-up run so that cheap
    /// operations are batched while multi-millisecond runs execute once per
    /// sample.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let start = Instant::now();
        std::hint::black_box(f());
        let once = start.elapsed().as_nanos().max(1);
        let iters = (TARGET_SAMPLE_NANOS / once).clamp(1, MAX_ITERS_PER_SAMPLE as u128) as u64;

        let mut per_iter = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            per_iter.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        let nanos = Summary::of(&per_iter);
        println!(
            "{}/{name}: {} ± {} ({} samples × {iters} iters)",
            self.group,
            format_nanos(nanos.mean),
            format_nanos(nanos.std),
            nanos.count,
        );
        self.results.push(Measurement {
            name: name.to_string(),
            iters_per_sample: iters,
            nanos,
        });
    }

    /// The measurements recorded so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Renders the group report as pretty JSON.
    pub fn report_json(&self) -> String {
        Json::Obj(vec![
            ("group".to_string(), self.group.to_json()),
            ("results".to_string(), self.results.to_json()),
        ])
        .to_pretty_string()
    }

    /// Writes `BENCH_<group>.json` into the nearest enclosing `target/`
    /// directory (cargo runs benches from the package dir, so the workspace
    /// `target/` may be a few levels up; falls back to the current
    /// directory) and returns the results. Skipped when a filter excluded
    /// every benchmark.
    pub fn finish(self) -> Vec<Measurement> {
        if !self.results.is_empty() {
            let file = format!("BENCH_{}.json", self.group);
            let path = find_target_dir()
                .map(|d| d.join(&file))
                .unwrap_or_else(|| file.clone().into());
            match std::fs::write(&path, self.report_json() + "\n") {
                Ok(()) => println!("report: {}", path.display()),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
        }
        self.results
    }
}

/// FNV-1a over a string — cheap, stable, and order sensitive. The shared
/// digest for trace bit-identity gates (golden tests, the crash-chaos
/// test, the daemon's wire reports, `repro session`): any
/// reordered, dropped, or extra event in a serialized trace changes the
/// digest. The definition lives in `rfid-hash` so the serving layer can
/// digest traces without depending on the bench harness.
pub use rfid_hash::fnv64;

/// The nearest `target/` directory at or above the current directory —
/// honours `CARGO_TARGET_DIR` when set. Shared by the bench reports
/// (`BENCH_*.json`) and the sweep engine's default cache root.
pub fn find_target_dir() -> Option<std::path::PathBuf> {
    if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
        let dir = std::path::PathBuf::from(dir);
        if dir.is_dir() {
            return Some(dir);
        }
    }
    let mut at = std::env::current_dir().ok()?;
    loop {
        let candidate = at.join("target");
        if candidate.is_dir() {
            return Some(candidate);
        }
        if !at.pop() {
            return None;
        }
    }
}

fn format_nanos(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_bench(group: &str) -> Bench {
        // Tests construct directly to bypass the CLI-filter sniffing (the
        // test runner's own arguments must not filter benches).
        Bench {
            group: group.to_string(),
            samples: 3,
            filter: None,
            results: Vec::new(),
        }
    }

    #[test]
    fn bench_records_positive_timings() {
        let mut b = quiet_bench("t");
        b.bench("count", || (0..1000u64).sum::<u64>());
        assert_eq!(b.results().len(), 1);
        let m = &b.results()[0];
        assert!(m.nanos.mean > 0.0);
        assert!(m.iters_per_sample >= 1);
        assert_eq!(m.nanos.count, 3);
    }

    #[test]
    fn filter_skips_non_matching_names() {
        let mut b = quiet_bench("t");
        b.filter = Some("tree".to_string());
        b.bench("hash", || 1u64);
        b.bench("tree_build", || 1u64);
        assert_eq!(b.results().len(), 1);
        assert_eq!(b.results()[0].name, "tree_build");
    }

    #[test]
    fn report_json_is_parseable_and_tagged() {
        let mut b = quiet_bench("grp");
        b.bench("x", || 7u64);
        let parsed = Json::parse(&b.report_json()).expect("valid JSON");
        assert_eq!(parsed.get("group").unwrap().as_str().unwrap(), "grp");
        let results = parsed.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].get("name").unwrap().as_str().unwrap(), "x");
        assert!(results[0].get("mean_ns").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn format_nanos_picks_sane_units() {
        assert_eq!(format_nanos(12.0), "12.0 ns");
        assert_eq!(format_nanos(12_500.0), "12.500 µs");
        assert_eq!(format_nanos(3_200_000.0), "3.200 ms");
        assert_eq!(format_nanos(2.5e9), "2.500 s");
    }
}
