//! The repository benchmark's measuring program.
//!
//! ```text
//! perfbench-harness --workload <serve_small|serve_checkpoint|repro_table>
//!                   --seed <n> --seconds <s> --trace <0|1> --out <dir>
//! ```
//!
//! Drives the system only through its public functions, from this one
//! process, with at most two load threads. With `--trace 0` it measures
//! the end-to-end metrics with tracing off; with `--trace 1` it records
//! spans around every public call and reports per-layer self times, plus
//! the overhead of tracing against an untraced phase of the same run.
//! Prints one JSON line: `correct`, `attempted`, `failed`, `metrics` and
//! a `detail` object (sample counts, percentiles used, failures, the
//! per-layer attribution). `perfbench/run.py` builds and runs it.

mod serve;
mod stats;
mod table;
mod trace;

use std::collections::HashMap;
use std::path::PathBuf;

use rfid_system::Json;

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports every one of them; `perfbench/NOTES.md` defines each per
/// workload and says why wall-clock rates and latencies are recorded
/// beside them rather than bounded.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_us_per_session", "us"),
];

/// Per-layer metrics (`--trace 1`), named by crate. A layer a workload
/// bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.frames_per_session", "count"),
    ("wire.bytes_per_session", "bytes"),
    ("wire.transport_us", "us"),
    ("daemon.handle_us.open", "us"),
    ("daemon.handle_us.run", "us"),
    ("daemon.handle_us.close", "us"),
    ("daemon.handle_us.checkpoint", "us"),
    ("daemon.handle_us.resume", "us"),
    ("daemon.dispatch_self_us", "us"),
    ("daemon.admit_snapshot_us", "us"),
    ("daemon.admit_snapshot_bytes", "bytes"),
    ("daemon.error_responses", "count"),
    ("daemon.busy_responses", "count"),
    ("protocols.session_open_us", "us"),
    ("protocols.step_loop_us", "us"),
    ("protocols.steps", "count"),
    ("protocols.step_loop_tags_per_s.CPP", "tags/s"),
    ("protocols.step_loop_tags_per_s.HPP", "tags/s"),
    ("protocols.step_loop_tags_per_s.EHPP", "tags/s"),
    ("protocols.step_loop_tags_per_s.MIC", "tags/s"),
    ("protocols.step_loop_tags_per_s.TPP", "tags/s"),
    ("protocols.step_loop_tags_per_s.LowerBound", "tags/s"),
    ("protocols.snapshot_us", "us"),
    ("protocols.snapshot_bytes", "bytes"),
    ("protocols.restore_us", "us"),
    ("protocols.report_json_us", "us"),
    ("workloads.build_population_us", "us"),
    ("system.context_new_us", "us"),
    ("system.trace_events", "count"),
    ("system.trace_jsonl_bytes", "bytes"),
    ("system.trace_digest_us", "us"),
    ("system.json_parse_us", "us"),
    ("bench.sweep_jobs", "count"),
    ("bench.sweep_busy_ratio", "ratio"),
    ("bench.anchor_err_max", "ratio"),
    ("trace.session_us", "us"),
    ("trace.unattributed_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Failed attempts: how many, and the first few messages.
#[derive(Default)]
pub struct Failures {
    pub count: u64,
    pub first: Vec<String>,
}

impl Failures {
    pub fn add(&mut self, why: String) {
        self.count += 1;
        if self.first.len() < 8 {
            self.first.push(why);
        }
    }

    pub fn merge(&mut self, other: &Failures) {
        self.count += other.count;
        for why in &other.first {
            if self.first.len() < 8 {
                self.first.push(why.clone());
            }
        }
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Attempted operations (served sessions, or Table II regenerations).
    pub attempted: u64,
    /// Attempts that failed or produced a wrong result.
    pub failures: Failures,
    /// Metric values by name; see [`END_TO_END`] and [`PER_LAYER`].
    pub values: HashMap<String, f64>,
    /// Everything else worth keeping with the result.
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn detail(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }

    pub fn fail(&mut self, why: String) {
        self.failures.add(why);
    }
}

/// Run parameters shared by every workload.
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

fn num(x: f64) -> Json {
    Json::Float(x)
}

fn parse_args() -> Result<(String, Params), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut out) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let params = Params {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out: out.ok_or("--out is required")?,
    };
    if params.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok((workload.ok_or("--workload is required")?, params))
}

fn main() {
    let (workload, params) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("perfbench-harness: {msg}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&params.out) {
        eprintln!(
            "perfbench-harness: cannot create {}: {e}",
            params.out.display()
        );
        std::process::exit(2);
    }
    let mut outcome = match workload.as_str() {
        "serve_small" => serve::run(serve::Kind::Small, &params),
        "serve_checkpoint" => serve::run(serve::Kind::Checkpoint, &params),
        "repro_table" => table::run(&params),
        other => {
            eprintln!("perfbench-harness: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if !params.trace {
        let peak = stats::peak_rss_mb().unwrap_or(f64::NAN);
        outcome
            .values
            .entry("peak_rss_mb".to_string())
            .or_insert(peak);
    }
    let failed_ratio = outcome.failures.count as f64 / outcome.attempted.max(1) as f64;
    outcome.detail("failed_ratio", num(failed_ratio));
    outcome.detail(
        "failures",
        Json::Arr(
            outcome
                .failures
                .first
                .iter()
                .map(|f| Json::str(f.as_str()))
                .collect(),
        ),
    );
    // An end-to-end metric a workload forgot prints as null, which the
    // runner rejects; a layer a workload bypasses reports 0.
    let (list, missing) = if params.trace {
        (PER_LAYER, 0.0)
    } else {
        (END_TO_END, f64::NAN)
    };
    let metrics = Json::Obj(
        list.iter()
            .map(|&(name, unit)| {
                let value = outcome.values.get(name).copied().unwrap_or(missing);
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".to_string(), num(value)),
                        ("unit".to_string(), Json::str(unit)),
                    ]),
                )
            })
            .collect(),
    );
    let record = Json::Obj(vec![
        ("workload".to_string(), Json::str(workload.as_str())),
        (
            "correct".to_string(),
            Json::Bool(outcome.failures.count == 0 && outcome.attempted > 0),
        ),
        ("attempted".to_string(), Json::UInt(outcome.attempted)),
        ("failed".to_string(), Json::UInt(outcome.failures.count)),
        ("metrics".to_string(), metrics),
        ("detail".to_string(), Json::Obj(outcome.detail)),
    ]);
    println!("{record}");
}
