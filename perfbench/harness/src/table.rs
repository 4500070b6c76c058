//! The `repro_table` workload: the paper's Table II grid, in process.
//!
//! Six rows (CPP, HPP, EHPP, MIC, TPP, LowerBound) × n ∈ {100, 1k, 10k,
//! 100k}, l = 16 bits, through `SweepEngine::run_cells` with two workers
//! and no cache — the same cells, seeds and run counts `repro table2`
//! builds (20 runs per cell; CPP and LowerBound are deterministic in
//! time, so one run). One *session* of this workload is one regeneration
//! of the table. The grid is the paper's and does not depend on
//! `--seed`; the seed picks which runs are re-checked against an
//! in-process `Session::run` reference and which runs the traced replay
//! times.

use std::time::Instant;

use rfid_baselines::{CppConfig, LowerBound, MicConfig};
use rfid_bench::anchors::{TABLE2_TPP_RATIOS, TABLE_NS};
use rfid_bench::{Cell, SweepEngine};
use rfid_hash::{fnv64, split_seed, Xoshiro256};
use rfid_protocols::{
    EhppConfig, HppConfig, PollingProtocol, Report, Session, SessionEnd, TppConfig,
};
use rfid_system::{to_json_string, Json, SimConfig, SimContext, ToJson};
use rfid_workloads::Scenario;

use crate::stats::{mean, peak_rss_mb, percentile, reset_peak_rss, CpuClock};
use crate::trace::{self, Tracer};
use crate::{Outcome, Params};

/// Payload width of Table II.
const L: usize = 16;
/// Monte-Carlo runs per stochastic cell, as in `repro`.
const RUNS: u64 = 20;
const WORKERS: usize = 2;
/// Set-ups measured per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Runs re-checked against an in-process reference, per regeneration.
const CHECKED_RUNS: usize = 6;
/// The worst tolerated gap between a measured Table II ratio and the
/// paper's (EXPERIMENTS.md records all four within about 1 %).
const ANCHOR_TOLERANCE: f64 = 0.02;

type Factory = Box<dyn Fn() -> Box<dyn PollingProtocol> + Sync>;

struct Row {
    label: &'static str,
    config: String,
    factory: Factory,
}

fn row(
    label: &'static str,
    config: String,
    factory: impl Fn() -> Box<dyn PollingProtocol> + Sync + 'static,
) -> Row {
    Row {
        label,
        config,
        factory: Box::new(factory),
    }
}

fn rows() -> Vec<Row> {
    vec![
        row("CPP", to_json_string(&CppConfig::default()), || {
            Box::new(CppConfig::default().into_protocol())
        }),
        row("HPP", to_json_string(&HppConfig::default()), || {
            Box::new(HppConfig::default().into_protocol())
        }),
        row("EHPP", to_json_string(&EhppConfig::default()), || {
            Box::new(EhppConfig::default().into_protocol())
        }),
        row("MIC", to_json_string(&MicConfig::default()), || {
            Box::new(MicConfig::default().into_protocol())
        }),
        row("TPP", to_json_string(&TppConfig::default()), || {
            Box::new(TppConfig::default().into_protocol())
        }),
        row("LowerBound", String::new(), || Box::new(LowerBound)),
    ]
}

/// The cells of `ns`, row-major, as `repro table2` lays them out.
fn cells<'a>(rows: &'a [Row], ns: &[u64]) -> Vec<Cell<'a>> {
    let mut cells = Vec::new();
    for r in rows {
        for &n in ns {
            let scenario = Scenario::uniform(n as usize, L).with_seed(n + L as u64);
            let runs = if r.label == "CPP" || r.label == "LowerBound" {
                1
            } else {
                RUNS
            };
            cells.push(Cell::new(
                r.label,
                r.config.clone(),
                scenario,
                runs,
                r.factory.as_ref(),
            ));
        }
    }
    cells
}

/// FNV-1a over every report of the grid, in cell and run order.
fn digest(results: &[Vec<Report>]) -> u64 {
    let mut text = String::new();
    for cell in results {
        for r in cell {
            text.push_str(&r.to_json().to_string());
            text.push('\n');
        }
    }
    fnv64(&text)
}

/// The worst relative gap between the measured n = 10⁴ TPP ratios and
/// the paper's Table II quotes.
fn anchor_err_max(rows: &[Row], results: &[Vec<Report>]) -> f64 {
    let col = TABLE_NS
        .iter()
        .position(|&n| n == 10_000)
        .expect("10k column");
    let mean_s = |label: &str| {
        let ri = rows.iter().position(|r| r.label == label).expect("row");
        let cell = &results[ri * TABLE_NS.len() + col];
        mean(
            &cell
                .iter()
                .map(|r| r.total_time.as_secs())
                .collect::<Vec<_>>(),
        )
    };
    let tpp = mean_s("TPP");
    TABLE2_TPP_RATIOS
        .iter()
        .map(|&(name, paper)| ((tpp / mean_s(name)) / paper - 1.0).abs())
        .fold(0.0, f64::max)
}

/// One run through the session engine directly, as a reference or a
/// timed replay.
fn session_run(protocol: &dyn PollingProtocol, sc: &Scenario) -> Option<Report> {
    let mut ctx = SimContext::new(sc.build_population(), &SimConfig::paper(sc.protocol_seed()));
    match Session::open(protocol, &ctx).run(&mut ctx) {
        SessionEnd::Complete { report, .. } => Some(report),
        _ => None,
    }
}

/// One set-up: the engine, the grid, and a warm-up regeneration of the
/// n = 100 column.
fn setup(rows: &[Row]) -> (f64, SweepEngine) {
    let t0 = Instant::now();
    let mut engine = SweepEngine::new().with_workers(WORKERS);
    let warm = cells(rows, &TABLE_NS[..1]);
    std::hint::black_box(engine.run_cells(&warm));
    (t0.elapsed().as_secs_f64(), engine)
}

/// Sweep-engine counters over one regeneration.
struct Pass {
    secs: f64,
    /// Peak RSS while this regeneration ran.
    peak_rss_mb: f64,
    results: Vec<Vec<Report>>,
    jobs: u64,
    busy_ratio: f64,
}

fn regenerate(engine: &mut SweepEngine, cells: &[Cell<'_>]) -> Pass {
    let job_us = |e: &SweepEngine| e.metrics().histogram("sweep_job_us").map_or(0, |h| h.sum());
    let (jobs0, busy0) = (engine.stats().jobs, job_us(engine));
    reset_peak_rss();
    let t0 = Instant::now();
    let results = engine.run_cells(cells);
    let secs = t0.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb().unwrap_or(f64::NAN);
    let busy_us = (job_us(engine) - busy0) as f64;
    Pass {
        secs,
        peak_rss_mb,
        results,
        jobs: engine.stats().jobs - jobs0,
        busy_ratio: busy_us / 1e6 / (WORKERS as f64 * secs),
    }
}

/// Regenerates the table while another regeneration still fits in
/// `seconds` (at least once), with a span around each when traced.
fn regenerate_for(
    engine: &mut SweepEngine,
    cells: &[Cell<'_>],
    seconds: f64,
    mut tr: Option<&mut Tracer>,
) -> Vec<Pass> {
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let span = tr
            .as_deref_mut()
            .map(|t| t.open("bench.sweep_pass", None, passes.len() as u64));
        passes.push(regenerate(engine, cells));
        if let (Some(t), Some(id)) = (tr.as_deref_mut(), span) {
            t.close(id);
        }
        let typical = mean(&passes.iter().map(|q| q.secs).collect::<Vec<_>>());
        if t0.elapsed().as_secs_f64() + typical > seconds {
            return passes;
        }
    }
}

/// Checks a regeneration: the same digest as the first one, and the
/// Table II anchors within tolerance.
fn check(rows: &[Row], pass: &Pass, expected: u64) -> Result<(), String> {
    let got = digest(&pass.results);
    if got != expected {
        return Err(format!(
            "report digest {got:016x} differs from the first regeneration's {expected:016x}"
        ));
    }
    let err = anchor_err_max(rows, &pass.results);
    if err > ANCHOR_TOLERANCE {
        return Err(format!(
            "Table II anchors off by {err:.4} (> {ANCHOR_TOLERANCE})"
        ));
    }
    Ok(())
}

/// Compares a seeded sample of runs with in-process references. Every
/// regeneration has the same digest, so checking one checks them all.
fn check_sample(cells: &[Cell<'_>], pass: &Pass, rng: &mut Xoshiro256) -> Result<(), String> {
    for _ in 0..CHECKED_RUNS {
        let ci = rng.below(cells.len() as u64) as usize;
        let cell = &cells[ci];
        let run = rng.below(cell.runs);
        let protocol = (cell.factory)();
        let reference = session_run(protocol.as_ref(), &cell.scenario.for_run(run));
        if reference.map(|r| r.to_json()) != Some(pass_report(pass, ci, run)) {
            return Err(format!(
                "{} n={} run {run}: report differs from the in-process reference",
                cell.protocol, cell.scenario.n
            ));
        }
    }
    Ok(())
}

/// Checks every regeneration, counting each as one attempt.
fn check_all(
    rows: &[Row],
    cells: &[Cell<'_>],
    passes: &[&Pass],
    rng: &mut Xoshiro256,
    out: &mut Outcome,
) {
    let expected = digest(&passes[0].results);
    for (i, pass) in passes.iter().enumerate() {
        out.attempted += 1;
        let sampled = if i == 0 {
            check_sample(cells, pass, rng)
        } else {
            Ok(())
        };
        if let Err(why) = check(rows, pass, expected).and(sampled) {
            out.fail(why);
        }
    }
    out.detail("report_digest", Json::str(format!("{expected:016x}")));
}

pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let rows = rows();
    let grid = cells(&rows, &TABLE_NS);
    let mut rng = Xoshiro256::seed_from_u64(split_seed(p.seed, 3));
    if p.trace {
        traced(&rows, &grid, p, &mut rng, &mut out);
        return out;
    }

    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..SETUPS {
        let (secs, e) = setup(&rows);
        setups.push(secs);
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up");

    let t0 = Instant::now();
    let clock = CpuClock::now();
    let passes = regenerate_for(&mut engine, &grid, p.seconds, None);
    let wall = t0.elapsed().as_secs_f64();
    let (cpu, steal) = clock.since();

    check_all(
        &rows,
        &grid,
        &passes.iter().collect::<Vec<_>>(),
        &mut rng,
        &mut out,
    );
    let secs: Vec<f64> = passes.iter().map(|q| q.secs).collect();
    let tags_per_pass: u64 = grid.iter().map(|c| c.scenario.n as u64 * c.runs).sum();
    let p50 = percentile(&secs, 50.0).unwrap_or(f64::NAN);
    out.set("setup_s", percentile(&setups, 50.0).unwrap_or(f64::NAN));
    out.set("cpu_us_per_session", cpu * 1e6 / passes.len() as f64);
    // Which large jobs overlap on the two workers varies from one
    // regeneration to the next, and so does the peak: report the median
    // regeneration's peak rather than the process's lifetime peak.
    let peaks: Vec<f64> = passes.iter().map(|q| q.peak_rss_mb).collect();
    out.set("peak_rss_mb", percentile(&peaks, 50.0).unwrap_or(f64::NAN));
    out.detail("regeneration_peak_rss_mb", peaks.to_json());
    out.detail("regenerations", Json::UInt(passes.len() as u64));
    out.detail("sessions_per_s", Json::Float(1.0 / p50));
    out.detail("session_p50_us", Json::Float(p50 * 1e6));
    out.detail("sim_tags_per_s", Json::Float(tags_per_pass as f64 / p50));
    out.detail("regeneration_s", secs.to_json());
    out.detail("measured_wall_s", Json::Float(wall));
    out.detail("measured_cpu_s", Json::Float(cpu));
    out.detail("host_steal_s", Json::Float(steal));
    out.detail("setup_samples_s", setups.to_json());
    out.detail("tags_per_regeneration", Json::UInt(tags_per_pass));
    out.detail(
        "anchor_err_max",
        Json::Float(anchor_err_max(&rows, &passes[0].results)),
    );
    out.detail("sweep_jobs_per_regeneration", Json::UInt(passes[0].jobs));
    out.detail(
        "sweep_busy_ratio",
        passes
            .iter()
            .map(|q| q.busy_ratio)
            .collect::<Vec<_>>()
            .to_json(),
    );
    out
}

/// The traced run: untraced regenerations for the overhead baseline,
/// traced ones (a span around each `run_cells`), then one replayed run
/// per cell through the session engine with a span per layer.
fn traced(rows: &[Row], grid: &[Cell<'_>], p: &Params, rng: &mut Xoshiro256, out: &mut Outcome) {
    let (_, mut engine) = setup(rows);
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, 0);
    let plain = regenerate_for(&mut engine, grid, p.seconds / 3.0, None);
    let traced = regenerate_for(&mut engine, grid, p.seconds / 3.0, Some(&mut tr));
    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    check_all(rows, grid, &all, rng, out);
    let plain_s =
        percentile(&plain.iter().map(|q| q.secs).collect::<Vec<_>>(), 50.0).unwrap_or(f64::NAN);
    let traced_s =
        percentile(&traced.iter().map(|q| q.secs).collect::<Vec<_>>(), 50.0).unwrap_or(f64::NAN);
    out.set("trace.overhead_pct", (traced_s / plain_s - 1.0) * 100.0);
    out.set("bench.sweep_jobs", traced[0].jobs as f64);
    out.set(
        "bench.sweep_busy_ratio",
        mean(&traced.iter().map(|q| q.busy_ratio).collect::<Vec<_>>()),
    );
    out.set(
        "bench.anchor_err_max",
        anchor_err_max(rows, &traced[0].results),
    );
    out.detail("untraced_regeneration_s", Json::Float(plain_s));
    out.detail("traced_regeneration_s", Json::Float(traced_s));

    // One replayed run per cell, spans around each layer's public call.
    let mut step_rate = vec![(0.0f64, 0.0f64); rows.len()];
    let mut steps = 0u64;
    let mut replays = 0u64;
    for (ci, cell) in grid.iter().enumerate() {
        let run = rng.below(cell.runs);
        let sc = cell.scenario.for_run(run);
        let request = 1_000 + ci as u64;
        let root = tr.open("run", None, request);
        let protocol = (cell.factory)();
        let population = tr.time("workloads.build_population", Some(root), request, || {
            sc.build_population()
        });
        let config = SimConfig::paper(sc.protocol_seed());
        let mut ctx = tr.time("system.context_new", Some(root), request, || {
            SimContext::new(population, &config)
        });
        let mut session = tr.time("protocols.session_open", Some(root), request, || {
            Session::open(protocol.as_ref(), &ctx)
        });
        let t0 = tr.now();
        let end = tr.time("protocols.step_loop", Some(root), request, || {
            session.run(&mut ctx)
        });
        let step_us = (tr.now() - t0) as f64 / 1e3;
        let report = tr.time("protocols.report_json", Some(root), request, || {
            end.report().to_json()
        });
        tr.close(root);
        replays += 1;
        steps += session.steps_taken();
        let r = &mut step_rate[ci / TABLE_NS.len()];
        r.0 += sc.n as f64;
        r.1 += step_us;
        if report != pass_report(&plain[0], ci, run) {
            out.attempted += 1;
            out.fail(format!(
                "{} n={} run {run}: replay differs from the sweep",
                cell.protocol, sc.n
            ));
        }
    }
    let spans = tr.into_spans();
    trace::save(out, &p.out, &format!("repro_table-{}", p.seed), &spans);

    for (r, (tags, us)) in rows.iter().zip(&step_rate) {
        out.set(
            format!("protocols.step_loop_tags_per_s.{}", r.label),
            tags / (us / 1e6),
        );
    }
    let selfs = trace::self_us_by_name(&spans);
    let s = |name: &str| selfs.get(name).copied().unwrap_or(0.0) / replays as f64;
    let (run_us, _) = trace::total_us(&spans, "run");
    out.set("trace.session_us", run_us / replays as f64);
    out.set("trace.unattributed_us", s("run"));
    out.set("protocols.steps", steps as f64 / replays as f64);
    out.set("protocols.step_loop_us", s("protocols.step_loop"));
    out.set("protocols.session_open_us", s("protocols.session_open"));
    out.set("protocols.report_json_us", s("protocols.report_json"));
    out.set(
        "workloads.build_population_us",
        s("workloads.build_population"),
    );
    out.set("system.context_new_us", s("system.context_new"));
    out.detail(
        "attribution_note",
        Json::str(
            "per replayed Monte-Carlo run, one per cell; trace.session_us is the replayed run",
        ),
    );
}

fn pass_report(pass: &Pass, cell: usize, run: u64) -> Json {
    pass.results[cell][run as usize].to_json()
}
