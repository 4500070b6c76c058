//! Profiling-plane overhead gates (DESIGN.md §14). The bench exits
//! nonzero when either gate misses:
//!
//! 1. **Disabled span path is free.** `SimContext::span_enter/span_exit`
//!    guard on a cold `is_enabled()` flag exactly like the trace log; a
//!    full HPP run with profiling compiled in but disabled must cost no
//!    more than the *profiled* run plus 5 % timer headroom, best-of-sample
//!    (the mean is at the mercy of scheduler noise on sub-100 µs runs).
//! 2. **Enabled profiling is bounded.** A 100 k-tag HPP session with full
//!    profiling (spans on every session/pass/round/poll) must stay within
//!    `ENABLED_CEILING`× the unprofiled run — the profiler is two clock
//!    reads and a last-child-cached trie walk per span, not an allocation.
//!
//! That profiling never perturbs a run (report, counters and trace
//! bit-identical with profiling on and off) is a unit test:
//! `profiling_does_not_perturb_the_run` in `rfid_protocols::session`.

use std::hint::black_box;
use std::time::Instant;

use rfid_bench::Bench;
use rfid_protocols::{HppConfig, Session};
use rfid_system::{BitVec, SimConfig, SimContext, TagPopulation};

/// Population for the disabled-path gate.
const N_SMALL: usize = 500;
/// Population for the enabled-overhead gate.
const N_LARGE: usize = 100_000;
/// Disabled-path headroom: off must cost ≤ 1.05 × on, best-of-sample.
const DISABLED_CEILING: f64 = 1.05;
/// Enabled-path ceiling: full profiling ≤ 3 × the unprofiled run.
const ENABLED_CEILING: f64 = 3.0;

fn session_run(n: usize, cfg: &SimConfig) -> SimContext {
    let pop = TagPopulation::sequential(n, |i| BitVec::from_value((i % 2) as u64, 1));
    let mut ctx = SimContext::new(pop, cfg);
    let protocol = HppConfig::default().into_protocol();
    let end = Session::open(&protocol, &ctx).run(&mut ctx);
    assert!(end.is_complete(), "HPP must complete on this channel");
    ctx
}

/// Best-of-`k` wall time of one full session run, nanoseconds.
fn best_of(k: usize, n: usize, cfg: &SimConfig) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..k {
        let start = Instant::now();
        black_box(session_run(n, cfg).counters.polls);
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// Prints one gate row and returns whether it passed. `ratio` is the
/// caller's gated quotient (off/on for the disabled gate, on/off for the
/// enabled one) and must stay ≤ `ceiling`.
fn gate(name: &str, off_ns: f64, on_ns: f64, ratio: f64, ceiling: f64) -> bool {
    println!(
        "obsplane/{name}: off {off_ns:.0} ns, on {on_ns:.0} ns, \
         ratio {ratio:.2} (ceiling {ceiling})"
    );
    ratio <= ceiling
}

fn main() {
    let mut failures: Vec<String> = Vec::new();

    // Gate 1: the disabled span path. Functional zero-cost proof first —
    // an unprofiled run must record nothing at all.
    let off_cfg = SimConfig::paper(7);
    let on_cfg = SimConfig::paper(7).with_profile();
    let quiet = session_run(N_SMALL, &off_cfg);
    assert!(!quiet.profiler.is_enabled(), "profiler must stay off");
    assert!(quiet.profiler.is_empty(), "disabled run recorded spans");
    let profiled = session_run(N_SMALL, &on_cfg);
    assert!(!profiled.profiler.is_empty(), "profiled run lost its spans");

    let mut b = Bench::new("obsplane");
    b.sample_size(20);
    b.bench(&format!("hpp_{N_SMALL}/profile_disabled"), || {
        black_box(session_run(N_SMALL, &off_cfg).counters.polls)
    });
    b.bench(&format!("hpp_{N_SMALL}/profile_enabled"), || {
        black_box(session_run(N_SMALL, &on_cfg).counters.polls)
    });
    let min_of = |name: &str| {
        b.results()
            .iter()
            .find(|m| m.name.contains(name))
            .map(|m| m.nanos.min)
    };
    if let (Some(off), Some(on)) = (min_of("profile_disabled"), min_of("profile_enabled")) {
        if !gate("disabled_span_path", off, on, off / on, DISABLED_CEILING) {
            failures.push("disabled span path costs more than the profiled run".into());
        }
    }

    // Gate 2: full profiling on a 100 k-tag session stays under the
    // ceiling. One cold run each way would measure the allocator; take the
    // best of three so both sides see warm caches.
    let off = best_of(3, N_LARGE, &off_cfg);
    let on = best_of(3, N_LARGE, &on_cfg);
    if !gate(
        "enabled_profiling_overhead",
        off,
        on,
        on / off,
        ENABLED_CEILING,
    ) {
        failures.push(format!(
            "enabled profiling overhead exceeds {ENABLED_CEILING}×"
        ));
    }

    if !failures.is_empty() {
        eprintln!("obsplane gate FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
