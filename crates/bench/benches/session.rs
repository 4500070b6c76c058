//! Crash-chaos bit-identity gate for the resumable session engine.
//!
//! For every protocol (clean channel) and the four paper protocols
//! (impaired channel), runs the scenario twice: once uninterrupted, and
//! once **killed at a seeded slot boundary** — the session is serialized
//! to a JSON snapshot, the process image is discarded (session + context
//! dropped), and the snapshot is parsed and restored into a fresh context
//! which then runs to completion. The final `Report` JSON and the FNV-1a
//! digest of the full event trace must be bit-identical between the two
//! runs; any drift means checkpoint/restore perturbed an RNG draw, a
//! float accumulation, or a trace event. A recovery case (tiny round
//! budget, unbounded passes) additionally kills the session *between
//! recovery passes* with backoff charged.
//!
//! Writes `BENCH_session.json` (schema: `{"group":"session","results":
//! [{"name","channel","kill_step","snapshot_bytes","passes","identical"}]}`)
//! next to the other bench reports so `scripts/verify.sh` and
//! `obs_report --check-session` can gate on it.

use rfid_baselines::{CodedPollingConfig, CppConfig, EcppConfig, FsaConfig, LowerBound, MicConfig};
use rfid_bench::{find_target_dir, fnv64};
use rfid_hash::Xoshiro256;
use rfid_identify::{BinarySplitConfig, QAlgorithmConfig, QueryTreeConfig};
use rfid_protocols::{
    EhppConfig, HppConfig, PollingProtocol, RecoveryPolicy, Session, SessionEnd, TppConfig,
};
use rfid_system::{FaultModel, GilbertElliott, Json, SimConfig, SimContext, ToJson};
use rfid_workloads::Scenario;

fn all_protocols() -> Vec<Box<dyn PollingProtocol>> {
    vec![
        Box::new(CppConfig::default().into_protocol()),
        Box::new(EcppConfig::default().into_protocol()),
        Box::new(CodedPollingConfig::default().into_protocol()),
        Box::new(HppConfig::default().into_protocol()),
        Box::new(EhppConfig::default().into_protocol()),
        Box::new(TppConfig::default().into_protocol()),
        Box::new(MicConfig::default().into_protocol()),
        Box::new(FsaConfig::default().into_protocol()),
        Box::new(LowerBound),
        Box::new(QueryTreeConfig::default().into_protocol()),
        Box::new(BinarySplitConfig::default().into_protocol()),
        Box::new(QAlgorithmConfig::default().into_protocol()),
    ]
}

fn impaired_fault() -> FaultModel {
    FaultModel::perfect()
        .with_downlink_loss(0.2)
        .with_corruption(0.2)
        .with_burst(GilbertElliott::new(0.1, 0.5, 0.0, 0.8))
}

struct Outcome {
    kill_step: u64,
    snapshot_bytes: usize,
    passes: u64,
    identical: bool,
    detail: String,
}

/// Runs the kill/snapshot/restore/finish cycle and compares against the
/// uninterrupted run. The reference run is driven one step at a time to
/// count the *killable* boundaries, and the seeded kill point is drawn
/// from `[1, boundaries]` — so every case genuinely crashes mid-run and
/// exercises snapshot → parse → restore, never a degenerate full run.
fn chaos_case(
    protocol: &dyn PollingProtocol,
    scenario: &Scenario,
    cfg: &SimConfig,
    policy: Option<&RecoveryPolicy>,
    rng: &mut Xoshiro256,
) -> Outcome {
    // Uninterrupted reference, stepped manually to count kill boundaries.
    let mut ctx = SimContext::new(scenario.build_population(), cfg);
    let mut session = Session::open(protocol, &ctx);
    if let Some(p) = policy {
        session = session.with_policy(*p);
    }
    let mut boundaries = 0u64;
    let reference = loop {
        match session.run_for(&mut ctx, 1) {
            Some(end) => break end,
            None => boundaries += 1,
        }
    };
    let SessionEnd::Complete {
        report: ref_report,
        passes: ref_passes,
    } = reference
    else {
        return Outcome {
            kill_step: 0,
            snapshot_bytes: 0,
            passes: 0,
            identical: false,
            detail: format!("reference run did not complete: {reference:?}"),
        };
    };
    let ref_json = ref_report.to_json().to_string();
    let ref_trace = fnv64(&ctx.log.to_jsonl());
    let kill_step = 1 + rng.below(boundaries.max(1));

    // Killed run: crash at the seeded step, survive only as a JSON string.
    let mut ctx = SimContext::new(scenario.build_population(), cfg);
    let mut session = Session::open(protocol, &ctx);
    if let Some(p) = policy {
        session = session.with_policy(*p);
    }
    let (snapshot_bytes, end, ctx) = match session.run_for(&mut ctx, kill_step) {
        Some(end) => (0, end, ctx),
        None => {
            let snap = session.snapshot(&ctx, cfg).to_string();
            drop(session);
            drop(ctx);
            let doc = match Json::parse(&snap) {
                Ok(doc) => doc,
                Err(e) => {
                    return Outcome {
                        kill_step,
                        snapshot_bytes: snap.len(),
                        passes: 0,
                        identical: false,
                        detail: format!("snapshot failed to parse: {e}"),
                    }
                }
            };
            match Session::restore(protocol, &doc) {
                Ok((mut ctx, mut session)) => {
                    let end = session.run(&mut ctx);
                    (snap.len(), end, ctx)
                }
                Err(e) => {
                    return Outcome {
                        kill_step,
                        snapshot_bytes: snap.len(),
                        passes: 0,
                        identical: false,
                        detail: format!("snapshot failed to restore: {e}"),
                    }
                }
            }
        }
    };
    let SessionEnd::Complete { report, passes } = end else {
        return Outcome {
            kill_step,
            snapshot_bytes,
            passes: 0,
            identical: false,
            detail: format!("restored run did not complete: {end:?}"),
        };
    };
    let json = report.to_json().to_string();
    let trace = fnv64(&ctx.log.to_jsonl());

    let mut mismatches = Vec::new();
    if json != ref_json {
        mismatches.push("report JSON".to_string());
    }
    if trace != ref_trace {
        mismatches.push(format!("trace digest {trace:#018x} != {ref_trace:#018x}"));
    }
    if passes != ref_passes {
        mismatches.push(format!("passes {passes} != {ref_passes}"));
    }
    Outcome {
        kill_step,
        snapshot_bytes,
        passes,
        identical: mismatches.is_empty(),
        detail: if mismatches.is_empty() {
            "bit-identical".to_string()
        } else {
            mismatches.join("; ")
        },
    }
}

fn main() {
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .filter(|a| !a.is_empty());
    let mut results: Vec<Json> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    // Seeded kill-point stream: reproducible chaos, different per case.
    let mut chaos_rng = Xoshiro256::seed_from_u64(0x5E55_1017);

    let run = |label: String,
               name: &str,
               channel: &str,
               outcome: Outcome,
               results: &mut Vec<Json>,
               failures: &mut Vec<String>| {
        println!(
            "session/{label}: kill@{} snapshot {}B passes {} -> {}",
            outcome.kill_step, outcome.snapshot_bytes, outcome.passes, outcome.detail
        );
        if !outcome.identical {
            failures.push(format!("{label}: {}", outcome.detail));
        }
        results.push(Json::Obj(vec![
            ("name".to_string(), name.to_json()),
            ("channel".to_string(), channel.to_json()),
            ("kill_step".to_string(), outcome.kill_step.to_json()),
            (
                "snapshot_bytes".to_string(),
                (outcome.snapshot_bytes as u64).to_json(),
            ),
            ("passes".to_string(), outcome.passes.to_json()),
            ("identical".to_string(), outcome.identical.to_json()),
        ]));
    };

    // Clean channel: all 12 protocols at the golden scenario.
    let clean = Scenario::uniform(150, 4).with_seed(31);
    let clean_cfg = SimConfig::paper(clean.protocol_seed()).with_trace();
    for protocol in all_protocols() {
        let label = format!("{}_clean", protocol.name());
        if let Some(f) = &filter {
            if !label.contains(f.as_str()) {
                continue;
            }
        }
        let outcome = chaos_case(protocol.as_ref(), &clean, &clean_cfg, None, &mut chaos_rng);
        run(
            label,
            protocol.name(),
            "clean",
            outcome,
            &mut results,
            &mut failures,
        );
    }

    // Impaired channel: the four paper protocols under loss + corruption +
    // Gilbert–Elliott bursts, so fault-model state is live at the kill.
    let impaired = Scenario::uniform(150, 4).with_seed(99);
    let impaired_cfg = SimConfig::paper(impaired.protocol_seed())
        .with_trace()
        .with_fault(impaired_fault());
    let paper: Vec<Box<dyn PollingProtocol>> = vec![
        Box::new(HppConfig::default().into_protocol()),
        Box::new(EhppConfig::default().into_protocol()),
        Box::new(TppConfig::default().into_protocol()),
        Box::new(MicConfig::default().into_protocol()),
    ];
    for protocol in paper {
        let label = format!("{}_impaired", protocol.name());
        if let Some(f) = &filter {
            if !label.contains(f.as_str()) {
                continue;
            }
        }
        let outcome = chaos_case(
            protocol.as_ref(),
            &impaired,
            &impaired_cfg,
            None,
            &mut chaos_rng,
        );
        run(
            label,
            protocol.name(),
            "impaired",
            outcome,
            &mut results,
            &mut failures,
        );
    }

    // Recovery case: a 2-round budget forces several passes even on a clean
    // channel; the seeded kill lands inside the multi-pass schedule.
    let label = "HPP_recovery".to_string();
    let skip = filter.as_ref().is_some_and(|f| !label.contains(f.as_str()));
    if !skip {
        let protocol = HppConfig {
            max_rounds: 2,
            ..HppConfig::default()
        }
        .into_protocol();
        let policy = RecoveryPolicy::unbounded();
        let outcome = chaos_case(&protocol, &clean, &clean_cfg, Some(&policy), &mut chaos_rng);
        run(
            label,
            "HPP",
            "recovery",
            outcome,
            &mut results,
            &mut failures,
        );
    }

    if !results.is_empty() {
        let report = Json::Obj(vec![
            ("group".to_string(), "session".to_json()),
            ("results".to_string(), Json::Arr(results)),
        ])
        .to_pretty_string();
        let file = "BENCH_session.json";
        let path = find_target_dir()
            .map(|d| d.join(file))
            .unwrap_or_else(|| file.into());
        match std::fs::write(&path, report + "\n") {
            Ok(()) => println!("report: {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }

    if !failures.is_empty() {
        eprintln!("crash-chaos bit-identity gate FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
