//! Crash-chaos bit-identity gate for the resumable session engine.
//!
//! For every protocol (clean channel) and the four paper protocols
//! (impaired channel), runs the scenario twice: once uninterrupted, and
//! once **killed at a seeded slot boundary** — the session is serialized
//! to a JSON snapshot, the process image is discarded (session + context
//! dropped), and the snapshot is parsed and restored into a fresh context
//! which then runs to completion. The final `Report` JSON, the FNV-1a
//! digest of the full event trace and the pass count must be
//! bit-identical between the two runs; any drift means checkpoint/restore
//! perturbed an RNG draw, a float accumulation, or a trace event. A
//! recovery case (tiny round budget, unbounded passes) additionally kills
//! the session *between recovery passes* with backoff charged.

use std::collections::BTreeSet;

use rfid_baselines::{CodedPollingConfig, CppConfig, EcppConfig, FsaConfig, LowerBound, MicConfig};
use rfid_bench::fnv64;
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

/// Opens a session, with `policy` installed when given.
fn open(
    protocol: &dyn PollingProtocol,
    ctx: &SimContext,
    policy: Option<&RecoveryPolicy>,
) -> Session {
    let session = Session::open(protocol, ctx);
    match policy {
        Some(p) => session.with_policy(*p),
        None => session,
    }
}

/// Runs the kill/snapshot/restore/finish cycle and compares it against the
/// uninterrupted run. The reference run is driven one step at a time to
/// count the *killable* boundaries, and the seeded kill point is drawn
/// from `[1, boundaries]` — so every case genuinely crashes mid-run and
/// exercises snapshot → parse → restore, never a degenerate full run.
/// Returns the restored run's pass count, or what differed.
fn chaos_case(
    protocol: &dyn PollingProtocol,
    scenario: &Scenario,
    cfg: &SimConfig,
    policy: Option<&RecoveryPolicy>,
    rng: &mut Xoshiro256,
) -> Result<u64, String> {
    // Uninterrupted reference, stepped manually to count kill boundaries.
    let mut ctx = SimContext::new(scenario.build_population(), cfg);
    let mut session = open(protocol, &ctx, policy);
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
        return Err(format!("reference run did not complete: {reference:?}"));
    };
    let ref_json = ref_report.to_json().to_string();
    let ref_trace = fnv64(&ctx.log.to_jsonl());
    let kill_step = 1 + rng.below(boundaries.max(1));

    // Killed run: crash at the seeded step, survive only as a JSON string.
    let mut ctx = SimContext::new(scenario.build_population(), cfg);
    let mut session = open(protocol, &ctx, policy);
    if let Some(end) = session.run_for(&mut ctx, kill_step) {
        return Err(format!(
            "kill at step {kill_step} of {boundaries} landed after the run ended: {end:?}"
        ));
    }
    let snap = session.snapshot(&ctx, cfg).to_string();
    drop(session);
    drop(ctx);
    if snap.is_empty() {
        return Err(format!("kill at step {kill_step}: empty snapshot"));
    }
    let doc = Json::parse(&snap).map_err(|e| format!("snapshot failed to parse: {e}"))?;
    let (mut ctx, mut session) =
        Session::restore(protocol, &doc).map_err(|e| format!("snapshot failed to restore: {e}"))?;
    let end = session.run(&mut ctx);
    let SessionEnd::Complete { report, passes } = end else {
        return Err(format!("restored run did not complete: {end:?}"));
    };

    let mut mismatches = Vec::new();
    if report.to_json().to_string() != ref_json {
        mismatches.push("report JSON".to_string());
    }
    let trace = fnv64(&ctx.log.to_jsonl());
    if trace != ref_trace {
        mismatches.push(format!("trace digest {trace:#018x} != {ref_trace:#018x}"));
    }
    if passes != ref_passes {
        mismatches.push(format!("passes {passes} != {ref_passes}"));
    }
    if mismatches.is_empty() {
        Ok(passes)
    } else {
        Err(format!(
            "kill at step {kill_step}: {}",
            mismatches.join("; ")
        ))
    }
}

#[test]
fn the_clean_grid_covers_twelve_distinct_protocols() {
    let names: BTreeSet<&str> = all_protocols().iter().map(|p| p.name()).collect();
    assert_eq!(names.len(), 12, "{names:?}");
}

#[test]
fn every_seeded_kill_restores_bit_identically() {
    // Seeded kill-point stream: reproducible chaos, different per case.
    let mut chaos_rng = Xoshiro256::seed_from_u64(0x5E55_1017);
    let mut failures: Vec<String> = Vec::new();

    // Clean channel: all 12 protocols at the golden scenario.
    let clean = Scenario::uniform(150, 4).with_seed(31);
    let clean_cfg = SimConfig::paper(clean.protocol_seed()).with_trace();
    for protocol in all_protocols() {
        if let Err(e) = chaos_case(protocol.as_ref(), &clean, &clean_cfg, None, &mut chaos_rng) {
            failures.push(format!("{}_clean: {e}", protocol.name()));
        }
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
        let outcome = chaos_case(
            protocol.as_ref(),
            &impaired,
            &impaired_cfg,
            None,
            &mut chaos_rng,
        );
        if let Err(e) = outcome {
            failures.push(format!("{}_impaired: {e}", protocol.name()));
        }
    }

    // Recovery case: a 2-round budget forces several passes even on a clean
    // channel; the seeded kill lands inside the multi-pass schedule.
    let protocol = HppConfig {
        max_rounds: 2,
        ..HppConfig::default()
    }
    .into_protocol();
    let policy = RecoveryPolicy::unbounded();
    match chaos_case(&protocol, &clean, &clean_cfg, Some(&policy), &mut chaos_rng) {
        Ok(passes) if passes <= 1 => {
            failures.push(format!("HPP_recovery: {passes} pass, expected several"))
        }
        Ok(_) => {}
        Err(e) => failures.push(format!("HPP_recovery: {e}")),
    }

    assert!(
        failures.is_empty(),
        "crash-chaos bit-identity gate failed:\n  {}",
        failures.join("\n  ")
    );
}
