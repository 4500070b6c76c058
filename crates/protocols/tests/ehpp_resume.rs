//! EHPP checkpoints taken mid-inventory resume bit-identically: once at a
//! step boundary where the next step selects a circle, and once inside a
//! circle while the deselected tags sit out in the population's bitset.

use rfid_protocols::{EhppConfig, Session, SessionEnd};
use rfid_system::json::{Json, ToJson};
use rfid_system::{BitVec, SimConfig, SimContext, TagId, TagPopulation};

const N: usize = 10_000;

fn population() -> TagPopulation {
    TagPopulation::new((0..N as u64).map(|i| {
        let id = TagId::from_raw((i * 2_654_435_761) as u32, i.wrapping_mul(0x9E37_79B9));
        (id, BitVec::from_value(i % 4, 2))
    }))
}

/// FNV-1a over the serialized event trace.
fn fnv64(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Report JSON and trace digest of a completed run.
fn finish(session: &mut Session, ctx: &mut SimContext) -> (String, u64) {
    match session.run(ctx) {
        SessionEnd::Complete { report, .. } => {
            (report.to_json().to_string(), fnv64(&ctx.log.to_jsonl()))
        }
        other => panic!("EHPP ended {other:?}"),
    }
}

/// Steps a fresh session until its stepper is in `mode` past the second
/// circle, checkpoints it there, drops everything but the snapshot text,
/// restores and finishes.
fn resumed_from(mode: &str, cfg: &SimConfig) -> (String, u64) {
    let protocol = EhppConfig::default().into_protocol();
    let mut ctx = SimContext::new(population(), cfg);
    let mut session = Session::open(&protocol, &ctx);
    let snap = loop {
        assert!(
            session.run_for(&mut ctx, 1).is_none(),
            "finished before {mode}"
        );
        let snap = session.snapshot(&ctx, cfg);
        let stepper = snap.get("stepper").expect("stepper state");
        let at_mode = stepper.field::<String>("mode").unwrap() == mode;
        let deselected = ctx.population.deselected_words().iter().any(|&w| w != 0);
        if at_mode && ctx.counters.circles >= 2 && deselected == (mode == "inner") {
            break snap.to_string();
        }
    };
    let live_population = ctx.population.clone();
    drop(session);
    drop(ctx);
    let doc = Json::parse(&snap).expect("snapshot parses");
    let (mut ctx, mut session) = Session::restore(&protocol, &doc).expect("snapshot restores");
    assert_eq!(ctx.population, live_population, "{mode}: population state");
    finish(&mut session, &mut ctx)
}

#[test]
fn mid_circle_ehpp_sessions_resume_bit_identically() {
    let cfg = SimConfig::paper(41).with_trace();
    let protocol = EhppConfig::default().into_protocol();
    let mut ctx = SimContext::new(population(), &cfg);
    let golden = finish(&mut Session::open(&protocol, &ctx), &mut ctx);
    for mode in ["select", "inner"] {
        assert_eq!(resumed_from(mode, &cfg), golden, "resumed at a {mode} step");
    }
}
