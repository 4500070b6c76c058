//! Full-stack determinism (same seed ⇒ identical runs) and robustness
//! under channel impairments.

use fast_rfid_polling::apps::info_collect::run_polling;
use fast_rfid_polling::baselines::MicConfig;
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::{Channel, SimConfig, SimContext};

#[test]
fn identical_seeds_produce_identical_runs() {
    let protocols: Vec<Box<dyn PollingProtocol>> = vec![
        Box::new(HppConfig::default().into_protocol()),
        Box::new(EhppConfig::default().into_protocol()),
        Box::new(TppConfig::default().into_protocol()),
        Box::new(MicConfig::default().into_protocol()),
    ];
    for protocol in &protocols {
        let scenario = Scenario::uniform(600, 4).with_seed(123);
        let a = run_polling(protocol.as_ref(), &scenario);
        let b = run_polling(protocol.as_ref(), &scenario);
        assert_eq!(
            a.report().total_time,
            b.report().total_time,
            "{} not deterministic",
            protocol.name()
        );
        assert_eq!(
            a.report().counters.reader_bits,
            b.report().counters.reader_bits
        );
        assert_eq!(a.collected.len(), b.collected.len());
        for (x, y) in a.collected.iter().zip(b.collected.iter()) {
            assert_eq!(x, y);
        }
    }
}

#[test]
fn different_seeds_change_the_run_but_not_the_result() {
    let s1 = Scenario::uniform(500, 2).with_seed(1);
    let s2 = Scenario::uniform(500, 2).with_seed(2);
    let a = run_polling(&TppConfig::default().into_protocol(), &s1);
    let b = run_polling(&TppConfig::default().into_protocol(), &s2);
    assert_ne!(a.report().total_time, b.report().total_time);
    assert_eq!(a.report().counters.polls, b.report().counters.polls);
}

#[test]
fn protocols_survive_heavy_loss() {
    for loss in [0.1f64, 0.3, 0.5] {
        let protocols: Vec<Box<dyn PollingProtocol>> = vec![
            Box::new(HppConfig::default().into_protocol()),
            Box::new(EhppConfig::default().into_protocol()),
            Box::new(TppConfig::default().into_protocol()),
            Box::new(MicConfig::default().into_protocol()),
        ];
        for protocol in &protocols {
            let scenario = Scenario::uniform(200, 1).with_seed(77);
            let population = scenario.build_population();
            let cfg = SimConfig::paper(scenario.protocol_seed()).with_channel(Channel::lossy(loss));
            let mut ctx = SimContext::new(population, &cfg);
            let report = protocol
                .try_run(&mut ctx)
                .unwrap_or_else(|e| panic!("{} at loss {loss}: {e}", protocol.name()));
            ctx.assert_complete();
            assert_eq!(
                report.counters.polls,
                200,
                "{} at loss {loss}",
                protocol.name()
            );
            // Direct polls record losses explicitly; MIC's frame slots see
            // a lost reply as an empty slot instead.
            assert!(
                report.counters.lost_replies > 0 || report.counters.empty_slots > 0,
                "{} at loss {loss} saw no channel impairment",
                protocol.name()
            );
        }
    }
}

#[test]
fn loss_increases_cost_monotonically_in_expectation() {
    let mut previous = 0.0;
    for loss in [0.0f64, 0.2, 0.4] {
        let mut acc = 0.0;
        for seed in 0..5u64 {
            let scenario = Scenario::uniform(300, 1).with_seed(seed);
            let population = scenario.build_population();
            let cfg = SimConfig::paper(scenario.protocol_seed()).with_channel(Channel::lossy(loss));
            let mut ctx = SimContext::new(population, &cfg);
            let report = TppConfig::default()
                .into_protocol()
                .try_run(&mut ctx)
                .expect("completes");
            ctx.assert_complete();
            acc += report.total_time.as_secs();
        }
        let mean = acc / 5.0;
        assert!(
            mean > previous,
            "loss {loss}: mean {mean} not above {previous}"
        );
        previous = mean;
    }
}

#[test]
fn capture_effect_only_helps_aloha() {
    use fast_rfid_polling::baselines::FsaConfig;
    let scenario = Scenario::uniform(1_000, 1).with_seed(5);
    let run_fsa = |capture: f64| {
        let population = scenario.build_population();
        let cfg = SimConfig::paper(scenario.protocol_seed()).with_channel(Channel {
            reply_loss_rate: 0.0,
            capture_prob: capture,
            capture_any: false,
        });
        let mut ctx = SimContext::new(population, &cfg);
        let report = FsaConfig::default()
            .into_protocol()
            .try_run(&mut ctx)
            .expect("completes");
        ctx.assert_complete();
        report.total_time
    };
    let plain = run_fsa(0.0);
    let captured = run_fsa(0.7);
    assert!(
        captured < plain,
        "capture {captured} not faster than plain {plain}"
    );
}
