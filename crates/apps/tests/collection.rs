//! Every way a [`Collection`] can end — complete, stalled, or degraded by
//! the circuit breaker, the pass budget or a deadline — reports exactly
//! the tags it read: coverage, poll count and pass count agree with the
//! collected payloads, and no unread tag has a payload.

use rfid_apps::Collection;
use rfid_protocols::TppConfig;
use rfid_protocols::{EhppConfig, HppConfig, PollingProtocol, RecoveryPolicy, Session, SessionEnd};
use rfid_system::fault::{FaultPlan, KillRule};
use rfid_system::{FaultModel, SimConfig, SimContext};
use rfid_workloads::{PayloadKind, Scenario};

fn end_kind(end: &SessionEnd) -> &'static str {
    match end {
        SessionEnd::Complete { .. } => "complete",
        SessionEnd::Stalled(_) => "stalled",
        SessionEnd::Degraded { cause, .. } => cause.label(),
    }
}

/// Runs `protocol` on a fresh context for `scenario` under `fault`, with an
/// optional policy and deadline, and checks the collection against the
/// context and the reference population.
fn collect_and_check(
    label: &str,
    scenario: &Scenario,
    protocol: &dyn PollingProtocol,
    fault: FaultModel,
    policy: Option<RecoveryPolicy>,
    deadline_us: Option<f64>,
) -> Collection {
    let cfg = SimConfig::paper(scenario.protocol_seed()).with_fault(fault);
    let mut ctx = SimContext::new(scenario.build_population(), &cfg);
    let mut session = Session::open(protocol, &ctx);
    if let Some(policy) = policy {
        session = session.with_policy(policy);
    }
    if let Some(deadline_us) = deadline_us {
        session = session.with_deadline_us(deadline_us);
    }
    let c = Collection::run(session, &mut ctx);

    let n = scenario.n;
    assert_eq!(
        c.end.coverage(),
        c.collected.len() as f64 / n as f64,
        "{label}: coverage"
    );
    assert_eq!(
        c.collected.len() as u64,
        c.report().counters.polls,
        "{label}: polls"
    );
    assert_eq!(
        c.end.passes(),
        ctx.counters.recovery_passes + 1,
        "{label}: passes"
    );
    let reference = scenario.build_population();
    for (_, tag) in c.collected.iter() {
        let (_, expected) = reference.iter().find(|(_, t)| t.id == tag.id).unwrap();
        assert_eq!(tag.info, expected.info, "{label}: payload of {}", tag.id);
    }
    for h in ctx.uncollected_handles() {
        let id = ctx.population.get(h).id;
        assert!(c.payload_of(id).is_none(), "{label}: unread {id} collected");
    }
    c
}

#[test]
fn every_end_kind_reports_what_it_read() {
    let scenario = Scenario::uniform(150, 4)
        .with_seed(31)
        .with_payload(PayloadKind::Random);
    let killed = FaultModel::perfect().with_plan(FaultPlan {
        kill_after_replies: vec![KillRule {
            tag: 3,
            after_replies: 0,
        }],
        ..FaultPlan::none()
    });
    let lossy = FaultModel::perfect().with_downlink_loss(0.3);
    let clean = FaultModel::perfect();
    let hpp = |max_rounds| -> Box<dyn PollingProtocol> {
        Box::new(
            HppConfig {
                max_rounds,
                ..HppConfig::default()
            }
            .into_protocol(),
        )
    };
    let tpp = || -> Box<dyn PollingProtocol> { Box::new(TppConfig::default().into_protocol()) };
    let default_rounds = HppConfig::default().max_rounds;
    let unbounded = Some(RecoveryPolicy::unbounded());
    let two_passes = Some(RecoveryPolicy::unbounded().with_max_passes(2));
    // TPP needs about 87 ms of air time here, so 20 ms stops it early.
    let cases = [
        (
            "recovered lossy channel",
            hpp(8),
            lossy.clone(),
            unbounded,
            None,
            "complete",
        ),
        (
            "generous deadline",
            tpp(),
            clean.clone(),
            None,
            Some(1e7),
            "complete",
        ),
        (
            "killed tag, no policy",
            hpp(default_rounds),
            killed.clone(),
            None,
            None,
            "stalled",
        ),
        (
            "killed tag, recovered",
            hpp(default_rounds),
            killed,
            unbounded,
            None,
            "circuit-open",
        ),
        (
            "pass budget",
            hpp(1),
            lossy,
            two_passes,
            None,
            "out-of-passes",
        ),
        (
            "tight deadline",
            tpp(),
            clean,
            None,
            Some(20_000.0),
            "deadline",
        ),
    ];
    for (label, protocol, fault, policy, deadline_us, ends) in cases {
        let c = collect_and_check(
            label,
            &scenario,
            protocol.as_ref(),
            fault,
            policy,
            deadline_us,
        );
        assert_eq!(end_kind(&c.end), ends, "{label}");
        assert!(!c.collected.is_empty(), "{label}");
        assert_eq!(
            c.collected.len() == scenario.n,
            c.end.is_complete(),
            "{label}"
        );
    }
}

/// EHPP deselects the tags outside the current circle. A deadline that
/// stops a run mid-circle must not report those unread tags as collected.
#[test]
fn ehpp_deadline_collections_hold_only_read_tags() {
    let scenario = Scenario::uniform(5_000, 4).with_seed(3);
    let protocol = EhppConfig::default().into_protocol();
    for deadline_us in [5_000.0, 105_000.0, 505_000.0, 995_000.0] {
        let label = format!("EHPP deadline {deadline_us} µs");
        let fault = FaultModel::perfect();
        let c = collect_and_check(&label, &scenario, &protocol, fault, None, Some(deadline_us));
        assert_eq!(end_kind(&c.end), "deadline", "{label}");
    }
}
