//! Information collection: the paper's driving application (Section II-C).
//!
//! "Collect m-bit information from each tag in a request-response way as
//! quickly as possible." [`run_polling`] builds the population from a
//! [`Scenario`], runs any [`PollingProtocol`] to completion, verifies the
//! polling invariant (every tag interrogated exactly once, nothing missed),
//! and returns the collected `(id, payload)` pairs with the cost report.

use rfid_protocols::{
    run_recovered, PollingError, PollingProtocol, RecoveryOutcome, RecoveryPolicy, Report, Session,
    SessionEnd,
};
use rfid_system::{BitVec, SimConfig, SimContext, TagId};
use rfid_workloads::Scenario;

/// The result of one collection run.
#[derive(Debug, Clone)]
pub struct CollectionOutcome {
    /// Cost report of the run.
    pub report: Report,
    /// Collected `(tag id, payload)` pairs, in tag order.
    pub collected: Vec<(TagId, BitVec)>,
}

impl CollectionOutcome {
    /// Looks up the collected payload of one tag.
    pub fn payload_of(&self, id: TagId) -> Option<&BitVec> {
        self.collected
            .iter()
            .find(|(tid, _)| *tid == id)
            .map(|(_, p)| p)
    }
}

/// Runs `protocol` over the population described by `scenario` and returns
/// the validated outcome.
///
/// # Panics
/// Panics if the protocol fails the polling invariant (a tag was never
/// interrogated, or poll counts disagree) — protocol bugs must not be
/// silently reported as results — or if the run stalls; fault-injecting
/// callers should use [`try_run_polling`] instead.
pub fn run_polling(protocol: &dyn PollingProtocol, scenario: &Scenario) -> CollectionOutcome {
    match try_run_polling(protocol, scenario) {
        Ok(outcome) => outcome,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible variant of [`run_polling`]: a stalled run (possible only under
/// injected faults) comes back as `Err(PollingError::Stalled { .. })` with
/// the partial report intact.
pub fn try_run_polling(
    protocol: &dyn PollingProtocol,
    scenario: &Scenario,
) -> Result<CollectionOutcome, PollingError> {
    let population = scenario.build_population();
    let mut ctx = SimContext::new(population, &SimConfig::paper(scenario.protocol_seed()));
    run_polling_in(protocol, &mut ctx)
}

/// Runs `protocol` over an existing context (for callers that customize the
/// channel, link parameters, or fault model) and returns the validated
/// outcome, or the stall error if the protocol could not converge.
pub fn run_polling_in(
    protocol: &dyn PollingProtocol,
    ctx: &mut SimContext,
) -> Result<CollectionOutcome, PollingError> {
    let report = protocol.try_run(ctx)?;
    ctx.assert_complete();
    let collected = ctx
        .population
        .iter()
        .map(|(_, tag)| (tag.id, tag.info.clone()))
        .collect();
    Ok(CollectionOutcome { report, collected })
}

/// The result of a recovery-wrapped collection run: never an error — a run
/// the recovery layer could not complete degrades to the collected subset.
#[derive(Debug, Clone)]
pub struct RecoveredCollection {
    /// How the recovered run ended (complete or degraded, with pass count
    /// and coverage).
    pub outcome: RecoveryOutcome,
    /// Payloads of the tags actually read, in tag order. Complete runs
    /// collect the whole population; degraded runs the covered subset.
    pub collected: Vec<(TagId, BitVec)>,
}

impl RecoveredCollection {
    /// Looks up the collected payload of one tag.
    pub fn payload_of(&self, id: TagId) -> Option<&BitVec> {
        self.collected
            .iter()
            .find(|(tid, _)| *tid == id)
            .map(|(_, p)| p)
    }
}

/// Runs `protocol` under `policy` on the scenario's population over a
/// perfect channel. For faulted channels build the context yourself and use
/// [`run_polling_recovered_in`].
pub fn run_polling_recovered(
    protocol: &dyn PollingProtocol,
    policy: &RecoveryPolicy,
    scenario: &Scenario,
) -> RecoveredCollection {
    let population = scenario.build_population();
    let mut ctx = SimContext::new(population, &SimConfig::paper(scenario.protocol_seed()));
    run_polling_recovered_in(protocol, policy, &mut ctx)
}

/// Recovery-wrapped variant of [`run_polling_in`]: instead of surfacing
/// [`PollingError::Stalled`], re-polls the uncollected remainder (with
/// backoff) until complete or the circuit breaker opens, then returns
/// whatever was collected. A lossy run therefore yields a complete
/// inventory; only a dead configuration yields a partial one.
pub fn run_polling_recovered_in(
    protocol: &dyn PollingProtocol,
    policy: &RecoveryPolicy,
    ctx: &mut SimContext,
) -> RecoveredCollection {
    let outcome = run_recovered(protocol, policy, ctx);
    if outcome.is_complete() {
        ctx.assert_complete();
    }
    let collected = ctx
        .population
        .iter()
        .filter(|&(h, _)| !ctx.population.is_active(h))
        .map(|(_, tag)| (tag.id, tag.info.clone()))
        .collect();
    RecoveredCollection { outcome, collected }
}

/// The result of a deadline-budgeted collection run: the session engine's
/// typed ending, plus whatever payloads were read before it ended.
#[derive(Debug, Clone)]
pub struct DeadlineCollection {
    /// How the session ended — `Complete`, or `Degraded` with
    /// [`rfid_protocols::DegradeCause::Deadline`] and the partial coverage
    /// when the sim-time budget ran out first.
    pub end: SessionEnd,
    /// Payloads of the tags actually read, in tag order.
    pub collected: Vec<(TagId, BitVec)>,
}

impl DeadlineCollection {
    /// Looks up the collected payload of one tag.
    pub fn payload_of(&self, id: TagId) -> Option<&BitVec> {
        self.collected
            .iter()
            .find(|(tid, _)| *tid == id)
            .map(|(_, p)| p)
    }
}

/// Runs `protocol` with a sim-time budget: the collection stops — with a
/// typed `Degraded` ending and the partial inventory, never a panic or a
/// hang — once the air-interface clock passes `deadline_us`. An optional
/// recovery `policy` lets lossy runs re-poll within the budget. The
/// real-world shape: "collect what you can in the 2 s the conveyor gives
/// you".
pub fn run_polling_with_deadline(
    protocol: &dyn PollingProtocol,
    policy: Option<&RecoveryPolicy>,
    deadline_us: f64,
    ctx: &mut SimContext,
) -> DeadlineCollection {
    let mut session = Session::open(protocol, ctx).with_deadline_us(deadline_us);
    if let Some(policy) = policy {
        session = session.with_policy(policy.clone());
    }
    let end = session.run(ctx);
    if end.is_complete() {
        ctx.assert_complete();
    }
    let collected = ctx
        .population
        .iter()
        .filter(|&(h, _)| !ctx.population.is_active(h))
        .map(|(_, tag)| (tag.id, tag.info.clone()))
        .collect();
    DeadlineCollection { end, collected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_baselines::{CppConfig, MicConfig};
    use rfid_protocols::{EhppConfig, HppConfig, TppConfig};
    use rfid_workloads::PayloadKind;

    #[test]
    fn collects_correct_payloads_with_every_protocol() {
        let scenario = Scenario::uniform(200, 16)
            .with_seed(7)
            .with_payload(PayloadKind::Random);
        let protocols: Vec<Box<dyn PollingProtocol>> = vec![
            Box::new(HppConfig::default().into_protocol()),
            Box::new(EhppConfig::default().into_protocol()),
            Box::new(TppConfig::default().into_protocol()),
            Box::new(CppConfig::default().into_protocol()),
            Box::new(MicConfig::default().into_protocol()),
        ];
        let reference = scenario.build_population();
        for p in &protocols {
            let outcome = run_polling(p.as_ref(), &scenario);
            assert_eq!(outcome.collected.len(), 200, "{}", p.name());
            for (_, tag) in reference.iter() {
                assert_eq!(
                    outcome.payload_of(tag.id),
                    Some(&tag.info),
                    "{} corrupted payload of {}",
                    p.name(),
                    tag.id
                );
            }
        }
    }

    #[test]
    fn tpp_is_fastest_of_the_polling_family() {
        let scenario = Scenario::uniform(2_000, 1).with_seed(3);
        let tpp = run_polling(&TppConfig::default().into_protocol(), &scenario);
        let hpp = run_polling(&HppConfig::default().into_protocol(), &scenario);
        let ehpp = run_polling(&EhppConfig::default().into_protocol(), &scenario);
        let cpp = run_polling(&CppConfig::default().into_protocol(), &scenario);
        assert!(tpp.report.total_time < ehpp.report.total_time);
        assert!(ehpp.report.total_time < hpp.report.total_time);
        assert!(hpp.report.total_time < cpp.report.total_time);
    }

    #[test]
    fn payload_lookup_misses_unknown_ids() {
        let scenario = Scenario::uniform(10, 1).with_seed(1);
        let outcome = run_polling(&TppConfig::default().into_protocol(), &scenario);
        assert!(outcome
            .payload_of(TagId::from_raw(u32::MAX, u64::MAX))
            .is_none());
    }

    #[test]
    fn recovered_collection_completes_on_a_lossy_channel() {
        use rfid_system::{FaultModel, SimConfig, SimContext};
        let scenario = Scenario::uniform(300, 8)
            .with_seed(21)
            .with_payload(PayloadKind::Random);
        let protocol = HppConfig {
            max_rounds: 8,
            ..HppConfig::default()
        }
        .into_protocol();
        let cfg = SimConfig::paper(scenario.protocol_seed())
            .with_fault(FaultModel::perfect().with_downlink_loss(0.3));
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        let r = run_polling_recovered_in(&protocol, &RecoveryPolicy::unbounded(), &mut ctx);
        assert!(r.outcome.is_complete(), "loss 0.3 must recover fully");
        assert_eq!(r.collected.len(), 300);
        let reference = scenario.build_population();
        for (_, tag) in reference.iter() {
            assert_eq!(r.payload_of(tag.id), Some(&tag.info));
        }
    }

    #[test]
    fn deadline_collection_degrades_with_the_partial_inventory() {
        use rfid_protocols::DegradeCause;
        use rfid_system::{SimConfig, SimContext};
        let scenario = Scenario::uniform(150, 4)
            .with_seed(31)
            .with_payload(PayloadKind::Random);
        let protocol = TppConfig::default().into_protocol();
        let cfg = SimConfig::paper(scenario.protocol_seed());

        // TPP needs ~87 ms of air time here; a 20 ms budget must stop early.
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        let r = run_polling_with_deadline(&protocol, None, 20_000.0, &mut ctx);
        let SessionEnd::Degraded {
            coverage, cause, ..
        } = r.end
        else {
            panic!("expected Degraded, got {:?}", r.end);
        };
        assert_eq!(cause, DegradeCause::Deadline);
        assert!(!r.collected.is_empty() && r.collected.len() < 150);
        assert!((coverage - r.collected.len() as f64 / 150.0).abs() < 1e-12);
        // The partial inventory still carries the right payloads.
        let reference = scenario.build_population();
        for (id, payload) in &r.collected {
            let expected = reference.iter().find(|(_, t)| t.id == *id).unwrap().1;
            assert_eq!(payload, &expected.info);
        }

        // A generous budget collects everything.
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        let r = run_polling_with_deadline(&protocol, None, 10_000_000.0, &mut ctx);
        assert!(r.end.is_complete());
        assert_eq!(r.collected.len(), 150);
    }

    #[test]
    fn recovered_collection_degrades_to_the_covered_subset() {
        use rfid_system::fault::{FaultPlan, KillRule};
        use rfid_system::{FaultModel, SimConfig, SimContext};
        let scenario = Scenario::uniform(60, 4).with_seed(5);
        let plan = FaultPlan {
            kill_after_replies: vec![KillRule {
                tag: 3,
                after_replies: 0,
            }],
            ..FaultPlan::none()
        };
        let cfg = SimConfig::paper(scenario.protocol_seed())
            .with_fault(FaultModel::perfect().with_plan(plan));
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        let protocol = HppConfig::default().into_protocol();
        let r = run_polling_recovered_in(&protocol, &RecoveryPolicy::unbounded(), &mut ctx);
        assert!(!r.outcome.is_complete());
        assert_eq!(r.collected.len(), 59, "everything but the dead tag");
        let dead_id = ctx.population.get(3).id;
        assert!(r.payload_of(dead_id).is_none());
        assert!((r.outcome.coverage() - 59.0 / 60.0).abs() < 1e-12);
    }
}
