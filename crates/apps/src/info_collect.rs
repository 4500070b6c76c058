//! Information collection: the paper's driving application (Section II-C).
//!
//! "Collect m-bit information from each tag in a request-response way as
//! quickly as possible." [`Collection::run`] drives one configured
//! [`Session`] — bare, recovering, deadline-budgeted, or any mix — to its
//! end, verifies the polling invariant when the run completes (every tag
//! interrogated exactly once, nothing missed), and returns the session's
//! [`SessionEnd`] together with the IDs and payloads actually read, copied
//! out column by column.
//! [`run_polling`] is the clean-channel shorthand: it builds the
//! population from a [`Scenario`] and insists that the run completes.

use rfid_protocols::{PollingProtocol, Report, Session, SessionEnd};
use rfid_system::{BitSlice, SimConfig, SimContext, TagId, TagPopulation};
use rfid_workloads::Scenario;

/// One collection run: how the session ended, plus the payloads it read.
#[derive(Debug, Clone)]
pub struct Collection {
    /// How the session ended, with its (possibly partial) report, pass
    /// count and coverage.
    pub end: SessionEnd,
    /// The ID and payload of every tag actually read, in handle order, as
    /// a population of its own: the whole population for a complete run,
    /// the covered subset otherwise.
    pub collected: TagPopulation,
}

impl Collection {
    /// Runs `session` on `ctx` to its end and gathers what it read.
    ///
    /// # Panics
    /// Panics if a run that ended `Complete` fails the polling invariant (a
    /// tag was never interrogated, or poll counts disagree) — protocol bugs
    /// must not be silently reported as results.
    pub fn run(mut session: Session, ctx: &mut SimContext) -> Collection {
        let end = session.run(ctx);
        // Free the stepper's buffers before the payloads are copied, so the
        // two never count against peak memory together.
        drop(session);
        if end.is_complete() {
            ctx.assert_complete();
        }
        // Only asleep tags were read. Active and EHPP-deselected tags were
        // not: they are exactly `SimContext::uncollected_handles`.
        let collected = ctx.population.subset(&ctx.population.asleep_words());
        Collection { end, collected }
    }

    /// The run's (possibly partial) cost report.
    pub fn report(&self) -> &Report {
        self.end.report()
    }

    /// Looks up the collected payload of one tag.
    pub fn payload_of(&self, id: TagId) -> Option<BitSlice<'_>> {
        self.collected
            .iter()
            .find(|(_, tag)| tag.id == id)
            .map(|(_, tag)| tag.info)
    }
}

/// Runs `protocol` over the population described by `scenario` on the
/// paper's clean channel and returns the validated collection.
///
/// # Panics
/// Panics if the run stalls (with the [`rfid_protocols::PollingError`]
/// display) or fails the polling invariant. Callers that inject faults,
/// recover or budget time build the context and session themselves and use
/// [`Collection::run`].
pub fn run_polling(protocol: &dyn PollingProtocol, scenario: &Scenario) -> Collection {
    let config = SimConfig::paper(scenario.protocol_seed());
    let mut ctx = SimContext::new(scenario.build_population(), &config);
    let collection = Collection::run(Session::open(protocol, &ctx), &mut ctx);
    if let SessionEnd::Stalled(e) = &collection.end {
        panic!("{e}");
    }
    collection
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
                    Some(tag.info),
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
        let time = |p: &dyn PollingProtocol| run_polling(p, &scenario).report().total_time;
        let tpp = time(&TppConfig::default().into_protocol());
        let hpp = time(&HppConfig::default().into_protocol());
        let ehpp = time(&EhppConfig::default().into_protocol());
        let cpp = time(&CppConfig::default().into_protocol());
        assert!(tpp < ehpp);
        assert!(ehpp < hpp);
        assert!(hpp < cpp);
    }

    #[test]
    fn payload_lookup_misses_unknown_ids() {
        let scenario = Scenario::uniform(10, 1).with_seed(1);
        let outcome = run_polling(&TppConfig::default().into_protocol(), &scenario);
        assert!(outcome
            .payload_of(TagId::from_raw(u32::MAX, u64::MAX))
            .is_none());
    }
}
