//! The trace→counters reconciliation validator.
//!
//! Every [`rfid_system::Counters`] bump in the simulator has a matching
//! trace event, so replaying a trace must recompute the run's counters
//! exactly. [`reconcile`] checks that invariant field by field; the CI
//! reconciliation slice (`obs_report --reconcile`) runs it against one
//! seeded run of every protocol. A mismatch always means an
//! instrumentation bug — a counter bumped without an event, an event
//! recorded without a bump, or a truncated trace — never legitimate noise.
//!
//! One field is exempt: `tag_listen_us` is a continuous time integral
//! (every elapsed interval weighted by the live listener count), not a
//! discrete event sum, so it cannot be replayed from events and is not
//! compared (DESIGN.md §9).

use std::fmt;

use rfid_system::{Counters, Event, EventLog, TimedEvent};

/// Replays events into the counters they imply.
///
/// The mapping mirrors the simulator's accounting: broadcast bits split by
/// [`rfid_system::BroadcastKind`] into total/QueryRep/vector charges,
/// [`Event::VectorCharged`] covers protocols that attribute vector bits on
/// success (Query Tree, alien-resistant polling), and every remaining
/// counter is a straight event count. `tag_listen_us` stays zero.
pub fn counters_from_events<'a, I>(events: I) -> Counters
where
    I: IntoIterator<Item = &'a TimedEvent>,
{
    let mut c = Counters::default();
    for te in events {
        match te.event {
            Event::RoundStarted { .. } => c.rounds += 1,
            Event::CircleStarted { .. } => c.circles += 1,
            Event::ReaderBroadcast { what, bits } => {
                c.reader_bits += bits;
                if what.counts_as_query_rep() {
                    c.query_rep_bits += bits;
                }
                if what.counts_as_vector() {
                    c.vector_bits += bits;
                }
            }
            Event::TagPolled { .. } => c.polls += 1,
            Event::TagReply { bits, .. } => c.tag_bits += bits,
            Event::VectorCharged { bits } => c.vector_bits += bits,
            Event::SlotEmpty => c.empty_slots += 1,
            Event::SlotCollision { .. } => c.collision_slots += 1,
            Event::ReplyLost { .. } => c.lost_replies += 1,
            Event::DownlinkLost { .. } => c.downlink_losses += 1,
            Event::ReplyCorrupted { .. } => c.corrupted_replies += 1,
            Event::Retransmission { .. } => c.retransmissions += 1,
            Event::DesyncRecovered { .. } => c.desync_recoveries += 1,
            Event::StallTick { .. } => {}
            Event::RecoveryPassStarted { .. } => c.recovery_passes += 1,
            Event::BackoffWaited { us, .. } => {
                c.recovery_backoff_us = c.recovery_backoff_us.saturating_add(us)
            }
            Event::CircuitOpened { .. } => {}
        }
    }
    c
}

/// Why a reconciliation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconcileError {
    /// The log never recorded (reconciling a disabled trace proves
    /// nothing).
    TraceDisabled,
    /// The ring buffer evicted events; the replay would be incomplete.
    TraceTruncated {
        /// Number of evicted events.
        dropped: u64,
        /// Number of events still in the ring.
        retained: u64,
    },
    /// A counter disagrees between replay and run.
    Mismatch {
        /// Name of the disagreeing `Counters` field.
        field: &'static str,
        /// Value recomputed from the trace.
        from_trace: u64,
        /// Value the run accumulated.
        from_run: u64,
    },
}

impl fmt::Display for ReconcileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconcileError::TraceDisabled => {
                write!(f, "cannot reconcile: the event log is disabled")
            }
            ReconcileError::TraceTruncated { dropped, retained } => write!(
                f,
                "cannot reconcile: the ring buffer dropped {dropped} of {total} events \
                 ({retained} retained) — a replay would undercount every counter",
                total = dropped + retained
            ),
            ReconcileError::Mismatch {
                field,
                from_trace,
                from_run,
            } => write!(
                f,
                "counter mismatch on `{field}`: trace replays {from_trace}, run counted {from_run}"
            ),
        }
    }
}

impl std::error::Error for ReconcileError {}

/// A counter field's name and accessor.
type CounterField = (&'static str, fn(&Counters) -> u64);

/// The discrete (event-countable) counter fields, with accessors.
const FIELDS: [CounterField; 16] = [
    ("reader_bits", |c| c.reader_bits),
    ("tag_bits", |c| c.tag_bits),
    ("vector_bits", |c| c.vector_bits),
    ("query_rep_bits", |c| c.query_rep_bits),
    ("polls", |c| c.polls),
    ("rounds", |c| c.rounds),
    ("circles", |c| c.circles),
    ("empty_slots", |c| c.empty_slots),
    ("collision_slots", |c| c.collision_slots),
    ("lost_replies", |c| c.lost_replies),
    ("downlink_losses", |c| c.downlink_losses),
    ("corrupted_replies", |c| c.corrupted_replies),
    ("desync_recoveries", |c| c.desync_recoveries),
    ("retransmissions", |c| c.retransmissions),
    ("recovery_passes", |c| c.recovery_passes),
    ("recovery_backoff_us", |c| c.recovery_backoff_us),
];

/// Compares a replayed counter set against a run's, field by field (all
/// fields except the continuous `tag_listen_us`). Returns the first
/// mismatch.
pub fn reconcile_counters(
    from_trace: &Counters,
    from_run: &Counters,
) -> Result<(), ReconcileError> {
    for (field, get) in FIELDS {
        let (t, r) = (get(from_trace), get(from_run));
        if t != r {
            return Err(ReconcileError::Mismatch {
                field,
                from_trace: t,
                from_run: r,
            });
        }
    }
    Ok(())
}

/// Replays `log` and checks the result against `counters` bit-for-bit.
///
/// Refuses disabled logs (a vacuous pass) and ring-truncated logs — the
/// error carries the drop and retention counts, so a ring-mode trace
/// surfaces "N events were evicted" instead of the bare counter mismatch a
/// partial replay would fabricate.
pub fn reconcile(log: &EventLog, counters: &Counters) -> Result<(), ReconcileError> {
    if !log.is_enabled() {
        return Err(ReconcileError::TraceDisabled);
    }
    if log.dropped() > 0 {
        return Err(ReconcileError::TraceTruncated {
            dropped: log.dropped(),
            retained: log.len() as u64,
        });
    }
    reconcile_counters(&counters_from_events(log.events()), counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_c1g2::Micros;
    use rfid_system::BroadcastKind;

    fn at(us: f64) -> Micros {
        Micros::from_us(us)
    }

    #[test]
    fn replay_attributes_broadcast_bits_by_kind() {
        let mut log = EventLog::enabled();
        log.record(at(0.0), || Event::ReaderBroadcast {
            what: BroadcastKind::QueryRep,
            bits: 4,
        });
        log.record(at(1.0), || Event::ReaderBroadcast {
            what: BroadcastKind::PollingVector,
            bits: 7,
        });
        log.record(at(2.0), || Event::ReaderBroadcast {
            what: BroadcastKind::Probe,
            bits: 9,
        });
        log.record(at(3.0), || Event::VectorCharged { bits: 2 });
        let c = counters_from_events(log.events());
        assert_eq!(c.reader_bits, 20);
        assert_eq!(c.query_rep_bits, 4);
        assert_eq!(c.vector_bits, 9, "PollingVector bits + VectorCharged");
    }

    #[test]
    fn reconcile_rejects_disabled_and_truncated_logs() {
        let counters = Counters::default();
        assert_eq!(
            reconcile(&EventLog::disabled(), &counters),
            Err(ReconcileError::TraceDisabled)
        );
        let mut ring = EventLog::ring(1);
        ring.record(at(0.0), || Event::SlotEmpty);
        ring.record(at(1.0), || Event::SlotEmpty);
        assert_eq!(
            reconcile(&ring, &counters),
            Err(ReconcileError::TraceTruncated {
                dropped: 1,
                retained: 1
            })
        );
    }

    #[test]
    fn truncated_ring_never_reports_a_bare_mismatch() {
        // A ring trace whose retained events would replay into counters
        // that disagree with the run: the diagnostic must blame the drops,
        // not fabricate a counter mismatch from the partial replay.
        let mut ring = EventLog::ring(2);
        for i in 0..5 {
            ring.record(at(i as f64), || Event::SlotEmpty);
        }
        let counters = Counters {
            empty_slots: 5,
            ..Counters::default()
        };
        let err = reconcile(&ring, &counters).unwrap_err();
        assert!(
            matches!(
                err,
                ReconcileError::TraceTruncated {
                    dropped: 3,
                    retained: 2
                }
            ),
            "got {err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("dropped 3"), "says how many dropped: {msg}");
        assert!(msg.contains("2 retained"), "says how many survive: {msg}");
        assert!(!msg.contains("mismatch"), "no bare mismatch: {msg}");
    }

    #[test]
    fn mismatch_names_the_field() {
        let mut log = EventLog::enabled();
        log.record(at(0.0), || Event::SlotEmpty);
        let counters = Counters::default();
        let err = reconcile(&log, &counters).unwrap_err();
        assert_eq!(
            err,
            ReconcileError::Mismatch {
                field: "empty_slots",
                from_trace: 1,
                from_run: 0,
            }
        );
        assert!(err.to_string().contains("empty_slots"));
    }

    #[test]
    fn recovery_events_replay_into_recovery_counters() {
        let mut log = EventLog::enabled();
        log.record(at(0.0), || Event::BackoffWaited { pass: 1, us: 1_500 });
        log.record(at(1.0), || Event::RecoveryPassStarted {
            pass: 2,
            uncollected: 7,
        });
        log.record(at(2.0), || Event::CircuitOpened {
            passes: 2,
            uncollected: 7,
        });
        let c = counters_from_events(log.events());
        assert_eq!(c.recovery_passes, 1);
        assert_eq!(c.recovery_backoff_us, 1_500);
    }

    #[test]
    fn tag_listen_us_is_exempt() {
        let log = EventLog::enabled();
        let counters = Counters {
            tag_listen_us: 123.456,
            ..Counters::default()
        };
        assert_eq!(reconcile(&log, &counters), Ok(()));
    }
}
