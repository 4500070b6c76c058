//! JSON round-trip coverage for every `rfid-system` type that used to
//! derive `Serialize`/`Deserialize` — the replacement must persist the
//! same information the serde derives did.

use rfid_c1g2::Micros;
use rfid_system::json::{from_json_str, to_json_string, FromJson, Json, ToJson};
use rfid_system::{
    BitVec, BroadcastKind, Channel, Counters, Event, EventLog, FaultModel, FaultPlan,
    GilbertElliott, KillRule, RoundRange, SimConfig, SlotOutcome, TagId, TagPopulation, TagState,
    TimedEvent,
};

fn round_trip<T>(value: &T)
where
    T: ToJson + FromJson + PartialEq + std::fmt::Debug,
{
    let text = to_json_string(value);
    let back: T = from_json_str(&text).unwrap_or_else(|e| panic!("{e} in {text}"));
    assert_eq!(&back, value, "round-trip through {text}");
    // Pretty output parses to the same value.
    let pretty = value.to_json().to_pretty_string();
    let back: T = from_json_str(&pretty).unwrap();
    assert_eq!(&back, value, "pretty round-trip");
}

#[test]
fn bitvec_round_trips_as_bit_string() {
    round_trip(&BitVec::new());
    round_trip(&BitVec::from_str_bits("00101"));
    let long: String = (0..200)
        .map(|i| if i % 3 == 0 { '1' } else { '0' })
        .collect();
    round_trip(&BitVec::from_str_bits(&long));
    assert_eq!(to_json_string(&BitVec::from_str_bits("00101")), "\"00101\"");
    assert!(from_json_str::<BitVec>("\"01x\"").is_err());
}

#[test]
fn tag_id_round_trips_as_urn() {
    let id = TagId::from_raw(0xDEAD_BEEF, 0x0123_4567_89AB_CDEF);
    round_trip(&id);
    assert_eq!(to_json_string(&id), "\"urn:epc:deadbeef.0123456789abcdef\"");
    round_trip(&TagId::from_raw(0, 0));
    assert!(from_json_str::<TagId>("\"urn:epc:zz.00\"").is_err());
    assert!(from_json_str::<TagId>("\"deadbeef.0123456789abcdef\"").is_err());
}

#[test]
fn tag_and_state_round_trip() {
    for state in [TagState::Active, TagState::Asleep, TagState::Deselected] {
        round_trip(&state);
    }
    let (id, info) = (TagId::from_raw(7, 42), BitVec::from_str_bits("1011"));
    // A tag's ID, payload and state live in its population's columns, so a
    // slept tag round-trips through them.
    let mut pop = TagPopulation::new(vec![(id, info.clone())]);
    pop.sleep(0);
    round_trip(&pop);
    let back: TagPopulation = from_json_str(&to_json_string(&pop)).unwrap();
    assert_eq!(back.state(0), TagState::Asleep);
    assert_eq!(back.get(0).id, id);
    assert_eq!(back.get(0).info, info);
}

#[test]
fn population_round_trips_with_mixed_states() {
    let mut pop = TagPopulation::sequential(6, |i| BitVec::from_value(i as u64 % 4, 2));
    pop.sleep(1);
    pop.sleep(4);
    pop.deselect(2);
    let back: TagPopulation = from_json_str(&to_json_string(&pop)).unwrap();
    assert_eq!(back, pop);
    // The derived counts must be rebuilt, not trusted from the document.
    assert_eq!(back.active_count(), pop.active_count());
    assert_eq!(back.asleep_count(), pop.asleep_count());
    assert_eq!(back.listening_count(), pop.listening_count());
}

#[test]
fn population_rejects_duplicate_ids() {
    let tag = per_tag_object(TagId::from_raw(0, 1), BitVec::new());
    let doc = Json::Arr(vec![tag.clone(), tag]);
    assert!(from_json_str::<TagPopulation>(&doc.to_string()).is_err());
}

/// One tag as the `{id, info}` object older per-tag snapshots carried.
fn per_tag_object(id: TagId, info: BitVec) -> Json {
    Json::Obj(vec![
        ("id".to_string(), id.to_json()),
        ("info".to_string(), info.to_json()),
    ])
}

/// `doc` with field `key` replaced by `value`.
fn with_field(doc: &Json, key: &str, value: Json) -> Json {
    let Json::Obj(fields) = doc else {
        panic!("expected an object, got {doc}");
    };
    let mut fields = fields.clone();
    let slot = fields
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no field '{key}'"));
    slot.1 = value;
    Json::Obj(fields)
}

/// The error a population document is rejected with.
fn population_error(doc: &Json) -> String {
    match TagPopulation::from_json(doc) {
        Ok(pop) => panic!(
            "accepted a malformed population of {} tags: {doc}",
            pop.len()
        ),
        Err(e) => e.to_string(),
    }
}

fn mixed_state_population() -> TagPopulation {
    let mut pop = TagPopulation::sequential(6, |i| BitVec::from_value(i as u64 % 4, 2));
    pop.sleep(1);
    pop.sleep(4);
    pop.deselect(2);
    pop
}

#[test]
fn population_encodes_as_packed_columns() {
    let ids: String = (0..6).map(|i| format!("00000000{i:016x}")).collect();
    let expected = Json::parse(&format!(
        r#"{{"n":6,"ids":"{ids}","info":"1b1","info_lens":[[2,6]],"asleep":"48","deselected":"20"}}"#
    ))
    .unwrap();
    assert_eq!(mixed_state_population().to_json(), expected);
}

#[test]
fn population_rejects_duplicate_ids_in_columnar_form() {
    let pop = TagPopulation::sequential(2, |_| BitVec::new());
    let doc = pop.to_json();
    let same = format!("{:024x}", 1);
    let dup = with_field(&doc, "ids", Json::str(same.repeat(2)));
    assert!(population_error(&dup).contains("duplicate tag ID"));
}

#[test]
fn duplicate_ids_are_named_in_handle_order() {
    // Handles 0..4 carry the IDs 9, 3, 9, 3: the first repeat in handle
    // order is 9 (at handle 2), though 3 is the smaller repeated ID.
    let ids = [9u64, 3, 9, 3];
    let doc = with_field(
        &TagPopulation::sequential(4, |_| BitVec::new()).to_json(),
        "ids",
        Json::str(
            ids.iter()
                .map(|lo| format!("{lo:024x}"))
                .collect::<String>(),
        ),
    );
    let expected = format!("duplicate tag ID {}", TagId::from_raw(0, 9));
    assert_eq!(population_error(&doc), format!("json error: {expected}"));
    let panic = std::panic::catch_unwind(|| {
        TagPopulation::new(ids.map(|lo| (TagId::from_raw(0, lo), BitVec::new())))
    })
    .expect_err("a repeated ID must be rejected");
    assert_eq!(
        panic.downcast_ref::<String>().map(String::as_str),
        Some(expected.as_str())
    );
    // A repeated low word alone is no repeat: the high words differ.
    let twins = (0..2u32).map(|hi| (TagId::from_raw(hi, 7), BitVec::new()));
    assert_eq!(TagPopulation::new(twins).len(), 2);
}

#[test]
fn population_rejects_the_per_tag_array_naming_the_columns() {
    let tag = per_tag_object(TagId::from_raw(0, 1), BitVec::from_str_bits("01"));
    let err = population_error(&Json::Arr(vec![tag]));
    assert!(
        err.contains("n, ids, info, info_lens, asleep, deselected"),
        "{err}"
    );
}

#[test]
fn population_rejects_non_hex_characters() {
    let doc = mixed_state_population().to_json();
    for key in ["ids", "info", "asleep", "deselected"] {
        let text = doc.field_str(key).unwrap();
        for bad in ['g', 'A', ' ', 'µ'] {
            let mut chars: Vec<char> = text.chars().collect();
            chars[0] = bad;
            let mutated: String = chars.into_iter().collect();
            let err = population_error(&with_field(&doc, key, Json::str(mutated)));
            assert!(err.contains(key), "{key}/{bad:?}: {err}");
        }
    }
}

#[test]
fn population_rejects_short_long_and_odd_length_columns() {
    let doc = mixed_state_population().to_json();
    for key in ["ids", "info", "asleep", "deselected"] {
        let text = doc.field_str(key).unwrap().to_string();
        let short = text[..text.len() - 1].to_string();
        let long = format!("{text}0");
        let odd = format!("{text}000");
        for (what, bad) in [
            ("short", short),
            ("long", long),
            ("odd", odd),
            ("empty", String::new()),
        ] {
            let err = population_error(&with_field(&doc, key, Json::str(bad)));
            assert!(err.contains("hex digits"), "{key} {what}: {err}");
        }
    }
    // A column that is not a string at all.
    let err = population_error(&with_field(&doc, "ids", Json::UInt(7)));
    assert!(err.contains("ids"), "{err}");
}

#[test]
fn population_rejects_nonzero_padding_bits() {
    let doc = mixed_state_population().to_json();
    // Six tags: the bitsets carry two padding bits, `info` (12 bits) none.
    for (key, bad) in [("asleep", "49"), ("deselected", "22")] {
        let err = population_error(&with_field(&doc, key, Json::str(bad)));
        assert!(err.contains("padding"), "{key}: {err}");
    }
    let odd = TagPopulation::sequential(3, |_| BitVec::from_str_bits("1"));
    let doc = odd.to_json();
    assert_eq!(doc.field_str("info").unwrap(), "e");
    let err = population_error(&with_field(&doc, "info", Json::str("f")));
    assert!(err.contains("padding"), "{err}");
}

#[test]
fn population_rejects_a_tag_both_asleep_and_deselected() {
    let doc = mixed_state_population().to_json();
    // Tag 1 is asleep; mark it deselected too.
    let err = population_error(&with_field(&doc, "deselected", Json::str("60")));
    assert!(err.contains("tag 1 is both asleep and deselected"), "{err}");
}

#[test]
fn population_rejects_info_runs_that_miss_n() {
    let doc = mixed_state_population().to_json();
    let runs = |pairs: &[(u64, u64)]| {
        Json::Arr(
            pairs
                .iter()
                .map(|&(len, count)| Json::Arr(vec![Json::UInt(len), Json::UInt(count)]))
                .collect(),
        )
    };
    for bad in [
        runs(&[(2, 5)]),
        runs(&[(2, 7)]),
        runs(&[(2, 3), (2, 2)]),
        runs(&[]),
        runs(&[(2, 6), (4, 0)]),
        runs(&[(u64::MAX, 6)]),
        Json::Arr(vec![Json::Arr(vec![Json::UInt(2)])]),
    ] {
        let err = population_error(&with_field(&doc, "info_lens", bad.clone()));
        assert!(err.contains("info"), "{bad}: {err}");
    }
    // Runs that cover n but claim more payload bits than `info` holds.
    let err = population_error(&with_field(&doc, "info_lens", runs(&[(3, 6)])));
    assert!(err.contains("'info'"), "{err}");
}

#[test]
fn population_round_trips_mixed_payload_lengths() {
    let mut pop = TagPopulation::new((0..200u64).map(|i| {
        let len = [0, 1, 16, 64, 65, 130][(i / 7) as usize % 6];
        (
            TagId::from_raw(i as u32 * 7, !i),
            BitVec::from_bits((0..len).map(|b| (b * 3 + i as usize) % 5 < 2)),
        )
    }));
    pop.sleep(0);
    pop.deselect(199);
    let doc = pop.to_json();
    assert!(doc.get("info_lens").unwrap().as_arr().unwrap().len() > 6);
    let back: TagPopulation = from_json_str(&doc.to_string()).unwrap();
    assert_eq!(back, pop);
    assert_eq!(back.active_count(), pop.active_count());
    assert_eq!(back.id_words(), pop.id_words());
    round_trip(&TagPopulation::new(Vec::new()));
}

#[test]
fn channel_and_slot_outcome_round_trip() {
    round_trip(&Channel::perfect());
    round_trip(&Channel::lossy(0.25));
    round_trip(&Channel {
        reply_loss_rate: 0.1,
        capture_prob: 0.5,
        capture_any: true,
    });
    round_trip(&SlotOutcome::Empty);
    round_trip(&SlotOutcome::Singleton(17));
    round_trip(&SlotOutcome::Collision(3));
    round_trip(&SlotOutcome::Corrupted(9));
    assert!(from_json_str::<SlotOutcome>("\"Partial\"").is_err());
}

#[test]
fn fault_model_round_trips() {
    round_trip(&FaultModel::perfect());
    round_trip(&GilbertElliott::new(0.05, 0.3, 0.01, 0.8));
    round_trip(&RoundRange { from: 3, to: 5 });
    round_trip(&KillRule {
        tag: 17,
        after_replies: 2,
    });
    let plan = FaultPlan {
        drop_downlink_rounds: vec![RoundRange { from: 3, to: 5 }],
        drop_uplink_rounds: vec![
            RoundRange { from: 1, to: 1 },
            RoundRange { from: 9, to: 12 },
        ],
        kill_after_replies: vec![KillRule {
            tag: 17,
            after_replies: 2,
        }],
    };
    round_trip(&plan);
    round_trip(
        &FaultModel::perfect()
            .with_downlink_loss(0.2)
            .with_corruption(0.1)
            .with_max_poll_retries(5)
            .with_burst(GilbertElliott::new(0.05, 0.3, 0.01, 0.8))
            .with_plan(plan),
    );
}

#[test]
fn events_and_log_round_trip() {
    let events = [
        Event::RoundStarted {
            round: 1,
            h: 3,
            unread: 100,
        },
        Event::CircleStarted {
            circle: 2,
            selected: 40,
        },
        Event::ReaderBroadcast {
            what: BroadcastKind::PollingVector,
            bits: 96,
        },
        Event::ReaderBroadcast {
            what: BroadcastKind::Nak,
            bits: 8,
        },
        Event::TagPolled {
            tag: 5,
            vector_bits: 3,
        },
        Event::TagReply { tag: 5, bits: 16 },
        Event::VectorCharged { bits: 7 },
        Event::SlotEmpty,
        Event::SlotCollision { count: 4 },
        Event::ReplyLost { tag: 3 },
        Event::DownlinkLost { tag: 9 },
        Event::ReplyCorrupted { tag: 12 },
        Event::Retransmission {
            tag: 12,
            attempt: 2,
        },
        Event::DesyncRecovered { tag: 9 },
        Event::StallTick { streak: 5 },
    ];
    for e in &events {
        round_trip(e);
    }
    round_trip(&TimedEvent {
        at: Micros::from_us(162.45),
        event: Event::SlotEmpty,
    });
    let mut log = EventLog::enabled();
    for (i, e) in events.iter().enumerate() {
        log.record(Micros::from_us(i as f64 * 37.45), || *e);
    }
    round_trip(&log);
    round_trip(&EventLog::disabled());
}

#[test]
fn broadcast_kinds_round_trip_as_strings() {
    for kind in [
        BroadcastKind::RoundInit,
        BroadcastKind::CircleCommand,
        BroadcastKind::PollingVector,
        BroadcastKind::QueryRep,
        BroadcastKind::SlotPrefix,
        BroadcastKind::IndicatorVector,
        BroadcastKind::Select,
        BroadcastKind::Query,
        BroadcastKind::QueryAdjust,
        BroadcastKind::Ack,
        BroadcastKind::Nak,
        BroadcastKind::FrameInit,
        BroadcastKind::Probe,
    ] {
        round_trip(&kind);
    }
    assert_eq!(
        to_json_string(&BroadcastKind::PollingVector),
        "\"PollingVector\""
    );
    assert!(from_json_str::<BroadcastKind>("\"Telegram\"").is_err());
}

#[test]
fn ring_log_round_trips_with_drop_count() {
    let mut log = EventLog::ring(2);
    for i in 0..5usize {
        log.record(Micros::from_us(i as f64), || Event::TagPolled {
            tag: i,
            vector_bits: 2,
        });
    }
    assert_eq!(log.dropped(), 3);
    round_trip(&log);
}

#[test]
fn sim_config_round_trips() {
    round_trip(&SimConfig::paper(0xFEED_FACE_CAFE_BEEF));
    round_trip(
        &SimConfig::paper(1)
            .with_trace()
            .with_channel(Channel::lossy(0.05)),
    );
    round_trip(
        &SimConfig::paper(2).with_fault(
            FaultModel::perfect()
                .with_downlink_loss(0.3)
                .with_corruption(0.2),
        ),
    );
}

#[test]
fn counters_round_trip() {
    let c = Counters {
        reader_bits: 123_456,
        tag_bits: 98_304,
        vector_bits: 3_000,
        query_rep_bits: 4_000,
        polls: 1_000,
        rounds: 5,
        circles: 2,
        empty_slots: 17,
        collision_slots: 3,
        lost_replies: 1,
        downlink_losses: 11,
        corrupted_replies: 6,
        desync_recoveries: 9,
        retransmissions: 4,
        tag_listen_us: 8.25e6,
        ..Counters::default()
    };
    round_trip(&c);
}
