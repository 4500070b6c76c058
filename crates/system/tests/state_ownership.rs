//! The population is the single owner of tag state: its state words decide
//! equality, [`TagPopulation::state`] and the snapshot's `asleep` /
//! `deselected` columns, whatever mix of single-tag and word-level
//! transitions produced them.

use rfid_hash::prop::SplitMix64;
use rfid_system::json::{from_json_str, Json, ToJson};
use rfid_system::{BitVec, TagPopulation, TagState};

fn pop(n: usize) -> TagPopulation {
    TagPopulation::sequential(n, |i| BitVec::from_value(i as u64 % 2, 1))
}

/// Bit `idx` of an `n`-bit hex column (tag 0 is the first digit's MSB).
fn column_bit(doc: &Json, field: &str, idx: usize) -> bool {
    let column = doc.field_str(field).expect("bitset column");
    let digit = (column.as_bytes()[idx / 4] as char)
        .to_digit(16)
        .expect("hex digit");
    digit >> (3 - idx % 4) & 1 == 1
}

/// Checks every tag's state against the snapshot columns and the counts
/// against the states.
fn assert_columns_agree(p: &TagPopulation, step: usize) {
    let doc = p.to_json();
    let (mut active, mut asleep) = (0, 0);
    for idx in 0..p.len() {
        let state = p.state(idx);
        let want = match (
            column_bit(&doc, "asleep", idx),
            column_bit(&doc, "deselected", idx),
        ) {
            (false, false) => TagState::Active,
            (true, false) => TagState::Asleep,
            (false, true) => TagState::Deselected,
            (true, true) => panic!("step {step}: tag {idx} in both columns"),
        };
        assert_eq!(state, want, "step {step}: tag {idx}");
        assert_eq!(p.is_active(idx), state == TagState::Active);
        active += usize::from(state == TagState::Active);
        asleep += usize::from(state == TagState::Asleep);
    }
    assert_eq!(p.active_count(), active, "step {step}: active count");
    assert_eq!(p.asleep_count(), asleep, "step {step}: asleep count");
    let back: TagPopulation = from_json_str(&doc.to_string()).expect("snapshot reloads");
    assert_eq!(&back, p, "step {step}: snapshot round trip");
}

#[test]
fn populations_differing_in_one_deselected_tag_are_unequal() {
    let a = pop(100);
    let mut b = pop(100);
    assert_eq!(a, b);
    b.deselect(70);
    assert_ne!(a, b);
    b.reselect_all();
    assert_eq!(a, b);
    // Same counts, different tag: still unequal.
    let mut c = pop(100);
    let mut d = pop(100);
    c.deselect(3);
    d.deselect(4);
    assert_eq!(c.active_count(), d.active_count());
    assert_ne!(c, d);
}

#[test]
fn state_agrees_with_the_snapshot_columns_across_a_seeded_walk() {
    for seed in 0..4u64 {
        let mut rng = SplitMix64::new(seed);
        let n = 1 + (rng.next_u64() % 300) as usize;
        let mut p = pop(n);
        assert_columns_agree(&p, 0);
        for step in 1..=200 {
            let idx = (rng.next_u64() % n as u64) as usize;
            match rng.next_u64() % 8 {
                0..=2 if p.is_active(idx) => p.sleep(idx),
                3 | 4 => p.deselect(idx),
                5 | 6 => p.deselect_word(idx / 64, rng.next_u64()),
                7 => p.reselect_all(),
                _ => continue,
            }
            assert_columns_agree(&p, step);
        }
    }
}
