//! The columnar population build against a reference built tag by tag.
//!
//! `Scenario::build_population` draws IDs into columns, checks them for
//! repeats by sorting, and writes payload bits straight into one packed
//! column. The reference here is the sequential path: IDs from
//! `IdDistribution::generate` (which skips repeats through a hash set) and
//! one `PayloadKind::generate` `BitVec` per tag, assembled by
//! `TagPopulation::new`. The two must agree on every ID, every payload bit
//! and every byte of the snapshot JSON.

use rfid_hash::prop::check;
use rfid_hash::{fnv64, prop_assert, prop_assert_eq, split_seed, Xoshiro256};
use rfid_system::{to_json_string, BitColumn, BitVec, TagId, TagPopulation};
use rfid_workloads::{IdDistribution, PayloadKind, Scenario};

/// The population built the sequential way.
fn reference(sc: &Scenario) -> TagPopulation {
    let ids = sc
        .id_dist
        .generate(sc.n, &mut Xoshiro256::seed_from_u64(split_seed(sc.seed, 0)));
    let mut payload_rng = Xoshiro256::seed_from_u64(split_seed(sc.seed, 1));
    TagPopulation::new(
        ids.into_iter()
            .map(|id| (id, sc.payload.generate(sc.info_bits, &mut payload_rng))),
    )
}

/// Checks `built` against `expected`: IDs, payload bits, snapshot bytes.
fn same_population(built: &TagPopulation, expected: &TagPopulation) -> Result<(), String> {
    prop_assert_eq!(built.len(), expected.len());
    for h in 0..expected.len() {
        let (b, e) = (built.get(h), expected.get(h));
        prop_assert_eq!(b.id, e.id);
        prop_assert_eq!(b.info.to_bitvec(), e.info.to_bitvec());
    }
    prop_assert!(built == expected);
    prop_assert_eq!(to_json_string(built), to_json_string(expected));
    Ok(())
}

fn distributions() -> [IdDistribution; 5] {
    [
        IdDistribution::UniformRandom,
        IdDistribution::Sequential { start: 5 },
        IdDistribution::Clustered { categories: 4 },
        IdDistribution::Zipf {
            categories: 10,
            exponent: 1.0,
        },
        IdDistribution::SharedPrefix { prefix_bits: 60 },
    ]
}

fn payload_kinds() -> [PayloadKind; 4] {
    [
        PayloadKind::Presence,
        PayloadKind::Random,
        PayloadKind::BatteryLevel,
        PayloadKind::Temperature { base_quarters: 16 },
    ]
}

#[test]
fn columnar_build_matches_the_sequential_reference() {
    check("columnar build matches the sequential reference", 6, |g| {
        let n = g.len_in(0, 300);
        let seed = g.u64();
        for dist in distributions() {
            for kind in payload_kinds() {
                for bits in [1, 7, 16, 64] {
                    let sc = Scenario::uniform(n, bits)
                        .with_seed(seed)
                        .with_ids(dist.clone())
                        .with_payload(kind);
                    same_population(&sc.build_population(), &reference(&sc))
                        .map_err(|e| format!("{dist:?} × {kind:?} × {bits} bits, n = {n}: {e}"))?;
                }
            }
        }
        Ok(())
    });
}

#[test]
fn certain_repeats_take_the_sequential_path_and_keep_its_ids() {
    // 200 draws from 2^8 IDs repeat one almost surely: the drawn columns
    // are rejected and the build falls back to skipping repeats.
    let sc = Scenario::uniform(200, 16)
        .with_seed(5)
        .with_ids(IdDistribution::SharedPrefix { prefix_bits: 88 })
        .with_payload(PayloadKind::Random);
    let (hi, lo) = sc
        .id_dist
        .draw_columns(sc.n, &mut Xoshiro256::seed_from_u64(split_seed(sc.seed, 0)));
    let mut no_payloads = BitColumn::default();
    for _ in 0..sc.n {
        no_payloads.end_string();
    }
    assert!(
        TagPopulation::from_columns(hi, lo, no_payloads).is_err(),
        "the first 200 draws should repeat an ID"
    );
    let built = sc.build_population();
    same_population(&built, &reference(&sc)).unwrap();
    // The snapshot digest this scenario had before the columnar build.
    assert_eq!(fnv64(&to_json_string(&built)), 0x2a86_3c21_b12e_a05d);
}

#[test]
fn mixed_widths_pack_back_to_back() {
    check("mixed payload widths pack back to back", 64, |g| {
        let n = g.len_in(0, 40);
        let tags: Vec<(TagId, BitVec)> = (0..n)
            .map(|i| {
                let id = TagId::from_raw(g.u32(), (g.u64() << 8) | i as u64);
                // Runs of equal widths, as well as changes at every tag.
                let len = if g.bool() { 16 } else { g.len_in(0, 150) };
                (id, BitVec::from_bits(g.vec_bool(len, len + 1)))
            })
            .collect();
        let pop = TagPopulation::new(tags.iter().cloned());
        for (h, (id, info)) in tags.iter().enumerate() {
            prop_assert_eq!(pop.get(h).id, *id);
            prop_assert_eq!(pop.get(h).info.to_bitvec(), info.clone());
        }
        // The snapshot, spelled out field by field.
        let ids: String = tags
            .iter()
            .map(|(id, _)| format!("{:08x}{:016x}", id.hi(), id.lo()))
            .collect();
        let mut bits: String = tags.iter().map(|(_, info)| info.to_string()).collect();
        while bits.len() % 4 != 0 {
            bits.push('0');
        }
        let info: String = bits
            .as_bytes()
            .chunks(4)
            .map(|d| {
                format!(
                    "{:x}",
                    u8::from_str_radix(std::str::from_utf8(d).unwrap(), 2).unwrap()
                )
            })
            .collect();
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for (_, v) in &tags {
            match runs.last_mut() {
                Some((len, count)) if *len == v.len() => *count += 1,
                _ => runs.push((v.len(), 1)),
            }
        }
        let runs: Vec<String> = runs.iter().map(|(l, c)| format!("[{l},{c}]")).collect();
        let zeros = "0".repeat(n.div_ceil(4));
        let expected = format!(
            r#"{{"n":{n},"ids":"{ids}","info":"{info}","info_lens":[{}],"asleep":"{zeros}","deselected":"{zeros}"}}"#,
            runs.join(",")
        );
        prop_assert_eq!(to_json_string(&pop), expected);
        let back: TagPopulation = rfid_system::from_json_str(&to_json_string(&pop)).unwrap();
        prop_assert!(back == pop);
        Ok(())
    });
}
