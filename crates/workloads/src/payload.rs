//! Tag information payloads.
//!
//! The polling task collects `m ≥ 1` bits from each tag (Section II-C). The
//! paper's three table settings are `m ∈ {1, 16, 32}`; the payload *kind*
//! models what sensor-augmented tags actually report (Section I): a presence
//! bit against theft, a battery energy level, or a chilled-food temperature.

use rfid_hash::Xoshiro256;
use rfid_system::{BitColumn, BitSlice, BitVec};

/// What the `m` information bits encode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PayloadKind {
    /// A constant presence marker (all-ones) — 1-bit missing-tag polling.
    Presence,
    /// Uniformly random bits.
    Random,
    /// A battery level in percent (0–100), right-aligned in `m` bits.
    BatteryLevel,
    /// A temperature in 0.25 °C steps around `base_quarters/4` °C with ±2 °C
    /// jitter, encoded as an unsigned offset from −40 °C.
    Temperature {
        /// Base temperature in quarter-degrees C.
        base_quarters: i32,
    },
}

impl PayloadKind {
    /// Generates the `bits`-long payload of one tag.
    ///
    /// # Panics
    /// Panics if `bits == 0` or `bits > 64` for the numeric kinds.
    pub fn generate(&self, bits: usize, rng: &mut Xoshiro256) -> BitVec {
        let mut one = BitColumn::with_capacity(bits);
        self.write(bits, rng, &mut one);
        one.get(0).to_bitvec()
    }

    /// Appends the `bits`-long payload of one tag to `out` as a finished
    /// string. A population's payloads are written this way, one tag after
    /// another, straight into its column.
    ///
    /// # Panics
    /// Panics if `bits == 0` or `bits > 64` for the numeric kinds.
    pub fn write(&self, bits: usize, rng: &mut Xoshiro256, out: &mut BitColumn) {
        assert!(bits >= 1, "payloads are at least one bit (m ≥ 1)");
        match self {
            PayloadKind::Presence | PayloadKind::Random => {
                for start in (0..bits).step_by(64) {
                    let width = (bits - start).min(64);
                    let chunk = if *self == PayloadKind::Random {
                        (0..width).fold(0u64, |acc, _| acc << 1 | u64::from(rng.chance(0.5)))
                    } else {
                        u64::MAX
                    };
                    out.push_bits(chunk, width);
                }
            }
            PayloadKind::BatteryLevel => {
                assert!(bits <= 64, "battery level payload too wide");
                let level = rng.below(101); // 0..=100 %
                let max = if bits >= 7 {
                    level
                } else {
                    level.min((1 << bits) - 1)
                };
                out.push_bits(max, bits);
            }
            PayloadKind::Temperature { base_quarters } => {
                assert!(bits <= 64, "temperature payload too wide");
                let jitter = rng.below(17) as i32 - 8; // ±2 °C in quarter-steps
                let quarters = base_quarters + jitter;
                // Offset from −40 °C so the encoding is unsigned.
                let encoded = (quarters + 160).max(0) as u64;
                let capped = encoded.min(if bits == 64 {
                    u64::MAX
                } else {
                    (1 << bits) - 1
                });
                out.push_bits(capped, bits);
            }
        }
        out.end_string();
    }
}

/// Decodes a battery-level payload back to percent.
pub fn decode_battery<'a>(info: impl Into<BitSlice<'a>>) -> u64 {
    info.into().to_value()
}

/// Decodes a temperature payload back to °C.
pub fn decode_temperature<'a>(info: impl Into<BitSlice<'a>>) -> f64 {
    (info.into().to_value() as f64 - 160.0) / 4.0
}

impl rfid_system::ToJson for PayloadKind {
    fn to_json(&self) -> rfid_system::Json {
        use rfid_system::Json;
        match self {
            PayloadKind::Presence => Json::str("Presence"),
            PayloadKind::Random => Json::str("Random"),
            PayloadKind::BatteryLevel => Json::str("BatteryLevel"),
            PayloadKind::Temperature { base_quarters } => Json::Obj(vec![(
                "Temperature".to_string(),
                Json::Obj(vec![("base_quarters".to_string(), base_quarters.to_json())]),
            )]),
        }
    }
}

impl rfid_system::FromJson for PayloadKind {
    fn from_json(json: &rfid_system::Json) -> Result<Self, rfid_system::JsonError> {
        use rfid_system::{Json, JsonError};
        match json {
            Json::Str(tag) => match tag.as_str() {
                "Presence" => Ok(PayloadKind::Presence),
                "Random" => Ok(PayloadKind::Random),
                "BatteryLevel" => Ok(PayloadKind::BatteryLevel),
                other => Err(JsonError(format!("unknown PayloadKind variant '{other}'"))),
            },
            Json::Obj(fields) if fields.len() == 1 && fields[0].0 == "Temperature" => {
                Ok(PayloadKind::Temperature {
                    base_quarters: fields[0].1.field("base_quarters")?,
                })
            }
            other => Err(JsonError(format!("malformed PayloadKind: {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from_u64(4)
    }

    #[test]
    fn presence_is_all_ones() {
        let p = PayloadKind::Presence.generate(1, &mut rng());
        assert_eq!(p.to_string(), "1");
        let p = PayloadKind::Presence.generate(4, &mut rng());
        assert_eq!(p.to_string(), "1111");
    }

    #[test]
    fn random_payload_has_requested_width() {
        let p = PayloadKind::Random.generate(16, &mut rng());
        assert_eq!(p.len(), 16);
    }

    #[test]
    fn battery_levels_decode_to_percent() {
        let mut r = rng();
        for _ in 0..100 {
            let p = PayloadKind::BatteryLevel.generate(16, &mut r);
            assert!(decode_battery(&p) <= 100);
        }
    }

    #[test]
    fn battery_fits_narrow_payloads() {
        let mut r = rng();
        for _ in 0..50 {
            let p = PayloadKind::BatteryLevel.generate(3, &mut r);
            assert!(p.to_value() < 8);
        }
    }

    #[test]
    fn temperature_round_trips_near_base() {
        let mut r = rng();
        // 4 °C chilled-food base = 16 quarter-degrees.
        for _ in 0..100 {
            let p = PayloadKind::Temperature { base_quarters: 16 }.generate(16, &mut r);
            let t = decode_temperature(&p);
            assert!((t - 4.0).abs() <= 2.01, "temperature {t}");
        }
    }

    /// Each kind's payloads at widths 1, 7, 16 and 64 (and 70 for the
    /// kinds of any width), drawn in turn from one generator: the bits the
    /// per-bit `BitVec` generator produced before payloads were written
    /// into columns.
    #[test]
    fn payload_bits_are_pinned() {
        let pins: [(PayloadKind, &[&str]); 4] = [
            (
                PayloadKind::Presence,
                &[
                    "1",
                    "1111111",
                    &"1".repeat(16),
                    &"1".repeat(64),
                    &"1".repeat(70),
                ],
            ),
            (
                PayloadKind::Random,
                &[
                    "1",
                    "0101010",
                    "1110100111001101",
                    "0110010011000010111000111100001001110101111010010001010011010001",
                    "0111111011000101101101101001001000001111001011001010010010101101000000",
                ],
            ),
            (
                PayloadKind::BatteryLevel,
                &[
                    "1",
                    "1011100",
                    "0000000000101100",
                    &format!("{:064b}", 0b110_0010),
                ],
            ),
            (
                PayloadKind::Temperature { base_quarters: 16 },
                &[
                    "1",
                    "1111111",
                    "0000000010101111",
                    &format!("{:064b}", 0b1011_1000),
                ],
            ),
        ];
        for (kind, expected) in pins {
            let mut r = rng();
            for (&want, bits) in expected.iter().zip([1, 7, 16, 64, 70]) {
                assert_eq!(
                    kind.generate(bits, &mut r).to_string(),
                    want,
                    "{kind:?} at {bits} bits"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_width_rejected() {
        PayloadKind::Presence.generate(0, &mut rng());
    }
}
