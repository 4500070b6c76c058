//! Hex packing behind the columnar snapshot encodings.
//!
//! A packed field is a bit string written as lowercase hex: the first bit
//! is the most significant bit of the first digit, and the last digit is
//! zero-padded. [`HexWriter`] appends bit fields of any width up to 64;
//! [`HexReader`] validates a whole field up front (exact length, hex
//! alphabet, zero padding) so the reads that follow cannot fail.
//! [`encode_bitset`] / [`decode_bitset`] apply the same format to the
//! LSB-first `u64` word sets the population and context keep (bit `i` of
//! the set is bit `i % 64` of word `i / 64`, and bit `i` of the string).

use crate::json::JsonError;

const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Appends bit fields to a packed hex string.
pub(crate) struct HexWriter {
    out: Vec<u8>,
    acc: u8,
    bits: u32,
}

impl HexWriter {
    /// A writer with room for `total` bits.
    pub(crate) fn with_bits(total: usize) -> HexWriter {
        HexWriter {
            out: Vec::with_capacity(total.div_ceil(4)),
            acc: 0,
            bits: 0,
        }
    }

    /// Appends the low `width` bits of `value`, most significant first.
    pub(crate) fn push(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64);
        if self.bits == 0 && width % 4 == 0 {
            // Digit-aligned: whole digits, no carry between them.
            for k in (0..width / 4).rev() {
                self.out.push(DIGITS[(value >> (4 * k) & 0xf) as usize]);
            }
            return;
        }
        let mut left = width;
        while left > 0 {
            let take = left.min(4 - self.bits);
            let chunk = (value >> (left - take)) & ((1 << take) - 1);
            self.acc = (self.acc << take) | chunk as u8;
            self.bits += take;
            left -= take;
            if self.bits == 4 {
                self.out.push(DIGITS[self.acc as usize]);
                self.acc = 0;
                self.bits = 0;
            }
        }
    }

    /// The packed string, zero-padded to a whole digit.
    pub(crate) fn finish(mut self) -> String {
        if self.bits > 0 {
            self.out
                .push(DIGITS[(self.acc << (4 - self.bits)) as usize]);
        }
        String::from_utf8(self.out).expect("hex digits are ASCII")
    }
}

fn digit_value(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        _ => None,
    }
}

/// Reads bit fields back out of a validated packed hex string.
pub(crate) struct HexReader<'a> {
    digits: &'a [u8],
    pos: usize,
    acc: u8,
    bits: u32,
}

impl<'a> HexReader<'a> {
    /// Checks that `s` packs exactly `total` bits — `⌈total / 4⌉` lowercase
    /// hex digits whose padding bits are zero — naming `field` in the error.
    pub(crate) fn new(s: &'a str, total: usize, field: &str) -> Result<HexReader<'a>, JsonError> {
        let digits = s.as_bytes();
        let want = total.div_ceil(4);
        if digits.len() != want {
            return Err(JsonError(format!(
                "'{field}' has {} hex digits, expected {want} for {total} bits",
                digits.len()
            )));
        }
        if let Some(at) = digits.iter().position(|&b| digit_value(b).is_none()) {
            return Err(JsonError(format!(
                "'{field}' has a non-hex character at offset {at}"
            )));
        }
        let pad = want * 4 - total;
        if let Some(&last) = digits.last() {
            if digit_value(last).unwrap_or(0) & ((1 << pad) - 1) != 0 {
                return Err(JsonError(format!("'{field}' has nonzero padding bits")));
            }
        }
        Ok(HexReader {
            digits,
            pos: 0,
            acc: 0,
            bits: 0,
        })
    }

    /// The next `width` bits as an integer, first bit most significant.
    ///
    /// # Panics
    /// Panics if the reads run past the `total` bits validated by
    /// [`HexReader::new`] — a caller bug, not an input condition.
    pub(crate) fn read(&mut self, width: u32) -> u64 {
        debug_assert!(width <= 64);
        if self.bits == 0 && width % 4 == 0 {
            // Digit-aligned: whole digits, no carry between them.
            let end = self.pos + (width / 4) as usize;
            let digits = &self.digits[self.pos..end];
            self.pos = end;
            // `new` admitted only `0-9a-f`, whose value is the low nibble,
            // plus 9 for the letters (bit 6 set).
            return digits
                .iter()
                .fold(0, |acc, &d| acc << 4 | u64::from((d & 0xf) + 9 * (d >> 6)));
        }
        let mut value = 0u64;
        let mut left = width;
        while left > 0 {
            if self.bits == 0 {
                self.acc = digit_value(self.digits[self.pos]).unwrap_or(0);
                self.pos += 1;
                self.bits = 4;
            }
            let take = left.min(self.bits);
            let chunk = (self.acc >> (self.bits - take)) & ((1 << take) - 1);
            value = (value << take) | chunk as u64;
            self.bits -= take;
            left -= take;
        }
        value
    }
}

/// Width of word `k` of an `n`-bit word set (the last word may be partial).
fn word_width(n: usize, k: usize) -> u32 {
    (n - 64 * k).min(64) as u32
}

/// Packs the first `n` bits of an LSB-first word set.
pub(crate) fn encode_bitset(words: &[u64], n: usize) -> String {
    let mut out = HexWriter::with_bits(n);
    for (k, &word) in words.iter().enumerate().take(n.div_ceil(64)) {
        let width = word_width(n, k);
        out.push(word.reverse_bits() >> (64 - width), width);
    }
    out.finish()
}

/// Unpacks an `n`-bit word set written by [`encode_bitset`].
pub(crate) fn decode_bitset(s: &str, n: usize, field: &str) -> Result<Vec<u64>, JsonError> {
    let mut bits = HexReader::new(s, n, field)?;
    Ok((0..n.div_ceil(64))
        .map(|k| {
            let width = word_width(n, k);
            bits.read(width).reverse_bits() >> (64 - width)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_pack_msb_first_with_zero_padding() {
        let mut w = HexWriter::with_bits(13);
        w.push(0b1, 1);
        w.push(0xABC, 12);
        // 1 1010 1011 1100 → 1101 0101 1110 0(000)
        let s = w.finish();
        assert_eq!(s, "d5e0");
        let mut r = HexReader::new(&s, 13, "x").unwrap();
        assert_eq!(r.read(1), 1);
        assert_eq!(r.read(12), 0xABC);
    }

    #[test]
    fn full_words_round_trip() {
        let mut w = HexWriter::with_bits(96);
        w.push(0xDEAD_BEEF, 32);
        w.push(u64::MAX - 5, 64);
        let s = w.finish();
        assert_eq!(s, "deadbeeffffffffffffffffa");
        let mut r = HexReader::new(&s, 96, "ids").unwrap();
        assert_eq!(r.read(32), 0xDEAD_BEEF);
        assert_eq!(r.read(64), u64::MAX - 5);
    }

    #[test]
    fn bitsets_round_trip_across_word_boundaries() {
        for n in [0usize, 1, 3, 4, 63, 64, 65, 130] {
            let mut words = vec![0u64; n.div_ceil(64)];
            for i in (0..n).filter(|i| i % 3 == 0 || i % 7 == 1) {
                words[i / 64] |= 1 << (i % 64);
            }
            let s = encode_bitset(&words, n);
            assert_eq!(s.len(), n.div_ceil(4));
            assert_eq!(decode_bitset(&s, n, "b").unwrap(), words, "n = {n}");
        }
        // Bit 0 of the set is the first bit of the string.
        assert_eq!(encode_bitset(&[0b1], 5), "80");
    }

    #[test]
    fn prop_mixed_width_fields_round_trip() {
        use rfid_hash::prop::check;
        use rfid_hash::prop_assert_eq;
        check("hex fields of any width round-trip", 256, |g| {
            // Widths that keep and that break digit alignment, mixed.
            let fields = g.vec(0, 24, |g| {
                let width = if g.bool() {
                    4 * g.u64_below(17)
                } else {
                    g.u64_below(65)
                } as u32;
                let value = if width == 64 {
                    g.u64()
                } else {
                    g.u64() & ((1u64 << width) - 1)
                };
                (value, width)
            });
            let total = fields.iter().map(|&(_, w)| w as usize).sum();
            let mut w = HexWriter::with_bits(total);
            let mut bits = String::new();
            for &(value, width) in &fields {
                w.push(value, width);
                for i in (0..width).rev() {
                    bits.push(if value >> i & 1 == 1 { '1' } else { '0' });
                }
            }
            let s = w.finish();
            while bits.len() % 4 != 0 {
                bits.push('0');
            }
            let expected: String = bits
                .as_bytes()
                .chunks(4)
                .map(|d| {
                    char::from(
                        DIGITS[d
                            .iter()
                            .fold(0, |acc, &b| acc << 1 | usize::from(b == b'1'))],
                    )
                })
                .collect();
            prop_assert_eq!(&s, &expected);
            let mut r = HexReader::new(&s, total, "f").unwrap();
            for &(value, width) in &fields {
                prop_assert_eq!(r.read(width), value);
            }
            Ok(())
        });
    }
}
