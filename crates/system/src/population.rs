//! Tag population bookkeeping.
//!
//! The population owns every tag as columns, indexed by handle: the raw
//! EPC words `ids_hi`/`ids_lo`, every payload packed back to back in one
//! [`BitColumn`], and the inventory state in two bitsets (one bit per
//! handle, LSB-first): `active_words` and `deselected_words`, with *asleep*
//! meaning neither bit is set. No tag has heap storage of its own, so a
//! population of any size is built, copied and dropped in a handful of
//! allocations; [`TagPopulation::get`] hands out a borrowed [`Tag`] view.
//!
//! Per-round work such as the singleton sift iterates the active bits in
//! O(len/64 + active), EHPP's circle filter deselects a whole word of tags
//! with one AND/OR, the rejoin at the end of a circle is a single O(len/64)
//! OR pass, and batch hashing streams the ID columns directly. IDs are
//! unique; building a population checks that by sorting a copy of the low
//! ID words, and only when a low word repeats does it walk the IDs in
//! handle order to name the first repeated one.

#[cfg(debug_assertions)]
use std::cell::Cell;

use crate::bitvec::{BitColumn, BitVec};
use crate::hex::{decode_bitset, encode_bitset, HexReader, HexWriter};
use crate::id::TagId;
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::tag::{Tag, TagState};

/// The set of tags in the interrogation zone.
#[derive(Debug, Clone)]
pub struct TagPopulation {
    /// The raw EPC words of handle `i`: `ids_hi[i]` then `ids_lo[i]`.
    ids_hi: Vec<u32>,
    ids_lo: Vec<u64>,
    /// The payload of handle `i` is string `i`.
    info: BitColumn,
    /// Popcount of `active_words`, kept in step by every transition.
    active: usize,
    /// Number of handles in neither bitset, kept in step likewise.
    asleep: usize,
    /// Bit `i` of `active_words[i / 64]` is set iff tag `i` is active.
    active_words: Vec<u64>,
    /// Bit `i` of `deselected_words[i / 64]` is set iff tag `i` sits out
    /// the current EHPP circle. Disjoint from `active_words`.
    deselected_words: Vec<u64>,
    /// Debug-only full-population scan counter; slot handlers assert it
    /// stays unchanged across a slot (no handler may rescan the population).
    #[cfg(debug_assertions)]
    scans: Cell<u64>,
}

impl PartialEq for TagPopulation {
    /// Populations compare by columns and state words; the counts are
    /// derived from those.
    fn eq(&self, other: &Self) -> bool {
        self.ids_hi == other.ids_hi
            && self.ids_lo == other.ids_lo
            && self.info == other.info
            && self.active_words == other.active_words
            && self.deselected_words == other.deselected_words
    }
}

/// The first ID that repeats an earlier one, in handle order.
fn first_repeat(ids_hi: &[u32], ids_lo: &[u64]) -> Option<TagId> {
    let mut lo = ids_lo.to_vec();
    lo.sort_unstable();
    if lo.windows(2).all(|w| w[0] != w[1]) {
        return None;
    }
    let mut seen = std::collections::HashSet::with_capacity(ids_lo.len());
    ids_hi
        .iter()
        .zip(ids_lo)
        .map(|(&hi, &lo)| TagId::from_raw(hi, lo))
        .find(|&id| !seen.insert(id))
}

/// The `n`-bit set with every bit on (padding bits of the last word off).
fn full_words(n: usize) -> Vec<u64> {
    let mut words = vec![u64::MAX; n.div_ceil(64)];
    if let Some(last) = words.last_mut() {
        if n % 64 != 0 {
            *last = (1u64 << (n % 64)) - 1;
        }
    }
    words
}

/// Calls `f` for every set bit of `words`, in ascending order.
#[inline]
fn for_each_bit(words: impl Iterator<Item = u64>, mut f: impl FnMut(usize)) {
    for (w, mut bits) in words.enumerate() {
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

impl TagPopulation {
    /// Builds a population from `(id, info)` pairs, every tag active.
    ///
    /// # Panics
    /// Panics if two tags share an ID — EPCs are unique by definition and
    /// every protocol in the paper relies on it.
    pub fn new(tags: impl IntoIterator<Item = (TagId, BitVec)>) -> Self {
        let (mut ids_hi, mut ids_lo, mut info) = (Vec::new(), Vec::new(), BitColumn::default());
        for (id, bits) in tags {
            ids_hi.push(id.hi());
            ids_lo.push(id.lo());
            info.push(bits.as_slice());
        }
        TagPopulation::from_columns(ids_hi, ids_lo, info)
            .unwrap_or_else(|id| panic!("duplicate tag ID {id}"))
    }

    /// Builds a population from its columns, every tag active: handle `i`
    /// has the ID `(ids_hi[i], ids_lo[i])` and the payload `info.get(i)`.
    /// Returns the first ID that repeats an earlier one as the error.
    ///
    /// # Panics
    /// Panics if the three columns differ in length.
    pub fn from_columns(
        ids_hi: Vec<u32>,
        ids_lo: Vec<u64>,
        info: BitColumn,
    ) -> Result<Self, TagId> {
        if let Some(id) = first_repeat(&ids_hi, &ids_lo) {
            return Err(id);
        }
        let n = ids_lo.len();
        Ok(TagPopulation::with_state(
            ids_hi,
            ids_lo,
            info,
            full_words(n),
            vec![0; n.div_ceil(64)],
        ))
    }

    /// Assembles a population from distinct-ID columns and state words
    /// (disjoint, `len/64` rounded up, padding bits clear), deriving the
    /// counts.
    fn with_state(
        ids_hi: Vec<u32>,
        ids_lo: Vec<u64>,
        info: BitColumn,
        active_words: Vec<u64>,
        deselected_words: Vec<u64>,
    ) -> Self {
        let n = ids_lo.len();
        assert!(
            ids_hi.len() == n && info.len() == n,
            "columns of {} high words, {n} low words and {} payloads",
            ids_hi.len(),
            info.len()
        );
        let active = popcount(&active_words);
        let asleep = n - active - popcount(&deselected_words);
        TagPopulation {
            ids_hi,
            ids_lo,
            info,
            active,
            asleep,
            active_words,
            deselected_words,
            #[cfg(debug_assertions)]
            scans: Cell::new(0),
        }
    }

    /// Convenience: `n` tags with sequential raw IDs and the given payload
    /// generator (mostly for tests).
    pub fn sequential(n: usize, info: impl Fn(usize) -> BitVec) -> Self {
        TagPopulation::new((0..n).map(|i| (TagId::from_raw(0, i as u64), info(i))))
    }

    /// A new population of the tags whose bit is set in `keep` (a handle
    /// bitset laid out like [`TagPopulation::active_words`]), in handle
    /// order and every one active: a copy of their ID and payload columns.
    ///
    /// # Panics
    /// Panics if `keep` has a bit set past the last handle.
    pub fn subset(&self, keep: &[u64]) -> TagPopulation {
        let n = popcount(keep);
        let per_tag = if self.is_empty() {
            0
        } else {
            self.info.get(0).len()
        };
        let (mut ids_hi, mut ids_lo) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut info = BitColumn::with_capacity(n * per_tag);
        for_each_bit(keep.iter().copied(), |h| {
            ids_hi.push(self.ids_hi[h]);
            ids_lo.push(self.ids_lo[h]);
            info.push(self.info.get(h));
        });
        TagPopulation::with_state(ids_hi, ids_lo, info, full_words(n), vec![0; n.div_ceil(64)])
    }

    /// Total number of tags.
    pub fn len(&self) -> usize {
        self.ids_lo.len()
    }

    /// `true` if the population has no tags.
    pub fn is_empty(&self) -> bool {
        self.ids_lo.is_empty()
    }

    /// Number of tags still active (unread and not deselected).
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// The ID and payload of the tag at handle `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is not a handle of this population.
    pub fn get(&self, idx: usize) -> Tag<'_> {
        Tag {
            id: TagId::from_raw(self.ids_hi[idx], self.ids_lo[idx]),
            info: self.info.get(idx),
        }
    }

    /// The word index and bit of handle `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is not a handle of this population.
    #[inline]
    fn slot(&self, idx: usize) -> (usize, u64) {
        assert!(
            idx < self.len(),
            "tag {idx} out of range for {} tags",
            self.len()
        );
        (idx / 64, 1u64 << (idx % 64))
    }

    /// The inventory state of tag `idx`.
    pub fn state(&self, idx: usize) -> TagState {
        let (w, bit) = self.slot(idx);
        if self.active_words[w] & bit != 0 {
            TagState::Active
        } else if self.deselected_words[w] & bit != 0 {
            TagState::Deselected
        } else {
            TagState::Asleep
        }
    }

    /// Whether tag `idx` currently listens and replies.
    #[inline]
    pub fn is_active(&self, idx: usize) -> bool {
        let (w, bit) = self.slot(idx);
        self.active_words[w] & bit != 0
    }

    /// All tags (any state), with handles. Counts as a full-population scan
    /// for the debug slot-handler assertion.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Tag<'_>)> {
        self.note_scan();
        (0..self.len()).map(|idx| (idx, self.get(idx)))
    }

    /// Handles of currently active tags.
    ///
    /// Allocates; hot paths should prefer [`TagPopulation::for_each_active`]
    /// or [`TagPopulation::collect_active_into`] with a reused buffer.
    pub fn active_handles(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.active);
        self.collect_active_into(&mut out);
        out
    }

    /// Handles of tags not yet read (active or deselected), ascending.
    pub fn unread_handles(&self) -> Vec<usize> {
        self.note_scan();
        let mut out = Vec::with_capacity(self.len() - self.asleep);
        let unread = self
            .active_words
            .iter()
            .zip(&self.deselected_words)
            .map(|(a, d)| a | d);
        for_each_bit(unread, |idx| out.push(idx));
        out
    }

    /// Calls `f` for every active handle in ascending order, by iterating
    /// the active-set bitset (O(len/64 + active), no allocation).
    #[inline]
    pub fn for_each_active(&self, f: impl FnMut(usize)) {
        self.note_scan();
        for_each_bit(self.active_words.iter().copied(), f);
    }

    /// Clears `out` and fills it with the active handles in ascending order.
    pub fn collect_active_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.reserve(self.active);
        self.for_each_active(|idx| out.push(idx));
    }

    /// The lowest active handle, if any (O(len/64), no allocation).
    pub fn first_active(&self) -> Option<usize> {
        self.active_words
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| i * 64 + w.trailing_zeros() as usize)
    }

    /// The active-set bitset words (bit `i%64` of word `i/64` = handle `i`).
    pub fn active_words(&self) -> &[u64] {
        &self.active_words
    }

    /// The deselected-set bitset words, laid out like
    /// [`TagPopulation::active_words`].
    pub fn deselected_words(&self) -> &[u64] {
        &self.deselected_words
    }

    /// The raw EPC word columns, aligned with handles: `(hi, lo)`.
    pub fn id_words(&self) -> (&[u32], &[u64]) {
        (&self.ids_hi, &self.ids_lo)
    }

    /// The asleep-set bitset words: handles in neither state set.
    pub fn asleep_words(&self) -> Vec<u64> {
        full_words(self.len())
            .iter()
            .zip(self.active_words.iter().zip(&self.deselected_words))
            .map(|(all, (a, d))| all & !(a | d))
            .collect()
    }

    /// Puts tag `idx` to sleep (after a successful interrogation).
    ///
    /// # Panics
    /// Panics if the tag is not active.
    pub fn sleep(&mut self, idx: usize) {
        let (w, bit) = self.slot(idx);
        if self.active_words[w] & bit == 0 {
            panic!("tag {idx} slept twice");
        }
        self.active_words[w] &= !bit;
        self.active -= 1;
        self.asleep += 1;
    }

    /// Deselects tag `idx` for the current circle (no-op unless active).
    pub fn deselect(&mut self, idx: usize) {
        let (w, bit) = self.slot(idx);
        self.deselect_word(w, bit);
    }

    /// Deselects, for the current circle, every active tag of word `w`
    /// whose bit is set in `mask`; other bits are ignored.
    #[inline]
    pub fn deselect_word(&mut self, w: usize, mask: u64) {
        let mask = mask & self.active_words[w];
        self.active_words[w] &= !mask;
        self.deselected_words[w] |= mask;
        self.active -= mask.count_ones() as usize;
    }

    /// Re-activates every deselected tag (start of the next circle): one
    /// O(len/64) OR pass, free when nobody is deselected.
    pub fn reselect_all(&mut self) {
        if self.active + self.asleep == self.len() {
            return;
        }
        for (a, d) in self.active_words.iter_mut().zip(&mut self.deselected_words) {
            *a |= std::mem::take(d);
        }
        self.active = self.len() - self.asleep;
    }

    /// Number of tags asleep (successfully read).
    pub fn asleep_count(&self) -> usize {
        debug_assert_eq!(
            self.asleep,
            self.len() - popcount(&self.active_words) - popcount(&self.deselected_words)
        );
        self.asleep
    }

    /// Number of tags whose receivers are on: everyone not yet read —
    /// deselected tags still listen (they must hear the next circle
    /// command). Drives the energy model's listen integral.
    pub fn listening_count(&self) -> usize {
        self.len() - self.asleep
    }

    /// `true` once every tag has been read.
    pub fn all_asleep(&self) -> bool {
        self.asleep_count() == self.len()
    }

    #[cfg(debug_assertions)]
    #[inline]
    fn note_scan(&self) {
        self.scans.set(self.scans.get() + 1);
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn note_scan(&self) {}

    /// Debug builds only: how many full-population scans have been taken.
    /// Slot handlers assert this is unchanged across a slot.
    #[cfg(debug_assertions)]
    pub fn scan_epoch(&self) -> u64 {
        self.scans.get()
    }
}

impl ToJson for TagPopulation {
    /// A population serializes column by column, as a fixed handful of
    /// values whatever its size:
    ///
    /// * `n` — the number of tags;
    /// * `ids` — 24 hex digits per tag (`hi` then `lo`), in handle order;
    /// * `info` — every payload concatenated, hex-packed;
    /// * `info_lens` — the payload lengths as runs `[[len, count], …]`;
    /// * `asleep`, `deselected` — `n`-bit hex bitsets of the tag states.
    ///
    /// The counts are derived state and are rebuilt on load.
    fn to_json(&self) -> Json {
        let n = self.len();
        let mut ids = HexWriter::with_bits(n * 96);
        for (&hi, &lo) in self.ids_hi.iter().zip(&self.ids_lo) {
            ids.push(u64::from(hi), 32);
            ids.push(lo, 64);
        }
        let mut info = HexWriter::with_bits(self.info.bits());
        self.info.pack_into(&mut info);
        let asleep = self.asleep_words();
        let runs = self
            .info
            .runs()
            .into_iter()
            .map(|(len, count)| Json::Arr(vec![len.to_json(), count.to_json()]))
            .collect();
        Json::Obj(vec![
            ("n".to_string(), n.to_json()),
            ("ids".to_string(), Json::Str(ids.finish())),
            ("info".to_string(), Json::Str(info.finish())),
            ("info_lens".to_string(), Json::Arr(runs)),
            ("asleep".to_string(), Json::Str(encode_bitset(&asleep, n))),
            (
                "deselected".to_string(),
                Json::Str(encode_bitset(&self.deselected_words, n)),
            ),
        ])
    }
}

impl FromJson for TagPopulation {
    /// Reads the columnar encoding back. Every malformed column — wrong
    /// length, a non-hex digit, nonzero padding, runs that do not cover
    /// `n` tags, a tag both asleep and deselected, a repeated ID — is a
    /// typed error. Any other shape (including the per-tag object array
    /// older snapshots carried) is rejected with the expected fields named.
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        if !matches!(json, Json::Obj(_)) {
            return Err(JsonError(
                "a population must be an object with fields n, ids, info, info_lens, asleep, deselected"
                    .to_string(),
            ));
        }
        let n: usize = json.field("n")?;
        let id_bits = n
            .checked_mul(96)
            .ok_or_else(|| JsonError(format!("population of {n} tags is too large")))?;
        let mut ids = HexReader::new(json.field_str("ids")?, id_bits, "ids")?;
        let runs = info_runs(json, n)?;
        let info_bits = runs
            .iter()
            .try_fold(0usize, |acc, &(len, count)| {
                acc.checked_add(len.checked_mul(count)?)
            })
            .ok_or_else(|| JsonError("'info_lens' total overflows".to_string()))?;
        let mut info = HexReader::new(json.field_str("info")?, info_bits, "info")?;
        let asleep = decode_bitset(json.field_str("asleep")?, n, "asleep")?;
        let deselected = decode_bitset(json.field_str("deselected")?, n, "deselected")?;
        if let Some(w) = (0..asleep.len()).find(|&w| asleep[w] & deselected[w] != 0) {
            let idx = w * 64 + (asleep[w] & deselected[w]).trailing_zeros() as usize;
            return Err(JsonError(format!(
                "tag {idx} is both asleep and deselected"
            )));
        }
        let (mut ids_hi, mut ids_lo) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..n {
            ids_hi.push(ids.read(32) as u32);
            ids_lo.push(ids.read(64));
        }
        if let Some(id) = first_repeat(&ids_hi, &ids_lo) {
            return Err(JsonError(format!("duplicate tag ID {id}")));
        }
        let info = BitColumn::unpack_from(&mut info, &runs, info_bits);
        let active = full_words(n)
            .iter()
            .zip(asleep.iter().zip(&deselected))
            .map(|(all, (s, d))| all & !(s | d))
            .collect();
        Ok(TagPopulation::with_state(
            ids_hi, ids_lo, info, active, deselected,
        ))
    }
}

/// The `info_lens` runs as `(len, count)` pairs, checked to cover exactly
/// `n` tags with no empty run.
fn info_runs(json: &Json, n: usize) -> Result<Vec<(usize, usize)>, JsonError> {
    let runs: Vec<Vec<usize>> = json.field("info_lens")?;
    let mut covered = 0usize;
    let mut out = Vec::with_capacity(runs.len());
    for run in runs {
        let [len, count] = run[..] else {
            return Err(JsonError(
                "'info_lens' runs must be [len, count] pairs".to_string(),
            ));
        };
        if count == 0 {
            return Err(JsonError("'info_lens' has an empty run".to_string()));
        }
        covered = covered.saturating_add(count);
        out.push((len, count));
    }
    if covered != n {
        return Err(JsonError(format!(
            "'info_lens' runs cover {covered} tags, expected {n}"
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop(n: usize) -> TagPopulation {
        TagPopulation::sequential(n, |_| BitVec::from_str_bits("1"))
    }

    #[test]
    fn counts_track_state_changes() {
        let mut p = pop(5);
        assert_eq!(p.len(), 5);
        assert_eq!(p.active_count(), 5);
        p.sleep(2);
        assert_eq!(p.active_count(), 4);
        assert_eq!(p.asleep_count(), 1);
        p.deselect(0);
        p.deselect(1);
        assert_eq!(p.active_count(), 2);
        p.reselect_all();
        assert_eq!(p.active_count(), 4);
        assert!(!p.all_asleep());
    }

    #[test]
    fn active_handles_excludes_slept_and_deselected() {
        let mut p = pop(4);
        p.sleep(1);
        p.deselect(3);
        assert_eq!(p.active_handles(), vec![0, 2]);
    }

    #[test]
    fn bitset_mirrors_state_across_transitions() {
        let mut p = pop(130);
        p.sleep(0);
        p.sleep(64);
        p.deselect(65);
        p.deselect(129);
        let naive: Vec<usize> = (0..p.len()).filter(|&i| p.is_active(i)).collect();
        let mut via_bits = Vec::new();
        p.collect_active_into(&mut via_bits);
        assert_eq!(via_bits, naive);
        assert_eq!(p.first_active(), Some(1));
        p.reselect_all();
        let mut after = Vec::new();
        p.collect_active_into(&mut after);
        assert_eq!(after.len(), 128);
        assert!(after.contains(&65) && after.contains(&129));
    }

    #[test]
    fn first_active_none_when_everyone_slept() {
        let mut p = pop(3);
        for i in 0..3 {
            p.sleep(i);
        }
        assert_eq!(p.first_active(), None);
    }

    #[test]
    fn id_words_align_with_handles() {
        let p = pop(70);
        let (hi, lo) = p.id_words();
        for (i, t) in p.iter() {
            assert_eq!(hi[i], t.id.hi());
            assert_eq!(lo[i], t.id.lo());
        }
    }

    #[test]
    fn all_asleep_after_sleeping_everyone() {
        let mut p = pop(3);
        for i in 0..3 {
            p.sleep(i);
        }
        assert!(p.all_asleep());
        assert_eq!(p.active_count(), 0);
    }

    #[test]
    #[should_panic(expected = "slept twice")]
    fn double_sleep_panics() {
        let mut p = pop(2);
        p.sleep(0);
        p.sleep(0);
    }

    #[test]
    #[should_panic(expected = "duplicate tag ID")]
    fn duplicate_ids_rejected() {
        let id = TagId::from_raw(0, 7);
        let _ = TagPopulation::new(vec![(id, BitVec::new()), (id, BitVec::new())]);
    }

    #[test]
    fn state_reads_the_bitsets() {
        let mut p = pop(3);
        assert_eq!(p.state(0), TagState::Active);
        p.sleep(0);
        p.deselect(1);
        // Deselecting a sleeper is a no-op; sleep is terminal.
        p.deselect(0);
        assert_eq!(p.state(0), TagState::Asleep);
        assert_eq!(p.state(1), TagState::Deselected);
        assert!(!p.is_active(1) && p.is_active(2));
        p.reselect_all();
        assert_eq!(p.state(0), TagState::Asleep);
        assert_eq!(p.state(1), TagState::Active);
        assert_eq!(p.unread_handles(), vec![1, 2]);
    }

    #[test]
    fn word_deselect_ignores_inactive_bits() {
        let mut p = pop(70);
        p.sleep(1);
        p.deselect_word(0, 0b111);
        assert_eq!(p.active_count(), 67);
        assert_eq!(p.deselected_words(), &[0b101, 0][..]);
        p.deselect_word(1, u64::MAX);
        assert_eq!(p.active_count(), 61);
        assert_eq!(p.active_words()[1], 0);
        assert_eq!(p.deselected_words()[1], 0b11_1111);
        p.reselect_all();
        assert_eq!(p.active_count(), 69);
        assert_eq!(p.deselected_words(), &[0, 0][..]);
        assert_eq!(p.asleep_count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn state_of_a_padding_bit_panics() {
        let _ = pop(3).state(5);
    }

    #[test]
    fn reselect_does_not_wake_sleepers() {
        let mut p = pop(2);
        p.sleep(0);
        p.reselect_all();
        assert_eq!(p.active_count(), 1);
    }
}
