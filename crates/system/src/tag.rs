//! The tag model.
//!
//! A C1G2 tag is passive state: a 96-bit EPC, an information payload (the
//! `m` bits the polling task collects — a presence bit, a battery level, a
//! temperature word, …) and an inventory state. Per the paper, a tag that
//! has been interrogated "goes to sleep in the following protocol
//! execution"; tags that picked collision indices stay active for the next
//! round. The population, not the tag, records which state each tag is in.

use crate::bitvec::BitVec;
use crate::id::TagId;

/// Inventory state of a tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagState {
    /// Listening and willing to reply.
    Active,
    /// Already interrogated; ignores all further commands this inventory.
    Asleep,
    /// Deselected for the current EHPP circle (will re-activate next circle).
    Deselected,
}

/// One RFID tag: its identity and payload. Its inventory state is owned by
/// the [`TagPopulation`](crate::TagPopulation) it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Tag {
    /// The 96-bit EPC.
    pub id: TagId,
    /// The information payload the reader wants (length = `m` bits).
    pub info: BitVec,
}

impl Tag {
    /// A tag with the given EPC and payload.
    pub fn new(id: TagId, info: BitVec) -> Self {
        Tag { id, info }
    }
}

crate::impl_json_enum_units!(TagState {
    Active,
    Asleep,
    Deselected
});
crate::impl_json_struct!(Tag { id, info });
