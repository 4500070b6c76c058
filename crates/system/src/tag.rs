//! The tag model.
//!
//! A C1G2 tag is passive state: a 96-bit EPC, an information payload (the
//! `m` bits the polling task collects — a presence bit, a battery level, a
//! temperature word, …) and an inventory state. Per the paper, a tag that
//! has been interrogated "goes to sleep in the following protocol
//! execution"; tags that picked collision indices stay active for the next
//! round. No struct owns a tag: the [`TagPopulation`](crate::TagPopulation)
//! keeps every ID, payload and state in columns, and [`Tag`] is a borrowed
//! view of one handle's ID and payload.

use crate::bitvec::BitSlice;
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

/// One RFID tag's identity and payload, borrowed from its population's
/// columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tag<'a> {
    /// The 96-bit EPC.
    pub id: TagId,
    /// The information payload the reader wants (length = `m` bits).
    pub info: BitSlice<'a>,
}

crate::impl_json_enum_units!(TagState {
    Active,
    Asleep,
    Deselected
});
