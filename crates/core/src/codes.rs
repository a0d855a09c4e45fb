//! User-message handler codes for the predictive protocol.
//!
//! Tempest active messages carry a handler identifier; these constants are
//! the predictive protocol's vocabulary on top of Stache's
//! [`prescient_stache::msg::UserMsg`] escape hatch.

/// Home → target: bulk pre-send of read-only copies. `blocks` carries the
/// coalesced `(block, data)` run; the receiver installs all of them with a
/// `ReadOnly` tag and acknowledges. `a` = push id (unique per sender,
/// echoed in the ack; duplicates are re-acked without re-installing),
/// `b` = the sender's pre-send epoch (stale-epoch pushes are dropped).
pub const PRESEND_RO: u16 = 0x50;

/// Home → target: bulk pre-send of writable copies (`ReadWrite` tags).
/// Same `a`/`b` discipline as [`PRESEND_RO`].
pub const PRESEND_RW: u16 = 0x51;

/// Target → home: pre-send installed. `a` = push id being acknowledged,
/// `b` = how many of the installed blocks overwrote a previously pre-sent
/// copy that was never read (useless pre-sends, fed to schedule health).
pub const PRESEND_ACK: u16 = 0x52;

/// Wake-up code reported to the home's waiting pre-send driver per
/// acknowledged pre-send message (`a` = push id, `b` = useless count; see
/// [`PRESEND_ACK`]).
pub const WAKE_PRESEND_ACK: u16 = 0x53;

/// Contributor → owner: one chunk of a privatized delta buffer for the
/// commutative-merge protocol. `blocks` carries a single `(chunk_seq,
/// payload)` entry whose pseudo block id is the chunk's sequence number
/// within the sender's payload for this merge window; the payload bytes
/// are opaque to the protocol (the application encodes/decodes them).
/// `a` = push id (unique per sender, echoed in the ack; duplicates are
/// re-acked without re-buffering), `b` = the sender's merge epoch
/// (stale-epoch pushes are dropped unacknowledged).
pub const COMMUTE_PUSH: u16 = 0x60;

/// Owner → contributor: delta chunk buffered. `a` = push id being
/// acknowledged, `b` = 0 (reserved).
pub const COMMUTE_ACK: u16 = 0x61;

/// Wake-up code reported to the contributor's waiting merge driver per
/// acknowledged delta chunk (`a` = push id; see [`COMMUTE_ACK`]).
pub const WAKE_COMMUTE_ACK: u16 = 0x62;
