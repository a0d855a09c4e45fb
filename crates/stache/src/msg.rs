//! Protocol message vocabulary.
//!
//! One channel exists per node: the fabric inbox, carrying [`Msg`] between
//! nodes. A handler that completes something the node's own program is
//! waiting for says so by returning a [`Wake`] to the loop that is
//! draining the inbox.
//!
//! Two kinds of identifiers make the vocabulary safe on a faulty fabric:
//!
//! * **Sequence numbers** (`seq`): every request a node issues
//!   carries a value from its node's monotonic stream, and each *retry* of
//!   a request draws a fresh one. Homes accept a request only if its seq is
//!   newer than the last one accepted from that requester (duplicates and
//!   out-of-date retransmissions are ignored), and the grant echoes the
//!   seq so the requester can discard grants its own retry has overtaken.
//! * **Operation ids** (`op`): every recall / invalidation round a home
//!   starts is tagged with a home-unique id, echoed by the replies, so the
//!   home ignores replies to rounds that already completed and owners can
//!   answer re-sent recalls idempotently.
//!
//! All payloads are `Clone` because a faulty fabric may duplicate them in
//! flight. Data payloads are `Arc<[u8]>`, snapshotted once at the sender:
//! cloning a message for fan-out, duplication, or retransmission storage
//! bumps a refcount instead of copying block bytes (the zero-copy send
//! path).
//!
//! On the wire, consecutive same-destination messages travel packed in a
//! `WireBatch` (DESIGN.md §2.1). Batching is invisible at this layer —
//! the vocabulary, seq/op identifiers, and per-message cost accounting
//! all operate on individual messages — but it imposes one obligation on
//! senders: a buffered message is not visible to its destination until
//! the sender's egress is flushed, so a node flushes before it blocks and
//! whenever it stops handling messages (`Node::next_wake` and `Node::poll`
//! do; see `NodeShared::send`).

use std::sync::Arc;

use prescient_tempest::{BlockId, NodeId, NodeSet};

/// A message between protocol handlers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Requester → home: ask for a read-only copy of `block`.
    GetShared {
        /// Requested block.
        block: BlockId,
        /// Requester's sequence number (fresh per retry).
        seq: u64,
    },
    /// Requester → home: ask for a writable copy of `block`.
    GetExcl {
        /// Requested block.
        block: BlockId,
        /// Requester's sequence number (fresh per retry).
        seq: u64,
    },
    /// Home → exclusive owner: give the block back.
    Recall {
        /// Recalled block.
        block: BlockId,
        /// `true`: invalidate the owner's copy; `false`: downgrade it to
        /// read-only (the owner stays a sharer).
        inval: bool,
        /// Home-unique id of this recall round.
        op: u64,
    },
    /// Owner → home: reply to a recall.
    RecallData {
        /// The block.
        block: BlockId,
        /// Its bytes at the owner; `None` when the owner never received
        /// the granted copy (the grant was lost in flight), in which case
        /// the home's own memory is still current.
        data: Option<Arc<[u8]>>,
        /// Echo of the recall round's id.
        op: u64,
        /// The recalled copy was installed by a pre-send and never
        /// accessed (a useless pre-send, fed to the degradation policy).
        unused: bool,
    },
    /// Home → sharer: drop your read-only copy.
    Invalidate {
        /// The block.
        block: BlockId,
        /// Home-unique id of this invalidation round.
        op: u64,
    },
    /// Sharer → home: copy dropped.
    InvalAck {
        /// The block.
        block: BlockId,
        /// Echo of the invalidation round's id.
        op: u64,
        /// The invalidated copy was an unread pre-send.
        unused: bool,
    },
    /// Home → requester: access granted. The requester's handler installs
    /// the data (when present) and reports the grant to the waiting fetch.
    Grant {
        /// The block.
        block: BlockId,
        /// Writable (`true`) or read-only (`false`) grant.
        excl: bool,
        /// Block contents; `None` for upgrades and home-local grants where
        /// the requester already holds current data.
        data: Option<Arc<[u8]>>,
        /// Protocol hops beyond the minimal request–response pair (recall
        /// or invalidation rounds); drives the cost model.
        extra_hops: u32,
        /// Whether the home recorded this request in a communication
        /// schedule (predictive protocol active), which adds handler cost.
        recorded: bool,
        /// Echo of the request's sequence number; the requester discards
        /// grants that no longer match its outstanding request.
        seq: u64,
    },
    /// An extension (user-level protocol) message — Tempest active-message
    /// style: a handler code plus an uninterpreted payload.
    User(UserMsg),
    /// Host-level wake-up, outside the protocol: "stop waiting on your
    /// inbox and look at whatever you were waiting for again". Sent
    /// directly (`NodeShared::kick`: uncounted, unfaulted, unbatched) by
    /// the last arriver at a barrier and by whoever aborts the machine.
    Kick,
    /// Recovery drain marker. A node self-sends one `Fence` and drains its
    /// inbox up to the matching [`Wake::Fence`]: because each inbox channel is a FIFO
    /// queue, the marker's arrival proves every wire batch that was ahead
    /// of it in this node's inbox has been handled. Two fence rounds with
    /// barriers between (DESIGN.md §12) drain the channels completely
    /// before checkpoint state is restored.
    Fence,
}

impl Msg {
    /// Stable small code of this message's kind, as carried by
    /// `MsgSend`/`MsgRecv` trace events (and decoded by the
    /// `prescient-telemetry` analyzer via [`Msg::kind_name`]).
    pub fn kind_code(&self) -> u16 {
        match self {
            Msg::GetShared { .. } => 1,
            Msg::GetExcl { .. } => 2,
            Msg::Recall { .. } => 3,
            Msg::RecallData { .. } => 4,
            Msg::Invalidate { .. } => 5,
            Msg::InvalAck { .. } => 6,
            Msg::Grant { .. } => 7,
            Msg::User(_) => 8,
            Msg::Kick => 9,
            Msg::Fence => 10,
        }
    }

    /// Stable name of a kind code (the inverse of [`Msg::kind_code`];
    /// unknown codes decode as `"?"`).
    pub fn kind_name(code: u16) -> &'static str {
        match code {
            1 => "GetShared",
            2 => "GetExcl",
            3 => "Recall",
            4 => "RecallData",
            5 => "Invalidate",
            6 => "InvalAck",
            7 => "Grant",
            8 => "User",
            9 => "Kick",
            10 => "Fence",
            _ => "?",
        }
    }

    /// The message-specific scalar a `MsgSend`/`MsgRecv` trace event
    /// carries as its second argument: the block for coherence traffic,
    /// the extension scalar (e.g. a push id) for user messages.
    pub fn trace_aux(&self) -> u64 {
        match self {
            Msg::GetShared { block, .. }
            | Msg::GetExcl { block, .. }
            | Msg::Recall { block, .. }
            | Msg::RecallData { block, .. }
            | Msg::Invalidate { block, .. }
            | Msg::InvalAck { block, .. }
            | Msg::Grant { block, .. } => block.0,
            Msg::User(u) => u.a,
            Msg::Kick | Msg::Fence => 0,
        }
    }
}

/// Payload of an extension message. The base protocol routes these to the
/// installed [`crate::hooks::Hooks`] without interpreting them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserMsg {
    /// Extension-defined handler code.
    pub code: u16,
    /// Small scalar argument (phase ids, counts, push ids, ...).
    pub a: u64,
    /// Second scalar argument (epoch stamps, waste counts, ...).
    pub b: u64,
    /// Block argument.
    pub block: BlockId,
    /// Node-set argument (e.g. target readers of a push).
    pub set: NodeSet,
    /// Node argument (e.g. target writer).
    pub node: NodeId,
    /// Bulk data: blocks with their bytes (pre-send / update payloads).
    /// Doubly shared: the outer `Arc` lets the per-target fan-out and the
    /// retransmission store reuse one payload list, and each block's bytes
    /// are themselves an `Arc` snapshot.
    pub blocks: Arc<[(BlockId, Arc<[u8]>)]>,
}

impl UserMsg {
    /// A user message with a code and scalar only.
    pub fn simple(code: u16, a: u64) -> UserMsg {
        UserMsg {
            code,
            a,
            b: 0,
            block: BlockId(0),
            set: NodeSet::EMPTY,
            node: 0,
            blocks: Arc::new([]),
        }
    }
}

/// What handling one message means to the node's own program: returned by
/// `Engine::handle` to whichever loop is draining the inbox (a fetch, an
/// acknowledgement wait, a barrier). Most messages serve a peer and yield
/// none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// A previously requested block was granted and installed.
    Grant {
        /// The block.
        block: BlockId,
        /// Writable grant?
        excl: bool,
        /// Extra protocol hops incurred (cost model input).
        extra_hops: u32,
        /// Data bytes moved (0 for upgrades).
        bytes: usize,
        /// Home recorded the request in a schedule.
        recorded: bool,
        /// Sequence number of the request this grant answers; the fetch
        /// loop discards grants of superseded attempts.
        seq: u64,
    },
    /// Extension wake-up (e.g. one pre-send push acknowledged).
    User {
        /// Extension-defined code.
        code: u16,
        /// Scalar payload.
        a: u64,
        /// Second scalar payload.
        b: u64,
    },
    /// The recovery drain marker ([`Msg::Fence`]) this node self-sent has
    /// come back through the inbox: everything queued ahead of it has been
    /// handled.
    Fence,
    /// A [`Msg::Kick`] arrived: re-check the awaited condition.
    Kick,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_msg_simple() {
        let m = UserMsg::simple(7, 99);
        assert_eq!(m.code, 7);
        assert_eq!(m.a, 99);
        assert_eq!(m.b, 0);
        assert!(m.blocks.is_empty());
        assert!(m.set.is_empty());
    }
}
