//! The directory protocol as one transition relation: [`HOME_ROWS`],
//! [`PEER_ROWS`] for the requester side, and the legal tags of each
//! [`STABLE`] state, which [`crate::check_coherence`] holds nodes to.
//! DESIGN.md §2.3 prints and explains them (`tests/rows.rs` renders it,
//! and enumerates the domain: exactly one row per point). The interpreter
//! below is the only code that writes `DirEntry::state` or builds a
//! [`Busy`]; debug builds count each row's firings in [`HITS`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use prescient_tempest::tag::Tag;
use prescient_tempest::{BlockId, NodeId, NodeMem, NodeSet, NodeStats};

use crate::dir::{Busy, DirEntry, DirState, Directory, PendingReq};
use crate::hooks::{Hooks, NoHooks};
use crate::msg::{Msg, Wake};
use crate::node::{NodeShared, NodeState, RecallReply};

/// A set of entry states, tags, events or predicates: one bit each.
pub type Bits = u16;

/// Declares families of bits, each bit with its printed name and its doc,
/// and per family the `(bit, name)` table that lists them.
macro_rules! bits {
    ($($(#[$m:meta])* $table:ident { $($name:ident = $bit:literal, $label:literal, $doc:literal;)* })*) => {
        $($(#[doc = $doc] pub const $name: Bits = 1 << $bit;)*
        $(#[$m])* pub const $table: &[(Bits, &str)] = &[$(($name, $label)),*];)*
    };
}

bits! {
    /// Where a home entry is: its stable state and the round in flight.
    ATS {
        U = 0, "U", "Uncached, nothing in flight.";
        S = 1, "S", "Shared, nothing in flight.";
        X = 2, "X", "Exclusive, nothing in flight.";
        XR = 3, "X + recall", "Exclusive, a recall round in flight.";
        SI = 4, "S + invals", "Shared (the residual set), an invalidation round in flight.";
    }
    /// A requester's tag.
    TAGS {
        TI = 0, "I", "`Invalid`.";
        TRO = 1, "RO", "`ReadOnly`.";
        TRW = 2, "RW", "`ReadWrite`.";
    }
    /// The home's events.
    HOME_EVENTS {
        GETS = 0, "GetS", "A fresh `GetShared`.";
        GETX = 1, "GetX", "A fresh `GetExcl`.";
        DUP = 2, "Get, dup seq", "A request whose seq is not newer than its requester's watermark.";
        RETRY = 3, "Get, parked", "A fresh seq from a requester already parked at the entry.";
        RDATA = 4, "RecallData", "`RecallData` answering the recall round in flight.";
        RDATA_STALE = 5, "RecallData, stale op", "`RecallData` naming no round in flight.";
        ACK = 6, "InvalAck", "`InvalAck` from a sharer the round in flight waits for.";
        ACK_STALE = 7, "InvalAck, stale op", "Any other `InvalAck`.";
        PUSH_R = 8, "install R", "Pre-send pass 2 commits a read push ([`install`]).";
        PUSH_W = 9, "install W", "Pre-send pass 2 commits a write push.";
    }
    /// The requester's events.
    PEER_EVENTS {
        RECALL = 10, "Recall", "A `Recall` at a holder.";
        INVALIDATE = 11, "Invalidate", "An `Invalidate` at a sharer.";
        GRANT = 12, "Grant", "A `Grant` at the requester.";
    }
    /// The predicates a guard may name.
    PREDS {
        HOME = 0, "home", "The request's node is the home.";
        MEMBER = 1, "member", "The requester is in the sharer set.";
        ALONE = 2, "alone", "No sharer but the requester.";
        OWNER = 3, "owner", "The requester is the exclusive owner.";
        IDENT = 4, "identity", "Placement does not act on the block.";
        EXCL = 5, "excl", "The parked request wants a writable copy.";
        DATA = 6, "data", "The recall reply carries bytes.";
        LAST = 7, "last", "The round waits for no other ack.";
        INVAL = 8, "inval", "The recall invalidates rather than downgrades.";
        RECORDED = 9, "recorded", "A reply to this recall round is recorded.";
        LOCAL = 10, "local", "The grant is the home's own.";
        CURRENT = 11, "current", "The grant's seq is the fetch in flight.";
    }
}
const IDLE: Bits = U | S | X;
const BUSY: Bits = XR | SI;
const TANY: Bits = TI | TRO | TRW;
const GET: Bits = GETS | GETX;

/// The predicates an event's guard reads: its domain is every subset.
pub fn reads(ev: Bits) -> Bits {
    match ev {
        GETS | GETX => HOME | MEMBER | ALONE | OWNER | IDENT,
        RDATA => EXCL | HOME | DATA,
        ACK => LAST | HOME | MEMBER,
        RECALL => INVAL | RECORDED,
        GRANT => LOCAL | CURRENT,
        _ => 0,
    }
}

/// Where a row applies: `(at, events, predicates that hold, predicates
/// that fail)`; a requester row's `at` is the node's tag.
#[derive(Debug, Clone, Copy)]
pub struct Key(pub Bits, pub Bits, pub Bits, pub Bits);

impl Key {
    /// Does the row apply at `at` to `ev` when the predicates `g` hold?
    pub const fn matches(&self, at: Bits, ev: Bits, g: Bits) -> bool {
        let Key(a, e, is, not) = *self;
        a & at != 0 && e & ev != 0 && g & is == is && g & not == 0
    }
}

/// One home row: where it applies, what it does.
#[derive(Debug)]
pub struct Row(pub Key, pub Out);

/// What a home row does: write the next state, then run the actions in
/// order; or nothing, since its points cannot occur (the reason given).
#[allow(missing_docs)]
#[derive(Debug)]
pub enum Out {
    Do(&'static [Act], Next),
    Never(&'static str),
}

/// The home's actions, `r` being the request's node and `o` the other
/// copies (the sharers but `r`, or the owner): set the home's tag; install
/// the recall reply's bytes at the home under a tag; grant the request
/// served without or with the block's bytes, plus extra hops; start a
/// recall round at the owner, or an invalidation round at `o` (the entry
/// goes busy); strike the acknowledging sharer from the round; refresh a
/// parked request's seq to its retry's; queue the request behind the round;
/// re-send the round's outstanding messages; count a duplicate request, a
/// pre-send race, a stale reply, an aborted push; report a torn-down unread
/// pre-send to the hooks; end the round and serve the queue.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    Tag(Tag),
    Install(Tag),
    Grant(u32),
    GrantData(u32),
    Recall,
    Invalidate,
    Ack,
    Park,
    Queue,
    Nudge,
    CountDup,
    CountRace,
    CountStale,
    CountAborted,
    Wasted,
    Drain,
}

/// A home row's next stable state: unchanged, `Uncached`, `Exclusive(r)`,
/// `Shared{r}`, `Shared{}` (nobody keeps a copy while the round runs), the
/// entry's holders as sharers (`Shared{o}`: the old owner keeps a read-only
/// copy), the holders and `r` (`Shared(o ∪ r)`). For a push, `r` is its
/// targets.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    Keep,
    Uncached,
    Owner,
    Sharer,
    Nobody,
    Others,
    Join,
}

const fn row(at: Bits, ev: Bits, is: Bits, not: Bits, acts: &'static [Act], next: Next) -> Row {
    Row(Key(at, ev, is, not), Out::Do(acts, next))
}

const fn never(at: Bits, ev: Bits, is: Bits, not: Bits, why: &'static str) -> Row {
    Row(Key(at, ev, is, not), Out::Never(why))
}

use Tag::{Invalid as I, ReadOnly as RO, ReadWrite as RW};
const NOT_IN_S: &str = "the home is never in its own sharer set";

use Act::*;

/// The home's transition relation (see the module docs).
#[rustfmt::skip]
pub const HOME_ROWS: &[Row] = &[
    row(U, GET, HOME | IDENT, 0, &[Grant(0)], Next::Keep),
    row(U, GET, HOME, IDENT, &[Tag(RW), Grant(0)], Next::Keep),
    row(U, GETX, 0, HOME, &[Tag(I), GrantData(0)], Next::Owner),
    row(U, GETS, 0, HOME, &[Tag(RO), GrantData(0)], Next::Sharer),
    row(S, GETS, HOME, MEMBER, &[Grant(0)], Next::Keep),
    row(S, GETS, MEMBER, HOME, &[CountRace, GrantData(0)], Next::Join),
    row(S, GETS, 0, HOME | MEMBER, &[GrantData(0)], Next::Join),
    row(S, GETX, MEMBER | ALONE, HOME, &[Tag(I), Grant(0)], Next::Owner),
    row(S, GETX, MEMBER, HOME | ALONE, &[Invalidate], Next::Sharer),
    row(S, GETX, 0, MEMBER | ALONE, &[Invalidate], Next::Nobody),
    never(S, GET, HOME | MEMBER, 0, NOT_IN_S),
    never(S, GETX, ALONE, MEMBER, "an idle Shared set is never empty"),
    row(X, GETX, OWNER, 0, &[GrantData(0)], Next::Keep),
    row(X, GETS, OWNER, 0, &[Tag(RO), GrantData(0)], Next::Sharer),
    row(X, GET, 0, OWNER, &[Recall], Next::Keep),
    row(BUSY, GET, 0, 0, &[Queue, Nudge], Next::Keep),
    row(IDLE | BUSY, DUP, 0, 0, &[CountDup, Nudge], Next::Keep),
    row(BUSY, RETRY, 0, 0, &[Park, Nudge], Next::Keep),
    never(IDLE, RETRY | RDATA | ACK, 0, 0, "an idle entry parks no request and awaits no reply"),
    row(XR, RDATA, EXCL | HOME | DATA, 0, &[Wasted, Install(RW), Grant(1), Drain], Next::Uncached),
    row(XR, RDATA, EXCL | HOME, DATA, &[Wasted, Tag(RW), Grant(1), Drain], Next::Uncached),
    row(XR, RDATA, EXCL | DATA, HOME, &[Wasted, Install(I), GrantData(1), Drain], Next::Owner),
    row(XR, RDATA, EXCL, HOME | DATA, &[Wasted, GrantData(1), Drain], Next::Owner),
    row(XR, RDATA, HOME | DATA, EXCL, &[Wasted, Install(RO), Grant(1), Drain], Next::Others),
    row(XR, RDATA, HOME, EXCL | DATA, &[Wasted, Tag(RW), Grant(1), Drain], Next::Uncached),
    row(XR, RDATA, DATA, EXCL | HOME, &[Wasted, Install(RO), GrantData(1), Drain], Next::Join),
    row(XR, RDATA, 0, EXCL | HOME | DATA, &[Wasted, Tag(RO), GrantData(1), Drain], Next::Sharer),
    never(SI, RDATA, 0, 0, "a live RecallData answers a recall round"),
    row(IDLE | BUSY, RDATA_STALE, 0, 0, &[CountStale], Next::Keep),
    row(SI, ACK, 0, LAST, &[Ack, Wasted], Next::Keep),
    row(SI, ACK, LAST | HOME, MEMBER, &[Wasted, Tag(RW), Grant(1), Drain], Next::Uncached),
    row(SI, ACK, LAST | MEMBER, HOME, &[Wasted, Tag(I), Grant(1), Drain], Next::Owner),
    row(SI, ACK, LAST, HOME | MEMBER, &[Wasted, Tag(I), GrantData(1), Drain], Next::Owner),
    never(SI, ACK, LAST | HOME | MEMBER, 0, NOT_IN_S),
    never(XR, ACK, 0, 0, "a live InvalAck answers an invalidation round"),
    row(IDLE | BUSY, ACK_STALE, 0, 0, &[CountStale], Next::Keep),
    row(U | S, PUSH_R, 0, 0, &[Tag(RO)], Next::Join),
    row(U, PUSH_W, 0, 0, &[Tag(I)], Next::Owner),
    row(X, PUSH_R, 0, 0, &[CountAborted], Next::Keep),
    row(S | X, PUSH_W, 0, 0, &[CountAborted], Next::Keep),
    row(BUSY, PUSH_R | PUSH_W, 0, 0, &[CountAborted], Next::Keep),
];

/// One requester row: where it applies, the node's new tag (`None`:
/// unchanged), its reply.
#[derive(Debug)]
pub struct PeerRow(pub Key, pub Option<Tag>, pub Reply);

/// A requester row's reply: `RecallData` with the copy's bytes, recorded
/// for a re-sent recall; the recorded `RecallData` again; `RecallData`
/// without bytes (the grant never arrived, so home memory is current);
/// `InvalAck`, reporting and clearing the copy's unread-pre-send bit or
/// not; wake the fetch; install the granted copy (or just its tag, for an
/// upgrade), forget any recorded recall reply and wake the fetch; count
/// `stale_grants_in` and drop the grant.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    RecallData,
    Recorded,
    NoData,
    Ack(bool),
    Wake,
    Install,
    Stale,
}

const fn peer(at: Bits, ev: Bits, is: Bits, not: Bits, to: Option<Tag>, reply: Reply) -> PeerRow {
    PeerRow(Key(at, ev, is, not), to, reply)
}

/// The requester's transition relation.
#[rustfmt::skip]
pub const PEER_ROWS: &[PeerRow] = &[
    peer(TRO | TRW, RECALL, INVAL, 0, Some(I), Reply::RecallData),
    peer(TRO | TRW, RECALL, 0, INVAL, Some(RO), Reply::RecallData),
    peer(TI, RECALL, RECORDED, 0, None, Reply::Recorded),
    peer(TI, RECALL, 0, RECORDED, None, Reply::NoData),
    peer(TRO, INVALIDATE, 0, 0, Some(I), Reply::Ack(true)),
    peer(TI | TRW, INVALIDATE, 0, 0, None, Reply::Ack(false)),
    peer(TANY, GRANT, LOCAL, 0, None, Reply::Wake),
    peer(TANY, GRANT, 0, LOCAL | CURRENT, None, Reply::Stale),
    peer(TANY, GRANT, CURRENT, LOCAL, None, Reply::Install),
];

/// The tags (tag bits) stable state `at` allows at its home; at a
/// placement-acted home, which never materializes its own copy writable on
/// first touch and so may still be cold; at a holder (a sharer, which may
/// have dropped its copy, or the owner); at every other node.
#[allow(missing_docs)]
#[derive(Debug)]
pub struct Legal {
    pub at: Bits,
    pub home: Bits,
    pub moved_home: Bits,
    pub holder: Bits,
    pub other: Bits,
}

/// The legal tags of each stable state. The checker also holds every
/// readable remote copy to the home's bytes while those are readable.
pub const STABLE: [Legal; 3] = [
    Legal { at: U, home: TRO | TRW, moved_home: TANY, holder: 0, other: TI },
    Legal { at: S, home: TRO, moved_home: TRO, holder: TI | TRO, other: TI },
    Legal { at: X, home: TI, moved_home: TI, holder: TRW, other: TI },
];

/// The [`STABLE`] row of `state`.
pub fn legal(state: DirState) -> &'static Legal {
    &STABLE[match state {
        DirState::Uncached => 0,
        DirState::Shared(_) => 1,
        DirState::Exclusive(_) => 2,
    }]
}

/// The tag bit of `tag`.
pub fn tag_bit(tag: Tag) -> Bits {
    1 << tag as u16
}

/// The first home row matching each point, at `(at's bit × 10 + the
/// event's bit) × 256 + predicates` (every home predicate is below bit 8):
/// firing a row is one load, not a scan of the table.
static HOME_INDEX: [u8; 5 * 10 * 256] = {
    let mut t = [0; 5 * 10 * 256];
    let mut n = 0;
    while n < t.len() {
        let (at, ev, g) = (1 << (n / 2560), 1 << (n / 256 % 10), (n % 256) as Bits);
        while (t[n] as usize) < HOME_ROWS.len() && !HOME_ROWS[t[n] as usize].0.matches(at, ev, g) {
            t[n] += 1;
        }
        n += 1;
    }
    t
};

/// The home row that applies at one point of the domain (out of range
/// where none does, which the domain test rules out).
pub fn home_row(at: Bits, ev: Bits, g: Bits) -> usize {
    let point = (at.trailing_zeros() * 10 + ev.trailing_zeros()) as usize * 256;
    usize::from(HOME_INDEX[point + usize::from(g)])
}

/// The requester row that applies at one point of the domain.
pub fn peer_row(tag: Bits, ev: Bits, g: Bits) -> usize {
    PEER_ROWS.iter().position(|r| r.0.matches(tag, ev, g)).expect("the peer table is total")
}

const ROWS: usize = HOME_ROWS.len() + PEER_ROWS.len();
/// Firings per row (home rows, then requester rows); debug builds only.
pub static HITS: [AtomicU64; ROWS] = [const { AtomicU64::new(0) }; ROWS];

fn hit(i: usize) {
    if cfg!(debug_assertions) {
        HITS[i].fetch_add(1, Ordering::Relaxed);
    }
}

fn flag(on: bool, bit: Bits) -> Bits {
    bit * Bits::from(on)
}

/// What an event brings to its row: the request served (the incoming one,
/// or the round's parked one), `r`, `o`, the acknowledging sharer, the
/// predicates that hold, the recall reply's bytes and unread-pre-send bit.
#[derive(Default)]
struct Cx {
    req: PendingReq,
    r: NodeSet,
    others: NodeSet,
    src: NodeId,
    g: Bits,
    data: Option<Arc<[u8]>>,
    unused: bool,
}

fn cx(req: PendingReq, g: Bits) -> Cx {
    Cx { req, r: NodeSet::single(req.requester), g, ..Cx::default() }
}

/// One home event in flight: the node, its hooks, its directory and block
/// store, the block.
struct Home<'a> {
    n: &'a NodeShared,
    hooks: &'a dyn Hooks,
    dir: &'a mut Directory,
    mem: &'a mut NodeMem,
    block: BlockId,
}

/// A request, `RecallData` or `InvalAck` from `src` arrived at this home:
/// classify it and fire its row. A fresh request is offered to the hooks
/// (schedule recording) before it is served or queued.
pub(crate) fn on_home(
    n: &NodeShared,
    hooks: &dyn Hooks,
    st: &mut NodeState,
    src: NodeId,
    msg: Msg,
) {
    let NodeState { dir, mem, .. } = st;
    let (block, ev, cx) = match msg {
        Msg::GetShared { block, seq } | Msg::GetExcl { block, seq } => {
            debug_assert_eq!(n.homes.home_of_block(block), n.me, "request routed to non-home");
            let excl = matches!(msg, Msg::GetExcl { .. });
            let mut req = PendingReq { requester: src, excl, recorded: false, seq };
            let ev = if !dir.accept_seq(src, seq) {
                DUP
            } else if dir.get_mut(block).and_then(|e| parked(e, src)).is_some() {
                RETRY
            } else {
                req.recorded = hooks.on_home_request(n, block, src, excl);
                return Home { n, hooks, dir, mem, block }.serve(req);
            };
            (block, ev, cx(req, 0))
        }
        Msg::RecallData { block, data, op, unused } => {
            match dir.get(block).and_then(|e| e.busy.as_ref()) {
                Some(&Busy::Recall { req, owner, op: o }) if o == op => {
                    debug_assert_eq!(owner, src, "recall answered by a non-owner");
                    let g = flag(req.excl, EXCL)
                        | flag(req.requester == n.me, HOME)
                        | flag(data.is_some(), DATA);
                    (block, RDATA, Cx { data, unused, ..cx(req, g) })
                }
                _ => (block, RDATA_STALE, Cx::default()),
            }
        }
        Msg::InvalAck { block, op, unused } => match dir.get(block).map(|e| (e.state, &e.busy)) {
            Some((state, Some(Busy::Invals { req, pending, op: o })))
                if *o == op && pending.contains(src) =>
            {
                let g = flag(*pending == NodeSet::single(src), LAST)
                    | flag(req.requester == n.me, HOME)
                    | flag(state.holders().contains(req.requester), MEMBER);
                (block, ACK, Cx { src, unused, ..cx(*req, g) })
            }
            _ => (block, ACK_STALE, Cx::default()),
        },
        _ => unreachable!("not a home-side message"),
    };
    Home { n, hooks, dir, mem, block }.fire(ev, cx);
}

/// Pre-send pass 2 asks to commit a push of `b` to `to` (when `excl`, a
/// writable copy to its one target). The install row commits the directory
/// and the home's tag, or counts the push aborted because a demand request
/// won the block since pass 1. `true` when committed; the caller then ships
/// the bytes.
pub fn install(n: &NodeShared, st: &mut NodeState, b: BlockId, excl: bool, to: NodeSet) -> bool {
    let requester = to.iter().next().expect("a push has a target");
    let req = PendingReq { requester, excl, ..PendingReq::default() };
    let NodeState { dir, mem, .. } = st;
    let mut home = Home { n, hooks: &NoHooks, dir, mem, block: b };
    let i = home.fire(if excl { PUSH_W } else { PUSH_R }, Cx { r: to, ..cx(req, 0) });
    matches!(HOME_ROWS[i].1, Out::Do(_, next) if next != Next::Keep)
}

impl Home<'_> {
    /// Serve a request that is neither a duplicate nor a retry: fresh from
    /// the wire, or drained from the queue.
    fn serve(&mut self, req: PendingReq) {
        let state = self.dir.entry(self.block).state;
        let (r, held) = (req.requester, state.holders());
        let shared = matches!(state, DirState::Shared(_));
        let g = flag(r == self.n.me, HOME)
            | flag(shared && held.contains(r), MEMBER)
            | flag(shared && held.without(r).is_empty(), ALONE)
            | flag(state == DirState::Exclusive(r), OWNER)
            | flag(self.n.homes.is_identity_block(self.block), IDENT);
        self.fire(if req.excl { GETX } else { GETS }, Cx { others: held.without(r), ..cx(req, g) });
    }

    /// Fire the one row for `ev`; returns its index.
    fn fire(&mut self, ev: Bits, cx: Cx) -> usize {
        let (n, block) = (self.n, self.block);
        let e = self.dir.entry(block);
        let at = match &e.busy {
            Some(Busy::Recall { .. }) => XR,
            Some(Busy::Invals { .. }) => SI,
            None => legal(e.state).at,
        };
        let i = home_row(at, ev, cx.g);
        hit(i);
        let (acts, next) = match HOME_ROWS[i].1 {
            Out::Do(acts, next) => (acts, next),
            Out::Never(why) => panic!("node {}: {block:?}: home row {} fired: {why}", n.me, i + 1),
        };
        let r = cx.req.requester;
        e.state = match next {
            Next::Keep => e.state,
            Next::Uncached => DirState::Uncached,
            Next::Owner => DirState::Exclusive(r),
            Next::Sharer => DirState::Shared(cx.r),
            Next::Nobody => DirState::Shared(NodeSet::EMPTY),
            Next::Others => DirState::Shared(e.state.holders()),
            Next::Join => DirState::Shared(e.state.holders().union(cx.r)),
        };
        for act in acts {
            let (dir, mem, stats) = (&mut *self.dir, &mut *self.mem, &n.stats);
            match *act {
                Tag(t) => mem.set_tag(block, t),
                Install(t) => {
                    let d = cx.data.as_deref().expect("a row installs only returned bytes");
                    mem.install(block, d, t, false);
                    NodeStats::add(&stats.data_bytes_in, d.len() as u64);
                }
                Grant(extra_hops) | GrantData(extra_hops) => {
                    let data = matches!(act, GrantData(_))
                        .then(|| cx.data.clone().unwrap_or_else(|| mem.snapshot(block)));
                    let PendingReq { requester, excl, recorded, seq } = cx.req;
                    n.send(requester, Msg::Grant { block, excl, data, extra_hops, recorded, seq });
                }
                Recall => {
                    let (op, owner) = (dir.alloc_op(), cx.others.iter().next().expect("an owner"));
                    n.send(owner, Msg::Recall { block, inval: cx.req.excl, op });
                    dir.entry(block).busy = Some(Busy::Recall { req: cx.req, owner, op });
                }
                Invalidate => {
                    let op = dir.alloc_op();
                    cx.others.iter().for_each(|o| n.send(o, Msg::Invalidate { block, op }));
                    let pending = cx.others;
                    dir.entry(block).busy = Some(Busy::Invals { req: cx.req, pending, op });
                }
                Ack => {
                    if let Some(Busy::Invals { pending, .. }) = &mut dir.entry(block).busy {
                        *pending = pending.without(cx.src);
                    }
                }
                Park => {
                    if let Some(p) = parked(dir.entry(block), r) {
                        p.seq = cx.req.seq;
                    }
                }
                Queue => dir.entry(block).waiters.push_back(cx.req),
                // Safe at any time: receivers answer re-sent recalls and
                // invalidations idempotently and the home filters replies
                // by op id. A nudge is also link traffic, which is what
                // advances a link an event-counted delay holds.
                Nudge => match dir.get(block).and_then(|e| e.busy.as_ref()) {
                    Some(&Busy::Recall { req, owner, op }) => {
                        n.send(owner, Msg::Recall { block, inval: req.excl, op });
                    }
                    Some(&Busy::Invals { pending, op, .. }) => {
                        pending.iter().for_each(|s| n.send(s, Msg::Invalidate { block, op }));
                    }
                    None => {}
                },
                CountDup => NodeStats::bump(&stats.dup_reqs_in),
                CountRace => NodeStats::bump(&stats.presend_races),
                CountStale => NodeStats::bump(&stats.stale_msgs_in),
                CountAborted => NodeStats::bump(&stats.presend_aborted),
                Wasted => {
                    if cx.unused {
                        self.hooks.on_presend_wasted(n, block);
                    }
                }
                Drain => {
                    dir.entry(block).busy = None;
                    while let Some(w) = self
                        .dir
                        .get_mut(block)
                        .filter(|e| !e.is_busy())
                        .and_then(|e| e.waiters.pop_front())
                    {
                        self.serve(w);
                    }
                }
            }
        }
        i
    }
}

/// The request `src` has parked at `e`, in the round or in its queue.
fn parked(e: &mut DirEntry, src: NodeId) -> Option<&mut PendingReq> {
    match &mut e.busy {
        Some(Busy::Recall { req, .. } | Busy::Invals { req, .. }) if req.requester == src => {
            Some(req)
        }
        _ => e.waiters.iter_mut().find(|w| w.requester == src),
    }
}

/// A `Recall`, `Invalidate` or `Grant` from `src` arrived at this node:
/// fire its requester row. Returns the wake of a grant that answers the
/// fetch in flight, or is the home's own.
pub(crate) fn on_peer(n: &NodeShared, st: &mut NodeState, src: NodeId, msg: Msg) -> Option<Wake> {
    let NodeState { mem, recalled, .. } = st;
    let (mut bytes, mut wake, mut excl) = (None, None, false);
    let (block, ev, g, op) = match msg {
        Msg::Recall { block, inval, op } => {
            NodeStats::bump(&n.stats.recalls_in);
            let recorded = recalled.get(&block).is_some_and(|r| r.op == op);
            (block, RECALL, flag(inval, INVAL) | flag(recorded, RECORDED), op)
        }
        Msg::Invalidate { block, op } => {
            NodeStats::bump(&n.stats.invals_in);
            (block, INVALIDATE, 0, op)
        }
        Msg::Grant { block, excl: x, data, extra_hops, recorded, seq } => {
            let len = data.as_ref().map_or(0, |d| d.len());
            wake = Some(Wake::Grant { block, excl: x, extra_hops, bytes: len, recorded, seq });
            (bytes, excl) = (data, x);
            (block, GRANT, flag(src == n.me, LOCAL) | flag(n.outstanding() == seq, CURRENT), 0)
        }
        _ => unreachable!("not a requester-side message"),
    };
    let i = peer_row(tag_bit(mem.probe(block)), ev, g);
    hit(HOME_ROWS.len() + i);
    let PeerRow(_, to, reply) = PEER_ROWS[i];
    let send = |data, unused| n.send(src, Msg::RecallData { block, data, op, unused });
    match reply {
        Reply::RecallData => {
            let unused = mem.presend_unused(block);
            mem.clear_presend_unused(block); // waste is accounted at the home
            let data = mem.snapshot(block);
            recalled.insert(block, RecallReply { op, data: Arc::clone(&data), unused });
            send(Some(data), unused);
        }
        Reply::Recorded => send(Some(Arc::clone(&recalled[&block].data)), recalled[&block].unused),
        Reply::NoData => send(None, false),
        Reply::Ack(held) => {
            let unused = held && mem.presend_unused(block);
            if held {
                mem.clear_presend_unused(block);
            }
            n.send(src, Msg::InvalAck { block, op, unused });
        }
        Reply::Wake => {}
        Reply::Install => {
            let tag = if excl { RW } else { RO };
            match bytes {
                Some(d) => {
                    mem.install(block, &d, tag, false);
                    NodeStats::add(&n.stats.data_bytes_in, d.len() as u64);
                }
                None => mem.set_tag(block, tag),
            }
            recalled.remove(&block);
        }
        Reply::Stale => {
            NodeStats::bump(&n.stats.stale_grants_in);
            wake = None;
        }
    }
    if let Some(t) = to {
        mem.set_tag(block, t);
    }
    wake
}
