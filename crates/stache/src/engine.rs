//! The Stache protocol handlers and the compute-side fault path.
//!
//! All coherence traffic — including a node's faults on its *own* home
//! blocks — travels as messages through the fabric and is processed by
//! the handlers here, so there is exactly one code path. A node's thread
//! runs them on its own state ([`crate::node::NodeState`], by `&mut`)
//! whenever it drains its inbox. Handlers never block: multi-hop operations (recalls, invalidation rounds) park
//! the directory entry in a transient [`Busy`] state and queue later
//! requests.
//!
//! Message patterns (§3.1–3.2 of the paper):
//!
//! * 2-hop read: requester → home (`GetShared`), home → requester
//!   (`Grant` + data);
//! * 4-hop producer/consumer transfer: consumer → home (`GetShared`),
//!   home → producer (`Recall`), producer → home (`RecallData`),
//!   home → consumer (`Grant`) — the write-invalidate inefficiency the
//!   predictive protocol removes;
//! * write to shared data: home sends `Invalidate` to every sharer and
//!   grants only after all `InvalAck`s (sequential consistency).
//!
//! # Fault tolerance
//!
//! The handlers survive message delay, duplication, and loss on any
//! inter-node link, provided each link delivers what it does deliver in
//! FIFO order (`FifoMode::Preserving`; see DESIGN.md for why Stache
//! fundamentally needs point-to-point ordering between a grant and a later
//! recall/invalidation of the same block). The machinery:
//!
//! * requests carry per-requester **seqnos**; homes drop anything not newer
//!   than the last accepted seq from that requester, so duplicates and
//!   overtaken retransmissions are idempotent;
//! * the requester-side [`fetch`] re-issues its request (with a fresh seq)
//!   when no grant arrives within [`crate::node::RetryConfig::timeout`];
//!   grants echo the seq, and installs are gated on the seq still being
//!   the outstanding one, so a superseded grant can never clobber memory;
//! * recall / invalidation rounds carry home-unique **op ids**; owners
//!   answer re-sent recalls from a recorded reply (idempotent even for
//!   modified data), sharers ack invalidations unconditionally, and the
//!   home ignores replies whose op does not match the round in flight;
//! * a retry or duplicate request arriving at a busy entry **nudges** the
//!   stalled round (re-sends the outstanding `Recall`/`Invalidate`s),
//!   which both recovers dropped messages and generates the link traffic
//!   that flushes event-count-based delays.

use std::sync::Arc;

use prescient_tempest::tag::Tag;
use prescient_tempest::{BlockId, NodeId, NodeMem, NodeSet, NodeStats};

use crate::dir::{Busy, DirEntry, DirState, Directory, PendingReq};
use crate::hooks::Hooks;
use crate::msg::{Msg, Wake};
use crate::node::{Node, NodeShared, NodeState, RecallReply};

/// Outcome of one granted fetch, as seen by the faulting program; input to
/// the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantInfo {
    /// Protocol hops beyond the minimal request–response pair.
    pub extra_hops: u32,
    /// Data bytes moved (0 for upgrades / home-local grants).
    pub bytes: usize,
    /// The home recorded the request into a communication schedule.
    pub recorded: bool,
    /// Times the request was re-issued before being granted (0 on a
    /// healthy fabric).
    pub retries: u32,
}

/// The per-node protocol engine: Stache handlers plus the extension hooks.
pub struct Engine {
    hooks: Arc<dyn Hooks>,
}

impl Engine {
    /// Create an engine with the given extension.
    pub fn new(hooks: Arc<dyn Hooks>) -> Engine {
        Engine { hooks }
    }

    /// Handle one message on node `n`'s state; returns what it means to
    /// the node's own waiting program, if anything.
    pub fn handle(
        &self,
        n: &NodeShared,
        st: &mut NodeState,
        src: NodeId,
        msg: Msg,
    ) -> Option<Wake> {
        match msg {
            Msg::GetShared { block, seq } => self.on_request(n, st, src, block, false, seq),
            Msg::GetExcl { block, seq } => self.on_request(n, st, src, block, true, seq),
            Msg::Recall { block, inval, op } => self.on_recall(n, st, src, block, inval, op),
            Msg::RecallData { block, data, op, unused } => {
                self.on_recall_data(n, st, src, block, data, op, unused)
            }
            Msg::Invalidate { block, op } => self.on_invalidate(n, st, src, block, op),
            Msg::InvalAck { block, op, unused } => self.on_inval_ack(n, st, src, block, op, unused),
            Msg::Grant { block, excl, data, extra_hops, recorded, seq } => {
                return self.on_grant(n, st, src, block, excl, data, extra_hops, recorded, seq)
            }
            Msg::User(um) => return self.hooks.on_user(n, st, src, um),
            Msg::Kick => return Some(Wake::Kick),
            // Recovery drain marker: its arrival proves everything queued
            // ahead of it in this inbox has been handled.
            Msg::Fence => return Some(Wake::Fence),
        }
        None
    }

    /// A `GetShared`/`GetExcl` arrived at this home node.
    fn on_request(
        &self,
        n: &NodeShared,
        st: &mut NodeState,
        src: NodeId,
        block: BlockId,
        excl: bool,
        seq: u64,
    ) {
        debug_assert_eq!(n.homes.home_of_block(block), n.me, "request routed to non-home");
        let NodeState { dir, mem, .. } = st;
        if !dir.accept_seq(src, seq) {
            // Duplicate or overtaken retransmission. Idempotent: the
            // original was (or will be) served. Still nudge a stalled
            // round — the duplicate proves the requester is waiting.
            NodeStats::bump(&n.stats.dup_reqs_in);
            self.nudge(n, dir, block);
            return;
        }
        // A fresh seq from a requester that is already parked here is a
        // retry: refresh the seq its grant must echo, don't re-queue.
        if let Some(e) = dir.get_mut(block) {
            let mut parked = false;
            if let Some(Busy::Recall { req, .. } | Busy::Invals { req, .. }) = &mut e.busy {
                if req.requester == src {
                    debug_assert_eq!(req.excl, excl, "retry changed its kind");
                    req.seq = seq;
                    parked = true;
                }
            }
            if !parked {
                if let Some(w) = e.waiters.iter_mut().find(|w| w.requester == src) {
                    debug_assert_eq!(w.excl, excl, "retry changed its kind");
                    w.seq = seq;
                    parked = true;
                }
            }
            if parked {
                self.nudge(n, dir, block);
                return;
            }
        }
        let recorded = self.hooks.on_home_request(n, block, src, excl);
        let req = PendingReq { requester: src, excl, recorded, seq };
        if dir.entry(block).is_busy() {
            dir.entry(block).waiters.push_back(req);
            self.nudge(n, dir, block);
            return;
        }
        self.dispatch(n, dir, mem, block, req);
        self.drain(n, dir, mem, block);
    }

    /// Re-send the messages of a stalled multi-hop round, if any. Safe to
    /// call at any time: receivers answer re-sent recalls/invalidations
    /// idempotently and the home filters replies by op id. Doubles as the
    /// liveness engine under event-count-based delays — every nudge is
    /// link traffic that advances stalled links.
    fn nudge(&self, n: &NodeShared, dir: &Directory, block: BlockId) {
        let Some(e) = dir.get(block) else { return };
        match &e.busy {
            Some(Busy::Recall { req, owner, op }) => {
                n.send(*owner, Msg::Recall { block, inval: req.excl, op: *op });
            }
            Some(Busy::Invals { pending, op, .. }) => {
                for s in pending.iter() {
                    n.send(s, Msg::Invalidate { block, op: *op });
                }
            }
            None => {}
        }
    }

    /// Process one request against a non-busy entry. May leave the entry
    /// busy.
    fn dispatch(
        &self,
        n: &NodeShared,
        dir: &mut Directory,
        mem: &mut NodeMem,
        block: BlockId,
        req: PendingReq,
    ) {
        debug_assert!(!dir.entry(block).is_busy());
        let state = dir.entry(block).state;
        match state {
            DirState::Uncached => {
                let e = dir.entry(block);
                if req.requester == n.me {
                    // Home fault on an uncached block: without placement,
                    // only reachable from the pre-send driver's ensure step
                    // or a retry whose original grant already completed, and
                    // the tag is already adequate. A placement-acted block
                    // never materializes `ReadWrite` on first touch, so the
                    // home's own copy may be genuinely cold — make the tag
                    // writable (uncached means no remote copies exist).
                    if !n.homes.is_identity_block(block) {
                        mem.set_tag(block, Tag::ReadWrite);
                    }
                    self.grant(n, mem, block, req, false, 0);
                } else if req.excl {
                    mem.set_tag(block, Tag::Invalid);
                    e.state = DirState::Exclusive(req.requester);
                    self.grant(n, mem, block, req, true, 0);
                } else {
                    mem.set_tag(block, Tag::ReadOnly);
                    e.state = DirState::Shared(NodeSet::single(req.requester));
                    self.grant(n, mem, block, req, true, 0);
                }
            }
            DirState::Shared(s) => {
                if !req.excl {
                    if req.requester == n.me {
                        // Home tag is ReadOnly in Shared: readable already.
                        self.grant(n, mem, block, req, false, 0);
                    } else {
                        if s.contains(req.requester) {
                            // Already a sharer (raced with a pre-send, or
                            // retrying a lost grant): re-send the data;
                            // harmless and diagnostic-counted.
                            NodeStats::bump(&n.stats.presend_races);
                        }
                        dir.entry(block).state =
                            DirState::Shared(s.union(NodeSet::single(req.requester)));
                        self.grant(n, mem, block, req, true, 0);
                    }
                } else {
                    let upgrade = s.contains(req.requester);
                    let others = s.without(req.requester);
                    if others.is_empty() {
                        let e = dir.entry(block);
                        self.finalize_excl(n, e, mem, block, req, upgrade, 0);
                    } else {
                        let op = dir.alloc_op();
                        for o in others.iter() {
                            n.send(o, Msg::Invalidate { block, op });
                        }
                        let e = dir.entry(block);
                        e.busy = Some(Busy::Invals { req, pending: others, op });
                        // Whether the requester keeps a copy (upgrade) is
                        // re-derived at completion from the residual set.
                        e.state = DirState::Shared(if upgrade {
                            NodeSet::single(req.requester)
                        } else {
                            NodeSet::EMPTY
                        });
                    }
                }
            }
            DirState::Exclusive(owner) if owner == req.requester => {
                // The owner re-requesting its own block means its grant
                // was lost in flight (an owner holding the block never
                // faults), so it never wrote and home memory is current:
                // serve the retry directly from home memory.
                let e = dir.entry(block);
                if req.excl {
                    self.grant(n, mem, block, req, true, 0);
                } else {
                    // A shared retry while Exclusive(requester) is
                    // unreachable under FIFO delivery (a fetch retries
                    // with its original kind) but safe to serve: downgrade
                    // the never-consumed grant.
                    mem.set_tag(block, Tag::ReadOnly);
                    e.state = DirState::Shared(NodeSet::single(req.requester));
                    self.grant(n, mem, block, req, true, 0);
                }
            }
            DirState::Exclusive(owner) => {
                let op = dir.alloc_op();
                n.send(owner, Msg::Recall { block, inval: req.excl, op });
                dir.entry(block).busy = Some(Busy::Recall { req, owner, op });
            }
        }
    }

    /// Complete an exclusive grant once no conflicting copies remain.
    /// `upgrade`: the requester already holds current data.
    #[allow(clippy::too_many_arguments)]
    fn finalize_excl(
        &self,
        n: &NodeShared,
        e: &mut DirEntry,
        mem: &mut NodeMem,
        block: BlockId,
        req: PendingReq,
        upgrade: bool,
        extra_hops: u32,
    ) {
        if req.requester == n.me {
            mem.set_tag(block, Tag::ReadWrite);
            e.state = DirState::Uncached;
            self.grant_nodata(n, block, req, extra_hops);
        } else {
            e.state = DirState::Exclusive(req.requester);
            if upgrade {
                mem.set_tag(block, Tag::Invalid);
                self.grant_nodata(n, block, req, extra_hops);
            } else {
                let data = mem.snapshot(block);
                mem.set_tag(block, Tag::Invalid);
                n.send(
                    req.requester,
                    Msg::Grant {
                        block,
                        excl: true,
                        data: Some(data),
                        extra_hops,
                        recorded: req.recorded,
                        seq: req.seq,
                    },
                );
            }
        }
    }

    /// Grant a request. `with_data`: ship the home's current block bytes.
    fn grant(
        &self,
        n: &NodeShared,
        mem: &NodeMem,
        block: BlockId,
        req: PendingReq,
        with_data: bool,
        extra_hops: u32,
    ) {
        let data = with_data.then(|| mem.snapshot(block));
        n.send(
            req.requester,
            Msg::Grant {
                block,
                excl: req.excl,
                data,
                extra_hops,
                recorded: req.recorded,
                seq: req.seq,
            },
        );
    }

    fn grant_nodata(&self, n: &NodeShared, block: BlockId, req: PendingReq, extra_hops: u32) {
        n.send(
            req.requester,
            Msg::Grant {
                block,
                excl: req.excl,
                data: None,
                extra_hops,
                recorded: req.recorded,
                seq: req.seq,
            },
        );
    }

    /// Serve queued requests until the entry goes busy again or the queue
    /// empties.
    fn drain(&self, n: &NodeShared, dir: &mut Directory, mem: &mut NodeMem, block: BlockId) {
        loop {
            let e = dir.entry(block);
            if e.is_busy() {
                break;
            }
            let Some(next) = e.waiters.pop_front() else { break };
            self.dispatch(n, dir, mem, block, next);
        }
    }

    /// Owner side of a recall: give the block back to the home.
    ///
    /// Idempotent: if this node no longer holds the block, the recorded
    /// reply for the same round is re-shipped (the first reply was lost);
    /// if no reply was ever produced for this round, the node never
    /// received the granted copy in the first place (the grant was lost)
    /// and it answers `None`, telling the home its own memory is current.
    fn on_recall(
        &self,
        n: &NodeShared,
        st: &mut NodeState,
        home: NodeId,
        block: BlockId,
        inval: bool,
        op: u64,
    ) {
        NodeStats::bump(&n.stats.recalls_in);
        let NodeState { mem, recalled, .. } = st;
        if mem.probe(block).readable() {
            let unused = mem.presend_unused(block);
            mem.clear_presend_unused(block); // copy is going away; waste is accounted at the home
            let data = mem.snapshot(block);
            mem.set_tag(block, if inval { Tag::Invalid } else { Tag::ReadOnly });
            recalled.insert(block, RecallReply { op, data: Arc::clone(&data), unused });
            n.send(home, Msg::RecallData { block, data: Some(data), op, unused });
        } else {
            match recalled.get(&block).filter(|r| r.op == op).cloned() {
                Some(r) => n.send(
                    home,
                    Msg::RecallData { block, data: Some(r.data), op, unused: r.unused },
                ),
                None => n.send(home, Msg::RecallData { block, data: None, op, unused: false }),
            }
        }
    }

    /// Home side: recalled data returned; complete the parked request.
    #[allow(clippy::too_many_arguments)]
    fn on_recall_data(
        &self,
        n: &NodeShared,
        st: &mut NodeState,
        src: NodeId,
        block: BlockId,
        data: Option<Arc<[u8]>>,
        op: u64,
        unused: bool,
    ) {
        let NodeState { dir, mem, .. } = st;
        let live = matches!(
            dir.get(block).and_then(|e| e.busy.as_ref()),
            Some(Busy::Recall { op: o, .. }) if *o == op
        );
        if !live {
            // Reply to a round that already completed (duplicate or
            // re-sent recall answered twice).
            NodeStats::bump(&n.stats.stale_msgs_in);
            return;
        }
        let e = dir.get_mut(block).expect("checked above");
        let Some(Busy::Recall { req, owner, .. }) = e.busy.take() else { unreachable!() };
        debug_assert_eq!(owner, src, "recall answered by a non-owner");
        if unused {
            self.hooks.on_presend_wasted(n, block);
        }
        if req.excl {
            // Owner was invalidated. Home memory gets the fresh data (or
            // was already current if the owner never held the copy) but
            // stays Invalid unless the requester is the home itself.
            if req.requester == n.me {
                match &data {
                    Some(d) => {
                        mem.install(block, &d[..], Tag::ReadWrite, false);
                        NodeStats::add(&n.stats.data_bytes_in, d.len() as u64);
                    }
                    None => mem.set_tag(block, Tag::ReadWrite),
                }
                e.state = DirState::Uncached;
                self.grant_nodata(n, block, req, 1);
            } else {
                let payload = match data {
                    Some(d) => {
                        mem.install(block, &d[..], Tag::Invalid, false);
                        NodeStats::add(&n.stats.data_bytes_in, d.len() as u64);
                        d
                    }
                    // Owner never received its grant: home memory is
                    // current (tag already Invalid under Exclusive).
                    None => mem.snapshot(block),
                };
                e.state = DirState::Exclusive(req.requester);
                n.send(
                    req.requester,
                    Msg::Grant {
                        block,
                        excl: true,
                        data: Some(payload),
                        extra_hops: 1,
                        recorded: req.recorded,
                        seq: req.seq,
                    },
                );
            }
        } else {
            // Downgrade: the owner keeps a read-only copy — unless it
            // never received the block at all (`None` reply).
            match &data {
                Some(d) => {
                    mem.install(block, &d[..], Tag::ReadOnly, false);
                    NodeStats::add(&n.stats.data_bytes_in, d.len() as u64);
                }
                None => mem.set_tag(block, Tag::ReadOnly),
            }
            let kept = data.is_some();
            if req.requester == n.me {
                if kept {
                    e.state = DirState::Shared(NodeSet::single(owner));
                } else {
                    mem.set_tag(block, Tag::ReadWrite);
                    e.state = DirState::Uncached;
                }
                self.grant_nodata(n, block, req, 1);
            } else {
                let mut s = if kept { NodeSet::single(owner) } else { NodeSet::EMPTY };
                s.insert(req.requester);
                e.state = DirState::Shared(s);
                let payload = mem.snapshot(block);
                n.send(
                    req.requester,
                    Msg::Grant {
                        block,
                        excl: false,
                        data: Some(payload),
                        extra_hops: 1,
                        recorded: req.recorded,
                        seq: req.seq,
                    },
                );
            }
        }
        self.drain(n, dir, mem, block);
    }

    /// Sharer side of an invalidation. Acks unconditionally (the home
    /// filters by op and pending set); only touches the tag if the node
    /// actually holds a read-only copy, so a stale duplicate can never
    /// destroy a copy granted later.
    fn on_invalidate(
        &self,
        n: &NodeShared,
        st: &mut NodeState,
        home: NodeId,
        block: BlockId,
        op: u64,
    ) {
        NodeStats::bump(&n.stats.invals_in);
        let mem = &mut st.mem;
        // Probe-based (never materializes): a stale duplicate for a block
        // this node no longer (or never) holds must not install anything.
        let held = mem.data(block).is_some() && mem.probe(block) == Tag::ReadOnly;
        let unused = held && mem.presend_unused(block);
        if held {
            mem.set_tag(block, Tag::Invalid);
            mem.clear_presend_unused(block);
        }
        n.send(home, Msg::InvalAck { block, op, unused });
    }

    /// Home side: one invalidation acknowledged.
    fn on_inval_ack(
        &self,
        n: &NodeShared,
        st: &mut NodeState,
        src: NodeId,
        block: BlockId,
        op: u64,
        unused: bool,
    ) {
        let NodeState { dir, mem, .. } = st;
        let accepted = match dir.get_mut(block).and_then(|e| e.busy.as_mut()) {
            Some(Busy::Invals { pending, op: o, .. }) if *o == op && pending.contains(src) => {
                *pending = pending.without(src);
                true
            }
            _ => false,
        };
        if !accepted {
            NodeStats::bump(&n.stats.stale_msgs_in);
            return;
        }
        if unused {
            self.hooks.on_presend_wasted(n, block);
        }
        let done = matches!(
            dir.get(block).and_then(|e| e.busy.as_ref()),
            Some(Busy::Invals { pending, .. }) if pending.is_empty()
        );
        if done {
            let e = dir.get_mut(block).expect("checked above");
            let Some(Busy::Invals { req, .. }) = e.busy.take() else { unreachable!() };
            // All sharers gone; `dispatch` encoded whether the requester
            // kept a copy in the residual Shared set.
            let upgrade = matches!(e.state, DirState::Shared(s) if s.contains(req.requester));
            self.finalize_excl(n, e, mem, block, req, upgrade, 1);
            self.drain(n, dir, mem, block);
        }
    }

    /// Requester side: install the granted copy and report it to the
    /// waiting [`fetch`].
    ///
    /// Home-local grants (`src == me`) carry no data and must NOT touch the
    /// tag here: the dispatching handler already set it, and by the time
    /// this (self-queued) message is processed a later waiter may have
    /// been granted the block — flipping the tag now would resurrect a
    /// revoked copy and lose that waiter's writes. The faulting access
    /// re-faults if its grant was overtaken.
    ///
    /// Remote grants install only while their seq is still the node's
    /// outstanding fetch: a grant superseded by a retry, or a duplicate of
    /// a consumed grant, must never overwrite memory the program may
    /// already be writing.
    #[allow(clippy::too_many_arguments)]
    fn on_grant(
        &self,
        n: &NodeShared,
        st: &mut NodeState,
        src: NodeId,
        block: BlockId,
        excl: bool,
        data: Option<Arc<[u8]>>,
        extra_hops: u32,
        recorded: bool,
        seq: u64,
    ) -> Option<Wake> {
        let bytes = data.as_ref().map_or(0, |d| d.len());
        if src == n.me {
            debug_assert!(data.is_none(), "local grants never carry data");
        } else {
            if n.outstanding() != seq {
                NodeStats::bump(&n.stats.stale_grants_in);
                return None;
            }
            let tag = if excl { Tag::ReadWrite } else { Tag::ReadOnly };
            match data {
                Some(d) => {
                    st.mem.install(block, &d[..], tag, false);
                    NodeStats::add(&n.stats.data_bytes_in, d.len() as u64);
                }
                None => st.mem.set_tag(block, tag),
            }
            // A fresh copy supersedes any recorded recall reply.
            st.recalled.remove(&block);
        }
        Some(Wake::Grant { block, excl, extra_hops, bytes, recorded, seq })
    }
}

fn request(block: BlockId, excl: bool, seq: u64) -> Msg {
    if excl {
        Msg::GetExcl { block, seq }
    } else {
        Msg::GetShared { block, seq }
    }
}

/// A request is about to be re-issued for the `round`-th time. Counted
/// now (not once the grant lands) so a wedged wait is visible to the
/// watchdog's report.
fn note_retry(n: &NodeShared, block: BlockId, round: u32) {
    NodeStats::bump(&n.stats.retries);
    n.tracer().emit(prescient_tempest::trace::EventKind::Retry, block.0, u64::from(round));
}

/// The fault path: request `block` from its home and serve the node's
/// inbox until the grant arrives ([`Node::settle`] with one pending
/// entry). Re-issues the request (with a fresh seq) every
/// [`crate::node::RetryConfig::timeout`] without an answer, so lost
/// requests, lost grants, and stalled multi-hop rounds all recover.
/// Anything else a handler reports meanwhile (a late acknowledgement, a
/// superseded grant — which the handler already refused to install — a
/// kick) has no waiter and is dropped.
pub fn fetch(node: &mut Node, block: BlockId, excl: bool) -> GrantInfo {
    let issue = |n: &NodeShared| {
        let seq = n.next_seq();
        n.set_outstanding(seq);
        n.send(n.homes.home_of_block(block), request(block, excl, seq));
        seq
    };
    let mut seq = issue(&node.shared);
    let mut info = GrantInfo { extra_hops: 0, bytes: 0, recorded: false, retries: 0 };
    node.settle(format_args!("fetch of {block:?} ungranted"), 1, |n, event| match event {
        Ok(Wake::Grant { block: b, excl: e, extra_hops, bytes, recorded, seq: s }) if s == seq => {
            debug_assert_eq!((b, e), (block, excl), "grant for a different request");
            // From here on, a late duplicate of this grant must not
            // install.
            n.set_outstanding(0);
            info = GrantInfo { extra_hops, bytes, recorded, ..info };
            0
        }
        Ok(_) => 1,
        Err(round) => {
            info.retries = round;
            note_retry(n, block, round);
            seq = issue(n);
            1
        }
    });
    info
}

/// The wave form of a home's own faults: issue a request for every block
/// of `reqs` (`(block, excl)`, all homed at this node — asserted) and then
/// wait once, serving the inbox until every grant has come back. Per block
/// it is the message exchange [`fetch`] has; the recall and invalidation
/// rounds of the whole wave are in flight together, which is what
/// `CostModel::ensure_ns` has always billed. Result `i` answers `reqs[i]`.
///
/// Grants are matched to requests **by seq**. The seqs of one issue round
/// are consecutive — request `open[j]` holds `base + j` — so the pending
/// set is a base, an index list and which results are filled in; a round
/// with no grant for [`crate::node::RetryConfig::timeout`] re-issues only
/// what is still open, in block order, with fresh seqs (the home's
/// parked-requester path makes that idempotent). Home-local grants install
/// nothing, so `outstanding` — the gate for remote grants — stays clear;
/// death reports see the wave through [`NodeShared::wave`] instead.
pub fn fetch_all(node: &mut Node, reqs: &[(BlockId, bool)]) -> Vec<GrantInfo> {
    // (Re-)issue `open`; returns the first seq drawn.
    let issue = |n: &NodeShared, open: &[usize], round: u32| {
        let base = n.next_seqs(open.len() as u64);
        for (&i, seq) in open.iter().zip(base..) {
            let (block, excl) = reqs[i];
            assert_eq!(n.homes.home_of_block(block), n.me, "fetch_all: {block:?} not homed here");
            if round > 0 {
                note_retry(n, block, round);
            }
            n.send(n.me, request(block, excl, seq));
        }
        base
    };
    let mut open: Vec<usize> = (0..reqs.len()).collect();
    let mut base = issue(&node.shared, &open, 0);
    // `low`: first `j` whose request is ungranted; `round`: issue rounds
    // so far beyond the first.
    let (mut low, mut round, mut left) = (0, 0, reqs.len());
    let mut infos: Vec<Option<GrantInfo>> = vec![None; reqs.len()];
    node.shared.set_wave(left as u64, base);
    node.settle(format_args!("tear-downs ungranted"), left, |n, event| {
        match event {
            Ok(Wake::Grant { block, excl, extra_hops, bytes, recorded, seq }) => {
                let slot = seq.checked_sub(base).and_then(|j| open.get(j as usize));
                let Some(&i) = slot.filter(|&&i| infos[i].is_none()) else {
                    return left; // superseded or duplicated grant
                };
                debug_assert_eq!((block, excl), reqs[i], "grant for a different request");
                infos[i] = Some(GrantInfo { extra_hops, bytes, recorded, retries: round });
                left -= 1;
                while open.get(low).is_some_and(|&i| infos[i].is_some()) {
                    low += 1;
                }
            }
            Ok(_) => return left,
            Err(r) => {
                open.retain(|&i| infos[i].is_none());
                (base, low, round) = (issue(n, &open, r), 0, r);
            }
        }
        n.set_wave(left as u64, base + low as u64);
        left
    });
    infos.into_iter().map(|i| i.expect("settled")).collect()
}
