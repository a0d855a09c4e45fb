//! The Stache engine: dispatch into the protocol table, and the
//! compute-side fault path.
//!
//! All coherence traffic — including a node's faults on its *own* home
//! blocks — travels as messages through the fabric and is handled by the
//! rows of [`crate::table`], on the node's own thread and state, whenever
//! it drains its inbox. Rows never block: a recall or an invalidation round
//! parks the entry and queues later requests. The patterns (§3.1–3.2 of the
//! paper): a 2-hop read (`GetShared`, `Grant`); the 4-hop producer/consumer
//! transfer through a third node's home (`GetShared`, `Recall`,
//! `RecallData`, `Grant`), the inefficiency the predictive protocol
//! removes; a write to shared data, granted only after every sharer's
//! `InvalAck` (sequential consistency).
//!
//! On a fabric that delays, duplicates or drops messages but keeps each
//! link FIFO (DESIGN.md §9), the seqs and op ids of [`crate::msg`] make
//! every row idempotent: [`fetch`] re-issues a request with a fresh seq
//! after [`crate::node::RetryConfig::timeout`] without a grant, owners
//! answer a re-sent recall from the recorded reply, and a retry or a
//! duplicate at a busy entry nudges the stalled round.

use std::sync::Arc;

use prescient_tempest::{BlockId, NodeId, NodeStats};

use crate::hooks::Hooks;
use crate::msg::{Msg, Wake};
use crate::node::{Node, NodeShared, NodeState};
use crate::table;

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

/// The per-node protocol engine: the table's rows plus the extension hooks.
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
            Msg::Recall { .. } | Msg::Invalidate { .. } | Msg::Grant { .. } => {
                table::on_peer(n, st, src, msg)
            }
            Msg::User(um) => self.hooks.on_user(n, st, src, um),
            Msg::Kick => Some(Wake::Kick),
            // Recovery drain marker: its arrival proves everything queued
            // ahead of it in this inbox has been handled.
            Msg::Fence => Some(Wake::Fence),
            _ => {
                table::on_home(n, &*self.hooks, st, src, msg);
                None
            }
        }
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
    node.settle(format_args!("fetch of {block:?} ungranted"), 1, |n, _, event| match event {
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
/// of `reqs` (`(block, excl)`, all homed at this node — asserted), then wait
/// once until every grant is back. Per block it is [`fetch`]'s exchange;
/// the wave's rounds are in flight together, which is what
/// `CostModel::ensure_ns` bills. Result `i` answers `reqs[i]`.
pub fn fetch_all(node: &mut Node, reqs: &[(BlockId, bool)]) -> Vec<GrantInfo> {
    let mut wave = Wave::issue(&node.shared, reqs);
    node.settle(format_args!("tear-downs ungranted"), wave.left(), |n, _, event| {
        wave.step(n, &event);
        wave.left()
    });
    wave.grants()
}

/// A wave of a home's own faults in flight ([`fetch_all`]'s, or one the
/// caller settles inside a wait of its own): every request is issued at
/// once and each grant settles one.
///
/// Grants match requests **by seq**: one issue round's seqs are consecutive
/// (request `open[j]` holds `base + j`). A silent round re-issues what is
/// still open with fresh seqs (a parked retry is idempotent at the home).
/// Home-local grants install nothing, so `outstanding` stays clear; death
/// reports see the wave through [`NodeShared::wave`].
pub struct Wave<'r> {
    reqs: &'r [(BlockId, bool)],
    /// Indices into `reqs` of the last issue round, in seq order.
    open: Vec<usize>,
    /// Seq of `open[0]`.
    base: u64,
    /// First `j` whose request `open[j]` is ungranted.
    low: usize,
    /// Issue rounds so far beyond the first.
    round: u32,
    left: usize,
    infos: Vec<Option<GrantInfo>>,
}

impl<'r> Wave<'r> {
    /// Issue a request for every block of `reqs`.
    pub fn issue(n: &NodeShared, reqs: &'r [(BlockId, bool)]) -> Wave<'r> {
        let open = (0..reqs.len()).collect();
        let infos = vec![None; reqs.len()];
        let mut wave = Wave { reqs, open, base: 0, low: 0, round: 0, left: reqs.len(), infos };
        wave.send(n);
        wave
    }

    /// (Re-)issue `open` with fresh seqs.
    fn send(&mut self, n: &NodeShared) {
        self.base = n.next_seqs(self.open.len() as u64);
        self.low = 0;
        for (&i, seq) in self.open.iter().zip(self.base..) {
            let (block, excl) = self.reqs[i];
            assert_eq!(n.homes.home_of_block(block), n.me, "fetch_all: {block:?} not homed here");
            if self.round > 0 {
                note_retry(n, block, self.round);
            }
            n.send(n.me, request(block, excl, seq));
        }
        n.set_wave(self.left as u64, self.base);
    }

    /// Requests still ungranted.
    pub fn left(&self) -> usize {
        self.left
    }

    /// Take one event of the wait: a grant of this wave settles its
    /// request (a superseded or duplicated one settles nothing), a silent
    /// round (`Err`) re-issues what is still open, and any other wake is
    /// not this wave's.
    pub fn step(&mut self, n: &NodeShared, event: &Result<Wake, u32>) {
        match *event {
            Ok(Wake::Grant { block, excl, extra_hops, bytes, recorded, seq }) => {
                let slot = seq.checked_sub(self.base).and_then(|j| self.open.get(j as usize));
                let Some(&i) = slot.filter(|&&i| self.infos[i].is_none()) else { return };
                debug_assert_eq!((block, excl), self.reqs[i], "grant for a different request");
                let retries = self.round;
                self.infos[i] = Some(GrantInfo { extra_hops, bytes, recorded, retries });
                self.left -= 1;
                while self.open.get(self.low).is_some_and(|&i| self.infos[i].is_some()) {
                    self.low += 1;
                }
                n.set_wave(self.left as u64, self.base + self.low as u64);
            }
            Ok(_) => {}
            Err(_) if self.left == 0 => {}
            Err(_) => {
                let infos = &self.infos;
                self.open.retain(|&i| infos[i].is_none());
                self.round += 1;
                self.send(n);
            }
        }
    }

    /// Every request's grant, `reqs` order. Panics unless [`Self::left`] is 0.
    pub fn grants(self) -> Vec<GrantInfo> {
        self.infos.into_iter().map(|i| i.expect("settled")).collect()
    }
}
