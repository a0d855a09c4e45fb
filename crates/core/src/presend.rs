//! The pre-send phase (§3.4): the home-node driver.
//!
//! At the start of a new instance of a recorded phase, each node walks its
//! slice of the phase's communication schedule and executes the anticipated
//! coherence actions early:
//!
//! * **read-marked** blocks: any current writer is torn down (the home
//!   issues the same recall the default protocol would) and read-only
//!   copies are forwarded to every recorded reader that does not already
//!   hold one;
//! * **write-marked** blocks: all other copies are invalidated and a
//!   writable copy is forwarded to the recorded writer;
//! * **conflict** blocks: no action.
//!
//! Runs of neighboring blocks with identical targets are coalesced into
//! single bulk messages to amortize message startup. Every bulk message is
//! acknowledged by its receiver; the driver returns only after all
//! acknowledgements, and the runtime then executes the global barrier that
//! leaves every block state stable before compute resumes (§3.4).
//!
//! Under a faulty fabric the ack wait doubles as the retransmission layer:
//! each push carries a unique id and the window's epoch, and any id still
//! unacknowledged when the wait times out is re-sent verbatim (the
//! receiver de-duplicates by id — see [`crate::predictive`]'s module docs).
//!
//! The driver also maintains the phase's **schedule health**: before doing
//! any work it scores the previous instance (useless pre-sends vs blocks
//! pushed) and, if the schedule has been mostly wrong for
//! [`CONSECUTIVE_BAD`] consecutive instances, degrades the phase to plain
//! Stache for [`BACKOFF_INSTANCES`] instances.
//!
//! The driver is called by the node's program — it may wait, while all
//! handler work stays non-blocking — and it waits *once per window*: the
//! tear-downs of a slice are the home's ordinary fault path issued as
//! waves ([`Wave`]: every request first), every push group that no
//! tear-down decides goes out with the first wave, and one wait
//! ([`Node::settle`]) serves the inbox until every grant and every ack is
//! back — issuing the next wave as one completes, and the groups that
//! depend on a tear-down once the last grant is in. The cost model has
//! always billed a tear-down as handler occupancy because the rounds
//! overlap in the network (`CostModel::ensure_ns`); the host overlaps them
//! with each other and with the pushes, and egress batching packs a wave's
//! invalidations and acks per destination.

use std::sync::Arc;

use prescient_stache::dir::DirState;
use prescient_stache::engine::Wave;
use prescient_stache::msg::UserMsg;
use prescient_stache::node::{Node, NodeShared, NodeState};
use prescient_stache::table::install;
use prescient_tempest::sync::lock;
use prescient_tempest::trace::{pack_counts, pack_peer_count, EventKind};
use prescient_tempest::{BlockId, NodeId, NodeSet, NodeStats};

use crate::acked::AckedPushes;
use crate::codes;
use crate::predictive::{Predictive, Push};
use crate::schedule::{Action, PhaseId, ReplayRun};

/// Tear-down requests issued before the driver waits for their grants.
/// Bounds the per-wave bookkeeping and the home's inbox depth: on the
/// prototype, uncapped cost paper-scale Barnes 1.5 MiB of peak RSS and 128
/// cost 0.2 MiB at equal wall time (EXPERIMENTS.md, "One wait per window").
pub const TEARDOWN_WAVE: usize = 128;

/// Upper bound on blocks per bulk message.
pub const MAX_BULK_BLOCKS: usize = 256;

/// An instance is *bad* when at least this share (in percent) of the
/// copies it pushed turned out useless.
pub const USELESS_THRESHOLD_PCT: u64 = 50;

/// Consecutive bad instances before a phase degrades.
pub const CONSECUTIVE_BAD: u32 = 3;

/// Instances a degraded phase runs as plain Stache before recording
/// re-arms.
pub const BACKOFF_INSTANCES: u64 = 4;

/// What one node's pre-send did, with its virtual-time bill.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PresendReport {
    /// Block copies forwarded (blocks × targets).
    pub blocks_pushed: u64,
    /// Bulk messages sent.
    pub msgs: u64,
    /// Bytes forwarded.
    pub bytes: u64,
    /// Tear-down fetches (recalls/invalidations of stale copies).
    pub ensure_fetches: u64,
    /// Conflict entries skipped.
    pub skipped_conflicts: u64,
    /// The phase was degraded and the window skipped entirely.
    pub degraded: bool,
    /// Push retransmissions needed to get every push acknowledged.
    pub retransmits: u64,
    /// Virtual time spent (billed to the figures' "Predictive protocol"
    /// bar segment).
    pub vtime_ns: u64,
}

/// Score the previous instance and decide whether this window runs.
/// Returns `true` if the phase is degraded (the caller must skip).
pub(crate) fn health_gate(pred: &Predictive, n: &NodeShared, phase: PhaseId) -> bool {
    let degrade = pred.cfg.degrade;
    let mut guard = lock(&pred.state);
    let st = &mut *guard;
    let h = st.health.entry(phase).or_default();
    h.instances += 1;
    if h.degraded_until != 0 && h.degraded_until == h.instances {
        // The backoff just expired: this window runs again and recording
        // re-arms when the runtime arms the phase.
        n.tracer().emit(EventKind::Rearm, u64::from(phase), h.instances);
    }
    if degrade && h.last_pushed > 0 {
        let bad = h.useless * 100 >= USELESS_THRESHOLD_PCT * h.last_pushed;
        if bad {
            h.consecutive_bad += 1;
        } else {
            h.consecutive_bad = 0;
        }
    }
    // The window's accounting starts fresh either way.
    h.useless = 0;
    h.last_pushed = 0;
    if degrade && !h.is_degraded() && h.consecutive_bad >= CONSECUTIVE_BAD {
        h.consecutive_bad = 0;
        h.degraded_until = h.instances + BACKOFF_INSTANCES;
        h.degrade_events += 1;
        NodeStats::bump(&n.stats.degrade_events);
        n.tracer().emit(EventKind::Degrade, u64::from(phase), h.degraded_until);
        n.tracer().emit(EventKind::SchedFlush, u64::from(phase), 0);
        st.store.flush(phase);
        st.pushed_by.retain(|_, p| *p != phase);
        return true;
    }
    h.is_degraded()
}

/// Execute the pre-send for `phase` on this node. Returns after all
/// pushed copies are installed and acknowledged.
pub fn presend(pred: &Predictive, node: &mut Node, phase: PhaseId) -> PresendReport {
    let n = Arc::clone(&node.shared);
    let n = &*n;
    let me = n.me;
    let mut report = PresendReport::default();

    if health_gate(pred, n, phase) {
        report.degraded = true;
        return report;
    }

    // This node's schedule slice, run-length-encoded in block order:
    // contiguous blocks with the same action toward the same targets
    // collapse into one `ReplayRun`, so the walk below touches O(runs)
    // headers (conflict runs skip in O(1)) instead of O(blocks) hash-map
    // entries. Expansion order and per-block behavior are bit-identical to
    // walking `sorted_entries`. The runs are encoded once per schedule
    // generation and shared by every instance until a record or a flush.
    let Some(runs) = lock(&pred.state).store.runs(phase, pred.cfg.anticipate_conflicts) else {
        return report;
    };
    n.tracer().emit(EventKind::SchedReplay, u64::from(phase), runs.len() as u64);

    // Pass 1, *decide*: list (in block order) the blocks whose directory
    // state needs a recall or an invalidation round before the schedule's
    // action can be taken. Entries of different blocks are independent and
    // no demand traffic exists between the window's two barriers, so
    // deciding for all of them first loses nothing. `None` (a multi-hop
    // round in flight: a delayed demand request that arrived mid-window on
    // a faulty fabric) is stale — the tear-down serializes behind it.
    let mut stale: Vec<(BlockId, bool)> = Vec::new();
    for run in runs.iter() {
        let excl = match run.action {
            Action::Conflict => {
                report.skipped_conflicts += run.len;
                continue;
            }
            Action::Read => false,
            Action::Write => true,
        };
        // A write run leaves alone what its (remote) writer already owns.
        let owned = run.writer.filter(|&w| excl && w != me).map(DirState::Exclusive);
        stale.extend(run.blocks().filter_map(|block| {
            let settled = match (node.state.dir.stable(block), excl) {
                (Some(DirState::Uncached), _) | (Some(DirState::Shared(_)), false) => true,
                (state @ Some(_), true) => state == owned,
                _ => false,
            };
            (!settled).then_some((block, excl))
        }));
    }

    // *Plan* the pushes from the directory as it stands. A group that holds
    // no torn-down block, and that no torn-down neighbour could join, is
    // what the settled directory would give too: it goes out now. The rest
    // wait for the tear-downs' grants.
    let planned = push_list(&runs, &node.state, me, &stale, false);
    let (early, mut deferred) = settled_stretches(&planned, pred.cfg.coalesce);

    // *Tear down* — recall writers' copies home (they stay sharers) ahead
    // of a read push, invalidate every copy ahead of a write push or to
    // prefetch ownership home — in waves whose rounds are in flight
    // together, billed per grant; push what needs no tear-down; then one
    // wait (pass 3) for every grant and every ack. Once the last grant is
    // in, the deferred pushes go out from inside that wait.
    let mut waves = stale.chunks(TEARDOWN_WAVE);
    let mut wave = waves.next().map(|w| Wave::issue(n, w));
    let mut pass2 = Pass2 { out: AckedPushes::default(), sent: Vec::new(), pushes: 0, groups: 0 };
    pass2.send(pred, n, &mut node.state, &early, &mut report);
    let mut ungranted = stale.len();
    // `useless` accumulates the receivers' reports of previously-pushed
    // copies that were overwritten while still unread.
    let mut useless = 0u64;
    let mut acked = |b| useless += b;
    let mut silent = |n: &NodeShared, unacked, round| {
        n.tracer().emit(EventKind::PresendRetry, unacked, u64::from(round));
        NodeStats::add(&n.stats.presend_retries, unacked);
    };
    node.settle(
        format_args!("pre-send tear-downs or pushes unsettled"),
        ungranted + pass2.out.len(),
        |n, st, event| {
            if let Some(w) = wave.as_mut() {
                let left = w.left();
                w.step(n, &event);
                ungranted -= left - w.left();
                if w.left() == 0 {
                    for info in wave.take().expect("in flight").grants() {
                        report.ensure_fetches += 1;
                        report.vtime_ns += n.cost.ensure_ns(info.bytes);
                    }
                    wave = waves.next().map(|w| Wave::issue(n, w));
                }
            }
            if ungranted == 0 && deferred {
                deferred = false;
                // A block torn down in this window is never "already the
                // writer's": it is pushed, and the install rows drop the
                // push if a late demand request won the block.
                let rest = push_list(&runs, st, me, &stale, true);
                let sent_early =
                    |p: &Push| early.binary_search_by_key(&p.block, |e| e.block).is_ok();
                let rest: Vec<Push> =
                    rest.into_iter().map(|(p, _)| p).filter(|p| !sent_early(p)).collect();
                pass2.send(pred, n, st, &rest, &mut report);
            }
            report.retransmits +=
                pass2.out.step(n, &event, codes::WAKE_PRESEND_ACK, &mut acked, &mut silent);
            ungranted + pass2.out.len()
        },
    );
    n.tracer().emit(
        EventKind::SchedCoalesce,
        u64::from(phase),
        pack_counts(pass2.pushes, pass2.groups),
    );
    NodeStats::add(&n.stats.presend_blocks_out, report.blocks_pushed);
    NodeStats::add(&n.stats.presend_msgs_out, report.msgs);
    NodeStats::add(&n.stats.presend_bytes_out, report.bytes);

    // Feed the schedule-health accounting: what this window pushed, what
    // the receivers said about the previous window's pushes, and which
    // phase to charge when one of this window's copies is torn down unread.
    {
        let mut st = lock(&pred.state);
        // Only pushes that actually went out are this window's: an aborted
        // push must not charge a later teardown of the demand-path copy to
        // this phase's schedule health.
        for p in &pass2.sent {
            st.pushed_by.insert(p.block, phase);
        }
        let h = st.health.entry(phase).or_default();
        h.last_pushed = report.blocks_pushed;
        h.useless += useless;
    }
    NodeStats::add(&n.stats.presend_useless, useless);

    report.vtime_ns += n.cost.bulk_ns(report.msgs, report.blocks_pushed, report.bytes);
    report
}

/// The window's push list in block order, read off the directory as it
/// stands, each push marked if its block is `torn` (being torn down in
/// this window). A torn block of a write run is always pushed. A torn
/// block of a read run has the targets its recall leaves without a copy,
/// known only once it is `granted`: until then it is listed with none.
fn push_list(
    runs: &[ReplayRun],
    st: &NodeState,
    me: NodeId,
    torn: &[(BlockId, bool)],
    granted: bool,
) -> Vec<(Push, bool)> {
    let torn = |block| torn.binary_search_by_key(&block, |s| s.0).is_ok();
    let mut pushes = Vec::new();
    for run in runs {
        match run.action {
            Action::Conflict => {}
            Action::Read => {
                let readers = run.readers.without(me);
                for block in run.blocks() {
                    let torn = torn(block);
                    let sharers = match st.dir.stable(block) {
                        _ if torn && !granted => {
                            pushes
                                .push((Push { block, targets: NodeSet::EMPTY, excl: false }, true));
                            continue;
                        }
                        Some(DirState::Shared(s)) => s,
                        _ => NodeSet::EMPTY,
                    };
                    let targets = readers.minus(sharers);
                    if !targets.is_empty() {
                        pushes.push((Push { block, targets, excl: false }, torn));
                    }
                }
            }
            Action::Write => {
                let writer = run.writer.expect("write run without writer");
                // `writer == me`: ownership was prefetched home.
                for block in run.blocks().filter(|_| writer != me) {
                    let owned = Some(DirState::Exclusive(writer));
                    let torn = torn(block);
                    if torn || st.dir.stable(block) != owned {
                        pushes.push((
                            Push { block, targets: NodeSet::single(writer), excl: true },
                            torn,
                        ));
                    }
                }
            }
        }
    }
    pushes
}

/// Split a planned push list into what can go before the tear-downs are
/// granted and whether anything must wait: a *stretch* is a maximal run of
/// pushes each of which could join its predecessor's group
/// ([`group_pushes`]), where a torn block's push could join any
/// neighbour of its kind. A stretch with no torn block ends where the
/// settled list's would, so its groups are final; the rest wait.
fn settled_stretches(planned: &[(Push, bool)], coalesce: bool) -> (Vec<Push>, bool) {
    let links = |a: &(Push, bool), b: &(Push, bool)| {
        coalesce
            && a.0.block.next() == b.0.block
            && a.0.excl == b.0.excl
            && (a.0.targets == b.0.targets || a.1 || b.1)
    };
    let (mut early, mut deferred, mut from) = (Vec::with_capacity(planned.len()), false, 0);
    for to in 1..=planned.len() {
        if to < planned.len() && links(&planned[to - 1], &planned[to]) {
            continue;
        }
        let stretch = &planned[from..to];
        if stretch.iter().any(|p| p.1) {
            deferred = true;
        } else {
            early.extend(stretch.iter().map(|p| p.0));
        }
        from = to;
    }
    (early, deferred)
}

/// Pass 2 of a window, in as many calls as it has sends: the pushes out,
/// their messages kept until acked, and the counts.
struct Pass2 {
    out: AckedPushes,
    /// Pushes that went out (the install rows took them).
    sent: Vec<Push>,
    /// Pushes and bulk groups passed in, for the coalescing trace event.
    pushes: u64,
    groups: u64,
}

impl Pass2 {
    /// Group `pushes` into bulk messages and push. Every message carries a
    /// unique push id (`a`) and the current epoch (`b`) so the exchange
    /// survives duplication and loss; unacked messages are kept verbatim
    /// for retransmission.
    ///
    /// Each push is committed through the protocol table's install rows,
    /// whose guards revalidate it: since the plan was made, a demand
    /// request from another node may have won the block (the window's
    /// wait serves the inbox) — leaving the entry busy, or Exclusive at a
    /// node the schedule never predicted — and pushing then would break the
    /// single-writer invariant. Such a push is dropped (counted in
    /// `presend_aborted`); the demand path does the transfer.
    ///
    /// The payload is snapshotted once per group into an `Arc` list; the
    /// per-target fan-out and the retransmission store clone refcounts,
    /// not block bytes.
    fn send(
        &mut self,
        pred: &Predictive,
        n: &NodeShared,
        st: &mut NodeState,
        pushes: &[Push],
        report: &mut PresendReport,
    ) {
        let groups = group_pushes(pushes, pred.cfg.coalesce);
        self.pushes += pushes.len() as u64;
        self.groups += groups.len() as u64;
        for group in &groups {
            let first = group[0];
            let mut kept = Vec::with_capacity(group.len());
            for p in group {
                if install(n, st, p.block, p.excl, p.targets) {
                    kept.push((p.block, st.mem.snapshot(p.block)));
                    self.sent.push(*p);
                }
            }
            let payload: Arc<[(BlockId, Arc<[u8]>)]> = kept.into();
            if payload.is_empty() {
                continue;
            }
            let payload_bytes: u64 = payload.iter().map(|(_, d)| d.len() as u64).sum();
            let code = if first.excl { codes::PRESEND_RW } else { codes::PRESEND_RO };
            // One id per target.
            let (epoch, ids) = pred.window.ids(first.targets.len() as u64);
            for (t, id) in first.targets.iter().zip(ids) {
                let m = UserMsg {
                    code,
                    a: id,
                    b: epoch,
                    block: first.block,
                    set: first.targets,
                    node: n.me,
                    blocks: Arc::clone(&payload),
                };
                n.tracer().emit(
                    EventKind::PresendPush,
                    id,
                    pack_peer_count(t, payload.len() as u64),
                );
                self.out.send(n, t, m);
                report.msgs += 1;
                report.blocks_pushed += payload.len() as u64;
                report.bytes += payload_bytes;
            }
        }
    }
}

/// Group pushes into bulk messages: a group is a run of *neighboring*
/// blocks with identical targets and kind (or a singleton when coalescing
/// is disabled), of at most [`MAX_BULK_BLOCKS`].
fn group_pushes(pushes: &[Push], coalesce: bool) -> Vec<Vec<Push>> {
    let mut groups: Vec<Vec<Push>> = Vec::new();
    for &p in pushes {
        if coalesce {
            if let Some(last) = groups.last_mut() {
                let prev = *last.last().expect("groups are non-empty");
                if prev.block.next() == p.block
                    && prev.targets == p.targets
                    && prev.excl == p.excl
                    && last.len() < MAX_BULK_BLOCKS
                {
                    last.push(p);
                    continue;
                }
            }
        }
        groups.push(vec![p]);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(b: u64, targets: NodeSet, excl: bool) -> Push {
        Push { block: BlockId(b), targets, excl }
    }

    #[test]
    fn coalesces_neighbor_runs() {
        let t = NodeSet::single(3);
        let pushes =
            vec![push(10, t, false), push(11, t, false), push(12, t, false), push(20, t, false)];
        let groups = group_pushes(&pushes, true);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 3);
        assert_eq!(groups[1].len(), 1);
    }

    #[test]
    fn different_targets_break_runs() {
        let a = NodeSet::single(1);
        let b = NodeSet::single(2);
        let pushes = vec![push(10, a, false), push(11, b, false), push(12, b, false)];
        let groups = group_pushes(&pushes, true);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn kind_change_breaks_runs() {
        let t = NodeSet::single(1);
        let pushes = vec![push(10, t, false), push(11, t, true)];
        assert_eq!(group_pushes(&pushes, true).len(), 2);
    }

    #[test]
    fn no_coalescing_means_singletons() {
        let t = NodeSet::single(1);
        let pushes = vec![push(10, t, false), push(11, t, false)];
        assert_eq!(group_pushes(&pushes, false).len(), 2);
    }

    #[test]
    fn max_bulk_respected() {
        let t = NodeSet::single(1);
        let n = 2 * MAX_BULK_BLOCKS + 10;
        let pushes: Vec<Push> = (0..n as u64).map(|i| push(i, t, false)).collect();
        let groups = group_pushes(&pushes, true);
        assert_eq!(groups.len(), 3);
        assert!(groups.iter().all(|g| g.len() <= MAX_BULK_BLOCKS));
    }
}
