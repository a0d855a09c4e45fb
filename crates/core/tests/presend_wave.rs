//! The pre-send window's tear-down, in waves (`fetch_all` under
//! `core::presend` pass 1): every recall / invalidation round of a slice is
//! in flight together and the home waits once per wave.
//!
//! What a wave costs is *derived* here, not pinned: a tear-down is the
//! home's own fault on its own block, so per stale block it is a
//! self-request, one invalidation (or recall), its answer, and a
//! self-grant — four messages — and the invalidations toward one sharer
//! leave in full egress batches. The other tests hold the wave to the rules
//! the serial tear-down kept: grants belong to requests by seq, a timeout
//! re-issues what is pending and nothing else, the push list is read off
//! the directory *after* the tear-down, and pass 2 still drops a push a
//! late demand request has overtaken.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use prescient_core::manual::ManualEntry;
use prescient_core::presend::{presend, PresendReport, TEARDOWN_WAVE};
use prescient_core::{Predictive, PredictiveConfig};
use prescient_stache::testkit::{read_u64, write_u64, Cluster};
use prescient_stache::{fetch_all, DirState, Msg, Node, RetryConfig, Wake};
use prescient_tempest::fabric::{BatchConfig, Fabric, FabricCtl};
use prescient_tempest::stats::StatsSnapshot;
use prescient_tempest::tag::Tag;
use prescient_tempest::trace::{unpack_peer_count, EventKind, TraceEvent, Tracer};
use prescient_tempest::{
    BlockId, FaultPlan, GAddr, GlobalLayout, NodeId, NodeSet, PartitionScope, PartitionSpec, Prim,
};

const BS: usize = 32;
const PHASE: u32 = 1;

/// Does `node` hold `addr` with at least `tag`, without asking anyone?
fn holds(node: &Node, addr: GAddr, tag: Tag) -> bool {
    let t = node.state.mem.probe(node.shared.layout.block_of(addr));
    t == tag || t == Tag::ReadWrite && tag == Tag::ReadOnly
}

fn preds(n: usize) -> Vec<Arc<Predictive>> {
    let cfg = PredictiveConfig { degrade: false, ..PredictiveConfig::default() };
    (0..n).map(|_| Arc::new(Predictive::new(cfg))).collect()
}

/// `n` nodes (node 0 is the home every test allocates at) on the default
/// batch policy — spelled out, because the derived wire counts below
/// depend on it — with node 0 traced.
struct Rig {
    m: Cluster,
    preds: Vec<Arc<Predictive>>,
    ctl: Arc<FabricCtl>,
    tracer: Tracer,
}

fn rig(n: usize, retry: RetryConfig, plan: Option<FaultPlan>) -> Rig {
    let preds = preds(n);
    let mut eps = match plan {
        Some(p) => Fabric::new_faulty_with::<Msg>(n, p, BatchConfig::default()).0,
        None => Fabric::new_with::<Msg>(n, BatchConfig::default()),
    };
    let ctl = Arc::clone(eps[0].ctl());
    let tracer = Tracer::new(0, 1 << 15);
    eps[0].set_tracer(tracer.clone());
    let m = Cluster::over(eps, GlobalLayout::new(n, BS), retry, |i| {
        Arc::clone(&preds[i as usize]) as _
    });
    Rig { m, preds, ctl, tracer }
}

impl Rig {
    /// `k` neighbouring blocks homed at node 0.
    fn alloc(&mut self, k: usize) -> Vec<GAddr> {
        (0..k).map(|_| self.m.nodes[0].state.mem.alloc(BS as u64, BS as u64)).collect()
    }

    fn block(&self, a: GAddr) -> BlockId {
        self.m.nodes[0].shared.layout.block_of(a)
    }

    fn schedule(&self, addrs: &[GAddr], entry: ManualEntry) {
        self.preds[0].install_manual(PHASE, addrs.iter().map(|a| (self.block(*a), entry)));
    }

    fn stats(&self, node: usize) -> StatsSnapshot {
        self.m.nodes[node].shared.stats.snapshot()
    }

    fn msgs(&self) -> u64 {
        (0..self.m.nodes.len()).map(|i| self.stats(i).msgs_out).sum()
    }

    /// Node 0's pre-send window, everyone else serving.
    fn window(&mut self) -> PresendReport {
        let pred = Arc::clone(&self.preds[0]);
        self.m.on(0, move |n| presend(&pred, n, PHASE))
    }

    fn dir(&self, a: GAddr) -> DirState {
        self.m.nodes[0].state.dir.get(self.block(a)).map_or(DirState::Uncached, |e| e.state)
    }

    fn assert_coherent(&self) {
        let v = self.m.violations();
        assert!(v.is_empty(), "coherence violations: {v:#?}");
    }
}

// (i) ---------------------------------------------------------------------

#[test]
fn k_stale_blocks_cost_four_messages_each_and_full_batches_toward_the_sharer() {
    const K: usize = 40;
    let mut r = rig(3, RetryConfig::default(), None);
    let addrs = r.alloc(K);
    r.schedule(&addrs, ManualEntry::Writer(2));
    r.m.on(1, |n| addrs.iter().for_each(|a| assert_eq!(read_u64(n, *a).0, 0)));
    // Wire batches node 0 has put toward node 1 so far (a drain reads the
    // ring, it does not empty it).
    let toward_sharer = |r: &Rig| {
        let dump = r.tracer.drain().expect("tracing is on");
        assert_eq!(dump.dropped, 0);
        let to_1 =
            |e: &&TraceEvent| e.kind == EventKind::WireFlush && unpack_peer_count(e.a).0 == 1;
        dump.events.iter().filter(to_1).count()
    };
    let (msgs0, wire0, batches0) = (r.msgs(), r.ctl.wire(), toward_sharer(&r));

    let rep = r.window();

    // Tear-down: per block a self-request, an invalidation, its ack, a
    // self-grant. Push: the K neighbours coalesce into one bulk message
    // to the writer, acknowledged once.
    assert_eq!(rep.ensure_fetches, K as u64);
    assert_eq!((rep.blocks_pushed, rep.msgs), (K as u64, 1));
    assert_eq!(r.msgs() - msgs0, 4 * K as u64 + 2, "4K tear-down messages + push + ack");
    assert_eq!(r.ctl.wire().sub(&wire0).envelopes, 4 * K as u64 + 2, "all of them on the wire");
    assert_eq!(r.stats(1).invals_in, K as u64);
    assert_eq!(r.stats(0).retries, 0);

    // The K invalidations are all issued before the home waits, so they
    // leave in batches of `BatchConfig::DEFAULT_MAX`, the remainder at the
    // one flush before the wait.
    let batches = toward_sharer(&r) - batches0;
    let full = K.div_ceil(BatchConfig::DEFAULT_MAX);
    assert!(
        (full..=full + 1).contains(&batches),
        "{batches} wire batches toward the sharer for {K} invalidations"
    );

    r.assert_coherent();
    for a in &addrs {
        assert_eq!(r.dir(*a), DirState::Exclusive(2));
        assert!(
            holds(&r.m.nodes[2], *a, Tag::ReadWrite) && !holds(&r.m.nodes[1], *a, Tag::ReadOnly)
        );
    }
}

// (ii) --------------------------------------------------------------------

#[test]
fn a_dropped_invalidation_re_issues_that_block_only_and_stray_grants_are_inert() {
    const K: usize = 12;
    const LOST: usize = 5; // shared by node 2, whose link drops its invalidation
    const STRAY: usize = 8; // a superseded self-grant for it is already in the inbox

    // Sever 0<->2 for exactly the second send of each direction. Node 2's
    // read is the first send both ways (request | grant); node 2 then
    // spends its second send on a duplicate request, which is ignored
    // whether or not it arrives, so the home's second send — the
    // invalidation — is the one message of the wave the fabric drops, and
    // the re-sent invalidation and its ack (third sends) pass.
    let cut = PartitionSpec { scope: PartitionScope::Pair(0, 2), from_event: 1, until_event: 2 };
    let retry = RetryConfig { timeout: Duration::from_millis(150), max_retries: 20 };
    let mut r = rig(3, retry, Some(FaultPlan::new(3).partitioned(cut)));
    let addrs = r.alloc(K);
    let blocks: Vec<BlockId> = addrs.iter().map(|a| r.block(*a)).collect();
    r.m.run(|n, _| match n.shared.me {
        1 => (0..K).filter(|&i| i != LOST).for_each(|i| assert_eq!(read_u64(n, addrs[i]).0, 0)),
        2 => {
            read_u64(n, addrs[LOST]);
            n.shared.send(0, Msg::GetShared { block: blocks[LOST], seq: 1 });
            n.shared.flush_net();
        }
        _ => {}
    });
    let msgs0 = r.msgs();

    let reqs: Vec<(BlockId, bool)> = blocks.iter().map(|b| (*b, true)).collect();
    let stray = |seq| Msg::Grant {
        block: blocks[STRAY],
        excl: true,
        data: None,
        extra_hops: 0,
        recorded: false,
        seq,
    };
    let infos = r.m.on(0, |n| {
        // As if an earlier attempt at it had been superseded.
        let superseded = n.shared.next_seq();
        n.shared.send(0, stray(superseded));
        fetch_all(n, &reqs)
    });

    for (i, info) in infos.iter().enumerate() {
        assert_eq!(info.retries, u32::from(i == LOST), "block {i}");
        // Every grant is the one its own invalidation round produced —
        // the stray one (no extra hop) settled nothing.
        assert_eq!((info.extra_hops, info.bytes), (1, 0), "block {i}");
    }
    assert_eq!(r.stats(0).retries, 1, "one request re-issued, not the wave");
    // 4 per block, the stray grant, and for the lost block a second
    // self-request, the nudged invalidation and nothing more: its first
    // invalidation was counted when sent.
    assert_eq!(r.msgs() - msgs0, 4 * K as u64 + 1 + 2);
    assert_eq!(r.stats(1).invals_in + r.stats(2).invals_in, K as u64, "each arrived once");
    assert_eq!(r.m.nodes[0].shared.wave(), (0, 0), "nothing left pending");
    r.assert_coherent();
    for (i, a) in addrs.iter().enumerate() {
        assert_eq!(r.dir(*a), DirState::Uncached, "block {i}");
        assert!(holds(&r.m.nodes[0], *a, Tag::ReadWrite), "block {i} is the home's again");
    }
}

// (iii) -------------------------------------------------------------------

#[test]
fn a_demand_request_served_mid_window_aborts_the_stale_push() {
    let mut r = rig(4, RetryConfig::default(), None);
    let addrs = r.alloc(2);
    let (stale, raced) = (addrs[0], addrs[1]);
    let raced_block = r.block(raced);
    r.schedule(&addrs, ManualEntry::Writer(2));
    r.m.on(1, |n| read_u64(n, stale));

    // Node 3's write request for `raced` is in the home's inbox before the
    // window opens and is served inside the tear-down wait of `stale`:
    // after the home decided that `raced` (uncached) needs no tear-down.
    let posted = AtomicBool::new(false);
    let pred = Arc::clone(&r.preds[0]);
    let reports = r.m.run(|n, _| match n.shared.me {
        0 => {
            while !posted.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            Some(presend(&pred, n, PHASE))
        }
        3 => {
            let seq = n.shared.next_seq();
            n.shared.set_outstanding(seq);
            n.shared.send(0, Msg::GetExcl { block: raced_block, seq });
            n.shared.flush_net();
            posted.store(true, Ordering::Release);
            while !matches!(n.next_wake(None), Some(Wake::Grant { seq: s, .. }) if s == seq) {}
            n.shared.set_outstanding(0);
            write_u64(n, raced, 77);
            None
        }
        _ => None,
    });
    let rep = reports[0].expect("node 0 ran the window");

    assert_eq!(rep.ensure_fetches, 1, "only the shared block was torn down");
    assert_eq!(r.stats(0).presend_aborted, 1, "the overtaken push was dropped in pass 2");
    assert_eq!(rep.blocks_pushed, 1);
    assert_eq!(r.dir(raced), DirState::Exclusive(3), "the demand writer keeps the block");
    assert!(!holds(&r.m.nodes[2], raced, Tag::ReadOnly), "never two writers");
    assert!(holds(&r.m.nodes[2], stale, Tag::ReadWrite));
    r.assert_coherent();
    assert_eq!(r.m.on(1, |n| read_u64(n, raced)).0, 77);
}

// (iv) --------------------------------------------------------------------

#[test]
fn a_write_run_skips_what_its_writer_owns_and_takes_the_rest() {
    let mut r = rig(3, RetryConfig::default(), None);
    let addrs = r.alloc(4);
    r.schedule(&addrs, ManualEntry::Writer(2));
    // One run of four neighbours: owned by the recorded writer, shared by
    // a reader, owned by someone else, uncached.
    r.m.run(|n, _| match n.shared.me {
        2 => {
            write_u64(n, addrs[0], 10);
        }
        1 => {
            read_u64(n, addrs[1]);
            write_u64(n, addrs[2], 12);
        }
        _ => {}
    });

    let rep = r.window();

    assert_eq!(rep.ensure_fetches, 2, "the shared block and the foreign writer's");
    assert_eq!(rep.blocks_pushed, 3, "everything but the block already the writer's");
    assert_eq!(r.stats(0).presend_aborted, 0);
    assert_eq!(r.stats(2).recalls_in, 0, "the writer's own block was left alone");
    assert_eq!((r.stats(1).invals_in, r.stats(1).recalls_in), (1, 1));
    r.assert_coherent();
    let writer = &mut r.m.nodes[2];
    for (a, want) in addrs.iter().zip([10, 0, 12, 0]) {
        assert!(holds(writer, *a, Tag::ReadWrite));
        let mut buf = [0u8; 8];
        writer.state.mem.read_in_block(*a, &mut buf).expect("a hit");
        assert_eq!(u64::load(&buf), want);
    }
}

#[test]
fn a_recalled_writer_that_also_reads_is_not_pushed_its_own_copy() {
    let mut r = rig(3, RetryConfig::default(), None);
    let addrs = r.alloc(1);
    let readers: NodeSet = [1 as NodeId, 2].into_iter().collect();
    r.schedule(&addrs, ManualEntry::Readers(readers));
    r.m.on(1, |n| write_u64(n, addrs[0], 5));

    let rep = r.window();

    // The recall leaves node 1 a sharer; only the directory *after* the
    // tear-down says so.
    assert_eq!(rep.ensure_fetches, 1);
    assert_eq!(rep.blocks_pushed, 1, "node 2 only");
    assert_eq!((r.stats(1).presend_blocks_in, r.stats(2).presend_blocks_in), (0, 1));
    assert_eq!(r.dir(addrs[0]), DirState::Shared(readers));
    r.assert_coherent();
    let msgs0 = r.msgs();
    for node in [1, 2] {
        assert!(holds(&r.m.nodes[node], addrs[0], Tag::ReadOnly));
        assert_eq!(r.m.on(node as NodeId, |n| read_u64(n, addrs[0])).0, 5);
    }
    assert_eq!(r.msgs(), msgs0, "both readers hit");
}

// (vi) --------------------------------------------------------------------

/// Node 0's trace of one pre-send window, as `(pushes, receipts)`: the
/// positions of its `PresendPush` and `MsgRecv` events. Node 0 receives
/// only while it waits.
fn window_trace(r: &mut Rig) -> (Vec<usize>, Vec<usize>) {
    // A drain reads the ring; it does not empty it.
    let before = r.tracer.drain().expect("tracing is on").events.len();
    r.window();
    let dump = r.tracer.drain().expect("tracing is on");
    assert_eq!(dump.dropped, 0);
    let window = &dump.events[before..];
    let at = |kind| window.iter().enumerate().filter(move |e| e.1.kind == kind).map(|e| e.0);
    (at(EventKind::PresendPush).collect(), at(EventKind::MsgRecv).collect())
}

#[test]
fn pushes_that_need_no_tear_down_leave_before_the_window_waits() {
    const K: usize = 8;
    let mut r = rig(3, RetryConfig::default(), None);
    let addrs = r.alloc(2 * K);
    let (owned, pushed) = addrs.split_at(K);
    // The home's own write run, shared by node 1: torn down, never pushed
    // (adaptive's every tear-down) — and a read run for node 2.
    r.schedule(owned, ManualEntry::Writer(0));
    r.schedule(pushed, ManualEntry::Readers(NodeSet::single(2)));
    r.m.on(1, |n| owned.iter().for_each(|a| assert_eq!(read_u64(n, *a).0, 0)));

    let (pushes, receipts) = window_trace(&mut r);
    assert_eq!(pushes.len(), 1, "the read run coalesces into one message");
    assert!(pushes[0] < receipts[0], "the push left after the window's first receipt");
    assert_eq!(r.stats(1).invals_in, K as u64);
    assert_eq!(r.stats(2).presend_blocks_in, K as u64);
    r.assert_coherent();

    // A push of a block the window recalls waits for its grant, inside
    // the one wait.
    let mut r = rig(3, RetryConfig::default(), None);
    let addrs = r.alloc(1);
    r.schedule(&addrs, ManualEntry::Readers(NodeSet::single(2)));
    r.m.on(1, |n| write_u64(n, addrs[0], 5));
    let (pushes, receipts) = window_trace(&mut r);
    assert_eq!(pushes.len(), 1);
    assert!(receipts[0] < pushes[0], "the push left before its recall was granted");
    r.assert_coherent();
}

// (v) ---------------------------------------------------------------------

#[test]
fn wave_boundaries() {
    for k in [0, 1, TEARDOWN_WAVE - 1, TEARDOWN_WAVE, TEARDOWN_WAVE + 1, 2 * TEARDOWN_WAVE + 3] {
        let mut r = rig(2, RetryConfig::default(), None);
        // One block more than is stale, so K = 0 still walks a schedule.
        let addrs = r.alloc(k + 1);
        r.schedule(&addrs, ManualEntry::Writer(0));
        r.m.on(1, |n| addrs[..k].iter().for_each(|a| assert_eq!(read_u64(n, *a).0, 0)));
        let msgs0 = r.msgs();

        let rep = r.window();

        // Ownership prefetched home: tear-downs, no pushes.
        assert_eq!(rep.ensure_fetches, k as u64, "K = {k}");
        assert_eq!((rep.blocks_pushed, rep.msgs), (0, 0), "K = {k}");
        assert_eq!(r.msgs() - msgs0, 4 * k as u64, "K = {k}");
        assert_eq!(r.stats(1).invals_in, k as u64, "K = {k}");
        assert_eq!(rep.vtime_ns, k as u64 * r.m.nodes[0].shared.cost.ensure_ns(0), "K = {k}");
        assert_eq!(r.stats(0).retries, 0, "K = {k}");
        r.assert_coherent();
        for a in &addrs {
            assert_eq!(r.dir(*a), DirState::Uncached, "K = {k}");
            assert!(holds(&r.m.nodes[0], *a, Tag::ReadWrite), "K = {k}");
        }
    }
}
