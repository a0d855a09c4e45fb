//! The protocol table (`stache::table`) over its whole domain.
//!
//! * Every point — (at, event, the predicates the event reads) for the
//!   home, (tag, event, predicates) for the requester — maps to exactly one
//!   row, and every row to at least one point: nothing is unhandled, and an
//!   impossible point is a named `Never` row.
//! * Every row that can fire is fired by a named scenario on a
//!   `testkit::Cluster`, checked by the interpreter's hit counters (debug
//!   builds). A scenario that stands in for a fault says which: it injects
//!   what that fault would deliver (a duplicate, a lost grant, a stale
//!   reply); `chaos.rs` reaches the same rows under real fault plans.
//! * DESIGN.md §2.3 prints the tables exactly as [`render`] does.

use prescient_stache::table::*;

fn subsets(mask: Bits) -> impl Iterator<Item = Bits> {
    (0..=mask).filter(move |g| g & !mask == 0)
}

#[test]
fn every_point_of_the_domain_maps_to_exactly_one_row() {
    let mut used = vec![false; HOME_ROWS.len()];
    for &(at, at_name) in ATS {
        for &(ev, ev_name) in HOME_EVENTS {
            for g in subsets(reads(ev)) {
                let rows: Vec<usize> =
                    (0..HOME_ROWS.len()).filter(|&i| HOME_ROWS[i].0.matches(at, ev, g)).collect();
                assert_eq!(rows.len(), 1, "home ({at_name}, {ev_name}, {g:#b}): rows {rows:?}");
                assert_eq!(home_row(at, ev, g), rows[0], "the index disagrees with the table");
                used[rows[0]] = true;
            }
        }
    }
    let dead: Vec<usize> = (0..used.len()).filter(|&i| !used[i]).map(|i| i + 1).collect();
    assert!(dead.is_empty(), "home rows {dead:?} match no point of the domain");

    let mut used = vec![false; PEER_ROWS.len()];
    for &(tag, tag_name) in TAGS {
        for &(ev, ev_name) in PEER_EVENTS {
            for g in subsets(reads(ev)) {
                let rows: Vec<usize> =
                    (0..PEER_ROWS.len()).filter(|&i| PEER_ROWS[i].0.matches(tag, ev, g)).collect();
                assert_eq!(rows.len(), 1, "requester ({tag_name}, {ev_name}, {g:#b}): {rows:?}");
                used[rows[0]] = true;
            }
        }
    }
    assert!(used.iter().all(|u| *u), "a requester row matches no point: {used:?}");
}

#[test]
fn a_guard_names_only_what_its_events_read() {
    let events = HOME_EVENTS.iter().chain(PEER_EVENTS);
    let keys = HOME_ROWS.iter().map(|r| r.0).chain(PEER_ROWS.iter().map(|r| r.0));
    for (i, Key(_, ev, is, not)) in keys.enumerate() {
        let read = events.clone().filter(|(e, _)| ev & e != 0).fold(0, |m, (e, _)| m | reads(*e));
        assert_eq!((is | not) & !read, 0, "row {} guards on a predicate nobody reads", i + 1);
        assert_eq!(is & not, 0, "row {} wants a predicate both ways", i + 1);
    }
}

// ---- DESIGN.md §2.3 ---------------------------------------------------------

/// The names of `mask`'s bits in `table` ("any": all of them).
fn names(mask: Bits, table: &[(Bits, &str)]) -> String {
    let names: Vec<&str> = table.iter().filter(|(b, _)| mask & b != 0).map(|(_, s)| *s).collect();
    match names.len() {
        0 => "—".into(),
        n if n == table.len() && n > 1 => "any".into(),
        _ => names.join(", "),
    }
}

/// One Markdown table row: `#`, where, events, guard, then `rest`.
fn line(i: usize, Key(at, ev, is, not): &Key, ats: &[(Bits, &str)], rest: &str) -> String {
    let evs = if *ev >= RECALL { PEER_EVENTS } else { HOME_EVENTS };
    let guard: Vec<String> = PREDS
        .iter()
        .filter(|(b, _)| (is | not) & b != 0)
        .map(|(b, s)| if is & b != 0 { s.to_string() } else { format!("¬{s}") })
        .collect();
    let guard = if guard.is_empty() { "—".into() } else { guard.join(" ∧ ") };
    format!("| {} | {} | {} | {guard} | {rest} |\n", i + 1, names(*at, ats), names(*ev, evs))
}

/// The three tables as Markdown, as DESIGN.md §2.3 prints them.
fn render() -> String {
    let mut out = String::from(
        "**Home rows** (`r`: the request's node, or a push's targets; `o`: the other copies, \
         the sharers but `r` or the owner)\n\n\
         | # | at | event | guard | actions | next |\n|---|---|---|---|---|---|\n",
    );
    let next = ["—", "U", "X(r)", "S{r}", "S{}", "S{o}", "S{o,r}"];
    for (i, Row(key, what)) in HOME_ROWS.iter().enumerate() {
        let rest = match what {
            Out::Do(acts, n) => format!("{acts:?} | {}", next[*n as usize]),
            Out::Never(why) => format!("*impossible:* {why} | "),
        };
        out += &line(i, key, ATS, &rest);
    }
    out += "\n**Requester rows**\n\n\
            | # | tag | event | guard | new tag | reply |\n|---|---|---|---|---|---|\n";
    for (i, PeerRow(key, to, reply)) in PEER_ROWS.iter().enumerate() {
        let to = to.map_or("—".into(), |t| names(tag_bit(t), TAGS));
        out += &line(i, key, TAGS, &format!("{to} | {reply:?}"));
    }
    out += "\n**Stable states** (legal tags)\n\n\
            | state | home | placement-acted home | holder | other |\n|---|---|---|---|---|\n";
    for l in &STABLE {
        let t = |m| names(m, TAGS);
        let (at, home, moved) = (names(l.at, ATS), t(l.home), t(l.moved_home));
        out += &format!("| {at} | {home} | {moved} | {} | {} |\n", t(l.holder), t(l.other));
    }
    out
}

const BEGIN: &str = "<!-- protocol table: begin (crates/stache/tests/rows.rs renders it) -->\n";
const END: &str = "<!-- protocol table: end -->";

#[test]
fn design_md_prints_the_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let doc = std::fs::read_to_string(path).expect("DESIGN.md");
    let start = doc.find(BEGIN).expect("DESIGN.md §2.3 has the begin marker") + BEGIN.len();
    let len = doc[start..].find(END).expect("DESIGN.md §2.3 has the end marker");
    let want = render();
    assert!(doc[start..start + len] == want, "DESIGN.md §2.3 should read:\n{BEGIN}{want}{END}");
}

// ---- row coverage (the hit counters exist in debug builds only) -------------

#[cfg(debug_assertions)]
mod coverage {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use prescient_stache::table::*;
    use prescient_stache::testkit::{read_u64, write_u64, Cluster};
    use prescient_stache::{Msg, NoHooks, Node, RetryConfig};
    use prescient_tempest::fabric::Fabric;
    use prescient_tempest::tag::Tag;
    use prescient_tempest::{
        BlockId, CostModel, GAddr, GlobalLayout, HomeMap, HomeView, NodeId, NodeSet, VBarrier,
    };

    const BS: u64 = 32;

    fn machine(n: usize) -> Cluster {
        Cluster::new(n, BS as usize, RetryConfig::default(), None, |_| Arc::new(NoHooks))
    }

    /// A fresh block homed at node 0.
    fn block(m: &mut Cluster) -> (GAddr, BlockId) {
        let a = m.nodes[0].state.mem.alloc(BS, BS);
        (a, a.block(BS as usize))
    }

    fn read(m: &mut Cluster, node: NodeId, a: GAddr) -> u64 {
        m.on(node, |n| read_u64(n, a).0)
    }

    fn write(m: &mut Cluster, node: NodeId, a: GAddr, v: u64) {
        m.on(node, |n| write_u64(n, a, v));
    }

    /// Put `msg` on the wire to `dst` as this node, outside any fetch.
    fn raw(n: &Node, dst: NodeId, msg: Msg) {
        n.shared.send(dst, msg);
        n.shared.flush_net();
    }

    /// Serve the inbox until `done` holds.
    fn until(n: &mut Node, what: &str, done: impl Fn(&Node) -> bool) {
        let start = Instant::now();
        while !done(n) {
            assert!(start.elapsed() < Duration::from_secs(30), "timed out waiting for {what}");
            n.poll();
            std::thread::yield_now();
        }
    }

    /// Node `node` asks for `b` exclusively outside a fetch, so the grant
    /// arrives stale and installs nothing: the directory names `node` the owner
    /// of a copy it never got — what a dropped grant leaves.
    fn lose_grant(m: &mut Cluster, node: NodeId, b: BlockId) {
        m.on(node, |n| {
            let before = n.shared.stats.snapshot().stale_grants_in;
            raw(n, 0, Msg::GetExcl { block: b, seq: n.shared.next_seq() });
            until(n, "the stale grant", |n| n.shared.stats.snapshot().stale_grants_in > before);
        });
    }

    /// Reads, writes, upgrades, recalls and invalidation rounds of plain
    /// demand traffic on four nodes.
    fn demand_traffic() {
        let mut m = machine(4);
        let (a, _) = block(&mut m);
        assert_eq!(read(&mut m, 1, a), 0); // U, GetS
        assert_eq!(read(&mut m, 2, a), 0); // S, GetS
        write(&mut m, 1, a, 1); // upgrade among two sharers: invalidate node 2
        write(&mut m, 2, a, 2); // recall (invalidate) the owner
        assert_eq!(read(&mut m, 1, a), 2); // recall (downgrade) the owner: S{2,1}
        write(&mut m, 3, a, 3); // invalidate two sharers, neither the writer
        assert_eq!(read(&mut m, 0, a), 3); // the home recalls (downgrade): S{3}
        write(&mut m, 3, a, 4); // the lone sharer upgrades
        write(&mut m, 0, a, 5); // the home recalls (invalidate): U
        assert_eq!((read(&mut m, 1, a), read(&mut m, 2, a)), (5, 5));
        write(&mut m, 0, a, 6); // the home invalidates two sharers
        let (c, _) = block(&mut m);
        write(&mut m, 1, c, 7); // U, GetX
        assert_eq!(read(&mut m, 0, c), 7);
        assert!(m.violations().is_empty(), "{:?}", m.violations());
    }

    /// The home requests its own block: uncached, then shared (a pre-send
    /// tear-down's ensure step, or a retry whose grant already completed).
    fn the_home_requests_its_own_block() {
        let mut m = machine(2);
        let (a, b) = block(&mut m);
        let ask = |m: &mut Cluster| {
            m.on(0, |n| {
                raw(n, 0, Msg::GetShared { block: b, seq: n.shared.next_seq() });
                n.poll(); // the request, then the home's own grant
            })
        };
        ask(&mut m);
        assert_eq!(read(&mut m, 1, a), 0);
        ask(&mut m);
        assert!(m.violations().is_empty(), "{:?}", m.violations());
    }

    /// A placement-acted home (every home rotated by one node) faults on its
    /// own cold block.
    fn a_placement_acted_home_warms_its_cold_copy() {
        let layout = GlobalLayout::new(2, BS as usize);
        let homes = Arc::new(HomeView::with_placement(layout, 1, HomeMap::new()));
        let nodes: Vec<Node> = Fabric::new::<Msg>(2)
            .into_iter()
            .map(|ep| {
                let (h, retry) = (Arc::clone(&homes), RetryConfig::default());
                Node::new(h, CostModel::default(), ep, Arc::new(NoHooks), retry)
            })
            .collect();
        let mut m = Cluster { nodes, barrier: VBarrier::new(2), faults: None };
        let (a, b) = block(&mut m);
        assert_eq!(homes.home_of_block(b), 1);
        assert_eq!(m.nodes[1].state.mem.probe(b), Tag::Invalid, "cold at its home");
        assert_eq!(read(&mut m, 1, a), 0);
        assert!(m.violations().is_empty(), "{:?}", m.violations());
    }

    /// Stands in for a dropped grant: node 1 owns, at the directory, six
    /// blocks it never received. It then retries each way, and the other
    /// nodes' requests recall a copy that is not there.
    fn a_lost_grant_leaves_the_owner_without_its_copy() {
        let mut m = machine(3);
        let blocks: Vec<(GAddr, BlockId)> = (0..6).map(|_| block(&mut m)).collect();
        for &(_, b) in &blocks {
            lose_grant(&mut m, 1, b);
        }
        write(&mut m, 1, blocks[0].0, 1); // the owner's retry, exclusive
        assert_eq!(read(&mut m, 1, blocks[1].0), 0); // the owner's retry, shared
        assert_eq!(read(&mut m, 2, blocks[2].0), 0); // a downgrade finds no copy
        write(&mut m, 2, blocks[3].0, 2); // an invalidating recall finds no copy
        assert_eq!(read(&mut m, 0, blocks[4].0), 0); // so does the home's read
        write(&mut m, 0, blocks[5].0, 3); // and the home's write
        assert!(m.violations().is_empty(), "{:?}", m.violations());
    }

    /// Stands in for a timed-out fetch and a duplicated request: node 2 sends
    /// two `GetExcl`s in one batch while node 1 owns the block, so the second
    /// is a retry parked behind the first's recall and nudges it — node 1 sees
    /// the recall twice, answers the second from its record, and the home
    /// discards the second reply. Then the first request arrives once more.
    fn a_parked_retry_refreshes_its_seq_and_nudges() {
        let mut m = machine(3);
        let (a, b) = block(&mut m);
        write(&mut m, 1, a, 1);
        let home = Arc::clone(&m.nodes[0].shared);
        m.on(2, |n| {
            let first = n.shared.next_seq();
            let retry = n.shared.next_seq();
            n.shared.set_outstanding(retry);
            n.shared.send(0, Msg::GetExcl { block: b, seq: first });
            raw(n, 0, Msg::GetExcl { block: b, seq: retry });
            until(n, "the retry's grant", |n| n.state.mem.probe(b).writable());
            n.shared.set_outstanding(0);
            until(n, "the second reply", |_| home.stats.snapshot().stale_msgs_in > 0);
            raw(n, 0, Msg::GetExcl { block: b, seq: first });
            until(n, "the duplicate", |_| home.stats.snapshot().dup_reqs_in > 0);
        });
        assert_eq!(read(&mut m, 2, a), 1);
        assert!(m.violations().is_empty(), "{:?}", m.violations());
    }

    /// Two readers' requests reach the home together while node 1 owns the
    /// block: the first starts a recall, the second queues behind it and is
    /// served when the round drains.
    fn a_request_queues_behind_a_round() {
        let mut m = machine(4);
        let (a, b) = block(&mut m);
        write(&mut m, 1, a, 1);
        let (sent, done) = (AtomicUsize::new(0), AtomicUsize::new(0));
        m.run(|n, _| match n.shared.me {
            0 => {
                while sent.load(Ordering::SeqCst) < 2 {
                    std::thread::yield_now();
                }
                until(n, "both grants", |_| done.load(Ordering::SeqCst) == 2);
            }
            2 | 3 => {
                let seq = n.shared.next_seq();
                n.shared.set_outstanding(seq);
                raw(n, 0, Msg::GetShared { block: b, seq });
                sent.fetch_add(1, Ordering::SeqCst);
                until(n, "the grant", |n| n.state.mem.probe(b).readable());
                n.shared.set_outstanding(0);
                done.fetch_add(1, Ordering::SeqCst);
            }
            _ => {}
        });
        assert!(m.violations().is_empty(), "{:?}", m.violations());
    }

    /// Stands in for late or duplicated replies: an `Invalidate` for a block
    /// node 1 does not hold (a duplicate of an acknowledged one), whose ack and
    /// a `RecallData` then name no round in flight.
    fn stale_replies_are_counted() {
        let mut m = machine(2);
        let (_, b) = block(&mut m);
        m.on(0, |n| {
            raw(n, 1, Msg::Invalidate { block: b, op: 999 });
            until(n, "the stale ack", |n| n.shared.stats.snapshot().stale_msgs_in == 1);
        });
        let home = Arc::clone(&m.nodes[0].shared);
        m.on(1, |n| {
            raw(n, 0, Msg::RecallData { block: b, data: None, op: 998, unused: false });
            until(n, "the stale reply", |_| home.stats.snapshot().stale_msgs_in == 2);
        });
    }

    /// Stands in for a pre-send race or a lost grant's retry: a sharer asks for
    /// the copy it already holds.
    fn a_sharer_re_requests_its_copy() {
        let mut m = machine(2);
        let (a, b) = block(&mut m);
        assert_eq!(read(&mut m, 1, a), 0);
        let home = Arc::clone(&m.nodes[0].shared);
        m.on(1, |n| {
            let seq = n.shared.next_seq();
            n.shared.set_outstanding(seq);
            let bytes = n.shared.stats.snapshot().data_bytes_in;
            raw(n, 0, Msg::GetShared { block: b, seq });
            until(n, "the re-grant", |n| n.shared.stats.snapshot().data_bytes_in > bytes);
            n.shared.set_outstanding(0);
        });
        assert_eq!(home.stats.snapshot().presend_races, 1);
        assert!(m.violations().is_empty(), "{:?}", m.violations());
    }

    /// Pre-send pass 2's install rows: a read push commits at an uncached and
    /// a shared entry, a write push at an uncached one; both abort at an entry
    /// a demand request won, and at a busy one.
    fn pre_send_installs_commit_or_abort() {
        let mut m = machine(3);
        let bl: Vec<(GAddr, BlockId)> = (0..5).map(|_| block(&mut m)).collect();
        let one = |node| NodeSet::single(node);
        write(&mut m, 1, bl[2].0, 1);
        assert_eq!(read(&mut m, 1, bl[3].0), 0);
        write(&mut m, 1, bl[4].0, 2);
        m.on(0, |n| {
            let mut install = |b, excl, to| install(&n.shared.clone(), &mut n.state, b, excl, to);
            assert!(install(bl[0].1, false, one(1)), "read push, uncached");
            assert!(install(bl[0].1, false, one(2)), "read push, shared");
            assert!(install(bl[1].1, true, one(1)), "write push, uncached");
            assert!(!install(bl[2].1, false, one(2)), "read push, a writer won");
            assert!(!install(bl[3].1, true, one(2)), "write push, a reader won");
        });
        m.on(0, |n| {
            let b = bl[4].1;
            raw(n, 0, Msg::GetShared { block: b, seq: n.shared.next_seq() });
            n.poll(); // the home's own request starts a recall
            let shared = Arc::clone(&n.shared);
            assert!(!install(&shared, &mut n.state, b, true, one(2)), "write push, entry busy");
            until(n, "the recall", |n| !n.state.dir.get(b).is_some_and(|e| e.is_busy()));
        });
        // The pushes were never sent: the directory names holders without
        // copies. The readers' copies are legal as absent; the writer takes its
        // grant again.
        write(&mut m, 1, bl[1].0, 3);
        assert!(m.violations().is_empty(), "{:?}", m.violations());
    }

    fn h(at: Bits, ev: Bits, g: Bits) -> usize {
        home_row(at, ev, g)
    }

    fn p(tag: Bits, ev: Bits, g: Bits) -> usize {
        HOME_ROWS.len() + peer_row(tag, ev, g)
    }

    type Scenario = (&'static str, fn(), Vec<usize>);

    fn scenarios() -> Vec<Scenario> {
        vec![
            (
                "demand_traffic",
                demand_traffic,
                vec![
                    h(U, GETS, 0),
                    h(S, GETS, 0),
                    h(S, GETX, MEMBER),
                    h(SI, ACK, LAST | MEMBER),
                    h(X, GETX, 0),
                    h(XR, RDATA, EXCL | DATA),
                    h(XR, RDATA, DATA),
                    h(S, GETX, 0),
                    h(SI, ACK, 0),
                    h(SI, ACK, LAST),
                    h(XR, RDATA, HOME | DATA),
                    h(S, GETX, MEMBER | ALONE),
                    h(XR, RDATA, EXCL | HOME | DATA),
                    h(SI, ACK, LAST | HOME),
                    h(U, GETX, 0),
                    p(TI, GRANT, CURRENT),
                    p(TRO, INVALIDATE, 0),
                    p(TRW, RECALL, INVAL),
                    p(TRW, RECALL, 0),
                    p(TI, GRANT, LOCAL),
                ],
            ),
            (
                "the_home_requests_its_own_block",
                the_home_requests_its_own_block,
                vec![h(U, GETS, HOME | IDENT), h(S, GETS, HOME)],
            ),
            (
                "a_placement_acted_home_warms_its_cold_copy",
                a_placement_acted_home_warms_its_cold_copy,
                vec![h(U, GETS, HOME)],
            ),
            (
                "a_lost_grant_leaves_the_owner_without_its_copy",
                a_lost_grant_leaves_the_owner_without_its_copy,
                vec![
                    p(TI, GRANT, 0),
                    h(X, GETX, OWNER),
                    h(X, GETS, OWNER),
                    p(TI, RECALL, 0),
                    h(XR, RDATA, 0),
                    h(XR, RDATA, EXCL),
                    h(XR, RDATA, HOME),
                    h(XR, RDATA, EXCL | HOME),
                ],
            ),
            (
                "a_parked_retry_refreshes_its_seq_and_nudges",
                a_parked_retry_refreshes_its_seq_and_nudges,
                vec![
                    h(XR, RETRY, 0),
                    p(TI, RECALL, INVAL | RECORDED),
                    h(U, RDATA_STALE, 0),
                    h(U, DUP, 0),
                ],
            ),
            (
                "a_request_queues_behind_a_round",
                a_request_queues_behind_a_round,
                vec![h(XR, GETS, 0)],
            ),
            (
                "stale_replies_are_counted",
                stale_replies_are_counted,
                vec![p(TI, INVALIDATE, 0), h(U, ACK_STALE, 0)],
            ),
            (
                "a_sharer_re_requests_its_copy",
                a_sharer_re_requests_its_copy,
                vec![h(S, GETS, MEMBER)],
            ),
            (
                "pre_send_installs_commit_or_abort",
                pre_send_installs_commit_or_abort,
                vec![
                    h(U, PUSH_R, 0),
                    h(U, PUSH_W, 0),
                    h(X, PUSH_R, 0),
                    h(S, PUSH_W, 0),
                    h(XR, PUSH_W, 0),
                ],
            ),
        ]
    }

    /// Every row's firings in this process.
    fn hits() -> Vec<u64> {
        HITS.iter().map(|h| h.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn every_row_is_reached_by_a_named_scenario() {
        let mut reached = vec![false; HITS.len()];
        for (name, run, rows) in scenarios() {
            let before = hits();
            run();
            let after = hits();
            for r in rows {
                assert!(
                    after[r] > before[r],
                    "{name} did not fire row {r} (0-based, home then peer)"
                );
                reached[r] = true;
            }
        }
        for (i, row) in HOME_ROWS.iter().enumerate() {
            if matches!(row.1, Out::Never(_)) {
                assert_eq!(hits()[i], 0, "impossible home row {} fired", i + 1);
                reached[i] = true;
            }
        }
        let missing: Vec<usize> = (0..reached.len()).filter(|&i| !reached[i]).collect();
        assert!(
            missing.is_empty(),
            "rows (0-based, home then peer) no scenario reaches: {missing:?}"
        );
    }
}
