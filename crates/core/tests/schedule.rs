//! Properties of communication schedules: conflict marking, action
//! selection, incremental growth monotonicity, and the coalescing
//! grouping invariants — each over the seeded cases of `tempest::rng`.

use std::collections::{BTreeSet, HashMap};

use prescient_core::schedule::{Action, PhaseSchedule, ScheduleEntry};
use prescient_tempest::rng::{cases, Gen};
use prescient_tempest::{BlockId, NodeId, NodeSet};

#[derive(Debug, Clone)]
enum Ev {
    Read(u64, NodeId),
    Write(u64, NodeId),
    NextIter,
}

/// An event over `blocks` blocks and `nodes` nodes.
fn ev(g: &mut Gen, blocks: u64, nodes: u64) -> Ev {
    let (b, n) = (g.below(blocks), g.below(nodes) as NodeId);
    match g.below(3) {
        0 => Ev::Read(b, n),
        1 => Ev::Write(b, n),
        _ => Ev::NextIter,
    }
}

/// `len` events over 8 blocks and 8 nodes.
fn evs(g: &mut Gen, len: std::ops::Range<usize>) -> Vec<Ev> {
    g.vec(len, |g| ev(g, 8, 8))
}

/// The schedule `evs` records, starting at iteration 1.
fn record(evs: &[Ev]) -> PhaseSchedule {
    let mut sched = PhaseSchedule::default();
    sched.cur_iter = 1;
    for ev in evs {
        match ev {
            Ev::Read(b, n) => sched.record_read(BlockId(*b), *n),
            Ev::Write(b, n) => sched.record_write(BlockId(*b), *n),
            Ev::NextIter => sched.cur_iter += 1,
        }
    }
    sched
}

/// A block is conflict-marked iff some single iteration saw both a read
/// and a write of it.
#[test]
fn conflict_iff_same_iteration_read_and_write() {
    cases(256, |g| {
        let evs = evs(g, 0..60);
        let sched = record(&evs);
        let mut iter = 1u64;
        let mut per_iter: HashMap<(u64, u64), (bool, bool)> = HashMap::new();
        for ev in &evs {
            match ev {
                Ev::Read(b, _) => per_iter.entry((*b, iter)).or_default().0 = true,
                Ev::Write(b, _) => per_iter.entry((*b, iter)).or_default().1 = true,
                Ev::NextIter => iter += 1,
            }
        }
        for b in 0..8u64 {
            let expect_conflict =
                (1..=iter).any(|it| matches!(per_iter.get(&(b, it)), Some((true, true))));
            let got = sched.entries().get(&BlockId(b)).map(|e| e.conflict).unwrap_or(false);
            assert_eq!(got, expect_conflict, "block {b}");
        }
    });
}

/// Readers only accumulate (no deletions), and every recorded reader
/// stays in the entry forever.
#[test]
fn readers_grow_monotonically() {
    cases(256, |g| {
        let mut sched = PhaseSchedule::default();
        sched.cur_iter = 1;
        let mut seen: HashMap<u64, BTreeSet<NodeId>> = HashMap::new();
        for ev in evs(g, 0..60) {
            match ev {
                Ev::Read(b, n) => {
                    sched.record_read(BlockId(b), n);
                    seen.entry(b).or_default().insert(n);
                }
                Ev::Write(b, n) => sched.record_write(BlockId(b), n),
                Ev::NextIter => sched.cur_iter += 1,
            }
            for (b, readers) in &seen {
                let e = sched.entries()[&BlockId(*b)];
                for r in readers {
                    assert!(e.readers.contains(*r), "reader {r} lost from block {b}");
                }
            }
        }
    });
}

/// The pre-send action is Conflict exactly for conflict entries, Write
/// iff the most recent recording was a write, Read otherwise.
#[test]
fn action_follows_recency() {
    cases(256, |g| {
        let evs = evs(g, 1..60);
        let sched = record(&evs);
        // Per block: wrote at least once, last read iteration, last write
        // iteration.
        let mut last_kind: HashMap<u64, (bool, u64, u64)> = HashMap::new();
        let mut iter = 1u64;
        for ev in &evs {
            match ev {
                Ev::Read(b, _) => last_kind.entry(*b).or_default().1 = iter,
                Ev::Write(b, _) => {
                    let e = last_kind.entry(*b).or_default();
                    (e.0, e.2) = (true, iter);
                }
                Ev::NextIter => iter += 1,
            }
        }
        for (b, (wrote, read_iter, write_iter)) in last_kind {
            let e = sched.entries()[&BlockId(b)];
            if e.conflict {
                assert_eq!(e.action(), Action::Conflict);
            } else if wrote && write_iter >= read_iter {
                assert_eq!(e.action(), Action::Write, "block {b}");
            } else {
                assert_eq!(e.action(), Action::Read, "block {b}");
            }
        }
    });
}

/// sorted_entries is sorted, complete, and duplicate-free.
#[test]
fn sorted_entries_is_a_permutation() {
    cases(256, |g| {
        let sched = record(&evs(g, 0..60));
        let sorted = sched.sorted_entries();
        assert_eq!(sorted.len(), sched.entries().len());
        for w in sorted.windows(2) {
            assert!(w[0].0 < w[1].0, "strictly ascending blocks");
        }
    });
}

/// Expanding the run-length-encoded `replay` block-by-block yields exactly
/// the normalized `sorted_entries` walk (what the pre-send passes consumed
/// before compaction), and the encoding is maximal: no two adjacent runs
/// could have merged. Checked on the sparse 8-block event streams of the
/// other properties and on dense ones (96 blocks, 5 nodes, up to 600
/// events), where runs are long.
#[test]
fn replay_expands_to_sorted_walk() {
    cases(256, |g| {
        let sched = if g.bool() {
            record(&evs(g, 0..120))
        } else {
            record(&g.vec(0..600, |g| ev(g, 96, 5)))
        };
        let anticipate = g.bool();
        let normalize = |e: &ScheduleEntry| {
            let action = e.action_with(anticipate);
            let readers = if action == Action::Read { e.readers } else { NodeSet::EMPTY };
            let writer = if action == Action::Write { e.writer } else { None };
            (action, readers, writer)
        };
        let reference: Vec<_> = sched
            .sorted_entries()
            .into_iter()
            .map(|(b, e)| {
                let (action, readers, writer) = normalize(&e);
                (b.0, action, readers, writer)
            })
            .collect();
        let runs = sched.replay(anticipate);
        let expanded: Vec<_> = runs
            .iter()
            .flat_map(|r| r.blocks().map(move |b| (b.0, r.action, r.readers, r.writer)))
            .collect();
        assert_eq!(expanded, reference, "replay must expand to the per-block walk");
        for w in runs.windows(2) {
            let mergeable = w[0].first.0 + w[0].len == w[1].first.0
                && w[0].action == w[1].action
                && w[0].readers == w[1].readers
                && w[0].writer == w[1].writer;
            assert!(!mergeable, "adjacent runs must not be mergeable (maximal RLE): {w:?}");
        }
    });
}
