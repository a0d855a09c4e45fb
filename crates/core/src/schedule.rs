//! Communication schedules (§3.3).
//!
//! A schedule is distributed: each home node stores entries only for its
//! own blocks. Per parallel phase (identified by a compiler-assigned
//! [`PhaseId`]) and per block, the schedule records who read and who wrote,
//! at which phase *instance* (iteration). Entries accumulate across
//! iterations — the incremental growth that lets the protocol track
//! adaptive applications — and are only discarded by an explicit
//! [`ScheduleStore::flush`]. Each change takes a fresh, process-wide
//! *generation*, so the replay runs are encoded and a checkpoint copies
//! the entries once per change (DESIGN.md §7, "Replay runs per generation").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use prescient_tempest::{BlockId, IdMap, NodeId, NodeSet};

/// Identifies one compiler-marked parallel phase.
pub type PhaseId = u32;

/// The pre-send action recorded for a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Forward read-only copies to the recorded readers.
    Read,
    /// Forward a writable copy to the recorded writer.
    Write,
    /// Read and written within one phase instance (false sharing or task
    /// conflict): the protocol takes no action (§3.4).
    Conflict,
}

/// Schedule entry for one block within one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScheduleEntry {
    /// All nodes that ever read-requested the block in this phase.
    pub readers: NodeSet,
    /// The most recent write-requester, if any.
    pub writer: Option<NodeId>,
    /// Phase instance of the most recent read request.
    pub read_iter: u64,
    /// Phase instance of the most recent write request.
    pub write_iter: u64,
    /// Sticky conflict mark.
    pub conflict: bool,
    /// Was the *first* request of the most recent instance a write? Used
    /// by the optional conflict-anticipation policy (§3.4's "anticipate
    /// the first stable block state before the conflict occurred").
    pub first_was_write: bool,
    /// Instance stamp for `first_was_write`.
    pub first_stamp: u64,
}

impl ScheduleEntry {
    /// The action the pre-send phase will take for this entry (conflicts
    /// get no action, §3.4).
    pub fn action(&self) -> Action {
        self.action_with(false)
    }

    /// Action under an explicit conflict policy. With `anticipate` set,
    /// conflict blocks are pre-sent toward their *first stable state* —
    /// the kind of the first request in the most recent instance — the
    /// optional policy §3.4 sketches; otherwise conflicts get no action.
    pub fn action_with(&self, anticipate: bool) -> Action {
        if self.conflict {
            if !anticipate {
                return Action::Conflict;
            }
            if self.first_was_write && self.writer.is_some() {
                return Action::Write;
            }
            if self.readers.is_empty() {
                // Never read; anticipation degenerates to the writer.
                return if self.writer.is_some() { Action::Write } else { Action::Conflict };
            }
            return Action::Read;
        }
        if self.writer.is_some() && self.write_iter >= self.read_iter {
            Action::Write
        } else {
            Action::Read
        }
    }

    fn stamp_first(&mut self, iter: u64, write: bool) {
        if self.first_stamp != iter {
            self.first_stamp = iter;
            self.first_was_write = write;
        }
    }
}

/// A run of contiguous blocks whose pre-send walk is identical: same
/// action, and — for the fields the walk actually consults — same readers
/// (read runs) or same writer (write runs). Produced by
/// [`PhaseSchedule::replay`]; dense schedules (the common case after a
/// block-distributed aggregate is swept) collapse to a handful of runs,
/// so pre-send pass 1 iterates O(runs) run headers instead of O(blocks)
/// hash-map entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayRun {
    /// First block of the run.
    pub first: BlockId,
    /// Number of consecutive blocks (`first`, `first+1`, …).
    pub len: u64,
    /// The action every block in the run takes.
    pub action: Action,
    /// Recorded readers (normalized to empty unless `action` is `Read`).
    pub readers: NodeSet,
    /// Recorded writer (normalized to `None` unless `action` is `Write`).
    pub writer: Option<NodeId>,
}

impl ReplayRun {
    /// The blocks of the run, ascending.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.len).map(|i| BlockId(self.first.0 + i))
    }
}

/// The last generation handed out; 0 is an empty, never-changed schedule.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// One phase's schedule at one home node.
#[derive(Debug, Clone, Default)]
pub struct PhaseSchedule {
    /// Recorded entries, by block; only `record_*` change them, each
    /// under a new generation.
    entries: IdMap<BlockId, ScheduleEntry>,
    generation: u64,
    /// The replay runs of one (generation, anticipate) pair.
    cached: Option<(u64, bool, Arc<[ReplayRun]>)>,
    /// Current phase instance, advanced by each `presend_and_arm`.
    pub cur_iter: u64,
    /// Total record events (diagnostics).
    pub records: u64,
}

impl PhaseSchedule {
    /// Recorded entries, by block.
    pub fn entries(&self) -> &IdMap<BlockId, ScheduleEntry> {
        &self.entries
    }

    /// Record a read request for `block` from `requester`.
    pub fn record_read(&mut self, block: BlockId, requester: NodeId) {
        let it = self.cur_iter;
        self.generation = GENERATION.fetch_add(1, Ordering::Relaxed) + 1;
        let e = self.entries.entry(block).or_default();
        e.stamp_first(it, false);
        e.readers.insert(requester);
        e.read_iter = it;
        if e.write_iter == it && e.writer.is_some() {
            e.conflict = true;
        }
        self.records += 1;
    }

    /// Record a write request for `block` from `requester`.
    pub fn record_write(&mut self, block: BlockId, requester: NodeId) {
        let it = self.cur_iter;
        self.generation = GENERATION.fetch_add(1, Ordering::Relaxed) + 1;
        let e = self.entries.entry(block).or_default();
        e.stamp_first(it, true);
        e.writer = Some(requester);
        e.write_iter = it;
        if e.read_iter == it && !e.readers.is_empty() {
            e.conflict = true;
        }
        self.records += 1;
    }

    /// Entries in ascending block order — the order the pre-send walk uses
    /// so that neighboring blocks coalesce (§3.4).
    pub fn sorted_entries(&self) -> Vec<(BlockId, ScheduleEntry)> {
        let mut v: Vec<_> = self.entries.iter().map(|(b, e)| (*b, *e)).collect();
        v.sort_unstable_by_key(|(b, _)| *b);
        v
    }

    /// The pre-send walk, run-length-encoded: entries in ascending block
    /// order, with contiguous blocks merged into one [`ReplayRun`] when
    /// they take the same action toward the same targets. Expanding the
    /// runs block-by-block reproduces exactly what walking
    /// [`PhaseSchedule::sorted_entries`] under
    /// [`ScheduleEntry::action_with`] would do: only the fields the walk
    /// consults are compared (readers for read runs, writer for write
    /// runs; conflict runs always merge since they carry no targets).
    /// Encodes afresh on every call; the pre-send takes [`Self::runs`].
    pub fn replay(&self, anticipate: bool) -> Vec<ReplayRun> {
        let mut keys: Vec<BlockId> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        let mut runs: Vec<ReplayRun> = Vec::new();
        for b in keys {
            let e = &self.entries[&b];
            let action = e.action_with(anticipate);
            let readers = if action == Action::Read { e.readers } else { NodeSet::EMPTY };
            let writer = if action == Action::Write { e.writer } else { None };
            if let Some(last) = runs.last_mut() {
                if last.first.0 + last.len == b.0
                    && last.action == action
                    && last.readers == readers
                    && last.writer == writer
                {
                    last.len += 1;
                    continue;
                }
            }
            runs.push(ReplayRun { first: b, len: 1, action, readers, writer });
        }
        runs
    }

    /// [`Self::replay`], encoded once per generation and `anticipate`.
    pub fn runs(&mut self, anticipate: bool) -> Arc<[ReplayRun]> {
        match &self.cached {
            Some((g, a, runs)) if (*g, *a) == (self.generation, anticipate) => Arc::clone(runs),
            _ => {
                let runs: Arc<[ReplayRun]> = self.replay(anticipate).into();
                self.cached = Some((self.generation, anticipate, Arc::clone(&runs)));
                runs
            }
        }
    }

    /// Number of conflict-marked entries.
    pub fn conflicts(&self) -> usize {
        self.entries.values().filter(|e| e.conflict).count()
    }
}

/// All phases' schedules at one home node.
#[derive(Debug, Default)]
pub struct ScheduleStore {
    phases: IdMap<PhaseId, PhaseSchedule>,
    /// Phases whose entries `clone_from` copied into this store, ever.
    pub(crate) entry_copies: u64,
}

impl Clone for ScheduleStore {
    fn clone(&self) -> ScheduleStore {
        ScheduleStore { phases: self.phases.clone(), entry_copies: 0 }
    }

    /// Copy `src` phase by phase into the tables this store already has,
    /// a phase's entries only when its generation differs — a
    /// steady-state checkpoint copies no entry, and a restore brings back
    /// the generation and its cached runs.
    fn clone_from(&mut self, src: &ScheduleStore) {
        self.phases.retain(|id, _| src.phases.contains_key(id));
        for (id, p) in &src.phases {
            let dst = self.phases.entry(*id).or_default();
            if dst.generation != p.generation {
                dst.entries.clone_from(&p.entries);
                dst.generation = p.generation;
                self.entry_copies += 1;
            }
            dst.cached.clone_from(&p.cached);
            (dst.cur_iter, dst.records) = (p.cur_iter, p.records);
        }
    }
}

impl ScheduleStore {
    /// Access (creating on demand) the schedule of `phase`.
    pub fn phase_mut(&mut self, phase: PhaseId) -> &mut PhaseSchedule {
        self.phases.entry(phase).or_default()
    }

    /// Read-only view, if the phase has ever recorded anything.
    pub fn phase(&self, phase: PhaseId) -> Option<&PhaseSchedule> {
        self.phases.get(&phase)
    }

    /// `phase`'s replay runs ([`PhaseSchedule::runs`]), if it exists.
    pub fn runs(&mut self, phase: PhaseId, anticipate: bool) -> Option<Arc<[ReplayRun]>> {
        self.phases.get_mut(&phase).map(|p| p.runs(anticipate))
    }

    /// Discard a phase's schedule so it is rebuilt from scratch — the
    /// paper's answer to communication patterns with many deletions
    /// (§3.3).
    pub fn flush(&mut self, phase: PhaseId) {
        self.phases.remove(&phase);
    }

    /// Phase ids with recorded schedules, ascending.
    pub fn phase_ids(&self) -> Vec<PhaseId> {
        let mut v: Vec<PhaseId> = self.phases.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::field_reassign_with_default)]

    use super::*;

    const B: BlockId = BlockId(42);

    #[test]
    fn read_entry_accumulates_readers() {
        let mut p = PhaseSchedule::default();
        p.cur_iter = 1;
        p.record_read(B, 3);
        p.record_read(B, 5);
        let e = p.entries[&B];
        assert_eq!(e.readers.len(), 2);
        assert_eq!(e.action(), Action::Read);
        assert!(!e.conflict);
    }

    #[test]
    fn write_entry() {
        let mut p = PhaseSchedule::default();
        p.cur_iter = 1;
        p.record_write(B, 7);
        assert_eq!(p.entries[&B].action(), Action::Write);
        assert_eq!(p.entries[&B].writer, Some(7));
    }

    #[test]
    fn same_iteration_read_write_conflicts() {
        let mut p = PhaseSchedule::default();
        p.cur_iter = 4;
        p.record_read(B, 1);
        p.record_write(B, 2);
        assert!(p.entries[&B].conflict);
        assert_eq!(p.entries[&B].action(), Action::Conflict);
    }

    #[test]
    fn cross_iteration_read_write_is_not_conflict() {
        let mut p = PhaseSchedule::default();
        p.cur_iter = 1;
        p.record_write(B, 2);
        p.cur_iter = 2;
        p.record_read(B, 1);
        let e = p.entries[&B];
        assert!(!e.conflict);
        // Read is more recent: pre-send forwards read-only copies.
        assert_eq!(e.action(), Action::Read);
    }

    #[test]
    fn most_recent_kind_wins() {
        let mut p = PhaseSchedule::default();
        p.cur_iter = 1;
        p.record_read(B, 1);
        p.cur_iter = 2;
        p.record_write(B, 3);
        assert_eq!(p.entries[&B].action(), Action::Write);
    }

    #[test]
    fn sorted_walk_order() {
        let mut p = PhaseSchedule::default();
        p.record_read(BlockId(9), 0);
        p.record_read(BlockId(2), 0);
        p.record_read(BlockId(5), 0);
        let order: Vec<u64> = p.sorted_entries().iter().map(|(b, _)| b.0).collect();
        assert_eq!(order, vec![2, 5, 9]);
    }

    #[test]
    fn flush_discards() {
        let mut s = ScheduleStore::default();
        s.phase_mut(1).record_read(B, 0);
        s.phase_mut(2).record_read(B, 0);
        s.flush(1);
        assert!(s.phase(1).is_none());
        assert_eq!(s.phase(2).unwrap().entries.len(), 1);
    }

    #[test]
    fn anticipation_uses_first_stable_state() {
        // write-then-read conflict: anticipation grants toward the writer.
        let mut p = PhaseSchedule::default();
        p.cur_iter = 1;
        p.record_write(B, 2);
        p.record_read(B, 1);
        let e = p.entries[&B];
        assert_eq!(e.action(), Action::Conflict, "default policy skips");
        assert_eq!(e.action_with(true), Action::Write, "first state was the writer's");

        // read-then-write conflict: anticipation forwards to the readers.
        let mut p = PhaseSchedule::default();
        p.cur_iter = 1;
        p.record_read(B, 1);
        p.record_write(B, 2);
        let e = p.entries[&B];
        assert_eq!(e.action_with(true), Action::Read);
    }

    #[test]
    fn anticipation_tracks_most_recent_instance() {
        // Iteration 1: read first; iteration 2: write first. The most
        // recent instance decides.
        let mut p = PhaseSchedule::default();
        p.cur_iter = 1;
        p.record_read(B, 1);
        p.record_write(B, 2);
        p.cur_iter = 2;
        p.record_write(B, 2);
        p.record_read(B, 1);
        assert_eq!(p.entries[&B].action_with(true), Action::Write);
    }

    /// Expand a replay into per-block (action, readers, writer) tuples,
    /// normalized the way the pre-send walk consumes them.
    fn expand(runs: &[ReplayRun]) -> Vec<(u64, Action, NodeSet, Option<NodeId>)> {
        runs.iter()
            .flat_map(|r| r.blocks().map(move |b| (b.0, r.action, r.readers, r.writer)))
            .collect()
    }

    /// The uncompacted reference: walk `sorted_entries` and normalize.
    fn reference(
        p: &PhaseSchedule,
        anticipate: bool,
    ) -> Vec<(u64, Action, NodeSet, Option<NodeId>)> {
        p.sorted_entries()
            .into_iter()
            .map(|(b, e)| {
                let action = e.action_with(anticipate);
                let readers = if action == Action::Read { e.readers } else { NodeSet::EMPTY };
                let writer = if action == Action::Write { e.writer } else { None };
                (b.0, action, readers, writer)
            })
            .collect()
    }

    #[test]
    fn replay_collapses_dense_read_sweep() {
        // The common case: one consumer read every block of a contiguous
        // slice — the whole slice is a single run.
        let mut p = PhaseSchedule::default();
        p.cur_iter = 1;
        for b in 100..200 {
            p.record_read(BlockId(b), 7);
        }
        let runs = p.replay(false);
        assert_eq!(runs.len(), 1);
        assert_eq!((runs[0].first, runs[0].len), (BlockId(100), 100));
        assert_eq!(runs[0].action, Action::Read);
        assert_eq!(expand(&runs), reference(&p, false));
    }

    #[test]
    fn replay_breaks_on_gap_target_and_action() {
        let mut p = PhaseSchedule::default();
        p.cur_iter = 1;
        p.record_read(BlockId(10), 1);
        p.record_read(BlockId(11), 1);
        p.record_read(BlockId(12), 2); // different reader set
        p.record_write(BlockId(13), 3); // different action
        p.record_read(BlockId(20), 1); // gap
        let runs = p.replay(false);
        assert_eq!(runs.len(), 4);
        assert_eq!(expand(&runs), reference(&p, false));
    }

    #[test]
    fn replay_merges_conflicts_regardless_of_targets() {
        // Conflict runs carry no targets, so differing readers/writers
        // must not break them.
        let mut p = PhaseSchedule::default();
        p.cur_iter = 1;
        for b in 0..10u64 {
            p.record_read(BlockId(b), (b % 3) as NodeId);
            p.record_write(BlockId(b), ((b + 1) % 3) as NodeId);
        }
        let runs = p.replay(false);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].action, Action::Conflict);
        assert_eq!(expand(&runs), reference(&p, false));
    }

    /// A store with phase 1 recorded, and an image that copied it.
    fn recorded_and_captured() -> (ScheduleStore, ScheduleStore) {
        let mut live = ScheduleStore::default();
        live.phase_mut(1).record_read(B, 3);
        let mut image = ScheduleStore::default();
        image.clone_from(&live);
        assert_eq!(image.entry_copies, 1);
        (live, image)
    }

    #[test]
    fn a_steady_state_instance_rebuilds_and_copies_nothing() {
        let (mut live, mut image) = recorded_and_captured();
        let runs = live.runs(1, false).unwrap();
        for _ in 0..3 {
            live.phase_mut(1).cur_iter += 1; // the instance's `arm`
            assert!(Arc::ptr_eq(&runs, &live.runs(1, false).unwrap()), "re-encoded");
            image.clone_from(&live);
        }
        assert_eq!(image.entry_copies, 1, "a steady-state checkpoint copied entries");
        assert_eq!(image.phase(1).unwrap().cur_iter, 3, "the instance counter still follows");
        // The other policy is its own key.
        assert_eq!(*live.runs(1, true).unwrap(), *runs);
        assert!(!Arc::ptr_eq(&runs, &live.runs(1, false).unwrap()));
    }

    #[test]
    fn one_record_forces_one_rebuild_and_one_copy() {
        let (mut live, mut image) = recorded_and_captured();
        let before = live.runs(1, false).unwrap();
        let generation = live.phase(1).unwrap().generation;
        live.phase_mut(1).record_write(BlockId(43), 2);
        assert_ne!(live.phase(1).unwrap().generation, generation);
        let after = live.runs(1, false).unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
        assert!(Arc::ptr_eq(&after, &live.runs(1, false).unwrap()), "rebuilt twice");
        image.clone_from(&live);
        image.clone_from(&live);
        assert_eq!(image.entry_copies, 2);
        assert_eq!(image.phase(1).unwrap().entries[&BlockId(43)].writer, Some(2));
    }

    #[test]
    fn a_flush_forces_one_rebuild_and_one_copy() {
        let (mut live, mut image) = recorded_and_captured();
        let before = live.runs(1, false).unwrap();
        live.flush(1); // what a degrade does, too
        assert!(live.runs(1, false).is_none(), "a flushed phase has no window");
        live.phase_mut(1).cur_iter += 1; // re-armed
        let after = live.runs(1, false).unwrap();
        assert!(after.is_empty() && !Arc::ptr_eq(&before, &after));
        assert!(Arc::ptr_eq(&after, &live.runs(1, false).unwrap()), "rebuilt twice");
        image.clone_from(&live);
        image.clone_from(&live);
        assert_eq!(image.entry_copies, 2);
        assert!(image.phase(1).unwrap().entries.is_empty(), "the image kept flushed entries");
    }

    #[test]
    fn a_restore_brings_the_generation_and_runs_back() {
        let (mut live, mut image) = recorded_and_captured();
        let runs = live.runs(1, false).unwrap();
        image.clone_from(&live); // the cut now carries the cached runs
        let cut = live.phase(1).unwrap().generation;
        live.phase_mut(1).record_read(BlockId(50), 4); // the destroyed instance
        live.clone_from(&image);
        assert_eq!(live.phase(1).unwrap().generation, cut);
        assert_eq!(live.phase(1).unwrap().entries.len(), 1);
        assert!(Arc::ptr_eq(&runs, &live.runs(1, false).unwrap()), "replayed from the cut");
    }

    #[test]
    fn incremental_growth() {
        // New requests in later iterations extend, never replace.
        let mut p = PhaseSchedule::default();
        p.cur_iter = 1;
        p.record_read(B, 1);
        p.cur_iter = 2;
        p.record_read(B, 2);
        p.record_read(BlockId(43), 4);
        assert_eq!(p.entries.len(), 2);
        assert_eq!(p.entries[&B].readers.len(), 2, "old readers retained (no deletions)");
    }
}
