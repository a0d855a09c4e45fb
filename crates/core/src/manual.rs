//! Hand-built communication schedules.
//!
//! The paper compares its automatic approach against *hand-optimized SPMD
//! codes using application-specific protocols* (Falsafi et al. \[5\]) — a
//! programmer who knows the communication pattern writes a custom
//! write-update protocol that pushes data straight to its consumers.
//!
//! Our model of that baseline reuses the pre-send machinery with a schedule
//! the *application* installs directly, instead of one recorded from faults:
//! the same data movement a hand-written update protocol performs, without
//! recording overhead. `prescient-apps` uses this for the SPMD Barnes
//! variant of Figure 6.

use prescient_tempest::sync::lock;
use prescient_tempest::{BlockId, NodeId, NodeSet};

use crate::predictive::Predictive;
use crate::schedule::PhaseId;

/// One hand-specified schedule entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManualEntry {
    /// Forward read-only copies to these nodes each iteration.
    Readers(NodeSet),
    /// Forward the writable copy to this node each iteration.
    Writer(NodeId),
}

impl Predictive {
    /// Install hand-built entries into `phase`'s schedule at this (home)
    /// node. Entries merge with whatever is already recorded.
    pub fn install_manual(
        &self,
        phase: PhaseId,
        entries: impl IntoIterator<Item = (BlockId, ManualEntry)>,
    ) {
        let mut st = lock(&self.state);
        let sched = st.store.phase_mut(phase);
        for (block, entry) in entries {
            match entry {
                ManualEntry::Readers(set) => {
                    for r in set.iter() {
                        sched.record_read(block, r);
                    }
                }
                ManualEntry::Writer(w) => sched.record_write(block, w),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictive::PredictiveConfig;
    use crate::schedule::Action;

    #[test]
    fn manual_entries_install() {
        let p = Predictive::new(PredictiveConfig::default());
        let readers: NodeSet = [1u16, 2].into_iter().collect();
        p.install_manual(
            7,
            vec![
                (BlockId(10), ManualEntry::Readers(readers)),
                (BlockId(11), ManualEntry::Writer(3)),
            ],
        );
        assert_eq!(p.entries(7), 2);
        let st = lock(&p.state);
        let sched = st.store.phase(7).unwrap();
        assert_eq!(sched.entries()[&BlockId(10)].action(), Action::Read);
        assert_eq!(sched.entries()[&BlockId(10)].readers, readers);
        assert_eq!(sched.entries()[&BlockId(11)].action(), Action::Write);
        assert_eq!(sched.entries()[&BlockId(11)].writer, Some(3));
    }

    #[test]
    fn manual_merges_with_recorded() {
        let p = Predictive::new(PredictiveConfig::default());
        p.install_manual(1, vec![(BlockId(5), ManualEntry::Readers(NodeSet::single(1)))]);
        p.install_manual(1, vec![(BlockId(5), ManualEntry::Readers(NodeSet::single(2)))]);
        let st = lock(&p.state);
        assert_eq!(st.store.phase(1).unwrap().entries()[&BlockId(5)].readers.len(), 2);
    }
}
