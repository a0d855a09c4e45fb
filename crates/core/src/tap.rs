//! A recording tap on the predictive protocol's home-request stream — the
//! dynamic half of the schedule oracle.
//!
//! The oracle (in `prescient-cstar`) needs to know which blocks each
//! parallel call *actually* communicated, independent of whether the
//! protocol was armed or degraded at the time. The tap therefore hangs off
//! [`crate::Predictive::set_tap`] and logs **every** request offered to
//! [`on_home_request`](prescient_stache::Hooks::on_home_request), labeled
//! with the parallel call the interpreter is currently executing.
//!
//! The label is a plain atomic: the interpreter's per-call barriers
//! guarantee every node has set (or cleared) the same label before any
//! request of the next call can arrive, so no lock is needed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use prescient_tempest::sync::lock;
use prescient_tempest::{BlockId, NodeId};

/// Sentinel label meaning "no parallel call in progress".
const NO_CALL: u64 = u64::MAX;

/// One observed home-node request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapEvent {
    /// Call-site id the interpreter had labeled, if any.
    pub call: Option<u64>,
    /// The requested block.
    pub block: BlockId,
    /// Requesting node.
    pub requester: NodeId,
    /// `true` for an exclusive (write) request.
    pub excl: bool,
}

/// Shared event recorder; one per machine, installed into every node's
/// predictive-protocol hooks.
#[derive(Debug, Default)]
pub struct AccessTap {
    label: AtomicU64,
    events: Mutex<Vec<TapEvent>>,
}

impl AccessTap {
    /// A fresh tap with no call in progress.
    pub fn new() -> AccessTap {
        AccessTap { label: AtomicU64::new(NO_CALL), events: Mutex::new(Vec::new()) }
    }

    /// Label subsequent events with parallel call `id`.
    pub fn set_call(&self, id: u64) {
        self.label.store(id, Ordering::SeqCst);
    }

    /// Clear the call label (requests outside any parallel call).
    pub fn clear_call(&self) {
        self.label.store(NO_CALL, Ordering::SeqCst);
    }

    /// Record one home-node request under the current label.
    pub fn record(&self, block: BlockId, requester: NodeId, excl: bool) {
        let l = self.label.load(Ordering::SeqCst);
        let call = if l == NO_CALL { None } else { Some(l) };
        lock(&self.events).push(TapEvent { call, block, requester, excl });
    }

    /// Snapshot the recorded events.
    pub fn events(&self) -> Vec<TapEvent> {
        lock(&self.events).clone()
    }

    /// Drain the recorded events.
    pub fn take(&self) -> Vec<TapEvent> {
        std::mem::take(&mut *lock(&self.events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_partition_events() {
        let tap = AccessTap::new();
        tap.record(BlockId(1), 2, false);
        tap.set_call(7);
        tap.record(BlockId(3), 0, true);
        tap.clear_call();
        tap.record(BlockId(5), 1, false);
        let ev = tap.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].call, None);
        assert_eq!(ev[1], TapEvent { call: Some(7), block: BlockId(3), requester: 0, excl: true });
        assert_eq!(ev[2].call, None);
        assert_eq!(tap.take().len(), 3);
        assert!(tap.events().is_empty());
    }
}
