//! A virtual-time-aware global barrier.
//!
//! Parallel phases are separated by barriers (§1). Besides rendezvousing
//! the nodes' threads, the barrier aggregates each participant's virtual
//! clock: everyone leaves at `max(arrival times) + barrier cost`, and each
//! node learns its own stall gap, which the runtime books as
//! synchronization time. This is how the reproduction observes the paper's
//! §5.1 effect — pre-sending evens out remote-wait imbalance and thereby
//! shrinks synchronization time on lightly loaded processors.
//!
//! Barrier entry is a protocol *quiescence point*: with the fabric's
//! egress aggregation (see [`crate::fabric`]), a participant must flush
//! its node's egress buffers before arriving — a thread never blocks while
//! its node's egress is dirty. The barrier itself is fabric-agnostic (it
//! rendezvouses any set of threads), so the node layer owns that flush,
//! not this type.
//!
//! Two ways to take part: [`VBarrier::wait`] parks the caller on a
//! condition variable until release; [`VBarrier::arrive`] +
//! [`VBarrier::poll`] never block, for a participant that has other work
//! while it waits — a node's thread keeps serving its inbox, and whoever
//! arrives last wakes the others through their inboxes (a release signals
//! the condition variable only if a `wait` caller is parked on it).

use std::sync::{Condvar, Mutex};

use crate::sync::{lock, wait_while};

/// The sentinel a poisoned barrier throws: when one participant dies
/// (panic, injected crash without a checkpoint, watchdog abort), every
/// thread blocked at — or later arriving at — a poisoned [`VBarrier`]
/// unwinds with this payload instead of waiting forever for a party that
/// will never come. The machine runner downcasts it to keep teardown
/// diagnostics quiet (the *first* panic is the story; `Aborted` unwinds
/// are collateral).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aborted;

/// Result of one barrier episode for one participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierOut {
    /// Maximum arrival virtual time over all participants.
    pub max_arrival_ns: u64,
    /// This participant's stall: `max_arrival_ns - own arrival`.
    pub stall_ns: u64,
}

/// A not-yet-released arrival (see [`VBarrier::arrive`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    generation: u64,
    arrival_ns: u64,
}

struct Inner {
    arrived: usize,
    generation: u64,
    cur_max: u64,
    published_max: u64,
    poisoned: bool,
    /// Parked [`VBarrier::wait`] callers; a release signals only if any.
    sleepers: usize,
}

/// A reusable barrier for a fixed set of participants.
pub struct VBarrier {
    n: usize,
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl VBarrier {
    /// Create a barrier for `n` participants.
    pub fn new(n: usize) -> VBarrier {
        assert!(n >= 1);
        VBarrier {
            n,
            inner: Mutex::new(Inner {
                arrived: 0,
                generation: 0,
                cur_max: 0,
                published_max: 0,
                poisoned: false,
                sleepers: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Number of participants.
    pub fn parties(&self) -> usize {
        self.n
    }

    /// Arrive with one's current virtual time without blocking: `Ok` if
    /// this arrival was the last and released the episode, else the
    /// [`Ticket`] to [`VBarrier::poll`] with.
    ///
    /// # Panics
    ///
    /// Unwinds with the [`Aborted`] sentinel if the barrier is poisoned.
    pub fn arrive(&self, arrival_ns: u64) -> Result<BarrierOut, Ticket> {
        let mut g = lock(&self.inner);
        if g.poisoned {
            drop(g);
            std::panic::panic_any(Aborted);
        }
        g.cur_max = g.cur_max.max(arrival_ns);
        g.arrived += 1;
        if g.arrived < self.n {
            return Err(Ticket { generation: g.generation, arrival_ns });
        }
        let max = g.cur_max;
        g.published_max = max;
        g.cur_max = 0;
        g.arrived = 0;
        g.generation += 1;
        if g.sleepers > 0 {
            self.cv.notify_all();
        }
        Ok(BarrierOut { max_arrival_ns: max, stall_ns: max - arrival_ns })
    }

    /// Has the episode `ticket` arrived in been released? Never blocks.
    /// (The published maximum cannot be overwritten before every holder
    /// of a ticket has seen it: the next episode needs them all to
    /// arrive again.)
    ///
    /// # Panics
    ///
    /// Unwinds with [`Aborted`] if the barrier was poisoned before the
    /// release — a participant died and the rendezvous can never complete.
    pub fn poll(&self, ticket: &Ticket) -> Option<BarrierOut> {
        let g = lock(&self.inner);
        if g.generation != ticket.generation {
            let max = g.published_max;
            return Some(BarrierOut { max_arrival_ns: max, stall_ns: max - ticket.arrival_ns });
        }
        if g.poisoned {
            drop(g);
            std::panic::panic_any(Aborted);
        }
        None
    }

    /// Arrive with one's current virtual time; blocks until all `n`
    /// participants have arrived.
    ///
    /// # Panics
    ///
    /// Unwinds with the [`Aborted`] sentinel if the barrier is (or
    /// becomes) poisoned — a participant died and the rendezvous can never
    /// complete.
    pub fn wait(&self, arrival_ns: u64) -> BarrierOut {
        let ticket = match self.arrive(arrival_ns) {
            Ok(out) => return out,
            Err(t) => t,
        };
        let mut g = lock(&self.inner);
        g.sleepers += 1;
        g = wait_while(&self.cv, g, |g| g.generation == ticket.generation && !g.poisoned);
        g.sleepers -= 1;
        drop(g);
        self.poll(&ticket).expect("released or poisoned")
    }

    /// Mark the barrier unusable and wake every blocked participant: each
    /// unwinds with [`Aborted`], as does any later arrival. Called when a
    /// participant dies (panic isolation, watchdog abort) so the survivors
    /// tear down instead of hanging.
    pub fn poison(&self) {
        let mut g = lock(&self.inner);
        g.poisoned = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_party() {
        let b = VBarrier::new(1);
        let out = b.wait(42);
        assert_eq!(out.max_arrival_ns, 42);
        assert_eq!(out.stall_ns, 0);
    }

    #[test]
    fn aggregates_max_across_threads() {
        let b = Arc::new(VBarrier::new(4));
        let mut handles = vec![];
        for i in 0..4u64 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || b.wait(i * 10)));
        }
        let outs: Vec<BarrierOut> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for out in &outs {
            assert_eq!(out.max_arrival_ns, 30);
        }
        let mut stalls: Vec<u64> = outs.iter().map(|o| o.stall_ns).collect();
        stalls.sort_unstable();
        assert_eq!(stalls, vec![0, 10, 20, 30]);
    }

    #[test]
    fn poison_wakes_blocked_waiters_with_aborted() {
        let b = Arc::new(VBarrier::new(2));
        let b2 = Arc::clone(&b);
        let waiter = std::thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b2.wait(0)))
        });
        // Give the waiter time to block, then poison instead of arriving.
        std::thread::sleep(std::time::Duration::from_millis(20));
        b.poison();
        let err = waiter.join().unwrap().expect_err("waiter must unwind");
        assert!(err.downcast_ref::<Aborted>().is_some(), "payload must be the Aborted sentinel");
        // Later arrivals abort immediately too.
        let late = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.wait(0)));
        assert!(late.is_err());
    }

    #[test]
    fn arrive_and_poll_never_block() {
        let b = VBarrier::new(2);
        let ticket = b.arrive(5).expect_err("first of two cannot release");
        assert_eq!(b.poll(&ticket), None);
        let last = b.arrive(9).expect("second of two releases");
        assert_eq!(last, BarrierOut { max_arrival_ns: 9, stall_ns: 0 });
        assert_eq!(b.poll(&ticket), Some(BarrierOut { max_arrival_ns: 9, stall_ns: 4 }));
        // Poison after the release does not take the release back.
        b.poison();
        assert!(b.poll(&ticket).is_some());
        let late = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.arrive(0)));
        assert!(late.is_err());
    }

    #[test]
    fn a_non_blocking_release_wakes_a_parked_waiter() {
        let b = VBarrier::new(2);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| b.wait(3));
            while lock(&b.inner).sleepers == 0 {
                std::thread::yield_now();
            }
            assert_eq!(b.arrive(8), Ok(BarrierOut { max_arrival_ns: 8, stall_ns: 0 }));
            assert_eq!(waiter.join().unwrap(), BarrierOut { max_arrival_ns: 8, stall_ns: 5 });
        });
        assert_eq!(lock(&b.inner).sleepers, 0);
    }

    #[test]
    fn reusable_across_generations() {
        let b = Arc::new(VBarrier::new(2));
        let b2 = Arc::clone(&b);
        let t = std::thread::spawn(move || {
            let mut outs = vec![];
            for round in 0..10u64 {
                outs.push(b2.wait(round * 2));
            }
            outs
        });
        let mut outs = vec![];
        for round in 0..10u64 {
            outs.push(b.wait(round * 3));
        }
        let theirs = t.join().unwrap();
        for round in 0..10usize {
            let expect = (round as u64 * 2).max(round as u64 * 3);
            assert_eq!(outs[round].max_arrival_ns, expect);
            assert_eq!(theirs[round].max_arrival_ns, expect);
        }
    }
}
