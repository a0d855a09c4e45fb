//! The workspace's one lock-poisoning policy: ignore it.
//!
//! `std::sync` marks a mutex poisoned when a thread panics while holding
//! it. Every lock in this workspace is taken through the functions below,
//! which hand back the guard either way: a panicking node thread is already
//! isolated by `Machine::try_run` (first panic wins, the machine is marked
//! dead and refuses to run again), and no critical section here leaves its
//! data half-updated across a call that can panic, so a poisoned lock has
//! nothing more to say — and a second panic raised by the lock itself would
//! bury the first.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Duration;

/// Lock `m`, poisoned or not.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Lock `m` if nobody holds it; `None` only when somebody does.
pub fn try_lock<T: ?Sized>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Park on `cv`, giving up `g` meanwhile, for as long as `blocked` holds
/// of the guarded data (checked before the first park and after every
/// wake-up, spurious ones included).
pub fn wait_while<'a, T>(
    cv: &Condvar,
    g: MutexGuard<'a, T>,
    blocked: impl FnMut(&mut T) -> bool,
) -> MutexGuard<'a, T> {
    cv.wait_while(g, blocked).unwrap_or_else(PoisonError::into_inner)
}

/// [`wait_while`] for at most `timeout` in all: returns once `blocked` is
/// false or the time is up, whichever is first — the caller tells which by
/// looking at the data.
pub fn wait_timeout_while<'a, T>(
    cv: &Condvar,
    g: MutexGuard<'a, T>,
    timeout: Duration,
    blocked: impl FnMut(&mut T) -> bool,
) -> MutexGuard<'a, T> {
    cv.wait_timeout_while(g, timeout, blocked).unwrap_or_else(PoisonError::into_inner).0
}
