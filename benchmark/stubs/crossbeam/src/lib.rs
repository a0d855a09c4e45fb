//! Offline stand-in for `crossbeam`: the unbounded MPMC channel surface
//! the repo uses, as a `Mutex<VecDeque>` plus a `Condvar`. Plain and never
//! tuned — it is the same code on both sides of every benchmark
//! comparison.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            // Every update leaves the queue and the counts valid, so a
            // panic elsewhere cannot leave them half-written.
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1 }),
            ready: Condvar::new(),
        });
        (Sender(chan.clone()), Receiver(chan))
    }

    /// The sending half; cloneable.
    pub struct Sender<T>(Arc<Chan<T>>);

    /// The receiving half; cloneable, and shareable by reference.
    pub struct Receiver<T>(Arc<Chan<T>>);

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.0.lock();
            if st.receivers == 0 {
                return Err(SendError(msg));
            }
            st.queue.push_back(msg);
            drop(st);
            self.0.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.0.lock();
            match st.queue.pop_front() {
                Some(m) => Ok(m),
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.lock();
            loop {
                if let Some(m) = st.queue.pop_front() {
                    return Ok(m);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.0.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.0.lock();
            loop {
                if let Some(m) = st.queue.pop_front() {
                    return Ok(m);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                st = self
                    .0
                    .ready
                    .wait_timeout(st, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }

        pub fn is_empty(&self) -> bool {
            self.0.lock().queue.is_empty()
        }

        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.senders -= 1;
            let last = st.senders == 0;
            drop(st);
            if last {
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                // As crossbeam does: messages nobody can receive are dropped
                // now, not when the last sender goes.
                let dead = std::mem::take(&mut st.queue);
                drop(st);
                drop(dead);
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }
}
