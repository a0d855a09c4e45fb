//! The acknowledged window under the pre-send (pass 3) and the merge
//! exchange (§3.4): every node pushes, every receiver acknowledges, and
//! every node closes the window after the stability barrier. The sender
//! ([`AckedPushes`]) sends each message once, keeps it verbatim until its
//! ack arrives, and re-sends everything still unacked after a silent
//! `RetryConfig::timeout`; the receiver ([`Window::receive`]) makes that
//! idempotent. [`Window`] holds the rules, and nothing else states them:
//!
//! * the epoch advances only after the stability barrier
//!   ([`Window::close`]) — every node has closed the same number of
//!   windows at every barrier, so all agree on it;
//! * a push stamped with another epoch is dropped unacknowledged;
//! * a repeated push is re-acked with the `b` of its first ack;
//! * a checkpoint keeps the epoch, the next push id and the dedup map.

use std::ops::Range;
use std::sync::Mutex;

use prescient_stache::msg::{Msg, UserMsg, Wake};
use prescient_stache::node::{Node, NodeShared};
use prescient_tempest::sync::lock;
use prescient_tempest::{IdMap, NodeId, NodeStats};

/// The messages of one window that no ack has answered yet, by push id.
#[derive(Default)]
pub(crate) struct AckedPushes(IdMap<u64, (NodeId, UserMsg)>);

impl AckedPushes {
    /// Send `m` — push id `m.a` — to `target` and keep it until acked.
    pub(crate) fn send(&mut self, n: &NodeShared, target: NodeId, m: UserMsg) {
        n.send(target, Msg::User(m.clone()));
        self.0.insert(m.a, (target, m));
    }

    /// Serve the inbox until a `Wake::User` of code `ack` has named every
    /// push id, so that the window's effects are stable at the coming
    /// barrier ([`Self::step`] per wake). Returns the number of
    /// retransmitted messages.
    pub(crate) fn settle(
        mut self,
        node: &mut Node,
        what: std::fmt::Arguments<'_>,
        ack: u16,
        mut acked: impl FnMut(u64),
        mut silent: impl FnMut(&NodeShared, u64, u32),
    ) -> u64 {
        let mut retransmits = 0;
        node.settle(what, self.len(), |n, _, event| {
            retransmits += self.step(n, &event, ack, &mut acked, &mut silent);
            self.len()
        });
        retransmits
    }

    /// Messages not yet acknowledged.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Take one event of an ack wait. `acked` sees `b` of the first ack of
    /// each id — an ack for an id already acked (its push was duplicated
    /// in flight) is inert, and other wakes (a stale grant, a kick) carry
    /// nothing the window needs. On a silent round with messages unacked,
    /// `silent` sees `(unacked, round)` and they are all re-sent. Returns
    /// the number re-sent.
    pub(crate) fn step(
        &mut self,
        n: &NodeShared,
        event: &Result<Wake, u32>,
        ack: u16,
        acked: &mut impl FnMut(u64),
        silent: &mut impl FnMut(&NodeShared, u64, u32),
    ) -> u64 {
        match *event {
            Ok(Wake::User { code, a, b }) if code == ack => {
                if self.0.remove(&a).is_some() {
                    acked(b);
                }
                0
            }
            Err(round) if !self.0.is_empty() => {
                silent(n, self.0.len() as u64, round);
                self.0.values().for_each(|(t, m)| n.send(*t, Msg::User(m.clone())));
                self.0.len() as u64
            }
            _ => 0,
        }
    }
}

/// What a [`Window`] holds, and what a checkpoint of it copies.
#[derive(Default)]
pub(crate) struct Marks {
    /// The open window's epoch, stamped on every push as `UserMsg.b`.
    epoch: u64,
    /// Next push id (node-local; uniqueness per sender is enough).
    next_id: u64,
    /// `(sender, push id)` of every push received in the open window,
    /// with the `b` its ack carried.
    done: IdMap<(NodeId, u64), u64>,
}

impl Marks {
    /// Become a copy of `src`, keeping the map's buffer.
    fn copy_from(&mut self, src: &Marks) {
        self.epoch = src.epoch;
        self.next_id = src.next_id;
        self.done.clone_from(&src.done);
    }
}

/// One node's acknowledged window: the epoch, the next push id and the
/// pushes received since the window opened. Used by the node's thread —
/// the program draws ids and closes, the handlers receive — and by the
/// machine's driver between runs.
pub struct Window(Mutex<Marks>);

impl Default for Window {
    fn default() -> Window {
        Window(Mutex::new(Marks { epoch: 1, next_id: 1, done: IdMap::default() }))
    }
}

impl Window {
    /// The open window's epoch: 1 plus the windows closed so far.
    pub fn epoch(&self) -> u64 {
        lock(&self.0).epoch
    }

    /// Draw `k` consecutive push ids: the epoch to stamp them with and
    /// the ids.
    pub(crate) fn ids(&self, k: u64) -> (u64, Range<u64>) {
        let mut m = lock(&self.0);
        let first = m.next_id;
        m.next_id += k;
        (m.epoch, first..m.next_id)
    }

    /// The inbound side of a push from `src` — push id `msg.a`, epoch
    /// `msg.b` — by the rules above, answered by a user message of code
    /// `ack` that echoes the id. A straggler from a closed window (its
    /// sender passed its ack wait, so this is no first delivery) and a
    /// repeat (a fabric duplicate, or a retransmission after a lost ack)
    /// count as `presend_stale_in`; a fresh push is recorded by `record`
    /// and acked with the `b` it returns.
    pub(crate) fn receive(
        &self,
        n: &NodeShared,
        src: NodeId,
        msg: &UserMsg,
        ack: u16,
        record: impl FnOnce() -> u64,
    ) {
        let mut m = lock(&self.0);
        if msg.b != m.epoch {
            NodeStats::bump(&n.stats.presend_stale_in);
            return;
        }
        let b = match m.done.get(&(src, msg.a)).copied() {
            Some(b) => {
                NodeStats::bump(&n.stats.presend_stale_in);
                b
            }
            None => {
                let b = record();
                m.done.insert((src, msg.a), b);
                b
            }
        };
        drop(m);
        let mut reply = UserMsg::simple(ack, msg.a);
        reply.b = b;
        n.send(src, Msg::User(reply));
    }

    /// Close the window: forget its pushes and advance the epoch. Called
    /// once per window by every node, *after* the stability barrier — at
    /// that point every push of the window has been acknowledged, so
    /// anything still carrying the old epoch is a duplicate.
    pub fn close(&self) {
        let mut m = lock(&self.0);
        m.done.clear();
        m.epoch += 1;
    }

    /// Copy the window into `ckpt`, keeping its buffer.
    pub(crate) fn checkpoint_into(&self, ckpt: &mut Marks) {
        ckpt.copy_from(&lock(&self.0));
    }

    /// Roll the window back to `ckpt`. Callable only while the machine is
    /// quiescent: the epoch rewinds together with every peer's, so a
    /// replayed window re-stamps the same epoch and re-issues the same
    /// push ids.
    pub(crate) fn restore(&self, ckpt: &Marks) {
        lock(&self.0).copy_from(ckpt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a restore rewinds, in a comparable order.
    fn view(w: &Window) -> String {
        let m = lock(&w.0);
        let mut done: Vec<_> = m.done.iter().collect();
        done.sort_unstable();
        format!("{} {} {done:?}", m.epoch, m.next_id)
    }

    #[test]
    fn close_forgets_the_pushes_and_advances_the_epoch() {
        let w = Window::default();
        assert_eq!(w.epoch(), 1);
        lock(&w.0).done.insert((3, 11), 0);
        w.close();
        assert_eq!(w.epoch(), 2);
        assert!(lock(&w.0).done.is_empty());
        assert_eq!(w.ids(2), (2, 1..3), "push ids run on across windows");
    }

    #[test]
    fn restored_window_reissues_the_same_push_ids() {
        // A rollback must make a replayed window indistinguishable from
        // the original.
        let w = Window::default();
        let mut ckpt = Marks::default();
        w.checkpoint_into(&mut ckpt);
        let first: Vec<_> = (1..4).map(|k| w.ids(k)).collect();
        w.close();
        w.restore(&ckpt);
        let replay: Vec<_> = (1..4).map(|k| w.ids(k)).collect();
        assert_eq!(first, replay);
    }

    #[test]
    fn reused_checkpoint_buffer_leaks_nothing() {
        let (big, small) = (Window::default(), Window::default());
        big.close();
        big.close();
        for id in 0..5 {
            lock(&big.0).done.insert((1, id), id);
        }
        big.ids(40);
        lock(&small.0).done.insert((2, 9), 0);

        let (mut reused, mut fresh) = (Marks::default(), Marks::default());
        big.checkpoint_into(&mut reused);
        small.checkpoint_into(&mut reused);
        small.checkpoint_into(&mut fresh);
        let (from_reused, from_fresh) = (Window::default(), Window::default());
        from_reused.restore(&reused);
        from_fresh.restore(&fresh);
        assert_eq!(view(&from_reused), view(&from_fresh));
        assert_eq!(view(&from_fresh), view(&small));
    }
}
