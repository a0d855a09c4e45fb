//! The acknowledged push under the pre-send window (pass 3) and the merge
//! exchange. The sender ([`AckedPushes`]) sends each message once, keeps
//! it verbatim until its ack arrives, and re-sends everything still
//! unacked after a silent `RetryConfig::timeout`; the receiver
//! ([`receive`]) makes that idempotent.

use std::collections::HashMap;
use std::sync::Mutex;

use prescient_stache::msg::{Msg, UserMsg, Wake};
use prescient_stache::node::{Node, NodeShared};
use prescient_tempest::sync::lock;
use prescient_tempest::{NodeId, NodeStats};

/// The messages of one window that no ack has answered yet, by push id.
#[derive(Default)]
pub(crate) struct AckedPushes(HashMap<u64, (NodeId, UserMsg)>);

impl AckedPushes {
    /// Send `m` — push id `m.a` — to `target` and keep it until acked.
    pub(crate) fn send(&mut self, n: &NodeShared, target: NodeId, m: UserMsg) {
        n.send(target, Msg::User(m.clone()));
        self.0.insert(m.a, (target, m));
    }

    /// Serve the inbox until a `Wake::User` of code `ack` has named every
    /// push id, so that the window's effects are stable at the coming
    /// barrier. `acked` sees `b` of the first ack of each id — an ack for
    /// an id already acked (its push was duplicated in flight) is inert,
    /// and other wakes (a stale grant, a kick) carry nothing the window
    /// needs. `silent` sees `(unacked, round)` before each retransmission.
    /// Returns the number of retransmitted messages.
    pub(crate) fn settle(
        mut self,
        node: &mut Node,
        what: std::fmt::Arguments<'_>,
        ack: u16,
        mut acked: impl FnMut(u64),
        mut silent: impl FnMut(&NodeShared, u64, u32),
    ) -> u64 {
        let mut retransmits = 0;
        node.settle(what, self.0.len(), |n, event| {
            match event {
                Ok(Wake::User { code, a, b }) if code == ack => {
                    if self.0.remove(&a).is_some() {
                        acked(b);
                    }
                }
                Ok(_) => {}
                Err(round) => {
                    silent(n, self.0.len() as u64, round);
                    self.0.values().for_each(|(t, m)| n.send(*t, Msg::User(m.clone())));
                    retransmits += self.0.len() as u64;
                }
            }
            self.0.len()
        });
        retransmits
    }
}

/// `(sender, push id)` of every push a node recorded in the current
/// window, with the `b` its ack carried. Cleared when the epoch advances.
pub(crate) type DonePushes = HashMap<(NodeId, u64), u64>;

/// The inbound side of an acknowledged push from `src` — push id `msg.a`,
/// window epoch `msg.b` — answered by a user message of code `ack` that
/// echoes the id:
///
/// * a push stamped with another epoch than `epoch` is a straggler from a
///   completed window (its sender passed its ack wait, so this is no
///   first delivery): dropped, unacked;
/// * a repeat within the window (a fabric duplicate, or a retransmission
///   because the ack was lost) is re-acked with the `b` of its first ack
///   and not recorded again;
/// * a fresh push is recorded by `record`, under the lock of the state
///   holding the window's [`DonePushes`], and acked with the `b` it
///   returns.
///
/// Stragglers and repeats count as `presend_stale_in`.
pub(crate) fn receive<S: AsMut<DonePushes>>(
    n: &NodeShared,
    src: NodeId,
    msg: &UserMsg,
    epoch: u64,
    ack: u16,
    state: &Mutex<S>,
    record: impl FnOnce(&mut S) -> u64,
) {
    if msg.b != epoch {
        NodeStats::bump(&n.stats.presend_stale_in);
        return;
    }
    let mut st = lock(state);
    let b = match st.as_mut().get(&(src, msg.a)).copied() {
        Some(b) => {
            NodeStats::bump(&n.stats.presend_stale_in);
            b
        }
        None => {
            let b = record(&mut st);
            st.as_mut().insert((src, msg.a), b);
            b
        }
    };
    drop(st);
    let mut m = UserMsg::simple(ack, msg.a);
    m.b = b;
    n.send(src, Msg::User(m));
}
