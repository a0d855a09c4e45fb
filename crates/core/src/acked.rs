//! The acknowledged push under the pre-send window (pass 3) and the merge
//! exchange: each message goes out once, is kept verbatim until its ack
//! arrives, and everything still unacked is re-sent after a silent
//! `RetryConfig::timeout`.

use std::collections::HashMap;

use prescient_stache::msg::{Msg, UserMsg, Wake};
use prescient_stache::node::{Node, NodeShared};
use prescient_tempest::NodeId;

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
