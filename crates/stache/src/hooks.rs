//! The protocol-extension interface.
//!
//! Blizzard's key feature is *user-level* coherence protocols: applications
//! (or, in this paper, the compiler) can customize the memory system. The
//! base Stache engine exposes two extension points, which are all the
//! predictive protocol needs:
//!
//! * every request arriving at a home node is offered to the extension
//!   *before* it is processed — this is where the predictive protocol
//!   records communication-schedule entries (§3.3); and
//! * [`crate::msg::UserMsg`] messages are routed to the extension
//!   unmodified — this is how the pre-send phase's pushes, data transfers
//!   and acknowledgements travel (§3.4).
//!
//! One hooks instance exists per node, mirroring how each node runs its own
//! protocol handlers. The callbacks run on the node's own thread, inside
//! the base engine's handlers.

use prescient_tempest::{BlockId, NodeId};

use crate::msg::{UserMsg, Wake};
use crate::node::{NodeShared, NodeState};

/// Per-node protocol extension.
pub trait Hooks: Send + Sync + 'static {
    /// A request (`GetShared` if `excl` is false, else `GetExcl`) from
    /// `requester` arrived at this home node for `block`. Return `true` if
    /// the extension recorded the request (adds the schedule-building
    /// handler cost to the eventual grant).
    fn on_home_request(
        &self,
        node: &NodeShared,
        block: BlockId,
        requester: NodeId,
        excl: bool,
    ) -> bool;

    /// An extension message arrived from `src`; `state` is the node's
    /// block store and directory, for handlers that install data. Return
    /// a [`Wake::User`] when the message answers something the node's own
    /// driver is waiting for (an acknowledgement).
    fn on_user(
        &self,
        node: &NodeShared,
        state: &mut NodeState,
        src: NodeId,
        msg: UserMsg,
    ) -> Option<Wake>;

    /// A pre-sent copy of `block` was torn down (recalled or invalidated)
    /// without ever being accessed — a *useless* pre-send. Called at the
    /// block's home from inside a handler; extensions use it to feed
    /// their schedule-health / degradation accounting. Default: no-op.
    fn on_presend_wasted(&self, node: &NodeShared, block: BlockId) {
        let _ = (node, block);
    }
}

/// The null extension: plain Stache, nothing recorded, user messages are a
/// protocol error.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHooks;

impl Hooks for NoHooks {
    fn on_home_request(&self, _: &NodeShared, _: BlockId, _: NodeId, _: bool) -> bool {
        false
    }

    fn on_user(
        &self,
        node: &NodeShared,
        _: &mut NodeState,
        src: NodeId,
        msg: UserMsg,
    ) -> Option<Wake> {
        panic!(
            "node {}: unexpected user message code {} from {} under plain Stache",
            node.me, msg.code, src
        );
    }
}
