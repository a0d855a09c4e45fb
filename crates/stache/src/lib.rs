//! # prescient-stache
//!
//! **Stache**, Blizzard's default memory-coherence protocol (§3.1 of the
//! paper): transparent, sequentially-consistent shared memory implemented
//! with a directory-based write-invalidate protocol at cache-block
//! granularity.
//!
//! Every shared block is mapped to a *home* node which holds its backing
//! memory and its directory entry. A read access to an `Invalid` block
//! faults into the local protocol handler, which requests a read-only copy
//! from the home; a write access to an `Invalid` or `ReadOnly` block
//! requests a writable copy, and the home first invalidates all outstanding
//! copies to preserve sequential consistency. A data transfer between a
//! producer and a consumer whose home is a third node therefore takes the
//! infamous four messages (§3.2) — the inefficiency the predictive protocol
//! in `prescient-core` attacks.
//!
//! The crate is organized as a small protocol-construction kit (in the
//! spirit of the Teapot protocol language the original authors used):
//!
//! * [`msg`] — the protocol message vocabulary, including an
//!   active-message-style [`msg::UserMsg`] escape hatch through which
//!   protocol *extensions* (the predictive protocol, the write-update
//!   baseline) define their own vocabulary without this crate knowing it;
//! * [`dir`] — home-node directory entries, including the transient "busy"
//!   states and waiter queues that make the handlers non-blocking;
//! * [`node`] — one node as its one thread holds it: the lock-free shared
//!   part, the owned state (block store, directory), the inbox, and the
//!   loops that serve it (poll, wait, barrier);
//! * [`table`] — the protocol itself: one transition relation for the home
//!   and one for the requester, run by a small interpreter, plus the legal
//!   tags of each stable state the checker reads;
//! * [`engine`] — message dispatch into the table plus the fault path
//!   ([`engine::fetch`], and its wave form for a home's own tear-downs,
//!   [`engine::fetch_all`]);
//! * [`hooks`] — the extension interface: recording of home-node requests
//!   and handling of user messages;
//! * [`testkit`] — the protocol-level test harness: node threads running
//!   scripts and serving until every script is done.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod dir;
pub mod engine;
pub mod hooks;
pub mod msg;
pub mod node;
pub mod table;
pub mod testkit;

pub use check::check_coherence;
pub use dir::{DirCheckpoint, DirEntry, DirState, Directory};
pub use engine::{fetch, fetch_all, Engine, GrantInfo};
pub use hooks::{Hooks, NoHooks};
pub use msg::{Msg, UserMsg, Wake};
pub use node::{Node, NodeCheckpoint, NodeShared, NodeState, RetryConfig};
