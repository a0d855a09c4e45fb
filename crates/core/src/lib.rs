//! # prescient-core
//!
//! The paper's primary contribution: a **predictive cache-coherence
//! protocol** that optimizes *repetitive* shared-memory communication in
//! iterative parallel applications (§3).
//!
//! The protocol augments Stache in two parts:
//!
//! 1. **Schedule building** (§3.3, [`schedule`]): while a compiler-marked
//!    parallel phase executes, every read/write request arriving at a home
//!    node is recorded into that phase's *communication schedule* — which
//!    blocks were requested, by whom, and how. Blocks both read and written
//!    within one phase instance are marked *conflict*. Schedules grow
//!    incrementally across iterations (new faults add entries); deletions
//!    are not tracked, so a schedule can be flushed and rebuilt when the
//!    pattern shrinks.
//! 2. **Pre-sending** (§3.4, [`presend`]): at the next instance of the
//!    phase, each home node walks its part of the schedule and transfers
//!    data *before* the computation faults on it: read-marked blocks are
//!    recalled from any writer and read-only copies are forwarded to all
//!    recorded readers; write-marked blocks are torn down and a writable
//!    copy is forwarded to the recorded writer; conflict blocks get no
//!    action. Neighboring blocks with identical targets are *coalesced*
//!    into bulk messages to amortize message startup. A global barrier
//!    after the transfers leaves all block states stable before compute
//!    resumes.
//!
//! The protocol is driven by two compiler-inserted directives
//! ([`presend::presend`] + [`Predictive::arm`] / [`Predictive::end_phase`]),
//! placed by the analysis in `prescient-cstar` (§4); the runtime wraps them
//! with barriers.
//!
//! [`manual`] additionally exposes hand-built schedules, used to model the
//! paper's hand-optimized SPMD baseline (an application-specific
//! write-update protocol in the style of Falsafi et al. \[5\]).
//!
//! [`commute`] adds the privatize-and-merge extension of a Stache machine
//! for the conflict phases §3.4 leaves without action: when the `cstar`
//! commutativity analysis proves a phase's aggregate updates mergeable (a
//! `CommutativeMerge` directive), each node privatizes its updates into a
//! delta buffer and the buffers are exchanged in bulk at the phase
//! barrier, replacing per-block ownership migration entirely.
//!
//! The pre-send and the merge exchange are both *acknowledged windows*:
//! push, acknowledge, close after the stability barrier. [`Window`] keeps
//! one node's epoch, push ids and received pushes for either.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acked;
pub mod codes;
pub mod commute;
pub mod manual;
pub mod predictive;
pub mod presend;
pub mod schedule;
pub mod tap;

pub use acked::Window;
pub use commute::{Commute, CommuteCheckpoint, MergeReport};
pub use predictive::{PhaseHealth, PredCheckpoint, Predictive, PredictiveConfig};
pub use presend::PresendReport;
pub use schedule::{Action, PhaseId, PhaseSchedule, ReplayRun, ScheduleEntry, ScheduleStore};
pub use tap::{AccessTap, TapEvent};
