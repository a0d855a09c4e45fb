//! # prescient-runtime
//!
//! The data-parallel runtime beneath C\*\*-style programs: it assembles an
//! emulated multi-node machine over the Tempest substrate, runs SPMD
//! programs against the Stache/predictive coherence protocols, and
//! exposes the abstractions the compiler targets:
//!
//! * [`Machine`] — builds the fabric, nodes (one thread each per run:
//!   program and protocol handlers take turns on it), and the chosen
//!   protocol; runs SPMD programs and collects the per-node
//!   execution-time breakdown of the paper's figures;
//! * [`NodeCtx`] — the per-node view inside a program: typed shared-memory
//!   access with fine-grain access-control checks and fault handling, a
//!   word at a time or a run at a time (one check per cache block),
//!   virtual-time charging, barriers, reductions, local allocation, and the
//!   two compiler directives `phase_begin` / `phase_end` that drive the
//!   predictive protocol;
//! * [`agg`] — distributed aggregates (1-D and 2-D arrays of primitives)
//!   with the block / row-block computation distributions of §4.1, by
//!   element and by contiguous run;
//! * [`env`](mod@env) — the `PRESCIENT_*` environment variables: one table, one
//!   reader, one error format;
//! * [`report`] — run reports mirroring the paper's stacked bars (remote
//!   data wait / predictive protocol / compute + synch);
//! * [`recovery`] — crash faults, barrier-consistent checkpoint/rollback,
//!   and the liveness watchdog that converts hangs into structured
//!   [`MachineError`]s (DESIGN.md §12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod config;
pub mod ctx;
pub mod env;
pub mod machine;
pub mod recovery;
pub mod report;

pub use agg::{Agg1D, Agg2D, Dist1D, Dist2D};
pub use config::{FabricKind, MachineConfig, PlacementSpec, ProtocolKind};
pub use ctx::{NodeCtx, PhaseOutcome};
pub use machine::Machine;
pub use recovery::{
    Checkpoint, CheckpointStore, FailureKind, MachineError, NodeErrorState, RecoveryCtl,
    WatchdogConfig,
};
pub use report::{NodeReport, PhaseGroup, RunReport, RunTimeline};
