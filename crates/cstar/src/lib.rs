//! # prescient-cstar
//!
//! A miniature **C\*\*** — the large-grain data-parallel language of Larus,
//! Richards & Viswanathan — together with the paper's compiler analysis
//! (§4) and a DSM-backed interpreter.
//!
//! The language core (Figures 1–3 of the paper):
//!
//! * *Aggregates*: global 1-D/2-D collections of `float`/`int` elements
//!   (`aggregate Grid[128][128] of float;`);
//! * *parallel functions*: invoked once per element of their `parallel`
//!   aggregate argument; the pseudo-variables `#0`/`#1` name the element's
//!   position, so `g[#0-1][#1]` is a neighbor access and `d[nbr[#0]]` an
//!   indirection (unstructured) access;
//! * a sequential `main` with counted loops and parallel-function calls.
//!
//! The compiler pipeline:
//!
//! 1. [`lexer`]/[`parser`] → AST ([`ast`]);
//! 2. [`sema`] — per parallel function, a context-insensitive summary of
//!    aggregate accesses, each classified `Read`/`Write` ×
//!    `Home`/`NonHome` (§4.2);
//! 3. [`cfg`](mod@cfg) — the sequential control-flow graph of `main`, annotated with
//!    those summaries;
//! 4. [`dataflow`] — an iterative bit-vector framework computing *reaching
//!    unstructured accesses*: forward, any-path, with the three transfer
//!    functions of §4.3 (owner writes kill; unstructured writes kill and
//!    gen; unstructured reads gen);
//! 5. [`directives`] — placement of `phase_begin`/`phase_end` directives at
//!    parallel calls that need communication schedules, with the
//!    coalescing/hoisting optimization for home-only neighbors and loops;
//! 6. [`interp`] — execution of the compiled program on a
//!    `prescient-runtime` machine, where the placed directives drive the
//!    predictive protocol, through the one evaluator [`eval`] that the
//!    merge oracle ([`commute`]) runs too.
//!
//! [`compile::compile`] runs stages 1–5; [`interp::run_program`] runs the
//! result.
//!
//! On top of the pipeline sit the static-analysis tools (the `cstar-lint`
//! engine):
//!
//! * [`diag`] — span-carrying diagnostics with stable `E0xx`/`W0xx` codes,
//!   caret-style text rendering, and a JSON form;
//! * [`lint`] — the W001–W005 lint suite over the AST, the annotated CFG,
//!   and the directive plan (phase conflicts, dead directives, static
//!   bounds, unused aggregates, remote-fed indices);
//! * [`oracle`] — the static↔dynamic schedule oracle: runs the compiled
//!   program on a small predictive machine with a recording tap and diffs
//!   the observed request stream against the static summaries (E007
//!   soundness, W006 precision).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Diagnostics are deliberately rich (spans, labels, notes) and travel only
// the cold error path of `Result<_, Diagnostic>`; boxing them would noise
// up every frontend signature for no measurable win.
#![allow(clippy::result_large_err)]

pub mod ast;
pub mod cfg;
pub mod commute;
pub mod compile;
pub mod dataflow;
pub mod diag;
pub mod directives;
pub mod eval;
pub mod interp;
pub mod lexer;
pub mod lint;
pub mod oracle;
pub mod parser;
pub mod sema;

pub use ast::Program;
pub use cfg::{Cfg, CfgNode};
pub use commute::{validate_merges, CommuteClass, MergeOp, MergeOracleConfig};
pub use compile::{compile, compile_diag, CompiledProgram};
pub use dataflow::ReachingUnstructured;
pub use diag::{codes, Diagnostic, Severity, Span};
pub use directives::{DirectivePlan, PhaseAssignment};
pub use lint::lint_program;
pub use oracle::{run_oracle, run_oracle_compiled, OracleConfig, OracleReport};
pub use sema::{AccessKind, AccessSummary, ClassifyRules, Locality};
