//! The `PRESCIENT_*` environment variables: one table, one place the
//! process environment is read, one error format.
//!
//! Every [`MachineConfig`] constructor runs [`apply`] over [`process`]
//! once; a `MachineConfig::with_*` call afterwards overrides what a
//! variable set. Each value's grammar lives beside its type (`parse`); the
//! table names the variable, prints the grammar and owns the wording of a
//! rejection — `PRESCIENT_X: expected <grammar>, got "<value>"` — and a
//! rejected value panics the constructor rather than silently running
//! some other configuration. An empty value counts as unset. README's
//! variable table is [`render_table`], held to it by a test.

use prescient_tempest::{CrashPlan, MetricsConfig, TraceConfig};

use crate::config::{MachineConfig, PlacementSpec};

/// One environment variable a machine reads.
pub struct Var {
    /// The variable's name.
    pub name: &'static str,
    /// The values it takes, as rejections and README print them.
    pub grammar: &'static str,
    /// What it selects, for README.
    pub selects: &'static str,
    /// Parse `value` into `cfg`; `Err` says why not.
    apply: fn(&str, &mut MachineConfig) -> Result<(), String>,
}

/// Every variable, in the order [`apply`] consults them.
pub const VARS: [Var; 5] = [
    Var {
        name: "PRESCIENT_TRACE",
        grammar: "on/1, off/0 or RING_CAPACITY",
        selects: "protocol event tracing; a traced machine exports at teardown",
        apply: |v, cfg| TraceConfig::parse(v).map(|t| cfg.trace = t),
    },
    Var {
        name: TRACE_OUT,
        grammar: "BASENAME",
        selects: "where that export goes: BASENAME.json and BASENAME.jsonl (default `trace`)",
        // Nothing to configure: `Machine`'s teardown asks `trace_out`.
        apply: |_, _| Ok(()),
    },
    Var {
        name: "PRESCIENT_METRICS",
        grammar: "on/1, off/0 or stream:PATH",
        selects: "the phase-granular metrics timeline; `stream:` also exports \
                  PATH.timeline.json at teardown",
        apply: |v, cfg| MetricsConfig::parse(v).map(|m| cfg.metrics = m),
    },
    Var {
        name: "PRESCIENT_PLACEMENT",
        grammar: "off or remap:PATH",
        selects:
            "a block-to-home overlay read from PATH (`prescient-telemetry emit-remap` writes one)",
        apply: |v, cfg| PlacementSpec::parse(v, cfg.nodes).map(|p| cfg.placement = p),
    },
    Var {
        name: "PRESCIENT_CRASH",
        grammar: "NODE@PHASE_EXECUTION or off/0",
        selects: "an injected crash of NODE at its n-th phase execution, with the \
                  checkpointing that recovers from it",
        apply: |v, cfg| {
            CrashPlan::parse(v).map(|plan| {
                cfg.crash = plan;
                // A crash without a checkpoint is fatal; an injected one
                // is meant to exercise recovery (as `with_crash_plan`).
                cfg.checkpoints |= plan.is_some();
            })
        },
    },
];

const TRACE_OUT: &str = "PRESCIENT_TRACE_OUT";

/// The process environment — the one place this workspace reads it.
pub fn process(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// `name`'s value, an empty one counting as unset.
fn value_of(lookup: &dyn Fn(&str) -> Option<String>, name: &str) -> Option<String> {
    lookup(name).filter(|v| !v.trim().is_empty())
}

/// Apply every variable `lookup` has a value for to `cfg`, in table
/// order; the first rejected value is the error.
pub fn apply(
    cfg: &mut MachineConfig,
    lookup: &dyn Fn(&str) -> Option<String>,
) -> Result<(), String> {
    for var in &VARS {
        if let Some(value) = value_of(lookup, var.name) {
            (var.apply)(&value, cfg).map_err(|why| {
                format!("{}: expected {}, got {value:?} ({why})", var.name, var.grammar)
            })?;
        }
    }
    Ok(())
}

/// Basename of a traced machine's teardown export.
pub fn trace_out(lookup: &dyn Fn(&str) -> Option<String>) -> String {
    value_of(lookup, TRACE_OUT).unwrap_or_else(|| "trace".to_string())
}

/// The table as README prints it.
pub fn render_table() -> String {
    let mut s = String::from("| variable | values | selects |\n|---|---|---|\n");
    for v in &VARS {
        s.push_str(&format!("| `{}` | `{}` | {} |\n", v.name, v.grammar, v.selects));
    }
    s
}
