//! The static↔dynamic schedule oracle.
//!
//! Runs a compiled program on a small predictive-protocol machine with a
//! recording [`AccessTap`] installed, then folds the observed home-node
//! request stream back onto the compiler's static access summaries:
//!
//! * a dynamic access the summaries do not cover is a **hard soundness
//!   error** ([`codes::ORACLE_SOUNDNESS`], E007) — the compiler would have
//!   placed directives that miss real communication;
//! * a statically predicted access class that is never observed is a
//!   **precision warning** ([`codes::ORACLE_PRECISION`], W006) — the
//!   schedule carries entries that never fire, the §3.4 overscheduling
//!   the paper tolerates but a compiler writer wants to see measured.
//!
//! Degradation is disabled for the oracle run so the protocol's
//! self-defense cannot mask a bad schedule; the tap records every request
//! regardless of the protocol's recording state.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use prescient_core::{AccessTap, PhaseId};
use prescient_runtime::{Machine, MachineConfig, ProtocolKind};

use crate::commute::EvalFailure;
use crate::compile::{compile_diag, CompiledProgram};
use crate::diag::{codes, Diagnostic};
use crate::directives::{footprints, ExecOp};
use crate::eval::positions;
use crate::interp::{materialize, run_program_traced, seeded_init};
use crate::sema::{AccessKind, ClassifyRules, Locality};

/// Oracle machine parameters. The default machine is small and the block
/// size is one element (8 bytes), so the block→aggregate mapping is exact.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Nodes in the oracle machine.
    pub nodes: usize,
    /// Cache-block size in bytes (power of two, ≥ 8).
    pub block_size: usize,
    /// Seed for the deterministic aggregate initializer.
    pub seed: u64,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig { nodes: 4, block_size: 8, seed: 0x5eed }
    }
}

/// One statically predicted or dynamically observed access class.
type AccessKey = (usize, String, AccessKind, Locality);

/// What the oracle run produced.
#[derive(Debug)]
pub struct OracleReport {
    /// Soundness errors (E007) followed by precision warnings (W006).
    pub diagnostics: Vec<Diagnostic>,
    /// Tap events observed during `main` (labeled with a call site).
    pub observed_events: usize,
    /// Access classes the static summaries predict to communicate.
    pub predictions: usize,
    /// Predicted classes never observed dynamically.
    pub unobserved: usize,
}

impl OracleReport {
    /// Number of hard soundness violations.
    pub fn soundness_errors(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.is_error()).count()
    }

    /// Fraction of predicted access classes that never fired (0 when
    /// nothing was predicted).
    pub fn imprecision_ratio(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.unobserved as f64 / self.predictions as f64
        }
    }
}

/// Compile `src` under `rules` and run the oracle. Compilation errors come
/// back as the `Err` diagnostic.
pub fn run_oracle(
    src: &str,
    cfg: &OracleConfig,
    rules: ClassifyRules,
) -> Result<OracleReport, Diagnostic> {
    let prog = compile_diag(src, true, rules)?;
    Ok(run_oracle_compiled(&prog, cfg))
}

/// Run the oracle over an already-compiled program. A program that stops
/// with an evaluation error is not run on the machine (its node would
/// panic): the error is the report's one diagnostic.
pub fn run_oracle_compiled(prog: &CompiledProgram, cfg: &OracleConfig) -> OracleReport {
    if let Some((id, failure)) = crate::commute::first_failure(prog, cfg.seed) {
        let diagnostics = vec![eval_failure(prog, id, &failure)];
        return OracleReport { diagnostics, observed_events: 0, predictions: 0, unobserved: 0 };
    }
    // Predictive machine with degradation off: the oracle wants the raw
    // schedule behavior, not the protocol's self-defense.
    let mut mc = MachineConfig::predictive(cfg.nodes, cfg.block_size);
    if let ProtocolKind::Predictive(ref mut p) = mc.protocol {
        p.degrade = false;
    }
    let mut machine = Machine::new(mc);
    let aggs = materialize(&machine, prog);
    let layout = machine.layout();

    // Exact block→aggregate map from every element's address.
    let mut block_agg: BTreeMap<u64, String> = BTreeMap::new();
    for (name, store) in &aggs {
        for addr in positions(&store.dims()).filter_map(|pos| store.addr(&pos).ok()) {
            block_agg.entry(addr.block(cfg.block_size).0).or_insert_with(|| name.clone());
        }
    }

    let phase_of_call = phase_map(&prog.plan.ops);
    let spans = crate::lint::call_spans(prog);

    let tap = Arc::new(AccessTap::new());
    run_program_traced(&mut machine, prog, &aggs, seeded_init(cfg.seed), &tap);
    let events = tap.take();

    // Merged per-call, per-aggregate summaries (from the annotated CFG).
    let access_of =
        |id: usize| prog.cfg.call_node.get(id).and_then(|&n| prog.cfg.call(n)).map(|c| &c.access);

    // --- Soundness: every observed class must be statically covered. ---
    let mut observed: BTreeSet<AccessKey> = BTreeSet::new();
    let mut violations: BTreeSet<AccessKey> = BTreeSet::new();
    let mut witness: BTreeMap<AccessKey, (u64, u16, u16)> = BTreeMap::new();
    let mut observed_events = 0usize;
    for ev in &events {
        let Some(call) = ev.call else { continue };
        let id = call as usize;
        let Some(agg) = block_agg.get(&ev.block.0) else { continue };
        observed_events += 1;
        let home = layout.home_of_block(ev.block);
        let kind = if ev.excl { AccessKind::Write } else { AccessKind::Read };
        let loc = if ev.requester == home { Locality::Home } else { Locality::NonHome };
        let key = (id, agg.clone(), kind, loc);
        let covered = access_of(id).and_then(|a| a.get(agg)).is_some_and(|pa| match (kind, loc) {
            // A non-home request must be declared as such.
            (AccessKind::Read, Locality::NonHome) => pa.nonhome_read,
            (AccessKind::Write, Locality::NonHome) => pa.nonhome_write,
            // The home fetches through the protocol too (self-send on a
            // miss or upgrade), so either locality class covers it.
            (AccessKind::Read, Locality::Home) => pa.home_read || pa.nonhome_read,
            (AccessKind::Write, Locality::Home) => pa.home_write || pa.nonhome_write,
        });
        if covered {
            observed.insert(key);
        } else if violations.insert(key.clone()) {
            witness.insert(key, (ev.block.0, ev.requester, home));
        }
    }

    let mut diagnostics = Vec::new();
    for key in &violations {
        let (id, agg, kind, loc) = key;
        let (func, _) = call_site(prog, *id);
        let verb = match kind {
            AccessKind::Read => "read",
            AccessKind::Write => "wrote",
        };
        let where_ = match loc {
            Locality::Home => "its home node",
            Locality::NonHome => "a non-home node",
        };
        let phase = match phase_of_call.get(id).copied().flatten() {
            Some(p) => format!("phase {p}"),
            None => "an unscheduled region (no phase directive)".to_string(),
        };
        let mut d = Diagnostic::error(
            codes::ORACLE_SOUNDNESS,
            format!(
                "schedule-oracle soundness violation: call `{func}` (call {id}) dynamically \
                 {verb} aggregate `{agg}` from {where_} in {phase}, but the static summary \
                 predicts no such access"
            ),
        );
        if let Some(s) = spans.get(*id) {
            d = d.with_label(*s, "this call's static summary is incomplete");
        }
        if let Some((block, req, home)) = witness.get(key) {
            d = d.with_note(format!(
                "first observed at block {block}: node {req} requested it from home node {home}"
            ));
        }
        diagnostics.push(d.with_note(
            "the predictive protocol would carry traffic for this phase that the compiler \
             never declared; its schedule is unsound (§4.2)",
        ));
    }

    // --- Precision: predicted classes that never fired. An owner write
    // is predicted where §4.3's rule 1 holds for the written aggregate. ---
    let fps = footprints(&prog.cfg, &prog.reaching);
    let mut predicted: BTreeSet<AccessKey> = BTreeSet::new();
    for (id, _) in prog.call_sites.iter().enumerate() {
        let Some(access) = access_of(id) else { continue };
        let owner = fps.get(&id).map_or(0, |f| f.owner);
        for (agg, pa) in access {
            if pa.nonhome_read {
                predicted.insert((id, agg.clone(), AccessKind::Read, Locality::NonHome));
            }
            if pa.nonhome_write {
                predicted.insert((id, agg.clone(), AccessKind::Write, Locality::NonHome));
            }
            if prog.cfg.agg_bit(agg).is_some_and(|bit| owner & (1 << bit) != 0) {
                predicted.insert((id, agg.clone(), AccessKind::Write, Locality::Home));
            }
        }
    }

    let unobserved: Vec<&AccessKey> = predicted.iter().filter(|k| !observed.contains(*k)).collect();
    let (n_pred, n_unobs) = (predicted.len(), unobserved.len());
    for (id, agg, kind, loc) in unobserved {
        let (func, _) = call_site(prog, *id);
        let what = match (kind, loc) {
            (AccessKind::Read, _) => "non-home-read",
            (AccessKind::Write, Locality::NonHome) => "non-home-write",
            (AccessKind::Write, Locality::Home) => "owner-write",
        };
        let mut d = Diagnostic::warning(
            codes::ORACLE_PRECISION,
            format!(
                "schedule-oracle precision: call `{func}` (call {id}) is statically \
                 predicted to {what} aggregate `{agg}`, but no such request was observed"
            ),
        );
        if let Some(s) = spans.get(*id) {
            d = d.with_label(*s, "prediction never fired in this run");
        }
        diagnostics.push(d.with_note(format!(
            "measured imprecision: {n_unobs} of {n_pred} predicted access classes never \
             fired (the schedule overschedules, §3.4)"
        )));
    }

    // --- Merge soundness: every CommutativeMerge directive must produce
    // the serialized result under privatize-and-merge replay (E008). ---
    let merge_cfg = crate::commute::MergeOracleConfig {
        nodes: cfg.nodes,
        block_size: cfg.block_size,
        seed: cfg.seed,
    };
    diagnostics.extend(crate::commute::validate_merges(prog, &merge_cfg));

    OracleReport { diagnostics, observed_events, predictions: n_pred, unobserved: n_unobs }
}

/// The E007 for a program whose call `id` cannot be evaluated: the call,
/// the aggregate and index whose access failed, the element, the message.
fn eval_failure(prog: &CompiledProgram, id: usize, failure: &EvalFailure) -> Diagnostic {
    let (func, _) = call_site(prog, id);
    let what = match &failure.access {
        Some((agg, at)) => format!("its access to aggregate `{agg}` at index {at:?}"),
        None => "its body".to_string(),
    };
    let mut d = Diagnostic::error(
        codes::ORACLE_SOUNDNESS,
        format!(
            "schedule oracle could not run call `{func}` (call {id}): {what} failed at element \
             {:?}: {}",
            failure.pos, failure.msg
        ),
    );
    if let Some(s) = crate::lint::call_spans(prog).get(id) {
        d = d.with_label(*s, "the program stops in this call");
    }
    d.with_note("the DSM interpreter stops here too, so no schedule was observed")
}

/// The `(func, args)` of a call site, tolerating out-of-range ids.
fn call_site(prog: &CompiledProgram, id: usize) -> (&str, &[String]) {
    prog.call_sites.get(id).map_or(("<unknown>", &[][..]), |(f, a)| (f.as_str(), a.as_slice()))
}

/// Which phase (if any) each call executes under, from the op sequence.
/// Transparent calls riding inside a coalesced phase region count as
/// members of that phase (shared with the commute lint, which must see
/// them as same-phase readers).
pub(crate) fn phase_map(ops: &[ExecOp]) -> BTreeMap<usize, Option<PhaseId>> {
    let mut cur = None;
    let mut out = BTreeMap::new();
    for op in ops {
        match op {
            ExecOp::PhaseBegin(p) => cur = Some(*p),
            ExecOp::PhaseEnd(_) => cur = None,
            ExecOp::Call(id) => {
                out.insert(*id, cur);
            }
            ExecOp::LoopBegin { .. } | ExecOp::LoopEnd | ExecOp::CommutativeMerge { .. } => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_positions_cover_all() {
        assert_eq!(positions(&[3]).count(), 3);
        assert_eq!(positions(&[2, 3]).count(), 6);
        assert_eq!(positions(&[2, 3]).last(), Some(vec![1, 2]));
    }

    #[test]
    fn phase_map_tracks_regions() {
        let ops = vec![
            ExecOp::Call(0),
            ExecOp::PhaseBegin(1),
            ExecOp::Call(1),
            ExecOp::PhaseEnd(1),
            ExecOp::Call(2),
        ];
        let m = phase_map(&ops);
        assert_eq!(m[&0], None);
        assert_eq!(m[&1], Some(1));
        assert_eq!(m[&2], None);
    }

    #[test]
    fn imprecision_ratio_handles_empty() {
        let r = OracleReport {
            diagnostics: Vec::new(),
            observed_events: 0,
            predictions: 0,
            unobserved: 0,
        };
        assert_eq!(r.imprecision_ratio(), 0.0);
        let r = OracleReport { predictions: 4, unobserved: 1, ..r };
        assert!((r.imprecision_ratio() - 0.25).abs() < 1e-12);
    }
}
