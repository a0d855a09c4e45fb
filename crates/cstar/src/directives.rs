//! Directive placement (§4.3): which parallel calls need communication
//! schedules, grouped into phases, with the coalescing/hoisting
//! optimization.
//!
//! **Placement rule.** A parallel call requires a communication schedule
//! (and a preceding predictive-protocol pre-send) if, for any aggregate,
//!
//! 1. the call is reached by unstructured accesses *and* includes owner
//!    write accesses (its invalidations are predictable), or
//! 2. the call itself includes unstructured accesses.
//!
//! **Coalescing/hoisting.** An inside-out pass over the program structure
//! merges neighboring phases when at least one side is home-only, and
//! absorbs home-only calls and loops (e.g. Barnes' `center_of_mass` loop)
//! into an enclosing phase instead of giving them their own — amortizing
//! the pre-send overhead over multiple parallel functions, analogous to
//! schedule coalescing in the inspector-executor model.
//!
//! Merging is additionally guarded against *conflicts*: two calls may not
//! share a phase if one communicates writes to an aggregate the other
//! communicates reads (or writes) from — the predictive protocol would mark
//! all such blocks conflict and disable itself (§3.4).

use std::collections::BTreeMap;

use prescient_core::PhaseId;
use prescient_tempest::json::{Layout, Writer};

use crate::cfg::{Cfg, RegionItem};
use crate::dataflow::ReachingUnstructured;

/// What the planner decided per call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallDecision {
    /// The call needs a schedule (rule 1 or 2).
    pub needs: bool,
    /// Every access of the call is a home access.
    pub home_only: bool,
    /// The phase this call executes under, if any.
    pub phase: Option<PhaseId>,
}

/// The phase structure computed for a program.
#[derive(Debug, Clone, Default)]
pub struct PhaseAssignment {
    /// Decisions per call-site id.
    pub calls: BTreeMap<usize, CallDecision>,
    /// Number of phases allocated.
    pub n_phases: u32,
}

impl PhaseAssignment {
    /// Calls assigned to `phase`, in program order.
    pub fn calls_of_phase(&self, phase: PhaseId) -> Vec<usize> {
        self.calls.iter().filter(|(_, d)| d.phase == Some(phase)).map(|(id, _)| *id).collect()
    }
}

/// The executable plan: the program in operation order with phase
/// directives spliced in.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOp {
    /// Pre-send + arm recording for a phase (compiler directive).
    PhaseBegin(PhaseId),
    /// Stop recording for a phase (compiler directive).
    PhaseEnd(PhaseId),
    /// Run one parallel call (by call-site id), with its implicit
    /// end-of-call barrier.
    Call(usize),
    /// Enter a counted loop `lo..hi`.
    LoopBegin {
        /// Loop label.
        label: String,
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (exclusive).
        hi: i64,
    },
    /// Close the innermost loop.
    LoopEnd,
    /// Merge privatized per-node deltas of one aggregate at the phase
    /// barrier (emitted right after the `Call` it belongs to, for each
    /// written aggregate the commutativity analysis proved mergeable on an
    /// annotated call). The runtime runs the call against private buffers
    /// and bulk-installs the merged state instead of migrating ownership
    /// per block.
    CommutativeMerge {
        /// Phase the merged call executes under (0 if scheduleless).
        phase: PhaseId,
        /// Aggregate to merge, by declaration name.
        agg: String,
        /// Call-site id whose updates are privatized.
        call: usize,
    },
}

/// Placement result: assignment plus the executable op sequence.
#[derive(Debug, Clone)]
pub struct DirectivePlan {
    /// Per-call decisions and phase ids.
    pub assignment: PhaseAssignment,
    /// Operation sequence for the interpreter.
    pub ops: Vec<ExecOp>,
}

impl DirectivePlan {
    /// Serialize the plan losslessly as JSON (the `--emit-directives`
    /// payload). Booleans are encoded as `0`/`1`; an absent `phase` field
    /// means "no phase assigned".
    pub fn to_json(&self) -> String {
        let mut w = Writer::new(String::new(), 0);
        w.object(Layout::Compact).key("n_phases").uint(self.assignment.n_phases.into());
        w.key("calls").array(Layout::Compact);
        for (id, d) in &self.assignment.calls {
            w.object(Layout::Compact).key("id").uint(*id as u64);
            w.key("needs").uint(d.needs.into()).key("home_only").uint(d.home_only.into());
            if let Some(p) = d.phase {
                w.key("phase").uint(p.into());
            }
            w.end();
        }
        w.end().key("ops").array(Layout::Compact);
        for op in &self.ops {
            w.object(Layout::Compact).key("op");
            match op {
                ExecOp::PhaseBegin(p) => w.str("phase_begin").key("phase").uint((*p).into()),
                ExecOp::PhaseEnd(p) => w.str("phase_end").key("phase").uint((*p).into()),
                ExecOp::Call(id) => w.str("call").key("id").uint(*id as u64),
                ExecOp::LoopBegin { label, lo, hi } => w
                    .str("loop_begin")
                    .key("label")
                    .str(label)
                    .key("lo")
                    .int(*lo)
                    .key("hi")
                    .int(*hi),
                ExecOp::LoopEnd => w.str("loop_end"),
                ExecOp::CommutativeMerge { phase, agg, call } => {
                    w.str("commutative_merge").key("agg").str(agg);
                    w.key("phase").uint((*phase).into()).key("call").uint(*call as u64)
                }
            };
            w.end();
        }
        w.end().end();
        w.finish()
    }
}

/// The §4.3 communication footprint of a call (or a phase: a union), as
/// aggregate bitsets — what the placement rule schedules, the conflict
/// guard compares, W001/W002 audit and the oracle's W006 predicts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Footprint {
    /// Aggregates read through communication (unstructured reads, rule 2).
    pub reads: u64,
    /// Aggregates written through communication: `owner`, plus the
    /// unstructured writes (rule 2).
    pub writes: u64,
    /// Aggregates owner-written while unstructured accesses of the same
    /// aggregate reach the call (rule 1): invalidations a schedule predicts.
    pub owner: u64,
}

impl Footprint {
    /// Rule 1 or rule 2 holds: the call needs a schedule.
    pub fn needs(self) -> bool {
        self.reads | self.writes != 0
    }

    fn union(self, o: Footprint) -> Footprint {
        Footprint {
            reads: self.reads | o.reads,
            writes: self.writes | o.writes,
            owner: self.owner | o.owner,
        }
    }

    /// Would co-scheduling these two footprints create conflict blocks?
    fn conflicts(self, o: Footprint) -> bool {
        (self.writes & (o.reads | o.writes)) != 0 || (o.writes & self.reads) != 0
    }
}

/// Every call's footprint, by call-site id.
pub(crate) fn footprints(cfg: &Cfg, sol: &ReachingUnstructured) -> BTreeMap<usize, Footprint> {
    let mut out = BTreeMap::new();
    for node in cfg.call_nodes() {
        let Some(c) = cfg.call(node) else { continue };
        let mut fp = Footprint::default();
        for (agg, pa) in &c.access {
            // The universe has at most 64 aggregates (E006).
            let Some(bit) = cfg.agg_bit(agg) else { continue };
            if pa.home_write && sol.reaches(node, bit) {
                fp.owner |= 1 << bit;
            }
            if pa.nonhome_read {
                fp.reads |= 1 << bit;
            }
            if pa.nonhome_write {
                fp.writes |= 1 << bit;
            }
        }
        fp.writes |= fp.owner;
        out.insert(c.id, fp);
    }
    out
}

/// Compute the directive plan for an annotated CFG (with its dataflow
/// solution). `coalesce` enables the §4.3 optimization (on by default; off
/// for the ablation).
pub fn place_directives(cfg: &Cfg, sol: &ReachingUnstructured, coalesce: bool) -> DirectivePlan {
    let comm = footprints(cfg, sol);
    let calls: BTreeMap<usize, CallDecision> = cfg
        .call_nodes()
        .into_iter()
        .filter_map(|node| cfg.call(node))
        .map(|c| {
            let needs = comm.get(&c.id).is_some_and(|f| f.needs());
            (c.id, CallDecision { needs, home_only: c.home_only(), phase: None })
        })
        .collect();

    let mut planner = Planner { calls, comm, next_phase: 1, coalesce };
    let ops = planner.plan_seq(cfg, &cfg.regions);
    let calls = planner.calls;

    // Splice merge directives: each `commute`-annotated call whose written
    // aggregates the commutativity analysis accepted gets one
    // CommutativeMerge per such aggregate, right after the call. Aggregates
    // the analysis rejected get nothing here — the E008 lint owns them.
    let mut spliced = Vec::with_capacity(ops.len());
    for op in ops {
        let merges: Vec<ExecOp> = match &op {
            ExecOp::Call(id) => cfg
                .call_node
                .get(*id)
                .and_then(|&n| cfg.call(n))
                .filter(|c| c.commute_annotated)
                .map(|c| {
                    let phase = calls.get(id).and_then(|d| d.phase).unwrap_or(0);
                    c.commute_aggs()
                        .into_iter()
                        .map(|agg| ExecOp::CommutativeMerge {
                            phase,
                            agg: agg.to_string(),
                            call: *id,
                        })
                        .collect()
                })
                .unwrap_or_default(),
            _ => Vec::new(),
        };
        spliced.push(op);
        spliced.extend(merges);
    }

    DirectivePlan {
        assignment: PhaseAssignment { calls, n_phases: planner.next_phase - 1 },
        ops: spliced,
    }
}

struct Planner {
    calls: BTreeMap<usize, CallDecision>,
    comm: BTreeMap<usize, Footprint>,
    next_phase: u32,
    coalesce: bool,
}

/// A group of consecutive items forming one phase (or none).
struct Group {
    ops: Vec<ExecOp>,
    comm: Footprint,
    /// All needs-calls in the group are home-only.
    home_only: bool,
    /// Contains at least one needs-call.
    has_needs: bool,
}

impl Planner {
    /// Plan one item sequence; returns its op stream.
    #[allow(clippy::only_used_in_recursion)]
    fn plan_seq(&mut self, cfg: &Cfg, items: &[RegionItem]) -> Vec<ExecOp> {
        let mut out: Vec<ExecOp> = Vec::new();
        let mut cur: Option<Group> = None;

        for item in items {
            match item {
                RegionItem::Call(id) => {
                    let d = self.calls[id];
                    if !d.needs {
                        // Transparent: ride along inside the open group (the
                        // hoisting/absorption case) or emit plain.
                        match (&mut cur, self.coalesce) {
                            (Some(g), true) => g.ops.push(ExecOp::Call(*id)),
                            _ => {
                                self.flush(&mut cur, &mut out);
                                out.push(ExecOp::Call(*id));
                            }
                        }
                        continue;
                    }
                    let cs = self.comm[id];
                    let mergeable = self.coalesce
                        && matches!(&cur, Some(g) if (g.home_only || d.home_only)
                            && !g.comm.conflicts(cs));
                    if mergeable {
                        let g = cur.as_mut().expect("checked above");
                        g.ops.push(ExecOp::Call(*id));
                        g.comm = g.comm.union(cs);
                        g.home_only &= d.home_only;
                        g.has_needs = true;
                    } else {
                        self.flush(&mut cur, &mut out);
                        cur = Some(Group {
                            ops: vec![ExecOp::Call(*id)],
                            comm: cs,
                            home_only: d.home_only,
                            has_needs: true,
                        });
                    }
                }
                RegionItem::Loop { label, trip, body } => {
                    let (all_home_only, any_needs, loop_comm) = self.loop_summary(body);
                    let begin = ExecOp::LoopBegin { label: label.clone(), lo: trip.0, hi: trip.1 };
                    if all_home_only && !any_needs {
                        // Fully transparent loop: absorb it whole into the
                        // open group or emit plain.
                        let mut ops = vec![begin];
                        self.emit_plain(body, &mut ops);
                        ops.push(ExecOp::LoopEnd);
                        match (&mut cur, self.coalesce) {
                            (Some(g), true) => g.ops.extend(ops),
                            _ => {
                                self.flush(&mut cur, &mut out);
                                out.extend(ops);
                            }
                        }
                    } else if all_home_only && self.coalesce {
                        // Home-only loop with schedulable calls inside:
                        // hoist — one schedule/directive covers the whole
                        // loop (the paper's center_of_mass case), merging
                        // with an adjacent phase when the guard allows.
                        let mut ops = vec![begin];
                        self.emit_plain(body, &mut ops);
                        ops.push(ExecOp::LoopEnd);
                        let mergeable = matches!(&cur, Some(g) if !g.comm.conflicts(loop_comm));
                        if mergeable {
                            let g = cur.as_mut().expect("checked above");
                            g.ops.extend(ops);
                            g.comm = g.comm.union(loop_comm);
                            g.has_needs = true;
                        } else {
                            self.flush(&mut cur, &mut out);
                            cur = Some(Group {
                                ops,
                                comm: loop_comm,
                                home_only: true,
                                has_needs: true,
                            });
                        }
                    } else {
                        // Opaque loop: phases live inside it.
                        self.flush(&mut cur, &mut out);
                        out.push(begin);
                        let inner = self.plan_seq(cfg, body);
                        out.extend(inner);
                        out.push(ExecOp::LoopEnd);
                    }
                }
            }
        }
        self.flush(&mut cur, &mut out);
        out
    }

    /// Summarize a loop body: `(all calls home-only, any call needs a
    /// schedule, union of communication footprints)`.
    fn loop_summary(&self, body: &[RegionItem]) -> (bool, bool, Footprint) {
        let mut all_home = true;
        let mut any_needs = false;
        let mut comm = Footprint::default();
        for item in body {
            match item {
                RegionItem::Call(id) => {
                    let d = self.calls[id];
                    all_home &= d.home_only;
                    any_needs |= d.needs;
                    if d.needs {
                        comm = comm.union(self.comm[id]);
                    }
                }
                RegionItem::Loop { body, .. } => {
                    let (h, n, c) = self.loop_summary(body);
                    all_home &= h;
                    any_needs |= n;
                    comm = comm.union(c);
                }
            }
        }
        (all_home, any_needs, comm)
    }

    /// Emit items without any directives (all transparent).
    fn emit_plain(&self, items: &[RegionItem], out: &mut Vec<ExecOp>) {
        for item in items {
            match item {
                RegionItem::Call(id) => out.push(ExecOp::Call(*id)),
                RegionItem::Loop { label, trip, body } => {
                    out.push(ExecOp::LoopBegin { label: label.clone(), lo: trip.0, hi: trip.1 });
                    self.emit_plain(body, out);
                    out.push(ExecOp::LoopEnd);
                }
            }
        }
    }

    /// Close the open group: allocate its phase id and wrap its ops in
    /// directives.
    fn flush(&mut self, cur: &mut Option<Group>, out: &mut Vec<ExecOp>) {
        let Some(g) = cur.take() else { return };
        debug_assert!(g.has_needs);
        let phase = self.next_phase;
        self.next_phase += 1;
        for op in &g.ops {
            if let ExecOp::Call(id) = op {
                if let Some(d) = self.calls.get_mut(id) {
                    if d.needs {
                        d.phase = Some(phase);
                    }
                }
            }
        }
        out.push(ExecOp::PhaseBegin(phase));
        out.extend(g.ops);
        out.push(ExecOp::PhaseEnd(phase));
    }
}

/// Pretty-print a plan (used by the Figure 4 harness binary).
pub fn render_plan(cfg: &Cfg, plan: &DirectivePlan) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let mut indent = 0usize;
    for op in &plan.ops {
        let pad = "  ".repeat(indent);
        match op {
            ExecOp::PhaseBegin(p) => {
                writeln!(s, "{pad}phase_begin({p})   // presend + arm recording").unwrap()
            }
            ExecOp::PhaseEnd(p) => writeln!(s, "{pad}phase_end({p})").unwrap(),
            ExecOp::Call(id) => {
                let node = cfg.call_node[*id];
                let c = cfg.call(node).expect("call");
                let d = plan.assignment.calls[id];
                let accesses: Vec<String> = c
                    .access
                    .iter()
                    .filter(|(_, pa)| pa.any())
                    .map(|(a, pa)| format!("{a}: {}", pa.describe()))
                    .collect();
                writeln!(
                    s,
                    "{pad}{}({})   // {}",
                    c.func,
                    accesses.join("; "),
                    if d.needs { "needs schedule" } else { "home accesses only" }
                )
                .unwrap();
            }
            ExecOp::LoopBegin { label, lo, hi } => {
                writeln!(s, "{pad}for {label} in {lo}..{hi} {{").unwrap();
                indent += 1;
            }
            ExecOp::LoopEnd => {
                indent -= 1;
                writeln!(s, "{}}}", "  ".repeat(indent)).unwrap();
            }
            ExecOp::CommutativeMerge { phase, agg, .. } => {
                writeln!(s, "{pad}merge({agg})        // phase {phase}: install privatized deltas")
                    .unwrap()
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_diag;
    use crate::sema::ClassifyRules;

    /// One parallel function per access class the tests combine, each over
    /// 8-element aggregates: non-home reads (of one or two aggregates), an
    /// owner write, a non-home write, and a home read+write.
    const FNS: &str = "parallel fn reader(a) { let x = a[7 - #0]; }\n\
                       parallel fn reader2(a, b) { let x = a[7 - #0] + b[7 - #0]; }\n\
                       parallel fn writer(a) { a[#0] = 1.0; }\n\
                       parallel fn scatter(a) { a[7 - #0] = 1.0; }\n\
                       parallel fn center_of_mass(a) { a[#0] = 0.5 * a[#0]; }\n";

    /// Compile `main` over the aggregates `aggs` and [`FNS`].
    fn plan_of(aggs: &[&str], main: &str, coalesce: bool) -> (Cfg, DirectivePlan) {
        let decls: String = aggs.iter().map(|a| format!("aggregate {a}[8] of float;\n")).collect();
        let src = format!("{decls}{FNS}fn main() {{ {main} }}\n");
        let c = compile_diag(&src, coalesce, ClassifyRules::default()).unwrap();
        (c.cfg, c.plan)
    }

    /// Rule 2: an unstructured call always needs a schedule.
    #[test]
    fn unstructured_call_needs_schedule() {
        let (_, plan) = plan_of(&["A"], "reader(A);", true);
        let d = plan.assignment.calls[&0];
        assert!(d.needs);
        assert_eq!(d.phase, Some(1));
        assert_eq!(plan.assignment.n_phases, 1);
    }

    /// Rule 1: owner writes need a schedule only when reached.
    #[test]
    fn owner_write_needs_schedule_only_when_reached() {
        // writer alone: no directive.
        let (_, plan) = plan_of(&["A"], "writer(A);", true);
        assert!(!plan.assignment.calls[&0].needs);
        assert_eq!(plan.assignment.n_phases, 0);

        // reader then writer in a loop: the writer is reached via the back
        // edge (repetitive invalidations), so it needs a schedule.
        let (_, plan) = plan_of(&["A"], "for it in 0 .. 2 { reader(A); writer(A); }", true);
        assert!(plan.assignment.calls[&0].needs, "reader is unstructured");
        assert!(plan.assignment.calls[&1].needs, "writer is reached");
    }

    /// Conflict guard: reader and writer of the same aggregate must not
    /// share a phase even though the writer is home-only.
    #[test]
    fn no_merge_across_conflicting_aggregates() {
        let (_, plan) = plan_of(&["A"], "for it in 0 .. 2 { reader(A); writer(A); }", true);
        let p0 = plan.assignment.calls[&0].phase;
        let p1 = plan.assignment.calls[&1].phase;
        assert!(p0.is_some() && p1.is_some());
        assert_ne!(p0, p1, "read and write of A must be separate phases");
        assert_eq!(plan.assignment.n_phases, 2);
    }

    /// Coalescing: two home-only needs-calls on unrelated aggregates merge.
    #[test]
    fn homeonly_neighbors_coalesce() {
        let main = "for it in 0 .. 2 { reader2(A, B); writer(A); writer(B); }";
        let (_, plan) = plan_of(&["A", "B"], main, true);
        let pa = plan.assignment.calls[&1].phase.unwrap();
        let pb = plan.assignment.calls[&2].phase.unwrap();
        assert_eq!(pa, pb, "the two owner-write phases coalesce");
        assert_eq!(plan.assignment.n_phases, 2);

        // Without coalescing: three phases.
        let (_, plan) = plan_of(&["A", "B"], main, false);
        assert_eq!(plan.assignment.n_phases, 3);
    }

    /// Hoisting: a home-only loop whose calls need schedules (Barnes'
    /// `center_of_mass`: owner writes reached by the tree build) gets ONE
    /// directive outside the loop, not one per call inside.
    #[test]
    fn homeonly_loop_hoisted_single_directive() {
        let main = "for step in 0 .. 2 { scatter(T); for com in 0 .. 3 { center_of_mass(T); } }";
        let (_, plan) = plan_of(&["T"], main, true);
        // center_of_mass needs a schedule (rule 1: reached + owner write)
        // but may not share load's phase (conflict on tree) — two phases.
        assert!(plan.assignment.calls[&1].needs);
        assert_eq!(plan.assignment.n_phases, 2);
        let ops: Vec<String> = plan.ops.iter().map(|o| format!("{o:?}")).collect();
        // The com phase's directive sits OUTSIDE the com loop.
        let pb2 = ops.iter().position(|o| o.contains("PhaseBegin(2)")).unwrap();
        let com_loop = ops.iter().position(|o| o.contains("\"com\"")).unwrap();
        let pe2 = ops.iter().position(|o| o.contains("PhaseEnd(2)")).unwrap();
        assert!(pb2 < com_loop && com_loop < pe2, "directive hoisted out of the loop: {ops:?}");
        // Without coalescing, the directive stays inside the loop.
        let (_, plan) = plan_of(&["T"], main, false);
        let ops: Vec<String> = plan.ops.iter().map(|o| format!("{o:?}")).collect();
        let com_loop = ops.iter().position(|o| o.contains("\"com\"")).unwrap();
        let pb2 = ops.iter().position(|o| o.contains("PhaseBegin(2)")).unwrap();
        assert!(pb2 > com_loop, "unoptimized directive stays inside the loop: {ops:?}");
    }

    /// A loop with a needs-call inside keeps its directives inside the
    /// loop (they repeat per iteration — that is what makes the schedule
    /// repetitive).
    #[test]
    fn opaque_loop_keeps_directives_inside() {
        let (_, plan) = plan_of(&["A"], "for it in 0 .. 2 { reader(A); }", true);
        let ops: Vec<String> = plan.ops.iter().map(|o| format!("{o:?}")).collect();
        let lb = ops.iter().position(|o| o.contains("LoopBegin")).unwrap();
        let pb = ops.iter().position(|o| o.contains("PhaseBegin")).unwrap();
        let le = ops.iter().position(|o| o.contains("LoopEnd")).unwrap();
        assert!(lb < pb && pb < le, "directive inside the loop: {ops:?}");
    }

    /// The Figure-4 Barnes main loop (the model the Figure 4 harness
    /// prints): four phases, with the center-of-mass loop covered by a
    /// single hoisted directive.
    #[test]
    fn barnes_main_loop_phases() {
        let path = format!("{}/../bench/models/barnes.cstar", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(path).unwrap();
        let c = compile_diag(&src, true, ClassifyRules::default()).unwrap();
        let (cfg, plan) = (c.cfg, c.plan);

        // Every call needs a schedule (load/forces by rule 2; com and
        // advance by rule 1).
        for id in [0usize, 1, 2, 3] {
            assert!(plan.assignment.calls[&id].needs, "call {id} needs a schedule");
        }
        // Four phases, as the paper reports for Barnes.
        assert_eq!(plan.assignment.n_phases, 4);
        // No two calls share a phase (tree and pos conflicts prevent all
        // merges) — but the com loop still has a single hoisted directive
        // covering every iteration of the level loop: phase 2.
        let ops: Vec<String> = plan.ops.iter().map(|o| format!("{o:?}")).collect();
        let pb2 = ops.iter().position(|o| o.contains("PhaseBegin(2)")).unwrap();
        let lvl = ops.iter().position(|o| o.contains("\"level\"")).unwrap();
        let pe2 = ops.iter().position(|o| o.contains("PhaseEnd(2)")).unwrap();
        assert!(pb2 < lvl && lvl < pe2, "single directive for the com phase: {ops:?}");
        let rendered = render_plan(&cfg, &plan);
        assert!(rendered.contains("for level"), "rendered plan:\n{rendered}");
    }

    /// A tree build whose insertions commute, and a tree reader.
    const TREE: &str = "aggregate T[8] of float;\n\
                        aggregate P[8] of float;\n\
                        parallel fn load_tree(p, t) { t[7 - #0] = t[7 - #0] + p[#0]; }\n\
                        parallel fn forces(t) { let x = t[7 - #0]; }\n";

    /// An annotated call with a provably commutative write gets a merge
    /// directive spliced right after it; unannotated calls do not.
    #[test]
    fn commute_annotation_splices_merge_op() {
        let src = format!(
            "{TREE}fn main() {{ for step in 0 .. 2 {{ commute load_tree(P, T); forces(T); }} }}"
        );
        let c = compile_diag(&src, true, ClassifyRules::default()).unwrap();
        let (cfg, plan) = (c.cfg, c.plan);
        let merge_pos = plan
            .ops
            .iter()
            .position(|o| matches!(o, ExecOp::CommutativeMerge { agg, call: 0, .. } if agg == "T"))
            .expect("merge op spliced");
        let call_pos =
            plan.ops.iter().position(|o| matches!(o, ExecOp::Call(0))).expect("call present");
        assert_eq!(merge_pos, call_pos + 1, "merge follows its call: {:?}", plan.ops);
        assert_eq!(
            plan.ops.iter().filter(|o| matches!(o, ExecOp::CommutativeMerge { .. })).count(),
            1,
            "only the annotated call merges"
        );
        let rendered = render_plan(&cfg, &plan);
        assert!(rendered.contains("merge(T)"), "rendered plan:\n{rendered}");
    }

    /// Annotation without a commutative write (the analysis said no) emits
    /// no merge op — the lint layer owns the E008 instead.
    #[test]
    fn annotation_without_commutative_write_is_inert() {
        let src = "aggregate T[8] of float;\n\
                   parallel fn load(t) { t[7 - #0] = 2.0 * t[7 - #0]; }\n\
                   fn main() { commute load(T); }\n";
        let plan = compile_diag(src, true, ClassifyRules::default()).unwrap().plan;
        assert!(
            !plan.ops.iter().any(|o| matches!(o, ExecOp::CommutativeMerge { .. })),
            "{:?}",
            plan.ops
        );
    }
}
