//! The `cstar-lint` suite: static phase-conflict and access-pattern lints
//! (W001–W005, W007, E008) over the AST, the annotated CFG, and the
//! directive plan.
//!
//! Each lint is a [`Diagnostic`] with a stable `W0xx` code (catalog in
//! [`crate::diag`]). [`lint_program`] runs every lint over a compiled
//! program with full source spans; [`audit_plan`] runs the plan-level
//! subset (W001/W002/W007) over hand-built analysis-only CFGs — the mode
//! the benchmark apps use to sanity-check their Figure-4-style phase
//! models. Both render a plan-level finding through the same function,
//! which labels source spans when there are any.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Expr, Stmt};
use crate::cfg::Cfg;
use crate::compile::CompiledProgram;
use crate::dataflow::ReachingUnstructured;
use crate::diag::{codes, Diagnostic, Span};
use crate::directives::{footprints, Footprint, PhaseAssignment};
use crate::sema::{classify_index, AccessKind, ClassifyRules, Locality, ParamAccess};

/// Run every lint over a compiled program. Returns warnings sorted by
/// source position (spanless findings first).
pub fn lint_program(c: &CompiledProgram) -> Vec<Diagnostic> {
    let spans = call_spans(c);
    let mut out = plan_lints(&c.cfg, &c.reaching, &c.plan.assignment, Some((c, &spans)));
    out.extend(lint_static_oob(c));
    out.extend(lint_unused(c));
    out.extend(lint_unstructured_index(c));
    out.extend(lint_commute(c, &spans));
    out.sort_by_key(|d| {
        let s = d.primary_span().unwrap_or_default();
        (s.line, s.lo, d.code.clone())
    });
    out
}

/// Audit a (possibly hand-built) directive plan: W001 phase conflicts,
/// W007 mergeable conflicts and W002 dead directives, without source
/// spans. This is the entry point for analysis-only CFGs
/// ([`crate::cfg::CfgBuilder`]), where no source text exists.
pub fn audit_plan(
    cfg: &Cfg,
    sol: &ReachingUnstructured,
    assignment: &PhaseAssignment,
) -> Vec<Diagnostic> {
    plan_lints(cfg, sol, assignment, None)
}

/// What a plan-level finding can point at: the compiled program and its
/// call spans, or nothing (a hand-built CFG).
type Source<'a> = Option<(&'a CompiledProgram, &'a [Span])>;

/// W001, W007 and W002 over a plan's phase assignment.
fn plan_lints(
    cfg: &Cfg,
    sol: &ReachingUnstructured,
    asg: &PhaseAssignment,
    src: Source,
) -> Vec<Diagnostic> {
    let comm = footprints(cfg, sol);
    let mut out = Vec::new();
    for f in find_conflicts(cfg, &comm, asg) {
        let disp = conflict_commute_disposition(cfg, &f);
        // An annotated, provably commutative self-conflict is exactly what
        // the merge protocol resolves: W001 would be noise.
        if !(disp.resolved() && f.reader == f.writer) {
            out.push(render_conflict(src, &f));
        }
        if disp.suggest() {
            out.push(render_commute_suggest(src, &f));
        }
    }
    for f in find_dead(cfg, &comm, asg) {
        out.push(render_dead(&f, src.and_then(|(_, spans)| spans.get(f.call).copied())));
    }
    out
}

const CONFLICT_NOTE: &str = "§3.4: blocks read and written within one phase instance become \
     conflict blocks; the predictive protocol takes no pre-send action for them";

const DEAD_NOTE: &str = "§4.3 placement rule: a schedule requires reaching unstructured \
     accesses plus owner writes, or unstructured accesses in the call itself";

const COMMUTE_NOTE: &str = "§3.4 leaves conflict blocks without protocol action (plain \
     ownership migration); a `commute` annotation lets the runtime privatize the updates \
     and bulk-install the merged state at the barrier instead";

// ---------------------------------------------------------------------
// Commutativity disposition of a conflict (W001 suppression + W007)
// ---------------------------------------------------------------------

/// How the commutativity analysis bears on one W001 conflict finding.
#[derive(Debug, Clone, Copy)]
struct CommuteDisposition {
    /// Every write of the conflicting aggregate in the writer call is a
    /// provably commutative reduction.
    commutative: bool,
    /// The writer call carries the `commute` annotation.
    annotated: bool,
}

impl CommuteDisposition {
    /// The conflict is handled by the merge protocol (annotated + proven).
    fn resolved(self) -> bool {
        self.commutative && self.annotated
    }

    /// W007 applies: mergeable but not yet annotated.
    fn suggest(self) -> bool {
        self.commutative && !self.annotated
    }
}

fn conflict_commute_disposition(cfg: &Cfg, f: &ConflictFinding) -> CommuteDisposition {
    let writer = cfg.call_node.get(f.writer).and_then(|&n| cfg.call(n));
    CommuteDisposition {
        commutative: writer
            .and_then(|w| w.access.get(&f.agg))
            .is_some_and(|pa| pa.commute && (pa.home_write || pa.nonhome_write)),
        annotated: writer.is_some_and(|w| w.commute_annotated),
    }
}

// ---------------------------------------------------------------------
// W001 — phase conflict
// ---------------------------------------------------------------------

struct ConflictFinding {
    phase: u32,
    agg: String,
    reader: usize,
    reader_func: String,
    writer: usize,
    writer_func: String,
}

fn find_conflicts(
    cfg: &Cfg,
    comm: &BTreeMap<usize, Footprint>,
    asg: &PhaseAssignment,
) -> Vec<ConflictFinding> {
    let func_of = |id: usize| -> String {
        cfg.call_node.get(id).and_then(|&n| cfg.call(n)).map(|c| c.func.clone()).unwrap_or_default()
    };
    let mut out = Vec::new();
    for phase in 1..=asg.n_phases {
        let ids = asg.calls_of_phase(phase);
        for (bit, agg) in cfg.aggs.iter().enumerate() {
            let m = 1u64 << bit;
            let reader = ids.iter().find(|id| comm.get(*id).is_some_and(|c| c.reads & m != 0));
            let writer = ids.iter().find(|id| comm.get(*id).is_some_and(|c| c.writes & m != 0));
            if let (Some(&r), Some(&w)) = (reader, writer) {
                out.push(ConflictFinding {
                    phase,
                    agg: agg.clone(),
                    reader: r,
                    reader_func: func_of(r),
                    writer: w,
                    writer_func: func_of(w),
                });
            }
        }
    }
    out
}

fn render_conflict(src: Source, f: &ConflictFinding) -> Diagnostic {
    let mut d = Diagnostic::warning(
        codes::PHASE_CONFLICT,
        format!(
            "phase {} both reads and writes aggregate `{}` through communication",
            f.phase, f.agg
        ),
    );
    let Some((c, spans)) = src else {
        // No source to point at: name the two calls.
        return d
            .with_note(format!(
                "communication reads from call `{}` (call {}); communication writes from call \
                 `{}` (call {})",
                f.reader_func, f.reader, f.writer_func, f.writer
            ))
            .with_note(CONFLICT_NOTE);
    };
    if f.reader == f.writer {
        // One call conflicts with itself: point at the two accesses.
        let (rs, ws) = access_spans_in_call(c, f.reader, &f.agg);
        match (rs, ws) {
            (Some(r), Some(w)) => {
                d = d
                    .with_label(r, format!("`{}` read here", f.agg))
                    .with_label(w, format!("`{}` written here", f.agg));
            }
            _ => {
                if let Some(&s) = spans.get(f.reader) {
                    d = d.with_label(s, "this call both reads and writes it");
                }
            }
        }
    } else {
        if let Some(&s) = spans.get(f.reader) {
            d = d.with_label(s, format!("communication reads of `{}` here", f.agg));
        }
        if let Some(&s) = spans.get(f.writer) {
            d = d.with_label(s, format!("communication writes of `{}` here", f.agg));
        }
    }
    d.with_note(CONFLICT_NOTE)
}

// ---------------------------------------------------------------------
// W007 — commutative-mergeable conflict, E008 — unsound annotation
// ---------------------------------------------------------------------

fn render_commute_suggest(src: Source, f: &ConflictFinding) -> Diagnostic {
    let mut d = Diagnostic::warning(
        codes::COMMUTE_SUGGEST,
        format!(
            "conflict phase {} over aggregate `{}` is commutative-mergeable; annotate call \
             `{}` (call {}) with `commute`",
            f.phase, f.agg, f.writer_func, f.writer
        ),
    );
    // Label both sides of the conflict: the reduction write and the read
    // that makes the phase conflicting.
    if let Some((c, spans)) = src {
        let (_, ws) = access_spans_in_call(c, f.writer, &f.agg);
        let (rs, _) = access_spans_in_call(c, f.reader, &f.agg);
        match (rs, ws) {
            (Some(r), Some(w)) => {
                d = d
                    .with_label(w, format!("commutative reduction of `{}` here", f.agg))
                    .with_label(r, format!("conflicting read of `{}` here", f.agg));
            }
            _ => {
                if let Some(&s) = spans.get(f.writer) {
                    d = d.with_label(s, "this call's updates all commute");
                }
            }
        }
    }
    d.with_note(format!(
        "every write of `{}` in `{}` is an associative-commutative reduction whose operand \
         does not observe the aggregate",
        f.agg, f.writer_func
    ))
    .with_note(COMMUTE_NOTE)
}

/// E008: `commute`-annotated calls whose annotation the analysis cannot
/// justify — a written aggregate fails the reduction classification, or a
/// same-phase call reads the privatized aggregate.
fn lint_commute(c: &CompiledProgram, spans: &[Span]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Phase membership from the op stream, so transparent calls coalesced
    // into a phase region count as same-phase readers.
    let phases = crate::oracle::phase_map(&c.plan.ops);
    let phase_of = |id: usize| phases.get(&id).copied().flatten();
    for &node in &c.cfg.call_nodes() {
        let Some(call) = c.cfg.call(node) else { continue };
        if !call.commute_annotated {
            continue;
        }
        let id = call.id;
        let Some((func, args)) = c.call_sites.get(id) else { continue };

        // (a) A written aggregate whose updates the analysis rejected.
        for (agg, pa) in &call.access {
            if !(pa.home_write || pa.nonhome_write) || pa.commute {
                continue;
            }
            let mut d = Diagnostic::error(
                codes::COMMUTE_UNSOUND,
                format!(
                    "unsound `commute` annotation: updates of aggregate `{agg}` in call \
                     `{func}` (call {id}) are not order-independent"
                ),
            );
            // Blame the offending access inside the callee.
            let blame = c.program.func(func).and_then(|f| {
                let rules = ClassifyRules::default();
                let classes = crate::commute::classify_fn(f, rules);
                f.params.iter().zip(args).filter(|(_, a)| *a == agg).find_map(|(p, _)| {
                    classes.get(p).and_then(|cl| cl.blame().map(|(r, s)| (r.to_string(), s)))
                })
            });
            if let Some((reason, span)) = blame {
                d = d.with_label(span, reason);
            } else if let Some(&s) = spans.get(id) {
                d = d.with_label(s, "annotated here");
            }
            out.push(d.with_note(COMMUTE_NOTE));
        }

        // (b) A same-phase sibling reads the privatized aggregate: it would
        // observe stale pre-merge state.
        let Some(phase) = phase_of(id) else { continue };
        for agg in call.commute_aggs() {
            for &onode in &c.cfg.call_nodes() {
                let Some(other) = c.cfg.call(onode) else { continue };
                if other.id == id || phase_of(other.id) != Some(phase) {
                    continue;
                }
                let reads = other.access.get(agg).is_some_and(|pa| pa.home_read || pa.nonhome_read);
                if !reads {
                    continue;
                }
                let mut d = Diagnostic::error(
                    codes::COMMUTE_UNSOUND,
                    format!(
                        "unsound `commute` annotation: call `{}` (call {}) reads aggregate \
                         `{agg}` in the same phase {phase} that call `{func}` (call {id}) \
                         updates it under privatization",
                        other.func, other.id
                    ),
                );
                let (rs, _) = access_spans_in_call(c, other.id, agg);
                if let Some(r) = rs {
                    d = d.with_label(r, "this read would observe the un-merged aggregate");
                } else if let Some(&s) = spans.get(other.id) {
                    d = d.with_label(s, "reads the privatized aggregate here");
                }
                if let Some(&s) = spans.get(id) {
                    d = d.with_label(s, "privatized updates originate here");
                }
                out.push(d.with_note(
                    "deltas are merged only at the phase barrier; same-phase readers see \
                     whatever their node's private copy holds",
                ));
            }
        }
    }
    out
}

/// Spans of a non-home read and a write of `agg` inside call `id`'s callee.
fn access_spans_in_call(c: &CompiledProgram, id: usize, agg: &str) -> (Option<Span>, Option<Span>) {
    let Some((func, args)) = c.call_sites.get(id) else { return (None, None) };
    let Some(f) = c.program.func(func) else { return (None, None) };
    let Some(sum) = c.summaries.get(func) else { return (None, None) };
    let mut read = None;
    let mut write = None;
    for (param, arg) in f.params.iter().zip(args) {
        if arg != agg {
            continue;
        }
        read =
            read.or_else(|| sum.site(param, AccessKind::Read, Locality::NonHome).map(|s| s.span));
        write = write
            .or_else(|| sum.site(param, AccessKind::Write, Locality::Home).map(|s| s.span))
            .or_else(|| sum.site(param, AccessKind::Write, Locality::NonHome).map(|s| s.span));
    }
    (read, write)
}

// ---------------------------------------------------------------------
// W002 — dead directive
// ---------------------------------------------------------------------

struct DeadFinding {
    call: usize,
    func: String,
}

fn find_dead(
    cfg: &Cfg,
    comm: &BTreeMap<usize, Footprint>,
    asg: &PhaseAssignment,
) -> Vec<DeadFinding> {
    let mut out = Vec::new();
    for (&id, d) in &asg.calls {
        if !d.needs || comm.get(&id).is_some_and(|c| c.needs()) {
            continue;
        }
        let func = cfg
            .call_node
            .get(id)
            .and_then(|&n| cfg.call(n))
            .map(|c| c.func.clone())
            .unwrap_or_default();
        out.push(DeadFinding { call: id, func });
    }
    out
}

fn render_dead(f: &DeadFinding, span: Option<Span>) -> Diagnostic {
    let mut d = Diagnostic::warning(
        codes::DEAD_DIRECTIVE,
        format!(
            "dead directive: call `{}` (call {}) is scheduled but no unstructured access \
             reaches it and it performs none",
            f.func, f.call
        ),
    );
    if let Some(s) = span {
        d = d.with_label(s, "this call's schedule would never record anything");
    }
    d.with_note(DEAD_NOTE)
}

// ---------------------------------------------------------------------
// W003 — static out-of-bounds neighbor offsets
// ---------------------------------------------------------------------

/// One `#p ± c` index occurrence inside a function body.
struct OffsetHit {
    param: String,
    /// Dimension of the accessed aggregate this index selects.
    dim: usize,
    /// Which position pseudo-variable the offset applies to.
    pos: usize,
    /// Signed constant offset.
    offset: i64,
    span: Span,
    /// Mask of `#k` mentioned by enclosing `if` conditions.
    guard: u64,
}

fn lint_static_oob(c: &CompiledProgram) -> Vec<Diagnostic> {
    // Scan each function body once.
    let mut per_fn: BTreeMap<&str, Vec<OffsetHit>> = BTreeMap::new();
    for f in &c.program.funcs {
        let mut hits = Vec::new();
        scan_stmts_oob(&f.body, 0, &mut hits);
        per_fn.insert(f.name.as_str(), hits);
    }

    let mut seen: BTreeSet<(String, String, usize, i64)> = BTreeSet::new();
    let mut out = Vec::new();
    for (func, args) in &c.call_sites {
        let Some(f) = c.program.func(func) else { continue };
        let Some(par) = args.first().and_then(|a| c.program.agg(a)) else { continue };
        for hit in per_fn.get(func.as_str()).map_or(&[][..], |v| v) {
            if hit.guard & (1 << hit.pos) != 0 {
                continue; // an enclosing `if` mentions #pos: assumed guarded
            }
            let Some(pi) = f.params.iter().position(|p| *p == hit.param) else { continue };
            let Some(arg) = args.get(pi) else { continue };
            let Some(decl) = c.program.agg(arg) else { continue };
            let Some(&extent) = decl.dims.get(hit.dim) else { continue };
            let Some(&par_extent) = par.dims.get(hit.pos) else { continue };
            let worst = if hit.offset < 0 {
                hit.offset // position 0 underflows
            } else {
                par_extent as i64 - 1 + hit.offset // last position overflows
            };
            if worst >= 0 && (worst as usize) < extent {
                continue; // offset stays inside the extent for every position
            }
            if !seen.insert((func.clone(), arg.clone(), hit.dim, hit.offset)) {
                continue;
            }
            out.push(
                Diagnostic::warning(
                    codes::STATIC_OOB,
                    format!(
                        "constant offset can index `{}` out of bounds: reaches {}, but `{}` \
                         has extent 0..{} in dimension {}",
                        hit.param, worst, arg, extent, hit.dim
                    ),
                )
                .with_label(hit.span, "unguarded neighbor access")
                .with_note(format!(
                    "guard it with a condition on #{} (the interpreter aborts on \
                     out-of-range indices)",
                    hit.pos
                )),
            );
        }
    }
    out
}

fn scan_stmts_oob(stmts: &[Stmt], guard: u64, hits: &mut Vec<OffsetHit>) {
    for s in stmts {
        match s {
            Stmt::Let(_, e) | Stmt::AssignLocal(_, e) => scan_expr_oob(e, guard, hits),
            Stmt::AssignAgg { agg, idx, value, span } => {
                check_offsets(agg, idx, *span, guard, hits);
                for i in idx {
                    scan_expr_oob(i, guard, hits);
                }
                scan_expr_oob(value, guard, hits);
            }
            Stmt::If(cond, t, e) => {
                scan_expr_oob(cond, guard, hits);
                let g = guard | pos_mask(cond);
                scan_stmts_oob(t, g, hits);
                scan_stmts_oob(e, g, hits);
            }
            Stmt::For { lo, hi, body, .. } => {
                scan_expr_oob(lo, guard, hits);
                scan_expr_oob(hi, guard, hits);
                scan_stmts_oob(body, guard, hits);
            }
        }
    }
}

fn scan_expr_oob(e: &Expr, guard: u64, hits: &mut Vec<OffsetHit>) {
    match e {
        Expr::AggRead { agg, idx, span } => {
            check_offsets(agg, idx, *span, guard, hits);
            for i in idx {
                scan_expr_oob(i, guard, hits);
            }
        }
        Expr::Bin(_, a, b) => {
            scan_expr_oob(a, guard, hits);
            scan_expr_oob(b, guard, hits);
        }
        Expr::Neg(a) => scan_expr_oob(a, guard, hits),
        Expr::Builtin(_, args) => {
            for a in args {
                scan_expr_oob(a, guard, hits);
            }
        }
        Expr::Num(_) | Expr::Int(_) | Expr::Var(_) | Expr::Pos(_) => {}
    }
}

fn check_offsets(param: &str, idx: &[Expr], span: Span, guard: u64, hits: &mut Vec<OffsetHit>) {
    for (dim, e) in idx.iter().enumerate() {
        if let Some((pos, offset)) = const_offset(e) {
            if offset != 0 {
                hits.push(OffsetHit { param: param.to_string(), dim, pos, offset, span, guard });
            }
        }
    }
}

/// Match `#p + c`, `#p - c`, or `c + #p`; returns `(p, signed offset)`.
fn const_offset(e: &Expr) -> Option<(usize, i64)> {
    use crate::ast::BinOp::{Add, Sub};
    match e {
        Expr::Bin(Add, a, b) => match (&**a, &**b) {
            (Expr::Pos(p), Expr::Int(c)) | (Expr::Int(c), Expr::Pos(p)) => Some((*p, *c)),
            _ => None,
        },
        Expr::Bin(Sub, a, b) => match (&**a, &**b) {
            (Expr::Pos(p), Expr::Int(c)) => Some((*p, -c)),
            _ => None,
        },
        _ => None,
    }
}

/// Mask of position pseudo-variables mentioned anywhere in an expression.
fn pos_mask(e: &Expr) -> u64 {
    match e {
        Expr::Pos(k) => 1u64 << (*k).min(63),
        Expr::AggRead { idx, .. } => idx.iter().map(pos_mask).fold(0, |a, b| a | b),
        Expr::Bin(_, a, b) => pos_mask(a) | pos_mask(b),
        Expr::Neg(a) => pos_mask(a),
        Expr::Builtin(_, args) => args.iter().map(pos_mask).fold(0, |a, b| a | b),
        Expr::Num(_) | Expr::Int(_) | Expr::Var(_) => 0,
    }
}

// ---------------------------------------------------------------------
// W004 — unused aggregate / write-never-read
// ---------------------------------------------------------------------

fn lint_unused(c: &CompiledProgram) -> Vec<Diagnostic> {
    let mut union: BTreeMap<&str, ParamAccess> = BTreeMap::new();
    for &node in &c.cfg.call_nodes() {
        let Some(call) = c.cfg.call(node) else { continue };
        for (agg, pa) in &call.access {
            let e = union.entry(agg.as_str()).or_default();
            e.home_read |= pa.home_read;
            e.home_write |= pa.home_write;
            e.nonhome_read |= pa.nonhome_read;
            e.nonhome_write |= pa.nonhome_write;
        }
    }
    let mut out = Vec::new();
    for decl in &c.program.aggs {
        let a = union.get(decl.name.as_str()).copied().unwrap_or_default();
        if !a.any() {
            out.push(
                Diagnostic::warning(
                    codes::UNUSED_AGG,
                    format!("aggregate `{}` is never accessed by any parallel call", decl.name),
                )
                .with_label(decl.span, "declared here")
                .with_note("it still occupies distributed shared memory on every node"),
            );
        } else if (a.home_write || a.nonhome_write) && !(a.home_read || a.nonhome_read) {
            out.push(
                Diagnostic::warning(
                    codes::UNUSED_AGG,
                    format!("aggregate `{}` is written but never read", decl.name),
                )
                .with_label(decl.span, "declared here")
                .with_note(
                    "its writes still invalidate remote copies and may be scheduled for \
                     pre-sending",
                ),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------
// W005 — index fed by a non-home read
// ---------------------------------------------------------------------

fn lint_unstructured_index(c: &CompiledProgram) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
    for f in &c.program.funcs {
        let mut taints: BTreeSet<String> = BTreeSet::new();
        let mut hits: Vec<(String, Span)> = Vec::new();
        scan_stmts_taint(&f.body, &mut taints, &mut hits);
        for (param, span) in hits {
            if !seen.insert((span.lo, span.hi)) {
                continue;
            }
            out.push(
                Diagnostic::warning(
                    codes::UNSTRUCTURED_INDEX,
                    format!(
                        "index of the `{param}` access in `{}` is computed from a \
                             non-home read",
                        f.name
                    ),
                )
                .with_label(span, "index depends on remote data")
                .with_note(
                    "§3.3: indices fed by remote values change as remote data changes, so \
                     the recorded schedule can mispredict every iteration",
                ),
            );
        }
    }
    out
}

fn scan_stmts_taint(stmts: &[Stmt], taints: &mut BTreeSet<String>, hits: &mut Vec<(String, Span)>) {
    for s in stmts {
        match s {
            Stmt::Let(name, e) | Stmt::AssignLocal(name, e) => {
                scan_expr_taint(e, taints, hits);
                if tainted(e, taints) {
                    taints.insert(name.clone());
                }
            }
            Stmt::AssignAgg { agg, idx, value, span } => {
                if idx.iter().any(|i| tainted(i, taints)) {
                    hits.push((agg.clone(), *span));
                }
                for i in idx {
                    scan_expr_taint(i, taints, hits);
                }
                scan_expr_taint(value, taints, hits);
            }
            Stmt::If(cond, t, e) => {
                scan_expr_taint(cond, taints, hits);
                scan_stmts_taint(t, taints, hits);
                scan_stmts_taint(e, taints, hits);
            }
            Stmt::For { lo, hi, body, .. } => {
                scan_expr_taint(lo, taints, hits);
                scan_expr_taint(hi, taints, hits);
                scan_stmts_taint(body, taints, hits);
            }
        }
    }
}

fn scan_expr_taint(e: &Expr, taints: &BTreeSet<String>, hits: &mut Vec<(String, Span)>) {
    match e {
        Expr::AggRead { agg, idx, span } => {
            if idx.iter().any(|i| tainted(i, taints)) {
                hits.push((agg.clone(), *span));
            }
            for i in idx {
                scan_expr_taint(i, taints, hits);
            }
        }
        Expr::Bin(_, a, b) => {
            scan_expr_taint(a, taints, hits);
            scan_expr_taint(b, taints, hits);
        }
        Expr::Neg(a) => scan_expr_taint(a, taints, hits),
        Expr::Builtin(_, args) => {
            for a in args {
                scan_expr_taint(a, taints, hits);
            }
        }
        Expr::Num(_) | Expr::Int(_) | Expr::Var(_) | Expr::Pos(_) => {}
    }
}

/// Does the expression draw on remote data: a tainted local, or a non-home
/// aggregate read anywhere inside it?
fn tainted(e: &Expr, taints: &BTreeSet<String>) -> bool {
    match e {
        Expr::Var(name) => taints.contains(name),
        Expr::AggRead { idx, .. } => {
            classify_index(idx) == Locality::NonHome || idx.iter().any(|i| tainted(i, taints))
        }
        Expr::Bin(_, a, b) => tainted(a, taints) || tainted(b, taints),
        Expr::Neg(a) => tainted(a, taints),
        Expr::Builtin(_, args) => args.iter().any(|a| tainted(a, taints)),
        Expr::Num(_) | Expr::Int(_) | Expr::Pos(_) => false,
    }
}

// ---------------------------------------------------------------------
// Call-site spans
// ---------------------------------------------------------------------

/// Spans of `main`'s parallel calls, indexed by call-site id (shared with
/// the oracle for labeling its findings).
pub(crate) fn call_spans(c: &CompiledProgram) -> Vec<Span> {
    use crate::ast::SeqStmt;
    fn walk(stmts: &[SeqStmt], out: &mut Vec<Span>) {
        for s in stmts {
            match s {
                SeqStmt::Call { span, .. } => out.push(*span),
                SeqStmt::For { body, .. } => walk(body, out),
            }
        }
    }
    let mut out = Vec::new();
    walk(&c.program.main, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::CfgBuilder;
    use crate::compile::compile_diag;
    use crate::directives::{place_directives, CallDecision};
    use crate::sema::ClassifyRules;

    fn lints(src: &str) -> Vec<Diagnostic> {
        lint_program(&compile_diag(src, true, ClassifyRules::default()).unwrap())
    }

    fn codes_of(ds: &[Diagnostic]) -> Vec<&str> {
        ds.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn self_conflict_fires_w001_with_both_spans() {
        let src = "aggregate A[16] of float;\n\
                   parallel fn relax(x, y) {\n\
                       if #0 < 15 {\n\
                           x[#0] = y[#0+1];\n\
                       }\n\
                   }\n\
                   fn main() {\n\
                       for it in 0 .. 4 {\n\
                           relax(A, A);\n\
                       }\n\
                   }\n";
        let ds = lints(src);
        assert_eq!(codes_of(&ds), vec!["W001"], "{ds:#?}");
        assert!(ds[0].message.contains("`A`"));
        assert_eq!(ds[0].labels.len(), 2, "read and write sites labeled");
    }

    #[test]
    fn clean_two_phase_program_is_silent() {
        let src = "aggregate G[64] of float;\n\
                   aggregate H[64] of float;\n\
                   parallel fn sweep(g, h) {\n\
                       if #0 > 0 {\n\
                           if #0 < 63 {\n\
                               h[#0] = 0.5 * (g[#0-1] + g[#0+1]);\n\
                           }\n\
                       }\n\
                   }\n\
                   fn main() {\n\
                       for it in 0 .. 4 {\n\
                           sweep(G, H);\n\
                           sweep(H, G);\n\
                       }\n\
                   }\n";
        let ds = lints(src);
        assert!(ds.is_empty(), "{ds:#?}");
    }

    #[test]
    fn dead_directive_fires_on_forced_assignment() {
        // Home-only program: nothing legitimately needs a schedule. Force
        // one by hand and the audit must flag it.
        let mut b = CfgBuilder::new(["A".to_string()]);
        b.call("scale", &[("A", true, true, false, false)]);
        let cfg = b.finish();
        let sol = ReachingUnstructured::solve(&cfg).unwrap();
        let mut plan = place_directives(&cfg, &sol, true);
        assert!(audit_plan(&cfg, &sol, &plan.assignment).is_empty(), "compiler plan is clean");
        plan.assignment
            .calls
            .insert(0, CallDecision { needs: true, home_only: true, phase: Some(1) });
        plan.assignment.n_phases = 1;
        let ds = audit_plan(&cfg, &sol, &plan.assignment);
        assert_eq!(codes_of(&ds), vec!["W002"], "{ds:#?}");
        assert!(ds[0].message.contains("scale"));
    }

    #[test]
    fn cross_call_conflict_in_hand_built_phase() {
        // Force reader and writer of the same aggregate into one phase.
        let mut b = CfgBuilder::new(["A".to_string()]);
        b.begin_loop("it");
        b.call("reader", &[("A", false, false, true, false)]);
        b.call("writer", &[("A", false, true, false, false)]);
        b.end_loop();
        let cfg = b.finish();
        let sol = ReachingUnstructured::solve(&cfg).unwrap();
        let mut plan = place_directives(&cfg, &sol, true);
        for d in plan.assignment.calls.values_mut() {
            d.phase = Some(1);
        }
        plan.assignment.n_phases = 1;
        let ds = audit_plan(&cfg, &sol, &plan.assignment);
        assert!(codes_of(&ds).contains(&"W001"), "{ds:#?}");
        let w = ds.iter().find(|d| d.code == "W001").unwrap();
        assert!(w.notes[0].contains("reader") && w.notes[0].contains("writer"));
    }

    #[test]
    fn unguarded_offset_fires_w003_and_guard_suppresses() {
        let src = "aggregate G[32] of float;\n\
                   aggregate H[32] of float;\n\
                   parallel fn f(g, h) {\n\
                       h[#0] = g[#0-1];\n\
                   }\n\
                   fn main() { f(G, H); f(H, G); }\n";
        let ds = lints(src);
        let oob: Vec<_> = ds.iter().filter(|d| d.code == "W003").collect();
        assert_eq!(oob.len(), 2, "one per (agg, offset) binding: {ds:#?}");
        assert!(oob[0].message.contains("reaches -1"));

        let guarded = "aggregate G[32] of float;\n\
                       aggregate H[32] of float;\n\
                       parallel fn f(g, h) {\n\
                           if #0 > 0 {\n\
                               h[#0] = g[#0-1];\n\
                           }\n\
                       }\n\
                       fn main() { f(G, H); f(H, G); }\n";
        assert!(lints(guarded).iter().all(|d| d.code != "W003"));
    }

    #[test]
    fn in_range_offset_is_not_flagged() {
        // Parallel aggregate is shorter than the accessed one: #0+2 stays
        // in bounds for every position.
        let src = "aggregate S[8] of float;\n\
                   aggregate L[16] of float;\n\
                   parallel fn f(s, l) {\n\
                       s[#0] = l[#0+2];\n\
                   }\n\
                   fn main() { f(S, L); }\n";
        let ds = lints(src);
        assert!(ds.iter().all(|d| d.code != "W003"), "{ds:#?}");
    }

    #[test]
    fn unused_and_write_only_fire_w004() {
        let src = "aggregate A[8] of float;\n\
                   aggregate Dead[8] of float;\n\
                   aggregate Sink[8] of float;\n\
                   parallel fn f(a, sink) {\n\
                       sink[#0] = a[#0];\n\
                   }\n\
                   fn main() { f(A, Sink); }\n";
        let ds = lints(src);
        let w4: Vec<_> = ds.iter().filter(|d| d.code == "W004").collect();
        assert_eq!(w4.len(), 2, "{ds:#?}");
        assert!(w4
            .iter()
            .any(|d| d.message.contains("`Dead`") && d.message.contains("never accessed")));
        assert!(w4
            .iter()
            .any(|d| d.message.contains("`Sink`") && d.message.contains("never read")));
    }

    #[test]
    fn commutable_conflict_fires_w007_with_both_spans() {
        // Histogram: unstructured reduction into `h` self-conflicts (W001)
        // and every write commutes — W007 suggests the annotation.
        let src = "aggregate H[32] of float;\n\
                   aggregate X[32] of int;\n\
                   parallel fn bump(h, x) {\n\
                       h[x[#0]] = h[x[#0]] + 1.0;\n\
                   }\n\
                   fn main() {\n\
                       for it in 0 .. 2 {\n\
                           bump(H, X);\n\
                       }\n\
                   }\n";
        let ds = lints(src);
        assert!(codes_of(&ds).contains(&"W001"), "{ds:#?}");
        let w7 = ds.iter().find(|d| d.code == "W007").expect("W007 fires");
        assert!(w7.message.contains("`H`") && w7.message.contains("commute"));
        assert_eq!(w7.labels.len(), 2, "reduction and read sites labeled: {w7:#?}");
        assert!(ds.iter().all(|d| d.code != "E008"), "{ds:#?}");
    }

    #[test]
    fn commute_annotation_suppresses_w001_and_w007() {
        let src = "aggregate H[32] of float;\n\
                   aggregate X[32] of int;\n\
                   parallel fn bump(h, x) {\n\
                       h[x[#0]] = h[x[#0]] + 1.0;\n\
                   }\n\
                   fn main() {\n\
                       for it in 0 .. 2 {\n\
                           commute bump(H, X);\n\
                       }\n\
                   }\n";
        let ds = lints(src);
        assert!(ds.is_empty(), "annotated sound reduction is clean: {ds:#?}");
    }

    #[test]
    fn unsound_annotation_fires_e008_with_blame() {
        let src = "aggregate H[32] of float;\n\
                   aggregate X[32] of int;\n\
                   parallel fn scale(h, x) {\n\
                       h[x[#0]] = 2.0 * h[x[#0]] + 1.0;\n\
                   }\n\
                   fn main() { commute scale(H, X); }\n";
        let ds = lints(src);
        let e8 = ds.iter().find(|d| d.code == "E008").expect("E008 fires: {ds:#?}");
        assert!(e8.message.contains("`H`") && e8.message.contains("not order-independent"));
        assert!(!e8.labels.is_empty(), "blame span attached: {e8:#?}");
        // The unresolved conflict still warns.
        assert!(codes_of(&ds).contains(&"W001"), "{ds:#?}");
    }

    #[test]
    fn same_phase_reader_of_privatized_agg_fires_e008() {
        // `probe` is transparent (home accesses only) so it coalesces into
        // bump's phase — where it would read un-merged private state.
        let src = "aggregate H[32] of float;\n\
                   aggregate X[32] of int;\n\
                   aggregate S[32] of float;\n\
                   parallel fn bump(h, x) {\n\
                       h[x[#0]] = h[x[#0]] + 1.0;\n\
                   }\n\
                   parallel fn probe(s, h) {\n\
                       s[#0] = h[#0];\n\
                   }\n\
                   fn main() {\n\
                       commute bump(H, X);\n\
                       probe(S, H);\n\
                   }\n";
        let ds = lints(src);
        let e8 = ds.iter().find(|d| d.code == "E008").expect("E008 fires");
        assert!(e8.message.contains("probe") && e8.message.contains("`H`"), "{e8:#?}");
    }

    #[test]
    fn audit_plan_suggests_w007_for_commuting_writer() {
        // Hand-built Barnes-style tree build: unstructured read+write of
        // the tree in one phase, writes declared commutative (insertions).
        let mut b = CfgBuilder::new(["tree".to_string()]);
        b.begin_loop("step");
        b.call_commuting("load_tree", &[("tree", false, false, true, true)], &["tree"], false);
        b.end_loop();
        let cfg = b.finish();
        let sol = ReachingUnstructured::solve(&cfg).unwrap();
        let plan = place_directives(&cfg, &sol, true);
        let ds = audit_plan(&cfg, &sol, &plan.assignment);
        assert!(codes_of(&ds).contains(&"W001"), "{ds:#?}");
        assert!(codes_of(&ds).contains(&"W007"), "{ds:#?}");

        // Without the commute flag: W001 only.
        let mut b = CfgBuilder::new(["tree".to_string()]);
        b.begin_loop("step");
        b.call("load_tree", &[("tree", false, false, true, true)]);
        b.end_loop();
        let cfg = b.finish();
        let sol = ReachingUnstructured::solve(&cfg).unwrap();
        let plan = place_directives(&cfg, &sol, true);
        let ds = audit_plan(&cfg, &sol, &plan.assignment);
        assert!(codes_of(&ds).contains(&"W001"), "{ds:#?}");
        assert!(!codes_of(&ds).contains(&"W007"), "{ds:#?}");
    }

    #[test]
    fn remote_fed_index_fires_w005_and_home_fed_does_not() {
        let src = "aggregate A[16] of float;\n\
                   aggregate P[16] of int;\n\
                   parallel fn gather(a, p) {\n\
                       let k = p[#0+1];\n\
                       a[#0] = a[k];\n\
                   }\n\
                   fn main() { gather(A, P); }\n";
        let ds = lints(src);
        assert!(ds.iter().any(|d| d.code == "W005"), "{ds:#?}");

        let home = "aggregate A[16] of float;\n\
                    aggregate P[16] of int;\n\
                    parallel fn gather(a, p) {\n\
                        let k = p[#0];\n\
                        a[#0] = a[k];\n\
                    }\n\
                    fn main() { gather(A, P); }\n";
        assert!(lints(home).iter().all(|d| d.code != "W005"));
    }
}
