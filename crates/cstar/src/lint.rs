//! The `cstar-lint` suite: static phase-conflict and access-pattern lints
//! (W001–W005, W007, E008) over the access summaries, the annotated CFG,
//! and the directive plan.
//!
//! No lint walks the AST. The access-pattern lints read what
//! [`crate::sema`]'s one walk of each body records: W003 a site's
//! `#p ± c` offsets and `if` guard, W005 its remote-index flag, E008 the
//! parameter's commutativity class; call spans come from
//! [`crate::ast::Program::calls`].
//!
//! Each lint is a [`Diagnostic`] with a stable `W0xx` code (catalog in
//! [`crate::diag`]). [`lint_program`] runs every lint over a compiled
//! program with full source spans — the plan-level ones (W001/W002/W007)
//! included, which is how the Figure 4 harness audits the placement on
//! the C\*\* models of the paper's applications.

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::Cfg;
use crate::compile::CompiledProgram;
use crate::diag::{codes, Diagnostic, Span};
use crate::directives::{footprints, Footprint, PhaseAssignment};
use crate::sema::{AccessKind, Locality, ParamAccess};

/// Run every lint over a compiled program. Returns warnings sorted by
/// source position (spanless findings first).
pub fn lint_program(c: &CompiledProgram) -> Vec<Diagnostic> {
    let spans = call_spans(c);
    let mut out = plan_lints(c, &spans);
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

/// W001, W007 and W002 over the program's phase assignment.
fn plan_lints(c: &CompiledProgram, spans: &[Span]) -> Vec<Diagnostic> {
    let (cfg, asg) = (&c.cfg, &c.plan.assignment);
    let comm = footprints(cfg, &c.reaching);
    let mut out = Vec::new();
    for f in find_conflicts(cfg, &comm, asg) {
        let disp = conflict_commute_disposition(cfg, &f);
        // An annotated, provably commutative self-conflict is exactly what
        // the merge protocol resolves: W001 would be noise.
        if !(disp.resolved() && f.reader == f.writer) {
            out.push(render_conflict(c, spans, &f));
        }
        if disp.suggest() {
            out.push(render_commute_suggest(c, spans, &f));
        }
    }
    for f in find_dead(cfg, &comm, asg) {
        out.push(render_dead(&f, spans.get(f.call).copied()));
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
                    writer: w,
                    writer_func: func_of(w),
                });
            }
        }
    }
    out
}

fn render_conflict(c: &CompiledProgram, spans: &[Span], f: &ConflictFinding) -> Diagnostic {
    let mut d = Diagnostic::warning(
        codes::PHASE_CONFLICT,
        format!(
            "phase {} both reads and writes aggregate `{}` through communication",
            f.phase, f.agg
        ),
    );
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

fn render_commute_suggest(c: &CompiledProgram, spans: &[Span], f: &ConflictFinding) -> Diagnostic {
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
            let blame = c.program.func(func).zip(c.summaries.get(func)).and_then(|(f, sum)| {
                let mut bound = f.params.iter().zip(args).filter(|(_, a)| *a == agg);
                bound.find_map(|(p, _)| sum.classes.get(p)?.blame())
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

fn lint_static_oob(c: &CompiledProgram) -> Vec<Diagnostic> {
    // One finding per (argument, site, dimension): a site reached through
    // two calls with one argument reports once.
    let mut seen: BTreeSet<(&str, Span, usize)> = BTreeSet::new();
    let mut out = Vec::new();
    for (func, args) in &c.call_sites {
        let (Some(f), Some(sum)) = (c.program.func(func), c.summaries.get(func)) else { continue };
        let Some(par) = args.first().and_then(|a| c.program.agg(a)) else { continue };
        for site in &sum.sites {
            for (dim, &(pos, offset)) in
                site.offsets.iter().enumerate().filter_map(|(d, o)| Some((d, o.as_ref()?)))
            {
                if offset == 0 {
                    continue;
                }
                let Some(pi) = f.params.iter().position(|p| *p == site.param) else { continue };
                let Some(arg) = args.get(pi) else { continue };
                let Some(decl) = c.program.agg(arg) else { continue };
                let Some(&extent) = decl.dims.get(dim) else { continue };
                let Some(&par_extent) = par.dims.get(pos) else { continue };
                // The positions the enclosing conditions let reach the site.
                let (lo, hi) = site.guard.range(pos, par_extent);
                let (lo, hi) = (lo.saturating_add(offset), hi.saturating_add(offset));
                let worst = if lo > hi {
                    continue; // no position reaches it
                } else if lo < 0 {
                    lo
                } else if hi >= extent as i64 {
                    hi
                } else {
                    continue; // inside the extent for every position that reaches it
                };
                if !seen.insert((arg, site.span, dim)) {
                    continue;
                }
                out.push(
                    Diagnostic::warning(
                        codes::STATIC_OOB,
                        format!(
                            "constant offset can index `{}` out of bounds: reaches {}, but `{}` \
                             has extent 0..{} in dimension {}",
                            site.param, worst, arg, extent, dim
                        ),
                    )
                    .with_label(
                        site.span,
                        if site.guard.bounds(pos) {
                            "the enclosing condition does not keep this index in bounds"
                        } else {
                            "unguarded neighbor access"
                        },
                    )
                    .with_note(format!(
                        "guard it with a condition on #{} (the interpreter aborts on \
                         out-of-range indices)",
                        pos
                    )),
                );
            }
        }
    }
    out
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
    for f in &c.program.funcs {
        let Some(sum) = c.summaries.get(&f.name) else { continue };
        for site in sum.sites.iter().filter(|s| s.remote_index) {
            out.push(
                Diagnostic::warning(
                    codes::UNSTRUCTURED_INDEX,
                    format!(
                        "index of the `{}` access in `{}` is computed from a non-home read",
                        site.param, f.name
                    ),
                )
                .with_label(site.span, "index depends on remote data")
                .with_note(
                    "§3.3: indices fed by remote values change as remote data changes, so \
                     the recorded schedule can mispredict every iteration",
                ),
            );
        }
    }
    out
}

/// Spans of `main`'s parallel calls, indexed by call-site id (shared with
/// the oracle for labeling its findings).
pub(crate) fn call_spans(c: &CompiledProgram) -> Vec<Span> {
    c.program.calls().into_iter().map(|(_, _, span)| span).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_diag;
    use crate::directives::CallDecision;
    use crate::sema::ClassifyRules;

    fn compiled(src: &str) -> CompiledProgram {
        compile_diag(src, true, ClassifyRules::default()).unwrap()
    }

    fn lints(src: &str) -> Vec<Diagnostic> {
        lint_program(&compiled(src))
    }

    /// The source text a label points at.
    fn text(src: &str, s: Span) -> String {
        src.chars().skip(s.lo as usize).take((s.hi - s.lo) as usize).collect()
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
        // one by hand, as a buggy compiler pass would, and the lints must
        // flag it.
        let mut c = compiled(
            "aggregate A[8] of float;\n\
             parallel fn scale(a) { a[#0] = 2.0 * a[#0]; }\n\
             fn main() { scale(A); }\n",
        );
        assert!(lint_program(&c).is_empty(), "compiler plan is clean");
        c.plan
            .assignment
            .calls
            .insert(0, CallDecision { needs: true, home_only: true, phase: Some(1) });
        c.plan.assignment.n_phases = 1;
        let ds = lint_program(&c);
        assert_eq!(codes_of(&ds), vec!["W002"], "{ds:#?}");
        assert!(ds[0].message.contains("scale"));
    }

    #[test]
    fn cross_call_conflict_in_hand_built_phase() {
        // Force reader and writer of the same aggregate into one phase.
        let src = "aggregate A[8] of float;\n\
                   parallel fn reader(a) { let x = a[7 - #0]; }\n\
                   parallel fn writer(a) { a[#0] = 1.0; }\n\
                   fn main() { for it in 0 .. 2 { reader(A); writer(A); } }\n";
        let mut c = compiled(src);
        for d in c.plan.assignment.calls.values_mut() {
            d.phase = Some(1);
        }
        c.plan.assignment.n_phases = 1;
        let ds = lint_program(&c);
        assert!(codes_of(&ds).contains(&"W001"), "{ds:#?}");
        let w = ds.iter().find(|d| d.code == "W001").unwrap();
        let labeled: Vec<String> = w.labels.iter().map(|l| text(src, l.span)).collect();
        assert_eq!(labeled, ["reader(A)", "writer(A)"], "{w:#?}");
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
        assert_eq!(oob.len(), 2, "one per (aggregate, site) binding: {ds:#?}");
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
        // A Barnes-style tree build: unstructured read+write of the tree
        // in one phase, every write a commutative insertion.
        let tree = |update: &str| {
            format!(
                "aggregate T[8] of float;\n\
                 parallel fn load_tree(t) {{ t[7 - #0] = {update}; }}\n\
                 fn main() {{ for step in 0 .. 2 {{ load_tree(T); }} }}\n"
            )
        };
        let ds = lints(&tree("t[7 - #0] + 1.0"));
        assert!(codes_of(&ds).contains(&"W001"), "{ds:#?}");
        assert!(codes_of(&ds).contains(&"W007"), "{ds:#?}");

        // An order-dependent update: W001 only.
        let ds = lints(&tree("2.0 * t[7 - #0]"));
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
