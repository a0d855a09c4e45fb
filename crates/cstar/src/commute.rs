//! Commutativity analysis (§3.4 payload) and the merge-soundness oracle.
//!
//! The §3.4 dataflow leaves *conflict phases* — phases whose blocks are
//! both read and written through communication — without any protocol
//! action: the predictive protocol marks their blocks conflict and falls
//! back to plain ownership migration. For Barnes' tree build that fallback
//! dominates the message count. This module supplies the compiler half of
//! the fix:
//!
//! 1. **Static classification** ([`classify_fn`]): for each parallel
//!    function and each aggregate parameter, decide whether every update is
//!    an *associative-commutative reduction* — `p[i] = p[i] + v`,
//!    `p[i] = p[i] - v`, `p[i] = min(p[i], v)`, `p[i] = max(p[i], v)` with
//!    `v` and `i` independent of `p` — and no read observes `p` outside
//!    those self-reads. Such updates may execute against a private per-node
//!    buffer and merge at the phase barrier in any node order.
//!    The verdict feeds [`crate::sema::ParamAccess::commute`], the W007 /
//!    E008 lints, and the [`crate::directives::ExecOp::CommutativeMerge`]
//!    directive.
//! 2. **Dynamic validation** ([`validate_merges`]): replay every
//!    `CommutativeMerge` directive of a compiled plan twice over a
//!    deterministic sequential model — once serialized in element order,
//!    once privatized per node with a delta log merged in node order — and
//!    report any diverging element as an `E008` with its witness block.
//!    The [`crate::sema::ClassifyRules::assume_commutative`] weakening
//!    exists precisely so a mutation test can force a non-commutative
//!    update through the static check and watch this oracle catch it.

use std::collections::BTreeMap;

use crate::ast::{BinOp, Builtin, ElemTy, Expr, ParFn, Stmt};
use crate::compile::CompiledProgram;
use crate::diag::{codes, Diagnostic, Span};
use crate::directives::ExecOp;
use crate::interp::{seeded_value, Value};
use crate::sema::ClassifyRules;

/// The merge operator of a recognized reduction update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOp {
    /// `p[i] = p[i] + v` (or `- v`, logged with a negated operand).
    Add,
    /// `p[i] = min(p[i], v)`.
    Min,
    /// `p[i] = max(p[i], v)`.
    Max,
}

/// Per-parameter commutativity verdict of one parallel function.
#[derive(Debug, Clone, PartialEq)]
pub enum CommuteClass {
    /// The parameter is never written — nothing to privatize.
    ReadOnly,
    /// Every write is a commutative reduction and every read of the
    /// parameter is the self-read embedded in one of them. `ops` lists the
    /// recognized reduction sites in body order (empty only under the
    /// [`ClassifyRules::assume_commutative`] weakening).
    Commutative {
        /// Recognized reduction updates: operator and source span.
        ops: Vec<(MergeOp, Span)>,
    },
    /// Order matters: merging privatized copies could change the result.
    OrderDependent {
        /// Why the classification failed.
        reason: String,
        /// The offending access.
        span: Span,
    },
}

impl CommuteClass {
    /// Is the parameter provably (or assumedly) mergeable?
    pub fn is_commutative(&self) -> bool {
        matches!(self, CommuteClass::Commutative { .. })
    }

    /// The blame site of an order-dependent verdict.
    pub fn blame(&self) -> Option<(&str, Span)> {
        match self {
            CommuteClass::OrderDependent { reason, span } => Some((reason.as_str(), *span)),
            _ => None,
        }
    }
}

/// A matched reduction update `p[idx] = op(p[idx], operand)`.
struct Reduction<'a> {
    op: MergeOp,
    operand: &'a Expr,
    /// `p[i] - v`: log `Add` with the operand negated.
    negate: bool,
}

/// Structural expression equality, ignoring source spans (a self-read
/// sits at a different offset than the write target it mirrors).
fn expr_eq(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::Num(x), Expr::Num(y)) => x.to_bits() == y.to_bits(),
        (Expr::Int(x), Expr::Int(y)) => x == y,
        (Expr::Var(x), Expr::Var(y)) => x == y,
        (Expr::Pos(x), Expr::Pos(y)) => x == y,
        (Expr::AggRead { agg: ax, idx: ix, .. }, Expr::AggRead { agg: ay, idx: iy, .. }) => {
            ax == ay && ix.len() == iy.len() && ix.iter().zip(iy).all(|(x, y)| expr_eq(x, y))
        }
        (Expr::Bin(ox, ax, bx), Expr::Bin(oy, ay, by)) => {
            ox == oy && expr_eq(ax, ay) && expr_eq(bx, by)
        }
        (Expr::Neg(x), Expr::Neg(y)) => expr_eq(x, y),
        (Expr::Builtin(bx, ax), Expr::Builtin(by, ay)) => {
            bx == by && ax.len() == ay.len() && ax.iter().zip(ay).all(|(x, y)| expr_eq(x, y))
        }
        _ => false,
    }
}

/// Match `value` as a reduction over `p[idx]`. The self-read must be
/// structurally identical to the write's index vector (spans ignored).
fn match_reduction<'a>(p: &str, idx: &[Expr], value: &'a Expr) -> Option<Reduction<'a>> {
    let is_self = |e: &Expr| {
        matches!(e, Expr::AggRead { agg, idx: i, .. }
            if agg == p && i.len() == idx.len() && i.iter().zip(idx).all(|(x, y)| expr_eq(x, y)))
    };
    match value {
        Expr::Bin(BinOp::Add, a, b) => {
            if is_self(a) {
                Some(Reduction { op: MergeOp::Add, operand: b, negate: false })
            } else if is_self(b) {
                Some(Reduction { op: MergeOp::Add, operand: a, negate: false })
            } else {
                None
            }
        }
        // Subtraction commutes only with the accumulator on the left.
        Expr::Bin(BinOp::Sub, a, b) if is_self(a) => {
            Some(Reduction { op: MergeOp::Add, operand: b, negate: true })
        }
        Expr::Builtin(bi @ (Builtin::Min | Builtin::Max), args) if args.len() == 2 => {
            let op = if *bi == Builtin::Min { MergeOp::Min } else { MergeOp::Max };
            if is_self(&args[0]) {
                Some(Reduction { op, operand: &args[1], negate: false })
            } else if is_self(&args[1]) {
                Some(Reduction { op, operand: &args[0], negate: false })
            } else {
                None
            }
        }
        _ => None,
    }
}

/// First read of `p` anywhere inside `e`, if any.
fn first_read_of(e: &Expr, p: &str) -> Option<Span> {
    match e {
        Expr::AggRead { agg, idx, span } => {
            if agg == p {
                return Some(*span);
            }
            idx.iter().find_map(|i| first_read_of(i, p))
        }
        Expr::Bin(_, a, b) => first_read_of(a, p).or_else(|| first_read_of(b, p)),
        Expr::Neg(a) => first_read_of(a, p),
        Expr::Builtin(_, args) => args.iter().find_map(|a| first_read_of(a, p)),
        Expr::Num(_) | Expr::Int(_) | Expr::Var(_) | Expr::Pos(_) => None,
    }
}

/// Classify every parameter of `f` (see module docs). Under
/// [`ClassifyRules::assume_commutative`] any written parameter classifies
/// as `Commutative` regardless of its update shapes — the mutation hook.
pub fn classify_fn(f: &ParFn, rules: ClassifyRules) -> BTreeMap<String, CommuteClass> {
    let mut out = BTreeMap::new();
    for p in &f.params {
        out.insert(p.clone(), classify_param(f, p, rules));
    }
    out
}

fn classify_param(f: &ParFn, p: &str, rules: ClassifyRules) -> CommuteClass {
    let mut ops = Vec::new();
    let mut written = false;
    let mut bad: Option<(String, Span)> = None;
    scan_stmts(&f.body, p, rules, &mut ops, &mut written, &mut bad);
    if rules.assume_commutative {
        // Weakened: any write is declared mergeable. The dynamic merge
        // oracle is the only remaining line of defense.
        return if written { CommuteClass::Commutative { ops } } else { CommuteClass::ReadOnly };
    }
    match (written, bad) {
        // Never written ⇒ never privatized; stray reads are harmless.
        (false, _) => CommuteClass::ReadOnly,
        (true, Some((reason, span))) => CommuteClass::OrderDependent { reason, span },
        (true, None) => CommuteClass::Commutative { ops },
    }
}

fn scan_stmts(
    body: &[Stmt],
    p: &str,
    rules: ClassifyRules,
    ops: &mut Vec<(MergeOp, Span)>,
    written: &mut bool,
    bad: &mut Option<(String, Span)>,
) {
    for s in body {
        match s {
            Stmt::Let(_, e) | Stmt::AssignLocal(_, e) => {
                note_read(first_read_of(e, p), p, rules, bad);
            }
            Stmt::AssignAgg { agg, idx, value, span } => {
                // Index expressions may never read `p`, whoever the target.
                for i in idx {
                    note_read(first_read_of(i, p), p, rules, bad);
                }
                if agg == p {
                    *written = true;
                    match match_reduction(p, idx, value) {
                        Some(r) => {
                            ops.push((r.op, *span));
                            // Only the operand is scanned: the embedded
                            // self-read is the one sanctioned read of `p`.
                            if first_read_of(r.operand, p).is_some() && bad.is_none() {
                                *bad = Some((format!("the reduction operand reads `{p}`"), *span));
                            }
                        }
                        None => {
                            if bad.is_none() && !rules.assume_commutative {
                                *bad = Some((
                                    format!(
                                        "the update of `{p}` is not a `+=`/`-=`/`min`/`max` \
                                         reduction"
                                    ),
                                    *span,
                                ));
                            }
                        }
                    }
                } else {
                    note_read(first_read_of(value, p), p, rules, bad);
                }
            }
            Stmt::If(c, t, e) => {
                note_read(first_read_of(c, p), p, rules, bad);
                scan_stmts(t, p, rules, ops, written, bad);
                scan_stmts(e, p, rules, ops, written, bad);
            }
            Stmt::For { lo, hi, body, .. } => {
                note_read(first_read_of(lo, p), p, rules, bad);
                note_read(first_read_of(hi, p), p, rules, bad);
                scan_stmts(body, p, rules, ops, written, bad);
            }
        }
    }
}

fn note_read(hit: Option<Span>, p: &str, rules: ClassifyRules, bad: &mut Option<(String, Span)>) {
    if rules.assume_commutative {
        return;
    }
    if let Some(span) = hit {
        if bad.is_none() {
            *bad = Some((format!("a read observes `{p}` outside its reduction update"), span));
        }
    }
}

// ---------------------------------------------------------------------
// Dynamic merge validation (the E008 oracle)
// ---------------------------------------------------------------------

/// Parameters of the sequential merge-soundness model.
#[derive(Debug, Clone, Copy)]
pub struct MergeOracleConfig {
    /// Simulated nodes (privatization partitions).
    pub nodes: usize,
    /// Cache-block size in bytes (for witness block ids).
    pub block_size: usize,
    /// Seed of the deterministic initializer (matches the interpreter's).
    pub seed: u64,
}

impl Default for MergeOracleConfig {
    fn default() -> MergeOracleConfig {
        MergeOracleConfig { nodes: 4, block_size: 8, seed: 0x5eed }
    }
}

/// One aggregate of the sequential model.
#[derive(Debug, Clone)]
struct AggData {
    dims: Vec<usize>,
    ty: ElemTy,
    vals: Vec<Value>,
}

impl AggData {
    fn lin(&self, idx: &[i64]) -> Result<usize, String> {
        if idx.len() != self.dims.len() {
            return Err(format!("rank mismatch: {} vs {}", idx.len(), self.dims.len()));
        }
        let mut acc = 0usize;
        for (&i, &d) in idx.iter().zip(&self.dims) {
            if i < 0 || i as usize >= d {
                return Err(format!("index {i} out of bounds for extent {d}"));
            }
            acc = acc * d + i as usize;
        }
        Ok(acc)
    }
}

type SeqState = BTreeMap<String, AggData>;

/// One logged privatized update, replayed at the merge point.
#[derive(Debug, Clone, Copy)]
enum DeltaOp {
    Add(Value),
    Min(Value),
    Max(Value),
    /// Non-reduction write forced through by the weakened rules: replay
    /// overwrites with the privately computed value.
    Store(Value),
}

/// The delta log one privatized node accumulates: (aggregate, index, op).
type DeltaLog = Vec<(String, usize, DeltaOp)>;

fn apply_delta(cur: Value, d: DeltaOp) -> Value {
    match (d, cur) {
        (DeltaOp::Add(Value::I(v)), Value::I(c)) => Value::I(c.wrapping_add(v)),
        (DeltaOp::Add(v), c) => Value::F(c.as_f() + v.as_f()),
        (DeltaOp::Min(Value::I(v)), Value::I(c)) => Value::I(c.min(v)),
        (DeltaOp::Min(v), c) => Value::F(c.as_f().min(v.as_f())),
        (DeltaOp::Max(Value::I(v)), Value::I(c)) => Value::I(c.max(v)),
        (DeltaOp::Max(v), c) => Value::F(c.as_f().max(v.as_f())),
        (DeltaOp::Store(v), _) => v,
    }
}

/// Validate every `CommutativeMerge` directive of a compiled plan:
/// re-execute the plan on a deterministic sequential model and, at each
/// merged call, compare the serialized aggregate state against the
/// privatize-and-merge state. Divergence is reported as `E008` with the
/// witness block. Programs without merge directives validate trivially.
pub fn validate_merges(prog: &CompiledProgram, cfg: &MergeOracleConfig) -> Vec<Diagnostic> {
    // Merged aggregates per call id, from the plan itself.
    let mut merged: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for op in &prog.plan.ops {
        if let ExecOp::CommutativeMerge { call, agg, .. } = op {
            merged.entry(*call).or_default().push(agg.clone());
        }
    }
    if merged.is_empty() {
        return Vec::new();
    }

    let mut state = init_state(prog, cfg.seed);
    let spans = crate::lint::call_spans(prog);
    let mut out = Vec::new();

    // Execute the op sequence (same pc/loop discipline as the DSM
    // interpreter, minus the machine).
    let ops = &prog.plan.ops;
    let mut match_end = vec![usize::MAX; ops.len()];
    let mut stack = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            ExecOp::LoopBegin { .. } => stack.push(i),
            ExecOp::LoopEnd => {
                if let Some(b) = stack.pop() {
                    match_end[b] = i;
                }
            }
            _ => {}
        }
    }

    let mut pc = 0usize;
    let mut loops: Vec<(usize, i64, i64)> = Vec::new();
    let mut reported: std::collections::BTreeSet<(usize, String)> = Default::default();
    while pc < ops.len() {
        match &ops[pc] {
            ExecOp::Call(id) => {
                let aggs = merged.get(id).cloned().unwrap_or_default();
                if aggs.is_empty() {
                    if let Err(e) = run_serialized(prog, *id, &mut state) {
                        return vec![eval_failure(prog, *id, &spans, &e)];
                    }
                } else {
                    let before = state.clone();
                    if let Err(e) = run_serialized(prog, *id, &mut state) {
                        return vec![eval_failure(prog, *id, &spans, &e)];
                    }
                    match run_privatized(prog, *id, &before, &aggs, cfg.nodes) {
                        Ok(mergeed) => {
                            for agg in &aggs {
                                if let Some(d) = diff_agg(
                                    prog,
                                    *id,
                                    agg,
                                    &state,
                                    &mergeed,
                                    cfg.block_size,
                                    &spans,
                                ) {
                                    if reported.insert((*id, agg.clone())) {
                                        out.push(d);
                                    }
                                }
                            }
                        }
                        Err(e) => return vec![eval_failure(prog, *id, &spans, &e)],
                    }
                    // Continue from the serialized state: later phases see
                    // the canonical semantics regardless of divergence.
                }
            }
            ExecOp::LoopBegin { lo, hi, .. } => {
                if lo >= hi {
                    pc = match_end[pc].min(ops.len() - 1);
                } else {
                    loops.push((pc, *lo, *hi));
                }
            }
            ExecOp::LoopEnd => {
                if let Some((begin, cur, hi)) = loops.pop() {
                    let next = cur + 1;
                    if next < hi {
                        loops.push((begin, next, hi));
                        pc = begin;
                    }
                }
            }
            ExecOp::PhaseBegin(_) | ExecOp::PhaseEnd(_) | ExecOp::CommutativeMerge { .. } => {}
        }
        pc += 1;
    }
    out
}

fn eval_failure(prog: &CompiledProgram, id: usize, spans: &[Span], err: &str) -> Diagnostic {
    let func = prog.call_sites.get(id).map(|(f, _)| f.as_str()).unwrap_or("<unknown>");
    let mut d = Diagnostic::error(
        codes::COMMUTE_UNSOUND,
        format!("merge oracle could not evaluate call `{func}` (call {id}): {err}"),
    );
    if let Some(s) = spans.get(id) {
        d = d.with_label(*s, "while validating this call's merge directive");
    }
    d
}

/// Initial aggregate state: what `interp::seeded_init` stores.
fn init_state(prog: &CompiledProgram, seed: u64) -> SeqState {
    let mut state = SeqState::new();
    // `materialize` iterates a BTreeMap, so ordinals follow sorted names.
    let mut names: Vec<&str> = prog.program.aggs.iter().map(|a| a.name.as_str()).collect();
    names.sort_unstable();
    for decl in &prog.program.aggs {
        let n: usize = decl.dims.iter().product();
        let k = names.iter().position(|x| *x == decl.name.as_str()).unwrap_or(0) as u64;
        let extent = decl.dims[0] as u64;
        let mut vals = Vec::with_capacity(n);
        for lin_idx in 0..n {
            vals.push(seeded_value(seed, k, &delinearize(lin_idx, &decl.dims), decl.ty, extent));
        }
        state.insert(decl.name.clone(), AggData { dims: decl.dims.clone(), ty: decl.ty, vals });
    }
    state
}

fn delinearize(mut lin: usize, dims: &[usize]) -> Vec<i64> {
    let mut out = vec![0i64; dims.len()];
    for (slot, &d) in out.iter_mut().zip(dims).rev() {
        *slot = (lin % d) as i64;
        lin /= d;
    }
    out
}

/// All element positions of the parallel aggregate, row-major.
fn positions(dims: &[usize]) -> Vec<Vec<i64>> {
    let n: usize = dims.iter().product();
    (0..n).map(|i| delinearize(i, dims)).collect()
}

/// Run call `id` serialized: every element in row-major order against the
/// live state.
fn run_serialized(prog: &CompiledProgram, id: usize, state: &mut SeqState) -> Result<(), String> {
    let (func, args) = prog.call_sites.get(id).ok_or("unknown call id")?;
    let f = prog.program.func(func).ok_or("unknown function")?;
    let par = args.first().and_then(|a| state.get(a)).ok_or("missing parallel aggregate")?;
    for pos in positions(&par.dims.clone()) {
        let mut env = SeqEnv { f, args, state, pos: &pos, locals: Vec::new(), log: None };
        env.stmts(&f.body)?;
    }
    Ok(())
}

/// Run call `id` privatized: elements are partitioned into `nodes`
/// contiguous chunks; each chunk runs against a private copy of the start
/// state while logging its updates to the merged aggregates; the logs
/// replay in node order onto the start state. Returns the merged state.
fn run_privatized(
    prog: &CompiledProgram,
    id: usize,
    start: &SeqState,
    merge_aggs: &[String],
    nodes: usize,
) -> Result<SeqState, String> {
    let (func, args) = prog.call_sites.get(id).ok_or("unknown call id")?;
    let f = prog.program.func(func).ok_or("unknown function")?;
    let par = args.first().and_then(|a| start.get(a)).ok_or("missing parallel aggregate")?;
    let all = positions(&par.dims);
    let nodes = nodes.max(1);
    let chunk = all.len().div_ceil(nodes);

    // Which parameter names alias a merged aggregate at this call site.
    let merged_params: Vec<String> = f
        .params
        .iter()
        .zip(args)
        .filter(|(_, a)| merge_aggs.contains(a))
        .map(|(p, _)| p.clone())
        .collect();

    let mut logs: Vec<DeltaLog> = Vec::new();
    for node in 0..nodes {
        let lo = node * chunk;
        let hi = ((node + 1) * chunk).min(all.len());
        let mut private = start.clone();
        let mut log: DeltaLog = Vec::new();
        for pos in all.get(lo..hi).unwrap_or(&[]) {
            let mut env = SeqEnv {
                f,
                args,
                state: &mut private,
                pos,
                locals: Vec::new(),
                log: Some((&merged_params, &mut log)),
            };
            env.stmts(&f.body)?;
        }
        logs.push(log);
    }

    // Merge: replay the per-node delta logs in node order onto the start
    // state — the sequential model of the runtime's barrier bulk install.
    let mut merged = start.clone();
    for log in logs {
        for (arg, lin_idx, d) in log {
            if let Some(a) = merged.get_mut(&arg) {
                if let Some(slot) = a.vals.get_mut(lin_idx) {
                    *slot = apply_delta(*slot, d);
                }
            }
        }
    }
    Ok(merged)
}

/// Compare one merged aggregate between the serialized and privatized
/// states; build the E008 witness diagnostic on first divergence.
#[allow(clippy::too_many_arguments)]
fn diff_agg(
    prog: &CompiledProgram,
    id: usize,
    agg: &str,
    serial: &SeqState,
    merged: &SeqState,
    block_size: usize,
    spans: &[Span],
) -> Option<Diagnostic> {
    let s = serial.get(agg)?;
    let m = merged.get(agg)?;
    let elems_per_block = (block_size / 8).max(1);
    for (i, (a, b)) in s.vals.iter().zip(&m.vals).enumerate() {
        let same = match (a, b) {
            (Value::F(x), Value::F(y)) => x.to_bits() == y.to_bits(),
            (Value::I(x), Value::I(y)) => x == y,
            _ => false,
        };
        if same {
            continue;
        }
        let func = prog.call_sites.get(id).map(|(f, _)| f.as_str()).unwrap_or("<unknown>");
        let block = i / elems_per_block;
        let mut d = Diagnostic::error(
            codes::COMMUTE_UNSOUND,
            format!(
                "unsound `commute` annotation: privatized merge of aggregate `{agg}` in call \
                 `{func}` (call {id}) diverges from serialized execution"
            ),
        );
        if let Some(sp) = spans.get(id) {
            d = d.with_label(*sp, "this call's updates are not order-independent");
        }
        return Some(
            d.with_note(format!(
                "witness block {block}: element {i} of `{agg}` is {} serialized but {} after \
                 the node-order merge replay",
                fmt_val(*a),
                fmt_val(*b)
            ))
            .with_note(
                "§3.4: only associative-commutative reductions whose operands do not observe \
                 the privatized aggregate may be merged at the phase barrier",
            ),
        );
    }
    None
}

fn fmt_val(v: Value) -> String {
    match v {
        Value::F(x) => format!("{x}"),
        Value::I(x) => format!("{x}"),
    }
}

// ---------------------------------------------------------------------
// Sequential evaluator (no DSM, no panics)
// ---------------------------------------------------------------------

struct SeqEnv<'a> {
    f: &'a ParFn,
    args: &'a [String],
    state: &'a mut SeqState,
    pos: &'a [i64],
    locals: Vec<(String, Value)>,
    /// When privatizing: (parameter names to log, the delta log).
    log: Option<(&'a [String], &'a mut DeltaLog)>,
}

impl SeqEnv<'_> {
    fn arg_of(&self, param: &str) -> Result<&str, String> {
        self.f
            .params
            .iter()
            .position(|p| p == param)
            .and_then(|i| self.args.get(i))
            .map(|s| s.as_str())
            .ok_or_else(|| format!("`{param}` is not a parameter"))
    }

    fn lookup(&self, name: &str) -> Result<Value, String> {
        self.locals
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("unknown local `{name}`"))
    }

    fn stmts(&mut self, body: &[Stmt]) -> Result<(), String> {
        for s in body {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), String> {
        match s {
            Stmt::Let(name, e) => {
                let v = self.eval(e)?;
                self.locals.push((name.clone(), v));
                Ok(())
            }
            Stmt::AssignLocal(name, e) => {
                let v = self.eval(e)?;
                match self.locals.iter_mut().rev().find(|(n, _)| n == name) {
                    Some(slot) => {
                        slot.1 = v;
                        Ok(())
                    }
                    None => Err(format!("assignment to unbound local `{name}`")),
                }
            }
            Stmt::AssignAgg { agg, idx, value, .. } => {
                let idxs = self.eval_idx(idx)?;
                let logged = matches!(&self.log, Some((params, _)) if params.contains(agg));
                if logged {
                    // Privatized write: apply locally and log the delta.
                    let delta = match match_reduction(agg, idx, value) {
                        Some(r) => {
                            let mut v = self.eval(r.operand)?;
                            if r.negate {
                                v = match v {
                                    Value::F(x) => Value::F(-x),
                                    Value::I(x) => Value::I(x.wrapping_neg()),
                                };
                            }
                            match r.op {
                                MergeOp::Add => DeltaOp::Add(v),
                                MergeOp::Min => DeltaOp::Min(v),
                                MergeOp::Max => DeltaOp::Max(v),
                            }
                        }
                        // Weakened-rules path: not a reduction — log the
                        // privately computed value as an overwrite.
                        None => DeltaOp::Store(self.eval(value)?),
                    };
                    let arg = self.arg_of(agg)?.to_string();
                    let lin = {
                        let a = self.state.get(&arg).ok_or("missing aggregate")?;
                        a.lin(&idxs)?
                    };
                    let cur = self
                        .state
                        .get(&arg)
                        .and_then(|a| a.vals.get(lin).copied())
                        .ok_or("missing element")?;
                    let newv = apply_delta(cur, delta);
                    if let Some(a) = self.state.get_mut(&arg) {
                        if let Some(slot) = a.vals.get_mut(lin) {
                            *slot = newv;
                        }
                    }
                    if let Some((_, log)) = &mut self.log {
                        log.push((arg, lin, delta));
                    }
                    Ok(())
                } else {
                    let v = self.eval(value)?;
                    let arg = self.arg_of(agg)?.to_string();
                    let a = self.state.get_mut(&arg).ok_or("missing aggregate")?;
                    let lin = a.lin(&idxs)?;
                    let coerced = match a.ty {
                        ElemTy::Float => Value::F(v.as_f()),
                        ElemTy::Int => match v {
                            Value::I(x) => Value::I(x),
                            Value::F(x) => return Err(format!("float {x} stored into int")),
                        },
                    };
                    if let Some(slot) = a.vals.get_mut(lin) {
                        *slot = coerced;
                    }
                    Ok(())
                }
            }
            Stmt::If(c, t, e) => {
                let depth = self.locals.len();
                if self.eval(c)?.truthy() {
                    self.stmts(t)?;
                } else {
                    self.stmts(e)?;
                }
                self.locals.truncate(depth);
                Ok(())
            }
            Stmt::For { var, lo, hi, body } => {
                let lo = self.eval(lo)?;
                let hi = self.eval(hi)?;
                let (Value::I(lo), Value::I(hi)) = (lo, hi) else {
                    return Err("non-integer loop bound".into());
                };
                let depth = self.locals.len();
                self.locals.push((var.clone(), Value::I(lo)));
                for i in lo..hi {
                    if let Some(slot) = self.locals.last_mut() {
                        slot.1 = Value::I(i);
                    }
                    let inner = self.locals.len();
                    self.stmts(body)?;
                    self.locals.truncate(inner);
                }
                self.locals.truncate(depth);
                Ok(())
            }
        }
    }

    fn eval_idx(&mut self, idx: &[Expr]) -> Result<Vec<i64>, String> {
        let mut out = Vec::with_capacity(idx.len());
        for e in idx {
            match self.eval(e)? {
                Value::I(v) => out.push(v),
                Value::F(v) => return Err(format!("float {v} used as index")),
            }
        }
        Ok(out)
    }

    fn eval(&mut self, e: &Expr) -> Result<Value, String> {
        match e {
            Expr::Num(v) => Ok(Value::F(*v)),
            Expr::Int(v) => Ok(Value::I(*v)),
            Expr::Var(name) => self.lookup(name),
            Expr::Pos(k) => {
                self.pos.get(*k).map(|&v| Value::I(v)).ok_or_else(|| format!("#{k} out of rank"))
            }
            Expr::AggRead { agg, idx, .. } => {
                let idxs = self.eval_idx(idx)?;
                let arg = self.arg_of(agg)?;
                let a = self.state.get(arg).ok_or("missing aggregate")?;
                let lin = a.lin(&idxs)?;
                a.vals.get(lin).copied().ok_or_else(|| "missing element".into())
            }
            Expr::Neg(a) => Ok(match self.eval(a)? {
                Value::F(v) => Value::F(-v),
                Value::I(v) => Value::I(v.wrapping_neg()),
            }),
            Expr::Bin(op, a, b) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                eval_bin(*op, va, vb)
            }
            Expr::Builtin(b, bargs) => {
                let mut vs = Vec::with_capacity(bargs.len());
                for a in bargs {
                    vs.push(self.eval(a)?);
                }
                match (b, vs.as_slice()) {
                    (Builtin::Abs, [Value::F(v)]) => Ok(Value::F(v.abs())),
                    (Builtin::Abs, [Value::I(v)]) => Ok(Value::I(v.wrapping_abs())),
                    (Builtin::Sqrt, [v]) => Ok(Value::F(v.as_f().sqrt())),
                    (Builtin::Min, [a, b]) => Ok(num2(*a, *b, f64::min, i64::min)),
                    (Builtin::Max, [a, b]) => Ok(num2(*a, *b, f64::max, i64::max)),
                    _ => Err("builtin arity mismatch".into()),
                }
            }
        }
    }
}

fn num2(a: Value, b: Value, ff: fn(f64, f64) -> f64, fi: fn(i64, i64) -> i64) -> Value {
    match (a, b) {
        (Value::I(x), Value::I(y)) => Value::I(fi(x, y)),
        _ => Value::F(ff(a.as_f(), b.as_f())),
    }
}

fn eval_bin(op: BinOp, a: Value, b: Value) -> Result<Value, String> {
    use BinOp::*;
    Ok(match op {
        Add | Sub | Mul | Div => match (a, b) {
            (Value::I(x), Value::I(y)) => Value::I(match op {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                Div => {
                    if y == 0 {
                        return Err("integer division by zero".into());
                    }
                    x.wrapping_div(y)
                }
                _ => 0,
            }),
            _ => {
                let (x, y) = (a.as_f(), b.as_f());
                Value::F(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    _ => 0.0,
                })
            }
        },
        Mod => match (a, b) {
            (Value::I(x), Value::I(y)) => {
                if y == 0 {
                    return Err("integer modulo by zero".into());
                }
                Value::I(x.wrapping_rem(y))
            }
            _ => return Err("`%` needs integer operands".into()),
        },
        Lt | Le | Gt | Ge | Eq | Ne => {
            let (x, y) = (a.as_f(), b.as_f());
            let r = match op {
                Lt => x < y,
                Le => x <= y,
                Gt => x > y,
                Ge => x >= y,
                Eq => x == y,
                Ne => x != y,
                _ => false,
            };
            Value::I(r as i64)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_diag;
    use crate::parser::parse;

    fn classify(src: &str, func: &str, param: &str, rules: ClassifyRules) -> CommuteClass {
        let p = parse(src).unwrap();
        let f = p.func(func).unwrap();
        classify_fn(f, rules).remove(param).unwrap()
    }

    const HIST: &str = r#"
        aggregate H[32] of float;
        aggregate X[32] of int;
        parallel fn bump(h, x) {
            h[x[#0]] = h[x[#0]] + 1.0;
        }
        fn main() { bump(H, X); }
    "#;

    #[test]
    fn histogram_add_is_commutative() {
        let c = classify(HIST, "bump", "h", ClassifyRules::default());
        match c {
            CommuteClass::Commutative { ops } => {
                assert_eq!(ops.len(), 1);
                assert_eq!(ops[0].0, MergeOp::Add);
            }
            other => panic!("expected commutative, got {other:?}"),
        }
        // The index table is read-only.
        assert_eq!(classify(HIST, "bump", "x", ClassifyRules::default()), CommuteClass::ReadOnly);
    }

    #[test]
    fn min_max_and_sub_are_commutative() {
        let src = r#"
            aggregate A[8] of float;
            aggregate X[8] of int;
            parallel fn f(a, x) {
                a[x[#0]] = min(a[x[#0]], 2.0);
                a[x[#0]] = max(1.0, a[x[#0]]);
                a[x[#0]] = a[x[#0]] - 0.5;
            }
            fn main() { f(A, X); }
        "#;
        let c = classify(src, "f", "a", ClassifyRules::default());
        match c {
            CommuteClass::Commutative { ops } => {
                assert_eq!(
                    ops.iter().map(|(o, _)| *o).collect::<Vec<_>>(),
                    vec![MergeOp::Min, MergeOp::Max, MergeOp::Add]
                );
            }
            other => panic!("expected commutative, got {other:?}"),
        }
    }

    #[test]
    fn scaled_update_is_order_dependent() {
        let src = r#"
            aggregate A[8] of float;
            aggregate X[8] of int;
            parallel fn f(a, x) { a[x[#0]] = 2.0 * a[x[#0]] + 1.0; }
            fn main() { f(A, X); }
        "#;
        let c = classify(src, "f", "a", ClassifyRules::default());
        assert!(matches!(&c, CommuteClass::OrderDependent { reason, .. }
            if reason.contains("not a")));
    }

    #[test]
    fn outside_read_is_order_dependent() {
        let src = r#"
            aggregate A[8] of float;
            aggregate B[8] of float;
            aggregate X[8] of int;
            parallel fn f(a, b, x) {
                a[x[#0]] = a[x[#0]] + 1.0;
                b[#0] = a[#0];
            }
            fn main() { f(A, B, X); }
        "#;
        let c = classify(src, "f", "a", ClassifyRules::default());
        assert!(matches!(&c, CommuteClass::OrderDependent { reason, .. }
            if reason.contains("observes")));
    }

    #[test]
    fn operand_reading_param_is_order_dependent() {
        let src = r#"
            aggregate A[8] of float;
            aggregate X[8] of int;
            parallel fn f(a, x) { a[x[#0]] = a[x[#0]] + a[#0]; }
            fn main() { f(A, X); }
        "#;
        let c = classify(src, "f", "a", ClassifyRules::default());
        assert!(matches!(&c, CommuteClass::OrderDependent { reason, .. }
            if reason.contains("operand")));
    }

    #[test]
    fn subtraction_self_on_right_is_order_dependent() {
        let src = r#"
            aggregate A[8] of float;
            aggregate X[8] of int;
            parallel fn f(a, x) { a[x[#0]] = 1.0 - a[x[#0]]; }
            fn main() { f(A, X); }
        "#;
        let c = classify(src, "f", "a", ClassifyRules::default());
        assert!(!c.is_commutative());
    }

    #[test]
    fn weakening_forces_commutative() {
        let src = r#"
            aggregate A[8] of float;
            aggregate X[8] of int;
            parallel fn f(a, x) { a[x[#0]] = 2.0 * a[x[#0]] + 1.0; }
            fn main() { f(A, X); }
        "#;
        let weak = ClassifyRules { assume_commutative: true, ..ClassifyRules::default() };
        assert!(classify(src, "f", "a", weak).is_commutative());
    }

    #[test]
    fn sound_merge_validates_clean() {
        let src = r#"
            aggregate H[32] of float;
            aggregate X[32] of int;
            parallel fn bump(h, x) {
                h[x[#0]] = h[x[#0]] + 1.0;
            }
            fn main() { commute bump(H, X); }
        "#;
        let prog = compile_diag(src, true, ClassifyRules::default()).unwrap();
        assert!(
            prog.plan
                .ops
                .iter()
                .any(|o| matches!(o, ExecOp::CommutativeMerge { agg, .. } if agg == "H")),
            "plan must carry the merge directive: {:?}",
            prog.plan.ops
        );
        let ds = validate_merges(&prog, &MergeOracleConfig::default());
        assert!(ds.is_empty(), "{ds:#?}");
    }

    #[test]
    fn weakened_nonreduction_merge_diverges_with_witness() {
        // The oracle mutation scenario: force a non-commutative update
        // through the static check; the dynamic replay must catch it.
        let src = r#"
            aggregate H[16] of float;
            aggregate X[16] of int;
            parallel fn scale(h, x) {
                h[x[#0]] = 2.0 * h[x[#0]] + 1.0;
            }
            fn main() { commute scale(H, X); }
        "#;
        let weak = ClassifyRules { assume_commutative: true, ..ClassifyRules::default() };
        let prog = compile_diag(src, true, weak).unwrap();
        let ds = validate_merges(&prog, &MergeOracleConfig::default());
        assert!(!ds.is_empty(), "divergence must be reported");
        assert_eq!(ds[0].code, "E008");
        assert!(ds[0].notes.iter().any(|n| n.contains("witness block")), "{ds:#?}");
    }

    #[test]
    fn delta_replay_matches_serial_for_reductions() {
        let cur = Value::F(1.0);
        let v = apply_delta(cur, DeltaOp::Add(Value::F(2.0)));
        assert_eq!(v, Value::F(3.0));
        assert_eq!(apply_delta(Value::I(5), DeltaOp::Min(Value::I(3))), Value::I(3));
        assert_eq!(apply_delta(Value::I(5), DeltaOp::Max(Value::I(3))), Value::I(5));
        assert_eq!(apply_delta(Value::F(5.0), DeltaOp::Store(Value::F(1.5))), Value::F(1.5));
    }
}
