//! Commutativity analysis (§3.4 payload) and the merge-soundness oracle.
//!
//! The §3.4 dataflow leaves *conflict phases* — phases whose blocks are
//! both read and written through communication — without any protocol
//! action: the predictive protocol marks their blocks conflict and falls
//! back to plain ownership migration. For Barnes' tree build that fallback
//! dominates the message count. This module supplies the compiler half of
//! the fix:
//!
//! 1. **Static classification** ([`CommuteClass`], built by sema's walk
//!    of the body and kept in [`crate::sema::AccessSummary::classes`]):
//!    for each parallel function and each aggregate parameter, decide
//!    whether every update is an *associative-commutative reduction* —
//!    `p[i] = p[i] + v`, `p[i] = p[i] - v`, `p[i] = min(p[i], v)`,
//!    `p[i] = max(p[i], v)` with `v` and `i` independent of `p` — and no
//!    read observes `p` outside those self-reads. Such updates may execute
//!    against a private per-node buffer and merge at the phase barrier in
//!    any node order.
//!    The verdict feeds [`crate::sema::ParamAccess::commute`], the W007 /
//!    E008 lints, and the [`crate::directives::ExecOp::CommutativeMerge`]
//!    directive.
//! 2. **Dynamic validation** ([`validate_merges`]): replay every
//!    `CommutativeMerge` directive of a compiled plan twice over a
//!    deterministic sequential model ([`run_model`], on the interpreter's
//!    own evaluator, [`crate::eval`]) — once serialized in element order,
//!    once privatized per node with a delta log merged in node order — and
//!    report any diverging element as an `E008` with its witness block.
//!    The [`crate::sema::ClassifyRules::assume_commutative`] weakening
//!    exists precisely so a mutation test can force a non-commutative
//!    update through the static check and watch this oracle catch it.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{BinOp, Builtin, ElemTy, Expr, ParFn};
use crate::compile::CompiledProgram;
use crate::diag::{codes, Diagnostic, Span};
use crate::directives::ExecOp;
use crate::eval::{eval_bin, num2, offset, positions, walk, Eval, Store, Value};
use crate::interp::seeded_value;

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommuteClass {
    /// The parameter is never written — nothing to privatize.
    ReadOnly,
    /// Every write is a commutative reduction and every read of the
    /// parameter is the self-read embedded in one of them. `ops` lists the
    /// recognized reduction sites in body order.
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
pub(crate) struct Reduction<'a> {
    pub op: MergeOp,
    pub operand: &'a Expr,
    /// `p[i] - v`: log `Add` with the operand negated.
    pub negate: bool,
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
pub(crate) fn match_reduction<'a>(p: &str, idx: &[Expr], value: &'a Expr) -> Option<Reduction<'a>> {
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
    let mut first = None;
    e.any(&mut |x| match x {
        Expr::AggRead { agg, span, .. } if agg == p => {
            first = Some(*span);
            true
        }
        _ => false,
    });
    first
}

/// The commutativity verdict of one parameter `p`, built up statement by
/// statement as [`crate::sema`] walks the body (see module docs). It is
/// the paper's verdict under any [`crate::sema::ClassifyRules`]: the
/// `assume_commutative` weakening sets only
/// [`crate::sema::ParamAccess::commute`].
#[derive(Debug, Default)]
pub(crate) struct Classifier {
    ops: Vec<(MergeOp, Span)>,
    written: bool,
    bad: Option<(String, Span)>,
}

impl Classifier {
    /// An expression outside `p`'s own updates: a read of `p` in it
    /// observes `p`.
    pub(crate) fn read(&mut self, p: &str, e: &Expr) {
        if self.bad.is_some() {
            return; // the first failure is the blame
        }
        if let Some(span) = first_read_of(e, p) {
            self.bad = Some((format!("a read observes `{p}` outside its reduction update"), span));
        }
    }

    /// The store `p[idx] = value`.
    pub(crate) fn update(&mut self, p: &str, idx: &[Expr], value: &Expr, span: Span) {
        self.written = true;
        let reduction = match_reduction(p, idx, value);
        if let Some(r) = &reduction {
            self.ops.push((r.op, span));
        }
        if self.bad.is_some() {
            return;
        }
        let reason = match reduction {
            // Only the operand is scanned: the embedded self-read is the
            // one sanctioned read of `p`.
            Some(r) if first_read_of(r.operand, p).is_none() => return,
            Some(_) => format!("the reduction operand reads `{p}`"),
            None => format!("the update of `{p}` is not a `+=`/`-=`/`min`/`max` reduction"),
        };
        self.bad = Some((reason, span));
    }

    pub(crate) fn finish(self) -> CommuteClass {
        match (self.written, self.bad) {
            // Never written ⇒ never privatized; stray reads are harmless.
            (false, _) => CommuteClass::ReadOnly,
            (true, Some((reason, span))) => CommuteClass::OrderDependent { reason, span },
            (true, None) => CommuteClass::Commutative { ops: self.ops },
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

type SeqState = BTreeMap<String, AggData>;

/// The delta log one privatized node accumulates: (aggregate, offset,
/// merge operator — `None` overwrites —, operand).
type DeltaLog = Vec<(String, usize, Option<MergeOp>, Value)>;

/// `cur` merged with `v` by `op`, in the evaluator's own arithmetic, as an
/// element of a `ty` aggregate.
fn apply_delta(cur: Value, op: Option<MergeOp>, v: Value, ty: ElemTy) -> Result<Value, String> {
    match op {
        Some(MergeOp::Add) => eval_bin(BinOp::Add, cur, v),
        Some(MergeOp::Min) => Ok(num2(cur, v, f64::min, i64::min)),
        Some(MergeOp::Max) => Ok(num2(cur, v, f64::max, i64::max)),
        None => Ok(v),
    }?
    .to_elem(ty)
}

/// Validate every `CommutativeMerge` directive of a compiled plan:
/// [`run_model`]'s findings. Programs without merge directives validate
/// trivially (the model does not run).
pub fn validate_merges(prog: &CompiledProgram, cfg: &MergeOracleConfig) -> Vec<Diagnostic> {
    let merges = prog.plan.ops.iter().any(|op| matches!(op, ExecOp::CommutativeMerge { .. }));
    if merges {
        run_model(prog, cfg).1
    } else {
        Vec::new()
    }
}

/// Run the plan on the deterministic sequential model: every call
/// serialized in element order over what `interp::seeded_init` stores;
/// each merged call is also run privatized per node with a delta log
/// merged in node order, and a diverging element is an `E008` with its
/// witness block. Returns the final aggregates (row-major) and the
/// findings; an evaluation error stops the run as the one finding.
pub fn run_model(
    prog: &CompiledProgram,
    cfg: &MergeOracleConfig,
) -> (BTreeMap<String, Vec<Value>>, Vec<Diagnostic>) {
    // Merged aggregates per call id, from the plan itself.
    let mut merged: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for op in &prog.plan.ops {
        if let ExecOp::CommutativeMerge { call, agg, .. } = op {
            merged.entry(*call).or_default().push(agg.clone());
        }
    }
    let mut state = init_state(prog, cfg.seed);
    let spans = crate::lint::call_spans(prog);
    let mut out = Vec::new();
    let mut reported = BTreeSet::new();
    for op in walk(&prog.plan.ops) {
        let ExecOp::Call(id) = op else { continue };
        let aggs = merged.get(id).map_or(&[][..], Vec::as_slice);
        let start = (!aggs.is_empty()).then(|| state.clone());
        // Later calls continue from the serialized state: they see the
        // canonical semantics regardless of divergence.
        let privatized = run_serialized(prog, *id, &mut state).map_err(|e| e.msg).and_then(|()| {
            start.map(|s| run_privatized(prog, *id, &s, aggs, cfg.nodes)).transpose()
        });
        match privatized {
            Err(e) => return (finals(state), vec![eval_failure(prog, *id, &spans, &e)]),
            Ok(Some(m)) => {
                for agg in aggs {
                    let d = diff_agg(prog, *id, agg, &state, &m, cfg.block_size, &spans);
                    out.extend(d.filter(|_| reported.insert((*id, agg.clone()))));
                }
            }
            Ok(None) => {}
        }
    }
    (finals(state), out)
}

fn finals(state: SeqState) -> BTreeMap<String, Vec<Value>> {
    state.into_iter().map(|(name, a)| (name, a.vals)).collect()
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
        let k = names.iter().position(|x| *x == decl.name.as_str()).unwrap_or(0) as u64;
        let extent = decl.dims[0] as u64;
        let vals =
            positions(&decl.dims).map(|p| seeded_value(seed, k, &p, decl.ty, extent)).collect();
        state.insert(decl.name.clone(), AggData { dims: decl.dims.clone(), ty: decl.ty, vals });
    }
    state
}

/// Call `id`'s function, arguments and the parallel aggregate's extents.
fn callee<'p>(
    prog: &'p CompiledProgram,
    id: usize,
    state: &SeqState,
) -> Result<(&'p ParFn, &'p [String], Vec<usize>), String> {
    let (func, args) = prog.call_sites.get(id).ok_or("unknown call id")?;
    let f = prog.program.func(func).ok_or("unknown function")?;
    let par = args.first().and_then(|a| state.get(a)).ok_or("missing parallel aggregate")?;
    Ok((f, args, par.dims.clone()))
}

/// Where a serialized call stopped: the element, the aggregate access the
/// store refused (argument, index) if that is what stopped it, and the
/// evaluator's message.
#[derive(Debug)]
pub(crate) struct EvalFailure {
    pub pos: Vec<i64>,
    pub access: Option<(String, Vec<i64>)>,
    pub msg: String,
}

/// Run call `id` serialized: every element in row-major order against the
/// live state.
fn run_serialized(
    prog: &CompiledProgram,
    id: usize,
    state: &mut SeqState,
) -> Result<(), EvalFailure> {
    let failed = |pos, msg| EvalFailure { pos, access: None, msg };
    let (f, args, dims) = callee(prog, id, state).map_err(|m| failed(Vec::new(), m))?;
    for pos in positions(&dims) {
        let mut eval = Eval::new(Seq { f, args, state, log: None }, &pos);
        if let Err(msg) = eval.stmts(&f.body) {
            let arg = |p: &str| f.params.iter().position(|q| q == p).map(|k| args[k].clone());
            let access = eval.refused.take().and_then(|(p, at)| Some((arg(&p)?, at)));
            return Err(EvalFailure { access, ..failed(pos, msg) });
        }
    }
    Ok(())
}

/// The first call of the plan whose serialized run on the sequential
/// model stops with an evaluation error, and where — the error the DSM
/// interpreter's node meets on the same program (`tests/parity.rs`).
pub(crate) fn first_failure(prog: &CompiledProgram, seed: u64) -> Option<(usize, EvalFailure)> {
    let mut state = init_state(prog, seed);
    walk(&prog.plan.ops).find_map(|op| match op {
        ExecOp::Call(id) => run_serialized(prog, *id, &mut state).err().map(|e| (*id, e)),
        _ => None,
    })
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
    let (f, args, dims) = callee(prog, id, start)?;
    let all: Vec<Vec<i64>> = positions(&dims).collect();
    // Which parameter names alias a merged aggregate at this call site.
    let merged_params: Vec<String> = f
        .params
        .iter()
        .zip(args)
        .filter(|(_, a)| merge_aggs.contains(a))
        .map(|(p, _)| p.clone())
        .collect();
    let mut merged = start.clone();
    for chunk in all.chunks(all.len().div_ceil(nodes.max(1)).max(1)) {
        let (mut private, mut log) = (start.clone(), DeltaLog::new());
        for pos in chunk {
            let log = Some((&merged_params[..], &mut log));
            Eval::new(Seq { f, args, state: &mut private, log }, pos).stmts(&f.body)?;
        }
        // Replay the node's log onto the merged state, in node order — the
        // sequential model of the runtime's barrier bulk install.
        for (arg, at, op, v) in log {
            if let Some(a) = merged.get_mut(&arg) {
                if let Some(slot) = a.vals.get_mut(at) {
                    *slot = apply_delta(*slot, op, v, a.ty)?;
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

/// The merge oracle's store: the sequential state, plus the delta log of
/// a privatized run.
struct Seq<'a> {
    f: &'a ParFn,
    args: &'a [String],
    state: &'a mut SeqState,
    /// When privatizing: (parameter names whose writes are logged, the log).
    log: Option<(&'a [String], &'a mut DeltaLog)>,
}

impl<'a> Seq<'a> {
    /// The aggregate bound to parameter `param`.
    fn arg(&self, param: &str) -> Result<&'a str, String> {
        let k = self.f.params.iter().position(|p| p == param);
        let arg = k.and_then(|k| self.args.get(k)).map(String::as_str);
        arg.ok_or_else(|| format!("`{param}` is not a parameter"))
    }

    /// The aggregate bound to `param` and the offset of `idx` in it.
    fn elem(&mut self, param: &str, idx: &[i64]) -> Result<(&mut AggData, usize), String> {
        let a = self.state.get_mut(self.arg(param)?).ok_or("missing aggregate")?;
        let at = offset(&a.dims, idx)?;
        Ok((a, at))
    }
}

impl Store for Seq<'_> {
    fn read(&mut self, agg: &str, idx: &[i64], _: Span) -> Result<Value, String> {
        let (a, at) = self.elem(agg, idx)?;
        a.vals.get(at).copied().ok_or_else(|| "missing element".into())
    }

    fn write(&mut self, agg: &str, idx: &[i64], v: Value) -> Result<(), String> {
        let (a, at) = self.elem(agg, idx)?;
        let v = v.to_elem(a.ty)?;
        a.vals.get_mut(at).map(|slot| *slot = v).ok_or_else(|| "missing element".into())
    }

    fn privatizes(&self, agg: &str) -> bool {
        matches!(&self.log, Some((params, _)) if params.iter().any(|p| p == agg))
    }

    /// Apply the update locally and log it for the merge replay.
    fn merge(
        &mut self,
        agg: &str,
        idx: &[i64],
        op: Option<MergeOp>,
        v: Value,
    ) -> Result<(), String> {
        let arg = self.arg(agg)?.to_string();
        let (a, at) = self.elem(agg, idx)?;
        let slot = a.vals.get_mut(at).ok_or("missing element")?;
        *slot = apply_delta(*slot, op, v, a.ty)?;
        if let Some((_, log)) = &mut self.log {
            log.push((arg, at, op, v));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_diag;
    use crate::parser::parse_diag;
    use crate::sema::{analyze_fn_with, AccessSummary, ClassifyRules};

    fn summary(src: &str, func: &str, rules: ClassifyRules) -> AccessSummary {
        let p = parse_diag(src).unwrap();
        analyze_fn_with(p.func(func).unwrap(), rules).unwrap()
    }

    fn classify(src: &str, func: &str, param: &str) -> CommuteClass {
        summary(src, func, ClassifyRules::default()).classes.remove(param).unwrap()
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
        let c = classify(HIST, "bump", "h");
        match c {
            CommuteClass::Commutative { ops } => {
                assert_eq!(ops.len(), 1);
                assert_eq!(ops[0].0, MergeOp::Add);
            }
            other => panic!("expected commutative, got {other:?}"),
        }
        // The index table is read-only.
        assert_eq!(classify(HIST, "bump", "x"), CommuteClass::ReadOnly);
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
        let c = classify(src, "f", "a");
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
        let c = classify(src, "f", "a");
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
        let c = classify(src, "f", "a");
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
        let c = classify(src, "f", "a");
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
        let c = classify(src, "f", "a");
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
        let s = summary(src, "f", weak);
        assert!(s.get("a").commute, "the weakening sets the verdict");
        assert!(!s.classes["a"].is_commutative(), "the class keeps the paper's blame");
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
        let (f, i) = (ElemTy::Float, ElemTy::Int);
        let add = Some(MergeOp::Add);
        assert_eq!(apply_delta(Value::F(1.0), add, Value::F(2.0), f), Ok(Value::F(3.0)));
        assert_eq!(apply_delta(Value::I(i64::MAX), add, Value::I(1), i), Ok(Value::I(i64::MIN)));
        assert_eq!(apply_delta(Value::I(5), Some(MergeOp::Min), Value::I(3), i), Ok(Value::I(3)));
        assert_eq!(apply_delta(Value::I(5), Some(MergeOp::Max), Value::I(3), i), Ok(Value::I(5)));
        assert_eq!(apply_delta(Value::F(5.0), None, Value::F(1.5), f), Ok(Value::F(1.5)));
        assert_eq!(apply_delta(Value::F(5.0), None, Value::I(2), f), Ok(Value::F(2.0)));
        assert!(apply_delta(Value::I(5), None, Value::F(1.5), i).is_err());
    }
}
