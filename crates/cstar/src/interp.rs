//! DSM-backed interpreter for compiled mini-C\*\* programs.
//!
//! Executes the directive-annotated op sequence on a `prescient-runtime`
//! machine, SPMD style: every node runs `main` (replicated sequential
//! control flow); a parallel call runs its body once per *owned* element of
//! the parallel aggregate, with `#0`/`#1` bound to the element position,
//! and ends with the data-parallel barrier. The compiler-placed
//! `phase_begin`/`phase_end` directives drive the predictive protocol.
//!
//! The access summary also places the *run form* of the checked access:
//! a read site the summary calls affine, unconditional and of a parameter
//! the function never writes ([`AccessSummary::hoisted`]) is read once per
//! row of owned elements with `NodeCtx::read_run` — one access check per
//! cache block — and the invocations of that row take their value from
//! the row buffer. Every other site stays a per-word `read`/`write`.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use prescient_core::AccessTap;
use prescient_runtime::{Agg1D, Agg2D, Dist1D, Dist2D, Machine, NodeCtx, RunReport};
use prescient_tempest::rng::{mix64, SplitMix64};
use prescient_tempest::{GAddr, Prim};

use crate::ast::{ElemTy, ParFn};
use crate::compile::CompiledProgram;
use crate::diag::Span;
use crate::directives::ExecOp;
use crate::eval::{offset, positions, walk, Eval, Store, Value};
use crate::sema::AccessSummary;

/// A materialized aggregate on the machine.
pub enum AggStore {
    /// 1-D float.
    F1(Agg1D<f64>),
    /// 1-D int.
    I1(Agg1D<i64>),
    /// 2-D float.
    F2(Agg2D<f64>),
    /// 2-D int.
    I2(Agg2D<i64>),
}

impl AggStore {
    /// Dimensions.
    pub fn dims(&self) -> Vec<usize> {
        match self {
            AggStore::F1(a) => vec![a.len()],
            AggStore::I1(a) => vec![a.len()],
            AggStore::F2(a) => vec![a.rows(), a.cols()],
            AggStore::I2(a) => vec![a.rows(), a.cols()],
        }
    }

    /// Element type.
    pub fn ty(&self) -> ElemTy {
        match self {
            AggStore::F1(_) | AggStore::F2(_) => ElemTy::Float,
            AggStore::I1(_) | AggStore::I2(_) => ElemTy::Int,
        }
    }

    pub(crate) fn addr(&self, idx: &[i64]) -> Result<GAddr, String> {
        offset(&self.dims(), idx)?;
        let at = |k: usize| idx[k] as usize;
        Ok(match self {
            AggStore::F1(a) => a.addr(at(0)),
            AggStore::I1(a) => a.addr(at(0)),
            AggStore::F2(a) => a.addr(at(0), at(1)),
            AggStore::I2(a) => a.addr(at(0), at(1)),
        })
    }

    fn read(&self, ctx: &mut NodeCtx, idx: &[i64]) -> Result<Value, String> {
        let addr = self.addr(idx)?;
        Ok(match self.ty() {
            ElemTy::Float => Value::F(ctx.read::<f64>(addr)),
            ElemTy::Int => Value::I(ctx.read::<i64>(addr)),
        })
    }

    fn write(&self, ctx: &mut NodeCtx, idx: &[i64], v: Value) -> Result<(), String> {
        let addr = self.addr(idx)?;
        match v.to_elem(self.ty())? {
            Value::F(x) => ctx.write(addr, x),
            Value::I(x) => ctx.write(addr, x),
        }
        Ok(())
    }

    /// The elements owned by `node` as rows — the leading indices and the
    /// range of the last one: a 1-D partition is one row, a 2-D partition
    /// one per owned row.
    fn owned_rows(&self, node: prescient_tempest::NodeId) -> Vec<(Vec<i64>, Range<i64>)> {
        let span = |r: Range<usize>| r.start as i64..r.end as i64;
        match self {
            AggStore::F1(a) => vec![(vec![], span(a.my_range(node)))],
            AggStore::I1(a) => vec![(vec![], span(a.my_range(node)))],
            AggStore::F2(a) => {
                a.my_rows(node).map(|i| (vec![i as i64], 0..a.cols() as i64)).collect()
            }
            AggStore::I2(a) => {
                a.my_rows(node).map(|i| (vec![i as i64], 0..a.cols() as i64)).collect()
            }
        }
    }

    /// Element positions owned by `node`, as index vectors.
    fn owned(&self, node: prescient_tempest::NodeId) -> Vec<Vec<i64>> {
        let rows = self.owned_rows(node).into_iter();
        rows.flat_map(|(lead, last)| last.map(move |j| [&lead[..], &[j]].concat())).collect()
    }

    /// The run form of an affine read site over one row of invocations:
    /// the elements `row + offsets`, read with one `read_run` per
    /// contiguous run. `None` — the site stays per-word for this row —
    /// when the site's rank is not the row's or the shifted row leaves the
    /// aggregate (the per-word access then panics at the same invocation
    /// it always did).
    fn read_row(
        &self,
        ctx: &mut NodeCtx,
        (lead, last): &(Vec<i64>, Range<i64>),
        offsets: &[i64],
    ) -> Option<Vec<Value>> {
        let dims = self.dims();
        if offsets.len() != dims.len() || lead.len() + 1 != dims.len() {
            return None;
        }
        let (off_last, extent) = (offsets[dims.len() - 1], dims[dims.len() - 1] as i64);
        let (lo, hi) = (last.start + off_last, last.end + off_last);
        let row = lead.first().map(|i| i + offsets[0]);
        if lo < 0 || hi > extent || row.is_some_and(|i| i < 0 || i >= dims[0] as i64) {
            return None;
        }
        let cols = lo as usize..hi as usize;
        let row = row.unwrap_or(0) as usize;
        Some(match self {
            AggStore::F1(a) => read_runs(ctx, a.runs(cols.clone()), cols.len(), Value::F),
            AggStore::I1(a) => read_runs(ctx, a.runs(cols.clone()), cols.len(), Value::I),
            AggStore::F2(a) => read_runs(ctx, a.row_runs(row, cols.clone()), cols.len(), Value::F),
            AggStore::I2(a) => read_runs(ctx, a.row_runs(row, cols.clone()), cols.len(), Value::I),
        })
    }
}

/// Read `n` elements laid out as `runs`, one `read_run` per run.
fn read_runs<T: Prim>(
    ctx: &mut NodeCtx,
    runs: impl Iterator<Item = (GAddr, usize)>,
    n: usize,
    value: fn(T) -> Value,
) -> Vec<Value> {
    let mut buf = vec![T::default(); n];
    let mut done = 0;
    for (addr, k) in runs {
        ctx.read_run(addr, &mut buf[done..done + k]);
        done += k;
    }
    buf.into_iter().map(value).collect()
}

/// All of a program's aggregates, materialized.
pub type AggMap = BTreeMap<String, AggStore>;

/// Allocate every aggregate of `prog` on `machine` (1-D: block
/// distribution; 2-D: row-block).
pub fn materialize(machine: &Machine, prog: &CompiledProgram) -> AggMap {
    let mut m = AggMap::new();
    for d in &prog.program.aggs {
        let store = match (d.dims.len(), d.ty) {
            (1, ElemTy::Float) => AggStore::F1(Agg1D::new(machine, d.dims[0], Dist1D::Block)),
            (1, ElemTy::Int) => AggStore::I1(Agg1D::new(machine, d.dims[0], Dist1D::Block)),
            (2, ElemTy::Float) => {
                AggStore::F2(Agg2D::new(machine, d.dims[0], d.dims[1], Dist2D::RowBlock))
            }
            (2, ElemTy::Int) => {
                AggStore::I2(Agg2D::new(machine, d.dims[0], d.dims[1], Dist2D::RowBlock))
            }
            _ => unreachable!("parser enforces 1-D/2-D"),
        };
        m.insert(d.name.clone(), store);
    }
    m
}

/// Run a compiled program on `machine`.
///
/// `init` runs SPMD before `main` (each node initializes the elements it
/// owns); it may be a no-op. Returns the run report of the `main`
/// execution only.
pub fn run_program<F>(
    machine: &mut Machine,
    prog: &CompiledProgram,
    aggs: &AggMap,
    init: F,
) -> RunReport
where
    F: Fn(&mut NodeCtx, &AggMap) + Sync,
{
    // Initialization run (not measured).
    machine.run(|ctx| {
        init(ctx, aggs);
        ctx.barrier();
    });

    let (_, report) = machine.run(|ctx| exec_main(ctx, prog, aggs, None));
    report
}

/// Run a compiled program with the schedule-oracle tap attached: every
/// home-node request during `main` is logged into `tap`, labeled with the
/// call-site id the interpreter was executing. The tap is installed after
/// the (unlabeled) `init` run and removed before returning.
pub fn run_program_traced<F>(
    machine: &mut Machine,
    prog: &CompiledProgram,
    aggs: &AggMap,
    init: F,
    tap: &Arc<AccessTap>,
) -> RunReport
where
    F: Fn(&mut NodeCtx, &AggMap) + Sync,
{
    machine.run(|ctx| {
        init(ctx, aggs);
        ctx.barrier();
    });

    machine.install_tap(tap);
    let (_, report) = machine.run(|ctx| exec_main(ctx, prog, aggs, Some(tap)));
    machine.remove_tap();
    tap.clear_call();
    report
}

/// Execute the op sequence on one node. With a tap, the shared call label
/// is set before each parallel call; all nodes write the same value, and
/// the per-call barrier orders label changes against the next call's
/// requests (the label is deliberately *not* cleared between calls — a
/// slow node's clear could race a fast node's next set).
///
/// An adjacent `PhaseEnd; PhaseBegin(q)` of the walk (loop markers
/// consumed, so also across an iteration boundary) runs as the fused
/// directive `phase_next(q)`: every node executes the same walk, so every
/// node fuses the same boundaries.
///
/// The label *is* cleared at each `PhaseBegin`, fused or not, before the
/// directive: its schedule replay (ownership prefetches, recalls) goes
/// through the ordinary fault path and would otherwise be attributed to
/// the previous call. Clearing there is race-free — the post-call barrier
/// has retired every labeled request, no node starts a replay before the
/// directive's first barrier (the closing one, when fused), which every
/// node reaches only after its own clear, and the directive's stability
/// barrier retires the replay fetches before any node can set the next
/// call's label.
fn exec_main(ctx: &mut NodeCtx, prog: &CompiledProgram, aggs: &AggMap, tap: Option<&AccessTap>) {
    let clear = || tap.iter().for_each(|t| t.clear_call());
    let mut ops = walk(&prog.plan.ops).peekable();
    while let Some(op) = ops.next() {
        match op {
            ExecOp::PhaseBegin(p) => {
                clear();
                ctx.phase_begin(*p);
            }
            ExecOp::PhaseEnd(_) => match ops.next_if(|op| matches!(op, ExecOp::PhaseBegin(_))) {
                Some(ExecOp::PhaseBegin(q)) => {
                    clear();
                    ctx.phase_next(*q);
                }
                _ => ctx.phase_end(),
            },
            ExecOp::Call(id) => {
                if let Some(t) = tap {
                    t.set_call(*id as u64);
                }
                let (func, args) = &prog.call_sites[*id];
                let f = prog.program.func(func).expect("checked at compile time");
                run_parallel_call(ctx, prog, aggs, f, args);
                ctx.barrier(); // implicit end-of-parallel-phase barrier
            }
            // The DSM interpreter executes calls serialized per node, so
            // the merge point has nothing to install; the directive is
            // consumed by the runtime's commutative protocol mode and the
            // merge oracle. (The walk consumes the loop markers.)
            ExecOp::CommutativeMerge { .. } | ExecOp::LoopBegin { .. } | ExecOp::LoopEnd => {}
        }
    }
}

/// The sites of `f` this call takes in run form, as `(span, store,
/// offsets)`: the summary's hoisted sites, less any whose aggregate the
/// call also binds to a parameter the function writes — read ahead, such
/// a row could miss a store an earlier invocation made through the alias.
fn run_form_sites<'a>(
    sum: &'a AccessSummary,
    f: &ParFn,
    args: &[String],
    bind: &BTreeMap<&str, &'a AggStore>,
) -> Vec<(Span, &'a AggStore, &'a [i64])> {
    let arg = |param: &str| f.params.iter().position(|p| p == param).map(|k| &args[k]);
    let written = |p: &String| sum.get(p).home_write || sum.get(p).nonhome_write;
    let aliased = |s: &str| f.params.iter().any(|p| written(p) && arg(p) == arg(s));
    sum.hoisted()
        .filter(|s| !aliased(&s.param))
        .filter_map(|s| Some((s.span, *bind.get(s.param.as_str())?, s.affine.as_deref()?)))
        .collect()
}

/// Run one parallel call over this node's owned elements, a row at a
/// time: the row's run-form reads first, then its invocations. An
/// evaluation error panics the node with the evaluator's message.
fn run_parallel_call(
    ctx: &mut NodeCtx,
    prog: &CompiledProgram,
    aggs: &AggMap,
    f: &ParFn,
    args: &[String],
) {
    // Bind parameter names to aggregate stores.
    let bind: BTreeMap<&str, &AggStore> =
        f.params.iter().zip(args).map(|(p, a)| (p.as_str(), &aggs[a])).collect();
    let par_agg = bind[f.params[0].as_str()];
    let sites = run_form_sites(&prog.summaries[&f.name], f, args, &bind);
    for row in par_agg.owned_rows(ctx.me()) {
        let ahead: Vec<(Span, Vec<Value>)> = sites
            .iter()
            .filter_map(|(span, store, offsets)| Some((*span, store.read_row(ctx, &row, offsets)?)))
            .collect();
        let (lead, last) = &row;
        for (col, j) in last.clone().enumerate() {
            let pos = [&lead[..], &[j]].concat();
            let store = Dsm { bind: &bind, ahead: &ahead, col, ctx };
            if let Err(e) = Eval::new(store, &pos).stmts(&f.body) {
                panic!("{e}");
            }
        }
    }
}

/// The interpreter's store: one invocation's accesses through `NodeCtx`,
/// its row's run-form sites answered from the row buffer.
struct Dsm<'a, 'c, 'n> {
    bind: &'a BTreeMap<&'a str, &'a AggStore>,
    /// The row's run-form sites, each with the row's values.
    ahead: &'a [(Span, Vec<Value>)],
    /// This invocation's place in the row.
    col: usize,
    ctx: &'c mut NodeCtx<'n>,
}

impl Store for Dsm<'_, '_, '_> {
    fn read(&mut self, agg: &str, idx: &[i64], site: Span) -> Result<Value, String> {
        match self.ahead.iter().find(|(s, _)| *s == site) {
            Some((_, row)) => Ok(row[self.col]),
            None => self.bind[agg].read(self.ctx, idx),
        }
    }

    fn write(&mut self, agg: &str, idx: &[i64], v: Value) -> Result<(), String> {
        self.bind[agg].write(self.ctx, idx, v)
    }

    fn work(&mut self) {
        self.ctx.work(1);
    }
}

/// A deterministic SPMD initializer: each node fills the elements it owns
/// from a splitmix64 stream keyed by `seed`, the aggregate's position in
/// the map, and the element index — contents are independent of node count
/// and run order. Floats land in `[0, 1)`; ints are reduced modulo the
/// aggregate's leading extent, so int aggregates can safely be used as
/// index tables (the schedule oracle's default workload).
pub fn seeded_init(seed: u64) -> impl Fn(&mut NodeCtx, &AggMap) + Sync {
    move |ctx, aggs| {
        for (k, store) in aggs.values().enumerate() {
            let extent = store.dims()[0] as u64;
            for pos in store.owned(ctx.me()) {
                let v = seeded_value(seed, k as u64, &pos, store.ty(), extent);
                store.write(ctx, &pos, v).expect("a seeded value fits its aggregate");
            }
        }
    }
}

/// What [`seeded_init`] stores at `pos` of the `k`-th aggregate (in name
/// order), whose leading extent is `extent`.
pub(crate) fn seeded_value(seed: u64, k: u64, pos: &[i64], ty: ElemTy, extent: u64) -> Value {
    let lin = pos.iter().fold(0u64, |acc, &i| acc.wrapping_mul(0x100_0003).wrapping_add(i as u64));
    let r = mix64(seed ^ k.wrapping_mul(SplitMix64::GAMMA) ^ lin);
    match ty {
        ElemTy::Float => Value::F((r >> 11) as f64 / (1u64 << 53) as f64),
        ElemTy::Int => Value::I((r % extent.max(1)) as i64),
    }
}

/// Gather an aggregate's contents (row-major) by reading it from node 0
/// — a testing/diagnostic convenience.
pub fn read_aggregate(machine: &mut Machine, aggs: &AggMap, name: &str) -> Vec<Value> {
    let store = &aggs[name];
    let (results, _) = machine.run(|ctx| {
        let mut out = Vec::new();
        if ctx.me() == 0 {
            let read = |pos: Vec<i64>| store.read(ctx, &pos).expect("every position is in bounds");
            out = positions(&store.dims()).map(read).collect();
        }
        ctx.barrier();
        out
    });
    results.into_iter().next().expect("node 0 result")
}

/// [`read_aggregate`] as floats.
pub fn read_aggregate_f64(machine: &mut Machine, aggs: &AggMap, name: &str) -> Vec<f64> {
    read_aggregate(machine, aggs, name).into_iter().map(Value::as_f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinOp;
    use crate::eval::eval_bin;

    #[test]
    fn value_semantics() {
        assert_eq!(Value::I(3).as_f(), 3.0);
        assert_eq!(Value::F(2.5).as_f(), 2.5);
        assert!(Value::I(1).truthy());
        assert!(!Value::F(0.0).truthy());
    }

    #[test]
    fn bin_promotion() {
        let bin = |op, a, b| eval_bin(op, a, b).expect("defined");
        assert_eq!(bin(BinOp::Add, Value::I(1), Value::I(2)), Value::I(3));
        assert_eq!(bin(BinOp::Add, Value::I(1), Value::F(2.5)), Value::F(3.5));
        assert_eq!(bin(BinOp::Div, Value::I(7), Value::I(2)), Value::I(3));
        assert_eq!(bin(BinOp::Lt, Value::I(1), Value::F(2.0)), Value::I(1));
        assert_eq!(bin(BinOp::Mod, Value::I(7), Value::I(3)), Value::I(1));
    }

    /// The interpreter's boundary: an evaluation error panics the node
    /// with the evaluator's message.
    #[test]
    #[should_panic(expected = "float 1.5 used as index")]
    fn float_index_rejected() {
        use prescient_runtime::MachineConfig;
        let src =
            "aggregate A[4] of float; parallel fn f(a) { a[#0] = a[1.5]; } fn main() { f(A); }";
        let prog = crate::compile::compile(src).expect("compiles");
        let mut machine = Machine::new(MachineConfig::stache(1, 32));
        let aggs = materialize(&machine, &prog);
        run_program(&mut machine, &prog, &aggs, |_, _| {});
    }
}
