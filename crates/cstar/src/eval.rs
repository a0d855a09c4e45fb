//! The one evaluator of mini-C\*\* parallel-function bodies, shared by the
//! DSM interpreter ([`crate::interp`]) and the §3.4 merge oracle
//! ([`crate::commute`]), and the plan walker and position enumerator both
//! of them run on.
//!
//! One integer semantics: `+`, `-`, `*`, negation and `abs` wrap; `/` or
//! `%` by zero, a float `%`, a float index and a float stored into an
//! `int` aggregate are errors naming the operation. Nothing here panics:
//! the store decides what an error means — the interpreter panics with it,
//! the oracle reports it as E008.

use crate::ast::{BinOp, Builtin, ElemTy, Expr, Stmt};
use crate::commute::{match_reduction, MergeOp};
use crate::diag::Span;
use crate::directives::ExecOp;

/// A scalar value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Float.
    F(f64),
    /// Integer.
    I(i64),
}

impl Value {
    /// As float (ints promote).
    pub fn as_f(self) -> f64 {
        match self {
            Value::F(v) => v,
            Value::I(v) => v as f64,
        }
    }

    /// As integer index (a float is an error).
    pub fn as_index(self) -> Result<i64, String> {
        match self {
            Value::I(v) => Ok(v),
            Value::F(v) => Err(format!("float {v} used as index")),
        }
    }

    /// Truthiness (nonzero).
    pub fn truthy(self) -> bool {
        match self {
            Value::F(v) => v != 0.0,
            Value::I(v) => v != 0,
        }
    }

    /// As an element of a `ty` aggregate: ints promote into floats, a
    /// float is no int.
    pub(crate) fn to_elem(self, ty: ElemTy) -> Result<Value, String> {
        match (ty, self) {
            (ElemTy::Float, v) => Ok(Value::F(v.as_f())),
            (ElemTy::Int, Value::I(v)) => Ok(Value::I(v)),
            (ElemTy::Int, Value::F(v)) => Err(format!("float {v} stored into int")),
        }
    }
}

/// Where a body's aggregate accesses go; `agg` is the parameter name the
/// body uses.
pub(crate) trait Store {
    /// Read element `idx`; `site` is the read's source span.
    fn read(&mut self, agg: &str, idx: &[i64], site: Span) -> Result<Value, String>;
    /// Store `v` at `idx`.
    fn write(&mut self, agg: &str, idx: &[i64], v: Value) -> Result<(), String>;
    /// Are writes of `agg` privatized (logged as merges)?
    fn privatizes(&self, _agg: &str) -> bool {
        false
    }
    /// A privatized write: merge `v` into `idx` by `op` (`None` overwrites).
    fn merge(&mut self, agg: &str, _: &[i64], _: Option<MergeOp>, _: Value) -> Result<(), String> {
        Err(format!("`{agg}` is not privatized"))
    }
    /// One arithmetic operation was performed.
    fn work(&mut self) {}
}

/// One invocation of a parallel-function body at element `pos`.
pub(crate) struct Eval<'p, S> {
    store: S,
    pos: &'p [i64],
    locals: Vec<(String, Value)>,
    /// The aggregate access the store refused, as (parameter, index), if
    /// that is what stopped the body.
    pub(crate) refused: Option<(String, Vec<i64>)>,
}

impl<'p, S: Store> Eval<'p, S> {
    pub(crate) fn new(store: S, pos: &'p [i64]) -> Self {
        Eval { store, pos, locals: Vec::new(), refused: None }
    }

    /// `r`, the store's answer to an access of `agg` at `at`, noting a
    /// refusal.
    fn access<T>(&mut self, agg: &str, at: Vec<i64>, r: Result<T, String>) -> Result<T, String> {
        if r.is_err() {
            self.refused = Some((agg.to_string(), at));
        }
        r
    }

    pub(crate) fn stmts(&mut self, body: &[Stmt]) -> Result<(), String> {
        body.iter().try_for_each(|s| self.stmt(s))
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), String> {
        match s {
            Stmt::Let(name, e) => {
                let v = self.expr(e)?;
                self.locals.push((name.clone(), v));
            }
            Stmt::AssignLocal(name, e) => {
                let v = self.expr(e)?;
                let slot = self.locals.iter_mut().rev().find(|(n, _)| n == name);
                slot.ok_or_else(|| format!("assignment to unbound local `{name}`"))?.1 = v;
            }
            Stmt::AssignAgg { agg, idx, value, .. } => {
                let at = self.index(idx)?;
                if !self.store.privatizes(agg) {
                    let v = self.expr(value)?;
                    let r = self.store.write(agg, &at, v);
                    return self.access(agg, at, r);
                }
                // A privatized write logs a reduction's operand under its
                // operator; anything else (forced through by the weakened
                // rules) logs the value it stores.
                let (op, v) = match match_reduction(agg, idx, value) {
                    Some(r) if r.negate => (Some(r.op), neg(self.expr(r.operand)?)),
                    Some(r) => (Some(r.op), self.expr(r.operand)?),
                    None => (None, self.expr(value)?),
                };
                let r = self.store.merge(agg, &at, op, v);
                return self.access(agg, at, r);
            }
            Stmt::If(c, t, e) => {
                let depth = self.locals.len();
                let branch = if self.expr(c)?.truthy() { t } else { e };
                self.stmts(branch)?;
                self.locals.truncate(depth);
            }
            Stmt::For { var, lo, hi, body } => {
                let lo = self.expr(lo)?.as_index()?;
                let hi = self.expr(hi)?.as_index()?;
                let depth = self.locals.len();
                self.locals.push((var.clone(), Value::I(lo)));
                for i in lo..hi {
                    if let Some(slot) = self.locals.get_mut(depth) {
                        slot.1 = Value::I(i);
                    }
                    self.stmts(body)?;
                    self.locals.truncate(depth + 1);
                }
                self.locals.truncate(depth);
            }
        }
        Ok(())
    }

    fn index(&mut self, idx: &[Expr]) -> Result<Vec<i64>, String> {
        idx.iter().map(|e| self.expr(e)?.as_index()).collect()
    }

    fn expr(&mut self, e: &Expr) -> Result<Value, String> {
        Ok(match e {
            Expr::Num(v) => Value::F(*v),
            Expr::Int(v) => Value::I(*v),
            Expr::Var(name) => {
                let local = self.locals.iter().rev().find(|(n, _)| n == name);
                local.ok_or_else(|| format!("unknown local `{name}`"))?.1
            }
            Expr::Pos(k) => match self.pos.get(*k) {
                Some(&p) => Value::I(p),
                None => return Err(format!("#{k} used in a {}-D context", self.pos.len())),
            },
            Expr::AggRead { agg, idx, span } => {
                let at = self.index(idx)?;
                let r = self.store.read(agg, &at, *span);
                self.access(agg, at, r)?
            }
            Expr::Neg(a) => {
                self.store.work();
                neg(self.expr(a)?)
            }
            Expr::Bin(op, a, b) => {
                let (x, y) = (self.expr(a)?, self.expr(b)?);
                self.store.work();
                eval_bin(*op, x, y)?
            }
            Expr::Builtin(b, args) => {
                let vs = args.iter().map(|a| self.expr(a)).collect::<Result<Vec<_>, _>>()?;
                self.store.work();
                match (b, vs.as_slice()) {
                    (Builtin::Abs, [Value::F(v)]) => Value::F(v.abs()),
                    (Builtin::Abs, [Value::I(v)]) => Value::I(v.wrapping_abs()),
                    (Builtin::Sqrt, [v]) => Value::F(v.as_f().sqrt()),
                    (Builtin::Min, [a, b]) => num2(*a, *b, f64::min, i64::min),
                    (Builtin::Max, [a, b]) => num2(*a, *b, f64::max, i64::max),
                    _ => return Err(format!("`{b:?}` given {} arguments", vs.len())),
                }
            }
        })
    }
}

fn neg(v: Value) -> Value {
    match v {
        Value::F(x) => Value::F(-x),
        Value::I(x) => Value::I(x.wrapping_neg()),
    }
}

pub(crate) fn num2(a: Value, b: Value, ff: fn(f64, f64) -> f64, fi: fn(i64, i64) -> i64) -> Value {
    match (a, b) {
        (Value::I(x), Value::I(y)) => Value::I(fi(x, y)),
        _ => Value::F(ff(a.as_f(), b.as_f())),
    }
}

pub(crate) fn eval_bin(op: BinOp, a: Value, b: Value) -> Result<Value, String> {
    use BinOp::*;
    Ok(match (op, a, b) {
        (Div, Value::I(_), Value::I(0)) => return Err("integer division by zero".into()),
        (Mod, Value::I(_), Value::I(0)) => return Err("integer modulo by zero".into()),
        (Mod, Value::I(x), Value::I(y)) => Value::I(x.wrapping_rem(y)),
        (Mod, _, _) => return Err("`%` needs integer operands".into()),
        (Add | Sub | Mul | Div, Value::I(x), Value::I(y)) => Value::I(match op {
            Add => x.wrapping_add(y),
            Sub => x.wrapping_sub(y),
            Mul => x.wrapping_mul(y),
            _ => x.wrapping_div(y),
        }),
        (Add | Sub | Mul | Div, _, _) => {
            let (x, y) = (a.as_f(), b.as_f());
            Value::F(match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                _ => x / y,
            })
        }
        (Lt | Le | Gt | Ge | Eq | Ne, _, _) => {
            let (x, y) = (a.as_f(), b.as_f());
            Value::I(match op {
                Lt => x < y,
                Le => x <= y,
                Gt => x > y,
                Ge => x >= y,
                Eq => x == y,
                _ => x != y,
            } as i64)
        }
    })
}

/// The row-major offset of `idx` in an aggregate of extents `dims`.
pub(crate) fn offset(dims: &[usize], idx: &[i64]) -> Result<usize, String> {
    if idx.len() != dims.len() {
        return Err(format!("{}-D index into a {}-D aggregate", idx.len(), dims.len()));
    }
    idx.iter().zip(dims).enumerate().try_fold(0, |at, (k, (&i, &d))| match usize::try_from(i) {
        Ok(i) if i < d => Ok(at * d + i),
        _ => Err(format!("index {i} out of bounds for dimension {k} of size {d}")),
    })
}

/// Every position of an aggregate of extents `dims`, row-major.
pub(crate) fn positions(dims: &[usize]) -> impl Iterator<Item = Vec<i64>> + '_ {
    (0..dims.iter().product::<usize>()).map(move |mut at| {
        let mut pos = vec![0; dims.len()];
        for (slot, &d) in pos.iter_mut().zip(dims).rev() {
            *slot = (at % d) as i64;
            at /= d;
        }
        pos
    })
}

/// A plan's ops in execution order with every counted loop expanded:
/// `LoopBegin`/`LoopEnd` are consumed, never yielded, and an unbalanced
/// plan ends the walk.
pub(crate) fn walk(ops: &[ExecOp]) -> impl Iterator<Item = &ExecOp> {
    let mut pc = 0;
    let mut loops: Vec<(usize, i64, i64)> = Vec::new(); // (body start, current, hi)
    std::iter::from_fn(move || loop {
        let op = ops.get(pc)?;
        pc += 1;
        match op {
            ExecOp::LoopBegin { lo, hi, .. } if lo < hi => loops.push((pc, *lo, *hi)),
            ExecOp::LoopBegin { .. } => {
                // Zero trips: skip the body, nested loops included.
                let mut depth = 1;
                while depth > 0 {
                    match ops.get(pc)? {
                        ExecOp::LoopBegin { .. } => depth += 1,
                        ExecOp::LoopEnd => depth -= 1,
                        _ => {}
                    }
                    pc += 1;
                }
            }
            ExecOp::LoopEnd => {
                if let Some((body, cur, hi)) = loops.pop() {
                    if cur + 1 < hi {
                        loops.push((body, cur + 1, hi));
                        pc = body;
                    }
                }
            }
            _ => return Some(op),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_arithmetic_wraps_and_division_by_zero_is_an_error() {
        let (min, max) = (Value::I(i64::MIN), Value::I(i64::MAX));
        assert_eq!(eval_bin(BinOp::Add, max, Value::I(1)), Ok(min));
        assert_eq!(eval_bin(BinOp::Mul, max, Value::I(2)), Ok(Value::I(-2)));
        assert_eq!(eval_bin(BinOp::Div, min, Value::I(-1)), Ok(min));
        assert_eq!(neg(min), min);
        assert_eq!(eval_bin(BinOp::Div, max, Value::I(0)), Err("integer division by zero".into()));
        assert_eq!(eval_bin(BinOp::Mod, max, Value::I(0)), Err("integer modulo by zero".into()));
        let float_mod = eval_bin(BinOp::Mod, Value::F(1.0), Value::I(2));
        assert_eq!(float_mod, Err("`%` needs integer operands".into()));
        assert_eq!(Value::F(1.5).to_elem(ElemTy::Int), Err("float 1.5 stored into int".into()));
    }

    #[test]
    fn positions_are_row_major_and_offsets_invert_them() {
        let all: Vec<Vec<i64>> = positions(&[2, 3]).collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[5], vec![1, 2]);
        for (k, p) in all.iter().enumerate() {
            assert_eq!(offset(&[2, 3], p), Ok(k));
        }
        let oob = offset(&[2, 3], &[1, 3]);
        assert_eq!(oob, Err("index 3 out of bounds for dimension 1 of size 3".into()));
        assert!(offset(&[2, 3], &[-1, 0]).is_err() && offset(&[2, 3], &[0]).is_err());
    }

    #[test]
    fn walk_expands_loops_and_skips_empty_ones() {
        let lp = |lo, hi| ExecOp::LoopBegin { label: "t".into(), lo, hi };
        let ops = vec![
            lp(0, 2),
            ExecOp::Call(0),
            lp(5, 5),
            ExecOp::Call(1),
            ExecOp::LoopEnd,
            ExecOp::LoopEnd,
            ExecOp::Call(2),
        ];
        let ids: Vec<&ExecOp> = walk(&ops).collect();
        assert_eq!(ids, [&ExecOp::Call(0), &ExecOp::Call(0), &ExecOp::Call(2)]);
        // Unbalanced plans end the walk instead of panicking.
        assert_eq!(walk(&[ExecOp::LoopEnd, ExecOp::Call(3)]).count(), 1);
        assert_eq!(walk(&[lp(1, 0), ExecOp::Call(3)]).count(), 0);
    }
}
