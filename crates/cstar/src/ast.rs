//! Abstract syntax of mini-C\*\*.

use crate::diag::Span;

/// Element type of an aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemTy {
    /// 64-bit float (`float`).
    Float,
    /// 64-bit integer (`int`).
    Int,
}

/// A global aggregate declaration: `aggregate Name[d0] of float;` or
/// `aggregate Name[d0][d1] of int;`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggDecl {
    /// Instance name.
    pub name: String,
    /// Dimensions (1 or 2 entries).
    pub dims: Vec<usize>,
    /// Element type.
    pub ty: ElemTy,
    /// Source region of the declaration's name.
    pub span: Span,
}

/// A parallel function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ParFn {
    /// Function name.
    pub name: String,
    /// Parameter names; each is bound to an aggregate at the call site.
    /// The first parameter is the `parallel` aggregate: the function runs
    /// once per element of it, with `#0`/`#1` naming that element.
    pub params: Vec<String>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source region of the function's name.
    pub span: Span,
}

/// Statements (usable in parallel-function bodies).
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let x = expr;` — a local scalar binding.
    Let(String, Expr),
    /// `x = expr;` — assignment to a local.
    AssignLocal(String, Expr),
    /// `agg[i0](<[i1]>) = expr;` — a store to an aggregate element.
    AssignAgg {
        /// Target aggregate (parameter name inside a parallel function).
        agg: String,
        /// Index expressions, one per dimension.
        idx: Vec<Expr>,
        /// Stored value.
        value: Expr,
        /// Source region of the whole store target (`agg[..]`).
        span: Span,
    },
    /// `if cond { .. } else { .. }`.
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `for v in lo .. hi { .. }` — a counted sequential loop.
    For {
        /// Loop variable.
        var: String,
        /// Inclusive lower bound expression.
        lo: Expr,
        /// Exclusive upper bound expression.
        hi: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
}

/// Statements of the sequential `main` function.
#[derive(Debug, Clone, PartialEq)]
pub enum SeqStmt {
    /// A parallel-function call: `name(aggArg, ...);`, optionally prefixed
    /// with the `commute` directive: `commute name(aggArg, ...);`.
    Call {
        /// Callee parallel function.
        func: String,
        /// Aggregate arguments, by declaration name.
        args: Vec<String>,
        /// `true` when the call is annotated `commute`: the programmer
        /// asserts its aggregate updates are order-independent, so the
        /// runtime may privatize them and merge at the phase barrier.
        commute: bool,
        /// Source region of the call (callee name through closing paren).
        span: Span,
    },
    /// `for v in lo .. hi { .. }` over sequential statements.
    For {
        /// Loop variable (available for diagnostics only; the analysis
        /// does not depend on trip counts).
        var: String,
        /// Constant bounds.
        lo: i64,
        /// Exclusive upper bound.
        hi: i64,
        /// Body.
        body: Vec<SeqStmt>,
    },
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Float literal.
    Num(f64),
    /// Integer literal.
    Int(i64),
    /// Local variable or loop variable.
    Var(String),
    /// Pseudo-variable `#k`: position of the own element along dimension k.
    Pos(usize),
    /// Aggregate element read: `agg[i0](<[i1]>)`.
    AggRead {
        /// Source aggregate (parameter name).
        agg: String,
        /// Index expressions.
        idx: Vec<Expr>,
        /// Source region of the whole read (`agg[..]`).
        span: Span,
    },
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary negation.
    Neg(Box<Expr>),
    /// Built-in call: `abs(e)`, `min(a,b)`, `max(a,b)`, `sqrt(e)`.
    Builtin(Builtin, Vec<Expr>),
}

impl Expr {
    /// Match `#p`, `#p + c`, `#p - c` and, when `commuted`, `c + #p`: the
    /// position `p` and the signed offset `c`.
    pub fn pos_offset(&self, commuted: bool) -> Option<(usize, i64)> {
        match self {
            Expr::Pos(p) => Some((*p, 0)),
            Expr::Bin(op @ (BinOp::Add | BinOp::Sub), a, b) => match (&**a, &**b) {
                (Expr::Pos(p), Expr::Int(c)) => Some((*p, if *op == BinOp::Add { *c } else { -c })),
                (Expr::Int(c), Expr::Pos(p)) if commuted && *op == BinOp::Add => Some((*p, *c)),
                _ => None,
            },
            _ => None,
        }
    }

    /// Does `hit` hold for this expression or for one inside it, indices
    /// included? Visits in source order (an expression before its
    /// operands) and stops at the first hit.
    pub fn any(&self, hit: &mut impl FnMut(&Expr) -> bool) -> bool {
        hit(self)
            || match self {
                Expr::AggRead { idx: kids, .. } | Expr::Builtin(_, kids) => {
                    kids.iter().any(|k| k.any(hit))
                }
                Expr::Bin(_, a, b) => a.any(hit) || b.any(hit),
                Expr::Neg(a) => a.any(hit),
                Expr::Num(_) | Expr::Int(_) | Expr::Var(_) | Expr::Pos(_) => false,
            }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%` (integers)
    Mod,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

/// Built-in functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// Absolute value.
    Abs,
    /// Minimum of two values.
    Min,
    /// Maximum of two values.
    Max,
    /// Square root.
    Sqrt,
}

/// A whole program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Global aggregate declarations.
    pub aggs: Vec<AggDecl>,
    /// Parallel functions.
    pub funcs: Vec<ParFn>,
    /// The sequential main body.
    pub main: Vec<SeqStmt>,
}

impl Program {
    /// Look up an aggregate declaration by name.
    pub fn agg(&self, name: &str) -> Option<&AggDecl> {
        self.aggs.iter().find(|a| a.name == name)
    }

    /// Look up a parallel function by name.
    pub fn func(&self, name: &str) -> Option<&ParFn> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// `main`'s parallel calls as `(callee, argument aggregates, span)`,
    /// in source order: call-site id `i` is entry `i`, as the CFG numbers
    /// them.
    pub fn calls(&self) -> Vec<(&str, &[String], Span)> {
        fn walk<'a>(stmts: &'a [SeqStmt], out: &mut Vec<(&'a str, &'a [String], Span)>) {
            for s in stmts {
                match s {
                    SeqStmt::Call { func, args, span, .. } => out.push((func, args, *span)),
                    SeqStmt::For { body, .. } => walk(body, out),
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.main, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_visits_in_source_order_and_stops_at_the_first_hit() {
        let pos = |k| Box::new(Expr::Pos(k));
        let inner = Expr::AggRead {
            agg: "v".into(),
            idx: vec![Expr::Bin(BinOp::Sub, pos(0), Box::new(Expr::Int(1)))],
            span: Span::default(),
        };
        let read = Expr::AggRead {
            agg: "g".into(),
            idx: vec![inner, Expr::Pos(1)],
            span: Span::default(),
        };
        let e = Expr::Bin(BinOp::Add, Box::new(read), Box::new(Expr::Neg(Box::new(Expr::Int(2)))));
        let visited = |stop: &str| {
            let mut seen = Vec::new();
            let hit = e.any(&mut |x| {
                seen.push(match x {
                    Expr::AggRead { agg, .. } => agg.clone(),
                    Expr::Pos(k) => format!("#{k}"),
                    Expr::Int(c) => c.to_string(),
                    Expr::Bin(..) => "bin".into(),
                    Expr::Neg(_) => "neg".into(),
                    _ => "?".into(),
                });
                seen.last().is_some_and(|s| s == stop)
            });
            (hit, seen)
        };
        let (hit, seen) = visited("none");
        assert!(!hit);
        assert_eq!(seen, ["bin", "g", "v", "bin", "#0", "1", "#1", "neg", "2"]);
        assert_eq!(
            visited("#0"),
            (true, ["bin", "g", "v", "bin", "#0"].map(String::from).to_vec())
        );
    }

    #[test]
    fn pos_offset_matches_the_position_forms() {
        let bin = |op, a, b| Expr::Bin(op, Box::new(a), Box::new(b));
        let (p, c) = (|| Expr::Pos(1), || Expr::Int(3));
        assert_eq!(p().pos_offset(false), Some((1, 0)));
        assert_eq!(bin(BinOp::Add, p(), c()).pos_offset(false), Some((1, 3)));
        assert_eq!(bin(BinOp::Sub, p(), c()).pos_offset(false), Some((1, -3)));
        assert_eq!(bin(BinOp::Add, c(), p()).pos_offset(false), None);
        assert_eq!(bin(BinOp::Add, c(), p()).pos_offset(true), Some((1, 3)));
        assert_eq!(bin(BinOp::Sub, c(), p()).pos_offset(true), None);
        assert_eq!(bin(BinOp::Mul, p(), c()).pos_offset(true), None);
    }

    #[test]
    fn calls_follow_the_cfg_ids() {
        let src = "aggregate A[4] of float;\n\
                   parallel fn f(a) { a[#0] = 1.0; }\n\
                   parallel fn g(a) { a[#0] = 2.0; }\n\
                   parallel fn h(a) { a[#0] = 3.0; }\n\
                   fn main() { f(A); for i in 0 .. 2 { g(A); for j in 0 .. 2 { commute h(A); } } f(A); }\n";
        let c = crate::compile::compile(src).unwrap();
        let calls = c.program.calls();
        let names: Vec<&str> = calls.iter().map(|c| c.0).collect();
        assert_eq!(names, ["f", "g", "h", "f"]);
        for (id, (func, args, _)) in calls.iter().enumerate() {
            let site = c.cfg.call(c.cfg.call_node[id]).unwrap();
            assert_eq!((site.id, site.func.as_str()), (id, *func));
            assert_eq!(c.call_sites[id], (func.to_string(), args.to_vec()));
        }
        assert!(calls.windows(2).all(|w| w[0].2.lo < w[1].2.lo), "source order");
    }
}
