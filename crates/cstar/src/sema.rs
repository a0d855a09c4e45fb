//! Parallel-function analysis: access-pattern summaries (§4.2).
//!
//! For each parallel function, the compiler compiles a context-insensitive
//! list of all aggregate member accesses that potentially require
//! communication. Each access is conservatively categorized as a **Home**
//! access — the invocation's *own* element, i.e. an index that is exactly
//! the position pseudo-variable in every dimension — or a **Non-Home**
//! access (neighbor offsets, indirection through values, loop variables —
//! anything else). Reads and writes are tracked separately.
//!
//! The paper's example (Figure 3's `update`): summary
//! `{(primal, Write, Home), (dual, Read, NonHome)}` — which this module's
//! tests reproduce verbatim.
//!
//! Besides the boolean per-parameter rollup ([`ParamAccess`]), the analyzer
//! records every individual access with its source span ([`AccessSite`]) —
//! the raw material for the lint suite and the schedule oracle's
//! static↔dynamic diff — and each parameter's commutativity class
//! ([`crate::commute`]). Its walk of a body is the compiler's only
//! analysis of it: the lints read the sites' facts and never walk the AST.

use std::collections::BTreeMap;

use crate::ast::*;
use crate::commute::{Classifier, CommuteClass};
use crate::diag::{codes, Diagnostic, Span};

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// Load of an aggregate element.
    Read,
    /// Store to an aggregate element.
    Write,
}

/// Home (own element) vs. Non-Home (anything else).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Locality {
    /// The invocation's own element: never requires communication.
    Home,
    /// Potentially someone else's element: potentially unstructured
    /// communication.
    NonHome,
}

/// The constant offsets of an *affine* index vector — every index its own
/// dimension's position pseudo-variable plus a constant (`#k`, `#k + c`,
/// `#k - c`), so a row of invocations sweeps a contiguous row of the
/// aggregate — or `None` for anything else: an indirection through a
/// value, a loop variable, a transposed position.
fn affine_offsets(idx: &[Expr]) -> Option<Vec<i64>> {
    let offset = |(k, e): (usize, &Expr)| match e.pos_offset(false)? {
        (p, c) if p == k => Some(c),
        _ => None,
    };
    idx.iter().enumerate().map(offset).collect()
}

/// Summary of one parallel function's accesses to one aggregate
/// *parameter*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParamAccess {
    /// Home reads occur.
    pub home_read: bool,
    /// Home (owner) writes occur.
    pub home_write: bool,
    /// Unstructured (non-home) reads occur.
    pub nonhome_read: bool,
    /// Unstructured (non-home) writes occur.
    pub nonhome_write: bool,
    /// Commutativity verdict (see [`crate::commute`]): the parameter is
    /// written, every write is an associative-commutative reduction
    /// update, and no read observes it outside those updates — so the
    /// writes may be privatized and merged at the phase barrier.
    pub commute: bool,
}

impl ParamAccess {
    /// Any access at all?
    pub fn any(&self) -> bool {
        self.home_read || self.home_write || self.nonhome_read || self.nonhome_write
    }

    /// Any unstructured access?
    pub fn unstructured(&self) -> bool {
        self.nonhome_read || self.nonhome_write
    }

    /// Render as the paper's notation, e.g. `Write/Home, Read/NonHome`.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if self.home_read {
            parts.push("Read/Home");
        }
        if self.home_write {
            parts.push("Write/Home");
        }
        if self.nonhome_read {
            parts.push("Read/NonHome");
        }
        if self.nonhome_write {
            parts.push("Write/NonHome");
        }
        parts.join(", ")
    }
}

/// One concrete aggregate access inside a parallel-function body, with its
/// source span — what the lints and the schedule oracle point at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessSite {
    /// Parameter name accessed.
    pub param: String,
    /// Read or write.
    pub kind: AccessKind,
    /// Home or non-home index.
    pub loc: Locality,
    /// The index's constant offsets from the position, per dimension, when
    /// it is affine (a Home access is the all-zero case); `None` for an
    /// indirection.
    pub affine: Option<Vec<i64>>,
    /// Not nested in an `if` or a `for`: every invocation executes the
    /// site exactly once.
    pub unconditional: bool,
    /// Each dimension's index as `#p ± c` or `c + #p`: the position `p`
    /// and the signed offset; `None` for any other index.
    pub offsets: Vec<Option<(usize, i64)>>,
    /// The positions' values the conditions of the enclosing `if`s let
    /// reach the site.
    pub guard: Guard,
    /// An index draws on remote data: it holds a non-home read, by the
    /// paper's rules whatever rules the summary was built under, or a
    /// local assigned from one.
    pub remote_index: bool,
    /// Where in the source.
    pub span: Span,
}

/// Per position `#k`, the inclusive range of values the conditions of the
/// enclosing `if`s allow: each `#k OP c` or `c OP #k` with an integer
/// constant `c` narrows it in its `then` branch, and its negation in its
/// `else` branch. Nested `if`s intersect, which is how a program writes a
/// conjunction. Any other condition says nothing about any position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Guard([(i64, i64); 2]);

impl Default for Guard {
    fn default() -> Guard {
        Guard([(i64::MIN, i64::MAX); 2])
    }
}

impl Guard {
    /// The values position `pos` may take at the site, among `0..extent`;
    /// empty (`lo > hi`) where no position reaches it.
    pub(crate) fn range(&self, pos: usize, extent: usize) -> (i64, i64) {
        let (lo, hi) = self.0.get(pos).copied().unwrap_or((i64::MIN, i64::MAX));
        (lo.max(0), hi.min(extent as i64 - 1))
    }

    /// Does any enclosing condition bound position `pos`?
    pub(crate) fn bounds(&self, pos: usize) -> bool {
        self.0.get(pos).is_some_and(|&r| r != (i64::MIN, i64::MAX))
    }

    /// This guard inside a branch of `if cond`: the `then` branch when
    /// `holds`, the `else` branch otherwise.
    fn narrowed(mut self, cond: &Expr, holds: bool) -> Guard {
        use BinOp::*;
        // `c OP #p` is `#p OP' c`, the comparison mirrored.
        fn mirrored(op: BinOp) -> BinOp {
            match op {
                Lt => Gt,
                Le => Ge,
                Gt => Lt,
                Ge => Le,
                op => op,
            }
        }
        let Expr::Bin(op, a, b) = cond else { return self };
        let (pos, c, op) = match (&**a, &**b) {
            (Expr::Pos(p), c) => (*p, c, *op),
            (c, Expr::Pos(p)) => (*p, c, mirrored(*op)),
            _ => return self,
        };
        let c = match c {
            Expr::Int(c) => *c,
            Expr::Neg(c) => match **c {
                Expr::Int(c) => c.wrapping_neg(),
                _ => return self,
            },
            _ => return self,
        };
        let (lo, hi) = match (op, holds) {
            (Lt, true) | (Ge, false) => (i64::MIN, c.saturating_sub(1)),
            (Le, true) | (Gt, false) => (i64::MIN, c),
            (Gt, true) | (Le, false) => (c.saturating_add(1), i64::MAX),
            (Ge, true) | (Lt, false) => (c, i64::MAX),
            (Eq, true) | (Ne, false) => (c, c),
            _ => return self,
        };
        if let Some(r) = self.0.get_mut(pos) {
            *r = (r.0.max(lo), r.1.min(hi));
        }
        self
    }
}

impl AccessSite {
    /// The paper's notation plus the shape, e.g. `Read/NonHome/Affine`.
    pub fn describe(&self) -> String {
        let shape = if self.affine.is_some() { "Affine" } else { "Indirect" };
        format!("{:?}/{:?}/{shape}", self.kind, self.loc)
    }
}

/// Access summary of one parallel function: per parameter name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessSummary {
    /// Per-parameter access classification (ordered for stable output).
    pub params: BTreeMap<String, ParamAccess>,
    /// Every individual access, in body order, with spans.
    pub sites: Vec<AccessSite>,
    /// Per-parameter commutativity class under the paper's rules (the
    /// E008 blame); [`ParamAccess::commute`] is the verdict the rules
    /// give.
    pub classes: BTreeMap<String, CommuteClass>,
}

impl AccessSummary {
    /// The access record for a parameter (default if absent).
    pub fn get(&self, param: &str) -> ParamAccess {
        self.params.get(param).copied().unwrap_or_default()
    }

    /// Does the function perform any unstructured access?
    pub fn any_unstructured(&self) -> bool {
        self.params.values().any(|p| p.unstructured())
    }

    /// Is every access a home access?
    pub fn home_only(&self) -> bool {
        !self.any_unstructured()
    }

    /// The read sites the interpreter takes in run form, one `read_run`
    /// per row of invocations instead of one `read` per invocation:
    /// affine, unconditional, and of a parameter the function never
    /// writes (so the row can be read ahead of the invocations that use
    /// it). A site is told from its neighbours by its span, so one
    /// without a span of its own (a hand-built AST) is left per-word.
    pub fn hoisted(&self) -> impl Iterator<Item = &AccessSite> {
        self.sites.iter().filter(|s| {
            let p = self.get(&s.param);
            s.kind == AccessKind::Read
                && s.affine.is_some()
                && s.unconditional
                && !(p.home_write || p.nonhome_write)
                && self.sites.iter().filter(|o| o.span == s.span).count() == 1
        })
    }

    /// The first recorded site matching `param`, `kind`, `loc`, if any.
    pub fn site(&self, param: &str, kind: AccessKind, loc: Locality) -> Option<&AccessSite> {
        self.sites.iter().find(|s| s.param == param && s.kind == kind && s.loc == loc)
    }
}

/// Tunable classification rules — the oracle mutation test's hook.
///
/// The default rules are the paper's: an index is Home iff it is exactly
/// the position pseudo-variable in every dimension. Setting
/// [`ClassifyRules::const_offset_is_home`] deliberately *weakens* the
/// analysis (constant neighbor offsets like `g[#0-1]` get misclassified as
/// Home); the schedule oracle must catch the resulting unsoundness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassifyRules {
    /// TEST-ONLY weakening: treat `#k ± c` indices as Home accesses.
    pub const_offset_is_home: bool,
    /// TEST-ONLY weakening: treat every aggregate update as a
    /// commutative reduction, regardless of its shape. The dynamic merge
    /// oracle must catch the resulting unsoundness (`E008`).
    pub assume_commutative: bool,
}

impl ClassifyRules {
    /// Classify an index vector under these rules.
    pub fn classify(&self, idx: &[Expr]) -> Locality {
        let dim_ok = |k: usize, e: &Expr| match e {
            Expr::Pos(p) => *p == k,
            _ => self.const_offset_is_home && e.pos_offset(false).is_some_and(|(p, _)| p == k),
        };
        if idx.iter().enumerate().all(|(k, e)| dim_ok(k, e)) {
            Locality::Home
        } else {
            Locality::NonHome
        }
    }
}

/// Classify an index vector under the paper's (sound) default rules.
pub fn classify_index(idx: &[Expr]) -> Locality {
    ClassifyRules::default().classify(idx)
}

/// Analyze one parallel function under the given classification rules,
/// reporting name errors as `E003` diagnostics.
pub fn analyze_fn_with(f: &ParFn, rules: ClassifyRules) -> Result<AccessSummary, Diagnostic> {
    let mut an = Analyzer {
        f,
        rules,
        sum: AccessSummary::default(),
        classes: f.params.iter().map(|_| Classifier::default()).collect(),
        locals: Vec::new(),
        remote: Vec::new(),
        depth: 0,
        guard: Guard::default(),
    };
    for p in &f.params {
        an.sum.params.insert(p.clone(), ParamAccess::default());
    }
    an.stmts(&f.body)?;
    for (param, class) in f.params.iter().zip(an.classes) {
        let class = class.finish();
        if let Some(pa) = an.sum.params.get_mut(param) {
            pa.commute = class.is_commutative()
                || (rules.assume_commutative && class != CommuteClass::ReadOnly);
        }
        an.sum.classes.insert(param.clone(), class);
    }
    Ok(an.sum)
}

/// The one analysis walk of a parallel-function body: it records every
/// access site with the facts the lints read, and feeds each parameter's
/// commutativity classifier.
struct Analyzer<'a> {
    f: &'a ParFn,
    rules: ClassifyRules,
    sum: AccessSummary,
    /// One per parameter, in `f.params` order.
    classes: Vec<Classifier>,
    locals: Vec<String>,
    /// Locals assigned a value that draws on remote data.
    remote: Vec<String>,
    /// `if`/`for` nesting depth of the statement being analyzed.
    depth: usize,
    /// What the conditions of the enclosing `if`s say of the positions.
    guard: Guard,
}

impl<'a> Analyzer<'a> {
    fn err<T>(&self, msg: impl Into<String>, span: Span) -> Result<T, Diagnostic> {
        Err(Diagnostic::error(codes::NAME, format!("in `{}`: {}", self.f.name, msg.into()))
            .with_span(if span == Span::default() { self.f.span } else { span }))
    }

    fn record(
        &mut self,
        agg: &str,
        kind: AccessKind,
        idx: &[Expr],
        span: Span,
    ) -> Result<(), Diagnostic> {
        let loc = self.rules.classify(idx);
        let Some(p) = self.sum.params.get_mut(agg) else {
            return self.err(format!("`{agg}` is not a parameter"), span);
        };
        match (kind, loc) {
            (AccessKind::Read, Locality::Home) => p.home_read = true,
            (AccessKind::Write, Locality::Home) => p.home_write = true,
            (AccessKind::Read, Locality::NonHome) => p.nonhome_read = true,
            (AccessKind::Write, Locality::NonHome) => p.nonhome_write = true,
        }
        let remote_index = idx.iter().any(|i| self.draws_on_remote(i));
        self.sum.sites.push(AccessSite {
            param: agg.to_string(),
            kind,
            loc,
            affine: affine_offsets(idx),
            unconditional: self.depth == 0,
            offsets: idx.iter().map(|e| e.pos_offset(true)).collect(),
            guard: self.guard,
            remote_index,
            span,
        });
        Ok(())
    }

    /// Does `e` draw on remote data: a non-home read anywhere inside it,
    /// or a local assigned from one?
    fn draws_on_remote(&self, e: &Expr) -> bool {
        e.any(&mut |x| match x {
            Expr::Var(name) => self.remote.contains(name),
            Expr::AggRead { idx, .. } => classify_index(idx) == Locality::NonHome,
            _ => false,
        })
    }

    /// An expression outside any parameter's own update, for the
    /// commutativity classifiers.
    fn observe(&mut self, e: &Expr) {
        for (p, c) in self.f.params.iter().zip(&mut self.classes) {
            c.read(p, e);
        }
    }

    /// The value `e` of local `name`.
    fn assign(&mut self, name: &str, e: &Expr) -> Result<(), Diagnostic> {
        self.expr(e)?;
        self.observe(e);
        if self.draws_on_remote(e) {
            self.remote.push(name.to_string());
        }
        Ok(())
    }

    fn stmts(&mut self, body: &[Stmt]) -> Result<(), Diagnostic> {
        for s in body {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), Diagnostic> {
        match s {
            Stmt::Let(name, e) => {
                self.assign(name, e)?;
                self.locals.push(name.clone());
            }
            Stmt::AssignLocal(name, e) => {
                if !self.locals.contains(name) {
                    return self
                        .err(format!("assignment to unknown local `{name}`"), Span::default());
                }
                self.assign(name, e)?;
            }
            Stmt::AssignAgg { agg, idx, value, span } => {
                // An index may never read a parameter, whoever the target.
                for i in idx {
                    self.expr(i)?;
                    self.observe(i);
                }
                self.expr(value)?;
                for (p, c) in self.f.params.iter().zip(&mut self.classes) {
                    if p == agg {
                        c.update(p, idx, value, *span);
                    } else {
                        c.read(p, value);
                    }
                }
                self.record(agg, AccessKind::Write, idx, *span)?;
            }
            Stmt::If(c, t, e) => {
                self.expr(c)?;
                self.observe(c);
                let outer = self.guard;
                self.depth += 1;
                self.guard = outer.narrowed(c, true);
                self.stmts(t)?;
                self.guard = outer.narrowed(c, false);
                self.stmts(e)?;
                self.depth -= 1;
                self.guard = outer;
            }
            Stmt::For { var, lo, hi, body } => {
                self.expr(lo)?;
                self.expr(hi)?;
                self.observe(lo);
                self.observe(hi);
                self.locals.push(var.clone());
                self.depth += 1;
                self.stmts(body)?;
                self.depth -= 1;
            }
        }
        Ok(())
    }

    fn expr(&mut self, e: &Expr) -> Result<(), Diagnostic> {
        match e {
            Expr::Num(_) | Expr::Int(_) | Expr::Pos(_) => Ok(()),
            Expr::Var(name) => {
                if self.locals.iter().any(|l| l == name) {
                    Ok(())
                } else if self.sum.params.contains_key(name) {
                    self.err(format!("aggregate `{name}` used without an index"), Span::default())
                } else {
                    self.err(format!("unknown variable `{name}`"), Span::default())
                }
            }
            Expr::AggRead { agg, idx, span } => {
                for i in idx {
                    self.expr(i)?;
                }
                self.record(agg, AccessKind::Read, idx, *span)
            }
            Expr::Bin(_, a, b) => {
                self.expr(a)?;
                self.expr(b)
            }
            Expr::Neg(a) => self.expr(a),
            Expr::Builtin(_, args) => {
                for a in args {
                    self.expr(a)?;
                }
                Ok(())
            }
        }
    }
}

/// Analyze every parallel function in a program under the given
/// classification rules and validate call sites (arity, aggregate names;
/// dimension agreement between the call's aggregates and the function's
/// index usage is checked dynamically by the interpreter), reporting call
/// site errors as `E004` diagnostics with spans.
pub fn analyze_program_with(
    p: &Program,
    rules: ClassifyRules,
) -> Result<BTreeMap<String, AccessSummary>, Diagnostic> {
    let mut out = BTreeMap::new();
    for f in &p.funcs {
        out.insert(f.name.clone(), analyze_fn_with(f, rules)?);
    }
    for (func, args, span) in p.calls() {
        let Some(f) = p.func(func) else {
            return Err(Diagnostic::error(
                codes::CALL,
                format!("call to unknown parallel function `{func}`"),
            )
            .with_label(span, "not a parallel function"));
        };
        if f.params.len() != args.len() {
            return Err(Diagnostic::error(
                codes::CALL,
                format!(
                    "`{func}` takes {} aggregate(s), called with {}",
                    f.params.len(),
                    args.len()
                ),
            )
            .with_span(span)
            .with_label(f.span, "declared here"));
        }
        if let Some(a) = args.iter().find(|a| p.agg(a).is_none()) {
            return Err(Diagnostic::error(
                codes::CALL,
                format!("unknown aggregate `{a}` in call to `{func}`"),
            )
            .with_span(span));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_diag;

    fn analyze(src: &str) -> Result<BTreeMap<String, AccessSummary>, Diagnostic> {
        analyze_program_with(&parse_diag(src).unwrap(), ClassifyRules::default())
    }

    #[test]
    fn figure3_summary() {
        // The paper §4.2: "the summary access list of function update
        // contains two elements, (primal, Write, Home) and
        // (dual, Read, NonHome)".
        let src = r#"
            aggregate Primal[100] of float;
            aggregate Dual[100] of float;
            aggregate Nbr[100] of int;
            parallel fn update(primal, dual, nbr) {
                let k = nbr[#0];
                primal[#0] = primal[#0] + 0.5 * dual[k];
            }
            fn main() { update(Primal, Dual, Nbr); }
        "#;
        let sums = analyze(src).unwrap();
        let s = &sums["update"];
        let primal = s.get("primal");
        assert!(primal.home_write && primal.home_read);
        assert!(!primal.unstructured());
        let dual = s.get("dual");
        assert!(dual.nonhome_read);
        assert!(!dual.home_read && !dual.home_write && !dual.nonhome_write);
        assert_eq!(dual.describe(), "Read/NonHome");
        let nbr = s.get("nbr");
        assert!(nbr.home_read && !nbr.unstructured());
    }

    #[test]
    fn stencil_neighbors_are_nonhome() {
        let src = r#"
            aggregate G[8][8] of float;
            aggregate H[8][8] of float;
            parallel fn sweep(g, h) {
                h[#0][#1] = 0.25 * (g[#0-1][#1] + g[#0+1][#1] + g[#0][#1-1] + g[#0][#1+1]);
            }
            fn main() { sweep(G, H); }
        "#;
        let s = &analyze(src).unwrap()["sweep"];
        assert!(s.get("g").nonhome_read, "neighbor reads are unstructured");
        assert!(!s.get("g").home_write);
        assert!(s.get("h").home_write, "own-element store is an owner write");
        assert!(!s.get("h").unstructured());
    }

    #[test]
    fn swapped_positions_are_nonhome() {
        // g[#1][#0] is a transpose access, not the own element.
        let src = r#"
            aggregate G[8][8] of float;
            parallel fn t(g) { g[#0][#1] = g[#1][#0]; }
            fn main() { t(G); }
        "#;
        let s = &analyze(src).unwrap()["t"];
        assert!(s.get("g").nonhome_read);
        assert!(s.get("g").home_write);
    }

    #[test]
    fn indirect_write_is_unstructured() {
        let src = r#"
            aggregate A[16] of float;
            aggregate P[16] of int;
            parallel fn scatter(a, p) { a[p[#0]] = 1.0; }
            fn main() { scatter(A, P); }
        "#;
        let s = &analyze(src).unwrap()["scatter"];
        assert!(s.get("a").nonhome_write);
        assert!(s.get("p").home_read);
    }

    #[test]
    fn home_only_function() {
        let src = r#"
            aggregate A[16] of float;
            parallel fn scale(a) { a[#0] = a[#0] * 2.0; }
            fn main() { scale(A); }
        "#;
        let s = &analyze(src).unwrap()["scale"];
        assert!(s.home_only());
    }

    #[test]
    fn unknown_variable_rejected() {
        let src = r#"
            aggregate A[4] of float;
            parallel fn f(a) { a[#0] = y; }
            fn main() { f(A); }
        "#;
        assert!(analyze(src).is_err());
    }

    #[test]
    fn call_arity_checked() {
        let src = r#"
            aggregate A[4] of float;
            parallel fn f(a) { a[#0] = 1.0; }
            fn main() { f(A, A); }
        "#;
        assert!(analyze(src).is_err());
    }

    #[test]
    fn unknown_aggregate_in_call_rejected() {
        let src = r#"
            aggregate A[4] of float;
            parallel fn f(a) { a[#0] = 1.0; }
            fn main() { f(B); }
        "#;
        assert!(analyze(src).is_err());
    }

    #[test]
    fn loop_variable_usable_as_index() {
        let src = r#"
            aggregate A[8] of float;
            parallel fn f(a) {
                for i in 0 .. 3 {
                    a[i] = a[i] + 1.0;
                }
            }
            fn main() { f(A); }
        "#;
        let s = &analyze(src).unwrap()["f"];
        // Loop-indexed accesses are conservatively non-home.
        assert!(s.get("a").nonhome_read && s.get("a").nonhome_write);
    }

    #[test]
    fn sites_carry_spans() {
        let src = "aggregate G[8] of float;\nparallel fn f(g) { g[#0] = g[#0-1]; }\nfn main() { f(G); }\n";
        let s = &analyze(src).unwrap()["f"];
        let read = s.site("g", AccessKind::Read, Locality::NonHome).expect("read site");
        let chars: Vec<char> = src.chars().collect();
        let text: String = chars[read.span.lo as usize..read.span.hi as usize].iter().collect();
        assert_eq!(text, "g[#0-1]");
        assert!(s.site("g", AccessKind::Write, Locality::Home).is_some());
    }

    #[test]
    fn weakened_rules_misclassify_const_offsets() {
        let src = "aggregate G[8] of float;\nparallel fn f(g) { g[#0] = g[#0-1]; }\nfn main() { f(G); }\n";
        let p = parse_diag(src).unwrap();
        let weak = ClassifyRules { const_offset_is_home: true, ..ClassifyRules::default() };
        let s = &analyze_program_with(&p, weak).unwrap()["f"];
        // The deliberately unsound rule hides the neighbor read.
        assert!(!s.get("g").nonhome_read);
        assert!(s.get("g").home_read);
    }

    #[test]
    fn call_site_errors_have_spans() {
        let src =
            "aggregate A[4] of float;\nparallel fn f(a) { a[#0] = 1.0; }\nfn main() { g(A); }\n";
        let d = analyze(src).unwrap_err();
        assert_eq!(d.code, "E004");
        assert_eq!(d.primary_span().expect("span").line, 3);
    }

    #[test]
    fn sites_carry_shape_and_nesting() {
        let src = r#"
            aggregate G[8][8] of float;
            aggregate X[8] of int;
            parallel fn f(g, x) {
                let a = g[#0-1][#1+2];
                if #0 > 0 { let b = g[#0][#1]; }
                for i in 0 .. 2 { let c = g[#1][#0] + g[#0][i] + g[x[#0]][#1]; }
            }
            fn main() { f(G, X); }
        "#;
        let s = &analyze(src).unwrap()["f"];
        let got: Vec<(String, bool)> =
            s.sites.iter().map(|a| (a.describe(), a.unconditional)).collect();
        let want = [
            ("Read/NonHome/Affine", true),
            ("Read/Home/Affine", false),
            ("Read/NonHome/Indirect", false), // transposed
            ("Read/NonHome/Indirect", false), // loop variable
            ("Read/Home/Affine", false),      // x[#0], inside the loop
            ("Read/NonHome/Indirect", false), // through a value
        ];
        assert_eq!(got, want.map(|(d, u)| (d.to_string(), u)));
        assert_eq!(s.sites[0].affine, Some(vec![-1, 2]));
    }

    #[test]
    fn sites_carry_offsets_guards_and_remote_indices() {
        let src = r#"
            aggregate G[8][8] of float;
            aggregate P[8] of int;
            parallel fn f(g, p) {
                let k = p[#0+1];
                let j = k + 1;
                if #1 > 0 { let a = g[1+#0][#1-1]; }
                let b = g[#0][j];
                for i in 0 .. 2 { let c = g[#0][i]; }
            }
            fn main() { f(G, P); }
        "#;
        let (whole, from_1) = (Guard::default(), Guard([(i64::MIN, i64::MAX), (1, i64::MAX)]));
        let want = [
            (vec![Some((0, 1))], whole, false),
            (vec![Some((0, 1)), Some((1, -1))], from_1, false), // #1 > 0
            (vec![Some((0, 0)), None], whole, true),            // j from k from p[#0+1]
            (vec![Some((0, 0)), None], whole, false),           // a loop variable is clean
        ];
        // The remote test keeps the paper's rules under a weakening.
        let weak = ClassifyRules { const_offset_is_home: true, ..ClassifyRules::default() };
        for rules in [ClassifyRules::default(), weak] {
            let s = &analyze_program_with(&parse_diag(src).unwrap(), rules).unwrap()["f"];
            let got: Vec<_> =
                s.sites.iter().map(|a| (a.offsets.clone(), a.guard, a.remote_index)).collect();
            assert_eq!(got, want, "{rules:?}");
        }
    }

    #[test]
    fn guards_narrow_by_comparison_branch_and_nesting() {
        let src = r#"
            aggregate G[8][8] of float;
            parallel fn f(g) {
                if #0 < 7 { let a = g[#0][#1]; } else { let b = g[#0][#1]; }
                if 2 <= #1 { if #1 != 5 { let c = g[#0][#1]; } }
                if #0 == -1 { let d = g[#0][#1]; } else { let e = g[#0][#1]; }
                if #0 < #1 { let h = g[#0][#1]; }
                if #1 > 2.5 { let k = g[#0][#1]; }
            }
            fn main() { f(G); }
        "#;
        let s = &analyze_program_with(&parse_diag(src).unwrap(), ClassifyRules::default()).unwrap()
            ["f"];
        let got: Vec<_> =
            s.sites.iter().map(|a| (a.guard.range(0, 8), a.guard.range(1, 8))).collect();
        assert_eq!(
            got,
            [
                ((0, 6), (0, 7)),  // #0 < 7
                ((7, 7), (0, 7)),  // its `else`
                ((0, 7), (2, 7)),  // 2 <= #1, and `!=` says nothing
                ((0, -1), (0, 7)), // #0 == -1: no position reaches it
                ((0, 7), (0, 7)),  // its `else` says nothing
                ((0, 7), (0, 7)),  // neither side a constant
                ((0, 7), (0, 7)),  // not an integer
            ]
        );
        assert!(s.sites[0].guard.bounds(0) && !s.sites[0].guard.bounds(1));
    }

    /// The hoisted sites of one function of an example program, as source
    /// text.
    fn hoisted_in(example: &str, func: &str) -> Vec<String> {
        let path = format!("{}/../../examples/{example}.cstar", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(path).unwrap();
        let chars: Vec<char> = src.chars().collect();
        let sums = analyze(&src).unwrap();
        let text = |s: &AccessSite| chars[s.span.lo as usize..s.span.hi as usize].iter().collect();
        sums[func].hoisted().map(text).collect()
    }

    #[test]
    fn hoisted_sites_of_the_example_programs() {
        // Guarded stencil reads are conditional.
        assert_eq!(hoisted_in("jacobi", "sweep"), [""; 0]);
        // The indirection table is read-only and swept; the value it
        // feeds is an indirection, the own element is written.
        assert_eq!(hoisted_in("relax", "update"), ["nbr[#0]"]);
        assert_eq!(hoisted_in("relax", "smooth"), ["nbr[#0]"]);
        // Both reads of the bucket index, one per use.
        assert_eq!(hoisted_in("histogram", "bump"), ["x[#0]", "x[#0]"]);
        assert_eq!(hoisted_in("transport", "gather"), ["edge[#0]", "cell[#0]"]);
        // `cell` is written by `apply`, so only the flux is read ahead.
        assert_eq!(hoisted_in("transport", "apply"), ["flux[#0]"]);
    }

    #[test]
    fn a_written_parameter_is_never_hoisted() {
        // In place: invocation j reads what invocation j-1 just stored.
        let src = r#"
            aggregate G[8][8] of float;
            aggregate W[8][8] of float;
            parallel fn scan(g, w) { g[#0][#1] = g[#0][#1-1] + w[#0][#1-1]; }
            fn main() { scan(G, W); }
        "#;
        let s = &analyze(src).unwrap()["scan"];
        let hoisted: Vec<&str> = s.hoisted().map(|a| a.param.as_str()).collect();
        assert_eq!(hoisted, ["w"], "g is written; w is only read");
    }
}
