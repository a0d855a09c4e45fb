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
//! static↔dynamic diff.

use std::collections::BTreeMap;

use crate::ast::*;
use crate::diag::{codes, Diagnostic, Span};
use crate::lexer::ParseError;

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
    let offset = |(k, e): (usize, &Expr)| match e {
        Expr::Pos(p) if *p == k => Some(0),
        Expr::Bin(op @ (BinOp::Add | BinOp::Sub), a, b) => match (&**a, &**b) {
            (Expr::Pos(p), Expr::Int(c)) if *p == k => {
                Some(if *op == BinOp::Add { *c } else { -*c })
            }
            _ => None,
        },
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
    /// Where in the source.
    pub span: Span,
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
        let dim_ok = |k: usize, e: &Expr| -> bool {
            match e {
                Expr::Pos(p) => *p == k,
                Expr::Bin(BinOp::Add | BinOp::Sub, a, b) if self.const_offset_is_home => {
                    matches!(&**a, Expr::Pos(p) if *p == k) && matches!(&**b, Expr::Int(_))
                }
                _ => false,
            }
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

/// Analyze one parallel function (checking names along the way).
///
/// Legacy entry point; [`analyze_fn_with`] returns span-carrying
/// diagnostics and accepts [`ClassifyRules`].
pub fn analyze_fn(f: &ParFn) -> Result<AccessSummary, ParseError> {
    analyze_fn_with(f, ClassifyRules::default()).map_err(ParseError::from)
}

/// Analyze one parallel function under the given classification rules,
/// reporting name errors as `E003` diagnostics.
pub fn analyze_fn_with(f: &ParFn, rules: ClassifyRules) -> Result<AccessSummary, Diagnostic> {
    let mut an = Analyzer { f, rules, sum: AccessSummary::default(), locals: Vec::new(), depth: 0 };
    for p in &f.params {
        an.sum.params.insert(p.clone(), ParamAccess::default());
    }
    an.stmts(&f.body)?;
    for (param, class) in crate::commute::classify_fn(f, rules) {
        if let Some(pa) = an.sum.params.get_mut(&param) {
            pa.commute = class.is_commutative();
        }
    }
    Ok(an.sum)
}

struct Analyzer<'a> {
    f: &'a ParFn,
    rules: ClassifyRules,
    sum: AccessSummary,
    locals: Vec<String>,
    /// `if`/`for` nesting depth of the statement being analyzed.
    depth: usize,
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
        self.sum.sites.push(AccessSite {
            param: agg.to_string(),
            kind,
            loc,
            affine: affine_offsets(idx),
            unconditional: self.depth == 0,
            span,
        });
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
                self.expr(e)?;
                self.locals.push(name.clone());
            }
            Stmt::AssignLocal(name, e) => {
                if !self.locals.iter().any(|l| l == name) {
                    return self
                        .err(format!("assignment to unknown local `{name}`"), Span::default());
                }
                self.expr(e)?;
            }
            Stmt::AssignAgg { agg, idx, value, span } => {
                for i in idx {
                    self.expr(i)?;
                }
                self.expr(value)?;
                self.record(agg, AccessKind::Write, idx, *span)?;
            }
            Stmt::If(c, t, e) => {
                self.expr(c)?;
                self.depth += 1;
                self.stmts(t)?;
                self.stmts(e)?;
                self.depth -= 1;
            }
            Stmt::For { var, lo, hi, body } => {
                self.expr(lo)?;
                self.expr(hi)?;
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

/// Analyze every parallel function in a program and validate call sites
/// (arity, aggregate names; dimension agreement between the call's
/// aggregates and the function's index usage is checked dynamically by the
/// interpreter).
///
/// Legacy entry point; [`analyze_program_with`] returns span-carrying
/// diagnostics and accepts [`ClassifyRules`].
pub fn analyze_program(p: &Program) -> Result<BTreeMap<String, AccessSummary>, ParseError> {
    analyze_program_with(p, ClassifyRules::default()).map_err(ParseError::from)
}

/// Analyze a program under the given classification rules, reporting call
/// site errors as `E004` diagnostics with spans.
pub fn analyze_program_with(
    p: &Program,
    rules: ClassifyRules,
) -> Result<BTreeMap<String, AccessSummary>, Diagnostic> {
    let mut out = BTreeMap::new();
    for f in &p.funcs {
        out.insert(f.name.clone(), analyze_fn_with(f, rules)?);
    }
    // Validate main's call sites.
    fn walk(p: &Program, stmts: &[SeqStmt]) -> Result<(), Diagnostic> {
        for s in stmts {
            match s {
                SeqStmt::Call { func, args, span, .. } => {
                    let Some(f) = p.func(func) else {
                        return Err(Diagnostic::error(
                            codes::CALL,
                            format!("call to unknown parallel function `{func}`"),
                        )
                        .with_label(*span, "not a parallel function"));
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
                        .with_span(*span)
                        .with_label(f.span, "declared here"));
                    }
                    for a in args {
                        if p.agg(a).is_none() {
                            return Err(Diagnostic::error(
                                codes::CALL,
                                format!("unknown aggregate `{a}` in call to `{func}`"),
                            )
                            .with_span(*span));
                        }
                    }
                }
                SeqStmt::For { body, .. } => walk(p, body)?,
            }
        }
        Ok(())
    }
    walk(p, &p.main)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

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
        let p = parse(src).unwrap();
        let sums = analyze_program(&p).unwrap();
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
        let p = parse(src).unwrap();
        let s = &analyze_program(&p).unwrap()["sweep"];
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
        let p = parse(src).unwrap();
        let s = &analyze_program(&p).unwrap()["t"];
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
        let p = parse(src).unwrap();
        let s = &analyze_program(&p).unwrap()["scatter"];
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
        let p = parse(src).unwrap();
        let s = &analyze_program(&p).unwrap()["scale"];
        assert!(s.home_only());
    }

    #[test]
    fn unknown_variable_rejected() {
        let src = r#"
            aggregate A[4] of float;
            parallel fn f(a) { a[#0] = y; }
            fn main() { f(A); }
        "#;
        let p = parse(src).unwrap();
        assert!(analyze_program(&p).is_err());
    }

    #[test]
    fn call_arity_checked() {
        let src = r#"
            aggregate A[4] of float;
            parallel fn f(a) { a[#0] = 1.0; }
            fn main() { f(A, A); }
        "#;
        let p = parse(src).unwrap();
        assert!(analyze_program(&p).is_err());
    }

    #[test]
    fn unknown_aggregate_in_call_rejected() {
        let src = r#"
            aggregate A[4] of float;
            parallel fn f(a) { a[#0] = 1.0; }
            fn main() { f(B); }
        "#;
        let p = parse(src).unwrap();
        assert!(analyze_program(&p).is_err());
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
        let p = parse(src).unwrap();
        let s = &analyze_program(&p).unwrap()["f"];
        // Loop-indexed accesses are conservatively non-home.
        assert!(s.get("a").nonhome_read && s.get("a").nonhome_write);
    }

    #[test]
    fn sites_carry_spans() {
        let src = "aggregate G[8] of float;\nparallel fn f(g) { g[#0] = g[#0-1]; }\nfn main() { f(G); }\n";
        let p = parse(src).unwrap();
        let s = &analyze_program(&p).unwrap()["f"];
        let read = s.site("g", AccessKind::Read, Locality::NonHome).expect("read site");
        let chars: Vec<char> = src.chars().collect();
        let text: String = chars[read.span.lo as usize..read.span.hi as usize].iter().collect();
        assert_eq!(text, "g[#0-1]");
        assert!(s.site("g", AccessKind::Write, Locality::Home).is_some());
    }

    #[test]
    fn weakened_rules_misclassify_const_offsets() {
        let src = "aggregate G[8] of float;\nparallel fn f(g) { g[#0] = g[#0-1]; }\nfn main() { f(G); }\n";
        let p = parse(src).unwrap();
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
        let p = parse(src).unwrap();
        let d = analyze_program_with(&p, ClassifyRules::default()).unwrap_err();
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
        let p = parse(src).unwrap();
        let s = &analyze_program(&p).unwrap()["f"];
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

    /// The hoisted sites of one function of an example program, as source
    /// text.
    fn hoisted_in(example: &str, func: &str) -> Vec<String> {
        let path = format!("{}/../../examples/{example}.cstar", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(path).unwrap();
        let chars: Vec<char> = src.chars().collect();
        let sums = analyze_program(&parse(&src).unwrap()).unwrap();
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
        let p = parse(src).unwrap();
        let s = &analyze_program(&p).unwrap()["scan"];
        let hoisted: Vec<&str> = s.hoisted().map(|a| a.param.as_str()).collect();
        assert_eq!(hoisted, ["w"], "g is written; w is only read");
    }
}
