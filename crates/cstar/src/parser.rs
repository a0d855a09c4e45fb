//! Recursive-descent parser for mini-C\*\*.

use crate::ast::*;
use crate::diag::{codes, Diagnostic, Span};
use crate::lexer::{lex_diag, SpannedTok, Tok};

/// How deep expressions and blocks may nest: parentheses, prefix `-`, the
/// operators of one chain (each is a level of the tree), `if`/`for` bodies.
/// Every later pass — analysis, dataflow, evaluation, and dropping the
/// tree — recurses over the program, so a deeper one is a `PARSE` error
/// here rather than a stack overflow there.
pub const MAX_DEPTH: usize = 100;

/// Parse a whole program, reporting failures as `E001`/`E002` diagnostics.
pub fn parse_diag(src: &str) -> Result<Program, Diagnostic> {
    let toks = lex_diag(src)?;
    let mut p = Parser { toks, pos: 0, depth: 0 };
    p.program()
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// Current nesting, against [`MAX_DEPTH`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.toks[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, Diagnostic> {
        Err(Diagnostic::error(codes::PARSE, msg).with_span(self.span()))
    }

    /// Go one level deeper; an error past [`MAX_DEPTH`]. The caller comes
    /// back up once its construct is parsed (an error ends the parse, so
    /// the count need not be restored on that path).
    fn nest(&mut self) -> Result<(), Diagnostic> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        Ok(())
    }

    fn expect_punct(&mut self, p: &'static str) -> Result<(), Diagnostic> {
        if self.peek() == &Tok::Punct(p) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found {}", self.peek()))
        }
    }

    fn eat_punct(&mut self, p: &'static str) -> bool {
        if self.peek() == &Tok::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), Diagnostic> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected `{kw}`, found {other}")),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw) && {
            self.bump();
            true
        }
    }

    fn ident_sp(&mut self) -> Result<(String, Span), Diagnostic> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                let sp = self.span();
                self.bump();
                Ok((s, sp))
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn ident(&mut self) -> Result<String, Diagnostic> {
        self.ident_sp().map(|(s, _)| s)
    }

    fn int_lit(&mut self) -> Result<i64, Diagnostic> {
        match *self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(v)
            }
            ref other => self.err(format!("expected integer literal, found {other}")),
        }
    }

    fn program(&mut self) -> Result<Program, Diagnostic> {
        let mut prog = Program { aggs: vec![], funcs: vec![], main: vec![] };
        let mut saw_main = false;
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Ident(s) if s == "aggregate" => prog.aggs.push(self.agg_decl()?),
                Tok::Ident(s) if s == "parallel" => prog.funcs.push(self.par_fn()?),
                Tok::Ident(s) if s == "fn" => {
                    if saw_main {
                        return self.err("duplicate `fn main`");
                    }
                    prog.main = self.main_fn()?;
                    saw_main = true;
                }
                other => return self.err(format!("expected a declaration, found {other}")),
            }
        }
        if !saw_main {
            return self.err("missing `fn main`");
        }
        Ok(prog)
    }

    fn agg_decl(&mut self) -> Result<AggDecl, Diagnostic> {
        self.expect_kw("aggregate")?;
        let (name, span) = self.ident_sp()?;
        let mut dims = Vec::new();
        while self.eat_punct("[") {
            let d = self.int_lit()?;
            if d <= 0 {
                return self.err("aggregate dimension must be positive");
            }
            dims.push(d as usize);
            self.expect_punct("]")?;
        }
        if dims.is_empty() || dims.len() > 2 {
            return self.err("aggregates are 1-D or 2-D");
        }
        self.expect_kw("of")?;
        let ty = match self.peek().clone() {
            Tok::Ident(s) if s == "float" => {
                self.bump();
                ElemTy::Float
            }
            Tok::Ident(s) if s == "int" => {
                self.bump();
                ElemTy::Int
            }
            Tok::Ident(other) => return self.err(format!("unknown element type `{other}`")),
            other => return self.err(format!("expected identifier, found {other}")),
        };
        self.expect_punct(";")?;
        Ok(AggDecl { name, dims, ty, span })
    }

    fn par_fn(&mut self) -> Result<ParFn, Diagnostic> {
        self.expect_kw("parallel")?;
        self.expect_kw("fn")?;
        let (name, span) = self.ident_sp()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                params.push(self.ident()?);
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        if params.is_empty() {
            return self.err("a parallel function needs at least its parallel aggregate");
        }
        let body = self.block()?;
        Ok(ParFn { name, params, body, span })
    }

    fn main_fn(&mut self) -> Result<Vec<SeqStmt>, Diagnostic> {
        self.expect_kw("fn")?;
        self.expect_kw("main")?;
        self.expect_punct("(")?;
        self.expect_punct(")")?;
        self.expect_punct("{")?;
        let mut body = Vec::new();
        while !self.eat_punct("}") {
            body.push(self.seq_stmt()?);
        }
        Ok(body)
    }

    fn seq_stmt(&mut self) -> Result<SeqStmt, Diagnostic> {
        if self.eat_kw("for") {
            let var = self.ident()?;
            self.expect_kw("in")?;
            let lo = self.int_lit()?;
            self.expect_punct("..")?;
            let hi = self.int_lit()?;
            self.expect_punct("{")?;
            self.nest()?;
            let mut body = Vec::new();
            while !self.eat_punct("}") {
                body.push(self.seq_stmt()?);
            }
            self.depth -= 1;
            Ok(SeqStmt::For { var, lo, hi, body })
        } else {
            // `commute` is a directive only when it prefixes a call; a
            // function named `commute` (followed by `(`) still parses.
            let commute = matches!(self.peek(), Tok::Ident(s) if s == "commute")
                && matches!(self.toks.get(self.pos + 1).map(|t| &t.tok), Some(Tok::Ident(_)));
            if commute {
                self.bump();
            }
            let (func, start) = self.ident_sp()?;
            self.expect_punct("(")?;
            let mut args = Vec::new();
            if !self.eat_punct(")") {
                loop {
                    args.push(self.ident()?);
                    if self.eat_punct(")") {
                        break;
                    }
                    self.expect_punct(",")?;
                }
            }
            let span = start.to(self.prev_span());
            self.expect_punct(";")?;
            Ok(SeqStmt::Call { func, args, commute, span })
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, Diagnostic> {
        self.expect_punct("{")?;
        self.nest()?;
        let mut body = Vec::new();
        while !self.eat_punct("}") {
            body.push(self.stmt()?);
        }
        self.depth -= 1;
        Ok(body)
    }

    fn stmt(&mut self) -> Result<Stmt, Diagnostic> {
        if self.eat_kw("let") {
            let name = self.ident()?;
            self.expect_punct("=")?;
            let e = self.expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Let(name, e));
        }
        if self.eat_kw("if") {
            let cond = self.expr()?;
            let then = self.block()?;
            let els = if self.eat_kw("else") { self.block()? } else { vec![] };
            return Ok(Stmt::If(cond, then, els));
        }
        if self.eat_kw("for") {
            let var = self.ident()?;
            self.expect_kw("in")?;
            let lo = self.expr()?;
            self.expect_punct("..")?;
            let hi = self.expr()?;
            let body = self.block()?;
            return Ok(Stmt::For { var, lo, hi, body });
        }
        // Assignment: `name = e;` or `name[i](<[j]>) = e;`
        let (name, start) = self.ident_sp()?;
        if self.eat_punct("[") {
            let mut idx = vec![self.expr()?];
            self.expect_punct("]")?;
            if self.eat_punct("[") {
                idx.push(self.expr()?);
                self.expect_punct("]")?;
            }
            let span = start.to(self.prev_span());
            self.expect_punct("=")?;
            let value = self.expr()?;
            self.expect_punct(";")?;
            Ok(Stmt::AssignAgg { agg: name, idx, value, span })
        } else {
            self.expect_punct("=")?;
            let e = self.expr()?;
            self.expect_punct(";")?;
            Ok(Stmt::AssignLocal(name, e))
        }
    }

    fn expr(&mut self) -> Result<Expr, Diagnostic> {
        self.nest()?;
        let e = self.comparison();
        self.depth -= 1;
        e
    }

    fn comparison(&mut self) -> Result<Expr, Diagnostic> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::Punct("<") => Some(BinOp::Lt),
            Tok::Punct("<=") => Some(BinOp::Le),
            Tok::Punct(">") => Some(BinOp::Gt),
            Tok::Punct(">=") => Some(BinOp::Ge),
            Tok::Punct("==") => Some(BinOp::Eq),
            Tok::Punct("!=") => Some(BinOp::Ne),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.add_expr()?;
            Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn add_expr(&mut self) -> Result<Expr, Diagnostic> {
        let (mut lhs, depth) = (self.mul_expr()?, self.depth);
        loop {
            let op = match self.peek() {
                Tok::Punct("+") => BinOp::Add,
                Tok::Punct("-") => BinOp::Sub,
                _ => break,
            };
            self.bump();
            self.nest()?;
            let rhs = self.mul_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, Diagnostic> {
        let (mut lhs, depth) = (self.unary()?, self.depth);
        loop {
            let op = match self.peek() {
                Tok::Punct("*") => BinOp::Mul,
                Tok::Punct("/") => BinOp::Div,
                Tok::Punct("%") => BinOp::Mod,
                _ => break,
            };
            self.bump();
            self.nest()?;
            let rhs = self.unary()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, Diagnostic> {
        if self.eat_punct("-") {
            self.nest()?;
            let e = Expr::Neg(Box::new(self.unary()?));
            self.depth -= 1;
            Ok(e)
        } else {
            self.atom()
        }
    }

    fn atom(&mut self) -> Result<Expr, Diagnostic> {
        let start = self.span();
        match self.bump() {
            Tok::Float(v) => Ok(Expr::Num(v)),
            Tok::Int(v) => Ok(Expr::Int(v)),
            Tok::Pos(k) => {
                if k > 1 {
                    return Err(Diagnostic::error(codes::PARSE, "only #0 and #1 are supported")
                        .with_span(start));
                }
                Ok(Expr::Pos(k))
            }
            Tok::Punct("(") => {
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if self.eat_punct("(") {
                    let b = match name.as_str() {
                        "abs" => Builtin::Abs,
                        "min" => Builtin::Min,
                        "max" => Builtin::Max,
                        "sqrt" => Builtin::Sqrt,
                        other => {
                            return Err(Diagnostic::error(
                                codes::PARSE,
                                format!("unknown function `{other}`"),
                            )
                            .with_span(start))
                        }
                    };
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        loop {
                            args.push(self.expr()?);
                            if self.eat_punct(")") {
                                break;
                            }
                            self.expect_punct(",")?;
                        }
                    }
                    let want = match b {
                        Builtin::Abs | Builtin::Sqrt => 1,
                        Builtin::Min | Builtin::Max => 2,
                    };
                    if args.len() != want {
                        return Err(Diagnostic::error(
                            codes::PARSE,
                            format!("`{name}` takes {want} argument(s)"),
                        )
                        .with_span(start.to(self.prev_span())));
                    }
                    Ok(Expr::Builtin(b, args))
                } else if self.eat_punct("[") {
                    let mut idx = vec![self.expr()?];
                    self.expect_punct("]")?;
                    if self.eat_punct("[") {
                        idx.push(self.expr()?);
                        self.expect_punct("]")?;
                    }
                    Ok(Expr::AggRead { agg: name, idx, span: start.to(self.prev_span()) })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => Err(Diagnostic::error(codes::PARSE, format!("unexpected token {other}"))
                .with_span(start)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STENCIL: &str = r#"
        // Figure 2: a 4-point stencil in mini-C**
        aggregate Grid[16][16] of float;
        aggregate Next[16][16] of float;

        parallel fn sweep(g, h) {
            h[#0][#1] = 0.25 * (g[#0-1][#1] + g[#0+1][#1] + g[#0][#1-1] + g[#0][#1+1]);
        }

        fn main() {
            for it in 0 .. 10 {
                sweep(Grid, Next);
                sweep(Next, Grid);
            }
        }
    "#;

    #[test]
    fn parses_stencil() {
        let p = parse_diag(STENCIL).unwrap();
        assert_eq!(p.aggs.len(), 2);
        assert_eq!(p.aggs[0].dims, vec![16, 16]);
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].params, vec!["g", "h"]);
        assert_eq!(p.main.len(), 1);
        match &p.main[0] {
            SeqStmt::For { lo, hi, body, .. } => {
                assert_eq!((*lo, *hi), (0, 10));
                assert_eq!(body.len(), 2);
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn parses_unstructured_update() {
        // Figure 3: unstructured mesh update via an indirection array.
        let src = r#"
            aggregate Primal[100] of float;
            aggregate Dual[100] of float;
            aggregate Nbr[100] of int;

            parallel fn update(primal, dual, nbr) {
                let k = nbr[#0];
                primal[#0] = primal[#0] + 0.5 * dual[k];
            }

            fn main() {
                for t in 0 .. 5 { update(Primal, Dual, Nbr); }
            }
        "#;
        let p = parse_diag(src).unwrap();
        let f = p.func("update").unwrap();
        assert_eq!(f.params.len(), 3);
        assert!(
            matches!(&f.body[0], Stmt::Let(k, Expr::AggRead { agg, .. }) if k == "k" && agg == "nbr")
        );
    }

    #[test]
    fn parses_control_flow() {
        let src = r#"
            aggregate A[10] of float;
            parallel fn f(a) {
                if a[#0] > 1.0 {
                    a[#0] = a[#0] / 2.0;
                } else {
                    for i in 0 .. 3 {
                        a[#0] = a[#0] + 1.0;
                    }
                }
            }
            fn main() { f(A); }
        "#;
        let p = parse_diag(src).unwrap();
        assert!(matches!(&p.func("f").unwrap().body[0], Stmt::If(..)));
    }

    #[test]
    fn parses_builtins() {
        let src = r#"
            aggregate A[4] of float;
            parallel fn f(a) { a[#0] = max(abs(a[#0]), sqrt(2.0)); }
            fn main() { f(A); }
        "#;
        assert!(parse_diag(src).is_ok());
    }

    #[test]
    fn parses_commute_annotation() {
        let src = r#"
            aggregate H[8] of float;
            parallel fn bump(h) { h[#0] = h[#0] + 1.0; }
            fn main() {
                commute bump(H);
                bump(H);
            }
        "#;
        let p = parse_diag(src).unwrap();
        assert!(matches!(&p.main[0], SeqStmt::Call { commute: true, func, .. } if func == "bump"));
        assert!(matches!(&p.main[1], SeqStmt::Call { commute: false, .. }));
    }

    #[test]
    fn rejects_missing_main() {
        assert!(parse_diag("aggregate A[4] of float;").is_err());
    }

    #[test]
    fn rejects_three_dims() {
        assert!(parse_diag("aggregate A[2][2][2] of float; fn main() {}").is_err());
    }

    #[test]
    fn rejects_pos_beyond_two() {
        let src = r#"
            aggregate A[4] of float;
            parallel fn f(a) { a[#2] = 1.0; }
            fn main() { f(A); }
        "#;
        assert!(parse_diag(src).is_err());
    }

    #[test]
    fn diag_error_carries_span() {
        let d = parse_diag("aggregate A[4] of float;\n\nbogus").unwrap_err();
        assert_eq!(d.code, "E002");
        let s = d.primary_span().expect("span");
        assert_eq!(s.line, 3);
        assert_eq!((s.lo, s.hi), (26, 31));
    }

    #[test]
    fn call_and_read_spans_cover_source() {
        let src = "aggregate A[4] of float;\nparallel fn f(a) { a[#0] = a[#0+1]; }\nfn main() { f(A); }\n";
        let p = parse_diag(src).unwrap();
        let chars: Vec<char> = src.chars().collect();
        let slice = |sp: Span| -> String { chars[sp.lo as usize..sp.hi as usize].iter().collect() };
        match &p.main[0] {
            SeqStmt::Call { span, .. } => assert_eq!(slice(*span), "f(A)"),
            other => panic!("expected call, got {other:?}"),
        }
        match &p.funcs[0].body[0] {
            Stmt::AssignAgg { span, value, .. } => {
                assert_eq!(slice(*span), "a[#0]");
                match value {
                    Expr::AggRead { span, .. } => assert_eq!(slice(*span), "a[#0+1]"),
                    other => panic!("expected read, got {other:?}"),
                }
            }
            other => panic!("expected store, got {other:?}"),
        }
    }

    /// `body` as the statement list of a one-aggregate parallel function.
    fn in_fn(body: &str) -> String {
        format!("aggregate A[4] of float;\nparallel fn f(a) {{ {body} }}\nfn main() {{ f(A); }}\n")
    }

    #[test]
    fn nesting_is_bounded_and_the_deepest_program_fits_a_small_stack() {
        fn ifs(k: usize) -> String {
            "if 1 < 2 { ".repeat(k)
        }
        fn ends(k: usize) -> String {
            " }".repeat(k)
        }
        type Form = fn(usize) -> String;
        let forms: [(&str, Form); 7] = [
            ("parens", |k| in_fn(&format!("a[#0] = {}1{};", "(".repeat(k), ")".repeat(k)))),
            ("negation", |k| in_fn(&format!("a[#0] = {}1.0;", "-".repeat(k)))),
            ("sum", |k| in_fn(&format!("a[#0] = 1.0{};", " + a[#0]".repeat(k)))),
            ("product", |k| in_fn(&format!("a[#0] = 1.0{};", " * abs(a[#0])".repeat(k)))),
            ("ifs", |k| in_fn(&format!("{}a[#0] = 1.0;{}", ifs(k), ends(k)))),
            ("ifs around parens", |k| {
                let (half, open, close) = (MAX_DEPTH / 2, "(".repeat(k), ")".repeat(k));
                in_fn(&format!("{}a[#0] = {open}1{close};{}", ifs(half), ends(half)))
            }),
            ("main's loops", |k| {
                let (open, close) = ("for t in 0..2 { ".repeat(k), ends(k));
                let f = "parallel fn f(a) { a[#0] = 1.0; }";
                format!("aggregate A[4] of float;\n{f}\nfn main() {{ {open}f(A);{close} }}\n")
            }),
        ];
        for (name, form) in forms {
            let k = (1..=2 * MAX_DEPTH).take_while(|&k| parse_diag(&form(k)).is_ok()).last();
            let k = k.unwrap_or_else(|| panic!("{name}: one level must parse"));
            let err = parse_diag(&form(k + 1)).expect_err(name);
            assert_eq!(err.code, codes::PARSE, "{name}");
            assert!(err.message.contains("nesting deeper"), "{name}: {}", err.message);
            assert!(parse_diag(&form(100 * MAX_DEPTH)).is_err(), "{name}: far deeper");
            // Parse, analysis, dataflow, the lint pass and the drop of the
            // deepest accepted program, on a 2 MiB thread in a debug build.
            let src = form(k);
            std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || {
                    let c = crate::compile::compile_diag(&src, true, Default::default());
                    drop(crate::lint::lint_program(&c.expect("the deepest program compiles")));
                })
                .expect("spawn")
                .join()
                .unwrap_or_else(|_| panic!("{name}: depth {k} does not fit a 2 MiB stack"));
        }
    }
}
