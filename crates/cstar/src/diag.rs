//! Span-carrying diagnostics for the mini-C\*\* compiler.
//!
//! Every front-end error and lint is a [`Diagnostic`]: a stable code
//! (`E0xx` hard errors, `W0xx` lints), a severity, a primary message, zero
//! or more labeled source spans, and free-form notes. Diagnostics render
//! two ways: a rustc-style caret-annotated text form ([`Diagnostic::render`])
//! and a line-oriented JSON form ([`Diagnostic::json_array`], the
//! `cstar-lint --json` output) through the repo's one JSON writer,
//! `prescient_tempest::json`.
//!
//! # Code catalog
//!
//! | Code | Meaning | Paper anchor |
//! |------|---------|--------------|
//! | E001 | lexical error | — |
//! | E002 | syntax error | — |
//! | E003 | name error inside a parallel function | §4.2 |
//! | E004 | invalid parallel call site (arity, unknown callee/aggregate) | §4.2 |
//! | E005 | aggregate missing from the dataflow universe | §4.3 |
//! | E006 | aggregate-universe overflow (> 64 aggregates) | §4.3 |
//! | E007 | schedule-oracle soundness violation (dynamic access not covered statically) | §4.2 |
//! | W001 | phase-conflict: one phase both reads and writes an aggregate | §3.4 |
//! | W002 | dead directive: scheduled call no unstructured access reaches | §4.3 |
//! | W003 | constant neighbor offset exceeds the aggregate extents | §4.2 |
//! | W004 | unused aggregate / written but never read | — |
//! | W005 | index expression fed by a non-home read | §3.3 |
//! | W006 | schedule-oracle precision: a predicted access was never observed | §3.4 |
//! | W007 | conflict phase is commutative-mergeable; suggest `commute` directive | §3.4 |
//! | E008 | unsound `commute` annotation: a same-phase read observes the privatized aggregate | §3.4 |

use std::fmt;

use prescient_tempest::json::{Layout, Sink, Writer};

/// Stable diagnostic codes (see the module-level catalog).
pub mod codes {
    /// Lexical error.
    pub const LEX: &str = "E001";
    /// Syntax error.
    pub const PARSE: &str = "E002";
    /// Name error inside a parallel function.
    pub const NAME: &str = "E003";
    /// Invalid parallel call site.
    pub const CALL: &str = "E004";
    /// Aggregate missing from the dataflow universe.
    pub const DATAFLOW_UNIVERSE: &str = "E005";
    /// More than 64 aggregates (bit-vector overflow).
    pub const AGG_LIMIT: &str = "E006";
    /// Schedule-oracle soundness violation.
    pub const ORACLE_SOUNDNESS: &str = "E007";
    /// Phase jointly reads and writes one aggregate.
    pub const PHASE_CONFLICT: &str = "W001";
    /// Directive placed at a call nothing unstructured reaches.
    pub const DEAD_DIRECTIVE: &str = "W002";
    /// Constant neighbor offset exceeds the declared extents.
    pub const STATIC_OOB: &str = "W003";
    /// Unused aggregate, or written but never read.
    pub const UNUSED_AGG: &str = "W004";
    /// Index expression fed by a non-home read.
    pub const UNSTRUCTURED_INDEX: &str = "W005";
    /// Statically predicted access never observed dynamically.
    pub const ORACLE_PRECISION: &str = "W006";
    /// Conflict phase whose updates are commutative-mergeable.
    pub const COMMUTE_SUGGEST: &str = "W007";
    /// Unsound `commute` annotation (order-dependent update, or a
    /// same-phase read observing the privatized aggregate).
    pub const COMMUTE_UNSOUND: &str = "E008";
}

/// A source region in character offsets (the lexer works on `char`
/// indices), with the 1-based line of its start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Span {
    /// Start offset (inclusive, in chars).
    pub lo: u32,
    /// End offset (exclusive, in chars).
    pub hi: u32,
    /// 1-based source line of `lo`.
    pub line: u32,
}

impl Span {
    /// A span covering `lo..hi` starting on `line`.
    pub fn new(lo: usize, hi: usize, line: u32) -> Span {
        Span { lo: lo as u32, hi: hi.max(lo) as u32, line }
    }

    /// A single-character span.
    pub fn point(at: usize, line: u32) -> Span {
        Span::new(at, at + 1, line)
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            line: if self.lo <= other.lo { self.line } else { other.line },
        }
    }
}

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A lint: the program compiles, but is suspicious.
    Warning,
    /// A hard error: the program is rejected.
    Error,
}

impl Severity {
    /// Lower-case keyword used in rendered and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One labeled source span of a diagnostic. The first label is primary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Label {
    /// Where.
    pub span: Span,
    /// What to say under the carets (may be empty).
    pub text: String,
}

/// A compiler diagnostic: code, severity, message, labeled spans, notes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`E0xx` / `W0xx`, see [`codes`]).
    pub code: String,
    /// Error or warning.
    pub severity: Severity,
    /// Primary message.
    pub message: String,
    /// Labeled spans; the first, if any, is the primary location.
    pub labels: Vec<Label>,
    /// Free-form notes rendered after the snippet.
    pub notes: Vec<String>,
    /// Source file the spans refer to, when known.
    pub file: Option<String>,
}

impl Diagnostic {
    /// A new error diagnostic.
    pub fn error(code: &str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code: code.to_string(),
            severity: Severity::Error,
            message: message.into(),
            labels: Vec::new(),
            notes: Vec::new(),
            file: None,
        }
    }

    /// A new warning (lint) diagnostic.
    pub fn warning(code: &str, message: impl Into<String>) -> Diagnostic {
        Diagnostic { severity: Severity::Warning, ..Diagnostic::error(code, message) }
    }

    /// Attach an unlabeled span.
    pub fn with_span(self, span: Span) -> Diagnostic {
        self.with_label(span, "")
    }

    /// Attach a labeled span.
    pub fn with_label(mut self, span: Span, text: impl Into<String>) -> Diagnostic {
        self.labels.push(Label { span, text: text.into() });
        self
    }

    /// Attach a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Attach the source-file name.
    pub fn with_file(mut self, file: impl Into<String>) -> Diagnostic {
        self.file = Some(file.into());
        self
    }

    /// The primary span, if any.
    pub fn primary_span(&self) -> Option<Span> {
        self.labels.first().map(|l| l.span)
    }

    /// Is this a hard error?
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// Render the rustc-style caret form against the source text. `file`
    /// is used when the diagnostic carries no file name of its own.
    pub fn render(&self, src: &str, file: &str) -> String {
        let file = self.file.as_deref().unwrap_or(file);
        let mut out = format!("{}[{}]: {}\n", self.severity.as_str(), self.code, self.message);
        let lines = SourceLines::new(src);
        for label in &self.labels {
            lines.render_label(&mut out, file, label);
        }
        for note in &self.notes {
            out.push_str("  = note: ");
            out.push_str(note);
            out.push('\n');
        }
        out
    }

    /// Render a batch of diagnostics, blank-line separated.
    pub fn render_all(diags: &[Diagnostic], src: &str, file: &str) -> String {
        let mut out = String::new();
        for (i, d) in diags.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&d.render(src, file));
        }
        out
    }

    /// Write the JSON object form (one line, stable key order) as the
    /// writer's next value.
    fn write_json<W: Sink>(&self, w: &mut Writer<W>) {
        w.object(Layout::Compact);
        w.key("code").str(&self.code).key("severity").str(self.severity.as_str());
        w.key("message").str(&self.message);
        if let Some(f) = &self.file {
            w.key("file").str(f);
        }
        w.key("labels").array(Layout::Compact);
        for l in &self.labels {
            w.object(Layout::Compact);
            w.key("lo").uint(l.span.lo.into()).key("hi").uint(l.span.hi.into());
            w.key("line").uint(l.span.line.into()).key("text").str(&l.text).end();
        }
        w.end().key("notes").array(Layout::Compact);
        for n in &self.notes {
            w.str(n);
        }
        w.end().end();
    }

    /// A JSON array of diagnostics.
    pub fn json_array(diags: &[Diagnostic]) -> String {
        let mut w = Writer::new(String::new(), 0);
        w.array(Layout::Compact);
        for d in diags {
            d.write_json(&mut w);
        }
        w.end();
        w.finish()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity.as_str(), self.code, self.message)?;
        if let Some(s) = self.primary_span() {
            write!(f, " (line {})", s.line)?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostic {}

// ---------------------------------------------------------------------
// Caret rendering
// ---------------------------------------------------------------------

/// Char-offset index of a source text's line starts.
struct SourceLines {
    chars: Vec<char>,
    /// Char offset at which each 0-based line starts.
    starts: Vec<usize>,
}

impl SourceLines {
    fn new(src: &str) -> SourceLines {
        let chars: Vec<char> = src.chars().collect();
        let mut starts = vec![0usize];
        for (i, &c) in chars.iter().enumerate() {
            if c == '\n' {
                starts.push(i + 1);
            }
        }
        SourceLines { chars, starts }
    }

    /// The text of 1-based line `n` (no trailing newline).
    fn line_text(&self, n: u32) -> Option<(usize, String)> {
        let idx = (n as usize).checked_sub(1)?;
        let &start = self.starts.get(idx)?;
        let end = self
            .chars
            .iter()
            .skip(start)
            .position(|&c| c == '\n')
            .map_or(self.chars.len(), |p| start + p);
        Some((start, self.chars[start..end].iter().collect()))
    }

    fn render_label(&self, out: &mut String, file: &str, label: &Label) {
        let span = label.span;
        let Some((line_start, text)) = self.line_text(span.line) else {
            // Spanless or out-of-range: emit the location header only.
            out.push_str(&format!("  --> {file}\n"));
            if !label.text.is_empty() {
                out.push_str(&format!("   = {}\n", label.text));
            }
            return;
        };
        let col = (span.lo as usize).saturating_sub(line_start) + 1;
        let width = ((span.hi as usize).min(line_start + text.chars().count()))
            .saturating_sub(span.lo as usize)
            .max(1);
        let num = span.line.to_string();
        let gutter = " ".repeat(num.len());
        out.push_str(&format!("  --> {file}:{}:{col}\n", span.line));
        out.push_str(&format!("{gutter} |\n"));
        out.push_str(&format!("{num} | {text}\n"));
        out.push_str(&format!(
            "{gutter} | {}{}{}{}\n",
            " ".repeat(col - 1),
            "^".repeat(width),
            if label.text.is_empty() { "" } else { " " },
            label.text
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_has_caret_under_span() {
        let src = "aggregate A[4] of float;\nbogus here\n";
        let d = Diagnostic::error(codes::PARSE, "expected a declaration, found `bogus`")
            .with_label(Span::new(25, 30, 2), "not a declaration");
        let r = d.render(src, "t.cstar");
        assert!(r.contains("error[E002]"), "{r}");
        assert!(r.contains("t.cstar:2:1"), "{r}");
        assert!(r.contains("2 | bogus here"), "{r}");
        assert!(r.contains("^^^^^ not a declaration"), "{r}");
    }

    #[test]
    fn spanless_renders_header_only() {
        let d = Diagnostic::warning(codes::DEAD_DIRECTIVE, "dead directive at call `f`");
        let r = d.render("", "t.cstar");
        assert_eq!(r, "warning[W002]: dead directive at call `f`\n");
    }
}
