//! Golden UI tests for the diagnostics engine and the lint suite.
//!
//! Every fixture under `tests/lints/` pairs a `.cstar` source with a
//! `.expected` file holding the rendered diagnostics, compared **verbatim**.
//! Diagnostics a correct compiler never produces from source (W002, E005 —
//! the test breaks the compiled program the way a buggy pass would) and
//! E006 (a generated program) are constructed in-test and still
//! golden-compared. Regenerate all expected files with
//! `BLESS=1 cargo test -p prescient-cstar --test lints`.

use std::fs;
use std::path::{Path, PathBuf};

use prescient_cstar::directives::CallDecision;
use prescient_cstar::sema::ClassifyRules;
use prescient_cstar::ReachingUnstructured;
use prescient_cstar::{compile_diag, lint_program, CompiledProgram, Diagnostic};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lints")
}

/// Compare `rendered` against `tests/lints/{name}.expected` verbatim, or
/// rewrite the expected file under `BLESS=1`.
fn check_rendered(name: &str, rendered: &str) {
    let path = fixture_dir().join(format!("{name}.expected"));
    if std::env::var_os("BLESS").is_some() {
        fs::write(&path, rendered).expect("write blessed expectation");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing {}: {e}\nrun with BLESS=1 to create it", path.display())
    });
    assert_eq!(rendered, expected, "golden mismatch for `{name}` (rerun with BLESS=1 to accept)");
}

fn fixture_src(name: &str) -> String {
    fs::read_to_string(fixture_dir().join(format!("{name}.cstar"))).expect("fixture source")
}

/// A fixture that compiles.
fn fixture_program(name: &str) -> (String, CompiledProgram) {
    let src = fixture_src(name);
    let prog = compile_diag(&src, true, ClassifyRules::default()).expect("fixture compiles");
    (src, prog)
}

/// Diagnostics of a source fixture: the compile error, or the lints.
fn fixture_diags(name: &str) -> (String, Vec<Diagnostic>) {
    let src = fixture_src(name);
    let ds = match compile_diag(&src, true, ClassifyRules::default()) {
        Err(d) => vec![d],
        Ok(prog) => lint_program(&prog),
    };
    (src, ds)
}

fn check_fixture(name: &str, expect_codes: &[&str]) {
    let (src, ds) = fixture_diags(name);
    let got: Vec<&str> = ds.iter().map(|d| d.code.as_str()).collect();
    assert_eq!(got, expect_codes, "{name}: {ds:#?}");
    check_rendered(name, &Diagnostic::render_all(&ds, &src, &fixture_file(name)));
}

fn fixture_file(name: &str) -> String {
    format!("tests/lints/{name}.cstar")
}

#[test]
fn w001_phase_conflict() {
    check_fixture("w001", &["W001"]);
}

#[test]
fn w003_static_out_of_bounds() {
    check_fixture("w003", &["W003", "W003"]);
}

#[test]
fn w004_unused_aggregates() {
    check_fixture("w004", &["W004", "W004"]);
}

#[test]
fn w005_remote_fed_index() {
    check_fixture("w005", &["W005"]);
}

#[test]
fn w007_commutable_conflict() {
    // W007's primary span (the reduction write target) precedes W001's
    // (the conflicting read) in source order.
    check_fixture("w007", &["W007", "W001"]);
}

#[test]
fn e008_unsound_commute_annotation() {
    check_fixture("e008", &["E008", "W001"]);
}

#[test]
fn e001_lex_error() {
    check_fixture("e001", &["E001"]);
}

#[test]
fn e002_parse_error() {
    check_fixture("e002", &["E002"]);
}

#[test]
fn e003_name_error() {
    check_fixture("e003", &["E003"]);
}

#[test]
fn e004_bad_call() {
    check_fixture("e004", &["E004"]);
}

#[test]
fn w002_dead_directive_from_forced_plan() {
    // Home-only program: the compiler never schedules it; force a schedule
    // by hand, as a buggy compiler pass would.
    let (src, mut prog) = fixture_program("w002");
    let asg = &mut prog.plan.assignment;
    asg.calls.insert(0, CallDecision { needs: true, home_only: true, phase: Some(1) });
    asg.n_phases = 1;
    let ds = lint_program(&prog);
    assert_eq!(ds.len(), 1, "{ds:#?}");
    assert_eq!(ds[0].code, "W002");
    check_rendered("w002", &Diagnostic::render_all(&ds, &src, &fixture_file("w002")));
}

#[test]
fn e005_universe_mismatch() {
    // A call accessing an aggregate outside the CFG's universe: shrink the
    // universe after compiling — the inconsistency a buggy compiler pass
    // would introduce.
    let (src, mut prog) = fixture_program("e005");
    prog.cfg.aggs = vec!["A".to_string()];
    let err = ReachingUnstructured::solve(&prog.cfg).unwrap_err();
    assert_eq!(err.code, "E005");
    check_rendered("e005", &err.render(&src, &fixture_file("e005")));
}

#[test]
fn e006_aggregate_limit() {
    let mut src = String::new();
    for i in 0..65 {
        src.push_str(&format!("aggregate A{i}[8] of float;\n"));
    }
    src.push_str("parallel fn f(a) { a[#0] = 0.0; }\nfn main() { f(A0); }\n");
    let err = compile_diag(&src, true, ClassifyRules::default()).unwrap_err();
    assert_eq!(err.code, "E006");
    check_rendered("e006", &err.render(&src, "<generated>"));
}

#[test]
fn clean_examples_are_silent() {
    for name in ["jacobi", "relax", "transport", "histogram"] {
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../examples/{name}.cstar"));
        let src = fs::read_to_string(&path).expect("example source");
        let prog = compile_diag(&src, true, ClassifyRules::default())
            .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
        let ds = lint_program(&prog);
        assert!(ds.is_empty(), "{name} should be lint-clean: {ds:#?}");
    }
}
