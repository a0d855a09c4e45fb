//! The C\*\* models of the paper's applications (`models/*.cstar`): pinned
//! to the access lists of the hand-built CFGs they replace, audited with
//! the lint suite, and run through the schedule oracle.
//!
//! Expected picture (recorded in EXPERIMENTS.md): every placed directive is
//! live (no W002 anywhere); the only phase conflict is Barnes' tree-build
//! phase, whose unstructured tree reads+writes are exactly the §3.4
//! conflict case the paper discusses — and the commutativity analysis
//! proves that phase mergeable, so the audit additionally suggests the
//! `commute` directive (W007); adaptive (by its separate red/black
//! aggregates) and water are fully conflict-free.

use std::collections::BTreeMap;

use prescient_cstar::cfg::RegionItem;
use prescient_cstar::codes;
use prescient_cstar::sema::{ClassifyRules, ParamAccess};
use prescient_cstar::{
    compile_diag, lint_program, run_oracle_compiled, CompiledProgram, OracleConfig,
};

const BARNES: &str = include_str!("../models/barnes.cstar");
const ADAPTIVE: &str = include_str!("../models/adaptive.cstar");
const WATER: &str = include_str!("../models/water.cstar");

/// `(aggregate, home_read, home_write, nonhome_read, nonhome_write)`.
type Access = (&'static str, bool, bool, bool, bool);

/// One item of a model's `main`, as the hand-built CFGs spelled it.
enum Item {
    /// Open a loop with this label.
    Loop(&'static str),
    /// Close the innermost loop.
    End,
    /// A call: callee, access tuples, and the aggregates whose updates the
    /// commutativity analysis proves mergeable.
    Call(&'static str, &'static [Access], &'static [&'static str]),
}
use Item::{Call, End, Loop};

/// Figure 4's Barnes main loop.
const BARNES_CFG: &[Item] = &[
    Loop("step"),
    Call(
        "load_tree",
        &[("tree", false, false, true, true), ("pos", true, false, false, false)],
        &["tree"],
    ),
    Loop("level"),
    Call("center_of_mass", &[("tree", true, true, false, false)], &[]),
    End,
    Call(
        "forces",
        &[
            ("tree", false, false, true, false),
            ("pos", false, false, true, false),
            ("acc", false, true, false, false),
        ],
        &[],
    ),
    Call("advance", &[("pos", false, true, false, false), ("acc", true, false, false, false)], &[]),
    End,
];

/// The adaptive red/black relaxation.
const ADAPTIVE_CFG: &[Item] = &[
    Loop("solve"),
    Loop("sweep"),
    Call(
        "red_sweep",
        &[
            ("red", false, true, false, false),
            ("black", false, false, true, false),
            ("mesh", true, false, false, false),
        ],
        &[],
    ),
    Call(
        "black_sweep",
        &[
            ("black", false, true, false, false),
            ("red", false, false, true, false),
            ("mesh", true, false, false, false),
        ],
        &[],
    ),
    End,
    Call("refine", &[("mesh", true, true, false, false)], &[]),
    End,
];

/// The water md loop.
const WATER_CFG: &[Item] = &[
    Loop("step"),
    Call(
        "interactions",
        &[("pos", false, false, true, false), ("forces", false, true, false, false)],
        &[],
    ),
    Call(
        "advance",
        &[("pos", false, true, false, false), ("forces", true, false, false, false)],
        &[],
    ),
    End,
];

/// A `main` item in comparable form.
#[derive(Debug, PartialEq)]
enum Flat {
    Loop(String),
    End,
    Call(String, BTreeMap<String, ParamAccess>),
}

fn expected(items: &[Item]) -> Vec<Flat> {
    let call = |func: &str, accesses: &[Access], commute: &[&str]| {
        let access = accesses.iter().map(|&(agg, hr, hw, nr, nw)| {
            let pa = ParamAccess {
                home_read: hr,
                home_write: hw,
                nonhome_read: nr,
                nonhome_write: nw,
                commute: commute.contains(&agg),
            };
            (agg.to_string(), pa)
        });
        Flat::Call(func.to_string(), access.collect())
    };
    items
        .iter()
        .map(|item| match item {
            Loop(label) => Flat::Loop(label.to_string()),
            End => Flat::End,
            Call(func, accesses, commute) => call(func, accesses, commute),
        })
        .collect()
}

/// The compiled program's loop nesting and per-call access lists.
fn flatten(prog: &CompiledProgram) -> Vec<Flat> {
    fn walk(prog: &CompiledProgram, items: &[RegionItem], out: &mut Vec<Flat>) {
        for item in items {
            match item {
                RegionItem::Call(id) => {
                    let c = prog.cfg.call(prog.cfg.call_node[*id]).expect("a call node");
                    assert!(!c.commute_annotated, "the models leave every call unannotated");
                    out.push(Flat::Call(c.func.clone(), c.access.clone()));
                }
                RegionItem::Loop { label, body, .. } => {
                    out.push(Flat::Loop(label.clone()));
                    walk(prog, body, out);
                    out.push(Flat::End);
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(prog, &prog.cfg.regions, &mut out);
    out
}

fn compile(src: &str, coalesce: bool) -> CompiledProgram {
    compile_diag(src, coalesce, ClassifyRules::default()).expect("the model compiles")
}

/// Pin a model to its hand-built tuples and phase counts, and run it
/// through the schedule oracle: every access it makes is predicted (no
/// E007) and every prediction fires (no W006).
fn check_model(src: &str, cfg: &[Item], phases: u32) -> CompiledProgram {
    let prog = compile(src, true);
    assert_eq!(flatten(&prog), expected(cfg));
    assert_eq!(prog.plan.assignment.n_phases, phases, "optimized");
    assert_eq!(compile(src, false).plan.assignment.n_phases, phases, "unoptimized");

    let report = run_oracle_compiled(&prog, &OracleConfig { nodes: 4, ..OracleConfig::default() });
    assert!(report.observed_events > 0);
    let ds = &report.diagnostics;
    let bad = [codes::ORACLE_SOUNDNESS, codes::ORACLE_PRECISION];
    assert!(ds.iter().all(|d| !bad.contains(&d.code.as_str())), "{ds:#?}");
    prog
}

#[test]
fn barnes_flags_the_tree_build_conflict_and_suggests_commute() {
    let prog = check_model(BARNES, BARNES_CFG, 4);
    let ds = lint_program(&prog);
    assert_eq!(ds.len(), 2, "{ds:#?}");
    let w001 = ds.iter().find(|d| d.code == "W001").expect("conflict lint present");
    assert!(w001.message.contains("`tree`"), "{}", w001.message);
    let w007 = ds.iter().find(|d| d.code == "W007").expect("commute suggestion present");
    assert!(w007.message.contains("`tree`"), "{}", w007.message);
    assert!(w007.message.contains("load_tree"), "{}", w007.message);
    assert!(w007.message.contains("commute"), "{}", w007.message);
    // Both point into `load_tree`'s body: between its name and the next
    // function's.
    let line = |f: &str| prog.program.func(f).expect("declared").span.line;
    let body = line("load_tree")..line("center_of_mass");
    for d in [w001, w007] {
        assert_eq!(d.labels.len(), 2, "{d:#?}");
        assert!(d.labels.iter().all(|l| body.contains(&l.span.line)), "{d:#?}");
    }
}

#[test]
fn adaptive_placement_is_conflict_free() {
    let ds = lint_program(&check_model(ADAPTIVE, ADAPTIVE_CFG, 2));
    assert!(ds.is_empty(), "{ds:#?}");
}

#[test]
fn water_placement_is_conflict_free() {
    let ds = lint_program(&check_model(WATER, WATER_CFG, 2));
    assert!(ds.is_empty(), "{ds:#?}");
}

#[test]
fn the_pin_catches_a_home_read_in_water_interactions() {
    // A mutant that also reads the molecule's own position: `pos` gains a
    // Read/Home class the hand-built model does not have.
    let partner = "p[(#0 + 1) % 64]";
    assert!(WATER.contains(partner));
    let mutant = compile(&WATER.replace(partner, "p[#0]"), true);
    assert_ne!(flatten(&mutant), expected(WATER_CFG));
}
