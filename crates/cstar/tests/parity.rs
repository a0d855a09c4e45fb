//! One C\*\* semantics: the DSM interpreter (`run_program`, on 1 and 4
//! nodes) and the merge oracle's sequential model (`run_model`, which
//! `validate_merges` reports from) run each program of the table to the
//! same final aggregates, or stop with the same evaluator error.
//!
//! Every row is `op(A, F)` followed by a `commute`-annotated reduction, so
//! the plan carries a merge directive and the model runs the whole plan.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use prescient_cstar::commute::{run_model, validate_merges, MergeOracleConfig};
use prescient_cstar::compile::compile;
use prescient_cstar::eval::Value;
use prescient_cstar::interp::{materialize, read_aggregate, run_program, seeded_init};
use prescient_runtime::{Machine, MachineConfig};

const SEED: u64 = 0x5eed;

/// What both executors must give for a row: every element of `A`, or the
/// evaluator's error.
enum Want {
    A(i64),
    Error(&'static str),
}

const ROWS: [(&str, &str, Want); 9] = [
    ("i64 overflow in +", "a[#0] = 9223372036854775807 + 1;", Want::A(i64::MIN)),
    ("i64 overflow in *", "a[#0] = 4611686018427387904 * 3;", Want::A(-4611686018427387904)),
    ("- of i64::MIN", "a[#0] = -(0 - 9223372036854775807 - 1);", Want::A(i64::MIN)),
    ("abs of i64::MIN", "a[#0] = abs(0 - 9223372036854775807 - 1);", Want::A(i64::MIN)),
    ("/ by zero", "a[#0] = a[#0] / 0;", Want::Error("integer division by zero")),
    ("% by zero", "a[#0] = a[#0] % 0;", Want::Error("integer modulo by zero")),
    ("float %", "f[#0] = f[#0] % 2.0;", Want::Error("`%` needs integer operands")),
    ("float into int", "a[#0] = 1.5;", Want::Error("float 1.5 stored into int")),
    (
        "index out of range",
        "a[#0 - #0 + 8] = 1;",
        Want::Error("index 8 out of bounds for dimension 0 of size 8"),
    ),
];

type Aggregates = BTreeMap<String, Vec<Value>>;

fn program(op: &str) -> String {
    format!(
        "aggregate A[8] of int;\n\
         aggregate F[8] of float;\n\
         aggregate H[8] of int;\n\
         parallel fn op(a, f) {{ {op} }}\n\
         parallel fn tally(h) {{ h[#0] = h[#0] + 1; }}\n\
         fn main() {{ op(A, F); commute tally(H); }}\n"
    )
}

/// The interpreter's final aggregates, or the evaluator message its node
/// panicked with.
fn interpreted(src: &str, nodes: usize) -> Result<Aggregates, String> {
    let prog = compile(src).expect("compiles");
    let mut machine = Machine::new(MachineConfig::stache(nodes, 32));
    let aggs = materialize(&machine, &prog);
    let run = |m: &mut Machine| run_program(m, &prog, &aggs, seeded_init(SEED));
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(&mut machine))) {
        // `machine panicked (node N): <message>` and a per-node dump.
        let text = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        let first = text.lines().next().unwrap_or_default();
        return Err(first.split_once("): ").map_or(first, |(_, m)| m).to_string());
    }
    Ok(aggs.keys().map(|name| (name.clone(), read_aggregate(&mut machine, &aggs, name))).collect())
}

/// The sequential model's final aggregates, or its evaluation error.
fn modelled(src: &str) -> Result<Aggregates, String> {
    let prog = compile(src).expect("compiles");
    let cfg = MergeOracleConfig { nodes: 4, block_size: 8, seed: SEED };
    let (aggregates, findings) = run_model(&prog, &cfg);
    assert_eq!(validate_merges(&prog, &cfg), findings, "validate_merges reports the model");
    match findings.first() {
        None => Ok(aggregates),
        Some(d) => {
            assert_eq!(findings.len(), 1, "{findings:#?}");
            // `merge oracle could not evaluate call `op` (call 0): <message>`
            Err(d.message.split_once("): ").map_or("", |(_, m)| m).to_string())
        }
    }
}

#[test]
fn interpreter_and_merge_model_agree_on_every_row() {
    for (row, op, want) in ROWS {
        let src = program(op);
        let model = modelled(&src);
        match (&model, want) {
            (Ok(aggs), Want::A(v)) => assert_eq!(aggs["A"], [Value::I(v); 8], "{row}"),
            (Err(e), Want::Error(msg)) => assert_eq!(e, msg, "{row}"),
            (got, _) => panic!("{row}: the model gave {got:?}"),
        }
        for nodes in [1, 4] {
            assert_eq!(interpreted(&src, nodes), model, "{row}, {nodes} node(s)");
        }
    }
}
