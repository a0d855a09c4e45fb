//! Schedule-oracle integration tests: the unmodified compiler passes the
//! oracle on the paper's mini-apps with zero soundness errors, and the
//! mutation hook (deliberately weakened Home/NonHome classification) is
//! caught as an E007 naming the aggregate and the phase.

use std::fs;
use std::path::Path;

use prescient_cstar::sema::ClassifyRules;
use prescient_cstar::{run_oracle, OracleConfig};

fn example(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../examples/{name}.cstar"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn cfg() -> OracleConfig {
    OracleConfig { nodes: 4, block_size: 8, seed: 0x5eed }
}

#[test]
fn mini_apps_pass_the_oracle_with_sound_summaries() {
    for name in ["jacobi", "relax", "transport"] {
        let report = run_oracle(&example(name), &cfg(), ClassifyRules::default())
            .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
        assert!(
            report.observed_events > 0,
            "{name}: the oracle run must actually observe communication"
        );
        assert_eq!(
            report.soundness_errors(),
            0,
            "{name}: sound compiler must have no E007s: {:#?}",
            report.diagnostics
        );
    }
}

#[test]
fn weakened_classification_is_caught_as_unsound() {
    // The mutation hook: `g[#0-1]` misclassified as a Home access. The
    // compiler then predicts no non-home reads and places no directives;
    // the dynamic boundary traffic must surface as E007.
    let rules = ClassifyRules { const_offset_is_home: true, ..ClassifyRules::default() };
    let report = run_oracle(&example("jacobi"), &cfg(), rules).expect("compiles");
    assert!(
        report.soundness_errors() > 0,
        "weakened sema must be flagged: {:#?}",
        report.diagnostics
    );
    let e = report.diagnostics.iter().find(|d| d.code == "E007").expect("an E007 diagnostic");
    assert!(
        e.message.contains("`G`") || e.message.contains("`H`"),
        "E007 must name the aggregate: {}",
        e.message
    );
    assert!(e.message.contains("phase"), "E007 must name the phase: {}", e.message);
    assert!(e.message.contains("sweep"), "E007 must name the call: {}", e.message);
}

#[test]
fn histogram_merge_passes_the_oracle() {
    // The annotated histogram compiles to a CommutativeMerge plan; the
    // merge oracle's privatize-and-replay must agree with serialized
    // execution bit for bit.
    let report =
        run_oracle(&example("histogram"), &cfg(), ClassifyRules::default()).expect("compiles");
    assert_eq!(
        report.soundness_errors(),
        0,
        "sound merge must validate clean: {:#?}",
        report.diagnostics
    );
}

#[test]
fn weakened_commutativity_is_caught_as_unsound_merge() {
    // The commute mutation hook: `assume_commutative` declares every
    // aggregate update mergeable, so an annotated non-commutative update
    // (`h = 2h + 1` through a colliding index table) reaches the plan as a
    // CommutativeMerge. The dynamic merge oracle must catch the divergence
    // between privatized replay and serialized execution as an E008 with a
    // witness block.
    let src = "aggregate H[16] of float;\n\
               aggregate X[16] of int;\n\
               parallel fn scale(h, x) {\n\
                   h[x[#0]] = 2.0 * h[x[#0]] + 1.0;\n\
               }\n\
               fn main() { commute scale(H, X); }\n";
    let rules = ClassifyRules { assume_commutative: true, ..ClassifyRules::default() };
    let report = run_oracle(src, &cfg(), rules).expect("compiles");
    let e = report.diagnostics.iter().find(|d| d.code == "E008").expect("an E008 diagnostic");
    assert!(e.message.contains("`H`"), "E008 must name the aggregate: {}", e.message);
    assert!(e.message.contains("scale"), "E008 must name the call: {}", e.message);
    assert!(
        e.notes.iter().any(|n| n.contains("witness block")),
        "E008 must carry a witness block: {e:#?}"
    );
    // The same program under honest rules never emits the merge, so the
    // static E008 fires instead and the dynamic oracle stays quiet.
    let honest = run_oracle(src, &cfg(), ClassifyRules::default()).expect("compiles");
    assert!(
        honest.diagnostics.iter().all(|d| d.code != "E008"),
        "honest rules place no merge: {:#?}",
        honest.diagnostics
    );
}

#[test]
fn owner_writes_are_predicted_only_for_the_aggregate_that_reaches_the_call() {
    // `scatter`'s unstructured writes of `B` reach `copy`, which
    // owner-writes `A`: rule 1 holds for `B`, not for `A`, so nothing
    // predicts `copy` to owner-write `A` and no W006 can say it never did.
    let src = "aggregate A[16] of float;\n\
               aggregate B[16] of float;\n\
               aggregate X[16] of int;\n\
               parallel fn scatter(b, x) { b[x[#0]] = 1.0; }\n\
               parallel fn copy(a, b) { a[#0] = b[#0]; }\n\
               fn main() { scatter(B, X); copy(A, B); }\n";
    let report = run_oracle(src, &cfg(), ClassifyRules::default()).expect("compiles");
    assert_eq!(report.soundness_errors(), 0, "{:#?}", report.diagnostics);
    let w006: Vec<&str> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == "W006" && d.message.contains("`A`"))
        .map(|d| d.message.as_str())
        .collect();
    assert!(w006.is_empty(), "{w006:#?}");
}

#[test]
fn oracle_reports_precision_statistics() {
    let report = run_oracle(&example("relax"), &cfg(), ClassifyRules::default()).expect("compiles");
    assert!(report.predictions > 0, "relax predicts non-home traffic");
    let r = report.imprecision_ratio();
    assert!((0.0..=1.0).contains(&r), "ratio in [0,1]: {r}");
    assert_eq!(
        report.diagnostics.iter().filter(|d| d.code == "W006").count(),
        report.unobserved,
        "one W006 per unobserved prediction"
    );
}
