//! The compiler pipeline: source → analyzed, directive-annotated program.

use std::collections::BTreeMap;

use crate::ast::Program;
use crate::cfg::Cfg;
use crate::dataflow::ReachingUnstructured;
use crate::diag::Diagnostic;
use crate::directives::{place_directives, DirectivePlan};
use crate::sema::{analyze_program_with, AccessSummary, ClassifyRules};

/// A fully compiled mini-C\*\* program: AST, summaries, annotated CFG,
/// dataflow solution, and the directive plan the interpreter executes.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The parsed program.
    pub program: Program,
    /// Per-function access summaries (§4.2).
    pub summaries: BTreeMap<String, AccessSummary>,
    /// Annotated sequential CFG (§4.3).
    pub cfg: Cfg,
    /// Dataflow solution: reaching unstructured accesses.
    pub reaching: ReachingUnstructured,
    /// Placed directives and the executable op sequence.
    pub plan: DirectivePlan,
    /// Call sites by id: `(function, argument aggregates)`, from
    /// [`Program::calls`].
    pub call_sites: Vec<(String, Vec<String>)>,
}

/// Compile with the coalescing/hoisting optimization and the default
/// classification rules.
pub fn compile(src: &str) -> Result<CompiledProgram, Diagnostic> {
    compile_diag(src, true, ClassifyRules::default())
}

/// Compile with explicit control over the §4.3 coalescing optimization and
/// the classification rules (the oracle mutation test weakens them;
/// everything else passes [`ClassifyRules::default`]).
pub fn compile_diag(
    src: &str,
    coalesce: bool,
    rules: ClassifyRules,
) -> Result<CompiledProgram, Diagnostic> {
    let program = crate::parser::parse_diag(src)?;
    let summaries = analyze_program_with(&program, rules)?;
    let cfg = Cfg::from_program(&program, &summaries)?;
    let reaching = ReachingUnstructured::solve(&cfg)?;
    let plan = place_directives(&cfg, &reaching, coalesce);

    let call_sites: Vec<(String, Vec<String>)> =
        program.calls().into_iter().map(|(f, args, _)| (f.to_string(), args.to_vec())).collect();
    debug_assert_eq!(call_sites.len(), cfg.call_node.len());

    Ok(CompiledProgram { program, summaries, cfg, reaching, plan, call_sites })
}

#[cfg(test)]
mod tests {
    use super::*;

    const JACOBI: &str = r#"
        aggregate G[16][16] of float;
        aggregate H[16][16] of float;
        parallel fn sweep(g, h) {
            h[#0][#1] = 0.25 * (g[#0-1][#1] + g[#0+1][#1] + g[#0][#1-1] + g[#0][#1+1]);
        }
        fn main() {
            for it in 0 .. 8 {
                sweep(G, H);
                sweep(H, G);
            }
        }
    "#;

    #[test]
    fn jacobi_gets_two_phases() {
        let c = compile(JACOBI).unwrap();
        // Both sweeps are unstructured (neighbor reads): each needs its own
        // phase (they conflict on G and H respectively).
        assert_eq!(c.plan.assignment.n_phases, 2);
        let p0 = c.plan.assignment.calls[&0].phase.unwrap();
        let p1 = c.plan.assignment.calls[&1].phase.unwrap();
        assert_ne!(p0, p1);
        assert_eq!(c.call_sites.len(), 2);
        assert_eq!(c.call_sites[0].1, vec!["G", "H"]);
    }

    #[test]
    fn phase_ids_stable_across_iterations() {
        // Directives sit inside the loop, so the same ids recur every
        // iteration — the repetition the predictive protocol feeds on.
        let c = compile(JACOBI).unwrap();
        use crate::directives::ExecOp;
        let mut loop_depth = 0;
        let mut phases_in_loop = vec![];
        for op in &c.plan.ops {
            match op {
                ExecOp::LoopBegin { .. } => loop_depth += 1,
                ExecOp::LoopEnd => loop_depth -= 1,
                ExecOp::PhaseBegin(p) if loop_depth > 0 => phases_in_loop.push(*p),
                _ => {}
            }
        }
        assert_eq!(phases_in_loop, vec![1, 2]);
    }

    #[test]
    fn compile_rejects_bad_programs() {
        assert!(compile("fn main() { f(A); }").is_err());
        assert!(compile("aggregate A[4] of float; fn main() { f(A); }").is_err());
    }
}
