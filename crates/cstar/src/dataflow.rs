//! The *reaching unstructured accesses* dataflow problem (§4.3).
//!
//! For each aggregate at each program point: may cached copies of its
//! elements exist on remote processors because of unstructured accesses?
//! Analogous to reaching definitions; computed with an iterative bit-vector
//! worklist over the sequential CFG — forward direction, any-path (union)
//! confluence.
//!
//! Transfer functions at a parallel call, per aggregate (the paper's three
//! rules):
//!
//! 1. owner (home) writes **kill** — the remote copies are invalidated;
//! 2. unstructured writes **kill then gen** — old copies are invalidated
//!    but new remote copies appear;
//! 3. unstructured reads **gen** (and do not kill — multiple readers).

use crate::cfg::{Cfg, CfgNode};
use crate::diag::{codes, Diagnostic};

/// A bit-vector over the CFG's aggregate universe (≤ 64 aggregates, which
/// is ample for the paper's programs).
pub type BitVec = u64;

/// The dataflow solution: IN and OUT sets per CFG node.
#[derive(Debug, Clone)]
pub struct ReachingUnstructured {
    /// IN\[n\]: aggregates whose remote copies may exist just before `n`.
    pub input: Vec<BitVec>,
    /// OUT\[n\].
    pub output: Vec<BitVec>,
}

/// GEN/KILL for one call node. An aggregate absent from the CFG's universe
/// is an internal inconsistency, reported as `E005` rather than a panic.
fn transfer(cfg: &Cfg, node: usize) -> Result<(BitVec, BitVec), Diagnostic> {
    let mut gen = 0u64;
    let mut kill = 0u64;
    if let CfgNode::Call(c) = &cfg.nodes[node] {
        for (agg, pa) in &c.access {
            let Some(b) = cfg.agg_bit(agg) else {
                return Err(Diagnostic::error(
                    codes::DATAFLOW_UNIVERSE,
                    format!("aggregate `{agg}` missing from the dataflow universe"),
                )
                .with_note(format!(
                    "call `{}` (node {node}) accesses it, but the CFG universe is [{}]",
                    c.func,
                    cfg.aggs.join(", ")
                )));
            };
            let bit = 1u64 << b;
            if pa.home_write || pa.nonhome_write {
                kill |= bit;
            }
            if pa.nonhome_read || pa.nonhome_write {
                gen |= bit;
            }
        }
    }
    Ok((gen, kill))
}

impl ReachingUnstructured {
    /// Solve the problem for `cfg`. Fails with `E005` if a call accesses an
    /// aggregate outside the CFG's universe, or `E006` if the universe
    /// exceeds the 64-aggregate bit-vector.
    pub fn solve(cfg: &Cfg) -> Result<ReachingUnstructured, Diagnostic> {
        if cfg.aggs.len() > 64 {
            return Err(Diagnostic::error(
                codes::AGG_LIMIT,
                format!(
                    "program declares {} aggregates; the dataflow bit-vector supports at most 64",
                    cfg.aggs.len()
                ),
            )
            .with_note("split the program or widen `BitVec` in dataflow.rs"));
        }
        let n = cfg.nodes.len();
        let transfers: Vec<(BitVec, BitVec)> =
            (0..n).map(|i| transfer(cfg, i)).collect::<Result<_, _>>()?;
        let mut input = vec![0u64; n];
        let mut output = vec![0u64; n];
        // Worklist, seeded with all nodes in order.
        let mut work: std::collections::VecDeque<usize> = (0..n).collect();
        let mut queued = vec![true; n];
        while let Some(i) = work.pop_front() {
            queued[i] = false;
            let in_i = cfg.preds[i].iter().fold(0u64, |acc, &p| acc | output[p]);
            let (gen, kill) = transfers[i];
            let out_i = (in_i & !kill) | gen;
            input[i] = in_i;
            if out_i != output[i] {
                output[i] = out_i;
                for &s in &cfg.succs[i] {
                    if !queued[s] {
                        queued[s] = true;
                        work.push_back(s);
                    }
                }
            }
        }
        Ok(ReachingUnstructured { input, output })
    }

    /// Is aggregate bit `bit` reached-by-unstructured at the entry of node
    /// `n`?
    pub fn reaches(&self, node: usize, bit: usize) -> bool {
        self.input[node] & (1u64 << bit) != 0
    }
}

#[cfg(test)]
mod tests {
    use crate::compile::{compile_diag, CompiledProgram};
    use crate::sema::ClassifyRules;

    /// One parallel function per access class the tests combine, over
    /// 8-element aggregates.
    const FNS: &str = "parallel fn reader(a) { let x = a[7 - #0]; }\n\
                       parallel fn writer(a) { a[#0] = 1.0; }\n\
                       parallel fn scatter(a) { a[7 - #0] = 1.0; }\n";

    /// Compile `main` over the aggregates `aggs`, `FNS` and `fns`.
    fn compiled(aggs: &[&str], fns: &str, main: &str) -> CompiledProgram {
        let decls: String = aggs.iter().map(|a| format!("aggregate {a}[8] of float;\n")).collect();
        let src = format!("{decls}{FNS}{fns}fn main() {{ {main} }}\n");
        compile_diag(&src, true, ClassifyRules::default()).unwrap()
    }

    /// read-nonhome(A); then owner-write(A): the second call must be
    /// reached by A's unstructured accesses.
    #[test]
    fn unstructured_read_reaches_owner_write() {
        let c = compiled(&["A"], "", "reader(A); writer(A);");
        let (c1, c2) = (c.cfg.call_node[0], c.cfg.call_node[1]);
        let sol = &c.reaching;
        assert!(!sol.reaches(c1, 0), "nothing reaches the first call");
        assert!(sol.reaches(c2, 0), "reader's copies reach the writer");
        // The owner write kills: after c2 nothing is cached remotely.
        assert_eq!(sol.output[c2], 0);
    }

    /// Owner writes kill the property.
    #[test]
    fn owner_write_kills() {
        let c = compiled(&["A"], "", "reader(A); writer(A); reader(A);");
        let after = c.cfg.call_node[2];
        assert!(!c.reaching.reaches(after, 0), "owner write invalidates remote copies");
    }

    /// Unstructured writes kill then gen.
    #[test]
    fn unstructured_write_kills_and_gens() {
        let c = compiled(&["A"], "", "reader(A); scatter(A);");
        let w = c.cfg.call_node[1];
        assert!(c.reaching.reaches(w, 0));
        assert_ne!(c.reaching.output[w], 0, "scatter leaves new remote copies");
    }

    /// Loop fixpoint: an unstructured read inside a loop reaches the loop
    /// head (via the back edge) and everything after the loop.
    #[test]
    fn loop_fixpoint_propagates_around_back_edge() {
        let c = compiled(&["A"], "", "for it in 0 .. 2 { reader(A); } writer(A);");
        let (head, r, after) = (1, c.cfg.call_node[0], c.cfg.call_node[1]);
        let sol = &c.reaching;
        assert!(sol.reaches(r, 0), "second iteration sees the first's reads");
        assert!(sol.reaches(head, 0) || sol.input[head] != 0);
        assert!(sol.reaches(after, 0));
    }

    /// Independent aggregates do not interfere.
    #[test]
    fn aggregates_are_independent() {
        let c = compiled(&["A", "B"], "", "reader(A); writer(B);");
        let wb = c.cfg.call_node[1];
        assert!(c.reaching.reaches(wb, 0), "A still reaches");
        assert!(!c.reaching.reaches(wb, 1), "B was never unstructured");
    }

    /// More than 64 aggregates is now a diagnostic, not an abort.
    #[test]
    fn aggregate_limit_is_a_diagnostic() {
        let names: Vec<String> = (0..65).map(|i| format!("A{i}")).collect();
        let decls: String = names.iter().map(|a| format!("aggregate {a}[8] of float;\n")).collect();
        let src = format!("{decls}{FNS}fn main() {{ writer(A0); }}\n");
        let d = compile_diag(&src, true, ClassifyRules::default()).unwrap_err();
        assert_eq!(d.code, "E006");
        assert!(d.message.contains("65"));
    }

    /// Any-path analysis: a kill inside a loop body does not stop the
    /// property from reaching past the loop, because the zero-trip path
    /// skips the body. (Conservative, as the paper intends: wrongly
    /// keeping the property only adds a harmless directive.)
    #[test]
    fn loop_kill_does_not_block_the_zero_trip_path() {
        let fns = "parallel fn build(b, t) { t[7 - #0] = t[7 - #0] + b[#0]; }\n\
                   parallel fn center_of_mass(t) { t[#0] = 0.5 * t[#0]; }\n\
                   parallel fn forces(b, t) { b[#0] = t[7 - #0] + b[7 - #0]; }\n";
        let main = "build(bodies, tree); \
                    for com in 0 .. 3 { center_of_mass(tree); } \
                    forces(bodies, tree);";
        let c = compiled(&["tree", "bodies"], fns, main);
        let (com, force) = (c.cfg.call_node[1], c.cfg.call_node[2]);
        let sol = &c.reaching;
        let tree_bit = c.cfg.agg_bit("tree").unwrap();
        // build's unstructured writes reach the com loop...
        assert!(sol.reaches(com, tree_bit));
        // ...and still reach forces along the loop-skip edge (any-path).
        assert!(sol.reaches(force, tree_bit));
        // On the fall-through path out of the body, the owner write killed
        // the property.
        assert_eq!(sol.output[com], 0);
    }
}
