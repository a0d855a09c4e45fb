//! The sequential control-flow graph of `main`, annotated with parallel
//! function access summaries (§4.3, Figure 4).
//!
//! Nodes are parallel-function call sites plus loop-structure markers;
//! edges capture the flow of the (loop-nested) sequential program. The
//! graph is built from a parsed program by [`Cfg::from_program`]; Figure
//! 4's Barnes main loop and the three evaluation applications are C\*\*
//! models in `crates/bench/models/`.

use std::collections::BTreeMap;

use crate::ast::{Program, SeqStmt};
use crate::diag::{codes, Diagnostic};
use crate::sema::{AccessSummary, ParamAccess};

/// One parallel call site with its per-aggregate access classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee name (diagnostic).
    pub func: String,
    /// Stable call-site id (execution order of first appearance).
    pub id: usize,
    /// Access classification per aggregate *instance* (argument), merged
    /// over all parameters bound to that instance.
    pub access: BTreeMap<String, ParamAccess>,
    /// The call carries a `commute` annotation: the programmer asks for
    /// privatize-and-merge execution of its aggregate updates.
    pub commute_annotated: bool,
}

impl CallSite {
    /// Does this call perform any unstructured access?
    pub fn any_unstructured(&self) -> bool {
        self.access.values().any(|a| a.unstructured())
    }

    /// Does this call only perform home accesses?
    pub fn home_only(&self) -> bool {
        !self.any_unstructured()
    }

    /// Aggregates this call writes whose updates are commutative-mergeable.
    pub fn commute_aggs(&self) -> Vec<&str> {
        self.access
            .iter()
            .filter(|(_, a)| a.commute && (a.home_write || a.nonhome_write))
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

/// A CFG node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgNode {
    /// Function entry.
    Entry,
    /// Function exit.
    Exit,
    /// A parallel call site.
    Call(CallSite),
    /// Head of a loop (join point of entry and back edge).
    LoopHead {
        /// Loop label (diagnostic).
        label: String,
    },
}

/// One item of the structured (region) view of `main`, used by the
/// directive planner, which needs the loop nesting the flat CFG edges do
/// not expose.
#[derive(Debug, Clone, PartialEq)]
pub enum RegionItem {
    /// A parallel call, by call-site id.
    Call(usize),
    /// A counted loop.
    Loop {
        /// Label (the loop variable).
        label: String,
        /// Trip bounds `lo..hi`.
        trip: (i64, i64),
        /// Body items.
        body: Vec<RegionItem>,
    },
}

/// The annotated sequential CFG.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Nodes; index 0 is `Entry`.
    pub nodes: Vec<CfgNode>,
    /// Successor lists.
    pub succs: Vec<Vec<usize>>,
    /// Predecessor lists.
    pub preds: Vec<Vec<usize>>,
    /// Entry node index.
    pub entry: usize,
    /// Exit node index.
    pub exit: usize,
    /// The aggregate-name universe (bit positions for the dataflow).
    pub aggs: Vec<String>,
    /// Structured view of the program (loop nesting), parallel to the flat
    /// graph.
    pub regions: Vec<RegionItem>,
    /// Map call-site id → CFG node index.
    pub call_node: Vec<usize>,
}

impl Cfg {
    /// Bit position of an aggregate name.
    pub fn agg_bit(&self, name: &str) -> Option<usize> {
        self.aggs.iter().position(|a| a == name)
    }

    /// All call-site node indices in order.
    pub fn call_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len()).filter(|&i| matches!(self.nodes[i], CfgNode::Call(_))).collect()
    }

    /// The call site at node `i`, if any.
    pub fn call(&self, i: usize) -> Option<&CallSite> {
        match &self.nodes[i] {
            CfgNode::Call(c) => Some(c),
            _ => None,
        }
    }

    /// Build the CFG of a parsed program using its function summaries. A
    /// call to a function that has no summary is an `E004` at the call.
    pub fn from_program(
        p: &Program,
        summaries: &BTreeMap<String, AccessSummary>,
    ) -> Result<Cfg, Diagnostic> {
        let mut b = CfgBuilder::new(p.aggs.iter().map(|a| a.name.clone()));
        fn walk(
            b: &mut CfgBuilder,
            p: &Program,
            summaries: &BTreeMap<String, AccessSummary>,
            stmts: &[SeqStmt],
        ) -> Result<(), Diagnostic> {
            for s in stmts {
                match s {
                    SeqStmt::Call { func, args, commute, span } => {
                        let (Some(f), Some(sum)) = (p.func(func), summaries.get(func)) else {
                            return Err(Diagnostic::error(
                                codes::CALL,
                                format!("call to unknown parallel function `{func}`"),
                            )
                            .with_label(*span, "not a parallel function"));
                        };
                        // Map parameter summaries onto argument instances.
                        // Access flags merge by OR; the commutativity
                        // verdict merges by AND — binding an instance to a
                        // second parameter that reads it (or updates it
                        // non-commutatively) defeats privatization.
                        let mut access: BTreeMap<String, ParamAccess> = BTreeMap::new();
                        for (param, arg) in f.params.iter().zip(args) {
                            let pa = sum.get(param);
                            match access.entry(arg.clone()) {
                                std::collections::btree_map::Entry::Vacant(v) => {
                                    v.insert(pa);
                                }
                                std::collections::btree_map::Entry::Occupied(mut o) => {
                                    let e = o.get_mut();
                                    e.home_read |= pa.home_read;
                                    e.home_write |= pa.home_write;
                                    e.nonhome_read |= pa.nonhome_read;
                                    e.nonhome_write |= pa.nonhome_write;
                                    e.commute &= pa.commute;
                                }
                            }
                        }
                        b.call(func, access, *commute);
                    }
                    SeqStmt::For { var, lo, hi, body } => {
                        b.begin_loop(var, (*lo, *hi));
                        walk(b, p, summaries, body)?;
                        b.end_loop();
                    }
                }
            }
            Ok(())
        }
        walk(&mut b, p, summaries, &p.main)?;
        Ok(b.finish())
    }
}

/// Incremental construction of the graph, driven by [`Cfg::from_program`].
struct CfgBuilder {
    nodes: Vec<CfgNode>,
    succs: Vec<Vec<usize>>,
    /// Node(s) whose control flow falls through to the next added node.
    frontier: Vec<usize>,
    /// Stack of open loops: (head index, region body so far, label, trip).
    #[allow(clippy::type_complexity)]
    loops: Vec<(usize, Vec<RegionItem>, String, (i64, i64))>,
    /// Region items of the current (innermost open) sequence.
    region: Vec<RegionItem>,
    call_node: Vec<usize>,
    aggs: Vec<String>,
}

impl CfgBuilder {
    /// Start a builder over the given aggregate universe.
    fn new(aggs: impl IntoIterator<Item = String>) -> CfgBuilder {
        CfgBuilder {
            nodes: vec![CfgNode::Entry],
            succs: vec![vec![]],
            frontier: vec![0],
            loops: vec![],
            region: vec![],
            call_node: vec![],
            aggs: aggs.into_iter().collect(),
        }
    }

    fn add(&mut self, n: CfgNode) -> usize {
        let i = self.nodes.len();
        self.nodes.push(n);
        self.succs.push(vec![]);
        for &f in &self.frontier {
            self.succs[f].push(i);
        }
        self.frontier = vec![i];
        i
    }

    /// Append a call with its per-aggregate accesses; call-site ids follow
    /// program order.
    fn call(&mut self, func: &str, access: BTreeMap<String, ParamAccess>, annotated: bool) {
        let id = self.call_node.len();
        let node = self.add(CfgNode::Call(CallSite {
            func: func.to_string(),
            id,
            access,
            commute_annotated: annotated,
        }));
        self.call_node.push(node);
        self.region.push(RegionItem::Call(id));
    }

    /// Open a counted loop `lo..hi`; subsequent nodes are the body.
    fn begin_loop(&mut self, label: &str, trip: (i64, i64)) {
        let head = self.add(CfgNode::LoopHead { label: label.to_string() });
        let outer_region = std::mem::take(&mut self.region);
        self.loops.push((head, outer_region, label.to_string(), trip));
    }

    /// Close the innermost loop (adds the back edge; fall-through continues
    /// after the loop).
    fn end_loop(&mut self) {
        let (head, outer_region, label, trip) =
            self.loops.pop().expect("end_loop without begin_loop");
        for &f in &self.frontier {
            self.succs[f].push(head);
        }
        let body = std::mem::replace(&mut self.region, outer_region);
        self.region.push(RegionItem::Loop { label, trip, body });
        // Control continues from the loop head (the not-taken branch).
        self.frontier = vec![head];
    }

    /// Finish: add the exit node and compute predecessors.
    fn finish(mut self) -> Cfg {
        assert!(self.loops.is_empty(), "unclosed loop");
        let exit = self.add(CfgNode::Exit);
        let mut preds = vec![vec![]; self.nodes.len()];
        for (i, ss) in self.succs.iter().enumerate() {
            for &s in ss {
                preds[s].push(i);
            }
        }
        Cfg {
            nodes: self.nodes,
            succs: self.succs,
            preds,
            entry: 0,
            exit,
            aggs: self.aggs,
            regions: self.region,
            call_node: self.call_node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_diag;
    use crate::sema::{analyze_program_with, ClassifyRules};

    fn cfg_of(src: &str) -> Cfg {
        let p = parse_diag(src).unwrap();
        let sums = analyze_program_with(&p, ClassifyRules::default()).unwrap();
        Cfg::from_program(&p, &sums).unwrap()
    }

    /// A home writer and a home reader of one aggregate.
    const PAIR: &str = "aggregate A[8] of float;\n\
                        parallel fn f(a) { a[#0] = 1.0; }\n\
                        parallel fn g(a) { let x = a[#0]; }\n";

    #[test]
    fn straight_line_cfg() {
        let cfg = cfg_of(&format!("{PAIR}fn main() {{ f(A); g(A); }}"));
        let (c1, c2) = (cfg.call_node[0], cfg.call_node[1]);
        assert_eq!(cfg.succs[cfg.entry], vec![c1]);
        assert_eq!(cfg.succs[c1], vec![c2]);
        assert_eq!(cfg.succs[c2], vec![cfg.exit]);
        assert_eq!(cfg.preds[c2], vec![c1]);
    }

    #[test]
    fn loop_back_edge() {
        let cfg = cfg_of(&format!("{PAIR}fn main() {{ for it in 0 .. 3 {{ g(A); }} }}"));
        let (head, c) = (1, cfg.call_node[0]);
        assert_eq!(cfg.nodes[head], CfgNode::LoopHead { label: "it".into() });
        // head → body call and head → exit; call → head (back edge).
        assert!(cfg.succs[head].contains(&c));
        assert!(cfg.succs[c].contains(&head));
        assert!(cfg.succs[head].contains(&cfg.exit));
        assert!(matches!(cfg.regions[..], [RegionItem::Loop { trip: (0, 3), .. }]));
    }

    #[test]
    fn from_program_maps_params_to_args() {
        let cfg = cfg_of(
            r#"
            aggregate G[8][8] of float;
            aggregate H[8][8] of float;
            parallel fn sweep(g, h) {
                h[#0][#1] = 0.25 * (g[#0-1][#1] + g[#0+1][#1] + g[#0][#1-1] + g[#0][#1+1]);
            }
            fn main() {
                for it in 0 .. 10 {
                    sweep(G, H);
                    sweep(H, G);
                }
            }
        "#,
        );
        let calls = cfg.call_nodes();
        assert_eq!(calls.len(), 2);
        // First call: G read-nonhome, H written-home.
        let c0 = cfg.call(calls[0]).unwrap();
        assert!(c0.access["G"].nonhome_read);
        assert!(c0.access["H"].home_write);
        // Second call swaps roles.
        let c1 = cfg.call(calls[1]).unwrap();
        assert!(c1.access["H"].nonhome_read);
        assert!(c1.access["G"].home_write);
        assert_eq!(cfg.agg_bit("G"), Some(0));
        assert_eq!(cfg.agg_bit("H"), Some(1));
    }

    #[test]
    fn same_instance_bound_twice_merges() {
        let cfg = cfg_of(
            r#"
            aggregate A[8] of float;
            parallel fn f(x, y) {
                x[#0] = y[#0 - 1];
            }
            fn main() { f(A, A); }
        "#,
        );
        let c = cfg.call(cfg.call_nodes()[0]).unwrap();
        let a = c.access["A"];
        assert!(a.home_write && a.nonhome_read);
    }

    #[test]
    fn nested_loops() {
        let cfg = cfg_of(
            "aggregate T[8] of float;\n\
             parallel fn build(t) { t[7 - #0] = 1.0; }\n\
             parallel fn com(t) { t[#0] = t[#0]; }\n\
             parallel fn force(t) { let x = t[7 - #0]; }\n\
             fn main() {\n\
                 for outer in 0 .. 2 {\n\
                     build(T);\n\
                     for inner in 0 .. 3 { com(T); }\n\
                     force(T);\n\
                 }\n\
             }\n",
        );
        assert_eq!(cfg.call_nodes().len(), 3);
        // Exit reachable.
        assert!(cfg.succs.iter().flatten().any(|&s| s == cfg.exit));
    }

    #[test]
    fn unknown_callee_is_e004_at_the_call() {
        // Sema rejects this first; the graph builder reports it the same
        // way when handed a program sema never saw.
        let src = "aggregate A[8] of float;\nfn main() {\n    nope(A);\n}\n";
        let p = parse_diag(src).unwrap();
        let d = Cfg::from_program(&p, &BTreeMap::new()).unwrap_err();
        assert_eq!(d.code, codes::CALL);
        assert!(d.message.contains("`nope`"), "{}", d.message);
        assert_eq!(d.primary_span().map(|s| (s.line, s.lo)), Some((3, 41)));
    }
}
