//! Whole-machine coherence checking, run while the machine is *quiesced*
//! (no node thread running, no request unanswered), when the caller can
//! hold every [`Node`] at once. For every block any node holds, the home's
//! entry must be stable, every node's tag one that [`crate::table::STABLE`]
//! allows its role (home, holder, other) in the entry's state, and every
//! readable remote copy equal to the home's bytes while those are readable:
//! single writer, multiple readers and data agreement, which is what
//! sequential consistency needs from the protocol layer.

use prescient_tempest::BlockId;

use crate::dir::DirState;
use crate::node::Node;
use crate::table::{legal, tag_bit};

/// Check every coherence invariant across `nodes` (one entry per node, in
/// id order). Returns a list of human-readable violations (empty = clean).
///
/// The caller must guarantee quiescence; otherwise transient states will
/// be reported as violations.
pub fn check_coherence(nodes: &[&Node]) -> Vec<String> {
    let mut violations = Vec::new();
    let mut all_blocks: Vec<BlockId> =
        nodes.iter().flat_map(|n| n.state.mem.iter_blocks().map(|(b, _)| b)).collect();
    all_blocks.sort_unstable();
    all_blocks.dedup();

    for block in all_blocks {
        // The home view is immutable machine configuration shared by every
        // node, so any node's view names the home.
        let homes = &nodes[0].shared.homes;
        let home = homes.home_of_block(block) as usize;
        let mem = &nodes[home].state.mem;
        let state = match nodes[home].state.dir.get(block) {
            Some(e) => {
                if e.is_busy() || !e.waiters.is_empty() {
                    violations.push(format!("{block:?}: home {home} entry busy at quiescence"));
                }
                e.state
            }
            None => DirState::Uncached,
        };
        let legal = legal(state);
        let home_data = mem.data(block).filter(|_| mem.probe(block).readable());
        for (p, node) in nodes.iter().enumerate() {
            let tag = node.state.mem.probe(block);
            let (role, allowed) = match (p == home, state.holders().contains(p as u16)) {
                (true, _) if homes.is_identity_block(block) => ("home", legal.home),
                (true, _) => ("placement-acted home", legal.moved_home),
                (false, true) => ("holder", legal.holder),
                (false, false) => ("other", legal.other),
            };
            if allowed & tag_bit(tag) == 0 {
                violations.push(format!("{block:?}: {state:?} but node {p} ({role}) is {tag:?}"));
            }
            let copy = node.state.mem.data(block).filter(|_| p != home && tag.readable());
            if copy.is_some_and(|c| home_data.is_some_and(|h| h != c)) {
                violations.push(format!("{block:?}: node {p}'s copy diverges from home data"));
            }
        }
    }
    violations
}
