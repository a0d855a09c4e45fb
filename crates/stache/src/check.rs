//! Whole-machine coherence invariant checking.
//!
//! Intended to run while the machine is *quiesced* (no node thread
//! running, no request unanswered — e.g. between
//! [`prescient runtime runs`](crate) or at test checkpoints), when the
//! caller can hold every [`Node`] at once. Verifies, for
//! every block any node holds:
//!
//! * the home directory entry is stable (no busy op, no waiters);
//! * `Uncached` ⇒ home tag is `ReadWrite` (or `ReadOnly` after a tolerant
//!   home read) and no remote copy is readable;
//! * `Shared(S)` ⇒ home tag is readable but not writable is allowed to be
//!   `ReadOnly`; every readable remote copy belongs to `S`; no remote copy
//!   is writable; **every read-only copy's bytes equal the home bytes**;
//! * `Exclusive(o)` ⇒ home tag is `Invalid`, `o` holds the only writable
//!   copy, and no third node holds a readable copy.
//!
//! The single-writer/multi-reader property plus data agreement is exactly
//! what sequential consistency needs from the protocol layer; the
//! `self-grant` regression this suite guards against was a violation of
//! the `Exclusive` clause.

use prescient_tempest::tag::Tag;
use prescient_tempest::BlockId;

use crate::dir::DirState;
use crate::node::Node;

/// Check every coherence invariant across `nodes` (one entry per node, in
/// id order). Returns a list of human-readable violations (empty = clean).
///
/// The caller must guarantee quiescence; otherwise transient states will
/// be reported as violations.
pub fn check_coherence(nodes: &[&Node]) -> Vec<String> {
    let mut violations = Vec::new();
    let n = nodes.len();

    // Collect the tag of every materialized block on every node.
    let mut tags: Vec<Vec<(BlockId, Tag)>> = Vec::with_capacity(n);
    for node in nodes {
        tags.push(node.state.mem.iter_blocks().collect());
    }

    // Union of all blocks seen anywhere.
    let mut all_blocks: Vec<BlockId> = tags.iter().flatten().map(|(b, _)| *b).collect();
    all_blocks.sort_unstable();
    all_blocks.dedup();

    for block in all_blocks {
        // The home view is immutable machine configuration shared by every
        // node, so any node's view names the home.
        let homes = &nodes[0].shared.homes;
        let home = homes.home_of_block(block);
        let home_state = &nodes[home as usize].state;
        // A placement-acted (remapped or rotated) home never materializes
        // its own copy writable on first touch, so an `Uncached` block's
        // home copy may still be cold (`Invalid`) there.
        let cold_ok = !homes.is_identity_block(block);
        let state = match home_state.dir.get(block) {
            Some(e) => {
                if e.is_busy() {
                    violations.push(format!("{block:?}: home {home} entry busy at quiescence"));
                }
                if !e.waiters.is_empty() {
                    violations
                        .push(format!("{block:?}: home {home} has queued waiters at quiescence"));
                }
                e.state
            }
            None => DirState::Uncached,
        };
        let tag_of = |p: usize| -> Tag {
            tags[p].iter().find(|(b, _)| *b == block).map(|(_, t)| *t).unwrap_or(Tag::Invalid)
        };
        let home_tag = home_state.mem.probe(block);

        match state {
            DirState::Uncached => {
                if !home_tag.readable() && !cold_ok {
                    violations
                        .push(format!("{block:?}: Uncached but home {home} tag is {home_tag:?}"));
                }
                for p in 0..n {
                    if p != home as usize && tag_of(p).readable() {
                        violations.push(format!(
                            "{block:?}: Uncached but node {p} holds a {:?} copy",
                            tag_of(p)
                        ));
                    }
                }
            }
            DirState::Shared(s) => {
                if home_tag.writable() || !home_tag.readable() {
                    violations
                        .push(format!("{block:?}: Shared but home {home} tag is {home_tag:?}"));
                }
                let home_data = home_state.mem.data(block);
                #[allow(clippy::needless_range_loop)]
                for p in 0..n {
                    if p == home as usize {
                        continue;
                    }
                    let t = tag_of(p);
                    if t.writable() {
                        violations
                            .push(format!("{block:?}: Shared but node {p} holds a writable copy"));
                    }
                    if t.readable() && !s.contains(p as u16) {
                        violations.push(format!(
                            "{block:?}: node {p} holds a readable copy but is not in sharers {s:?}"
                        ));
                    }
                    if t.readable() {
                        // Data agreement: every valid copy equals home memory.
                        let copy = nodes[p].state.mem.data(block);
                        if let (Some(h), Some(c)) = (home_data, copy) {
                            if h != c {
                                violations.push(format!(
                                    "{block:?}: node {p}'s read-only copy diverges from home data"
                                ));
                            }
                        }
                    }
                }
            }
            DirState::Exclusive(o) => {
                if home_tag.readable() {
                    violations.push(format!(
                        "{block:?}: Exclusive({o}) but home {home} tag is {home_tag:?}"
                    ));
                }
                if !tag_of(o as usize).writable() {
                    violations.push(format!(
                        "{block:?}: Exclusive({o}) but owner's tag is {:?}",
                        tag_of(o as usize)
                    ));
                }
                for p in 0..n {
                    if p != o as usize && tag_of(p).readable() {
                        violations.push(format!(
                            "{block:?}: Exclusive({o}) but node {p} holds a {:?} copy",
                            tag_of(p)
                        ));
                    }
                }
            }
        }
    }
    violations
}
