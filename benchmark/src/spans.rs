//! Harness spans: where a traced run's time went, seen from outside the
//! program. Spans nest; one node per (name, parent) keeps count, total and
//! self time in memory until the run ends.

use std::time::Instant;

use crate::json::Json;

struct Node {
    name: String,
    parent: Option<usize>,
    count: u64,
    total_s: f64,
    children_s: f64,
}

/// The recorder. Disabled, every call is a branch and nothing more.
pub struct Spans {
    enabled: bool,
    nodes: Vec<Node>,
    open: Vec<(usize, Instant)>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans { enabled, nodes: Vec::new(), open: Vec::new() }
    }

    fn node(&mut self, name: &str) -> usize {
        let parent = self.open.last().map(|(i, _)| *i);
        if let Some(i) = self.nodes.iter().position(|n| n.parent == parent && n.name == name) {
            return i;
        }
        self.nodes.push(Node {
            name: name.to_string(),
            parent,
            count: 0,
            total_s: 0.0,
            children_s: 0.0,
        });
        self.nodes.len() - 1
    }

    fn add(&mut self, i: usize, secs: f64) {
        self.nodes[i].count += 1;
        self.nodes[i].total_s += secs;
        if let Some(p) = self.nodes[i].parent {
            self.nodes[p].children_s += secs;
        }
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) {
        if self.enabled {
            let i = self.node(name);
            self.open.push((i, Instant::now()));
        }
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if self.enabled {
            let (i, t) = self.open.pop().expect("exit without enter");
            self.add(i, t.elapsed().as_secs_f64());
        }
    }

    /// A child of the innermost open span whose duration is known but
    /// whose ends the harness cannot see (the program reports its main
    /// loop's wall time; set-up is the rest of the call).
    pub fn leaf(&mut self, name: &str, secs: f64) {
        if self.enabled {
            let i = self.node(name);
            self.add(i, secs);
        }
    }

    /// Spans and leaves recorded so far.
    pub fn recorded(&self) -> u64 {
        self.nodes.iter().map(|n| n.count).sum()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.nodes
                .iter()
                .map(|n| {
                    Json::obj([
                        ("name", Json::str(&n.name)),
                        ("parent", n.parent.map_or(Json::Null, |p| Json::str(&self.nodes[p].name))),
                        ("count", Json::Num(n.count as f64)),
                        ("total_s", Json::Num(n.total_s)),
                        ("self_s", Json::Num(n.total_s - n.children_s)),
                    ])
                })
                .collect(),
        )
    }
}
