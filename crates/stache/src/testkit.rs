//! The protocol-level test harness: a set of [`Node`]s below the runtime,
//! each driven by its own thread.
//!
//! A node serves its peers only from its own thread, so a test cannot poke
//! one node from the outside while the others sit idle. [`Cluster::run`]
//! gives every node a thread that runs the test's script for that node and
//! then keeps serving its inbox until every script is done;
//! [`Cluster::on`] is the one-active-node case. A script that panics (a
//! failed assertion) aborts the cluster, so its peers unwind instead of
//! waiting for it, and the panic is re-raised on the calling thread.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use prescient_tempest::fabric::{Endpoint, Fabric};
use prescient_tempest::sync::lock;
use prescient_tempest::{
    Aborted, CostModel, FaultPlan, FaultStats, GAddr, GlobalLayout, HomeView, NodeId, Prim,
    VBarrier,
};

use crate::engine::fetch;
use crate::hooks::Hooks;
use crate::msg::Msg;
use crate::node::{Node, RetryConfig};

/// Nodes of one fabric plus the barrier their scripts rendezvous on (with
/// [`Node::barrier`], which keeps serving).
pub struct Cluster {
    /// The nodes, in id order.
    pub nodes: Vec<Node>,
    /// A barrier for all of `nodes`.
    pub barrier: VBarrier,
    /// The fabric's fault counters, when built with an active fault plan.
    pub faults: Option<Arc<FaultStats>>,
}

impl Cluster {
    /// `nodes` nodes on an in-process fabric — faulty if `plan` is active —
    /// with `hooks(i)` as node `i`'s protocol extension.
    pub fn new(
        nodes: usize,
        block_size: usize,
        retry: RetryConfig,
        plan: Option<FaultPlan>,
        hooks: impl Fn(NodeId) -> Arc<dyn Hooks>,
    ) -> Cluster {
        let layout = GlobalLayout::new(nodes, block_size);
        match plan.filter(FaultPlan::is_active) {
            Some(p) => {
                let (eps, stats) = Fabric::new_faulty::<Msg>(nodes, p);
                Cluster { faults: Some(stats), ..Cluster::over(eps, layout, retry, hooks) }
            }
            None => Cluster::over(Fabric::new::<Msg>(nodes), layout, retry, hooks),
        }
    }

    /// The nodes behind `endpoints` (for a fabric the test built itself).
    pub fn over(
        endpoints: Vec<Endpoint<Msg>>,
        layout: GlobalLayout,
        retry: RetryConfig,
        hooks: impl Fn(NodeId) -> Arc<dyn Hooks>,
    ) -> Cluster {
        let homes = Arc::new(HomeView::identity(layout));
        let nodes: Vec<Node> = endpoints
            .into_iter()
            .map(|ep| {
                let h = hooks(ep.me);
                Node::new(Arc::clone(&homes), CostModel::default(), ep, h, retry)
            })
            .collect();
        Cluster { barrier: VBarrier::new(nodes.len()), nodes, faults: None }
    }

    /// Run `script` on every node at once, each on its own thread; a node
    /// whose script returned serves its inbox until all have. Results in
    /// node order.
    pub fn run<R: Send>(&mut self, script: impl Fn(&mut Node, &VBarrier) -> R + Sync) -> Vec<R> {
        let barrier = &self.barrier;
        let kicker = Arc::clone(&self.nodes[0].shared);
        let ids: Vec<NodeId> = self.nodes.iter().map(|n| n.shared.me).collect();
        let stop = AtomicBool::new(false);
        let (done_tx, done_rx) = mpsc::channel();
        let outcomes: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .nodes
                .iter_mut()
                .map(|node| {
                    let (script, stop, done_tx) = (&script, &stop, done_tx.clone());
                    s.spawn(move || {
                        let out = catch_unwind(AssertUnwindSafe(|| script(node, barrier)));
                        if out.is_err() {
                            node.shared.abort_machine(barrier);
                        }
                        let _ = done_tx.send(());
                        // On an aborted cluster the first kick unwinds out.
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            while !stop.load(Ordering::Acquire) {
                                node.next_wake(None);
                            }
                        }));
                        out
                    })
                })
                .collect();
            for _ in &ids {
                done_rx.recv().expect("a node thread vanished");
            }
            // Flag first, kick second: a node that read the flag as unset
            // before blocking is woken by its kick.
            stop.store(true, Ordering::Release);
            ids.iter().for_each(|&d| kicker.kick(d));
            handles
                .into_iter()
                .map(|h| h.join().expect("node thread died outside a guard"))
                .collect()
        });
        let mut results = Vec::with_capacity(outcomes.len());
        let mut collateral = None;
        for out in outcomes {
            match out {
                Ok(r) => results.push(r),
                // The script that failed is the story; `Aborted` unwinds
                // are its collateral.
                Err(p) if p.downcast_ref::<Aborted>().is_none() => resume_unwind(p),
                Err(p) => collateral = Some(p),
            }
        }
        if let Some(p) = collateral {
            resume_unwind(p);
        }
        results
    }

    /// Run `f` on node `node`'s thread while every other node serves.
    pub fn on<R: Send>(&mut self, node: NodeId, f: impl FnOnce(&mut Node) -> R + Send) -> R {
        let f = Mutex::new(Some(f));
        let script = |n: &mut Node, _: &VBarrier| {
            (n.shared.me == node).then(|| (lock(&f).take().expect("one node matches"))(n))
        };
        self.run(script).into_iter().flatten().next().expect("node is in the cluster")
    }

    /// Every coherence violation of the (quiescent) cluster; see
    /// [`crate::check_coherence`].
    pub fn violations(&self) -> Vec<String> {
        crate::check_coherence(&self.nodes.iter().collect::<Vec<_>>())
    }
}

/// Load the word at `addr` the way the runtime's checked access does:
/// retry through [`fetch`] until it hits. Returns the value and the number
/// of faults taken.
pub fn read_u64(node: &mut Node, addr: GAddr) -> (u64, u32) {
    let (mut buf, mut faults) = ([0u8; 8], 0);
    while let Err(e) = node.state.mem.read_in_block(addr, &mut buf) {
        faults += 1;
        fetch(node, e.fault().block, false);
    }
    (u64::load(&buf), faults)
}

/// Store `v` at `addr` likewise; returns the number of faults taken.
pub fn write_u64(node: &mut Node, addr: GAddr, v: u64) -> u32 {
    let (mut buf, mut faults) = ([0u8; 8], 0);
    v.store(&mut buf);
    while let Err(e) = node.state.mem.write_in_block(addr, &buf) {
        faults += 1;
        fetch(node, e.fault().block, true);
    }
    faults
}
