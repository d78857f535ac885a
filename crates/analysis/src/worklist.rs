//! Incremental worklist-driven fixpoint engine for the width pipeline.
//!
//! The full-sweep pipeline ([`crate::optimize_widths_full_with`]) recomputes the
//! whole required-precision (RP) and information-content (IC) analyses
//! every round, O(rounds × graph). This engine keeps both analyses *live*
//! across rounds and only recomputes the ports whose inputs changed:
//!
//! * **RP** depends only on successors, so dirty nodes are processed in
//!   descending topological position, propagating to predecessors when the
//!   input-port requirement changes;
//! * **IC** depends only on predecessors, so dirty nodes are processed in
//!   ascending topological position, propagating to successors when the
//!   output bound changes.
//!
//! Each processed node settles exactly once per update (propagation only
//!   moves strictly against the processing order), so an update costs
//! O(changed region), not O(graph).
//!
//! # Why the result, trace, and counters match the full sweep
//!
//! The engine applies decisions through the *same* per-item functions as
//! the full sweep (`clamp_node`/`clamp_edge`/`prune_edge_one`/
//! `prune_node_one`), over **candidate lists that provably contain every
//! item the full sweep would change** (see `DESIGN.md` §10 for the
//! monotonicity argument: widths only shrink, so a decision can fire in a
//! later round only where its analysis inputs changed). Candidates are
//! visited in ascending id order — the full sweep's order — and
//! non-firing candidates emit nothing, so the mutation sequence, the
//! `TraceEvent` stream (including causal parents), and the per-round
//! change counters are bit-for-bit identical.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dp_dfg::{Dfg, DfgView, EdgeId, NodeId};
use dp_metrics::Watchdog;
use dp_trace::TraceLog;

use crate::ic::Ic;
use crate::info::{settle_node, InfoAnalysis, IntrinsicOverrides};
use crate::precision::{clamp_edge, clamp_node, rp_node_values, PrecisionAnalysis};
use crate::profile::{kind_index, KindCounts, KindProf};
use crate::prune::{prune_edge_one, prune_node_one, NodePrune};

/// Dense-id trait for the flag-backed sets below.
trait DenseId: Copy + Ord {
    fn ix(self) -> usize;
}

impl DenseId for NodeId {
    fn ix(self) -> usize {
        self.index()
    }
}

impl DenseId for EdgeId {
    fn ix(self) -> usize {
        self.index()
    }
}

/// An insertion-deduplicated id set: O(1) insert, drained in ascending id
/// order. Flags grow on demand so ids created mid-round just work.
struct IdSet<T: DenseId> {
    items: Vec<T>,
    flags: Vec<bool>,
}

impl<T: DenseId> IdSet<T> {
    fn new() -> Self {
        IdSet { items: Vec::new(), flags: Vec::new() }
    }

    fn insert(&mut self, id: T) {
        let i = id.ix();
        if i >= self.flags.len() {
            self.flags.resize(i + 1, false);
        }
        if !self.flags[i] {
            self.flags[i] = true;
            self.items.push(id);
        }
    }

    fn drain_sorted(&mut self) -> Vec<T> {
        for id in &self.items {
            self.flags[id.ix()] = false;
        }
        let mut v = std::mem::take(&mut self.items);
        v.sort_unstable();
        v
    }

    fn clear(&mut self) {
        for id in &self.items {
            self.flags[id.ix()] = false;
        }
        self.items.clear();
    }
}

/// The incremental pipeline state carried across fixpoint rounds.
pub(crate) struct Engine {
    view: DfgView,
    rp: PrecisionAnalysis,
    ic: InfoAnalysis,
    /// Always empty in the pipeline (Huffman overrides only exist in the
    /// merge loop's fresh recomputations); threaded through so the shared
    /// [`settle_node`] has its full signature.
    overrides: IntrinsicOverrides,
    round: usize,
    /// Nodes whose RP inputs changed since the last RP update.
    rp_dirty: IdSet<NodeId>,
    /// Nodes whose IC inputs changed since the last IC update.
    ic_dirty: IdSet<NodeId>,
    /// Edge-prune candidate accumulator: edges whose claim, own width, or
    /// destination width changed since the last edge-prune apply, plus
    /// edges created since then.
    edge_cand: IdSet<EdgeId>,
    /// Node-prune candidate accumulator: operator nodes whose intrinsic
    /// bound changed since the last node-prune apply.
    node_cand: IdSet<NodeId>,
    /// Scratch: whether a node is currently queued in an update heap.
    in_heap: Vec<bool>,
    /// Edges already presented to an edge-prune apply at least once.
    num_edges_seen: usize,
    /// Worklist insertions this round (analysis updates only).
    pushes: usize,
    /// Node recomputations this round across the three analysis updates.
    visits: usize,
    /// Per-node-kind visit tallies (and optional timing samples) for the
    /// same recomputations `visits` counts.
    prof: KindProf,
}

impl Engine {
    /// Creates an engine for `g`. Analyses are computed lazily: the first
    /// round runs full sweeps (everything is dirty by definition).
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic.
    pub(crate) fn new(g: &Dfg) -> Engine {
        Engine {
            view: DfgView::new(g),
            rp: PrecisionAnalysis { out_port: Vec::new(), in_port: Vec::new() },
            ic: InfoAnalysis {
                node_out: Vec::new(),
                intrinsic: Vec::new(),
                edge_signal: Vec::new(),
                operand: Vec::new(),
            },
            overrides: IntrinsicOverrides::new(),
            round: 0,
            rp_dirty: IdSet::new(),
            ic_dirty: IdSet::new(),
            edge_cand: IdSet::new(),
            node_cand: IdSet::new(),
            in_heap: Vec::new(),
            num_edges_seen: 0,
            pushes: 0,
            visits: 0,
            prof: KindProf::default(),
        }
    }

    /// Enables per-visit timing samples (full-telemetry runs only; visit
    /// counts are collected regardless).
    pub(crate) fn set_timing(&mut self, on: bool) {
        self.prof.set_timing(on);
    }

    /// Returns and resets the per-kind visit tallies accumulated since
    /// the last call (one round's worth, in the pipeline loop).
    pub(crate) fn take_kinds(&mut self) -> KindCounts {
        self.prof.take()
    }

    /// Starts a round: refreshes the adjacency view after last round's
    /// structural mutations, grows the analysis arrays for new nodes/edges
    /// (sentinel values guarantee their first recompute registers as a
    /// change), and queues never-examined edges as prune candidates.
    pub(crate) fn begin_round(&mut self, g: &Dfg) {
        self.round += 1;
        self.view.refresh(g);
        if self.round > 1 {
            let n = g.num_nodes();
            self.rp.out_port.resize(n, usize::MAX);
            self.rp.in_port.resize(n, usize::MAX);
            self.ic.node_out.resize(n, Ic::trivial(0));
            self.ic.intrinsic.resize(n, None);
            let m = g.num_edges();
            self.ic.edge_signal.resize(m, Ic::trivial(0));
            self.ic.operand.resize(m, Ic::trivial(0));
            for i in self.num_edges_seen..m {
                self.edge_cand.insert(EdgeId::from_index(i));
            }
        }
        self.num_edges_seen = g.num_edges();
    }

    /// Returns and resets this round's `(worklist_pushes, ports_visited)`.
    pub(crate) fn take_work(&mut self) -> (usize, usize) {
        (std::mem::take(&mut self.pushes), std::mem::take(&mut self.visits))
    }

    /// The RP half of a round: update the analysis (full sweep in round 1,
    /// worklist-driven afterwards), then apply node and edge clamps to the
    /// changed candidates in ascending id order.
    ///
    /// Supervision: `wd` is checked cooperatively inside the sweep and
    /// worklist loops. An abort *during analysis* skips the apply phases
    /// entirely (clamping against a half-computed RP table would be
    /// unsound); an abort *during apply* is safe mid-stream because every
    /// applied clamp used the completed analysis. Either way the graph
    /// remains functionally correct — only incomplete.
    pub(crate) fn rp_round(
        &mut self,
        g: &mut Dfg,
        tr: &mut TraceLog,
        wd: &Watchdog,
    ) -> (usize, usize) {
        let mut nodes = 0;
        let mut edges = 0;
        if wd.check() {
            return (0, 0);
        }
        if self.round == 1 {
            self.rp.out_port.clear();
            self.rp.out_port.resize(g.num_nodes(), 0);
            self.rp.in_port.clear();
            self.rp.in_port.resize(g.num_nodes(), 0);
            let mut done = 0usize;
            for i in (0..self.view.topo().len()).rev() {
                if wd.check() {
                    break;
                }
                let n = self.view.topo()[i];
                let k = kind_index(g.node(n).kind());
                let t = self.prof.begin(k);
                let (out, inp) = rp_node_values(g, n, &self.rp.in_port);
                self.prof.end(k, t);
                self.rp.out_port[n.index()] = out;
                self.rp.in_port[n.index()] = inp;
                done += 1;
            }
            self.visits += done;
            if done < self.view.topo().len() {
                return (0, 0);
            }
            self.rp_dirty.clear();
            for i in 0..g.num_nodes() {
                if wd.check() {
                    return (nodes, edges);
                }
                let n = NodeId::from_index(i);
                if clamp_node(g, &self.rp, n, tr) {
                    nodes += 1;
                    self.after_node_width_change(g, n);
                }
            }
            for i in 0..g.num_edges() {
                if wd.check() {
                    return (nodes, edges);
                }
                let e = EdgeId::from_index(i);
                if clamp_edge(g, &self.rp, e, tr) {
                    edges += 1;
                    self.after_edge_change(g, e);
                }
            }
        } else {
            let Some((mut out_changed, in_changed)) = self.rp_update(g, wd) else {
                return (0, 0);
            };
            out_changed.sort_unstable();
            for n in out_changed {
                if wd.check() {
                    return (nodes, edges);
                }
                if clamp_node(g, &self.rp, n, tr) {
                    nodes += 1;
                    self.after_node_width_change(g, n);
                }
            }
            // An edge clamp needs r at its reader's input port to have
            // dropped, so the candidates are the fanin edges of nodes whose
            // input-port requirement changed.
            let mut ecand: Vec<EdgeId> = Vec::new();
            for &n in &in_changed {
                ecand.extend_from_slice(self.view.fanin(n));
            }
            ecand.sort_unstable();
            ecand.dedup();
            for e in ecand {
                if wd.check() {
                    return (nodes, edges);
                }
                if clamp_edge(g, &self.rp, e, tr) {
                    edges += 1;
                    self.after_edge_change(g, e);
                }
            }
        }
        (nodes, edges)
    }

    /// Incremental RP update: processes dirty nodes in descending
    /// topological position (successors settle before the nodes that read
    /// them). Returns the nodes whose output-port / input-port values
    /// changed, or `None` when the watchdog aborted the update mid-heap
    /// (the partial analysis must not feed the apply phase).
    fn rp_update(&mut self, g: &Dfg, wd: &Watchdog) -> Option<(Vec<NodeId>, Vec<NodeId>)> {
        let mut out_changed = Vec::new();
        let mut in_changed = Vec::new();
        let Engine { view, rp, rp_dirty, in_heap, pushes, visits, prof, .. } = self;
        in_heap.resize(view.num_nodes().max(in_heap.len()), false);
        let mut heap: BinaryHeap<(u32, NodeId)> = BinaryHeap::new();
        for n in rp_dirty.drain_sorted() {
            in_heap[n.index()] = true;
            heap.push((view.topo_pos(n) as u32, n));
            *pushes += 1;
        }
        while let Some((_, n)) = heap.pop() {
            if wd.check() {
                for (_, rest) in heap {
                    in_heap[rest.index()] = false;
                }
                in_heap[n.index()] = false;
                return None;
            }
            in_heap[n.index()] = false;
            *visits += 1;
            let k = kind_index(g.node(n).kind());
            let t = prof.begin(k);
            let (out, inp) = rp_node_values(g, n, &rp.in_port);
            prof.end(k, t);
            let i = n.index();
            if out != rp.out_port[i] {
                rp.out_port[i] = out;
                out_changed.push(n);
            }
            if inp != rp.in_port[i] {
                rp.in_port[i] = inp;
                in_changed.push(n);
                for &e in view.fanin(n) {
                    let src = g.edge(e).src();
                    if !in_heap[src.index()] {
                        in_heap[src.index()] = true;
                        heap.push((view.topo_pos(src) as u32, src));
                        *pushes += 1;
                    }
                }
            }
        }
        Some((out_changed, in_changed))
    }

    /// The IC edge half of a round: update the analysis, then apply the
    /// Lemma 5.7 edge prune to the candidates in ascending id order.
    /// Watchdog semantics match [`Engine::rp_round`].
    pub(crate) fn ic_edge_round(&mut self, g: &mut Dfg, tr: &mut TraceLog, wd: &Watchdog) -> usize {
        let mut changed = 0;
        if wd.check() {
            return 0;
        }
        if self.round == 1 {
            if !self.full_ic(g, wd) {
                return 0;
            }
            self.edge_cand.clear();
            for i in 0..g.num_edges() {
                if wd.check() {
                    return changed;
                }
                let e = EdgeId::from_index(i);
                if prune_edge_one(g, &self.ic, e, tr) {
                    changed += 1;
                    self.after_edge_change(g, e);
                }
            }
        } else {
            if !self.ic_update(g, wd) {
                return 0;
            }
            for e in self.edge_cand.drain_sorted() {
                if wd.check() {
                    return changed;
                }
                if prune_edge_one(g, &self.ic, e, tr) {
                    changed += 1;
                    self.after_edge_change(g, e);
                }
            }
        }
        changed
    }

    /// The IC node half of a round: update the analysis again (the full
    /// sweep also recomputes IC between the edge and node prunes), then
    /// apply the Lemma 5.6 node prune to the candidates in ascending id
    /// order, inserting extension nodes where interfaces must be kept.
    /// Watchdog semantics match [`Engine::rp_round`].
    pub(crate) fn ic_node_round(
        &mut self,
        g: &mut Dfg,
        tr: &mut TraceLog,
        wd: &Watchdog,
    ) -> (usize, usize) {
        let mut narrowed = 0;
        let mut inserted = 0;
        let mut scratch = Vec::new();
        if wd.check() {
            return (0, 0);
        }
        let candidates: Vec<NodeId> = if self.round == 1 {
            if !self.full_ic(g, wd) {
                return (0, 0);
            }
            self.node_cand.clear();
            (0..g.num_nodes()).map(NodeId::from_index).collect()
        } else {
            if !self.ic_update(g, wd) {
                return (0, 0);
            }
            self.node_cand.drain_sorted()
        };
        for n in candidates {
            if wd.check() {
                return (narrowed, inserted);
            }
            match prune_node_one(g, &self.ic, n, tr, &mut scratch) {
                NodePrune::Unchanged => {}
                NodePrune::Narrowed { ext } => {
                    narrowed += 1;
                    self.after_node_width_change(g, n);
                    if let Some(ext) = ext {
                        inserted += 1;
                        self.after_ext_insert(g, ext);
                    }
                }
            }
        }
        (narrowed, inserted)
    }

    /// Full IC sweep (round 1 only): settles every node in topological
    /// order through the same [`settle_node`] the incremental path uses.
    /// Returns `false` when the watchdog aborted the sweep (the partial
    /// analysis must not feed a prune).
    fn full_ic(&mut self, g: &Dfg, wd: &Watchdog) -> bool {
        let Engine { view, ic, overrides, ic_dirty, visits, prof, .. } = self;
        ic.node_out.clear();
        ic.node_out.resize(g.num_nodes(), Ic::trivial(0));
        ic.intrinsic.clear();
        ic.intrinsic.resize(g.num_nodes(), None);
        ic.edge_signal.clear();
        ic.edge_signal.resize(g.num_edges(), Ic::trivial(0));
        ic.operand.clear();
        ic.operand.resize(g.num_edges(), Ic::trivial(0));
        let mut done = 0usize;
        for &n in view.topo() {
            if wd.check() {
                break;
            }
            let k = kind_index(g.node(n).kind());
            let t = prof.begin(k);
            settle_node(g, n, ic, overrides);
            prof.end(k, t);
            done += 1;
        }
        *visits += done;
        if done < view.topo().len() {
            return false;
        }
        ic_dirty.clear();
        true
    }

    /// Incremental IC update: processes dirty nodes in ascending
    /// topological position (predecessors settle before the nodes that
    /// read them), feeding claim changes into the prune-candidate
    /// accumulators. Returns `false` when the watchdog aborted mid-heap.
    fn ic_update(&mut self, g: &Dfg, wd: &Watchdog) -> bool {
        let Engine {
            view,
            ic,
            overrides,
            ic_dirty,
            edge_cand,
            node_cand,
            in_heap,
            pushes,
            visits,
            prof,
            ..
        } = self;
        in_heap.resize(view.num_nodes().max(in_heap.len()), false);
        let mut heap: BinaryHeap<Reverse<(u32, NodeId)>> = BinaryHeap::new();
        for n in ic_dirty.drain_sorted() {
            in_heap[n.index()] = true;
            heap.push(Reverse((view.topo_pos(n) as u32, n)));
            *pushes += 1;
        }
        while let Some(Reverse((_, n))) = heap.pop() {
            if wd.check() {
                for Reverse((_, rest)) in heap {
                    in_heap[rest.index()] = false;
                }
                in_heap[n.index()] = false;
                return false;
            }
            in_heap[n.index()] = false;
            *visits += 1;
            let i = n.index();
            let old_out = ic.node_out[i];
            let old_intr = ic.intrinsic[i];
            let ins = g.node(n).in_edges();
            let mut old_sigs = [Ic::trivial(0); 2];
            for (k, &e) in ins.iter().enumerate() {
                old_sigs[k] = ic.edge_signal[e.index()];
            }
            let kb = kind_index(g.node(n).kind());
            let tb = prof.begin(kb);
            settle_node(g, n, ic, overrides);
            prof.end(kb, tb);
            for (k, &e) in ins.iter().enumerate() {
                if ic.edge_signal[e.index()] != old_sigs[k] {
                    edge_cand.insert(e);
                }
            }
            if ic.intrinsic[i] != old_intr {
                node_cand.insert(n);
            }
            if ic.node_out[i] != old_out {
                for &e in view.fanout(n) {
                    let dst = g.edge(e).dst();
                    if !in_heap[dst.index()] {
                        in_heap[dst.index()] = true;
                        heap.push(Reverse((view.topo_pos(dst) as u32, dst)));
                        *pushes += 1;
                    }
                }
            }
        }
        true
    }

    /// Dirty propagation after `w(n)` shrank: the node's own RP input port
    /// and IC read it, every fanout signal reads it as the source width,
    /// and the destination-width guard of the edge prune makes the fanin
    /// edges candidates again.
    fn after_node_width_change(&mut self, g: &Dfg, n: NodeId) {
        let Engine { view, rp_dirty, ic_dirty, edge_cand, .. } = self;
        rp_dirty.insert(n);
        ic_dirty.insert(n);
        for &e in view.fanout(n) {
            ic_dirty.insert(g.edge(e).dst());
        }
        for &e in view.fanin(n) {
            edge_cand.insert(e);
        }
    }

    /// Dirty propagation after `w(e)` / `t(e)` changed: the source's RP
    /// output port reads the edge width; the destination's IC settle reads
    /// both; the edge itself may fire again once claims move.
    fn after_edge_change(&mut self, g: &Dfg, e: EdgeId) {
        let edge = g.edge(e);
        self.rp_dirty.insert(edge.src());
        self.ic_dirty.insert(edge.dst());
        self.edge_cand.insert(e);
    }

    /// Dirty propagation after an extension node was spliced behind a
    /// pruned node: the new node needs both analyses (its sentinel array
    /// entries make every computed value register as changed, so it also
    /// becomes a clamp candidate), and the rewired consumers re-read their
    /// operand from the new source. The new feed edge becomes a prune
    /// candidate via `begin_round`'s new-edge scan. (The pruned node's own
    /// seeds were already planted by [`Engine::after_node_width_change`];
    /// its RP output port additionally changed shape, which `rp_dirty`
    /// already covers.)
    fn after_ext_insert(&mut self, g: &Dfg, ext: NodeId) {
        self.rp_dirty.insert(ext);
        self.ic_dirty.insert(ext);
        for &e in g.node(ext).out_edges() {
            let edge = g.edge(e);
            self.ic_dirty.insert(edge.dst());
            self.rp_dirty.insert(edge.dst());
        }
    }
}
