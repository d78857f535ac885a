//! Whole-DFG synthesis: every cluster becomes one CSA tree + final adder.

use std::error::Error;
use std::fmt;

use dp_analysis::{info_content, optimize_widths_with, IntrinsicOverrides, PipelineBudget};
use dp_bitvec::Signedness;
use dp_dfg::{Dfg, NodeKind, ValidateErrors};
use dp_merge::{
    cluster_leakage, cluster_none, linearize_cluster, refine_clusters_with, ClusterError,
    Clustering, LinearizeError, MergeReport,
};
use dp_metrics::{FlowMetrics, Recorder, Watchdog};
use dp_netlist::{Library, NetId, Netlist};
use dp_trace::TraceLog;

use crate::cluster::synthesize_sum;
use crate::{SignalTable, SynthConfig};

/// Error from [`synthesize_watched`] and the flows built on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthError {
    /// The input graph failed validation (every defect is carried).
    InvalidGraph(ValidateErrors),
    /// The clustering does not fit the graph.
    InvalidClustering(ClusterError),
    /// A cluster could not be linearized.
    Linearize(LinearizeError),
    /// A guarded-flow audit rejected a synthesized artifact and the
    /// degradation ladder was exhausted (see [`crate::run_flow_guarded`]).
    Audit(String),
    /// A supervision limit (per-request wall-clock deadline or memory
    /// ceiling) fired mid-flow. Unlike the pipeline's shape caps this does
    /// **not** descend the degradation ladder — retrying with a cheaper
    /// strategy only spends more of a budget that is already gone — so
    /// the guarded flow aborts with this typed error instead.
    Budget(String),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::InvalidGraph(e) => write!(f, "invalid graph: {e}"),
            SynthError::InvalidClustering(e) => write!(f, "invalid clustering: {e}"),
            SynthError::Linearize(e) => write!(f, "cannot linearize cluster: {e}"),
            SynthError::Audit(reason) => write!(f, "flow audit failed: {reason}"),
            SynthError::Budget(limit) => write!(f, "flow budget exhausted: {limit}"),
        }
    }
}

impl Error for SynthError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SynthError::InvalidGraph(e) => Some(e),
            SynthError::InvalidClustering(e) => Some(e),
            SynthError::Linearize(e) => Some(e),
            SynthError::Audit(_) | SynthError::Budget(_) => None,
        }
    }
}

impl From<ValidateErrors> for SynthError {
    fn from(e: ValidateErrors) -> Self {
        SynthError::InvalidGraph(e)
    }
}

impl From<ClusterError> for SynthError {
    fn from(e: ClusterError) -> Self {
        SynthError::InvalidClustering(e)
    }
}

impl From<LinearizeError> for SynthError {
    fn from(e: LinearizeError) -> Self {
        SynthError::Linearize(e)
    }
}

/// Aggregate carry-save statistics over all clusters of one synthesis
/// run, folded from each cluster's [`SumStats`](crate::SumStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CsaStats {
    /// Deepest carry-save reduction (in stages) across all clusters.
    pub csa_depth: usize,
    /// Final carry-propagate adders instantiated — one per non-degenerate
    /// cluster, and the paper's headline structural count.
    pub cpa_count: usize,
}

/// Synthesizes a clustered DFG into a gate-level netlist whose input and
/// output buses match the DFG's primary inputs and outputs (same names,
/// widths and order), with timing spans and aggregated [`CsaStats`]: the
/// deepest carry-save reduction across clusters and the number of final
/// carry-propagate adders instantiated.
///
/// This is [`synthesize_watched`] without supervision.
///
/// # Errors
///
/// Returns [`SynthError`] if the graph or clustering is malformed.
///
/// See the [crate documentation](crate) for an example.
pub fn synthesize_with(
    g: &Dfg,
    clustering: &Clustering,
    config: &SynthConfig,
    rec: &mut Recorder,
) -> Result<(Netlist, CsaStats), SynthError> {
    synthesize_watched(g, clustering, config, rec, &Watchdog::disabled())
}

/// [`synthesize_with`] under cooperative supervision, and the one
/// implementation behind every synthesis entry point: `wd` is checked
/// (amortized) per emitted node, so a deadline or memory-ceiling breach
/// aborts mid-emission with [`SynthError::Budget`] instead of finishing a
/// multi-second cluster sweep first. The guarded flow driver and the
/// serve layer's cached-artifact paths thread their per-request watchdog
/// through here.
///
/// # Errors
///
/// Returns [`SynthError`] if the graph or clustering is malformed, or
/// [`SynthError::Budget`] when the watchdog trips mid-emission.
pub fn synthesize_watched(
    g: &Dfg,
    clustering: &Clustering,
    config: &SynthConfig,
    rec: &mut Recorder,
    wd: &Watchdog,
) -> Result<(Netlist, CsaStats), SynthError> {
    let whole = rec.span("synthesize");
    g.validate()?;
    clustering.validate(g)?;
    let ic = rec.scope("info_content", |_| info_content(g));

    let mut nl = Netlist::new();
    let mut stats = CsaStats::default();
    // Dense node-indexed side tables: signal bits per synthesized node,
    // and (below) the cluster owning each output node. `usize::MAX` marks
    // a node that is no cluster's output.
    let mut signals = SignalTable::with_nodes(g.num_nodes());
    let mut cluster_of_output: Vec<usize> = vec![usize::MAX; g.num_nodes()];
    for (k, c) in clustering.clusters.iter().enumerate() {
        cluster_of_output[c.output.index()] = k;
    }

    // Primary inputs first, in declaration order (bus names match the DFG).
    for &i in g.inputs() {
        let name = g.node(i).name().unwrap_or("in").to_string();
        let bits = nl.input(name, g.node(i).width());
        signals.insert(i, bits);
    }

    let emit = rec.span("emit_clusters");
    let order = g.topo_order().expect("validated graph is acyclic");
    for n in order {
        if wd.check() {
            let limit = wd.trip().map_or_else(|| "supervision".to_string(), |t| t.to_string());
            return Err(SynthError::Budget(limit));
        }
        match g.node(n).kind() {
            NodeKind::Const(v) => {
                let bits: Vec<NetId> = (0..v.width())
                    .map(|k| if v.bit(k) { nl.const1() } else { nl.const0() })
                    .collect();
                signals.insert(n, bits);
            }
            NodeKind::Op(_) | NodeKind::Extension(_) => {
                let k = cluster_of_output[n.index()];
                if k != usize::MAX {
                    let sum = linearize_cluster(g, &clustering.clusters[k], &ic)?;
                    let (bits, s) = synthesize_sum(&mut nl, &sum, &signals, config);
                    stats.csa_depth = stats.csa_depth.max(s.csa_stages);
                    stats.cpa_count += usize::from(s.used_cpa);
                    signals.insert(n, bits);
                }
                // Internal members never escape; nothing to record.
            }
            // Inputs are already mapped; outputs are emitted afterwards in
            // declaration order so the netlist interface matches the DFG's.
            NodeKind::Input | NodeKind::Output => {}
        }
    }
    rec.finish(emit);
    let ports = rec.span("emit_ports");
    for &n in g.outputs() {
        let e = g.node(n).in_edges()[0];
        let edge = g.edge(e);
        let src_bits = signals.get(edge.src()).expect("output driver was synthesized").to_vec();
        let on_edge = resize_bits(&mut nl, &src_bits, edge.signedness(), edge.width());
        let final_bits = resize_bits(&mut nl, &on_edge, edge.signedness(), g.node(n).width());
        let name = g.node(n).name().unwrap_or("out").to_string();
        nl.output(name, final_bits);
    }
    rec.finish(ports);
    rec.finish(whole);
    Ok((nl, stats))
}

/// Width adaptation as wiring: truncate by dropping bits, extend by
/// repeating the sign net or wiring constant zero.
fn resize_bits(nl: &mut Netlist, bits: &[NetId], t: Signedness, width: usize) -> Vec<NetId> {
    let mut out: Vec<NetId> = bits.iter().copied().take(width).collect();
    while out.len() < width {
        let fill = match t {
            Signedness::Signed => *out.last().expect("width >= 1"),
            Signedness::Unsigned => nl.const0(),
        };
        out.push(fill);
    }
    out
}

/// Which merging strategy a flow uses — the three columns of the paper's
/// Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergeStrategy {
    /// No merging: one CPA per operator.
    None,
    /// The old leakage-of-bits merger.
    Old,
    /// The paper's new analysis-driven merger.
    New,
}

impl fmt::Display for MergeStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeStrategy::None => f.write_str("no-merge"),
            MergeStrategy::Old => f.write_str("old-merge"),
            MergeStrategy::New => f.write_str("new-merge"),
        }
    }
}

/// The outcome of [`run_flow`] and of the guarded flow
/// ([`GuardedFlow::flow`](crate::GuardedFlow::flow)).
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The synthesized netlist.
    pub netlist: Netlist,
    /// The clustering used.
    pub clustering: Clustering,
    /// The (possibly width-transformed) graph actually synthesized.
    pub graph: Dfg,
    /// The merge strategy that produced this result.
    pub strategy: MergeStrategy,
    /// The merge report, present only for [`MergeStrategy::New`] — the
    /// other strategies run no width pipeline.
    pub merge: Option<MergeReport>,
    /// Quality-of-results counters gathered during the flow. Delay and
    /// area are zero until filled in by [`FlowResult::qor`], which needs
    /// a cell library.
    pub metrics: FlowMetrics,
}

impl FlowResult {
    /// Returns the flow's [`FlowMetrics`] with the library-dependent
    /// fields (critical-path delay and area estimate) filled in from a
    /// static timing pass over the netlist.
    pub fn qor(&self, lib: &Library) -> FlowMetrics {
        let mut m = self.metrics.clone();
        m.delay_ns = self.netlist.longest_path(lib).delay_ns;
        m.area = self.netlist.area(lib);
        m
    }

    /// Audits this flow's graph, clustering and netlist with the
    /// [`dp_verify`] checker passes. Strict (fixpoint-assuming) checks are
    /// armed only for [`MergeStrategy::New`], the one strategy that runs
    /// the width-optimization pipeline. Pass the pre-flow graph as
    /// `baseline` to also arm the width-floor audit (`R002`).
    pub fn verify(&self, baseline: Option<&Dfg>) -> dp_verify::VerifyReport {
        let mut cx = dp_verify::Context::new(&self.graph)
            .clustering(&self.clustering)
            .netlist(&self.netlist)
            .optimized(matches!(self.strategy, MergeStrategy::New));
        if let Some(base) = baseline {
            cx = cx.baseline(base);
        }
        dp_verify::verify(&cx)
    }
}

/// Total operator-node plus edge width of a graph, the two QoR width
/// figures the paper's transformations shrink.
fn widths(g: &Dfg) -> (usize, usize) {
    let nodes = g.total_op_width();
    let edges = g.edge_ids().map(|e| g.edge(e).width()).sum();
    (nodes, edges)
}

/// The structural [`FlowMetrics`] of a finished flow: widths of the input
/// design `g` against the synthesized `graph`, cluster and carry-save
/// counts, and the width pipeline's counters when `merge` carries them.
pub(crate) fn flow_metrics(
    g: &Dfg,
    strategy: MergeStrategy,
    graph: &Dfg,
    clustering: &Clustering,
    netlist: &Netlist,
    csa: CsaStats,
    merge: Option<&MergeReport>,
) -> FlowMetrics {
    let (node_width_before, edge_width_before) = widths(g);
    let (node_width_after, edge_width_after) = widths(graph);
    let mut metrics = FlowMetrics {
        strategy: strategy.to_string(),
        node_width_before,
        node_width_after,
        edge_width_before,
        edge_width_after,
        clusters: clustering.len(),
        csa_depth: csa.csa_depth,
        cpa_count: csa.cpa_count,
        gates: netlist.num_gates(),
        ..FlowMetrics::default()
    };
    if let Some(r) = merge {
        metrics.transform_rounds = r.transform.rounds;
        metrics.transform_converged = r.transform.converged;
        metrics.worklist_pushes = r.transform.worklist_pushes();
        metrics.ports_visited = r.transform.ports_visited();
        metrics.ports_skipped = r.transform.ports_skipped();
        metrics.break_nodes = r.break_nodes;
    } else {
        // No width pipeline ran, so there was trivially nothing left to do.
        metrics.transform_converged = true;
    }
    metrics
}

/// Runs one end-to-end synthesis flow on a copy of `g`: clustering with
/// the chosen strategy, then CSA-tree synthesis. Timing spans go to `rec`
/// (clustering and synthesis stages nested under one `flow` root) and
/// decision provenance to `tr` (only the [`MergeStrategy::New`] flow makes
/// traced decisions — the baselines run no width pipeline and classify
/// breaks without the instrumented analysis); pass
/// [`Recorder::disabled`] and [`TraceLog::disabled`] to record nothing.
/// The [`FlowResult::metrics`] QoR counters are always populated.
///
/// # Errors
///
/// Returns [`SynthError`] if the graph is malformed.
pub fn run_flow(
    g: &Dfg,
    strategy: MergeStrategy,
    config: &SynthConfig,
    rec: &mut Recorder,
    tr: &mut TraceLog,
) -> Result<FlowResult, SynthError> {
    let whole = rec.span(format!("flow {strategy}"));
    let mut graph = g.clone();
    let cl = rec.span("clustering");
    let (clustering, merge) = match strategy {
        MergeStrategy::None => (cluster_none(&graph), None),
        MergeStrategy::Old => (cluster_leakage(&graph), None),
        MergeStrategy::New => {
            // `dp_merge::cluster_max` with spans and provenance.
            let span = rec.span("cluster_max");
            let transform = optimize_widths_with(&mut graph, &PipelineBudget::default(), rec, tr);
            let (c, mut r) = refine_clusters_with(&graph, &mut IntrinsicOverrides::new(), rec, tr);
            r.transform = transform;
            rec.finish(span);
            (c, Some(r))
        }
    };
    rec.finish(cl);
    let (netlist, csa) = synthesize_with(&graph, &clustering, config, rec)?;
    rec.finish(whole);

    let mut metrics = flow_metrics(g, strategy, &graph, &clustering, &netlist, csa, merge.as_ref());
    if strategy == MergeStrategy::New {
        // Static layer over the final graph: what the fine lattices prove
        // beyond RP/IC, as QoR counters and ABSINT-* provenance events.
        let ai = rec.span("absint");
        let fwd = dp_absint::ForwardAnalysis::compute(&graph);
        let bwd = dp_absint::DemandAnalysis::compute(&graph);
        metrics.absint_known_bits = fwd.known_bits();
        metrics.absint_dead_bits = bwd.dead_bits();
        metrics.absint_no_overflow_ops = graph.node_ids().filter(|&n| fwd.no_overflow(n)).count();
        dp_absint::emit_trace(&graph, &fwd, &bwd, tr);
        rec.finish(ai);
    }
    Ok(FlowResult { netlist, clustering, graph, strategy, merge, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdderKind, ReductionKind};
    use dp_bitvec::BitVec;
    use dp_bitvec::Signedness::*;
    use dp_dfg::gen::{random_dfg, random_inputs, GenConfig};
    use dp_dfg::OpKind;
    use rand::{rngs::StdRng, SeedableRng};

    fn assert_equivalent(g: &Dfg, nl: &Netlist, rng: &mut StdRng, trials: usize) {
        for _ in 0..trials {
            let inputs = random_inputs(g, rng);
            let expect = g.evaluate(&inputs).unwrap();
            let got = nl.simulate(&inputs).unwrap();
            for (k, &o) in g.outputs().iter().enumerate() {
                assert_eq!(
                    got[k],
                    expect[&o],
                    "output {} differs",
                    g.node(o).name().unwrap_or("?")
                );
            }
        }
    }

    #[test]
    fn all_flows_equivalent_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(0xF10);
        for case in 0..15 {
            let g = random_dfg(&mut rng, &GenConfig { num_ops: 8, ..GenConfig::default() });
            for strategy in [MergeStrategy::None, MergeStrategy::Old, MergeStrategy::New] {
                let flow = run_flow(
                    &g,
                    strategy,
                    &SynthConfig::default(),
                    &mut Recorder::disabled(),
                    &mut TraceLog::disabled(),
                )
                .unwrap_or_else(|e| panic!("case {case} {strategy}: {e}"));
                flow.netlist.check().unwrap();
                // The transformed graph is itself equivalent to g, so
                // checking against the original covers both steps.
                assert_equivalent(&g, &flow.netlist, &mut rng, 10);
            }
        }
    }

    #[test]
    fn all_adder_and_reduction_combos_equivalent() {
        let mut rng = StdRng::seed_from_u64(0xF11);
        let g = random_dfg(&mut rng, &GenConfig { num_ops: 10, ..GenConfig::default() });
        for adder in [AdderKind::Ripple, AdderKind::CarrySelect, AdderKind::KoggeStone] {
            for reduction in [ReductionKind::Wallace, ReductionKind::Dadda] {
                let config = SynthConfig { adder, reduction, ..SynthConfig::default() };
                let flow = run_flow(
                    &g,
                    MergeStrategy::New,
                    &config,
                    &mut Recorder::disabled(),
                    &mut TraceLog::disabled(),
                )
                .unwrap();
                assert_equivalent(&g, &flow.netlist, &mut rng, 10);
            }
        }
    }

    #[test]
    fn merging_reduces_delay_on_sum_of_products() {
        use dp_netlist::Library;
        let lib = Library::synthetic_025um();
        // a*b + c*d + e*f: three products into one sum.
        let mut g = Dfg::new();
        let names = ["a", "b", "c", "d", "e", "f"];
        let ins: Vec<_> = names.iter().map(|n| g.input(*n, 8)).collect();
        let m1 = g.op(OpKind::Mul, 16, &[(ins[0], Unsigned), (ins[1], Unsigned)]);
        let m2 = g.op(OpKind::Mul, 16, &[(ins[2], Unsigned), (ins[3], Unsigned)]);
        let m3 = g.op(OpKind::Mul, 16, &[(ins[4], Unsigned), (ins[5], Unsigned)]);
        let s1 = g.op(OpKind::Add, 17, &[(m1, Unsigned), (m2, Unsigned)]);
        let s2 = g.op(OpKind::Add, 18, &[(s1, Unsigned), (m3, Unsigned)]);
        g.output("r", 18, s2, Unsigned);

        let config = SynthConfig::default();
        let none = run_flow(
            &g,
            MergeStrategy::None,
            &config,
            &mut Recorder::disabled(),
            &mut TraceLog::disabled(),
        )
        .unwrap();
        let new = run_flow(
            &g,
            MergeStrategy::New,
            &config,
            &mut Recorder::disabled(),
            &mut TraceLog::disabled(),
        )
        .unwrap();
        assert_eq!(new.clustering.len(), 1);
        assert_eq!(none.clustering.len(), 5);
        let d_none = none.netlist.longest_path(&lib).delay_ns;
        let d_new = new.netlist.longest_path(&lib).delay_ns;
        assert!(d_new < d_none, "merged {d_new:.2} ns should beat unmerged {d_none:.2} ns");
        let mut rng = StdRng::seed_from_u64(1);
        assert_equivalent(&g, &new.netlist, &mut rng, 30);
        assert_equivalent(&g, &none.netlist, &mut rng, 30);
    }

    #[test]
    fn ports_match_dfg_interface() {
        let mut g = Dfg::new();
        let a = g.input("alpha", 5);
        let n = g.op(OpKind::Neg, 6, &[(a, Signed)]);
        g.output("omega", 6, n, Signed);
        let flow = run_flow(
            &g,
            MergeStrategy::New,
            &SynthConfig::default(),
            &mut Recorder::disabled(),
            &mut TraceLog::disabled(),
        )
        .unwrap();
        assert_eq!(flow.netlist.inputs().len(), 1);
        assert_eq!(flow.netlist.inputs()[0].0, "alpha");
        assert_eq!(flow.netlist.inputs()[0].1.len(), 5);
        assert_eq!(flow.netlist.outputs()[0].0, "omega");
        assert_eq!(flow.netlist.outputs()[0].1.len(), 6);
        let out = flow.netlist.simulate(&[BitVec::from_i64(5, 11)]).unwrap();
        assert_eq!(out[0].to_i64(), Some(-11));
    }

    #[test]
    fn constants_synthesize() {
        let mut g = Dfg::new();
        let a = g.input("a", 4);
        let c = g.constant(BitVec::from_u64(4, 5));
        let m = g.op(OpKind::Mul, 8, &[(a, Unsigned), (c, Unsigned)]);
        g.output("o", 8, m, Unsigned);
        let flow = run_flow(
            &g,
            MergeStrategy::New,
            &SynthConfig::default(),
            &mut Recorder::disabled(),
            &mut TraceLog::disabled(),
        )
        .unwrap();
        let out = flow.netlist.simulate(&[BitVec::from_u64(4, 7)]).unwrap();
        assert_eq!(out[0].to_u64(), Some(35));
    }

    #[test]
    fn flow_results_verify_clean() {
        let mut rng = StdRng::seed_from_u64(0xF12);
        for case in 0..5 {
            let g = random_dfg(&mut rng, &GenConfig { num_ops: 8, ..GenConfig::default() });
            for strategy in [MergeStrategy::None, MergeStrategy::Old, MergeStrategy::New] {
                let flow = run_flow(
                    &g,
                    strategy,
                    &SynthConfig::default(),
                    &mut Recorder::disabled(),
                    &mut TraceLog::disabled(),
                )
                .unwrap();
                let report = flow.verify(Some(&g));
                assert!(
                    !report.has_errors(),
                    "case {case} {strategy}:\n{}",
                    report.render(&flow.graph)
                );
            }
        }
    }
}
