//! The combined width-optimization pipeline used ahead of clustering.

use std::fmt;
use std::time::{Duration, Instant};

use dp_dfg::Dfg;
use dp_metrics::{Recorder, Watchdog, WatchdogTrip};
use dp_trace::TraceLog;

use crate::precision::rp_transform_with;
use crate::profile::KindCounts;
use crate::prune::{prune_edge_widths_with, prune_node_widths_with};
use crate::worklist::Engine;

/// Which analysis family a width change belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Required-precision clamping (Theorem 4.2).
    Rp,
    /// Information-content pruning (Lemmas 5.6/5.7), including extension
    /// node insertion.
    Ic,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Pass::Rp => "RP",
            Pass::Ic => "IC",
        })
    }
}

/// What one fixpoint round of [`optimize_widths`] changed, and how long it
/// took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Node widths shrunk this round.
    pub node_width_changes: usize,
    /// Edge widths shrunk this round.
    pub edge_width_changes: usize,
    /// Extension nodes inserted this round.
    pub extensions_inserted: usize,
    /// Node widths clamped by required precision (Thm 4.2) this round.
    pub rp_node_changes: usize,
    /// Edge widths clamped by required precision (Thm 4.2) this round.
    pub rp_edge_changes: usize,
    /// Edge widths narrowed by information content (Lemma 5.7) this round.
    pub ic_edge_changes: usize,
    /// Node widths narrowed by information content (Lemma 5.6) this round.
    pub ic_node_changes: usize,
    /// Net change in total node+edge bit-width this round; negative means
    /// the graph shrank. (A round can in principle grow the total when the
    /// extension nodes it inserts carry more interface bits than pruning
    /// removed.)
    pub width_delta_bits: i64,
    /// Worklist insertions this round (incremental pipeline only; 0 for
    /// the full-sweep reference).
    pub worklist_pushes: usize,
    /// Node recomputations performed by the three analysis updates this
    /// round. The full sweep always recomputes `3 × num_nodes`.
    pub ports_visited: usize,
    /// Node recomputations the incremental pipeline *avoided* versus a
    /// full sweep this round: `3 × num_nodes - ports_visited`. Positive
    /// after round 1 whenever part of the graph went quiescent.
    pub ports_skipped: usize,
    /// The same recomputations as `ports_visited`, bucketed by node kind
    /// (with sampled per-kind timing when the hosting recorder ran at
    /// full telemetry). All zero for the full-sweep and RP-only
    /// reference pipelines, which do not run the worklist engine.
    pub kinds: KindCounts,
    /// Wall time of the round.
    pub elapsed: Duration,
}

impl RoundStats {
    /// The pass that made the *last* width change within this round
    /// (passes run RP then IC), or `None` for a no-change round.
    pub fn last_pass(&self) -> Option<Pass> {
        if self.ic_edge_changes + self.ic_node_changes + self.extensions_inserted > 0 {
            Some(Pass::Ic)
        } else if self.rp_node_changes + self.rp_edge_changes > 0 {
            Some(Pass::Rp)
        } else {
            None
        }
    }
}

/// Which resource cap a budgeted pipeline run exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetBreach {
    /// The fixpoint round cap was reached while passes still made changes.
    Rounds,
    /// The cumulative worklist-insertion cap was exceeded.
    WorklistPushes,
    /// The graph grew past the node-count cap (extension-node insertion).
    NodeCount,
    /// The wall-clock deadline passed mid-pipeline (cooperative abort —
    /// the sweep in flight stopped without applying decisions computed
    /// from incomplete analysis state, so the graph stays sound).
    Deadline,
    /// The worker's live-heap ceiling was exceeded mid-pipeline.
    Memory,
}

impl fmt::Display for BudgetBreach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetBreach::Rounds => "fixpoint round cap",
            BudgetBreach::WorklistPushes => "worklist push cap",
            BudgetBreach::NodeCount => "node count cap",
            BudgetBreach::Deadline => "wall-clock deadline",
            BudgetBreach::Memory => "memory ceiling",
        })
    }
}

impl BudgetBreach {
    /// Whether this breach means the *request's* supervision limits fired
    /// (deadline / memory), as opposed to the pipeline's own shape caps.
    /// Supervised breaches abort the flow with a typed error instead of
    /// descending the degradation ladder — retrying a timed-out request
    /// with a cheaper strategy only spends more of a budget that is
    /// already gone.
    pub fn is_supervision(self) -> bool {
        matches!(self, BudgetBreach::Deadline | BudgetBreach::Memory)
    }
}

/// Resource caps for one [`optimize_widths_with`] run.
///
/// The default budget reproduces the classic pipeline exactly: the same
/// round cap as the RP-only and full-sweep pipelines, and no limits on
/// worklist pushes, graph growth, wall time, or heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineBudget {
    /// Maximum fixpoint rounds (the un-budgeted pipeline uses 9).
    pub max_rounds: usize,
    /// Maximum cumulative worklist insertions across all rounds.
    pub max_worklist_pushes: usize,
    /// Maximum node count the transformed graph may reach.
    pub max_nodes: usize,
    /// Wall-clock deadline checked cooperatively *inside* the sweep and
    /// worklist loops (amortized via [`dp_metrics::Watchdog`]), not just
    /// at round boundaries.
    pub deadline: Option<Instant>,
    /// Live-heap ceiling for the calling thread, in bytes, read from the
    /// installed [`dp_metrics::alloc_probe`]. Without a counting
    /// allocator the ceiling never fires.
    pub max_live_bytes: Option<u64>,
}

impl Default for PipelineBudget {
    fn default() -> Self {
        PipelineBudget {
            max_rounds: MAX_ROUNDS,
            max_worklist_pushes: usize::MAX,
            max_nodes: usize::MAX,
            deadline: None,
            max_live_bytes: None,
        }
    }
}

/// What [`optimize_widths`] changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransformReport {
    /// Node widths shrunk (required precision + information content).
    pub node_width_changes: usize,
    /// Edge widths shrunk.
    pub edge_width_changes: usize,
    /// Extension nodes inserted to preserve consumer interfaces.
    pub extensions_inserted: usize,
    /// Fixpoint rounds executed.
    pub rounds: usize,
    /// Whether the pipeline actually reached a fixpoint. `false` means the
    /// round cap was hit while passes were still making changes; the graph
    /// is functionally correct but further width reductions remain.
    pub converged: bool,
    /// Per-round change/timing breakdown, one entry per executed round
    /// (so `history.len() == rounds`).
    pub history: Vec<RoundStats>,
    /// Which resource cap stopped a budgeted run early, if any. Always
    /// `None` when the run converged.
    pub budget_breach: Option<BudgetBreach>,
}

impl TransformReport {
    /// Net bit-width change across all rounds (negative = shrank).
    pub fn width_delta_bits(&self) -> i64 {
        self.history.iter().map(|r| r.width_delta_bits).sum()
    }

    /// Total wall time across all rounds.
    pub fn elapsed(&self) -> Duration {
        self.history.iter().map(|r| r.elapsed).sum()
    }

    /// Total worklist insertions across all rounds.
    pub fn worklist_pushes(&self) -> usize {
        self.history.iter().map(|r| r.worklist_pushes).sum()
    }

    /// Total analysis node recomputations across all rounds.
    pub fn ports_visited(&self) -> usize {
        self.history.iter().map(|r| r.ports_visited).sum()
    }

    /// Total analysis node recomputations avoided versus full sweeps.
    pub fn ports_skipped(&self) -> usize {
        self.history.iter().map(|r| r.ports_skipped).sum()
    }

    /// Per-node-kind visit tallies summed across all rounds; the
    /// per-kind breakdown of [`TransformReport::ports_visited`] for runs
    /// of the incremental pipeline.
    pub fn kind_counts(&self) -> KindCounts {
        let mut total = KindCounts::default();
        for r in &self.history {
            total.merge(&r.kinds);
        }
        total
    }

    /// Fraction of full-sweep analysis work the incremental pipeline
    /// skipped: `skipped / (visited + skipped)`, or 0 when nothing ran.
    pub fn sweep_skip_ratio(&self) -> f64 {
        let total = self.ports_visited() + self.ports_skipped();
        if total == 0 {
            0.0
        } else {
            self.ports_skipped() as f64 / total as f64
        }
    }

    /// The pass (RP vs IC) that made the final width change before the
    /// pipeline converged, i.e. what the fixpoint was waiting on. `None`
    /// when no pass changed anything.
    pub fn converging_pass(&self) -> Option<Pass> {
        self.history.iter().rev().find_map(RoundStats::last_pass)
    }

    /// A one-line human-readable digest, e.g.
    /// `3 rounds (converged by IC), -312 bits in 0.42 ms (per round -280/-30/-2)`.
    pub fn summary(&self) -> String {
        let per_round: Vec<String> =
            self.history.iter().map(|r| format!("{:+}", r.width_delta_bits)).collect();
        let outcome = match (self.converged, self.converging_pass()) {
            (true, Some(p)) => format!("converged by {p}"),
            (true, None) => "converged".to_string(),
            (false, _) => match self.budget_breach {
                Some(b) => format!("stopped: {b} hit"),
                None => "round cap hit".to_string(),
            },
        };
        format!(
            "{} round(s) ({}), {:+} bits in {:.2} ms (per round {})",
            self.rounds,
            outcome,
            self.width_delta_bits(),
            self.elapsed().as_secs_f64() * 1e3,
            if per_round.is_empty() { "-".to_string() } else { per_round.join("/") },
        )
    }
}

/// Fixpoint round cap of the default [`PipelineBudget`] and of the
/// RP-only and full-sweep pipelines. The graph shrinks monotonically, so a
/// fixpoint always exists; the cap only guards against a pass that
/// oscillates due to a bug. A capped run is reported via
/// [`TransformReport::converged`] instead of being silently truncated.
const MAX_ROUNDS: usize = 9;

/// Runs the full functionally-safe width-reduction pipeline to a fixpoint:
/// required-precision clamping (Theorem 4.2), information-content edge
/// pruning (Lemma 5.7) and node pruning with extension-node insertion
/// (Lemma 5.6), repeated until nothing changes.
///
/// Each constituent pass preserves the value at every output for every
/// input assignment, so the composition does too (enforced by the property
/// tests in this crate and in the integration suite).
///
/// This is [`optimize_widths_with`] under [`PipelineBudget::default`],
/// without spans or provenance.
///
/// # Panics
///
/// Panics if the graph is cyclic or structurally invalid.
pub fn optimize_widths(g: &mut Dfg) -> TransformReport {
    optimize_widths_with(
        g,
        &PipelineBudget::default(),
        &mut Recorder::disabled(),
        &mut TraceLog::disabled(),
    )
}

/// [`optimize_widths`] under explicit resource caps, with timing spans and
/// decision provenance: one span per fixpoint round with child spans for
/// the required-precision sweep, the information-content edge sweep, and
/// node pruning; every width change the passes make is also recorded in
/// `tr` with its causal parent (see [`dp_trace`]).
///
/// With [`PipelineBudget::default`] the pipeline runs to its fixpoint. A
/// tighter budget stops it early — the graph is then functionally correct
/// but not at the width fixpoint — and records which cap fired in
/// [`TransformReport::budget_breach`]. The fault-tolerant flow driver uses
/// this to bound analysis work on adversarial designs and degrade
/// gracefully instead of looping.
///
/// This is the **incremental** pipeline: round 1 runs full sweeps, and
/// from round 2 on only ports whose analysis inputs changed are revisited
/// (see the `worklist` module docs). The graph mutations, trace
/// events, and per-round change counters are identical to
/// [`optimize_widths_full_with`] — enforced by the differential property
/// tests in `tests/incremental.rs` — while [`RoundStats::ports_skipped`]
/// records the analysis work avoided.
///
/// # Panics
///
/// Panics if the graph is cyclic or structurally invalid.
pub fn optimize_widths_with(
    g: &mut Dfg,
    budget: &PipelineBudget,
    rec: &mut Recorder,
    tr: &mut TraceLog,
) -> TransformReport {
    let pipeline = rec.span("optimize_widths");
    let mut report = TransformReport::default();
    let mut total_pushes = 0usize;
    let wd = Watchdog::new(budget.deadline, budget.max_live_bytes);
    #[cfg(debug_assertions)]
    let mut watch = verify::RoundWatch::new(g);
    let mut eng = Engine::new(g);
    eng.set_timing(rec.level() == dp_metrics::Level::Full);
    loop {
        let round = rec.span(format!("round {}", report.rounds + 1));
        let started = Instant::now();
        let bits_before = total_bits(g);
        eng.begin_round(g);
        let nodes_at_start = g.num_nodes();
        let rp_span = rec.span("rp_sweep");
        let (n_rp, e_rp) = eng.rp_round(g, tr, &wd);
        rec.finish(rp_span);
        let ic_edge_span = rec.span("ic_edge_sweep");
        let e_ic = eng.ic_edge_round(g, tr, &wd);
        rec.finish(ic_edge_span);
        let ic_node_span = rec.span("ic_node_prune");
        let (n_ic, ext) = eng.ic_node_round(g, tr, &wd);
        rec.finish(ic_node_span);
        let (pushes, visits) = eng.take_work();
        report.node_width_changes += n_rp + n_ic;
        report.edge_width_changes += e_rp + e_ic;
        report.extensions_inserted += ext;
        report.rounds += 1;
        report.history.push(RoundStats {
            node_width_changes: n_rp + n_ic,
            edge_width_changes: e_rp + e_ic,
            extensions_inserted: ext,
            rp_node_changes: n_rp,
            rp_edge_changes: e_rp,
            ic_edge_changes: e_ic,
            ic_node_changes: n_ic,
            width_delta_bits: total_bits(g) - bits_before,
            worklist_pushes: pushes,
            ports_visited: visits,
            ports_skipped: (3 * nodes_at_start).saturating_sub(visits),
            kinds: eng.take_kinds(),
            elapsed: started.elapsed(),
        });
        rec.finish(round);
        #[cfg(debug_assertions)]
        watch.check_round(g, report.rounds);
        // The supervision check must precede the convergence check: an
        // aborted round reports zero changes, which is not a fixpoint.
        if wd.poll() {
            report.budget_breach = Some(match wd.trip() {
                Some(WatchdogTrip::Memory) => BudgetBreach::Memory,
                _ => BudgetBreach::Deadline,
            });
            break;
        }
        if n_rp + e_rp + e_ic + ext + n_ic == 0 {
            report.converged = true;
            break;
        }
        total_pushes += pushes;
        if report.rounds >= budget.max_rounds {
            report.budget_breach = Some(BudgetBreach::Rounds);
            break;
        }
        if total_pushes > budget.max_worklist_pushes {
            report.budget_breach = Some(BudgetBreach::WorklistPushes);
            break;
        }
        if g.num_nodes() > budget.max_nodes {
            report.budget_breach = Some(BudgetBreach::NodeCount);
            break;
        }
    }
    rec.finish(pipeline);
    report
}

/// Runs **only** the required-precision half of the pipeline (Theorem 4.2
/// clamping) to its own fixpoint: the provably-legal fallback the
/// fault-tolerant flow driver retreats to when information-content pruning
/// fails its audit or exhausts its budget. No extension nodes are ever
/// inserted and no IC bound is consulted, so the result depends only on
/// the reverse-topological required-precision sweep.
///
/// # Panics
///
/// Panics if the graph is cyclic or structurally invalid.
pub fn optimize_widths_rp_only_with(g: &mut Dfg, tr: &mut TraceLog) -> TransformReport {
    let mut report = TransformReport::default();
    loop {
        let started = Instant::now();
        let bits_before = total_bits(g);
        let nodes_at_start = g.num_nodes();
        let (n_rp, e_rp) = rp_transform_with(g, tr);
        report.node_width_changes += n_rp;
        report.edge_width_changes += e_rp;
        report.rounds += 1;
        report.history.push(RoundStats {
            node_width_changes: n_rp,
            edge_width_changes: e_rp,
            rp_node_changes: n_rp,
            rp_edge_changes: e_rp,
            width_delta_bits: total_bits(g) - bits_before,
            ports_visited: nodes_at_start,
            elapsed: started.elapsed(),
            ..RoundStats::default()
        });
        if n_rp + e_rp == 0 {
            report.converged = true;
            break;
        }
        if report.rounds >= MAX_ROUNDS {
            report.budget_breach = Some(BudgetBreach::Rounds);
            break;
        }
    }
    report
}

/// The full-sweep reference pipeline: recomputes the whole RP and IC
/// analyses every round, exactly as the paper describes the fixpoint.
///
/// Kept as the differential baseline for the incremental
/// [`optimize_widths`] (their results, trace events, and change counters
/// must match bit-for-bit) and for the `full_vs_incremental` benchmarks.
///
/// The span skeleton matches [`optimize_widths_with`].
///
/// # Panics
///
/// Panics if the graph is cyclic or structurally invalid.
pub fn optimize_widths_full_with(
    g: &mut Dfg,
    rec: &mut Recorder,
    tr: &mut TraceLog,
) -> TransformReport {
    let pipeline = rec.span("optimize_widths");
    let mut report = TransformReport::default();
    #[cfg(debug_assertions)]
    let mut watch = verify::RoundWatch::new(g);
    loop {
        let round = rec.span(format!("round {}", report.rounds + 1));
        let started = Instant::now();
        let bits_before = total_bits(g);
        let nodes_at_start = g.num_nodes();
        let rp_span = rec.span("rp_sweep");
        let (n_rp, e_rp) = rp_transform_with(g, tr);
        rec.finish(rp_span);
        let ic_edge_span = rec.span("ic_edge_sweep");
        let e_ic = prune_edge_widths_with(g, tr);
        rec.finish(ic_edge_span);
        let ic_node_span = rec.span("ic_node_prune");
        let (n_ic, ext) = prune_node_widths_with(g, tr);
        rec.finish(ic_node_span);
        report.node_width_changes += n_rp + n_ic;
        report.edge_width_changes += e_rp + e_ic;
        report.extensions_inserted += ext;
        report.rounds += 1;
        report.history.push(RoundStats {
            node_width_changes: n_rp + n_ic,
            edge_width_changes: e_rp + e_ic,
            extensions_inserted: ext,
            rp_node_changes: n_rp,
            rp_edge_changes: e_rp,
            ic_edge_changes: e_ic,
            ic_node_changes: n_ic,
            width_delta_bits: total_bits(g) - bits_before,
            worklist_pushes: 0,
            ports_visited: 3 * nodes_at_start,
            ports_skipped: 0,
            kinds: KindCounts::default(),
            elapsed: started.elapsed(),
        });
        rec.finish(round);
        #[cfg(debug_assertions)]
        watch.check_round(g, report.rounds);
        if n_rp + e_rp + e_ic + ext + n_ic == 0 {
            report.converged = true;
            break;
        }
        if report.rounds >= MAX_ROUNDS {
            report.budget_breach = Some(BudgetBreach::Rounds);
            break;
        }
    }
    rec.finish(pipeline);
    report
}

/// Total node plus edge bit-width — the quantity the pipeline shrinks.
fn total_bits(g: &Dfg) -> i64 {
    let nodes: usize = g.node_ids().map(|n| g.node(n).width()).sum();
    let edges: usize = g.edge_ids().map(|e| g.edge(e).width()).sum();
    (nodes + edges) as i64
}

/// Per-round invariant checking in debug builds: every pass in the
/// pipeline may only *narrow* pre-existing nodes and edges, and must leave
/// the graph structurally valid. The whole watch is compiled out of
/// release builds, snapshots included.
#[cfg(debug_assertions)]
mod verify {
    use dp_dfg::Dfg;

    pub(super) struct RoundWatch {
        node_widths: Vec<usize>,
        edge_widths: Vec<usize>,
    }

    impl RoundWatch {
        pub(super) fn new(g: &Dfg) -> Self {
            RoundWatch { node_widths: snapshot_nodes(g), edge_widths: snapshot_edges(g) }
        }

        pub(super) fn check_round(&mut self, g: &Dfg, round: usize) {
            debug_assert!(
                g.validate().is_ok(),
                "width pipeline round {round} broke structural validity: {:?}",
                g.validate().unwrap_err().to_string()
            );
            let nodes = snapshot_nodes(g);
            let edges = snapshot_edges(g);
            for (i, (&before, &after)) in self.node_widths.iter().zip(&nodes).enumerate() {
                debug_assert!(
                    after <= before,
                    "round {round} widened node n{i} from {before} to {after}"
                );
            }
            for (i, (&before, &after)) in self.edge_widths.iter().zip(&edges).enumerate() {
                debug_assert!(
                    after <= before,
                    "round {round} widened edge e{i} from {before} to {after}"
                );
            }
            self.node_widths = nodes;
            self.edge_widths = edges;
        }
    }

    fn snapshot_nodes(g: &Dfg) -> Vec<usize> {
        g.node_ids().map(|n| g.node(n).width()).collect()
    }

    fn snapshot_edges(g: &Dfg) -> Vec<usize> {
        g.edge_ids().map(|e| g.edge(e).width()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_bitvec::Signedness::*;
    use dp_dfg::gen::{random_dfg, random_inputs, GenConfig};
    use dp_dfg::OpKind;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn pipeline_reaches_fixpoint_and_preserves_function() {
        let mut rng = StdRng::seed_from_u64(0xF1F0);
        for case in 0..40 {
            let g0 = random_dfg(&mut rng, &GenConfig::default());
            let mut g1 = g0.clone();
            let report = optimize_widths(&mut g1);
            assert!(report.rounds <= 8, "case {case}: runaway pipeline");
            assert!(report.converged, "case {case}: round cap hit before fixpoint");
            g1.validate().unwrap();
            // Running again changes nothing.
            let again = optimize_widths(&mut g1.clone());
            assert_eq!(again.node_width_changes, 0, "case {case}");
            assert_eq!(again.edge_width_changes, 0, "case {case}");
            assert!(again.converged, "case {case}");
            assert_eq!(again.rounds, 1, "case {case}: fixpoint re-run is one round");
            for _ in 0..15 {
                let inputs = random_inputs(&g0, &mut rng);
                assert_eq!(
                    g0.evaluate(&inputs).unwrap(),
                    g1.evaluate(&inputs).unwrap(),
                    "case {case}"
                );
            }
        }
    }

    #[test]
    fn history_matches_totals_and_spans_nest() {
        let mut rng = StdRng::seed_from_u64(0xF1F1);
        for case in 0..10 {
            let mut g = random_dfg(&mut rng, &GenConfig::default());
            let mut rec = dp_metrics::Recorder::new();
            let report = optimize_widths_with(
                &mut g,
                &PipelineBudget::default(),
                &mut rec,
                &mut TraceLog::disabled(),
            );
            assert_eq!(report.history.len(), report.rounds, "case {case}");
            assert_eq!(
                report.history.iter().map(|r| r.node_width_changes).sum::<usize>(),
                report.node_width_changes,
                "case {case}"
            );
            assert_eq!(
                report.history.iter().map(|r| r.edge_width_changes).sum::<usize>(),
                report.edge_width_changes,
                "case {case}"
            );
            assert!(report.width_delta_bits() <= 0, "case {case}: pipeline never grows the graph");
            // Span skeleton: one root, `rounds` children, three passes each.
            let spans = rec.records();
            assert_eq!(spans[0].name(), "optimize_widths");
            let rounds = spans.iter().filter(|s| s.depth() == 1).count();
            assert_eq!(rounds, report.rounds, "case {case}");
            assert_eq!(
                spans.iter().filter(|s| s.depth() == 2).count(),
                3 * report.rounds,
                "case {case}"
            );
        }
    }

    #[test]
    fn pipeline_shrinks_total_width_on_redundant_designs() {
        // The D4/D5 scenario: everything declared at 32 bits over small data.
        let mut g = Dfg::new();
        let a = g.input("a", 4);
        let b = g.input("b", 4);
        let c = g.input("c", 4);
        let s1 = g.op(OpKind::Add, 32, &[(a, Signed), (b, Signed)]);
        let s2 = g.op(OpKind::Add, 32, &[(s1, Signed), (c, Signed)]);
        g.output("o", 32, s2, Signed);
        let before = g.total_op_width();
        let report = optimize_widths(&mut g);
        let after = g.total_op_width();
        assert!(after <= 11, "total op width {after} (was {before})");
        assert!(report.node_width_changes >= 2);
    }
}
