//! Differential equivalence: the incremental worklist pipeline
//! ([`optimize_widths_with`]) must be observationally identical to the
//! full-sweep reference ([`optimize_widths_full_with`]) — same final
//! graph, same trace-event stream, same per-round change counters — on
//! random designs. Only the work counters (`worklist_pushes`,
//! `ports_visited`, `ports_skipped`) and wall-times may differ.

use dp_analysis::{
    optimize_widths_full_with, optimize_widths_with, PipelineBudget, TransformReport,
};
use dp_dfg::gen::{random_dfg, random_inputs, GenConfig};
use dp_dfg::Dfg;
use dp_metrics::Recorder;
use dp_trace::TraceLog;
use proptest::prelude::*;

/// Structural fingerprint of a graph: everything the pipeline can change
/// plus everything it must not.
fn fingerprint(g: &Dfg) -> Vec<String> {
    let mut out = Vec::with_capacity(g.num_nodes() + g.num_edges());
    for n in g.node_ids() {
        let node = g.node(n);
        out.push(format!("n{} {:?} w={}", n.index(), node.kind(), node.width()));
    }
    for e in g.edge_ids() {
        let edge = g.edge(e);
        out.push(format!(
            "e{} {}->{} w={} {:?}",
            e.index(),
            edge.src().index(),
            edge.dst().index(),
            edge.width(),
            edge.signedness()
        ));
    }
    out
}

/// Per-round change counters, excluding work counters and timing.
fn round_changes(r: &TransformReport) -> Vec<(usize, usize, usize, usize, usize, i64)> {
    r.history
        .iter()
        .map(|s| {
            (
                s.rp_node_changes,
                s.rp_edge_changes,
                s.ic_edge_changes,
                s.ic_node_changes,
                s.extensions_inserted,
                s.width_delta_bits,
            )
        })
        .collect()
}

fn run_both(g0: &Dfg) -> (Dfg, TransformReport, TraceLog, Dfg, TransformReport, TraceLog) {
    let mut g_inc = g0.clone();
    let mut tr_inc = TraceLog::new();
    let rep_inc = optimize_widths_with(
        &mut g_inc,
        &PipelineBudget::default(),
        &mut Recorder::disabled(),
        &mut tr_inc,
    );
    let mut g_full = g0.clone();
    let mut tr_full = TraceLog::new();
    let rep_full = optimize_widths_full_with(&mut g_full, &mut Recorder::disabled(), &mut tr_full);
    (g_inc, rep_inc, tr_inc, g_full, rep_full, tr_full)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// The incremental pipeline's final graph, trace stream, and
    /// per-round counters are bit-identical to the full sweep's.
    #[test]
    fn incremental_matches_full_sweep(seed in any::<u64>(), ops in 3usize..40) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1AC5);
        let g0 = random_dfg(&mut rng, &GenConfig { num_ops: ops, ..GenConfig::default() });
        let (g_inc, rep_inc, tr_inc, g_full, rep_full, tr_full) = run_both(&g0);

        prop_assert_eq!(fingerprint(&g_inc), fingerprint(&g_full));
        prop_assert_eq!(tr_inc.events(), tr_full.events());
        prop_assert_eq!(rep_inc.rounds, rep_full.rounds);
        prop_assert_eq!(rep_inc.converged, rep_full.converged);
        prop_assert_eq!(rep_inc.node_width_changes, rep_full.node_width_changes);
        prop_assert_eq!(rep_inc.edge_width_changes, rep_full.edge_width_changes);
        prop_assert_eq!(rep_inc.extensions_inserted, rep_full.extensions_inserted);
        prop_assert_eq!(round_changes(&rep_inc), round_changes(&rep_full));

        // Both optimized graphs still evaluate like the original.
        g_inc.validate().unwrap();
        for _ in 0..4 {
            let inputs = random_inputs(&g0, &mut rng);
            prop_assert_eq!(
                g0.evaluate(&inputs).unwrap(),
                g_inc.evaluate(&inputs).unwrap()
            );
        }
    }

    /// Once past round 1 the worklist actually skips settled work: the
    /// skip counter is positive and the full-sweep visit budget is never
    /// exceeded.
    #[test]
    fn worklist_skips_after_first_round(seed in any::<u64>(), ops in 10usize..40) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5C1F);
        let g0 = random_dfg(&mut rng, &GenConfig { num_ops: ops, ..GenConfig::default() });
        let mut g = g0.clone();
        let rep = optimize_widths_with(&mut g, &PipelineBudget::default(), &mut Recorder::disabled(), &mut TraceLog::disabled());
        for (i, s) in rep.history.iter().enumerate() {
            if i == 0 {
                // Round 1 is a full sweep by construction.
                prop_assert_eq!(s.ports_skipped, 0, "round 1 skipped work");
            } else {
                prop_assert!(s.ports_skipped > 0, "round {} skipped nothing", i + 1);
            }
            prop_assert!(s.ports_visited + s.ports_skipped >= s.ports_visited);
        }
        if rep.rounds > 1 {
            prop_assert!(rep.sweep_skip_ratio() > 0.0);
            prop_assert!(rep.ports_skipped() > 0);
        }
    }
}

/// Re-running the incremental pipeline on an already-optimized graph
/// converges in one quiescent round with zero changes and a full skip.
#[test]
fn rerun_on_fixpoint_is_one_quiet_round() {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xF18ED);
    let mut g = random_dfg(&mut rng, &GenConfig { num_ops: 25, ..GenConfig::default() });
    dp_analysis::optimize_widths(&mut g);
    let rep = dp_analysis::optimize_widths(&mut g);
    assert!(rep.converged);
    assert_eq!(rep.rounds, 1);
    assert_eq!(rep.node_width_changes + rep.edge_width_changes + rep.extensions_inserted, 0);
}
