//! Regression tests for cooperative deadline supervision *inside* the
//! width pipeline (ISSUE 10 satellite).
//!
//! Before this fix, `PipelineBudget` caps were only observed at round
//! boundaries, so a large design could overshoot a wall-clock budget by
//! the full cost of one fixpoint round. The budget now carries an
//! optional deadline enforced by an amortized watchdog inside the sweep
//! and worklist loops; these tests pin the contract:
//!
//! * a pre-expired deadline aborts **mid-stage** — strictly less analysis
//!   work than even a single full sweep — and reports
//!   `BudgetBreach::Deadline` after exactly one (aborted) round;
//! * the aborted graph is structurally valid and functionally identical
//!   to the input (no decision from a half-computed analysis is applied);
//! * a generous deadline changes nothing versus the unbudgeted pipeline.

use std::time::{Duration, Instant};

use dp_analysis::{optimize_widths, optimize_widths_with, BudgetBreach, PipelineBudget};
use dp_dfg::gen::{random_dfg, random_inputs, GenConfig};
use dp_dfg::Dfg;
use dp_metrics::Recorder;
use dp_trace::TraceLog;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn medium_design(seed: u64) -> Dfg {
    let mut rng = StdRng::seed_from_u64(seed);
    random_dfg(&mut rng, &GenConfig { num_inputs: 6, num_ops: 200, ..GenConfig::default() })
}

#[test]
fn expired_deadline_aborts_mid_stage_cleanly() {
    for seed in [1u64, 2, 3] {
        let g0 = medium_design(seed);
        let mut g = g0.clone();
        let budget = PipelineBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..PipelineBudget::default()
        };
        let report = optimize_widths_with(
            &mut g,
            &budget,
            &mut Recorder::disabled(),
            &mut TraceLog::disabled(),
        );
        assert_eq!(
            report.budget_breach,
            Some(BudgetBreach::Deadline),
            "seed {seed}: expired deadline must report a Deadline breach"
        );
        assert!(!report.converged, "seed {seed}: an aborted run is not a fixpoint");
        assert_eq!(report.rounds, 1, "seed {seed}: the first round already observes the deadline");
        // Mid-stage, not at a stage boundary: the watchdog trips on the
        // very first poll, so the round does strictly less analysis work
        // than one full sweep (which costs 3 recomputes per node).
        let full_sweep = 3 * g0.num_nodes();
        assert!(
            report.ports_visited() < full_sweep,
            "seed {seed}: {} visits is not a mid-stage abort (full sweep = {full_sweep})",
            report.ports_visited()
        );
        // Nothing from a half-computed analysis was applied: the graph is
        // valid and computes exactly what it did before.
        g.validate().expect("aborted graph must stay structurally valid");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
        for _ in 0..8 {
            let inputs = random_inputs(&g0, &mut rng);
            assert_eq!(
                g0.evaluate(&inputs).expect("original evaluates"),
                g.evaluate(&inputs).expect("aborted graph evaluates"),
                "seed {seed}: abort changed design semantics"
            );
        }
    }
}

#[test]
fn deadline_breach_reads_as_supervision() {
    assert!(BudgetBreach::Deadline.is_supervision());
    assert!(BudgetBreach::Memory.is_supervision());
    assert!(!BudgetBreach::Rounds.is_supervision());
    assert!(!BudgetBreach::WorklistPushes.is_supervision());
    assert!(!BudgetBreach::NodeCount.is_supervision());
    assert_eq!(BudgetBreach::Deadline.to_string(), "wall-clock deadline");
    assert_eq!(BudgetBreach::Memory.to_string(), "memory ceiling");
}

#[test]
fn generous_deadline_is_a_no_op() {
    for seed in [11u64, 12] {
        let g0 = medium_design(seed);
        let mut budgeted = g0.clone();
        let mut plain = g0.clone();
        let budget = PipelineBudget {
            deadline: Some(Instant::now() + Duration::from_secs(3600)),
            ..PipelineBudget::default()
        };
        let with_deadline = optimize_widths_with(
            &mut budgeted,
            &budget,
            &mut Recorder::disabled(),
            &mut TraceLog::disabled(),
        );
        let without = optimize_widths(&mut plain);
        assert_eq!(with_deadline.budget_breach, None, "seed {seed}");
        assert!(with_deadline.converged, "seed {seed}");
        assert_eq!(with_deadline.rounds, without.rounds, "seed {seed}");
        assert_eq!(
            with_deadline.node_width_changes, without.node_width_changes,
            "seed {seed}: deadline-armed pipeline diverged from the plain one"
        );
        assert_eq!(format!("{budgeted:?}"), format!("{plain:?}"), "seed {seed}");
    }
}
