//! The paper's specific, checkable claims, asserted end to end.

use datapath_merge::analysis::naive_skewed_bound;
use datapath_merge::prelude::*;
use datapath_merge::testcases::{families, figures};

/// Section 3 / Figure 1: a truncated-then-extended sum forces a cluster
/// boundary; maximal merging yields G_I = {N1} and G_II = {N2, N3}.
#[test]
fn claim_figure1_cluster_boundary() {
    let fig = figures::fig1();
    let mut g = fig.g.clone();
    let (clustering, _) = cluster_max(&mut g);
    assert_eq!(clustering.len(), 2);
    assert_eq!(clustering.cluster_of(fig.n1).unwrap().members, vec![fig.n1]);
    let g2 = clustering.cluster_of(fig.n3).unwrap();
    assert!(g2.contains(fig.n2) && g2.contains(fig.n3));
}

/// Section 4 / Figure 2: a 5-bit output makes the required precision of
/// every signal 5 bits, the graph fully mergeable, and the widths
/// reducible to 5.
#[test]
fn claim_figure2_required_precision() {
    let fig = figures::fig2();
    let rp = required_precision(&fig.g);
    for n in fig.g.node_ids() {
        if fig.g.node(n).kind().is_op() {
            assert_eq!(rp.output_port(n), 5, "every intermediate needs only 5 bits");
        }
    }
    let mut g = fig.g.clone();
    let (clustering, _) = cluster_max(&mut g);
    assert_eq!(clustering.len(), 1);
    assert!(g.op_nodes().all(|n| g.node(n).width() == 5));
}

/// Section 5 / Figure 3: information content proves the extension edge
/// harmless; the old width-only analysis cannot.
#[test]
fn claim_figure3_information_content() {
    let fig = figures::fig3();
    assert_eq!(cluster_leakage(&fig.g).len(), 2);
    let mut g = fig.g.clone();
    assert_eq!(cluster_max(&mut g).0.len(), 1);
}

/// Section 5.2 / Figure 4 / Theorem 5.10: Huffman rebalancing yields the
/// tightest bound over all association orders; on the figure's chain it
/// refines <7,0> to <6,0>.
#[test]
fn claim_figure4_huffman_refinement() {
    let terms = figures::fig4_terms();
    let skewed = naive_skewed_bound(&terms);
    let balanced = huffman_bound(&terms);
    assert_eq!((skewed.i, balanced.i), (7, 6));

    // Optimality against brute force on a few random term sets.
    fn best_over_all_orders(values: &mut [usize]) -> usize {
        if values.len() == 1 {
            return values[0];
        }
        let mut best = usize::MAX;
        for i in 0..values.len() {
            for j in (i + 1)..values.len() {
                let (a, b) = (values[i], values[j]);
                let mut rest: Vec<usize> = values
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != i && k != j)
                    .map(|(_, &v)| v)
                    .collect();
                rest.push(a.max(b) + 1);
                best = best.min(best_over_all_orders(&mut rest));
            }
        }
        best
    }
    for widths in [vec![3, 3, 3, 3, 3], vec![2, 5, 5, 1], vec![4, 4, 4, 4, 4, 4]] {
        let terms: Vec<Term> =
            widths.iter().map(|&w| Term::new(1, Ic::new(w, Signedness::Unsigned))).collect();
        let mut vals = widths.clone();
        assert_eq!(huffman_bound(&terms).i, best_over_all_orders(&mut vals), "{widths:?}");
    }
}

/// Section 6: the iterative algorithm converges — a second invocation on
/// the transformed graph changes nothing.
#[test]
fn claim_iteration_converges() {
    for g in [families::adder_chain(10, 6), families::dot_product(3, 6)] {
        let mut g1 = g.clone();
        let (c1, _) = cluster_max(&mut g1);
        let mut g2 = g1.clone();
        let (c2, r2) = cluster_max(&mut g2);
        assert_eq!(c1.len(), c2.len());
        assert_eq!(r2.transform.node_width_changes, 0);
        assert_eq!(r2.transform.edge_width_changes, 0);
    }
}

/// Section 1: "Operator merging can implement [a*b + c*d] using only one
/// carry-propagate adder" — verified structurally: the merged flow
/// produces exactly one cluster and beats the unmerged flow's delay.
#[test]
fn claim_sum_of_products_single_cpa() {
    let mut g = Dfg::new();
    let a = g.input("a", 8);
    let b = g.input("b", 8);
    let c = g.input("c", 8);
    let d = g.input("d", 8);
    let m1 = g.op(OpKind::Mul, 16, &[(a, Signedness::Unsigned), (b, Signedness::Unsigned)]);
    let m2 = g.op(OpKind::Mul, 16, &[(c, Signedness::Unsigned), (d, Signedness::Unsigned)]);
    let s = g.op(OpKind::Add, 17, &[(m1, Signedness::Unsigned), (m2, Signedness::Unsigned)]);
    g.output("r", 17, s, Signedness::Unsigned);

    let lib = Library::synthetic_025um();
    let config = SynthConfig::default();
    let merged = run_flow(
        &g,
        MergeStrategy::New,
        &config,
        &mut Recorder::disabled(),
        &mut TraceLog::disabled(),
    )
    .unwrap();
    let unmerged = run_flow(
        &g,
        MergeStrategy::None,
        &config,
        &mut Recorder::disabled(),
        &mut TraceLog::disabled(),
    )
    .unwrap();
    assert_eq!(merged.clustering.len(), 1);
    assert_eq!(unmerged.clustering.len(), 3);
    assert!(
        merged.netlist.longest_path(&lib).delay_ns < unmerged.netlist.longest_path(&lib).delay_ns
    );
}

/// Section 7's qualitative claims about the designs, one per row —
/// re-asserted here at integration level (unit-level versions live in
/// `dp-testcases`).
#[test]
fn claim_design_mechanisms() {
    use datapath_merge::testcases::designs;
    // D1/D2: gains require the rebalancing iteration.
    let mut d1 = designs::d1();
    let (_, report) = cluster_max(&mut d1);
    assert!(report.refinements > 0 && report.rounds >= 2);
    // D4/D5: gains come from width pruning.
    let d4 = designs::d4();
    let mut d4t = d4.clone();
    let (_, report) = cluster_max(&mut d4t);
    assert!(report.transform.node_width_changes > 5);
    assert!(d4t.total_op_width() * 3 < d4.total_op_width());
}
