//! End-to-end corruption detection: each documented mutation of a
//! known-good optimized graph must be caught with its documented code.
//!
//! | mutation                        | code |
//! |---------------------------------|------|
//! | shrink a node below its RP      | R001 |
//! | bypass an extension node        | I002 |
//! | merge across a break node       | C003 |

use dp_analysis::optimize_widths;
use dp_bitvec::Signedness::{Signed, Unsigned};
use dp_dfg::{Dfg, NodeKind, OpKind};
use dp_merge::{cluster_max, cluster_none, Cluster, Clustering};
use dp_verify::{Code, Context, Severity, Verifier};

/// The paper's Figure 3 adder tree (designs/fig3.dp).
fn figure3() -> Dfg {
    let mut g = Dfg::new();
    let a = g.input("A", 3);
    let b = g.input("B", 3);
    let c = g.input("C", 3);
    let d = g.input("D", 3);
    let e = g.input("E", 9);
    let n1 = g.op(OpKind::Add, 8, &[(a, Signed), (b, Signed)]);
    let n2 = g.op(OpKind::Add, 8, &[(c, Signed), (d, Signed)]);
    let n3 = g.op(OpKind::Add, 8, &[(n1, Signed), (n2, Signed)]);
    let n4 = g.op_with_edges(OpKind::Add, 9, &[(n3, 9, Signed), (e, 9, Signed)]);
    g.output("R", 10, n4, Signed);
    g
}

#[test]
fn full_flow_on_figure3_is_clean() {
    let base = figure3();
    let mut g = base.clone();
    let (clustering, report) = cluster_max(&mut g);
    let (nl, _) = dp_synth::synthesize_with(
        &g,
        &clustering,
        &dp_synth::SynthConfig::default(),
        &mut dp_metrics::Recorder::disabled(),
    )
    .expect("synthesis succeeds");
    let nl = nl.sweep();
    let cx = Context::new(&g)
        .baseline(&base)
        .clustering(&clustering)
        .netlist(&nl)
        .transform(&report.transform)
        .optimized(true);
    let report = Verifier::default().run(&cx);
    assert_eq!(report.count(Severity::Error), 0, "{}", report.render(&g));
    assert_eq!(report.count(Severity::Warn), 0, "{}", report.render(&g));
}

#[test]
fn mutation_shrink_below_rp_is_caught_as_r001() {
    let base = figure3();
    let mut g = base.clone();
    optimize_widths(&mut g);
    let victim = g.op_nodes().max_by_key(|n| n.index()).unwrap();
    g.set_node_width(victim, 2);
    let report = Verifier::default().run(&Context::new(&g).baseline(&base).optimized(true));
    assert!(report.has_code(Code::R001), "{}", report.render(&g));
    assert!(report.has_errors());
}

#[test]
fn mutation_dropped_extension_node_is_caught_as_i002() {
    // A signed claim read through an unsigned edge forces a Definition 5.5
    // extension node during optimization.
    let mut g = Dfg::new();
    let a = g.input("a", 3);
    let b = g.input("b", 3);
    let e = g.input("e", 12);
    let s = g.op(OpKind::Add, 12, &[(a, Signed), (b, Signed)]);
    let t = g.op_with_edges(OpKind::Add, 13, &[(s, 12, Unsigned), (e, 12, Signed)]);
    g.output("o", 13, t, Signed);
    optimize_widths(&mut g);

    let exts: Vec<_> =
        g.node_ids().filter(|&n| matches!(g.node(n).kind(), NodeKind::Extension(_))).collect();
    assert!(!exts.is_empty(), "optimization must insert an extension node");
    for ext in exts {
        let src = g.edge(g.node(ext).in_edges()[0]).src();
        for out_edge in g.node(ext).out_edges().to_vec() {
            g.rewire_edge_src(out_edge, src);
        }
    }
    let report = Verifier::default().run(&Context::new(&g).optimized(true));
    assert!(report.has_code(Code::I002), "{}", report.render(&g));
    assert!(report.has_errors());
}

#[test]
fn mutation_merge_across_break_node_is_caught_as_c003() {
    // Figure 1's scenario: the truncating adder must terminate a cluster.
    let mut g = Dfg::new();
    let a = g.input("a", 8);
    let b = g.input("b", 8);
    let c = g.input("c", 9);
    let n1 = g.op(OpKind::Add, 7, &[(a, Signed), (b, Signed)]);
    let n3 = g.op_with_edges(OpKind::Add, 10, &[(n1, 9, Signed), (c, 9, Signed)]);
    g.output("r", 10, n3, Signed);

    let (genuine, _) = cluster_max(&mut g);
    assert!(genuine.clusters.len() >= 2, "the break must split the clusters");

    // Forge one merged cluster spanning the break node.
    let mut members: Vec<_> =
        genuine.clusters.iter().flat_map(|cl| cl.members.iter().copied()).collect();
    members.sort();
    let output = *members
        .iter()
        .find(|&&m| {
            g.node(m).out_edges().iter().all(|&e| members.binary_search(&g.edge(e).dst()).is_err())
        })
        .expect("a member with purely external fanout");
    let mut input_edges: Vec<_> = g
        .edge_ids()
        .filter(|&e| {
            members.binary_search(&g.edge(e).dst()).is_ok()
                && members.binary_search(&g.edge(e).src()).is_err()
        })
        .collect();
    input_edges.sort();
    let forged = Clustering {
        clusters: vec![Cluster { members, output, input_edges }],
        break_nodes: vec![output],
        overrides: genuine.overrides.clone(),
    };
    forged.validate(&g).expect("forged clustering is structurally well-formed");

    let report = Verifier::default().run(&Context::new(&g).clustering(&forged).optimized(true));
    assert!(report.has_code(Code::C003), "{}", report.render(&g));
    assert!(report.has_errors());
}

#[test]
fn singleton_clustering_stays_clean_after_optimization() {
    let mut g = figure3();
    optimize_widths(&mut g);
    let clustering = cluster_none(&g);
    let report = Verifier::default().run(&Context::new(&g).clustering(&clustering).optimized(true));
    assert!(!report.has_errors(), "{}", report.render(&g));
}
