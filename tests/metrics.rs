//! QoR counters and span recording, pinned on the paper's Figure 3.

use datapath_merge::prelude::*;
use datapath_merge::testcases::figures;

/// Figure 3 by hand: operators N1/N2/N3 are 8-bit and N4 is 9-bit, so the
/// pre-transformation operator width is 33 bits; the edges are four 3-bit
/// input edges, two 8-bit, three 9-bit and the 9-bit edge into the output,
/// totalling 55 bits. The new flow merges the whole graph into one
/// cluster, paying exactly one carry-propagate adder.
#[test]
fn fig3_metrics_match_hand_computed_values() {
    let fig = figures::fig3();
    let mut rec = Recorder::new();
    let mut tr = TraceLog::disabled();
    let flow =
        run_flow(&fig.g, MergeStrategy::New, &SynthConfig::default(), &mut rec, &mut tr).unwrap();
    let m = &flow.metrics;
    assert_eq!(m.strategy, "new-merge");
    assert_eq!(m.node_width_before, 33);
    assert_eq!(m.edge_width_before, 55);
    assert!(m.node_width_after < m.node_width_before, "widths must shrink");
    assert_eq!(m.clusters, 1);
    assert_eq!(m.cpa_count, 1);
    assert!(m.csa_depth >= 1, "five addends cannot fit in two rows");
    assert!(m.transform_converged);
    assert!(m.transform_rounds >= 1);
    assert!(m.gates > 0);
    assert_eq!(m.delay_ns, 0.0, "delay needs a library, filled by qor()");

    let lib = Library::synthetic_025um();
    let q = flow.qor(&lib);
    assert!(q.delay_ns > 0.0);
    assert!(q.area > 0.0);
    // qor() only fills the library-dependent fields.
    assert_eq!(q.gates, m.gates);
    assert_eq!(q.clusters, m.clusters);
}

/// The recorder sees the whole stage hierarchy: flow root, clustering
/// (with the width pipeline nested inside), synthesis.
#[test]
fn fig3_spans_nest_by_stage() {
    let fig = figures::fig3();
    let mut rec = Recorder::new();
    let mut tr = TraceLog::disabled();
    run_flow(&fig.g, MergeStrategy::New, &SynthConfig::default(), &mut rec, &mut tr).unwrap();
    let names: Vec<(&str, usize)> = rec.records().iter().map(|r| (r.name(), r.depth())).collect();
    assert_eq!(names[0], ("flow new-merge", 0));
    assert!(names.contains(&("clustering", 1)), "{names:?}");
    assert!(names.contains(&("cluster_max", 2)), "{names:?}");
    assert!(names.contains(&("optimize_widths", 3)), "{names:?}");
    assert!(names.contains(&("synthesize", 1)), "{names:?}");
    assert!(names.contains(&("emit_clusters", 2)), "{names:?}");
}

/// Everything in `FlowMetrics` is a pure function of design and config, so
/// serializing two independent runs must give byte-identical JSON — the
/// invariant `dpmc bench` determinism rests on.
#[test]
fn flow_metrics_json_identical_across_runs() {
    let render = || {
        let fig = figures::fig3();
        let flow = run_flow(
            &fig.g,
            MergeStrategy::New,
            &SynthConfig::default(),
            &mut Recorder::disabled(),
            &mut TraceLog::disabled(),
        )
        .unwrap();
        flow.qor(&Library::synthetic_025um()).to_json().render()
    };
    let (a, b) = (render(), render());
    assert_eq!(a, b);
    assert!(!a.contains("\"us\""), "metrics must carry no timing fields: {a}");
}
