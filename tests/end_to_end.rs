//! End-to-end integration: every evaluation design through every flow,
//! synthesized, optimized, and proven equivalent to the source DFG.

use datapath_merge::dfg::gen::random_inputs;
use datapath_merge::prelude::*;
use datapath_merge::testcases::all_designs;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_equivalent(g: &Dfg, nl: &Netlist, seed: u64, trials: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..trials {
        let inputs = random_inputs(g, &mut rng);
        let expect = g.evaluate(&inputs).expect("design evaluates");
        let got = nl.simulate(&inputs).expect("netlist simulates");
        for (k, o) in g.outputs().iter().enumerate() {
            assert_eq!(got[k], expect[o], "output {k} mismatch");
        }
    }
}

#[test]
fn every_design_every_flow_is_equivalent() {
    let config = SynthConfig::default();
    for t in all_designs() {
        for strategy in [MergeStrategy::None, MergeStrategy::Old, MergeStrategy::New] {
            let flow = run_flow(
                &t.dfg,
                strategy,
                &config,
                &mut Recorder::disabled(),
                &mut TraceLog::disabled(),
            )
            .unwrap_or_else(|e| panic!("{} {strategy}: {e}", t.name));
            flow.netlist.check().expect("structurally sound");
            assert_equivalent(&t.dfg, &flow.netlist, 11, 25);
        }
    }
}

#[test]
fn optimization_preserves_equivalence_on_designs() {
    let config = SynthConfig::default();
    let lib = Library::synthetic_025um();
    for t in all_designs() {
        let flow = run_flow(
            &t.dfg,
            MergeStrategy::New,
            &config,
            &mut Recorder::disabled(),
            &mut TraceLog::disabled(),
        )
        .expect("synthesis");
        let mut nl = flow.netlist;
        let before = nl.longest_path(&lib).delay_ns;
        let report = optimize(
            &mut nl,
            &lib,
            &OptConfig { target_delay_ns: before * 0.8, ..OptConfig::default() },
        );
        assert!(report.end_delay_ns <= before + 1e-9, "{}", t.name);
        assert_equivalent(&t.dfg, &nl, 13, 25);
    }
}

#[test]
fn merging_monotonically_improves_designs() {
    // The paper's headline claim, end to end: new merging never does worse
    // than old, which never does worse than none — in delay, area and CPA
    // count — on all five designs.
    let config = SynthConfig::default();
    let lib = Library::synthetic_025um();
    for t in all_designs() {
        let mut delay = Vec::new();
        let mut area = Vec::new();
        let mut cpas = Vec::new();
        for strategy in [MergeStrategy::None, MergeStrategy::Old, MergeStrategy::New] {
            let flow = run_flow(
                &t.dfg,
                strategy,
                &config,
                &mut Recorder::disabled(),
                &mut TraceLog::disabled(),
            )
            .expect("synthesis");
            let mut nl = flow.netlist;
            datapath_merge::opt::fold_constants(&mut nl);
            let nl = nl.sweep();
            delay.push(nl.longest_path(&lib).delay_ns);
            area.push(nl.area(&lib));
            cpas.push(flow.clustering.len());
        }
        assert!(
            delay[2] <= delay[1] + 1e-9 && delay[1] <= delay[0] + 1e-9,
            "{}: {delay:?}",
            t.name
        );
        assert!(area[2] <= area[1] + 1e-9, "{}: {area:?}", t.name);
        assert!(cpas[2] <= cpas[1] && cpas[1] <= cpas[0], "{}: {cpas:?}", t.name);
    }
}

#[test]
fn width_transformed_designs_round_trip_through_all_adder_configs() {
    for t in all_designs().into_iter().take(3) {
        for adder in [AdderKind::Ripple, AdderKind::KoggeStone] {
            for reduction in [ReductionKind::Wallace, ReductionKind::Dadda] {
                for compression in [false, true] {
                    let config =
                        SynthConfig { adder, reduction, sign_ext_compression: compression };
                    let flow = run_flow(
                        &t.dfg,
                        MergeStrategy::New,
                        &config,
                        &mut Recorder::disabled(),
                        &mut TraceLog::disabled(),
                    )
                    .expect("synthesis");
                    assert_equivalent(&t.dfg, &flow.netlist, 17, 8);
                }
            }
        }
    }
}
