//! Property-based integration tests: the whole pipeline on random DFGs.
//!
//! These are the strongest checks in the repository: for arbitrary
//! machine-generated designs, (1) the analysis bounds are sound, (2) the
//! transformations preserve functionality, (3) every clustering is a valid
//! partition, and (4) every synthesized netlist is bit-exact with the
//! bit-accurate evaluator.

use datapath_merge::analysis::info_content_with;
use datapath_merge::dfg::gen::{random_dfg, random_inputs, GenConfig};
use datapath_merge::prelude::*;
use proptest::prelude::*;

fn graph_strategy() -> impl Strategy<Value = (u64, usize, usize)> {
    (any::<u64>(), 2usize..5, 4usize..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pipeline_preserves_functionality((seed, num_inputs, num_ops) in graph_strategy()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_dfg(
            &mut rng,
            &GenConfig { num_inputs, num_ops, ..GenConfig::default() },
        );
        let config = SynthConfig::default();
        for strategy in [MergeStrategy::None, MergeStrategy::Old, MergeStrategy::New] {
            let flow = run_flow(&g, strategy, &config, &mut Recorder::disabled(), &mut TraceLog::disabled()).expect("synthesis succeeds");
            flow.clustering.validate(&flow.graph).expect("valid partition");
            for _ in 0..6 {
                let inputs = random_inputs(&g, &mut rng);
                let expect = g.evaluate(&inputs).expect("evaluates");
                let got = flow.netlist.simulate(&inputs).expect("simulates");
                for (k, o) in g.outputs().iter().enumerate() {
                    prop_assert_eq!(&got[k], &expect[o], "{} output {}", strategy, k);
                }
            }
        }
    }

    #[test]
    fn information_bounds_sound_after_transforms((seed, num_inputs, num_ops) in graph_strategy()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut g = random_dfg(
            &mut rng,
            &GenConfig { num_inputs, num_ops, ..GenConfig::default() },
        );
        optimize_widths(&mut g);
        let ic = info_content_with(&g, &Default::default());
        for _ in 0..6 {
            let inputs = random_inputs(&g, &mut rng);
            let eval = g.evaluate_full(&inputs).expect("evaluates");
            for n in g.node_ids() {
                let bound = ic.output(n);
                prop_assert!(
                    bound.holds_for(eval.result(n)),
                    "node {} value {} violates {}",
                    n,
                    eval.result(n),
                    bound
                );
            }
        }
    }

    #[test]
    fn optimizer_preserves_random_netlists((seed, num_inputs, num_ops) in graph_strategy()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0FF1CE);
        let g = random_dfg(
            &mut rng,
            &GenConfig { num_inputs, num_ops, ..GenConfig::default() },
        );
        let lib = Library::synthetic_025um();
        let flow = run_flow(&g, MergeStrategy::New, &SynthConfig::default(), &mut Recorder::disabled(), &mut TraceLog::disabled()).expect("synthesis");
        let mut nl = flow.netlist;
        let before = nl.longest_path(&lib).delay_ns;
        optimize(
            &mut nl,
            &lib,
            &OptConfig { target_delay_ns: before * 0.7, max_iterations: 60, ..OptConfig::default() },
        );
        for _ in 0..6 {
            let inputs = random_inputs(&g, &mut rng);
            let expect = g.evaluate(&inputs).expect("evaluates");
            let got = nl.simulate(&inputs).expect("simulates");
            for (k, o) in g.outputs().iter().enumerate() {
                prop_assert_eq!(&got[k], &expect[o]);
            }
        }
    }
}
