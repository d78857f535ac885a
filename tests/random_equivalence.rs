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
use datapath_merge::synth::AuditOracle;
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

/// Unguarded new-merge flow on `g`, audited against the design on
/// `vectors` seeded random input vectors. Returns the cluster count, or
/// the first mismatch.
fn new_merge_matches(g: &Dfg, vectors: usize) -> Result<usize, String> {
    let flow = run_flow(
        g,
        MergeStrategy::New,
        &SynthConfig::default(),
        &mut Recorder::disabled(),
        &mut TraceLog::disabled(),
    )
    .map_err(|e| e.to_string())?;
    let oracle = AuditOracle::new(g, 0x5EED, vectors)?;
    match oracle.audit_netlist(&flow.netlist, "netlist", |i| i.to_string()) {
        Some(mismatch) => Err(mismatch),
        None => Ok(flow.clustering.len()),
    }
}

/// The generator settings of the `wide-add` benchmark workload and the
/// S10k scaling family: add-dominated, 24-bit cap, one input per ten ops.
fn wide_add_config(num_ops: usize) -> GenConfig {
    GenConfig {
        num_ops,
        num_inputs: num_ops / 10,
        max_width: 24,
        mul_weight: 0.05,
        ..GenConfig::default()
    }
}

fn generated(seed: u64, config: &GenConfig) -> Dfg {
    use rand::{rngs::StdRng, SeedableRng};
    random_dfg(&mut StdRng::seed_from_u64(seed), config)
}

/// A signed product re-read unsigned through a width-matched `+ 0` and
/// then zero-extended: no edge truncates and no extension contradicts
/// the value it extends, yet the adder reads the signed product as
/// unsigned. The reinterpretation must carry into the adder's trust, so
/// the re-extension into `o` breaks the cluster.
#[test]
fn laundered_reinterpretation_breaks_the_cluster() {
    use Signedness::{Signed, Unsigned};
    let mut g = Dfg::new();
    let a = g.input("a", 5);
    let b = g.input("b", 2);
    let y = g.input("y", 16);
    let m = g.op(OpKind::Mul, 7, &[(a, Signed), (b, Signed)]);
    let z = g.constant(BitVec::zero(1));
    let t = g.op(OpKind::Add, 7, &[(m, Unsigned), (z, Unsigned)]);
    let o = g.op(OpKind::Add, 17, &[(y, Unsigned), (t, Unsigned)]);
    g.output("o", 17, o, Unsigned);
    let clusters = new_merge_matches(&g, 256).unwrap_or_else(|e| panic!("{e}"));
    assert!(clusters >= 2, "the unsigned re-read of the product must break: {clusters}");
}

/// A generated design (110 ops) where the same laundering happens.
#[test]
fn generated_laundering_design_matches() {
    let g = generated(1110, &GenConfig { num_ops: 110, num_inputs: 11, ..wide_add_config(110) });
    new_merge_matches(&g, 64).unwrap_or_else(|e| panic!("{e}"));
}

/// A generated design (200 ops) with a cluster ending in an extension
/// node whose boundary edge is ⟨11,U⟩ under plain information content
/// but ⟨10,S⟩ under the Huffman-refined bounds the clustering was decided
/// with: synthesis must linearize with the latter.
#[test]
fn synthesis_uses_the_clustering_bounds() {
    let g = generated(13_200, &wide_add_config(200));
    new_merge_matches(&g, 64).unwrap_or_else(|e| panic!("{e}"));
}

/// Release-mode sweep of the unguarded new-merge flow over the `wide-add`
/// generator settings at sizes the proptests never reach, plus S10k.
/// About a minute in release:
/// `cargo test --release --test random_equivalence -- --ignored`.
#[test]
#[ignore = "release-mode sweep; run with --release -- --ignored"]
fn wide_add_sweep_new_merge_matches() {
    let mut failures = Vec::new();
    let sizes = |lo: usize, hi: usize| (0..=10).map(move |k| lo + (hi - lo) * k / 10);
    let small = sizes(20, 200).flat_map(|ops| (0..20).map(move |s| (ops, ops as u64 * 10 + s)));
    let large = sizes(200, 2000).flat_map(|ops| (0..6).map(move |s| (ops, ops as u64 * 66 + s)));
    for (ops, seed) in small.chain(large) {
        if let Err(e) = new_merge_matches(&generated(seed, &wide_add_config(ops)), 64) {
            failures.push(format!("{ops} ops, seed {seed}: {e}"));
        }
    }
    let s10k = datapath_merge::testcases::scaling::extended_scaling_design("S10k").unwrap();
    if let Err(e) = new_merge_matches(&s10k, 64) {
        failures.push(format!("S10k: {e}"));
    }
    assert!(
        failures.is_empty(),
        "{} mismatching design(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}
