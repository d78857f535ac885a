//! Robustness properties: the toolchain must never panic on any input it
//! can reach from the outside world, and the guarded flow must never
//! trade correctness for availability.
//!
//! Three contracts, each over machine-generated inputs:
//!
//! 1. **Parser totality** — arbitrarily mangled design text either parses
//!    or returns spanned [`ParseErrors`](datapath_merge::dsl::ParseErrors);
//!    it never panics.
//! 2. **Guarded-flow totality** — random DFGs through
//!    [`run_flow_guarded`] either produce a bit-exact netlist or a typed
//!    [`FlowError`](datapath_merge::error::FlowError) with a classified
//!    exit code; never a panic, never a wrong netlist.
//! 3. **No spurious degradation** — healthy designs under default budgets
//!    come back with no [`DegradationReport`]; starved budgets may
//!    degrade but must still be bit-exact.

use datapath_merge::dfg::gen::{random_dfg, random_inputs, GenConfig};
use datapath_merge::error::FlowError;
use datapath_merge::prelude::*;
use proptest::prelude::*;

fn graph_strategy() -> impl Strategy<Value = (u64, usize, usize)> {
    (any::<u64>(), 2usize..5, 4usize..16)
}

/// Bit-exactness of a synthesized netlist against the *original* design.
fn assert_equivalent(g: &Dfg, netlist: &Netlist, rng: &mut rand::rngs::StdRng) {
    for _ in 0..6 {
        let inputs = random_inputs(g, rng);
        let expect = g.evaluate(&inputs).expect("design evaluates");
        let got = netlist.simulate(&inputs).expect("netlist simulates");
        for (k, o) in g.outputs().iter().enumerate() {
            assert_eq!(&got[k], &expect[o], "output {k} differs");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mangled_design_text_never_panics_the_parser((seed, num_inputs, num_ops) in graph_strategy()) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9A2F);
        let g = random_dfg(&mut rng, &GenConfig { num_inputs, num_ops, ..GenConfig::default() });
        let clean = datapath_merge::dsl::to_dsl(&g);

        // Apply a few random mutations: truncation, byte splices, line
        // duplication, and garbage-token injection.
        let mut text = clean;
        for _ in 0..rng.gen_range(1..5usize) {
            match rng.gen_range(0..4u32) {
                0 => {
                    let cut = rng.gen_range(0..text.len().max(1));
                    while !text.is_char_boundary(cut.min(text.len())) {
                        text.pop();
                    }
                    text.truncate(cut.min(text.len()));
                }
                1 => {
                    let lines: Vec<&str> = text.lines().collect();
                    if !lines.is_empty() {
                        let dup = lines[rng.gen_range(0..lines.len())].to_string();
                        text.push('\n');
                        text.push_str(&dup);
                    }
                }
                2 => {
                    let garbage = ["= =", "frob", "output", "/0", ":x", "9'", "shl"];
                    text.push('\n');
                    text.push_str(garbage[rng.gen_range(0..garbage.len())]);
                }
                _ => {
                    let ch = (b'!' + rng.gen_range(0..60u8)) as char;
                    text.push(ch);
                }
            }
        }

        match datapath_merge::dsl::parse_design(&text) {
            Ok(g2) => prop_assert!(g2.num_nodes() > 0 || text.trim().is_empty()),
            Err(errs) => {
                prop_assert!(!errs.is_empty());
                for e in &errs.errors {
                    prop_assert!(e.line >= 1 && e.col >= 1, "span must be 1-based: {e}");
                }
                // The classified error is JSON-renderable with a parse exit code.
                let fe = FlowError::from(errs);
                prop_assert_eq!(fe.exit_code(), 4);
                prop_assert!(fe.to_json().get("spans").is_some());
            }
        }
    }

    #[test]
    fn guarded_flow_is_total_on_random_designs((seed, num_inputs, num_ops) in graph_strategy()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x70AD);
        let g = random_dfg(&mut rng, &GenConfig { num_inputs, num_ops, ..GenConfig::default() });
        let budget = FlowBudget::default();
        for strategy in [MergeStrategy::None, MergeStrategy::Old, MergeStrategy::New] {
            let outcome = std::panic::catch_unwind(|| {
                run_flow_guarded(&g, strategy, &SynthConfig::default(), &budget)
            });
            let result = match outcome {
                Ok(r) => r,
                Err(_) => return Err(TestCaseError::fail(format!("{strategy} panicked"))),
            };
            match result {
                Ok(guarded) => {
                    // Healthy designs must not degrade spuriously...
                    prop_assert!(
                        guarded.degradation.is_none(),
                        "{} degraded a healthy design: {}",
                        strategy,
                        guarded.degradation.as_ref().map(|d| d.render()).unwrap_or_default()
                    );
                    // ...and the netlist must be bit-exact.
                    assert_equivalent(&g, &guarded.flow.netlist, &mut rng);
                }
                Err(e) => {
                    // A refusal must classify to a flow-side exit code.
                    let fe = FlowError::from(e);
                    prop_assert!((5..=8).contains(&fe.exit_code()), "unclassified: {fe}");
                }
            }
        }
    }

    #[test]
    fn starved_budgets_degrade_but_stay_bit_exact((seed, num_inputs, num_ops) in graph_strategy()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB0D6);
        let g = random_dfg(&mut rng, &GenConfig { num_inputs, num_ops, ..GenConfig::default() });
        let mut budget = FlowBudget::default();
        budget.pipeline.max_rounds = 1;
        budget.pipeline.max_worklist_pushes = 3;
        let guarded = run_flow_guarded(&g, MergeStrategy::New, &SynthConfig::default(), &budget)
            .expect("guarded flow absorbs budget starvation");
        if let Some(report) = &guarded.degradation {
            // Degradations are on the record with their fallback tags, and
            // the metrics agree.
            prop_assert!(!report.tags().is_empty());
            prop_assert!(guarded.flow.metrics.degraded);
        }
        assert_equivalent(&g, &guarded.flow.netlist, &mut rng);
    }
}

/// `dpmc faultcheck`'s `lie-ic-bound` fault on D3 at seed 2 plants a
/// one-bit intrinsic bound on node n26. The clustering would carry that
/// lie into synthesis, so the clustering audit must reject it — before
/// any netlist is built from it.
#[test]
fn lying_ic_bound_degrades_at_the_clustering_audit() {
    use datapath_merge::fault::{FaultClass, FaultInjector};
    let g = datapath_merge::testcases::designs::d3();
    let mut injector = FaultInjector::new(FaultClass::LieIcBound, 2);
    let guarded = run_flow_guarded_with(
        &g,
        MergeStrategy::New,
        &SynthConfig::default(),
        &FlowBudget::default(),
        Some(&mut injector),
        &mut Recorder::disabled(),
        &mut TraceLog::disabled(),
    )
    .expect("a lie degrades, it is not an error");
    assert_eq!(
        injector.injected.as_deref(),
        Some("node n26 intrinsic IC forced to <1, zero-extended>")
    );
    let report = guarded.degradation.expect("the planted lie must degrade");
    let step = &report.steps[0];
    assert_eq!(step.stage, "clustering", "{}", report.render());
    assert!(step.reason.contains("C003"), "{}", step.reason);
}
