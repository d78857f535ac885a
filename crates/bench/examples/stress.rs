//! Heavy offline stress: many random designs through every flow and the
//! optimizer, with bit-exact checks. Not part of the normal test suite
//! (takes a while); run manually with
//! `cargo run --release -p dp-bench --example stress [n]`.

use dp_dfg::gen::{random_dfg, random_inputs, GenConfig};
use dp_metrics::Recorder;
use dp_netlist::Library;
use dp_opt::{optimize, OptConfig};
use dp_synth::{run_flow, AdderKind, MergeStrategy, ReductionKind, SynthConfig, TraceLog};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn main() {
    let n: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(300);
    let lib = Library::synthetic_025um();
    let mut failures = 0u64;
    for case in 0..n {
        let mut rng = StdRng::seed_from_u64(case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let config = GenConfig {
            num_inputs: rng.gen_range(2..6),
            num_ops: rng.gen_range(3..24),
            p_signed: rng.gen_range(0.0..1.0),
            p_truncate: rng.gen_range(0.0..0.5),
            p_redundant: rng.gen_range(0.0..0.5),
            mul_weight: rng.gen_range(0.0..0.3),
            ..GenConfig::default()
        };
        let g = random_dfg(&mut rng, &config);
        let synth_config = SynthConfig {
            adder: if case % 2 == 0 { AdderKind::KoggeStone } else { AdderKind::Ripple },
            reduction: if case % 3 == 0 { ReductionKind::Wallace } else { ReductionKind::Dadda },
            sign_ext_compression: case % 5 != 0,
        };
        for strategy in [MergeStrategy::None, MergeStrategy::Old, MergeStrategy::New] {
            let flow = match run_flow(
                &g,
                strategy,
                &synth_config,
                &mut Recorder::disabled(),
                &mut TraceLog::disabled(),
            ) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("case {case} {strategy}: synthesis error {e}");
                    failures += 1;
                    continue;
                }
            };
            let mut nl = flow.netlist;
            if case % 2 == 0 {
                let target = nl.longest_path(&lib).delay_ns * 0.8;
                optimize(
                    &mut nl,
                    &lib,
                    &OptConfig {
                        target_delay_ns: target,
                        max_iterations: 30,
                        ..OptConfig::default()
                    },
                );
            }
            for _ in 0..8 {
                let inputs = random_inputs(&g, &mut rng);
                let expect = g.evaluate(&inputs).expect("evaluates");
                let got = nl.simulate(&inputs).expect("simulates");
                for (k, o) in g.outputs().iter().enumerate() {
                    if got[k] != expect[o] {
                        eprintln!("case {case} {strategy}: output {k} mismatch");
                        failures += 1;
                    }
                }
            }
        }
        if case % 50 == 49 {
            eprintln!("... {} cases done", case + 1);
        }
    }
    if failures == 0 {
        println!("stress: {n} cases x 3 flows, all bit-exact");
    } else {
        println!("stress: {failures} FAILURES out of {n} cases");
        std::process::exit(1);
    }
}
