//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * final adder architecture (ripple vs Kogge-Stone),
//! * reduction discipline (Wallace vs Dadda),
//! * sign-extension compression on/off,
//! * Huffman refinement on/off (new clustering vs a single-pass variant).
//!
//! Each variant is benchmarked by the *quality* it produces (delay and
//! area are printed once per configuration) and by its synthesis runtime.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dp_metrics::Recorder;
use dp_netlist::Library;
use dp_synth::{run_flow, AdderKind, MergeStrategy, ReductionKind, SynthConfig, TraceLog};
use dp_testcases::{designs, families};

fn quality(name: &str, config: &SynthConfig, lib: &Library) {
    let g = families::dot_product(4, 8);
    let flow = run_flow(
        &g,
        MergeStrategy::New,
        config,
        &mut Recorder::disabled(),
        &mut TraceLog::disabled(),
    )
    .expect("synthesis");
    let mut nl = flow.netlist;
    dp_opt::fold_constants(&mut nl);
    let nl = nl.sweep();
    let t = nl.longest_path(lib);
    eprintln!(
        "[ablation] {name}: delay {:.3} ns, area {:.1}, gates {}",
        t.delay_ns,
        nl.area(lib),
        nl.num_gates()
    );
}

fn bench_ablation(c: &mut Criterion) {
    let lib = Library::synthetic_025um();

    // Print the quality numbers once (criterion output is timing-only).
    for (name, config) in ablation_configs() {
        quality(name, &config, &lib);
    }

    let mut group = c.benchmark_group("ablation_synthesis");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let d4 = designs::d4();
    for (name, config) in ablation_configs() {
        group.bench_with_input(BenchmarkId::new(name, "D4"), &d4, |b, g| {
            b.iter(|| {
                run_flow(
                    g,
                    MergeStrategy::New,
                    &config,
                    &mut Recorder::disabled(),
                    &mut TraceLog::disabled(),
                )
                .expect("synthesis")
                .netlist
                .num_gates()
            })
        });
    }
    group.finish();
}

fn ablation_configs() -> Vec<(&'static str, SynthConfig)> {
    let base = SynthConfig::default();
    vec![
        ("default_ks_dadda", base),
        ("ripple_adder", SynthConfig { adder: AdderKind::Ripple, ..base }),
        ("carry_select_adder", SynthConfig { adder: AdderKind::CarrySelect, ..base }),
        ("wallace_tree", SynthConfig { reduction: ReductionKind::Wallace, ..base }),
        ("no_signext_compression", SynthConfig { sign_ext_compression: false, ..base }),
    ]
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
