//! Netlist constant-fold + sweep hot path (`dp_opt::fold_constants` +
//! `Netlist::sweep`), on synthesized scaling-family netlists.
//!
//! This pins the PR 9 overhaul: the old fold was a full-netlist fixpoint
//! (re-scanning every gate until quiescence — minutes at S1000 scale);
//! the current one is a single topological pass over a union-find of net
//! replacements. The S1000 member is the check.sh smoke gate; a
//! regression back to super-linear behavior shows up here as a
//! hundreds-of-times slowdown, far outside criterion noise.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dp_metrics::Recorder;
use dp_netlist::Netlist;
use dp_opt::fold_constants;
use dp_synth::{run_flow, MergeStrategy, SynthConfig, TraceLog};
use dp_testcases::scaling::scaling_design;

fn synthesized(ops: usize) -> Netlist {
    let g = scaling_design(ops);
    run_flow(
        &g,
        MergeStrategy::New,
        &SynthConfig::default(),
        &mut Recorder::disabled(),
        &mut TraceLog::disabled(),
    )
    .expect("synthesis")
    .netlist
}

fn bench_fold(c: &mut Criterion) {
    let mut group = c.benchmark_group("fold");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    for ops in [160usize, 400, 1000] {
        let nl = synthesized(ops);
        group.bench_with_input(BenchmarkId::new("fold_constants", ops), &nl, |b, nl| {
            b.iter(|| {
                let mut nl = nl.clone();
                fold_constants(&mut nl);
                nl.num_gates()
            })
        });
        group.bench_with_input(BenchmarkId::new("fold_sweep", ops), &nl, |b, nl| {
            b.iter(|| {
                let mut nl = nl.clone();
                fold_constants(&mut nl);
                nl.sweep().num_gates()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fold);
criterion_main!(benches);
