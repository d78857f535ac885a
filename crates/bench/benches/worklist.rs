//! Incremental-fixpoint microbenchmarks over the generated scaling
//! family: the worklist pipeline (`optimize_widths`) against the
//! full-sweep reference (`optimize_widths_full_with`), plus `cluster_max` for
//! the end-to-end analysis + clustering cost at each size.
//!
//! The one-shot summary printed before the timed runs reports the work
//! counters (ports visited/skipped, worklist pushes) so the skip ratio
//! the timings come from is visible in the bench log.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dp_analysis::{optimize_widths, optimize_widths_full_with};
use dp_merge::cluster_max;
use dp_metrics::Recorder;
use dp_synth::TraceLog;
use dp_testcases::{scaling_design, SCALING_OPS};

fn bench_worklist(c: &mut Criterion) {
    eprintln!("[worklist] incremental vs full-sweep work on the scaling family:");
    for &ops in &SCALING_OPS {
        let g = scaling_design(ops);
        let rep = optimize_widths(&mut g.clone());
        eprintln!(
            "  S{ops:<4} ({} nodes): rounds={} visited={} skipped={} pushes={} skip-ratio={:.2}",
            g.num_nodes(),
            rep.rounds,
            rep.ports_visited(),
            rep.ports_skipped(),
            rep.worklist_pushes(),
            rep.sweep_skip_ratio()
        );
    }

    let mut group = c.benchmark_group("worklist");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &ops in &SCALING_OPS {
        let g = scaling_design(ops);
        group.bench_with_input(BenchmarkId::new("optimize_widths", ops), &g, |b, g| {
            b.iter(|| optimize_widths(&mut g.clone()).rounds)
        });
        group.bench_with_input(BenchmarkId::new("optimize_widths_full", ops), &g, |b, g| {
            b.iter(|| {
                let (mut rec, mut tr) = (Recorder::disabled(), TraceLog::disabled());
                optimize_widths_full_with(&mut g.clone(), &mut rec, &mut tr).rounds
            })
        });
        group.bench_with_input(BenchmarkId::new("cluster_max", ops), &g, |b, g| {
            b.iter(|| cluster_max(&mut g.clone()).0.len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_worklist);
criterion_main!(benches);
