//! Criterion bench for Table 2: times the timing-driven optimization of
//! the old-merge and new-merge netlists per design — the quantity the
//! paper's Table 2 reports directly ("Opt time").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dp_metrics::Recorder;
use dp_netlist::Library;
use dp_opt::{optimize, OptConfig};
use dp_synth::{run_flow, MergeStrategy, SynthConfig, TraceLog};
use dp_testcases::all_designs;

fn bench_optimization(c: &mut Criterion) {
    let config = SynthConfig::default();
    let lib = Library::synthetic_025um();
    let mut group = c.benchmark_group("table2_optimization");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for t in all_designs() {
        // Fix the target halfway between the flows' post-synthesis
        // delays, as the table2 binary does.
        let new_flow = run_flow(
            &t.dfg,
            MergeStrategy::New,
            &config,
            &mut Recorder::disabled(),
            &mut TraceLog::disabled(),
        )
        .expect("synthesis");
        let old_flow = run_flow(
            &t.dfg,
            MergeStrategy::Old,
            &config,
            &mut Recorder::disabled(),
            &mut TraceLog::disabled(),
        )
        .expect("synthesis");
        let d_new = new_flow.netlist.longest_path(&lib).delay_ns;
        let d_old = old_flow.netlist.longest_path(&lib).delay_ns;
        let target = d_new + 0.5 * (d_old - d_new).max(0.0);
        let opt_config = OptConfig { target_delay_ns: target, ..OptConfig::default() };
        for strategy in [MergeStrategy::Old, MergeStrategy::New] {
            let flow = run_flow(
                &t.dfg,
                strategy,
                &config,
                &mut Recorder::disabled(),
                &mut TraceLog::disabled(),
            )
            .expect("synthesis");
            group.bench_with_input(
                BenchmarkId::new(format!("{strategy}"), t.name),
                &flow.netlist,
                |b, nl| {
                    b.iter(|| {
                        let mut nl = nl.clone();
                        optimize(&mut nl, &lib, &opt_config).end_delay_ns
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_optimization);
criterion_main!(benches);
