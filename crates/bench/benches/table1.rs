//! Criterion bench for Table 1: times each synthesis flow on each design
//! (the table's *content* — delay/area — is printed by the `table1`
//! binary; this bench tracks the cost of producing it).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dp_metrics::Recorder;
use dp_netlist::Library;
use dp_synth::{run_flow, MergeStrategy, SynthConfig, TraceLog};
use dp_testcases::all_designs;

fn bench_flows(c: &mut Criterion) {
    let config = SynthConfig::default();
    let lib = Library::synthetic_025um();
    let mut group = c.benchmark_group("table1_synthesis");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for t in all_designs() {
        for strategy in [MergeStrategy::None, MergeStrategy::Old, MergeStrategy::New] {
            group.bench_with_input(
                BenchmarkId::new(format!("{strategy}"), t.name),
                &t.dfg,
                |b, g| {
                    b.iter(|| {
                        let flow = run_flow(
                            g,
                            strategy,
                            &config,
                            &mut Recorder::disabled(),
                            &mut TraceLog::disabled(),
                        )
                        .expect("synthesis");
                        // Folding + timing is part of the measured flow.
                        let mut nl = flow.netlist;
                        dp_opt::fold_constants(&mut nl);
                        let nl = nl.sweep();
                        nl.longest_path(&lib).delay_ns
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_flows);
criterion_main!(benches);
