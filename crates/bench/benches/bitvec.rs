//! BitVec fast-path microbenchmarks: the tiered representation
//! (`BitVec`) against the retained limb-vector reference (`RefBitVec`),
//! per width tier and per operation, plus the word-parallel netlist
//! simulation against the scalar per-vector loop.
//!
//! Each timed routine replays the same operation over a fixed working
//! set of values so one sample amortizes the timer overhead; old and new
//! run the identical schedule, making the mean-time ratio the speedup.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dp_bitvec::{BitVec, RefBitVec};
use dp_dfg::gen::random_inputs;
use dp_metrics::Recorder;
use dp_synth::{run_flow, MergeStrategy, SynthConfig, TraceLog};
use dp_testcases::scaling_design;
use rand::{rngs::StdRng, SeedableRng};

/// One representative width per storage situation: Small interior and
/// edge, Mid interior and edge, Big.
const WIDTHS: [usize; 5] = [16, 64, 96, 128, 192];

/// How many values each timed routine walks over.
const SET: usize = 256;

fn value_set(w: usize) -> (Vec<BitVec>, Vec<RefBitVec>) {
    let new: Vec<BitVec> =
        (0..SET).map(|s| BitVec::from_fn(w, |i| (i * 31 + s * 17 + i * i) % 7 < 3)).collect();
    let old = new.iter().map(RefBitVec::from_bitvec).collect();
    (new, old)
}

fn bench_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitvec");
    group.sample_size(20);
    for &w in &WIDTHS {
        let (new, old) = value_set(w);

        group.bench_with_input(BenchmarkId::new(format!("add/w{w}"), "new"), &new, |b, v| {
            b.iter(|| {
                let mut acc = v[0].clone();
                for x in &v[1..] {
                    acc = acc.wrapping_add(black_box(x));
                }
                acc
            })
        });
        group.bench_with_input(BenchmarkId::new(format!("add/w{w}"), "old"), &old, |b, v| {
            b.iter(|| {
                let mut acc = v[0].clone();
                for x in &v[1..] {
                    acc = acc.wrapping_add(black_box(x));
                }
                acc
            })
        });

        group.bench_with_input(BenchmarkId::new(format!("mul/w{w}"), "new"), &new, |b, v| {
            b.iter(|| {
                let mut acc = v[0].clone();
                for x in &v[1..] {
                    acc = acc.wrapping_mul(black_box(x));
                }
                acc
            })
        });
        group.bench_with_input(BenchmarkId::new(format!("mul/w{w}"), "old"), &old, |b, v| {
            b.iter(|| {
                let mut acc = v[0].clone();
                for x in &v[1..] {
                    acc = acc.wrapping_mul(black_box(x));
                }
                acc
            })
        });

        group.bench_with_input(BenchmarkId::new(format!("xor/w{w}"), "new"), &new, |b, v| {
            b.iter(|| {
                let mut acc = v[0].clone();
                for x in &v[1..] {
                    acc = acc.xor(black_box(x));
                }
                acc
            })
        });
        group.bench_with_input(BenchmarkId::new(format!("xor/w{w}"), "old"), &old, |b, v| {
            b.iter(|| {
                let mut acc = v[0].clone();
                for x in &v[1..] {
                    acc = acc.xor(black_box(x));
                }
                acc
            })
        });

        group.bench_with_input(BenchmarkId::new(format!("sext2x/w{w}"), "new"), &new, |b, v| {
            b.iter(|| v.iter().map(|x| black_box(x).sext(2 * w).msb() as usize).sum::<usize>())
        });
        group.bench_with_input(BenchmarkId::new(format!("sext2x/w{w}"), "old"), &old, |b, v| {
            b.iter(|| v.iter().map(|x| black_box(x).sext(2 * w).msb() as usize).sum::<usize>())
        });

        group.bench_with_input(BenchmarkId::new(format!("msw/w{w}"), "new"), &new, |b, v| {
            b.iter(|| v.iter().map(|x| black_box(x).min_signed_width()).sum::<usize>())
        });
        group.bench_with_input(BenchmarkId::new(format!("msw/w{w}"), "old"), &old, |b, v| {
            b.iter(|| v.iter().map(|x| black_box(x).min_signed_width()).sum::<usize>())
        });

        group.bench_with_input(BenchmarkId::new(format!("wmul/w{w}"), "new"), &new, |b, v| {
            b.iter(|| {
                v.iter()
                    .map(|x| black_box(x).widening_mul_signed(&v[0]).msb() as usize)
                    .sum::<usize>()
            })
        });
        group.bench_with_input(BenchmarkId::new(format!("wmul/w{w}"), "old"), &old, |b, v| {
            b.iter(|| {
                v.iter()
                    .map(|x| black_box(x).widening_mul_signed(&v[0]).msb() as usize)
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

fn bench_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim");
    group.sample_size(10);
    for &ops in &[16usize, 64] {
        let g = scaling_design(ops);
        let flow = run_flow(
            &g,
            MergeStrategy::New,
            &SynthConfig::default(),
            &mut Recorder::disabled(),
            &mut TraceLog::disabled(),
        )
        .expect("scaling design synthesizes");
        let nl = flow.netlist;
        let mut rng = StdRng::seed_from_u64(0xBE7C);
        let lanes: Vec<_> = (0..64).map(|_| random_inputs(&g, &mut rng)).collect();

        group.bench_with_input(BenchmarkId::new(format!("S{ops}x64"), "batch"), &nl, |b, nl| {
            b.iter(|| nl.simulate_batch(&lanes).expect("simulates").len())
        });
        group.bench_with_input(BenchmarkId::new(format!("S{ops}x64"), "scalar"), &nl, |b, nl| {
            b.iter(|| lanes.iter().map(|l| nl.simulate(l).expect("simulates").len()).sum::<usize>())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ops, bench_sim);
criterion_main!(benches);
