//! `mul-table2`: the paper's Table 2 protocol on D1–D5 plus a seeded draw
//! of small multiplier-heavy designs.
//!
//! Each design is compiled with old-merge and with new-merge; both
//! netlists are then optimised by `dp_opt::optimize` to the shared target
//! `new + 0.5·(old − new)`, as `dp_bench::table2` does. Partial-product
//! emission, carry-save trees and the sizing/buffering loop dominate.

use std::time::Instant;

use dp_dfg::gen::{random_dfg, GenConfig};
use dp_dfg::Dfg;
use dp_netlist::Library;
use dp_opt::{optimize, OptConfig, OptReport};
use dp_synth::{MergeStrategy, SynthConfig};
use rand::{rngs::StdRng, SeedableRng};

use crate::calib::Calibration;
use crate::check::{planted_defect_caught, Reference};
use crate::flow::{check_traced, compile, compile_traced, layers_traced, set_up, Compiled};
use crate::report::Outcome;
use crate::stats::{another_pass, geomean, peak_rss_mb, share, Samples};
use crate::trace::Tracer;
use crate::Opts;

/// Seeded designs per run, their operator counts spread evenly over
/// 20–80.
const DRAWN: usize = 240;

/// The traced run takes every `TRACED_STRIDE`-th design.
const TRACED_STRIDE: usize = 8;

/// Times the set-up is repeated; its median is `setup_s`.
const SETUP_REPS: usize = 25;

/// Where between the new-merge and old-merge start delays the shared
/// optimisation target lies (the paper's Table 2 protocol).
const INTERP: f64 = 0.5;

fn config(ops: usize) -> GenConfig {
    GenConfig {
        num_ops: ops,
        input_width: (6, 16),
        mul_weight: 0.4,
        max_width: 32,
        ..GenConfig::default()
    }
}

fn drawn_ops(k: usize) -> usize {
    20 + 60 * k / (DRAWN - 1)
}

/// D1–D5 followed by the seeded draw.
fn generate(seed: u64, t: &mut Tracer) -> Vec<Dfg> {
    let mut designs: Vec<Dfg> = dp_testcases::all_designs().into_iter().map(|tc| tc.dfg).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for k in 0..DRAWN {
        let cfg = config(drawn_ops(k));
        t.design(designs.len());
        designs.push(t.span("dfg.gen", |_| random_dfg(&mut rng, &cfg)));
    }
    designs
}

/// The optimisation target of one Table 2 row.
fn target(old: &Compiled, new: &Compiled) -> OptConfig {
    let target_delay_ns = new.delay_ns + INTERP * (old.delay_ns - new.delay_ns).max(0.0);
    OptConfig { target_delay_ns, ..OptConfig::default() }
}

/// First-pass results of one design: the final new-merge QoR and whether
/// its new-merge compile fell back.
#[derive(PartialEq)]
struct Row {
    delay_ns: f64,
    area: f64,
    fallback: bool,
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut cal = Calibration::new();
    let (designs, setup_s) = set_up(SETUP_REPS, &mut cal, |t| generate(opts.seed, t));
    let lib = Library::synthetic_025um();
    let config = SynthConfig::default();
    let mut out = Outcome::new();
    let references: Vec<Reference> =
        designs.iter().map(|g| Reference::new(g, opts.seed)).collect::<Result<_, _>>()?;
    let mut rows: Vec<Option<Row>> = designs.iter().map(|_| None).collect();
    let mut compile_ms = Samples::default();
    let mut opt_ms = Samples::default();
    let mut row_ms: Vec<Samples> = designs.iter().map(|_| Samples::default()).collect();
    let mut nodes = 0usize;

    let budget = if opts.trace { opts.seconds / 2 } else { opts.seconds };
    let start = Instant::now();
    let mut passes = 0;
    while another_pass(start, passes, 1, budget) {
        passes += 1;
        for d in 0..designs.len() {
            let (g, reference) = (&designs[d], &references[d]);
            let what = format!("mul-table2 design {d}");
            let mut compiled = Vec::new();
            let (mut compiles, mut opts_ms) = (Vec::new(), Vec::new());
            for strategy in [MergeStrategy::Old, MergeStrategy::New] {
                let t0 = Instant::now();
                let c = compile(g, strategy, &config);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                match c {
                    Ok(c) => {
                        compiles.push(ms);
                        nodes += g.num_nodes();
                        out.tally(&format!("{what} {strategy}"), reference.check(&c.netlist));
                        compiled.push(c);
                    }
                    Err(e) => out.tally(&format!("{what} {strategy}"), Some(e)),
                }
            }
            let [old, new] = compiled.as_slice() else {
                cal.sample(1);
                compile_ms.extend(compiles.iter().map(|&ms| cal.adjust(ms)));
                continue;
            };
            let target = target(old, new);
            let mut reports: Vec<OptReport> = Vec::new();
            for (strategy, c) in [("old", old), ("new", new)] {
                let mut nl = c.netlist.clone();
                let t0 = Instant::now();
                let report = optimize(&mut nl, &lib, &target);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                opts_ms.push(ms);
                out.tally(&format!("{what} optimised {strategy}"), reference.check(&nl));
                reports.push(report);
            }
            row_ms[d].push(compiles.iter().chain(&opts_ms).sum());
            cal.sample(1);
            compile_ms.extend(compiles.iter().map(|&ms| cal.adjust(ms)));
            opt_ms.extend(opts_ms.iter().map(|&ms| cal.adjust(ms)));
            let row = Row {
                delay_ns: reports[1].end_delay_ns,
                area: reports[1].end_area,
                fallback: !new.fallbacks.is_empty(),
            };
            match &rows[d] {
                None => {
                    if row.fallback {
                        eprint!("{what} fell back:\n{}", new.reasons);
                    }
                    rows[d] = Some(row);
                }
                Some(first) if *first != row => {
                    out.tally(&what, Some("QoR differs between repeated rows".into()));
                }
                Some(_) => {}
            }
        }
    }

    let rows: Vec<&Row> = rows.iter().flatten().collect();
    let delays: Vec<f64> = rows.iter().map(|r| r.delay_ns).collect();
    let areas: Vec<f64> = rows.iter().map(|r| r.area).collect();
    out.set("setup_s", setup_s.median());
    out.set("compile_ms_p50", compile_ms.median());
    if let Some(p90) = compile_ms.p90() {
        out.set("compile_ms_p90", p90);
    }
    out.set("opt_ms_p50", opt_ms.median());
    out.set("nodes_per_s", nodes as f64 / (compile_ms.sum() / 1e3));
    out.set("delay_ns_geomean", geomean(&delays));
    out.set("area_geomean", geomean(&areas));
    let fallbacks = rows.iter().filter(|r| r.fallback).count() as u64;
    out.set("fallback_share", share(fallbacks, rows.len() as u64));
    out.set("compiles", compile_ms.len() as f64);
    out.set("calib.kernel_ms", cal.kernel_ms());

    let probe = compile(&designs[0], MergeStrategy::New, &config)?;
    if !planted_defect_caught(&probe.netlist, &references[0]) {
        eprintln!("self-test: a rewired netlist passed the check");
        out.correct = false;
    }

    if opts.trace {
        traced(opts, &designs, &config, &row_ms, &mut out)?;
    }
    out.set_fail_share();
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

fn traced(
    opts: &Opts,
    designs: &[Dfg],
    config: &SynthConfig,
    untraced: &[Samples],
    out: &mut Outcome,
) -> Result<(), String> {
    let lib = Library::synthetic_025um();
    let mut t = Tracer::new();
    let regenerated = generate(opts.seed, &mut t);
    if regenerated.iter().zip(designs).any(|(a, b)| a.num_nodes() != b.num_nodes()) {
        return Err("design generation is not deterministic".into());
    }
    let mut traced_ms: Vec<Samples> = designs.iter().map(|_| Samples::default()).collect();
    let mut guard_self = Samples::default();
    let mut passes = Vec::new();
    let start = Instant::now();
    while another_pass(start, passes.len() as u32, 2, opts.seconds / 2) {
        for (d, g) in designs.iter().enumerate().step_by(TRACED_STRIDE) {
            t.design(d);
            t.span("design", |t| -> Result<(), String> {
                let reference = t.span("dfg.evaluate", |_| Reference::new(g, opts.seed))?;
                let (old, old_ms) = compile_traced(t, g, MergeStrategy::Old, config)?;
                let (new, new_ms) = compile_traced(t, g, MergeStrategy::New, config)?;
                let guarded_ms = t.last_ms("synth.guarded_flow");
                let flow_ms = layers_traced(t, g, config);
                guard_self.push(guarded_ms - flow_ms);
                let target = target(&old, &new);
                let mut row_ms = old_ms + new_ms;
                for c in [&old, &new] {
                    let mut nl = c.netlist.clone();
                    let report = t.span("opt.optimize", |_| optimize(&mut nl, &lib, &target));
                    row_ms += t.last_ms("opt.optimize");
                    t.count("opt.iterations", report.iterations as u64);
                    t.count("opt.gates_sized", report.gates_sized as u64);
                    t.count("opt.buffers_inserted", report.buffers_inserted as u64);
                    let failure = check_traced(t, &nl, &reference);
                    out.tally(&format!("mul-table2 traced design {d}"), failure);
                }
                traced_ms[d].push(row_ms);
                Ok(())
            })?;
        }
        passes.push(t.take_counters());
    }
    out.set("synth.guard_self_ms", guard_self.median());
    out.set_overhead(untraced, &traced_ms);
    out.set_layers(t, &passes);
    Ok(())
}
