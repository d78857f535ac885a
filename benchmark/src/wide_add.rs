//! `wide-add`: new-merge guarded compiles of large add-dominated designs,
//! generated with the parameters of the S10k scaling family.
//!
//! Width analysis, the merge rounds, cluster emission, fold/sweep, STA
//! and the guard's audits dominate here; the optimiser and the store are
//! idle. The new-merge miscompile on designs of this size shows up as
//! guarded-flow fallbacks, which are reported, never avoided.

use std::time::Instant;

use dp_dfg::gen::{random_dfg, GenConfig};
use dp_dfg::Dfg;
use dp_synth::{MergeStrategy, SynthConfig};
use rand::{rngs::StdRng, SeedableRng};

use crate::calib::Calibration;
use crate::check::{planted_defect_caught, Reference};
use crate::flow::{check_traced, compile, compile_traced, layers_traced, set_up};
use crate::report::Outcome;
use crate::stats::{another_pass, geomean, peak_rss_mb, share, Samples};
use crate::trace::Tracer;
use crate::Opts;

/// Designs per run, their operator counts spread evenly over 4k–12k.
/// About 40 s of compiles and checks on a 2-vCPU virtual machine: one
/// pass. With about 45% of these designs falling back (see the module
/// comment), fewer designs make `compile_ms_p50` depend on the seed.
const DESIGNS: usize = 40;

/// Kernel samples after each compile (see `calib`).
const KERNELS: usize = 4;

/// The traced run takes every `TRACED_STRIDE`-th design.
const TRACED_STRIDE: usize = 8;

fn ops(k: usize) -> usize {
    4_000 + 8_000 * k / (DESIGNS - 1)
}

/// Times the set-up is repeated; its median is `setup_s`.
const SETUP_REPS: usize = 7;

/// The S10k family's generator, at `ops` operators.
fn config(ops: usize) -> GenConfig {
    GenConfig {
        num_ops: ops,
        num_inputs: ops / 10,
        max_width: 24,
        mul_weight: 0.05,
        ..GenConfig::default()
    }
}

fn generate(seed: u64, t: &mut Tracer) -> Vec<Dfg> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..DESIGNS)
        .map(|k| {
            t.design(k);
            t.span("dfg.gen", |_| random_dfg(&mut rng, &config(ops(k))))
        })
        .collect()
}

/// Per-design results of the first compile: QoR for the report, and the
/// fingerprint every repeat must reproduce.
#[derive(PartialEq)]
struct First {
    gates: usize,
    delay_ns: f64,
    area: f64,
    fallback: bool,
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut cal = Calibration::new();
    let (designs, setup_s) = set_up(SETUP_REPS, &mut cal, |t| generate(opts.seed, t));
    let config = SynthConfig::default();
    let mut out = Outcome::new();
    let mut first: Vec<Option<First>> = designs.iter().map(|_| None).collect();
    let mut compile_ms = Samples::default();
    let mut per_design_ms: Vec<Samples> = designs.iter().map(|_| Samples::default()).collect();
    let mut nodes = 0usize;
    // The check's verdict on each design's first netlist.
    let mut verdict: Vec<Option<String>> = designs.iter().map(|_| None).collect();
    let mut self_test = None;

    let budget = if opts.trace { opts.seconds / 2 } else { opts.seconds };
    let start = Instant::now();
    let mut passes = 0;
    while another_pass(start, passes, 1, budget) {
        passes += 1;
        for d in 0..designs.len() {
            let g = &designs[d];
            let t0 = Instant::now();
            let compiled = compile(g, MergeStrategy::New, &config);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let what = format!("wide-add design {d} ({} ops)", ops(d));
            let compiled = match compiled {
                Ok(c) => c,
                Err(e) => {
                    out.tally(&what, Some(e));
                    continue;
                }
            };
            cal.sample(KERNELS);
            compile_ms.push(cal.adjust(ms));
            per_design_ms[d].push(ms);
            nodes += g.num_nodes();
            let fingerprint = First {
                gates: compiled.netlist.num_gates(),
                delay_ns: compiled.delay_ns,
                area: compiled.area,
                fallback: !compiled.fallbacks.is_empty(),
            };
            let failure = match &first[d] {
                None => {
                    if fingerprint.fallback {
                        eprint!("{what} fell back:\n{}", compiled.reasons);
                    }
                    first[d] = Some(fingerprint);
                    // The first netlist of each design is simulated
                    // against the design. Built per design and dropped
                    // after the check, so the process's peak memory is
                    // the compile's, not the checker's.
                    let reference = Reference::new(g, opts.seed)?;
                    verdict[d] = reference.check(&compiled.netlist);
                    if verdict[d].is_none() && self_test.is_none() {
                        self_test = Some(planted_defect_caught(&compiled.netlist, &reference));
                    }
                    verdict[d].clone()
                }
                Some(f) if *f != fingerprint => {
                    Some("netlist or QoR differs between repeated compiles".into())
                }
                // A repeat reproduces the checked netlist, and its verdict.
                Some(_) => verdict[d].clone(),
            };
            out.tally(&what, failure);
        }
    }

    let qor: Vec<&First> = first.iter().flatten().collect();
    let delays: Vec<f64> = qor.iter().map(|f| f.delay_ns).collect();
    let areas: Vec<f64> = qor.iter().map(|f| f.area).collect();
    let fallbacks = qor.iter().filter(|f| f.fallback).count() as u64;
    out.set("setup_s", setup_s.median());
    out.set("compile_ms_p50", compile_ms.median());
    if let Some(p90) = compile_ms.p90() {
        out.set("compile_ms_p90", p90);
    }
    out.set("nodes_per_s", nodes as f64 / (compile_ms.sum() / 1e3));
    out.set("delay_ns_geomean", geomean(&delays));
    out.set("area_geomean", geomean(&areas));
    out.set("fallback_share", share(fallbacks, qor.len() as u64));
    out.set("compiles", compile_ms.len() as f64);
    out.set("calib.kernel_ms", cal.kernel_ms());

    if self_test != Some(true) {
        eprintln!("self-test: no rewired netlist was caught by the check");
        out.correct = false;
    }

    if opts.trace {
        traced(opts, &designs, &config, &per_design_ms, &mut out)?;
    }
    out.set_fail_share();
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// The traced half: passes over the same designs, each layer called on
/// its own inside a span.
fn traced(
    opts: &Opts,
    designs: &[Dfg],
    config: &SynthConfig,
    untraced: &[Samples],
    out: &mut Outcome,
) -> Result<(), String> {
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
                let (compiled, ms) = compile_traced(t, g, MergeStrategy::New, config)?;
                traced_ms[d].push(ms);
                let flow_ms = layers_traced(t, g, config);
                guard_self.push(t.last_ms("synth.guarded_flow") - flow_ms);
                let failure = check_traced(t, &compiled.netlist, &reference);
                out.tally(&format!("wide-add traced design {d}"), failure);
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
