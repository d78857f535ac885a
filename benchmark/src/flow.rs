//! The operations every workload times: one design's guarded compile, as
//! `dpmc <design>` runs it, and its layer-by-layer decomposition for the
//! traced run.

use dp_absint::{DemandAnalysis, ForwardAnalysis};
use dp_analysis::{info_content_with, optimize_widths, IntrinsicOverrides};
use dp_dfg::Dfg;
use dp_merge::{find_breaks_new, refine_clusters_with};
use dp_metrics::Recorder;
use dp_netlist::{Library, Netlist};
use dp_synth::{run_flow_guarded, synthesize_with, FlowBudget, MergeStrategy, SynthConfig};
use dp_trace::TraceLog;
use dp_verify::{
    AbsintChecks, ClusterLegality, Context, IcSoundness, NetlistChecks, Pass, RpSoundness,
    StructuralValidity, Verifier,
};

use crate::calib::Calibration;
use crate::check::Reference;
use crate::stats::Samples;
use crate::trace::Tracer;

/// Runs the set-up `reps` times — generating the design set and rendering
/// each design as the DSL text a user hands to `dpmc` — and returns the
/// designs with the adjusted time of each repetition.
pub fn set_up(
    reps: usize,
    cal: &mut Calibration,
    generate: impl Fn(&mut Tracer) -> Vec<Dfg>,
) -> (Vec<Dfg>, Samples) {
    let mut secs = Samples::default();
    let mut designs = Vec::new();
    for _ in 0..reps {
        let start = std::time::Instant::now();
        designs = generate(&mut Tracer::new());
        let text: usize = designs.iter().map(|g| datapath_merge::dsl::to_dsl(g).len()).sum();
        std::hint::black_box(text);
        let s = start.elapsed().as_secs_f64();
        cal.sample(SETUP_KERNELS);
        secs.push(cal.adjust(s));
    }
    (designs, secs)
}

/// Kernel samples after each set-up repetition.
pub const SETUP_KERNELS: usize = 3;

/// A final netlist and its quality of results.
pub struct Compiled {
    pub netlist: Netlist,
    pub delay_ns: f64,
    pub area: f64,
    /// `FALLBACK-*` tags of the guarded flow's degradation steps.
    pub fallbacks: Vec<String>,
    /// The degradation report, one `stage: reason -> TAG` line per step.
    pub reasons: String,
}

/// One guarded compile: `run_flow_guarded` → `fold_constants` → `sweep`
/// → STA (and area).
pub fn compile(g: &Dfg, strategy: MergeStrategy, config: &SynthConfig) -> Result<Compiled, String> {
    let lib = Library::synthetic_025um();
    let guarded = run_flow_guarded(g, strategy, config, &FlowBudget::default())
        .map_err(|e| format!("flow error: {e}"))?;
    let mut netlist = guarded.flow.netlist;
    dp_opt::fold_constants(&mut netlist);
    let netlist = netlist.sweep();
    let delay_ns = netlist.longest_path(&lib).delay_ns;
    let area = netlist.area(&lib);
    let (fallbacks, reasons) =
        guarded.degradation.map(|d| (d.tags(), d.render())).unwrap_or_default();
    Ok(Compiled { netlist, delay_ns, area, fallbacks, reasons })
}

/// [`compile`] with a span around each public call, plus the work
/// counters those calls expose. Returns the compile's wall time (ms) with
/// the result.
pub fn compile_traced(
    t: &mut Tracer,
    g: &Dfg,
    strategy: MergeStrategy,
    config: &SynthConfig,
) -> Result<(Compiled, f64), String> {
    let lib = Library::synthetic_025um();
    let start = std::time::Instant::now();
    let guarded = t
        .span("synth.guarded_flow", |_| {
            run_flow_guarded(g, strategy, config, &FlowBudget::default())
        })
        .map_err(|e| format!("flow error: {e}"))?;
    let mut netlist = guarded.flow.netlist;
    let before_fold = live_gates(&netlist);
    t.span("opt.fold", |_| dp_opt::fold_constants(&mut netlist));
    t.count("opt.gates_folded", before_fold.saturating_sub(live_gates(&netlist)));
    let gates = netlist.num_gates() as u64;
    let netlist = t.span("netlist.sweep", |_| netlist.sweep());
    t.count("netlist.gates_swept", gates - netlist.num_gates() as u64);
    let delay_ns = t.span("netlist.sta", |_| netlist.longest_path(&lib).delay_ns);
    let area = netlist.area(&lib);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let (fallbacks, reasons) =
        guarded.degradation.map(|d| (d.tags(), d.render())).unwrap_or_default();
    t.count("synth.fallbacks", fallbacks.len() as u64);
    Ok((Compiled { netlist, delay_ns, area, fallbacks, reasons }, wall_ms))
}

/// Gates whose output is read by another gate or an output port.
fn live_gates(nl: &Netlist) -> u64 {
    let outputs: std::collections::HashSet<_> =
        nl.outputs().iter().flat_map(|(_, bits)| bits.iter().copied()).collect();
    nl.gate_ids()
        .filter(|&gid| {
            let out = nl.gate_output(gid);
            nl.fanout_of(out) > 0 || outputs.contains(&out)
        })
        .count() as u64
}

/// The new-merge flow's layers called one by one, in the guarded flow's
/// order: `optimize_widths` → `refine_clusters_with` (plus one
/// `info_content_with` and one `find_breaks_new` call, the per-round
/// work) → forward and demand abstract interpretation → `synthesize_with`
/// → each `dp_verify` pass with a one-pass `Verifier`. Returns the
/// milliseconds spent in the layers the guarded flow itself runs
/// (widths, refinement, synthesis), so the caller can derive the guard's
/// own share.
pub fn layers_traced(t: &mut Tracer, g: &Dfg, config: &SynthConfig) -> f64 {
    let mut graph = g.clone();
    let before = graph.total_op_width() as u64;
    let transform = t.span("analysis.optimize_widths", |_| optimize_widths(&mut graph));
    t.count("analysis.rounds", transform.rounds as u64);
    t.count("analysis.worklist_pushes", transform.worklist_pushes() as u64);
    t.count("analysis.ports_visited", transform.ports_visited() as u64);
    t.count("analysis.bits_removed", before.saturating_sub(graph.total_op_width() as u64));
    let mut overrides = IntrinsicOverrides::new();
    let (clustering, report) = t.span("merge.refine", |_| {
        refine_clusters_with(
            &graph,
            &mut overrides,
            &mut Recorder::disabled(),
            &mut TraceLog::disabled(),
        )
    });
    t.count("merge.rounds", report.rounds as u64);
    t.count("merge.clusters", clustering.len() as u64);
    t.count("merge.break_nodes", report.break_nodes as u64);
    let ic = t.span("merge.info_content", |_| info_content_with(&graph, &overrides));
    let breaks = t.span("merge.find_breaks", |_| find_breaks_new(&graph, &ic));
    std::hint::black_box(breaks);
    let forward = t.span("absint.forward", |_| ForwardAnalysis::compute(&graph));
    let demand = t.span("absint.demand", |_| DemandAnalysis::compute(&graph));
    std::hint::black_box((forward.known_bits(), demand.dead_bits()));
    let synthesized = t.span("synth.synthesize", |_| {
        synthesize_with(&graph, &clustering, config, &mut Recorder::disabled())
    });
    let flow_ms = t.last_ms("analysis.optimize_widths")
        + t.last_ms("merge.refine")
        + t.last_ms("synth.synthesize");
    let Ok((netlist, csa)) = synthesized else {
        return flow_ms;
    };
    t.count("synth.gates_emitted", netlist.num_gates() as u64);
    t.count("synth.cpa_count", csa.cpa_count as u64);
    let cx = Context::new(&graph)
        .baseline(g)
        .transform(&transform)
        .clustering(&clustering)
        .netlist(&netlist)
        .optimized(true);
    let passes: [Box<dyn Pass>; 6] = [
        Box::new(StructuralValidity),
        Box::new(RpSoundness),
        Box::new(IcSoundness),
        Box::new(ClusterLegality),
        Box::new(NetlistChecks),
        Box::new(AbsintChecks),
    ];
    for pass in passes {
        let name = format!("verify.{}", pass.name());
        let mut v = Verifier::new();
        v.register(pass);
        let diags = t.span(&name, |_| v.run(&cx));
        t.count("verify.diagnostics", diags.diagnostics().len() as u64);
    }
    flow_ms
}

/// Checks a final netlist with spans around the structural check, the
/// simulation and the comparison.
pub fn check_traced(t: &mut Tracer, nl: &Netlist, reference: &Reference) -> Option<String> {
    if let Err(e) = t.span("netlist.check", |_| nl.check()) {
        return Some(format!("netlist check failed: {e}"));
    }
    t.count("netlist.sim_vectors", reference.vectors() as u64);
    t.span("netlist.simulate", |_| reference.compare(nl))
}
