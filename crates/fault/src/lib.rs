//! Deterministic fault injection for the guarded synthesis flow.
//!
//! The fault-tolerant driver ([`dp_synth::run_flow_guarded`]) claims that
//! no corruption of an intermediate artifact can escape as a panic or a
//! silently-wrong netlist. This crate *earns* that claim: a seeded
//! [`FaultInjector`] corrupts exactly one artifact at a stage boundary
//! (via the [`FlowFault`] hooks), the flow runs to completion under
//! `catch_unwind`, and the resulting netlist is differentially re-checked
//! against the untouched design with vectors the flow never saw. Every
//! injected fault must land in one of three acceptable buckets:
//!
//! * **degraded** — the guards caught it and retreated to a safe stage,
//!   with a [`DegradationReport`] whose steps match `FALLBACK-*` events in
//!   the trace;
//! * **clean error** — the flow refused to synthesize, with a typed
//!   [`SynthError`];
//! * **benign** — the corruption had no observable effect (e.g. an
//!   information-content lie that was never consulted) and the netlist is
//!   still correct.
//!
//! A panic, a wrong netlist, or a degradation without matching trace
//! events is a harness **failure**. `dpmc faultcheck` drives this over
//! every builtin design, fault class and seed.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod serve;

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use dp_analysis::{Ic, IntrinsicOverrides};
use dp_bitvec::Signedness;
use dp_dfg::gen::random_inputs;
use dp_dfg::{Dfg, NodeId, NodeKind};
use dp_merge::Clustering;
use dp_metrics::Recorder;
use dp_synth::{
    run_flow_guarded_with, DegradationReport, FlowBudget, FlowFault, GuardedFlow, MergeStrategy,
    SynthConfig, SynthError,
};
use dp_trace::TraceLog;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The corruption a [`FaultInjector`] plants — one per run, chosen by
/// class and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Shrink one operator/extension node's width below its optimized
    /// value after the width pipeline has settled.
    CorruptWidth,
    /// Bypass one extension node: rewire its consumers straight to its
    /// operand, undoing the interface preservation of Lemma 5.6.
    DropExtension,
    /// Lie about one operator's intrinsic information content: plant a
    /// one-bit bound the refinement will happily believe.
    LieIcBound,
    /// Remove one interior member from a multi-node cluster, leaving the
    /// partition incomplete.
    TruncateCluster,
}

impl FaultClass {
    /// Every fault class, in a stable order.
    pub const ALL: [FaultClass; 4] = [
        FaultClass::CorruptWidth,
        FaultClass::DropExtension,
        FaultClass::LieIcBound,
        FaultClass::TruncateCluster,
    ];

    /// The stable CLI name (`corrupt-width`, `drop-extension`,
    /// `lie-ic-bound`, `truncate-cluster`).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::CorruptWidth => "corrupt-width",
            FaultClass::DropExtension => "drop-extension",
            FaultClass::LieIcBound => "lie-ic-bound",
            FaultClass::TruncateCluster => "truncate-cluster",
        }
    }

    /// Parses a CLI name back to a class.
    pub fn parse(s: &str) -> Option<FaultClass> {
        FaultClass::ALL.into_iter().find(|c| c.name() == s)
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A seeded, single-shot artifact corruptor implementing the guarded
/// flow's [`FlowFault`] hooks. Injects at most one fault; records what it
/// did in [`FaultInjector::injected`].
pub struct FaultInjector {
    class: FaultClass,
    rng: StdRng,
    /// Human-readable description of the corruption actually performed, or
    /// `None` when the design offered no applicable site (e.g. no
    /// extension nodes to drop).
    pub injected: Option<String>,
    /// Operator candidates recorded at the width boundary for the
    /// information-content lie (that hook sees no graph).
    ic_targets: Vec<NodeId>,
}

impl FaultInjector {
    /// An injector for one `(class, seed)` pair.
    pub fn new(class: FaultClass, seed: u64) -> Self {
        FaultInjector {
            class,
            rng: StdRng::seed_from_u64(seed),
            injected: None,
            ic_targets: Vec::new(),
        }
    }

    fn pick<T: Copy>(&mut self, candidates: &[T]) -> Option<T> {
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[self.rng.gen_range(0..candidates.len())])
        }
    }
}

impl FlowFault for FaultInjector {
    fn after_widths(&mut self, g: &mut Dfg) {
        match self.class {
            FaultClass::CorruptWidth => {
                let targets: Vec<NodeId> = g
                    .node_ids()
                    .filter(|&n| {
                        matches!(g.node(n).kind(), NodeKind::Op(_) | NodeKind::Extension(_))
                            && g.node(n).width() >= 2
                    })
                    .collect();
                if let Some(n) = self.pick(&targets) {
                    let w = g.node(n).width();
                    let bad = self.rng.gen_range(1..w);
                    g.set_node_width(n, bad);
                    self.injected = Some(format!("node {n} width {w} -> {bad}"));
                }
            }
            FaultClass::DropExtension => {
                let exts: Vec<NodeId> = g
                    .node_ids()
                    .filter(|&n| matches!(g.node(n).kind(), NodeKind::Extension(_)))
                    .collect();
                if let Some(e) = self.pick(&exts) {
                    let src = g.edge(g.node(e).in_edges()[0]).src();
                    let outs: Vec<_> = g.node(e).out_edges().to_vec();
                    for edge in &outs {
                        g.rewire_edge_src(*edge, src);
                    }
                    self.injected =
                        Some(format!("extension {e} bypassed ({} consumers)", outs.len()));
                }
            }
            FaultClass::LieIcBound => {
                self.ic_targets = g
                    .node_ids()
                    .filter(|&n| g.node(n).kind().is_op() && g.node(n).width() >= 2)
                    .collect();
            }
            FaultClass::TruncateCluster => {}
        }
    }

    fn tamper_ic(&mut self, overrides: &mut IntrinsicOverrides) {
        if self.class != FaultClass::LieIcBound {
            return;
        }
        let targets = std::mem::take(&mut self.ic_targets);
        if let Some(n) = self.pick(&targets) {
            overrides.insert(n, Ic::new(1, Signedness::Unsigned));
            self.injected = Some(format!("node {n} intrinsic IC forced to <1, zero-extended>"));
        }
    }

    fn after_clustering(&mut self, _g: &Dfg, clustering: &mut Clustering) {
        if self.class != FaultClass::TruncateCluster {
            return;
        }
        let fat: Vec<usize> =
            (0..clustering.clusters.len()).filter(|&k| clustering.clusters[k].len() >= 2).collect();
        if let Some(k) = self.pick(&fat) {
            let c = &mut clustering.clusters[k];
            let interior: Vec<usize> =
                (0..c.members.len()).filter(|&i| c.members[i] != c.output).collect();
            if let Some(i) = self.pick(&interior) {
                let victim = c.members.remove(i);
                self.injected = Some(format!("member {victim} removed from cluster {k}"));
            }
        }
    }
}

/// How one injected-fault run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The corruption had no observable effect; the netlist is correct.
    Benign,
    /// The guards caught it and degraded; the netlist is correct and the
    /// `FALLBACK-*` tags are on record.
    Degraded(Vec<String>),
    /// The flow refused with a typed error — acceptable, never silent.
    TypedError(String),
    /// **Failure**: the flow returned a netlist that differs from the
    /// design.
    WrongNetlist(String),
    /// **Failure**: something panicked.
    Panicked(String),
    /// **Failure**: the flow degraded but the trace lacks a matching
    /// `FALLBACK-*` event for some step.
    TraceMismatch(String),
}

impl FaultOutcome {
    /// Whether this outcome violates the fault-tolerance contract.
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            FaultOutcome::WrongNetlist(_)
                | FaultOutcome::Panicked(_)
                | FaultOutcome::TraceMismatch(_)
        )
    }

    /// One-word label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            FaultOutcome::Benign => "benign",
            FaultOutcome::Degraded(_) => "degraded",
            FaultOutcome::TypedError(_) => "error",
            FaultOutcome::WrongNetlist(_) => "WRONG-NETLIST",
            FaultOutcome::Panicked(_) => "PANIC",
            FaultOutcome::TraceMismatch(_) => "TRACE-MISMATCH",
        }
    }

    /// The variant's payload, rendered (empty for [`FaultOutcome::Benign`]).
    pub fn detail(&self) -> String {
        match self {
            FaultOutcome::Benign => String::new(),
            FaultOutcome::Degraded(tags) => tags.join(","),
            FaultOutcome::TypedError(m)
            | FaultOutcome::WrongNetlist(m)
            | FaultOutcome::Panicked(m)
            | FaultOutcome::TraceMismatch(m) => m.clone(),
        }
    }
}

/// One `(class, seed)` fault-injection run.
///
/// `dpmc faultcheck --events` streams each case's verdict as a `fault`
/// event of the dp-obs `dpmc-events/1` document (class, seed, injection
/// site, outcome label and detail), so fault-matrix results land in the
/// same telemetry stream as spans, QoR and trace decisions.
#[derive(Debug, Clone)]
pub struct FaultCase {
    /// The fault class injected.
    pub class: FaultClass,
    /// The injection seed.
    pub seed: u64,
    /// What the injector actually corrupted (`None` = no applicable site).
    pub injected: Option<String>,
    /// How the run ended.
    pub outcome: FaultOutcome,
}

/// All fault cases for one design.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Design name (as shown by `dpmc faultcheck`).
    pub design: String,
    /// One entry per `(class, seed)` pair, classes outer, seeds inner.
    pub cases: Vec<FaultCase>,
}

impl FaultReport {
    /// `true` when no case violated the fault-tolerance contract.
    pub fn passed(&self) -> bool {
        self.cases.iter().all(|c| !c.outcome.is_failure())
    }

    /// `(benign, degraded, typed-error, failures)` counts.
    pub fn tally(&self) -> (usize, usize, usize, usize) {
        let mut t = (0, 0, 0, 0);
        for c in &self.cases {
            match &c.outcome {
                FaultOutcome::Benign => t.0 += 1,
                FaultOutcome::Degraded(_) => t.1 += 1,
                FaultOutcome::TypedError(_) => t.2 += 1,
                _ => t.3 += 1,
            }
        }
        t
    }
}

/// Runs one fault-injection case: corrupt, synthesize guarded, then
/// independently re-check the result.
///
/// The differential re-check uses vectors derived from `seed` (distinct
/// from the flow's internal audit seed), so a fault that somehow fooled
/// the in-flow audit still has to survive fresh vectors here.
pub fn run_case(
    g: &Dfg,
    class: FaultClass,
    seed: u64,
    config: &SynthConfig,
    budget: &FlowBudget,
) -> FaultCase {
    let mut injector = FaultInjector::new(class, seed);
    let mut tr = TraceLog::new();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_flow_guarded_with(
            g,
            MergeStrategy::New,
            config,
            budget,
            Some(&mut injector),
            &mut Recorder::disabled(),
            &mut tr,
        )
    }));
    let outcome = match result {
        Err(payload) => FaultOutcome::Panicked(panic_message(payload.as_ref())),
        Ok(Err(e)) => typed_error_outcome(&e),
        Ok(Ok(flow)) => classify_success(g, &flow, &tr, seed),
    };
    FaultCase { class, seed, injected: injector.injected, outcome }
}

/// A typed error is acceptable — unless it is itself a panic smuggled into
/// an error (it cannot be; [`SynthError`] is a plain enum).
fn typed_error_outcome(e: &SynthError) -> FaultOutcome {
    FaultOutcome::TypedError(e.to_string())
}

/// Classifies a flow that produced a netlist: re-check equivalence with
/// fresh vectors, then cross-check the degradation report against the
/// trace.
fn classify_success(g: &Dfg, flow: &GuardedFlow, tr: &TraceLog, seed: u64) -> FaultOutcome {
    if let Some(reason) = netlist_differs(g, flow, seed) {
        return FaultOutcome::WrongNetlist(reason);
    }
    match &flow.degradation {
        None => FaultOutcome::Benign,
        Some(report) => match trace_mismatch(report, tr) {
            Some(missing) => FaultOutcome::TraceMismatch(missing),
            None => FaultOutcome::Degraded(report.tags()),
        },
    }
}

/// Independent differential simulation: 16 vectors seeded from the case
/// seed (never the flow's audit seed).
fn netlist_differs(g: &Dfg, flow: &GuardedFlow, seed: u64) -> Option<String> {
    // All 16 vectors come from the dedicated case RNG up front (the same
    // stream the one-at-a-time loop consumed), then one word-parallel
    // simulation pass covers every lane.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA57_C0DE);
    let lanes: Vec<_> = (0..16).map(|_| random_inputs(g, &mut rng)).collect();
    let batch = match flow.flow.netlist.simulate_batch(&lanes) {
        Ok(v) => v,
        Err(e) => return Some(format!("netlist simulation failed: {e}")),
    };
    for (k, (inputs, got)) in lanes.iter().zip(&batch).enumerate() {
        let expect = match g.evaluate(inputs) {
            Ok(v) => v,
            Err(e) => return Some(format!("reference evaluation failed: {e}")),
        };
        for (i, &o) in g.outputs().iter().enumerate() {
            if got[i] != expect[&o] {
                return Some(format!(
                    "vector {k}: output {} is wrong",
                    g.node(o).name().unwrap_or("?")
                ));
            }
        }
    }
    None
}

/// Every degradation step must have left a `FALLBACK-*` event of the
/// matching rule in the trace. Returns the first missing tag.
fn trace_mismatch(report: &DegradationReport, tr: &TraceLog) -> Option<String> {
    for step in &report.steps {
        let rule = step.fallback.rule();
        let events = tr.events().iter().filter(|e| e.rule == rule).count();
        let steps = report.steps.iter().filter(|s| s.fallback == step.fallback).count();
        if events < steps {
            return Some(format!(
                "{} trace events for {} but {} degradation steps",
                events,
                rule.tag(),
                steps
            ));
        }
    }
    None
}

/// Runs the full `classes x seeds` matrix over one design. Panics from
/// faulted flows are caught and reported as [`FaultOutcome::Panicked`];
/// the default panic hook is silenced for the duration so the report is
/// not drowned in backtraces.
pub fn check_design(
    name: &str,
    g: &Dfg,
    classes: &[FaultClass],
    seeds: u64,
    config: &SynthConfig,
    budget: &FlowBudget,
) -> FaultReport {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut cases = Vec::new();
    for &class in classes {
        for seed in 0..seeds {
            cases.push(run_case(g, class, seed, config, budget));
        }
    }
    std::panic::set_hook(prev);
    FaultReport { design: name.to_string(), cases }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_bitvec::Signedness::*;
    use dp_dfg::OpKind;

    /// A design with width slack (so the pipeline inserts extension nodes
    /// and every fault class has sites to corrupt).
    fn rich_design() -> Dfg {
        let mut g = Dfg::new();
        let a = g.input("a", 8);
        let b = g.input("b", 8);
        let c = g.input("c", 8);
        let d = g.input("d", 8);
        let m1 = g.op(OpKind::Mul, 16, &[(a, Unsigned), (b, Unsigned)]);
        let m2 = g.op(OpKind::Mul, 16, &[(c, Unsigned), (d, Unsigned)]);
        let s1 = g.op(OpKind::Add, 17, &[(m1, Unsigned), (m2, Unsigned)]);
        let s2 = g.op(OpKind::Add, 18, &[(s1, Unsigned), (a, Unsigned)]);
        g.output("r", 9, s2, Unsigned);
        g
    }

    #[test]
    fn injected_faults_never_panic_or_mis_synthesize() {
        let g = rich_design();
        let report = check_design(
            "rich",
            &g,
            &FaultClass::ALL,
            4,
            &SynthConfig::default(),
            &FlowBudget::default(),
        );
        assert!(
            report.passed(),
            "failures: {:?}",
            report
                .cases
                .iter()
                .filter(|c| c.outcome.is_failure())
                .map(|c| (c.class, c.seed, c.outcome.clone()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn corrupt_width_is_caught_not_believed() {
        let g = rich_design();
        let mut saw_detection = false;
        for seed in 0..4 {
            let case = run_case(
                &g,
                FaultClass::CorruptWidth,
                seed,
                &SynthConfig::default(),
                &FlowBudget::default(),
            );
            assert!(!case.outcome.is_failure(), "seed {seed}: {:?}", case.outcome);
            if case.injected.is_some() {
                // A corrupted width must never pass as benign: the graph
                // genuinely lost bits somewhere.
                saw_detection |=
                    matches!(case.outcome, FaultOutcome::Degraded(_) | FaultOutcome::TypedError(_));
            }
        }
        assert!(saw_detection, "no corrupt-width fault was ever detected");
    }

    #[test]
    fn classes_round_trip_through_names() {
        for c in FaultClass::ALL {
            assert_eq!(FaultClass::parse(c.name()), Some(c));
        }
        assert_eq!(FaultClass::parse("nonsense"), None);
    }
}
