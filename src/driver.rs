//! Shared flow-driving machinery behind `dpmc bench` and `dpmc profile`:
//! the per-design bench building block, the self-profile runner, and the
//! telemetry-overhead measurement that gates the observability layer's
//! cost. Designs are farmed out over [`dp_serve::pool::run_slots`], the
//! slot-ordered worker pool the synthesis service shares.
//!
//! Everything here is deterministic by construction: workers write only
//! their own result slot (so `--jobs N` output is byte-identical for any
//! job count), event streams are collected per design on the worker that
//! ran it, and the telemetry [`Level`] governs what gets *recorded*, never
//! what the flow *does*.

use std::time::{Duration, Instant};

use dp_analysis::TransformReport;
use dp_obs::{
    degrade_event, kind_events, round_events, span_events, trace_events, DesignEvents, Event,
    Profile,
};
pub use dp_serve::pool::WorkerError;
use dp_synth::{FlowResult, SynthError};

use crate::error::FlowError;
use crate::prelude::*;

/// Classifies a flow failure for the pool: the message keeps the
/// driver's `"{design}: ..."` prefix convention, while the family and
/// exit code come from the [`FlowError`] taxonomy — so a design that
/// fails inside `dpmc bench --jobs N` reports exactly the taxonomy a
/// standalone `dpmc run` of that design would have exited with.
fn classify_flow(prefix: &str, e: SynthError) -> WorkerError {
    let fe = FlowError::from(e);
    WorkerError::new(fe.family(), fe.exit_code(), format!("{prefix}: {fe}"))
}

/// One design's bench outcome: the `designs[]` row of the dpmc-bench
/// document plus the design's ordered telemetry events, both built on
/// whichever worker thread ran the design.
#[derive(Debug, Clone)]
pub struct BenchOutcome {
    /// The bench report row (`{"design": ..., "flows": [...]}`).
    pub row: Json,
    /// The design's event stream, ready for slot-ordered merging.
    pub events: DesignEvents,
}

/// Per-round counters as the bench schema's `rounds` array. The field
/// names are exactly the [`FlowMetrics`] totals each column sums to —
/// `worklist_pushes`, `ports_visited`, `ports_skipped` — so rounds, flow
/// metrics and the event stream share one naming scheme (and one
/// invariant: each metrics total equals the sum of its round column).
pub fn rounds_json(report: &TransformReport) -> Json {
    Json::Array(
        report
            .history
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Json::obj()
                    .field("round", i + 1)
                    .field("width_delta_bits", r.width_delta_bits)
                    .field("worklist_pushes", r.worklist_pushes)
                    .field("ports_visited", r.ports_visited)
                    .field("ports_skipped", r.ports_skipped)
            })
            .collect(),
    )
}

/// Everything one flow contributes to the event stream, borrowed from
/// wherever the flow ran (the bench driver, `dpmc run`, tests).
pub struct FlowSources<'a> {
    /// Which merge strategy produced the artifacts below.
    pub strategy: MergeStrategy,
    /// The flow's span recorder (stage tree + alloc columns).
    pub rec: &'a Recorder,
    /// The width-pipeline report, when the strategy ran one.
    pub transform: Option<&'a TransformReport>,
    /// The rendered `FlowMetrics` QoR object.
    pub metrics: &'a Json,
    /// Guard retreats, when the flow degraded.
    pub degradation: Option<&'a DegradationReport>,
    /// The flow's decision-provenance log.
    pub tr: &'a TraceLog,
}

/// Appends one flow's event sequence to a design's stream, in the
/// stream's canonical order: flow begin, spans, rounds, op-kind costs,
/// QoR, degradations, trace decisions.
pub fn push_flow_events(out: &mut DesignEvents, src: FlowSources<'_>, level: Level) {
    out.events.push(Event::Flow { strategy: src.strategy.to_string() });
    out.events.extend(span_events(src.rec, level));
    if let Some(t) = src.transform {
        out.events.extend(round_events(t));
        out.events.extend(kind_events(t, level));
    }
    out.events.push(Event::Qor { metrics: src.metrics.clone() });
    if let Some(d) = src.degradation {
        for s in &d.steps {
            out.events.push(degrade_event(s.stage, &s.reason, s.fallback.tag()));
        }
    }
    out.events.extend(trace_events(src.tr));
}

/// Benchmarks one design through both flows; the building block the
/// parallel driver farms out. Pure function of the design and config
/// (modulo the wall-times inside `spans` and the events' `us`/`ns`
/// fields), so designs can run on any worker in any order.
///
/// Recording always runs at full telemetry — the bench report's spans
/// keep their wall times for `--compare` — while `level` gates what
/// reaches the event stream.
pub fn bench_design(
    name: &str,
    g: &Dfg,
    config: &SynthConfig,
    lib: &Library,
    level: Level,
) -> Result<BenchOutcome, WorkerError> {
    let mut flows = Vec::new();
    let mut events = DesignEvents::new(name);
    for strategy in [MergeStrategy::Old, MergeStrategy::New] {
        let mut rec = Recorder::new();
        let mut tr = TraceLog::new();
        let flow = run_flow(g, strategy, config, &mut rec, &mut tr)
            .map_err(|e| classify_flow(&format!("{name} [{strategy}]"), e))?;
        let tail = finish_flow(g, &flow, lib, &mut rec);

        // QoR on the final (folded + swept) netlist, not the raw one.
        let mut metrics = flow.metrics.clone();
        metrics.gates = tail.netlist.num_gates();
        metrics.delay_ns = tail.delay_ns;
        metrics.area = tail.area;
        metrics.verify_errors = tail.report.count(Severity::Error);
        metrics.verify_warnings = tail.report.count(Severity::Warn);
        metrics.verify_infos = tail.report.count(Severity::Info);
        let metrics_json = metrics.to_json();

        let mut row = Json::obj()
            .field("strategy", strategy.to_string())
            .field("metrics", metrics_json.clone());
        if let Some(m) = &flow.merge {
            row = row.field("rounds", rounds_json(&m.transform));
        }
        flows.push(row.field("trace_events", tr.len() as i64).field("spans", rec.to_json()));

        let src = FlowSources {
            strategy,
            rec: &rec,
            transform: flow.merge.as_ref().map(|m| &m.transform),
            metrics: &metrics_json,
            degradation: None,
            tr: &tr,
        };
        push_flow_events(&mut events, src, level);
    }
    Ok(BenchOutcome { row: Json::obj().field("design", name).field("flows", flows), events })
}

/// What the shared post-flow tail produced: the folded and swept
/// netlist, its static timing and area, and the verifier's findings.
struct FlowTail {
    netlist: Netlist,
    delay_ns: f64,
    area: f64,
    report: VerifyReport,
}

/// The post-flow tail shared by `bench` and `profile`: constant folding
/// and dead-gate sweep (`fold_sweep`), static timing (`sta`), then every
/// verifier pass over the flow's artifacts, each under its span in `rec`.
fn finish_flow(g: &Dfg, flow: &FlowResult, lib: &Library, rec: &mut Recorder) -> FlowTail {
    let mut netlist = flow.netlist.clone();
    let outer = rec.span("fold_sweep");
    let fold = rec.span("fold_constants");
    crate::opt::fold_constants(&mut netlist);
    rec.finish(fold);
    let sweep = rec.span("sweep");
    let netlist = netlist.sweep();
    rec.finish(sweep);
    rec.finish(outer);
    let sta = rec.span("sta");
    let delay_ns = netlist.longest_path(lib).delay_ns;
    let area = netlist.area(lib);
    rec.finish(sta);
    let mut cx = Context::new(&flow.graph)
        .baseline(g)
        .clustering(&flow.clustering)
        .netlist(&netlist)
        .optimized(flow.strategy == MergeStrategy::New);
    if let Some(m) = &flow.merge {
        cx = cx.transform(&m.transform);
    }
    let report = Verifier::default().run_with(&cx, rec);
    FlowTail { netlist, delay_ns, area, report }
}

/// Runs the new-merge flow (plus constant folding, STA and verification)
/// under a full-telemetry recorder and folds the result into a per-phase
/// [`Profile`] — the engine behind `dpmc profile`.
pub fn profile_design(
    name: &str,
    g: &Dfg,
    config: &SynthConfig,
    lib: &Library,
) -> Result<Profile, WorkerError> {
    let mut rec = Recorder::new();
    let mut tr = TraceLog::new();
    let flow = run_flow(g, MergeStrategy::New, config, &mut rec, &mut tr)
        .map_err(|e| classify_flow(name, e))?;
    finish_flow(g, &flow, lib, &mut rec);
    let kinds = flow.merge.as_ref().map(|m| m.transform.kind_counts()).unwrap_or_default();
    Ok(Profile::build(&rec, &kinds))
}

/// The result of one telemetry-overhead measurement (`dpmc profile
/// --overhead-gate PCT`).
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadReport {
    /// Best-of-`trials` flow wall time with telemetry off, microseconds.
    pub off_us: u128,
    /// Best-of-`trials` flow wall time at full telemetry, microseconds.
    pub full_us: u128,
    /// Full-telemetry overhead in percent of the `off` time.
    pub overhead_pct: f64,
    /// Whether QoR metrics and trace decisions were identical at every
    /// [`Level`] — the level must govern recording, never behavior.
    pub invariant: bool,
    /// Whether the measurement passed: invariant, and overhead within
    /// the gate (with a small absolute slack for sub-millisecond flows).
    pub passed: bool,
}

impl OverheadReport {
    /// One-line human rendering.
    pub fn render(&self) -> String {
        format!(
            "telemetry overhead: off {} us, full {} us ({:+.2}%); levels {}: {}",
            self.off_us,
            self.full_us,
            self.overhead_pct,
            if self.invariant { "invariant" } else { "NOT invariant" },
            if self.passed { "PASS" } else { "FAIL" }
        )
    }
}

/// Measures the observability layer's cost on one design and proves its
/// level-invariance: the new-merge flow is run at every [`Level`]
/// (identical QoR documents and trace sequences required), then timed
/// best-of-`trials` at `off` and `full`. Passes when the flow is
/// invariant and full telemetry costs at most `max_pct` percent over
/// `off` (plus a 2 ms absolute slack so sub-millisecond flows cannot
/// fail on scheduling noise).
pub fn telemetry_overhead(
    name: &str,
    g: &Dfg,
    config: &SynthConfig,
    max_pct: f64,
    trials: usize,
) -> Result<OverheadReport, WorkerError> {
    let run_at = |level: Level| -> Result<(String, Vec<Event>), WorkerError> {
        let mut rec = Recorder::with_level(level);
        let mut tr = TraceLog::new();
        let flow = run_flow(g, MergeStrategy::New, config, &mut rec, &mut tr)
            .map_err(|e| classify_flow(&format!("{name} [{}]", level.name()), e))?;
        Ok((flow.metrics.to_json().render(), trace_events(&tr)))
    };
    let (qor_off, trace_off) = run_at(Level::Off)?;
    let mut invariant = true;
    for level in [Level::Counters, Level::Full] {
        let (qor, trace) = run_at(level)?;
        invariant &= qor == qor_off && trace == trace_off;
    }

    let wall = |level: Level| -> Result<Duration, WorkerError> {
        let mut best = Duration::MAX;
        for _ in 0..trials.max(1) {
            let mut rec = Recorder::with_level(level);
            let mut tr = TraceLog::new();
            let started = Instant::now();
            run_flow(g, MergeStrategy::New, config, &mut rec, &mut tr)
                .map_err(|e| classify_flow(&format!("{name} [{}]", level.name()), e))?;
            best = best.min(started.elapsed());
        }
        Ok(best)
    };
    let off = wall(Level::Off)?;
    let full = wall(Level::Full)?;
    let (off_us, full_us) = (off.as_micros(), full.as_micros());
    let overhead_pct =
        if off_us == 0 { 0.0 } else { (full_us as f64 - off_us as f64) / off_us as f64 * 100.0 };
    let budget = off.mul_f64(1.0 + max_pct / 100.0) + Duration::from_millis(2);
    let passed = invariant && full <= budget;
    Ok(OverheadReport { off_us, full_us, overhead_pct, invariant, passed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_testcases::figures;

    fn fig3() -> Dfg {
        figures::fig3().g
    }

    #[test]
    fn bench_rounds_sum_to_flow_metrics_totals() {
        let g = fig3();
        let lib = Library::synthetic_025um();
        let out = bench_design("fig3", &g, &SynthConfig::default(), &lib, Level::Counters)
            .expect("fig3 benches");
        let flows = out.row.get("flows").and_then(Json::as_array).expect("flows");
        let new = &flows[1];
        let metrics = new.get("metrics").expect("metrics");
        let rounds = new.get("rounds").and_then(Json::as_array).expect("rounds on new-merge");
        assert!(!rounds.is_empty());
        // Satellite invariant: one naming scheme, totals = round sums.
        for key in ["worklist_pushes", "ports_visited", "ports_skipped"] {
            let total = metrics.get(key).and_then(Json::as_i64).expect("total");
            let sum: i64 =
                rounds.iter().map(|r| r.get(key).and_then(Json::as_i64).unwrap_or(0)).sum();
            assert_eq!(total, sum, "{key} total equals its per-round sum");
        }
        // Old-merge runs no width pipeline: no rounds array.
        assert!(flows[0].get("rounds").is_none());
    }

    #[test]
    fn bench_events_cover_the_taxonomy_in_order() {
        let g = fig3();
        let lib = Library::synthetic_025um();
        let out = bench_design("fig3", &g, &SynthConfig::default(), &lib, Level::Counters)
            .expect("fig3 benches");
        let tags: Vec<&str> = out.events.events.iter().map(Event::tag).collect();
        assert_eq!(tags[0], "flow");
        for tag in ["span", "round", "op_kind", "qor", "trace"] {
            assert!(tags.contains(&tag), "stream carries {tag} events: {tags:?}");
        }
        let first_round = tags.iter().position(|&t| t == "round").expect("rounds present");
        let last_span = tags.iter().rposition(|&t| t == "span").expect("spans present");
        assert!(first_round > tags.iter().position(|&t| t == "span").expect("spans"));
        let _ = last_span;
    }

    #[test]
    fn flow_failures_classify_with_the_process_taxonomy() {
        // An adder with no drivers fails structural validation inside the
        // flow; the bench row must carry the same family/exit-code a
        // standalone run would have exited with (graph = 5).
        let mut g = Dfg::new();
        let n = g.op_unconnected(OpKind::Add, 5);
        g.output("o", 5, n, Signedness::Unsigned);
        let lib = Library::synthetic_025um();
        let err = bench_design("empty", &g, &SynthConfig::default(), &lib, Level::Off)
            .expect_err("an empty design cannot synthesize");
        assert_eq!(err.family, "graph");
        assert_eq!(err.exit_code, 5);
        assert!(err.message.starts_with("empty [old-merge]:"), "{}", err.message);
    }

    #[test]
    fn profile_yields_flow_phases_and_kind_costs() {
        let g = fig3();
        let lib = Library::synthetic_025um();
        let p = profile_design("fig3", &g, &SynthConfig::default(), &lib).expect("profiles");
        let paths: Vec<&str> = p.rows.iter().map(|r| r.path.as_str()).collect();
        assert!(paths.iter().any(|p| p.starts_with("flow new-merge")), "{paths:?}");
        assert!(paths.contains(&"fold_sweep"));
        assert!(paths.contains(&"fold_sweep;fold_constants"), "{paths:?}");
        assert!(paths.contains(&"fold_sweep;sweep"), "{paths:?}");
        assert!(paths.contains(&"sta"));
        assert!(!p.kinds.is_empty(), "fig3's adds/muls were visited");
        assert!(!p.collapsed_stacks().is_empty());
    }

    #[test]
    fn telemetry_levels_do_not_change_qor_or_trace() {
        let g = fig3();
        let rep =
            telemetry_overhead("fig3", &g, &SynthConfig::default(), 1e9, 1).expect("measures");
        assert!(rep.invariant, "{rep:?}");
        assert!(rep.passed, "an effectively unbounded gate passes: {rep:?}");
    }
}
