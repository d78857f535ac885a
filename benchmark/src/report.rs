//! The metric catalogue and the per-layer summary of a traced run.
//!
//! The two lists below are the ones `BENCHMARK.json` names, in the same
//! order; a unit test keeps them in step.

use std::collections::BTreeMap;

use crate::stats::{geomean, Samples};
use crate::trace::Tracer;

/// `(name, unit, better)` of each end-to-end metric, printed by every
/// `--trace 0` run.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("compile_ms_p50", "ms", "lower"),
    ("nodes_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("delay_ns_geomean", "ns", "lower"),
    ("area_geomean", "inv_area", "lower"),
];

/// `(name, unit, better)` of each per-layer metric, printed by every
/// `--trace 1` run; a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // End-to-end figures that only some workloads have (see README).
    ("compile_ms_p90", "ms", "lower"),
    ("opt_ms_p50", "ms", "lower"),
    ("fallback_share", "share", "lower"),
    ("fail_share", "share", "lower"),
    ("request_ms_p50", "ms", "lower"),
    ("request_ms_p90", "ms", "lower"),
    ("hit_ms_p50", "ms", "lower"),
    ("hit_rate", "share", "higher"),
    ("compiles", "count", "higher"),
    // The host-speed kernel (see `calib`)
    ("calib.kernel_ms", "ms", "lower"),
    // dp-dfg
    ("dfg.gen_ms", "ms", "lower"),
    ("dfg.evaluate_ms", "ms", "lower"),
    ("dfg.canonical_ms", "ms", "lower"),
    // dp-analysis
    ("analysis.optimize_widths_ms", "ms", "lower"),
    ("analysis.rounds", "count", "lower"),
    ("analysis.worklist_pushes", "count", "lower"),
    ("analysis.ports_visited", "count", "lower"),
    ("analysis.bits_removed", "count", "higher"),
    // dp-merge
    ("merge.refine_ms", "ms", "lower"),
    ("merge.info_content_ms", "ms", "lower"),
    ("merge.find_breaks_ms", "ms", "lower"),
    ("merge.rounds", "count", "lower"),
    ("merge.clusters", "count", "lower"),
    ("merge.break_nodes", "count", "lower"),
    // dp-absint
    ("absint.forward_ms", "ms", "lower"),
    ("absint.demand_ms", "ms", "lower"),
    // dp-synth
    ("synth.synthesize_ms", "ms", "lower"),
    ("synth.gates_emitted", "count", "lower"),
    ("synth.cpa_count", "count", "lower"),
    ("synth.ns_per_gate", "ns", "lower"),
    ("synth.guarded_flow_ms", "ms", "lower"),
    ("synth.guard_self_ms", "ms", "lower"),
    ("synth.fallbacks", "count", "lower"),
    // dp-opt and dp-netlist
    ("opt.fold_ms", "ms", "lower"),
    ("opt.gates_folded", "count", "lower"),
    ("netlist.sweep_ms", "ms", "lower"),
    ("netlist.gates_swept", "count", "lower"),
    ("opt.optimize_ms", "ms", "lower"),
    ("opt.iterations", "count", "lower"),
    ("opt.gates_sized", "count", "lower"),
    ("opt.buffers_inserted", "count", "lower"),
    ("netlist.sta_ms", "ms", "lower"),
    ("netlist.simulate_ms", "ms", "lower"),
    ("netlist.sim_vectors", "count", "higher"),
    ("netlist.check_ms", "ms", "lower"),
    ("netlist.decode_ms", "ms", "lower"),
    // dp-verify, one pass per Verifier
    ("verify.structural_ms", "ms", "lower"),
    ("verify.rp-soundness_ms", "ms", "lower"),
    ("verify.ic-soundness_ms", "ms", "lower"),
    ("verify.cluster-legality_ms", "ms", "lower"),
    ("verify.netlist_ms", "ms", "lower"),
    ("verify.absint-checks_ms", "ms", "lower"),
    ("verify.diagnostics", "count", "lower"),
    // dp-serve
    ("serve.parse_ms", "ms", "lower"),
    ("serve.store_get_ms", "ms", "lower"),
    ("serve.store_put_ms", "ms", "lower"),
    ("serve.hits_netlist", "count", "higher"),
    ("serve.hits_cluster", "count", "higher"),
    ("serve.hits_analysis", "count", "higher"),
    ("serve.misses", "count", "lower"),
    ("serve.quarantined", "count", "lower"),
    ("serve.store_bytes", "bytes", "lower"),
    ("serve.hit_miss_ratio", "share", "lower"),
    // The traced run itself
    ("trace.untraced_ms", "ms", "lower"),
    ("trace.traced_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "higher"),
    ("trace.passes", "count", "higher"),
];

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
    /// The traced run's spans, written out once the run ends.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome { correct: true, ..Outcome::default() }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records one operation's result; a failure is logged with its
    /// reason.
    pub fn tally(&mut self, what: &str, failure: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = failure {
            self.failed += 1;
            eprintln!("FAILED {what}: {reason}");
        }
    }

    /// `fail_share`, the share of attempted operations that failed.
    pub fn set_fail_share(&mut self) {
        let share = crate::stats::share(self.failed, self.attempted);
        self.set("fail_share", share);
    }

    /// Fills the per-layer metrics of a traced run: each span name's
    /// median self time as `<name>_ms`, and the work counters of the first
    /// pass. Every pass must repeat the first pass's counters exactly; a
    /// mismatch marks the run incorrect.
    pub fn set_layers(&mut self, tracer: Tracer, passes: &[BTreeMap<String, u64>]) {
        for (name, samples) in tracer.self_ms() {
            self.set(&format!("{name}_ms"), samples.median());
        }
        if let Some(first) = passes.first() {
            for (k, pass) in passes.iter().enumerate().skip(1) {
                if pass != first {
                    eprintln!("counters of pass {k} differ from pass 0: {pass:?} vs {first:?}");
                    self.correct = false;
                }
            }
            for (name, &count) in first {
                self.set(name, count as f64);
            }
            if passes.len() < 2 {
                eprintln!("traced run made one pass; exact counters were not repeated");
                self.correct = false;
            }
        }
        let synth_ms = tracer.self_ms().get("synth.synthesize").map_or(0.0, Samples::sum);
        let gates = passes.first().and_then(|p| p.get("synth.gates_emitted")).copied().unwrap_or(0);
        if gates > 0 {
            self.set("synth.ns_per_gate", synth_ms * 1e6 / (gates as f64 * passes.len() as f64));
        }
        self.set("trace.spans", tracer.spans().len() as f64);
        self.set("trace.passes", passes.len() as f64);
        self.tracer = Some(tracer);
    }

    /// The tracing overhead: per item, the median traced time over the
    /// median untraced time, combined by geometric mean.
    pub fn set_overhead(&mut self, untraced: &[Samples], traced: &[Samples]) {
        let pairs: Vec<(f64, f64)> = untraced
            .iter()
            .zip(traced)
            .filter(|(u, t)| u.len() > 0 && t.len() > 0)
            .map(|(u, t)| (u.median(), t.median()))
            .collect();
        let ratios: Vec<f64> = pairs.iter().map(|(u, t)| t / u).collect();
        let u: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let t: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        self.set("trace.untraced_ms", geomean(&u));
        self.set("trace.traced_ms", geomean(&t));
        self.set("trace.overhead_pct", (geomean(&ratios) - 1.0) * 100.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lists above must be the ones `BENCHMARK.json` declares.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let names = |list: &[(&str, &str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _, _)| (*n).to_string()).collect()
        };
        assert_eq!(section("end_to_end"), names(END_TO_END));
        assert_eq!(section("per_layer"), names(PER_LAYER));
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
