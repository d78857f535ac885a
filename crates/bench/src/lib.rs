//! Harness regenerating the paper's evaluation tables and figures.
//!
//! The paper's Section 7 reports two tables over five designs `D1`–`D5`:
//!
//! * **Table 1** — longest path delay (ns) and area after initial
//!   synthesis, for three flows: no merging, old (leakage-of-bits)
//!   merging, new (information-analysis) merging, plus the percentage
//!   reduction of new over old.
//! * **Table 2** — runtime of timing-driven logic optimization to a target
//!   delay, plus the final delay and area, for the old and new flows.
//!
//! [`table1`] and [`table2`] compute the same rows on this reproduction's
//! substrate (synthetic 0.25 µm library, CSA-tree synthesis, gate
//! sizing/buffering optimizer); the binaries `table1`, `table2` and
//! `figures` print them in the paper's layout. Absolute numbers differ
//! from the paper's testbed — the *shape* (who wins, by roughly what
//! factor, where the gains come from) is the reproduction target; see
//! `EXPERIMENTS.md`.
//!
//! Every row also re-verifies functional equivalence of each synthesized
//! netlist against the DFG evaluator on random vectors, so a reported
//! number can never come from a broken circuit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use dp_dfg::gen::random_inputs;
use dp_dfg::Dfg;
use dp_metrics::{FlowMetrics, Recorder};
use dp_netlist::{Library, Netlist};
use dp_opt::{optimize, OptConfig};
use dp_synth::{run_flow, FlowResult, MergeStrategy, SynthConfig, TraceLog};
use dp_testcases::Testcase;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One flow's post-synthesis measurement.
#[derive(Debug, Clone)]
pub struct FlowMeasure {
    /// Longest path delay, ns.
    pub delay_ns: f64,
    /// Area, normalized library units.
    pub area: f64,
    /// Number of clusters (carry-propagate adders paid).
    pub clusters: usize,
    /// Gate count after the zero-effort cleanup.
    pub gates: usize,
    /// The flow's full QoR counter set — the same [`dp_metrics`] counters
    /// `dpmc bench` emits, with gates/delay/area re-measured on the
    /// cleaned-up netlist.
    pub metrics: FlowMetrics,
}

/// A Table 1 row: `no merge` / `old merge` / `new merge` measurements.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Design name.
    pub name: String,
    /// Measurements for [no, old, new].
    pub flows: [FlowMeasure; 3],
}

impl Table1Row {
    /// Percentage delay reduction of new merging over old.
    pub fn delay_reduction_pct(&self) -> f64 {
        reduction_pct(self.flows[1].delay_ns, self.flows[2].delay_ns)
    }

    /// Percentage area reduction of new merging over old.
    pub fn area_reduction_pct(&self) -> f64 {
        reduction_pct(self.flows[1].area, self.flows[2].area)
    }
}

/// A Table 2 row: optimization effort for the old and new netlists.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Design name.
    pub name: String,
    /// Target delay handed to the optimizer (ns).
    pub target_ns: f64,
    /// Optimizer wall-clock runtime for [old, new].
    pub opt_time: [Duration; 2],
    /// Optimizer iterations for [old, new].
    pub iterations: [usize; 2],
    /// Final delay (ns) for [old, new].
    pub end_delay_ns: [f64; 2],
    /// Final area for [old, new].
    pub end_area: [f64; 2],
    /// Whether the target was met, for [old, new].
    pub met: [bool; 2],
}

impl Table2Row {
    /// Percentage optimization-runtime reduction of new over old.
    pub fn time_reduction_pct(&self) -> f64 {
        reduction_pct(self.opt_time[0].as_secs_f64(), self.opt_time[1].as_secs_f64())
    }
}

fn reduction_pct(old: f64, new: f64) -> f64 {
    if old <= 0.0 {
        0.0
    } else {
        (old - new) / old * 100.0
    }
}

/// Runs one synthesis flow, applies the zero-effort cleanup (constant
/// folding + dead-gate sweep, same for every flow) and verifies the result
/// against the DFG evaluator.
///
/// # Panics
///
/// Panics if synthesis fails or the netlist is not equivalent to the DFG —
/// a reported number must never come from a broken circuit.
pub fn measure_flow(
    g: &Dfg,
    strategy: MergeStrategy,
    config: &SynthConfig,
    lib: &Library,
) -> (FlowMeasure, Netlist) {
    let FlowResult { mut netlist, clustering, metrics, .. } =
        run_flow(g, strategy, config, &mut Recorder::disabled(), &mut TraceLog::disabled())
            .expect("synthesis succeeds on valid designs");
    dp_opt::fold_constants(&mut netlist);
    netlist = netlist.sweep();
    verify_equivalence(g, &netlist, 20);
    let timing = netlist.longest_path(lib);
    let mut metrics = metrics;
    metrics.gates = netlist.num_gates();
    metrics.delay_ns = timing.delay_ns;
    metrics.area = netlist.area(lib);
    let m = FlowMeasure {
        delay_ns: metrics.delay_ns,
        area: metrics.area,
        clusters: clustering.len(),
        gates: metrics.gates,
        metrics,
    };
    (m, netlist)
}

/// Checks a netlist against the DFG evaluator on `trials` random vectors.
///
/// # Panics
///
/// Panics on any mismatch.
pub fn verify_equivalence(g: &Dfg, netlist: &Netlist, trials: usize) {
    // The vectors are pre-drawn from the dedicated verification RNG
    // (identical stream to the old per-trial loop) so all trials run in
    // one word-parallel simulation pass.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let lanes: Vec<_> = (0..trials).map(|_| random_inputs(g, &mut rng)).collect();
    let batch = netlist.simulate_batch(&lanes).expect("netlist simulates");
    for (inputs, got) in lanes.iter().zip(&batch) {
        let expect = g.evaluate(inputs).expect("design evaluates");
        for (k, &o) in g.outputs().iter().enumerate() {
            assert_eq!(got[k], expect[&o], "netlist differs from design at output {k}");
        }
    }
}

/// Computes a Table 1 row for one design.
pub fn table1(t: &Testcase, config: &SynthConfig, lib: &Library) -> Table1Row {
    let strategies = [MergeStrategy::None, MergeStrategy::Old, MergeStrategy::New];
    let flows = strategies.map(|s| measure_flow(&t.dfg, s, config, lib).0);
    Table1Row { name: t.name.to_string(), flows }
}

/// Computes a Table 2 row for one design: both netlists are optimized to
/// the same target delay, placed between the two post-synthesis delays —
/// `target = new + interp * (old - new)`. The paper fixed absolute
/// per-design targets that its tool could roughly meet from both starting
/// points; interpolating between the two starting points reproduces that
/// protocol on our library (`interp = 0.5` puts the bar halfway).
pub fn table2(t: &Testcase, config: &SynthConfig, lib: &Library, interp: f64) -> Table2Row {
    let (m_old, nl_old) = measure_flow(&t.dfg, MergeStrategy::Old, config, lib);
    let (m_new, nl_new) = measure_flow(&t.dfg, MergeStrategy::New, config, lib);
    let target_ns = m_new.delay_ns + interp * (m_old.delay_ns - m_new.delay_ns).max(0.0);
    let opt_config = OptConfig { target_delay_ns: target_ns, ..OptConfig::default() };

    let mut results = Vec::new();
    for mut nl in [nl_old, nl_new] {
        let report = optimize(&mut nl, lib, &opt_config);
        verify_equivalence(&t.dfg, &nl, 10);
        results.push(report);
    }
    Table2Row {
        name: t.name.to_string(),
        target_ns,
        opt_time: [results[0].runtime, results[1].runtime],
        iterations: [results[0].iterations, results[1].iterations],
        end_delay_ns: [results[0].end_delay_ns, results[1].end_delay_ns],
        end_area: [results[0].end_area, results[1].end_area],
        met: [results[0].met, results[1].met],
    }
}

/// Renders Table 1 in the paper's layout.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    s.push_str("Table 1: post-synthesis longest path delay and area\n");
    s.push_str(&format!(
        "{:<10} {:>10} {:>10} {:>10} {:>8}\n",
        "", "No mg", "Old mg", "New mg", "% red."
    ));
    for row in rows {
        s.push_str(&format!(
            "{:<10} {:>10.2} {:>10.2} {:>10.2} {:>8.2}\n",
            format!("{} Del.", row.name),
            row.flows[0].delay_ns,
            row.flows[1].delay_ns,
            row.flows[2].delay_ns,
            row.delay_reduction_pct()
        ));
        s.push_str(&format!(
            "{:<10} {:>10.1} {:>10.1} {:>10.1} {:>8.2}\n",
            format!("{} Area", row.name),
            row.flows[0].area,
            row.flows[1].area,
            row.flows[2].area,
            row.area_reduction_pct()
        ));
        s.push_str(&format!(
            "{:<10} {:>10} {:>10} {:>10}\n",
            format!("{} Clus.", row.name),
            row.flows[0].clusters,
            row.flows[1].clusters,
            row.flows[2].clusters,
        ));
    }
    s
}

/// Renders Table 2 in the paper's layout.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut s = String::new();
    s.push_str("Table 2: timing-driven optimization to target delay\n");
    s.push_str(&format!(
        "{:<12} {:>10} {:>12} {:>12} {:>8}\n",
        "", "Target ns", "Old mg", "New mg", "% red."
    ));
    for row in rows {
        s.push_str(&format!(
            "{:<12} {:>10.2} {:>12.4} {:>12.4} {:>8.2}\n",
            format!("{} Opt(s)", row.name),
            row.target_ns,
            row.opt_time[0].as_secs_f64(),
            row.opt_time[1].as_secs_f64(),
            row.time_reduction_pct()
        ));
        s.push_str(&format!(
            "{:<12} {:>10} {:>12.2} {:>12.2}\n",
            format!("{} EndDel", row.name),
            "",
            row.end_delay_ns[0],
            row.end_delay_ns[1],
        ));
        s.push_str(&format!(
            "{:<12} {:>10} {:>12.1} {:>12.1}\n",
            format!("{} EndArea", row.name),
            "",
            row.end_area[0],
            row.end_area[1],
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_testcases::all_designs;

    #[test]
    fn table1_shape_holds_for_every_design() {
        let lib = Library::synthetic_025um();
        let config = SynthConfig::default();
        for t in all_designs() {
            let row = table1(&t, &config, &lib);
            let [none, old, new] = row.flows;
            assert!(
                new.delay_ns <= old.delay_ns + 1e-9,
                "{}: new {} > old {}",
                t.name,
                new.delay_ns,
                old.delay_ns
            );
            assert!(
                old.delay_ns <= none.delay_ns + 1e-9,
                "{}: old {} > none {}",
                t.name,
                old.delay_ns,
                none.delay_ns
            );
            assert!(new.area <= old.area + 1e-9, "{}: area", t.name);
            assert!(new.clusters <= old.clusters, "{}: clusters", t.name);
        }
    }

    #[test]
    fn table2_new_ends_better() {
        let lib = Library::synthetic_025um();
        let config = SynthConfig::default();
        for t in all_designs().into_iter().take(2) {
            let row = table2(&t, &config, &lib, 0.5);
            // The paper's Table 2 shape: the new flow's netlist ends no
            // slower than the shared target when the old flow's does (the
            // old netlist may land marginally under the bar from a higher
            // start — the bar itself is what both are judged against), and
            // always ends at least as small.
            if row.met[0] {
                assert!(
                    row.end_delay_ns[1] <= row.target_ns + 1e-9,
                    "{}: new missed a target old met ({} > {})",
                    t.name,
                    row.end_delay_ns[1],
                    row.target_ns
                );
            }
            assert!(
                row.end_area[1] <= row.end_area[0] + 1e-9,
                "{}: end area {} vs {}",
                t.name,
                row.end_area[1],
                row.end_area[0]
            );
        }
    }

    #[test]
    fn rendering_contains_every_design() {
        let lib = Library::synthetic_025um();
        let config = SynthConfig::default();
        let rows: Vec<Table1Row> = all_designs().iter().map(|t| table1(t, &config, &lib)).collect();
        let text = render_table1(&rows);
        for t in all_designs() {
            assert!(text.contains(t.name), "{} missing from render", t.name);
        }
    }
}
