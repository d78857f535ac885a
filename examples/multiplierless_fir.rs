//! A multiplierless FIR filter: constant coefficients decomposed into
//! canonical-signed-digit shift-add networks, then merged into a single
//! carry-save cluster — shifts are weighted addends, so the whole filter
//! costs exactly one carry-propagate adder.
//!
//! Run with `cargo run --example multiplierless_fir`.

use datapath_merge::prelude::*;
use datapath_merge::testcases::csd::{csd_digits, csd_weight, multiplierless_fir};

fn main() {
    // Show the recoding itself on a few coefficients.
    println!("CSD recodings (digit count vs plain binary):");
    for c in [7i64, 23, 63, -45, 117] {
        let digits: Vec<String> = csd_digits(c)
            .iter()
            .map(|t| format!("{}2^{}", if t.negative { "-" } else { "+" }, t.shift))
            .collect();
        println!(
            "  {c:>5} = {:<28} ({} adders vs {} with binary)",
            digits.join(" "),
            csd_weight(c).saturating_sub(1),
            (c.unsigned_abs().count_ones() as usize).saturating_sub(1)
        );
    }

    // A 12-tap filter over 10-bit samples with 6-bit coefficients.
    let g = multiplierless_fir(12, 10, 6, 0xFEED);
    println!(
        "\n12-tap multiplierless FIR: {} shift/add/sub operators, no multipliers",
        g.op_nodes().count()
    );

    let lib = Library::synthetic_025um();
    let config = SynthConfig::default();
    for strategy in [MergeStrategy::None, MergeStrategy::New] {
        let flow =
            run_flow(&g, strategy, &config, &mut Recorder::disabled(), &mut TraceLog::disabled())
                .expect("synthesis");
        let mut nl = flow.netlist;
        datapath_merge::opt::fold_constants(&mut nl);
        let nl = nl.sweep();
        let t = nl.longest_path(&lib);
        println!(
            "{:<10} clusters {:>3} (one CPA each)  delay {:>7.3} ns  area {:>8.1}",
            strategy.to_string(),
            flow.clustering.len(),
            t.delay_ns,
            nl.area(&lib)
        );
    }

    // The merged filter is a single cluster: every shifted tap is just a
    // weighted addend in one reduction tree.
    let flow = run_flow(
        &g,
        MergeStrategy::New,
        &config,
        &mut Recorder::disabled(),
        &mut TraceLog::disabled(),
    )
    .expect("synthesis");
    assert_eq!(flow.clustering.len(), 1);
    let ic = info_content(&flow.graph);
    let sum =
        linearize_cluster(&flow.graph, &flow.clustering.clusters[0], &ic).expect("linearizes");
    let shifted = sum.addends.iter().filter(|a| a.shift > 0).count();
    println!(
        "\nmerged cluster: {} addends, {} of them shift-weighted, {} negated",
        sum.addends.len(),
        shifted,
        sum.addends.iter().filter(|a| a.negated).count()
    );

    // Verify on an impulse: the filter output must reproduce coefficient 0.
    let mut inputs: Vec<BitVec> = (0..g.inputs().len()).map(|_| BitVec::zero(10)).collect();
    inputs[0] = BitVec::from_i64(10, 1);
    let got = flow.netlist.simulate(&inputs).expect("simulates");
    let expect = g.evaluate(&inputs).expect("evaluates");
    assert_eq!(got[0], expect[&g.outputs()[0]]);
    println!("impulse response tap 0 = {} (netlist == design)", got[0].to_i64().expect("fits"));
}
