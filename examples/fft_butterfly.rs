//! The arithmetic core of an FFT butterfly — a complex multiplier — with
//! merging: each output (real and imaginary part) becomes one cluster,
//! so the whole complex multiply costs two carry-propagate adders.
//!
//! Run with `cargo run --example fft_butterfly`.

use datapath_merge::prelude::*;
use datapath_merge::testcases::families;

fn main() {
    let g = families::complex_multiplier(10);
    println!("complex multiplier, 10-bit parts: (ar + j·ai) × (br + j·bi)\n");

    let lib = Library::synthetic_025um();
    let config = SynthConfig::default();

    for strategy in [MergeStrategy::None, MergeStrategy::New] {
        let flow =
            run_flow(&g, strategy, &config, &mut Recorder::disabled(), &mut TraceLog::disabled())
                .expect("synthesis");
        let t = flow.netlist.longest_path(&lib);
        println!(
            "{:<10} clusters {:>2}  delay {:>7.3} ns  area {:>8.1}  histogram {:?}",
            strategy.to_string(),
            flow.clustering.len(),
            t.delay_ns,
            flow.netlist.area(&lib),
            flow.clustering.size_histogram()
        );
    }

    // Spot-check with a concrete complex product.
    // (3 - 7j) * (-120 + 9j) = -360 + 27j + 840j - 63 j^2 = -297 + 867j
    let flow = run_flow(
        &g,
        MergeStrategy::New,
        &config,
        &mut Recorder::disabled(),
        &mut TraceLog::disabled(),
    )
    .expect("synthesis");
    let inputs = vec![
        BitVec::from_i64(10, 3),
        BitVec::from_i64(10, -7),
        BitVec::from_i64(10, -120),
        BitVec::from_i64(10, 9),
    ];
    let got = flow.netlist.simulate(&inputs).expect("simulates");
    println!(
        "\n(3 - 7j)(-120 + 9j) = {} + {}j",
        got[0].to_i64().expect("fits"),
        got[1].to_i64().expect("fits")
    );
    assert_eq!(got[0].to_i64(), Some(-297));
    assert_eq!(got[1].to_i64(), Some(867));

    // Each part is one sum of two products: ar·br − ai·bi needs a negated
    // product addend, handled inside the carry-save tree.
    let ic = info_content(&flow.graph);
    for cluster in &flow.clustering.clusters {
        let sum = linearize_cluster(&flow.graph, cluster, &ic).expect("linearizes");
        println!(
            "cluster at {}: {} addends, {} negated",
            cluster.output,
            sum.addends.len(),
            sum.addends.iter().filter(|a| a.negated).count()
        );
    }
}
