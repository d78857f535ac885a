//! Quickstart: the paper's flagship `a*b + c*d` example through all three
//! flows, comparing carry-propagate adder counts, delay and area.
//!
//! Run with `cargo run --example quickstart`.

use datapath_merge::prelude::*;

fn main() {
    // Build the sum-of-products DFG the paper's introduction opens with.
    let mut g = Dfg::new();
    let a = g.input("a", 8);
    let b = g.input("b", 8);
    let c = g.input("c", 8);
    let d = g.input("d", 8);
    let m1 = g.op(OpKind::Mul, 16, &[(a, Signedness::Signed), (b, Signedness::Signed)]);
    let m2 = g.op(OpKind::Mul, 16, &[(c, Signedness::Signed), (d, Signedness::Signed)]);
    let s = g.op(OpKind::Add, 17, &[(m1, Signedness::Signed), (m2, Signedness::Signed)]);
    g.output("r", 17, s, Signedness::Signed);
    g.validate().expect("well-formed design");

    let lib = Library::synthetic_025um();
    let config = SynthConfig::default();

    println!("a*b + c*d, 8-bit signed operands\n");
    println!("{:<10} {:>9} {:>12} {:>10} {:>8}", "flow", "clusters", "delay (ns)", "area", "gates");
    for strategy in [MergeStrategy::None, MergeStrategy::Old, MergeStrategy::New] {
        let flow =
            run_flow(&g, strategy, &config, &mut Recorder::disabled(), &mut TraceLog::disabled())
                .expect("synthesis");
        let timing = flow.netlist.longest_path(&lib);
        println!(
            "{:<10} {:>9} {:>12.3} {:>10.1} {:>8}",
            strategy.to_string(),
            flow.clustering.len(),
            timing.delay_ns,
            flow.netlist.area(&lib),
            flow.netlist.num_gates()
        );
    }

    // Prove the merged netlist is the same function, bit for bit.
    let flow = run_flow(
        &g,
        MergeStrategy::New,
        &config,
        &mut Recorder::disabled(),
        &mut TraceLog::disabled(),
    )
    .expect("synthesis");
    let inputs = vec![
        BitVec::from_i64(8, -100),
        BitVec::from_i64(8, 37),
        BitVec::from_i64(8, 55),
        BitVec::from_i64(8, -4),
    ];
    let expected = g.evaluate(&inputs).expect("evaluates");
    let got = flow.netlist.simulate(&inputs).expect("simulates");
    let r = g.outputs()[0];
    println!(
        "\ncheck: -100*37 + 55*(-4) = {} (netlist agrees: {})",
        expected[&r].to_i64().expect("fits"),
        got[0] == expected[&r]
    );
    assert_eq!(got[0], expected[&r]);
    println!(
        "merged cluster pays one carry-propagate adder; unmerged pays {}.",
        run_flow(
            &g,
            MergeStrategy::None,
            &config,
            &mut Recorder::disabled(),
            &mut TraceLog::disabled()
        )
        .expect("synthesis")
        .clustering
        .len()
    );
}
