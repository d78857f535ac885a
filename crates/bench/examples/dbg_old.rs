use dp_analysis::{info_content, required_precision};
use dp_dfg::gen::{random_dfg, random_inputs, GenConfig};
use dp_merge::linearize_cluster;
use dp_metrics::Recorder;
use dp_synth::{run_flow, AdderKind, MergeStrategy, ReductionKind, SynthConfig, TraceLog};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn main() {
    let case: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(359);
    let mut rng = StdRng::seed_from_u64(case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let config = GenConfig {
        num_inputs: rng.gen_range(2..6),
        num_ops: rng.gen_range(3..24),
        p_signed: rng.gen_range(0.0..1.0),
        p_truncate: rng.gen_range(0.0..0.5),
        p_redundant: rng.gen_range(0.0..0.5),
        mul_weight: rng.gen_range(0.0..0.3),
        ..GenConfig::default()
    };
    let g = random_dfg(&mut rng, &config);
    let synth_config = SynthConfig {
        adder: if case.is_multiple_of(2) { AdderKind::KoggeStone } else { AdderKind::Ripple },
        reduction: if case.is_multiple_of(3) {
            ReductionKind::Wallace
        } else {
            ReductionKind::Dadda
        },
        sign_ext_compression: !case.is_multiple_of(5),
    };
    let flow = run_flow(
        &g,
        MergeStrategy::Old,
        &synth_config,
        &mut Recorder::disabled(),
        &mut TraceLog::disabled(),
    )
    .unwrap();
    for _ in 0..200 {
        let inputs = random_inputs(&g, &mut rng);
        let expect = g.evaluate(&inputs).unwrap();
        let got = flow.netlist.simulate(&inputs).unwrap();
        for (k, o) in g.outputs().iter().enumerate() {
            if got[k] != expect[o] {
                println!("MISMATCH out {k}: nl {} dfg {}", got[k], expect[o]);
                println!("inputs {:?}", inputs.iter().map(|x| x.to_string()).collect::<Vec<_>>());
                // find the guilty cluster: simulate each standalone
                let ic0 = info_content(&flow.graph);
                let eval0 = flow.graph.evaluate_full(&inputs).unwrap();
                let mut guilty = None;
                for cand in &flow.clustering.clusters {
                    let saf0 = linearize_cluster(&flow.graph, cand, &ic0).unwrap();
                    let mut nl2 = dp_netlist::Netlist::new();
                    let mut signals = dp_synth::SignalTable::default();
                    let mut sim_inputs = Vec::new();
                    let mut srcs: Vec<dp_dfg::NodeId> = Vec::new();
                    for a in &saf0.addends {
                        let refs: Vec<dp_merge::SignalRef> = match a.kind {
                            dp_merge::AddendKind::Signal(s) => vec![s],
                            dp_merge::AddendKind::Product(s, t) => vec![s, t],
                        };
                        for r in refs {
                            if !srcs.contains(&r.source) {
                                srcs.push(r.source);
                                let w = flow.graph.node(r.source).width();
                                signals.insert(r.source, nl2.input(format!("{}", r.source), w));
                                sim_inputs.push(eval0.result(r.source).clone());
                            }
                        }
                    }
                    let out2 = dp_synth::synthesize_sum(&mut nl2, &saf0, &signals, &synth_config).0;
                    nl2.output("o", out2);
                    let got2 = if sim_inputs.is_empty() {
                        // constant-only cluster
                        nl2.simulate(&[]).unwrap()
                    } else {
                        nl2.simulate(&sim_inputs).unwrap()
                    };
                    let rp0 = required_precision(&flow.graph);
                    let obs = rp0.output_port(cand.output).min(saf0.width).max(1);
                    if got2[0].trunc(obs) != eval0.result(cand.output).trunc(obs) {
                        println!(
                            "GUILTY cluster out {}: synth {} circuit {} (obs {obs})",
                            cand.output,
                            got2[0],
                            eval0.result(cand.output)
                        );
                        guilty = Some(cand.output);
                    }
                }
                println!("guilty: {:?}", guilty);
                let src = guilty
                    .unwrap_or_else(|| flow.graph.edge(flow.graph.node(*o).in_edges()[0]).src());
                let c = flow.clustering.cluster_of(src).unwrap();
                println!("cluster {:?} out {}", c.members, c.output);
                let ic = info_content(&flow.graph);
                let saf = linearize_cluster(&flow.graph, c, &ic).unwrap();
                let eval = flow.graph.evaluate_full(&inputs).unwrap();
                println!("SAF {} circuit {}", saf.evaluate(&eval), eval.result(c.output));
                let rp = required_precision(&flow.graph);
                println!("r_out {}", rp.output_port(c.output));
                for &m in &c.members {
                    println!(
                        "  {m} {:?} w {} intr {:?} out-claim {}",
                        flow.graph.node(m).kind(),
                        flow.graph.node(m).width(),
                        ic.intrinsic(m),
                        ic.output(m)
                    );
                }
                for ee in flow.graph.edge_ids() {
                    let ed = flow.graph.edge(ee);
                    if c.contains(ed.src()) || c.contains(ed.dst()) {
                        println!(
                            "  {ee}: {}->{} p{} w{} {}",
                            ed.src(),
                            ed.dst(),
                            ed.dst_port(),
                            ed.width(),
                            ed.signedness()
                        );
                    }
                }
                // standalone resynthesis of this cluster with live patterns
                let mut nl2 = dp_netlist::Netlist::new();
                let mut signals = dp_synth::SignalTable::default();
                let mut sim_inputs = Vec::new();
                let mut srcs: Vec<dp_dfg::NodeId> = Vec::new();
                for a in &saf.addends {
                    let refs: Vec<dp_merge::SignalRef> = match a.kind {
                        dp_merge::AddendKind::Signal(s) => vec![s],
                        dp_merge::AddendKind::Product(s, t) => vec![s, t],
                    };
                    for r in refs {
                        if !srcs.contains(&r.source) {
                            srcs.push(r.source);
                            let w = flow.graph.node(r.source).width();
                            signals.insert(r.source, nl2.input(format!("{}", r.source), w));
                            sim_inputs.push(eval.result(r.source).clone());
                            println!(
                                "  src {} pattern {} (ref bits {} t {})",
                                r.source,
                                eval.result(r.source),
                                r.bits,
                                r.signedness
                            );
                        }
                    }
                }
                let out2 = dp_synth::synthesize_sum(&mut nl2, &saf, &signals, &synth_config).0;
                nl2.output("o", out2);
                let got2 = nl2.simulate(&sim_inputs).unwrap();
                println!("standalone synth: {} vs SAF {}", got2[0], saf.evaluate(&eval));
                println!("{}", flow.graph.to_dot());
                return;
            }
        }
    }
    println!("no mismatch");
}
