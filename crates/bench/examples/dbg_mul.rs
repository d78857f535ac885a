use dp_bitvec::{BitVec, Signedness};
use dp_merge::{Addend, AddendKind, SignalRef};
use dp_synth::{synthesize_sum, AdderKind, ReductionKind, SynthConfig};

fn main() {
    // brute force small products through synthesize_sum directly
    for wa in 1..=4usize {
        for wb in 1..=4usize {
            for ta in [Signedness::Unsigned, Signedness::Signed] {
                for tb in [Signedness::Unsigned, Signedness::Signed] {
                    for wout in [wa + wb - 1, wa + wb, wa + wb + 3] {
                        for compress in [false, true] {
                            for neg in [false, true] {
                                // Build a fake graph so we have NodeIds: use a dfg with two inputs.
                                let mut g = dp_dfg::Dfg::new();
                                let a = g.input("a", wa);
                                let b = g.input("b", wb);
                                // dummy edge ids: create a mul so edges exist
                                let m = g.op(dp_dfg::OpKind::Mul, wout, &[(a, ta), (b, tb)]);
                                g.output("o", wout, m, Signedness::Unsigned);
                                let ea = g.in_edge_on_port(m, 0).unwrap();
                                let eb = g.in_edge_on_port(m, 1).unwrap();
                                let sum = dp_merge::SumOfAddends {
                                    addends: vec![Addend {
                                        negated: neg,
                                        shift: 0,
                                        kind: AddendKind::Product(
                                            SignalRef {
                                                source: a,
                                                edge: ea,
                                                bits: wa,
                                                signedness: ta,
                                            },
                                            SignalRef {
                                                source: b,
                                                edge: eb,
                                                bits: wb,
                                                signedness: tb,
                                            },
                                        ),
                                    }],
                                    output: m,
                                    width: wout,
                                };
                                for red in [ReductionKind::Wallace, ReductionKind::Dadda] {
                                    let mut nl = dp_netlist::Netlist::new();
                                    let mut signals = dp_synth::SignalTable::default();
                                    signals.insert(a, nl.input("a", wa));
                                    signals.insert(b, nl.input("b", wb));
                                    let cfg = SynthConfig {
                                        adder: AdderKind::Ripple,
                                        reduction: red,
                                        sign_ext_compression: compress,
                                    };
                                    let out = synthesize_sum(&mut nl, &sum, &signals, &cfg).0;
                                    nl.output("o", out);
                                    for xa in 0..(1u64 << wa) {
                                        for xb in 0..(1u64 << wb) {
                                            let va = BitVec::from_u64(wa, xa);
                                            let vb = BitVec::from_u64(wb, xb);
                                            let ia = if ta == Signedness::Signed {
                                                va.to_i64().unwrap()
                                            } else {
                                                xa as i64
                                            };
                                            let ib = if tb == Signedness::Signed {
                                                vb.to_i64().unwrap()
                                            } else {
                                                xb as i64
                                            };
                                            let mut want = (ia as i128) * (ib as i128);
                                            if neg {
                                                want = -want;
                                            }
                                            let wantv = BitVec::from_i64_wrapping(64, want as i64)
                                                .trunc(wout.min(64));
                                            let got =
                                                nl.simulate(&[va.clone(), vb.clone()]).unwrap();
                                            if got[0] != wantv {
                                                println!("FAIL wa={wa} ta={ta:?} wb={wb} tb={tb:?} wout={wout} neg={neg} compress={compress} red={red:?} a={xa} b={xb}: got {} want {}", got[0], wantv);
                                                return;
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    println!("all product combos ok");
}
