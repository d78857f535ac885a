//! Synthesis of one cluster from its sum-of-addends normal form.

use dp_bitvec::Signedness;
use dp_merge::{AddendKind, SignalRef, SumOfAddends};
use dp_netlist::{NetId, Netlist};

use crate::adders::{carry_select_add, kogge_stone_add, reduce_to_two_rows, ripple_carry_add};
use crate::product::{emit_product, emit_signal, Operand};
use crate::{AdderKind, Columns, SignalTable, SynthConfig};

/// Per-cluster synthesis statistics — the QoR counters one call to
/// [`synthesize_sum`] contributes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SumStats {
    /// Carry-save reduction stages performed (0 when the columns already
    /// fit in two rows, or for wiring-only sums).
    pub csa_stages: usize,
    /// Whether a final carry-propagate adder was instantiated (wiring-only
    /// sums pay none).
    pub used_cpa: bool,
}

/// Synthesizes a sum of addends into gates, returning the output bits
/// (width `sum.width`, least significant first) and the cluster's
/// [`SumStats`].
///
/// `signals` maps every external source node referenced by the sum to its
/// already-synthesized bit nets (the full source width; the sum taps the
/// low bits it needs).
///
/// A sum consisting of a single non-negated signal addend degenerates to
/// pure wiring — no gates are emitted (this is what extension-node
/// clusters and output-side resizes cost: nothing).
///
/// # Panics
///
/// Panics if a referenced source node is missing from `signals`.
pub fn synthesize_sum(
    nl: &mut Netlist,
    sum: &SumOfAddends,
    signals: &SignalTable,
    config: &SynthConfig,
) -> (Vec<NetId>, SumStats) {
    let operand_of = |nl: &mut Netlist, s: &SignalRef| -> Operand {
        let source =
            signals.get(s.source).expect("every signal source is synthesized before its readers");
        let live = s.bits.min(source.len());
        let _ = nl;
        Operand { bits: source[..live].to_vec(), signedness: s.signedness }
    };

    // Degenerate case: one positive unshifted signal addend is wiring.
    if sum.addends.len() == 1 && !sum.addends[0].negated && sum.addends[0].shift == 0 {
        if let AddendKind::Signal(s) = sum.addends[0].kind {
            let op = operand_of(nl, &s);
            let bits = (0..sum.width).map(|k| op_bit(nl, &op, k)).collect();
            return (bits, SumStats::default());
        }
    }

    let mut cols = Columns::new(sum.width);
    for addend in &sum.addends {
        match addend.kind {
            AddendKind::Signal(s) => {
                let op = operand_of(nl, &s);
                emit_signal(
                    nl,
                    &mut cols,
                    &op,
                    addend.negated,
                    addend.shift,
                    config.sign_ext_compression,
                );
            }
            AddendKind::Product(s, t) => {
                let a = operand_of(nl, &s);
                let b = operand_of(nl, &t);
                emit_product(
                    nl,
                    &mut cols,
                    &a,
                    &b,
                    addend.negated,
                    addend.shift,
                    config.sign_ext_compression,
                );
            }
        }
    }
    let (ra, rb, csa_stages) = reduce_to_two_rows(nl, cols, config.reduction);
    let zero = nl.const0();
    let bits = match config.adder {
        AdderKind::Ripple => ripple_carry_add(nl, &ra, &rb, zero),
        AdderKind::CarrySelect => carry_select_add(nl, &ra, &rb, zero),
        AdderKind::KoggeStone => kogge_stone_add(nl, &ra, &rb, zero),
    };
    (bits, SumStats { csa_stages, used_cpa: true })
}

/// Bit `k` of an operand (live bits, then fill per discipline).
fn op_bit(nl: &mut Netlist, op: &Operand, k: usize) -> NetId {
    if k < op.bits.len() {
        op.bits[k]
    } else if op.bits.is_empty() || op.signedness == Signedness::Unsigned {
        nl.const0()
    } else {
        *op.bits.last().expect("non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_analysis::info_content;
    use dp_bitvec::{BitVec, Signedness::*};
    use dp_dfg::{Dfg, OpKind};
    use dp_merge::{cluster_max, linearize_cluster};

    /// End-to-end check of one cluster: build a DFG, cluster it, hand the
    /// inputs to the netlist, synthesize the single cluster and compare
    /// against the DFG evaluator.
    #[test]
    fn single_cluster_matches_evaluator() {
        let mut g = Dfg::new();
        let a = g.input("a", 4);
        let b = g.input("b", 4);
        let c = g.input("c", 4);
        let m = g.op(OpKind::Mul, 8, &[(a, Signed), (b, Signed)]);
        let s = g.op(OpKind::Sub, 9, &[(m, Signed), (c, Signed)]);
        g.output("o", 9, s, Signed);
        let (clustering, _) = cluster_max(&mut g);
        assert_eq!(clustering.len(), 1);
        let ic = info_content(&g);
        let sum = linearize_cluster(&g, &clustering.clusters[0], &ic).unwrap();

        let mut nl = Netlist::new();
        let mut signals = SignalTable::default();
        signals.insert(a, nl.input("a", 4));
        signals.insert(b, nl.input("b", 4));
        signals.insert(c, nl.input("c", 4));
        let (out, _) = synthesize_sum(&mut nl, &sum, &signals, &SynthConfig::default());
        nl.output("o", out);
        nl.check().unwrap();

        for x in [-8i64, -3, 0, 5, 7] {
            for y in [-8i64, -1, 0, 2, 7] {
                for z in [-8i64, 0, 7] {
                    let inputs = vec![
                        BitVec::from_i64(4, x),
                        BitVec::from_i64(4, y),
                        BitVec::from_i64(4, z),
                    ];
                    let expect = g.evaluate(&inputs).unwrap();
                    let got = nl.simulate(&inputs).unwrap();
                    assert_eq!(got[0].to_i64(), expect[&g.outputs()[0]].to_i64(), "{x}*{y}-{z}");
                }
            }
        }
    }

    #[test]
    fn wiring_shortcut_emits_no_gates() {
        // An extension-node cluster: sign-extend a 4-bit input to 8 bits.
        let mut g = Dfg::new();
        let a = g.input("a", 4);
        let ext = g.extension(8, Signed, a, 4, Unsigned);
        g.output("o", 8, ext, Unsigned);
        let (clustering, _) = cluster_max(&mut g);
        assert_eq!(clustering.len(), 1);
        let ic = info_content(&g);
        let sum = linearize_cluster(&g, &clustering.clusters[0], &ic).unwrap();

        let mut nl = Netlist::new();
        let mut signals = SignalTable::default();
        signals.insert(a, nl.input("a", 4));
        let (out, _) = synthesize_sum(&mut nl, &sum, &signals, &SynthConfig::default());
        nl.output("o", out);
        assert_eq!(nl.num_gates(), 0, "extension is wiring, not logic");
        let got = nl.simulate(&[BitVec::from_i64(4, -3)]).unwrap();
        assert_eq!(got[0].to_i64(), Some(-3));
    }
}
