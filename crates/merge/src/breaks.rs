//! Break-node identification (the four conditions of Section 6).

use dp_analysis::{required_precision, Ic, InfoAnalysis};
use dp_bitvec::Signedness::Unsigned;
use dp_dfg::{Dfg, EdgeId, NodeId, NodeKind, OpKind};
use dp_trace::{Rule, Subject, TraceLog};

/// Returns `true` for nodes that can be members of a cluster: operator
/// nodes and extension nodes (an extension node is pure wiring inside a
/// carry-save reduction tree).
pub fn is_mergeable(g: &Dfg, n: NodeId) -> bool {
    matches!(g.node(n).kind(), NodeKind::Op(_) | NodeKind::Extension(_))
}

/// What a mergeable node hands its consumers: the *exact information
/// width* it produces before its own width truncates it (Lemma 5.4's
/// intrinsic bound for operators, possibly Huffman-refined through `ic`;
/// the incoming-signal bound for extension nodes, which create no
/// information of their own), and the ⟨i, t⟩ claim its value is read by
/// (the intrinsic bound; for an extension node its output claim, its own
/// discipline already applied).
fn produced(g: &Dfg, ic: &InfoAnalysis, n: NodeId) -> (usize, Ic) {
    match g.node(n).kind() {
        NodeKind::Extension(_) => {
            let e = g.node(n).in_edges()[0];
            (ic.edge_signal(e).i, ic.output(n))
        }
        _ => {
            let intr = ic.intrinsic(n).expect("operator has an intrinsic bound");
            (intr.i, intr)
        }
    }
}

/// The one merge-safety rule, per edge: how many low bits of the exact
/// value of `e`'s (mergeable) source reach the consumer intact —
/// `usize::MAX` when all of them do — given the source's trust boundary.
///
/// Starting from the trust boundary, the damage is capped
/// - at `w(e)` when the edge truncates real information;
/// - at the current width when an extension step (the edge's, then the
///   consumer port's) uses a discipline that contradicts the value's
///   ⟨i, t⟩ — it fabricates upper bits;
/// - at `r = min(w(e), w(dst))` when the consumer reads the delivered
///   bits with a discipline (an extension node's own, else the edge's)
///   that is not exact for ⟨i, t⟩: unless `i = 0`, the disciplines match,
///   or `t` is unsigned with `i < r`, the consumer's reading differs from
///   the value above the delivered bits.
///
/// Returns the damage and the rule a break on it cites: `BREAK-SAFETY-2`
/// when a reinterpretation cap is the binding one, else `BREAK-SAFETY-1`.
fn edge_damage(g: &Dfg, ic: &InfoAnalysis, e: EdgeId, trust: usize) -> (usize, Rule) {
    let edge = g.edge(e);
    let (src, dst) = (edge.src(), edge.dst());
    let (i_exact, value) = produced(g, ic, src);
    let lost = if i_exact > edge.width() { trust.min(edge.width()) } else { trust };
    // The consumer port adapts with the edge discipline, except extension
    // nodes, which use their own (Definition 5.5).
    let dst_t = match g.node(dst).kind() {
        NodeKind::Extension(t) => *t,
        _ => edge.signedness(),
    };
    let mut misread = usize::MAX;
    let mut i = value.i;
    let mut cur = g.node(src).width();
    for (to, t_adapt) in [(edge.width(), edge.signedness()), (g.node(dst).width(), dst_t)] {
        if to <= cur {
            i = i.min(to); // truncation: strictness for later steps
        } else if t_adapt != value.t && !(value.t == Unsigned && i < cur) {
            misread = misread.min(cur);
        }
        cur = to;
    }
    let r = edge.width().min(g.node(dst).width());
    if i > 0 && dst_t != value.t && !(value.t == Unsigned && i < r) {
        misread = misread.min(r);
    }
    if misread < lost {
        (misread, Rule::BreakSafety2)
    } else {
        (lost, Rule::BreakSafety1)
    }
}

/// A node's *trust boundary*: the largest `d` such that its circuit
/// pattern agrees with a full re-derivation of its value from primary
/// signals modulo `2^d` (`usize::MAX` when they agree exactly). It is the
/// least `damage` over the node's internal in-edges (a left shift moves it
/// up), capped at `w(n)` when the node truncates its own `full` width.
///
/// Damage only carries across *internal* (would-be same cluster) edges: a
/// break node or primary signal arrives as a boundary addend — the
/// sum-of-addends form uses its pattern directly, so there is nothing to
/// diverge from.
fn node_trust(
    g: &Dfg,
    n: NodeId,
    breaks: &[bool],
    full: usize,
    damage: impl Fn(EdgeId, NodeId) -> usize,
) -> usize {
    let node = g.node(n);
    let mut t = node
        .in_edges()
        .iter()
        .filter_map(|&e| {
            let src = g.edge(e).src();
            (is_mergeable(g, src) && !breaks[src.index()]).then(|| damage(e, src))
        })
        .min()
        .unwrap_or(usize::MAX);
    if let NodeKind::Op(OpKind::Shl(k)) = node.kind() {
        t = t.saturating_add(*k as usize);
    }
    if full > node.width() {
        t = t.min(node.width());
    }
    t
}

/// Break-node detection for the **new** algorithm (Safety Conditions 1–2
/// and Synthesizability Conditions 1–2 of Section 6), given the
/// information-content analysis of the (already width-optimized) graph.
///
/// Safety is one per-edge damage rule (`edge_damage`) subsuming both
/// printed safety conditions (see `DESIGN.md` for the erratum
/// discussion): node `N` breaks if some consumer *requires* more bits
/// (required precision at the destination port) than reach it intact.
/// The same rule propagates each node's *trust boundary*: damage is
/// **transitive** — a consumer of a damaged or reinterpreted signal
/// inherits its boundary (a left shift moves it up), even if the consumer
/// itself truncates nothing. The paper's conditions only look one edge
/// deep; without the transitive closure, a damaged value laundered
/// through a width-matched intermediate node could be re-extended
/// downstream and break the sum-of-addends equivalence.
///
/// Returns one flag per node; non-mergeable nodes are never break nodes.
pub fn find_breaks_new(g: &Dfg, ic: &InfoAnalysis) -> Vec<bool> {
    find_breaks_new_with(g, ic, &mut TraceLog::disabled())
}

/// [`find_breaks_new`] with decision provenance: each break classification
/// emits a `BREAK-*` trace event naming the condition that fired
/// (`BREAK-SYNTH-1` multiplier operand, `BREAK-SAFETY-1` damage boundary
/// and `BREAK-SAFETY-2` value misread, both with `before` = surviving bits
/// and `after` = required bits, `BREAK-SYNTH-2` non-reconvergent fanout
/// with `before` = fanout degree), caused by the last decision about the
/// offending edge or the node itself.
pub fn find_breaks_new_with(g: &Dfg, ic: &InfoAnalysis, tr: &mut TraceLog) -> Vec<bool> {
    let rp = required_precision(g);
    let mut breaks = vec![false; g.num_nodes()];
    let mut trust = vec![usize::MAX; g.num_nodes()];
    // One topological pass: a node's trust depends only on upstream trust
    // and upstream break decisions (a break resets the damage its
    // consumers inherit — they switch to boundary addends), and its break
    // decision depends only on its own trust. Interleaving the two keeps
    // everything consistent without fixpoint iteration.
    for n in g.topo_order().expect("acyclic graph") {
        if !is_mergeable(g, n) {
            continue;
        }
        let node = g.node(n);
        let w_n = node.width();
        let t_n = node_trust(g, n, &breaks, produced(g, ic, n).0, |e, src| {
            edge_damage(g, ic, e, trust[src.index()]).0
        });
        trust[n.index()] = t_n;
        for &e in node.out_edges() {
            let dst = g.edge(e).dst();
            if !is_mergeable(g, dst) {
                continue; // boundary to an output: no merge anyway
            }
            let blame = tr.last_edge(e.index()).or_else(|| tr.last_node(n.index()));
            // Synthesizability Condition 1: nothing merges into a
            // multiplier operand.
            if g.node(dst).kind().op() == Some(OpKind::Mul) {
                breaks[n.index()] = true;
                tr.emit_caused(Rule::BreakSynth1, Subject::Node(n.index()), w_n, w_n, blame);
                break;
            }
            let (damage, rule) = edge_damage(g, ic, e, t_n);
            let required = rp.input_port(dst);
            if required > damage {
                breaks[n.index()] = true;
                tr.emit_caused(rule, Subject::Node(n.index()), damage, required, blame);
                break;
            }
        }
    }
    enforce_unique_outputs(g, &mut breaks, tr);
    breaks
}

/// Break-node detection for the **old** (leakage-of-bits) algorithm: a
/// purely width-structural criterion in the style of \[2\]. A node leaks
/// bits if its declared width truncates the full-precision width implied
/// by its operand edge widths; any extension of a leaked result downstream
/// forces a break. No required-precision or information-content analysis
/// is consulted, and no width transformation is assumed.
pub fn find_breaks_leakage(g: &Dfg) -> Vec<bool> {
    let mut breaks = vec![false; g.num_nodes()];
    let mut trust = vec![usize::MAX; g.num_nodes()];
    // Same single topological pass as the new analysis, with width-level
    // quantities in place of information content.
    for n in g.topo_order().expect("acyclic graph") {
        if !is_mergeable(g, n) {
            continue;
        }
        let w_n = g.node(n).width();
        let full = naive_full_width(g, n);
        // Width-level damage: an operand edge truncating its source's width.
        let t_n = node_trust(g, n, &breaks, full, |e, src| {
            let (ot, w_e) = (trust[src.index()], g.edge(e).width());
            if g.node(src).width().min(ot) > w_e {
                ot.min(w_e)
            } else {
                ot
            }
        });
        trust[n.index()] = t_n;
        for &e in g.node(n).out_edges() {
            let edge = g.edge(e);
            let dst = edge.dst();
            if !is_mergeable(g, dst) {
                continue;
            }
            if g.node(dst).kind().op() == Some(OpKind::Mul) {
                breaks[n.index()] = true;
                break;
            }
            // Leakage: width-level truncation boundary (transitive, like
            // the new analysis's trust boundary — any sound merger must
            // track laundered damage).
            let mut damage = t_n;
            if w_n.min(full).min(t_n) > edge.width() {
                damage = damage.min(edge.width());
            }
            // Any extension past the damage boundary is distrusted: the
            // old analysis has no notion of "superfluous" upper bits.
            let reach = edge.width().max(g.node(dst).width());
            if damage != usize::MAX && reach > damage {
                breaks[n.index()] = true;
                break;
            }
            // Extension with the wrong discipline for the result's naive
            // signedness reinterprets the value: any sound merger must
            // break here (the new algorithm can sometimes prove the
            // extension harmless via information content; the width-level
            // analysis cannot).
            if naive_value_misread(g, n, e) {
                breaks[n.index()] = true;
                break;
            }
        }
    }
    enforce_unique_outputs(g, &mut breaks, &mut TraceLog::disabled());
    breaks
}

/// Width-only counterpart of the new analysis's reinterpretation caps
/// (`edge_damage`): the result's signedness is derived purely from the
/// operator and its operand edge disciplines, and with no
/// information-content bound every extension step must match it exactly.
fn naive_value_misread(g: &Dfg, n: NodeId, e: EdgeId) -> bool {
    let edge = g.edge(e);
    let dst = edge.dst();
    let tv = naive_value_signedness(g, n);
    let dst_t = match g.node(dst).kind() {
        NodeKind::Extension(t) => *t,
        _ => edge.signedness(),
    };
    let mut cur = g.node(n).width();
    for (to, t_adapt) in [(edge.width(), edge.signedness()), (g.node(dst).width(), dst_t)] {
        if to > cur && t_adapt != tv {
            return true;
        }
        cur = to;
    }
    false
}

/// Naive signedness of an operator's result: subtraction and negation are
/// signed; addition and multiplication inherit the OR of their operand
/// edge disciplines; an extension node's result has its own discipline.
fn naive_value_signedness(g: &Dfg, n: NodeId) -> dp_bitvec::Signedness {
    use dp_bitvec::Signedness;
    let node = g.node(n);
    match node.kind() {
        NodeKind::Op(OpKind::Sub) | NodeKind::Op(OpKind::Neg) => Signedness::Signed,
        NodeKind::Op(_) => node
            .in_edges()
            .iter()
            .map(|&e| g.edge(e).signedness())
            .fold(Signedness::Unsigned, |a, b| a | b),
        NodeKind::Extension(t) => *t,
        _ => Signedness::Unsigned,
    }
}

/// Full-precision result width implied by declared operand edge widths
/// (what the leakage criterion compares against). Mixed-signedness
/// additive operands promote the unsigned side by one bit, mirroring the
/// soundness fix to Lemma 5.4 (an unsigned `w`-bit value needs `w + 1`
/// signed bits).
fn naive_full_width(g: &Dfg, n: NodeId) -> usize {
    use dp_bitvec::Signedness;
    let node = g.node(n);
    let operand = |port: usize| -> (usize, Signedness) {
        g.in_edge_on_port(n, port)
            .map(|e| (g.edge(e).width().min(node.width()), g.edge(e).signedness()))
            .unwrap_or((1, Signedness::Unsigned))
    };
    match node.kind() {
        NodeKind::Op(OpKind::Add) | NodeKind::Op(OpKind::Sub) => {
            let (w0, t0) = operand(0);
            let (w1, t1) = operand(1);
            let (w0, w1) = if t0 != t1 {
                // Mixed signedness: the unsigned operand costs a sign bit.
                (
                    w0 + usize::from(t0 == Signedness::Unsigned),
                    w1 + usize::from(t1 == Signedness::Unsigned),
                )
            } else {
                (w0, w1)
            };
            w0.max(w1) + 1
        }
        NodeKind::Op(OpKind::Mul) => operand(0).0 + operand(1).0,
        NodeKind::Op(OpKind::Neg) => operand(0).0 + 1,
        NodeKind::Op(OpKind::Shl(k)) => operand(0).0 + *k as usize,
        NodeKind::Extension(_) => operand(0).0,
        _ => node.width(),
    }
}

/// Synthesizability Condition 2: every multi-fanout node whose fanout does
/// not reconverge at a single node — without crossing a break node — must
/// itself break, or its cluster would have several outputs. Implemented
/// with post-dominators over the mergeable subgraph where break-node
/// out-edges are cut, iterated to a fixpoint (marking a node can invalidate
/// reconvergence upstream).
fn enforce_unique_outputs(g: &Dfg, breaks: &mut [bool], tr: &mut TraceLog) {
    loop {
        let pd = g
            .post_dominators_filtered(|n| is_mergeable(g, n), |e| !breaks[g.edge(e).src().index()]);
        let mut changed = false;
        for n in g.node_ids() {
            if breaks[n.index()] || !is_mergeable(g, n) {
                continue;
            }
            let has_internal_succ = g.node(n).out_edges().iter().any(|&e| {
                let edge = g.edge(e);
                !breaks[edge.src().index()] && is_mergeable(g, edge.dst())
            });
            if has_internal_succ && pd.ipdom(n).is_none() {
                breaks[n.index()] = true;
                changed = true;
                let fanout = g.node(n).out_edges().len();
                tr.emit(Rule::BreakSynth2, Subject::Node(n.index()), fanout, 1);
            }
        }
        if !changed {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_analysis::info_content;
    use dp_bitvec::Signedness::*;

    /// Paper Figure 1: a 7-bit truncation of a 9-bit sum, sign-extended
    /// back to 9 bits downstream.
    fn figure1() -> (Dfg, NodeId, NodeId, NodeId) {
        let mut g = Dfg::new();
        let a = g.input("A", 8);
        let b = g.input("B", 8);
        let c = g.input("C", 8);
        let d = g.input("D", 8);
        let n1 = g.op(OpKind::Add, 7, &[(a, Signed), (b, Signed)]);
        let n2 = g.op(OpKind::Add, 9, &[(c, Signed), (d, Signed)]);
        let n3 = g.op_with_edges(OpKind::Add, 9, &[(n1, 9, Signed), (n2, 9, Signed)]);
        g.output("R", 9, n3, Signed);
        (g, n1, n2, n3)
    }

    #[test]
    fn figure1_truncation_breaks_n1() {
        let (g, n1, n2, n3) = figure1();
        let ic = info_content(&g);
        let breaks = find_breaks_new(&g, &ic);
        assert!(breaks[n1.index()], "n1 truncates 9 significant bits to 7");
        assert!(!breaks[n2.index()]);
        assert!(!breaks[n3.index()]);
    }

    #[test]
    fn figure1_leakage_agrees() {
        let (g, n1, n2, n3) = figure1();
        let breaks = find_breaks_leakage(&g);
        assert!(breaks[n1.index()]);
        assert!(!breaks[n2.index()]);
        assert!(!breaks[n3.index()]);
    }

    #[test]
    fn narrow_output_defuses_the_break() {
        // Figure 2: with a 5-bit output the same truncation is harmless for
        // the new analysis (r = 5 everywhere <= damage boundary 7).
        let mut g = Dfg::new();
        let a = g.input("A", 8);
        let b = g.input("B", 8);
        let c = g.input("C", 8);
        let n1 = g.op(OpKind::Add, 7, &[(a, Signed), (b, Signed)]);
        let n3 = g.op_with_edges(OpKind::Add, 9, &[(n1, 9, Signed), (c, 9, Signed)]);
        g.output("R", 5, n3, Signed);
        let ic = info_content(&g);
        let breaks = find_breaks_new(&g, &ic);
        assert!(!breaks[n1.index()], "5-bit requirement makes bits 5..9 superfluous");
        // The width-only criterion still breaks.
        let old = find_breaks_leakage(&g);
        assert!(old[n1.index()]);
    }

    #[test]
    fn multiplier_operand_forces_break() {
        let mut g = Dfg::new();
        let a = g.input("a", 4);
        let b = g.input("b", 4);
        let s = g.op(OpKind::Add, 5, &[(a, Unsigned), (b, Unsigned)]);
        let m = g.op(OpKind::Mul, 10, &[(s, Unsigned), (b, Unsigned)]);
        g.output("o", 10, m, Unsigned);
        let ic = info_content(&g);
        assert!(find_breaks_new(&g, &ic)[s.index()]);
        assert!(find_breaks_leakage(&g)[s.index()]);
        // The multiplier itself can merge downstream.
        assert!(!find_breaks_new(&g, &ic)[m.index()]);
    }

    #[test]
    fn non_reconvergent_fanout_breaks() {
        // s feeds two separate output chains: it must break.
        let mut g = Dfg::new();
        let a = g.input("a", 4);
        let b = g.input("b", 4);
        let s = g.op(OpKind::Add, 5, &[(a, Unsigned), (b, Unsigned)]);
        let x = g.op(OpKind::Add, 6, &[(s, Unsigned), (a, Unsigned)]);
        let y = g.op(OpKind::Add, 6, &[(s, Unsigned), (b, Unsigned)]);
        g.output("o1", 6, x, Unsigned);
        g.output("o2", 6, y, Unsigned);
        let ic = info_content(&g);
        let breaks = find_breaks_new(&g, &ic);
        assert!(breaks[s.index()]);
        assert!(!breaks[x.index()] && !breaks[y.index()]);
    }

    #[test]
    fn reconvergent_fanout_merges() {
        // Diamond: s fans out to x and y which rejoin in z: one cluster.
        let mut g = Dfg::new();
        let a = g.input("a", 4);
        let b = g.input("b", 4);
        let s = g.op(OpKind::Add, 6, &[(a, Unsigned), (b, Unsigned)]);
        let x = g.op(OpKind::Add, 7, &[(s, Unsigned), (a, Unsigned)]);
        let y = g.op(OpKind::Add, 7, &[(s, Unsigned), (b, Unsigned)]);
        let z = g.op(OpKind::Add, 8, &[(x, Unsigned), (y, Unsigned)]);
        g.output("o", 8, z, Unsigned);
        let ic = info_content(&g);
        let breaks = find_breaks_new(&g, &ic);
        assert!(!breaks[s.index()] && !breaks[x.index()] && !breaks[y.index()]);
    }

    #[test]
    fn fanout_to_output_and_operator_breaks() {
        // s is observed by a primary output *and* consumed downstream: it
        // must terminate its own cluster.
        let mut g = Dfg::new();
        let a = g.input("a", 4);
        let b = g.input("b", 4);
        let s = g.op(OpKind::Add, 5, &[(a, Unsigned), (b, Unsigned)]);
        let t = g.op(OpKind::Add, 6, &[(s, Unsigned), (a, Unsigned)]);
        g.output("tap", 5, s, Unsigned);
        g.output("o", 6, t, Unsigned);
        let ic = info_content(&g);
        assert!(find_breaks_new(&g, &ic)[s.index()]);
    }

    #[test]
    fn edge_level_truncation_detected() {
        // The node is wide enough, but the edge truncates and the consumer
        // re-extends: same bottleneck, on the edge.
        let mut g = Dfg::new();
        let a = g.input("a", 8);
        let b = g.input("b", 8);
        let s = g.op(OpKind::Add, 9, &[(a, Signed), (b, Signed)]);
        let t = g.op_with_edges(OpKind::Add, 9, &[(s, 6, Signed), (a, 8, Signed)]);
        g.output("o", 9, t, Signed);
        let ic = info_content(&g);
        assert!(find_breaks_new(&g, &ic)[s.index()]);
    }
}
