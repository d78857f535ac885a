//! The differential-audit oracle shared by the guarded flow and the
//! synthesis service: fixed-seed input vectors plus one reference
//! evaluation of a design, against which width-transformed graphs and
//! synthesized netlists are compared output position by output position.

use dp_bitvec::BitVec;
use dp_dfg::gen::random_inputs;
use dp_dfg::Dfg;
use dp_netlist::Netlist;
use rand::{rngs::StdRng, SeedableRng};

/// Fixed audit vectors and a design's reference outputs on them.
///
/// Every audit of one flow (or one service request) draws the *same*
/// vector stream, so the reference is evaluated once up front instead of
/// once per audit — at a hundred thousand nodes the repeated reference
/// evaluations cost more than the stages they guard.
///
/// Audits compare positionally: output `i` of a candidate is checked
/// against output `i` of the reference design. A width-transformed graph
/// keeps the design's ports, and a cached artifact built from the
/// design's canonical twin has the same interface up to port names, so
/// position is the one correspondence both callers share. Findings are
/// rendered as `"{subject} ..."`, with `output` naming the differing
/// output position.
#[derive(Debug, Clone)]
pub struct AuditOracle {
    /// Input widths of the reference design, in `Dfg::inputs` order.
    inputs: Vec<usize>,
    /// Output widths of the reference design, in `Dfg::outputs` order.
    outputs: Vec<usize>,
    /// One input vector per audit lane.
    lanes: Vec<Vec<BitVec>>,
    /// Per lane: the reference outputs, in `Dfg::outputs` order.
    expect: Vec<Vec<BitVec>>,
}

impl AuditOracle {
    /// Draws `vectors` input vectors for `base` from a generator seeded
    /// with `seed` and evaluates the (already validated) design on each.
    /// Zero vectors make the graph and netlist audits vacuous apart from
    /// their structural checks.
    ///
    /// # Errors
    ///
    /// Returns the rendered failure when the reference evaluation fails.
    pub fn new(base: &Dfg, seed: u64, vectors: usize) -> Result<AuditOracle, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let lanes: Vec<Vec<BitVec>> = (0..vectors).map(|_| random_inputs(base, &mut rng)).collect();
        let mut expect = Vec::with_capacity(lanes.len());
        for inputs in &lanes {
            let eval = base
                .evaluate_full_prevalidated(inputs)
                .map_err(|e| format!("reference evaluation failed: {e}"))?;
            expect.push(base.outputs().iter().map(|&o| eval.result(o).clone()).collect());
        }
        let inputs = base.inputs().iter().map(|&n| base.node(n).width()).collect();
        let outputs = base.outputs().iter().map(|&n| base.node(n).width()).collect();
        Ok(AuditOracle { inputs, outputs, lanes, expect })
    }

    /// Positional interface compatibility of `cand` with the reference
    /// design: port counts and widths. Returns the first mismatch.
    pub fn audit_interface(&self, cand: &Dfg, subject: &str) -> Option<String> {
        if cand.inputs().len() != self.inputs.len() || cand.outputs().len() != self.outputs.len() {
            return Some(format!("{subject} interface mismatch: port counts differ"));
        }
        for (k, (&n, w)) in cand.inputs().iter().zip(&self.inputs).enumerate() {
            if cand.node(n).width() != *w {
                return Some(format!("{subject} interface mismatch: input {k} width"));
            }
        }
        for (k, (&n, w)) in cand.outputs().iter().zip(&self.outputs).enumerate() {
            if cand.node(n).width() != *w {
                return Some(format!("{subject} interface mismatch: output {k} width"));
            }
        }
        None
    }

    /// Differential evaluation of a graph against the reference outputs.
    /// Returns the first mismatch, or the evaluation failure.
    pub fn audit_graph(
        &self,
        cand: &Dfg,
        subject: &str,
        output: impl Fn(usize) -> String,
    ) -> Option<String> {
        for (k, (inputs, expect)) in self.lanes.iter().zip(&self.expect).enumerate() {
            let got = match cand.evaluate_full_prevalidated(inputs) {
                Ok(v) => v,
                Err(e) => return Some(format!("{subject} evaluation failed: {e}")),
            };
            for (i, (&o, want)) in cand.outputs().iter().zip(expect).enumerate() {
                if got.result(o) != want {
                    return Some(format!(
                        "{subject} differs from design on vector {k} at output {}",
                        output(i)
                    ));
                }
            }
        }
        None
    }

    /// Structural check plus differential simulation of a netlist against
    /// the reference outputs; the whole lane batch evaluates in one
    /// word-parallel pass. Returns the first failure or mismatch.
    pub fn audit_netlist(
        &self,
        nl: &Netlist,
        subject: &str,
        output: impl Fn(usize) -> String,
    ) -> Option<String> {
        if let Err(e) = nl.check() {
            return Some(format!("{subject} check failed: {e}"));
        }
        let batch = match nl.simulate_batch(&self.lanes) {
            Ok(v) => v,
            Err(e) => return Some(format!("{subject} simulation failed: {e}")),
        };
        for (k, (expect, got)) in self.expect.iter().zip(&batch).enumerate() {
            if got.len() != expect.len() {
                return Some(format!("{subject} interface mismatch: output counts differ"));
            }
            for (i, (want, have)) in expect.iter().zip(got).enumerate() {
                if want != have {
                    return Some(format!(
                        "{subject} differs from design on vector {k} at output {}",
                        output(i)
                    ));
                }
            }
        }
        None
    }
}
