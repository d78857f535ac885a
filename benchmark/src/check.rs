//! The benchmark's own correctness check: every final netlist is
//! simulated on fixed vectors drawn from the benchmark seed and compared
//! with an independent evaluation of the design (`Dfg::evaluate`).
//!
//! The vectors come from the run's `--seed` mixed with [`CHECK_SALT`], a
//! stream distinct from the guarded flow's own audit seed (`0xD1FF`), so
//! the check does not merely repeat the audit the program already ran.

use dp_bitvec::BitVec;
use dp_dfg::gen::random_inputs;
use dp_dfg::Dfg;
use dp_netlist::Netlist;
use rand::{rngs::StdRng, SeedableRng};

/// Mixed into the run seed to draw the check vectors.
pub const CHECK_SALT: u64 = 0xC0FF_EE00_5EED_0001;

/// Vectors per design: one 64-lane word of the netlist simulator.
pub const CHECK_VECTORS: usize = 64;

/// A design's check vectors and its reference outputs.
pub struct Reference {
    lanes: Vec<Vec<BitVec>>,
    expect: Vec<Vec<BitVec>>,
}

impl Reference {
    /// Draws the vectors and evaluates `g` on each with `Dfg::evaluate`.
    pub fn new(g: &Dfg, seed: u64) -> Result<Reference, String> {
        let mut rng = StdRng::seed_from_u64(seed ^ CHECK_SALT);
        let lanes: Vec<Vec<BitVec>> =
            (0..CHECK_VECTORS).map(|_| random_inputs(g, &mut rng)).collect();
        let mut expect = Vec::with_capacity(lanes.len());
        for inputs in &lanes {
            let values = g.evaluate(inputs).map_err(|e| format!("evaluation failed: {e}"))?;
            expect.push(g.outputs().iter().map(|o| values[o].clone()).collect());
        }
        Ok(Reference { lanes, expect })
    }

    pub fn vectors(&self) -> usize {
        self.lanes.len()
    }

    /// `None` when `nl` matches the design on every vector, otherwise the
    /// first disagreement.
    pub fn check(&self, nl: &Netlist) -> Option<String> {
        if let Err(e) = nl.check() {
            return Some(format!("netlist check failed: {e}"));
        }
        self.compare(nl)
    }

    /// The simulation half of [`Reference::check`], for a netlist already
    /// known to be structurally sound.
    pub fn compare(&self, nl: &Netlist) -> Option<String> {
        let got = match nl.simulate_batch(&self.lanes) {
            Ok(v) => v,
            Err(e) => return Some(format!("simulation failed: {e}")),
        };
        for (k, (want, have)) in self.expect.iter().zip(&got).enumerate() {
            if want != have {
                return Some(format!("netlist differs from the design on check vector {k}"));
            }
        }
        None
    }
}

/// Plants a defect in a copy of `nl` — one gate input rewired to a
/// constant with [`Netlist::rewire_gate_input`] — and reports whether
/// [`Reference::check`] counts the copy as failed. Gates driving output
/// bits are tried first; `false` means no planted defect was caught,
/// i.e. the check itself is broken.
pub fn planted_defect_caught(nl: &Netlist, reference: &Reference) -> bool {
    let output_gates: Vec<_> = nl
        .outputs()
        .iter()
        .flat_map(|(_, bits)| bits.iter().filter_map(|&b| nl.driver_gate(b)))
        .take(16)
        .collect();
    for gate in output_gates {
        for constant in [false, true] {
            let mut broken = nl.clone();
            let net = if constant { broken.const1() } else { broken.const0() };
            broken.rewire_gate_input(gate, 0, net);
            if reference.check(&broken).is_some() {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_synth::{run_flow_guarded, FlowBudget, MergeStrategy, SynthConfig};

    #[test]
    fn rewired_netlist_is_counted_as_failed() {
        let g = dp_testcases::designs::d1();
        let flow = run_flow_guarded(
            &g,
            MergeStrategy::New,
            &SynthConfig::default(),
            &FlowBudget::default(),
        )
        .expect("D1 compiles");
        let reference = Reference::new(&g, 7).expect("D1 evaluates");
        assert!(reference.check(&flow.flow.netlist).is_none());
        assert!(planted_defect_caught(&flow.flow.netlist, &reference));
    }
}
