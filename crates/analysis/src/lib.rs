//! Required-precision and information-content analysis of datapath DFGs.
//!
//! This crate implements the analytical core of the DAC 2001 paper
//! *Improved Merging of Datapath Operators using Information Content and
//! Required Precision Analysis* (Mathur & Saluja):
//!
//! * **Required precision** (`r(p)`, Definition 4.1): for every port, how
//!   many least-significant bits of the signal any downstream output can
//!   actually observe. Computed by one reverse-topological sweep; used by
//!   the width-clamping transformation of Theorem 4.2.
//! * **Information content** (`⟨i, t⟩`, Definition 5.1): an upper bound
//!   stating the signal is always the `t`-extension of its `i` least
//!   significant bits. Exact computation is NP-hard (Theorem 5.3); the
//!   forward sweep here computes the paper's efficient upper bounds
//!   (Lemma 5.4) with a soundness fix for mixed-signedness operands
//!   documented in `DESIGN.md`.
//! * **Width pruning** using information content (Lemmas 5.6 and 5.7),
//!   inserting the paper's *extension nodes* where a node interface must
//!   be preserved.
//! * **Huffman rebalancing** (Theorem 5.10): the tightest information
//!   content bound achievable by re-associating a sum of constant
//!   multiples of inputs, computed with Huffman's minimum-redundancy
//!   combination order.
//!
//! All transformations are *functionally safe*: they never change the
//! value observed at any output for any input assignment. The test suite
//! enforces this against the bit-accurate evaluator of [`dp_dfg`].
//!
//! # Example
//!
//! ```
//! use dp_bitvec::Signedness;
//! use dp_dfg::{Dfg, OpKind};
//! use dp_analysis::{required_precision, optimize_widths};
//!
//! // Paper Figure 2: a 5-bit output makes every wider intermediate
//! // superfluous, so the widths collapse to 5.
//! let mut g = Dfg::new();
//! let a = g.input("A", 8);
//! let b = g.input("B", 8);
//! let n1 = g.op(OpKind::Add, 9, &[(a, Signedness::Signed), (b, Signedness::Signed)]);
//! let r = g.output("R", 5, n1, Signedness::Signed);
//! let rp = required_precision(&g);
//! assert_eq!(rp.output_port(n1), 5);
//! let report = optimize_widths(&mut g);
//! assert_eq!(g.node(n1).width(), 5);
//! assert!(report.node_width_changes >= 1);
//! # let _ = r;
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod huffman;
mod ic;
mod info;
mod pipeline;
mod precision;
mod profile;
mod prune;
mod worklist;

pub use huffman::{huffman_bound, naive_skewed_bound, Term};
pub use ic::Ic;
pub use info::{info_content, info_content_with, InfoAnalysis, IntrinsicOverrides};
pub use pipeline::{
    optimize_widths, optimize_widths_full_with, optimize_widths_rp_only_with, optimize_widths_with,
    BudgetBreach, Pass, PipelineBudget, RoundStats, TransformReport,
};
pub use precision::{required_precision, rp_transform, rp_transform_with, PrecisionAnalysis};
pub use profile::{kind_index, KindCounts, KIND_NAMES, NUM_KINDS};
pub use prune::{
    prune_edge_widths, prune_edge_widths_with, prune_node_widths, prune_node_widths_with,
};
