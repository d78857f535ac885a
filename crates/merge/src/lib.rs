//! Operator-merging clustering of datapath DFGs (Section 6 of the paper).
//!
//! Partitions a data-flow graph into **clusters**, each synthesizable as a
//! single sum of addends (one carry-save reduction tree plus one final
//! carry-propagate adder). Three strategies are provided:
//!
//! * [`cluster_none`] — no merging: every operator is its own cluster.
//!   The paper's "No mg" baseline.
//! * [`cluster_leakage`] — the *old* algorithm: mergeability decided by a
//!   leakage-of-bits width criterion in the style of Kim/Jao/Tjiang
//!   (DAC 1998), with no required-precision or information-content
//!   transformations. The paper's "Old mg" baseline.
//! * [`cluster_max`] — the paper's new iterative algorithm: the graph is
//!   first width-optimized ([`dp_analysis::optimize_widths`]), break nodes
//!   are identified from required precision and information content, and
//!   clusters are repeatedly re-refined with Huffman rebalancing
//!   (Theorem 5.10) until a fixpoint of maximal clusters is reached.
//!
//! Every strategy returns a [`Clustering`] whose invariants (connected
//! induced subgraphs with a unique output; multiplier operands are cluster
//! inputs) are checked by [`Clustering::validate`] and exercised by the
//! property tests.
//!
//! # Example
//!
//! ```
//! use dp_bitvec::Signedness::Signed;
//! use dp_dfg::{Dfg, OpKind};
//! use dp_merge::{cluster_leakage, cluster_max};
//!
//! // Paper Figure 3: the old analysis sees a truncate-then-extend and
//! // breaks the graph in two; information content proves it whole.
//! let mut g = Dfg::new();
//! let a = g.input("A", 3);
//! let b = g.input("B", 3);
//! let c = g.input("C", 3);
//! let d = g.input("D", 3);
//! let e = g.input("E", 9);
//! let n1 = g.op(OpKind::Add, 8, &[(a, Signed), (b, Signed)]);
//! let n2 = g.op(OpKind::Add, 8, &[(c, Signed), (d, Signed)]);
//! let n3 = g.op(OpKind::Add, 8, &[(n1, Signed), (n2, Signed)]);
//! let n4 = g.op_with_edges(OpKind::Add, 9, &[(n3, 9, Signed), (e, 9, Signed)]);
//! g.output("R", 10, n4, Signed);
//!
//! assert_eq!(cluster_leakage(&g).clusters.len(), 2);
//! let mut g2 = g.clone();
//! let (clustering, _report) = cluster_max(&mut g2);
//! assert_eq!(clustering.clusters.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod addends;
mod algo;
mod breaks;
mod cluster;

pub use addends::{
    linearize_cluster, linearize_member, Addend, AddendKind, LinearizeError, SignalRef,
    SumOfAddends,
};
pub use algo::{cluster_leakage, cluster_max, cluster_none, refine_clusters_with, MergeReport};
pub use breaks::{find_breaks_leakage, find_breaks_new, find_breaks_new_with, is_mergeable};
pub use cluster::{Cluster, ClusterError, Clustering};
