//! Datapath synthesis: clusters of operators become carry-save reduction
//! trees with a single final carry-propagate adder.
//!
//! This crate implements the synthesis scheme the paper's evaluation is
//! built on (after Kim/Jao/Tjiang \[2\] and Um/Kim/Liu \[4\]\[5\]):
//!
//! 1. every cluster from [`dp_merge`] is linearized to a **sum of
//!    addends** (signals and partial products of signals);
//! 2. the addends' bits are dropped into weight-indexed **columns**;
//! 3. a carry-save reduction tree ([Wallace][ReductionKind::Wallace] or
//!    [Dadda][ReductionKind::Dadda]) compresses the columns to two rows
//!    using full/half adders built from library gates;
//! 4. one final **carry-propagate adder** ([ripple][AdderKind::Ripple] or
//!    [Kogge-Stone][AdderKind::KoggeStone]) produces the cluster output.
//!
//! Multipliers contribute their partial products directly to the enclosing
//! cluster's columns (signed operands handled by two's-complement row
//! negation — the Baugh-Wooley family of tricks), which is precisely why
//! merging pays: a merged cluster has *one* carry-propagate adder total,
//! while unmerged synthesis pays one per operator.
//!
//! The top-level entry point is [`synthesize_with`], which turns a DFG plus
//! a clustering into a gate-level [`dp_netlist::Netlist`] whose ports match
//! the DFG's inputs and outputs bit-for-bit; [`run_flow`] and
//! [`run_flow_guarded`] wrap clustering and synthesis into one flow.
//!
//! # Example
//!
//! ```
//! use dp_bitvec::{BitVec, Signedness::Unsigned};
//! use dp_dfg::{Dfg, OpKind};
//! use dp_merge::cluster_max;
//! use dp_metrics::Recorder;
//! use dp_synth::{synthesize_with, SynthConfig};
//!
//! // a*b + c*d — the paper's flagship sum-of-products example.
//! let mut g = Dfg::new();
//! let a = g.input("a", 4);
//! let b = g.input("b", 4);
//! let c = g.input("c", 4);
//! let d = g.input("d", 4);
//! let m1 = g.op(OpKind::Mul, 8, &[(a, Unsigned), (b, Unsigned)]);
//! let m2 = g.op(OpKind::Mul, 8, &[(c, Unsigned), (d, Unsigned)]);
//! let s = g.op(OpKind::Add, 9, &[(m1, Unsigned), (m2, Unsigned)]);
//! g.output("r", 9, s, Unsigned);
//!
//! let (clustering, _) = cluster_max(&mut g);
//! let (netlist, _) =
//!     synthesize_with(&g, &clustering, &SynthConfig::default(), &mut Recorder::disabled())
//!         .unwrap();
//! let out = netlist.simulate(&[
//!     BitVec::from_u64(4, 5),
//!     BitVec::from_u64(4, 7),
//!     BitVec::from_u64(4, 3),
//!     BitVec::from_u64(4, 9),
//! ]).unwrap();
//! assert_eq!(out[0].to_u64(), Some(5 * 7 + 3 * 9));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod adders;
mod cluster;
mod columns;
mod flow;
mod guard;
mod oracle;
mod product;
mod signals;

pub use adders::{carry_select_add, kogge_stone_add, ripple_carry_add};
pub use cluster::{synthesize_sum, SumStats};
pub use columns::Columns;
/// The provenance sink every flow entry point takes, re-exported so
/// callers that only drive flows need no direct `dp-trace` dependency.
pub use dp_trace::TraceLog;
pub use flow::{
    run_flow, synthesize_watched, synthesize_with, CsaStats, FlowResult, MergeStrategy, SynthError,
};
pub use guard::{
    run_flow_guarded, run_flow_guarded_with, Degradation, DegradationReport, Fallback, FlowBudget,
    FlowFault, GuardedFlow,
};
pub use oracle::AuditOracle;
pub use signals::SignalTable;

/// Final carry-propagate adder architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AdderKind {
    /// Linear-depth ripple-carry adder (smallest).
    Ripple,
    /// Blocked carry-select adder (area/delay compromise).
    CarrySelect,
    /// Logarithmic-depth Kogge-Stone parallel-prefix adder (fastest).
    #[default]
    KoggeStone,
}

/// Carry-save reduction discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReductionKind {
    /// Wallace: reduce every column as aggressively as possible each
    /// stage.
    Wallace,
    /// Dadda: reduce just enough to meet the next Dadda height each stage
    /// (fewer adder cells).
    #[default]
    Dadda,
}

/// Synthesis configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthConfig {
    /// Final adder architecture.
    pub adder: AdderKind,
    /// Reduction tree discipline.
    pub reduction: ReductionKind,
    /// Compress materialized sign-extension runs in the carry-save
    /// columns into one inverted bit plus a folded constant (the standard
    /// array-multiplier trick). On by default; exposed for the ablation
    /// bench.
    pub sign_ext_compression: bool,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            adder: AdderKind::default(),
            reduction: ReductionKind::default(),
            sign_ext_compression: true,
        }
    }
}
