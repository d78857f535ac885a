//! Cluster and clustering types, extraction from a break set, validation.

use std::error::Error;
use std::fmt;

use dp_analysis::IntrinsicOverrides;
use dp_dfg::{Dfg, EdgeId, NodeId};

use crate::breaks::is_mergeable;

/// One cluster: a connected induced subgraph of mergeable nodes with a
/// unique output, synthesizable as a single sum of addends (Section 3).
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Member nodes (operators and extension nodes), in ascending id order.
    pub members: Vec<NodeId>,
    /// The unique member whose result leaves the cluster.
    pub output: NodeId,
    /// Edges from non-members into members, in ascending id order: the
    /// cluster's input signals.
    pub input_edges: Vec<EdgeId>,
}

impl Cluster {
    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the cluster has no members (never produced by the
    /// extraction; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Returns `true` if `n` is a member.
    pub fn contains(&self, n: NodeId) -> bool {
        self.members.binary_search(&n).is_ok()
    }
}

/// A partition of a DFG's mergeable nodes into clusters.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// The clusters, ordered by their smallest member id.
    pub clusters: Vec<Cluster>,
    /// The break nodes that induced the partition.
    pub break_nodes: Vec<NodeId>,
    /// The intrinsic information-content overrides (Huffman-refined
    /// bounds, Theorem 5.10) the partition was decided under. Synthesis
    /// linearizes with exactly these facts: a boundary claim re-derived
    /// under other bounds can disagree with the one the merge was proven
    /// safe for. Empty for strategies that refine nothing.
    pub overrides: IntrinsicOverrides,
}

impl Clustering {
    /// The cluster containing `n`, if `n` is a mergeable node.
    pub fn cluster_of(&self, n: NodeId) -> Option<&Cluster> {
        self.clusters.iter().find(|c| c.contains(n))
    }

    /// Total number of clusters — the count the paper's experiments aim to
    /// minimize (each costs one carry-propagate adder).
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Returns `true` if there are no clusters (graph without operators).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Checks the structural cluster invariants from Section 3 against the
    /// graph the clustering was computed on.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self, g: &Dfg) -> Result<(), ClusterError> {
        // Every mergeable node in exactly one cluster.
        let mut owner = vec![usize::MAX; g.num_nodes()];
        for (k, c) in self.clusters.iter().enumerate() {
            for &m in &c.members {
                if owner[m.index()] != usize::MAX {
                    return Err(ClusterError::Overlap { node: m });
                }
                owner[m.index()] = k;
            }
        }
        for n in g.node_ids() {
            if is_mergeable(g, n) && owner[n.index()] == usize::MAX {
                return Err(ClusterError::Unassigned { node: n });
            }
        }
        // The remaining checks test membership via `owner` (O(1) per node)
        // and share one scratch visit set across every per-cluster BFS: the
        // overlap check above proved the clusters disjoint, so a visited
        // mark never needs clearing between clusters. This keeps validation
        // O(nodes + edges) total instead of O(clusters × nodes).
        let mut seen = vec![false; g.num_nodes()];
        let mut stack = Vec::new();
        for (k, c) in self.clusters.iter().enumerate() {
            if owner[c.output.index()] != k {
                return Err(ClusterError::OutputNotMember { output: c.output });
            }
            // Unique output: no other member's result may leave the cluster.
            for &m in &c.members {
                let escapes =
                    g.node(m).out_edges().iter().any(|&e| owner[g.edge(e).dst().index()] != k);
                if escapes && m != c.output {
                    return Err(ClusterError::MultipleOutputs {
                        cluster_output: c.output,
                        also: m,
                    });
                }
            }
            // Connected induced subgraph (weakly, via internal edges).
            if !is_weakly_connected(g, c, k, &owner, &mut seen, &mut stack) {
                return Err(ClusterError::Disconnected { output: c.output });
            }
            // Input edge list is exactly the boundary.
            for &e in &c.input_edges {
                let edge = g.edge(e);
                if owner[edge.src().index()] == k || owner[edge.dst().index()] != k {
                    return Err(ClusterError::BadInputEdge { edge: e });
                }
            }
        }
        Ok(())
    }

    /// Cluster size histogram `(size, count)`, largest first — a compact
    /// summary for reports.
    pub fn size_histogram(&self) -> Vec<(usize, usize)> {
        let mut sizes: Vec<usize> = self.clusters.iter().map(Cluster::len).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let mut hist: Vec<(usize, usize)> = Vec::new();
        for s in sizes {
            match hist.last_mut() {
                Some((sz, n)) if *sz == s => *n += 1,
                _ => hist.push((s, 1)),
            }
        }
        hist
    }
}

/// BFS over the internal edges of cluster `k` (membership read from
/// `owner`). `seen` and `stack` are caller-owned scratch shared across the
/// disjoint clusters of one validation, so marks are never cleared.
fn is_weakly_connected(
    g: &Dfg,
    c: &Cluster,
    k: usize,
    owner: &[usize],
    seen: &mut [bool],
    stack: &mut Vec<NodeId>,
) -> bool {
    if c.members.is_empty() {
        return true;
    }
    stack.clear();
    stack.push(c.members[0]);
    seen[c.members[0].index()] = true;
    let mut count = 1;
    while let Some(n) = stack.pop() {
        let node = g.node(n);
        let neighbours = node
            .in_edges()
            .iter()
            .map(|&e| g.edge(e).src())
            .chain(node.out_edges().iter().map(|&e| g.edge(e).dst()));
        for m in neighbours {
            if owner[m.index()] == k && !seen[m.index()] {
                seen[m.index()] = true;
                count += 1;
                stack.push(m);
            }
        }
    }
    count == c.members.len()
}

/// A violated cluster invariant, from [`Clustering::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A node appears in two clusters.
    Overlap {
        /// The doubly-assigned node.
        node: NodeId,
    },
    /// A mergeable node belongs to no cluster.
    Unassigned {
        /// The orphaned node.
        node: NodeId,
    },
    /// A cluster's declared output is not among its members.
    OutputNotMember {
        /// The declared output.
        output: NodeId,
    },
    /// A member other than the output has fanout leaving the cluster.
    MultipleOutputs {
        /// The declared output.
        cluster_output: NodeId,
        /// The second escaping member.
        also: NodeId,
    },
    /// The members do not form a connected subgraph.
    Disconnected {
        /// Output of the offending cluster.
        output: NodeId,
    },
    /// An entry of `input_edges` is not a boundary edge.
    BadInputEdge {
        /// The offending edge.
        edge: EdgeId,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Overlap { node } => write!(f, "node {node} is in two clusters"),
            ClusterError::Unassigned { node } => write!(f, "node {node} is in no cluster"),
            ClusterError::OutputNotMember { output } => {
                write!(f, "cluster output {output} is not a member")
            }
            ClusterError::MultipleOutputs { cluster_output, also } => {
                write!(f, "cluster of {cluster_output} also escapes through {also}")
            }
            ClusterError::Disconnected { output } => {
                write!(f, "cluster of {output} is not connected")
            }
            ClusterError::BadInputEdge { edge } => {
                write!(f, "input edge {edge} is not a boundary edge")
            }
        }
    }
}

impl Error for ClusterError {}

/// Builds the clustering induced by a break set: connected components of
/// mergeable nodes after cutting every break node's out-edges (Section 6's
/// partition rule).
pub(crate) fn extract_clusters(g: &Dfg, breaks: &[bool]) -> Clustering {
    let mut parent: Vec<usize> = (0..g.num_nodes()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for e in g.edge_ids() {
        let edge = g.edge(e);
        let (s, d) = (edge.src(), edge.dst());
        if is_mergeable(g, s) && is_mergeable(g, d) && !breaks[s.index()] {
            let (rs, rd) = (find(&mut parent, s.index()), find(&mut parent, d.index()));
            parent[rs] = rd;
        }
    }
    // Group members by root with a dense root→slot table instead of a
    // BTreeMap: node ids iterate in ascending order, so each group's
    // members come out sorted and groups are created in ascending order
    // of their smallest member — exactly the final cluster order.
    let mut slot_of_root = vec![usize::MAX; g.num_nodes()];
    let mut groups: Vec<Vec<NodeId>> = Vec::new();
    for n in g.node_ids() {
        if is_mergeable(g, n) {
            let root = find(&mut parent, n.index());
            let slot = if slot_of_root[root] == usize::MAX {
                slot_of_root[root] = groups.len();
                groups.push(Vec::new());
                groups.len() - 1
            } else {
                slot_of_root[root]
            };
            groups[slot].push(n);
        }
    }
    let clusters: Vec<Cluster> =
        groups.into_iter().map(|members| finish_cluster(g, members)).collect();
    debug_assert!(clusters.windows(2).all(|w| w[0].members[0] < w[1].members[0]));
    let break_nodes = g.node_ids().filter(|n| breaks[n.index()]).collect();
    Clustering { clusters, break_nodes, overrides: IntrinsicOverrides::new() }
}

/// Builds a cluster from its final, sorted member list by locating the
/// unique escaping member and collecting the boundary edges.
fn finish_cluster(g: &Dfg, members: Vec<NodeId>) -> Cluster {
    let contains = |n: NodeId| members.binary_search(&n).is_ok();
    let mut output = None;
    for &m in &members {
        let escapes = g.node(m).out_edges().iter().any(|&e| !contains(g.edge(e).dst()))
            || g.node(m).out_edges().is_empty();
        if escapes {
            debug_assert!(output.is_none(), "cluster has two escaping members");
            output = Some(m);
        }
    }
    let output = output.unwrap_or(*members.last().expect("clusters are non-empty"));
    let mut input_edges = Vec::new();
    for &m in &members {
        for &e in g.node(m).in_edges() {
            if !contains(g.edge(e).src()) {
                input_edges.push(e);
            }
        }
    }
    input_edges.sort_unstable();
    Cluster { members, output, input_edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaks::find_breaks_new;
    use dp_analysis::info_content;
    use dp_bitvec::Signedness::*;
    use dp_dfg::OpKind;

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
    fn figure1_two_clusters() {
        let (g, n1, n2, n3) = figure1();
        let ic = info_content(&g);
        let breaks = find_breaks_new(&g, &ic);
        let clustering = extract_clusters(&g, &breaks);
        clustering.validate(&g).unwrap();
        assert_eq!(clustering.len(), 2);
        // G_I = {n1}, G_II = {n2, n3}.
        let c1 = clustering.cluster_of(n1).unwrap();
        assert_eq!(c1.members, vec![n1]);
        assert_eq!(c1.output, n1);
        let c2 = clustering.cluster_of(n3).unwrap();
        assert_eq!(c2.members, vec![n2, n3]);
        assert_eq!(c2.output, n3);
        // n1's truncated result arrives as a cluster input of G_II.
        assert_eq!(c2.input_edges.len(), 3);
        assert_eq!(clustering.break_nodes, vec![n1]);
    }

    #[test]
    fn histogram_and_lookup() {
        let (g, n1, _, _) = figure1();
        let ic = info_content(&g);
        let clustering = extract_clusters(&g, &find_breaks_new(&g, &ic));
        assert_eq!(clustering.size_histogram(), vec![(2, 1), (1, 1)]);
        assert!(clustering.cluster_of(n1).is_some());
        assert!(clustering.cluster_of(g.inputs()[0]).is_none());
        assert!(!clustering.is_empty());
    }

    #[test]
    fn validate_catches_multiple_outputs() {
        let (g, n1, n2, n3) = figure1();
        // Hand-build an invalid clustering: n1 grouped with n2/n3 although
        // n1 is a break node (its fanout escapes... actually n1 only feeds
        // n3 here, so build a different violation: claim output = n2).
        let bad = Clustering {
            clusters: vec![Cluster { members: vec![n1, n2, n3], output: n2, input_edges: vec![] }],
            break_nodes: vec![],
            overrides: IntrinsicOverrides::new(),
        };
        assert!(matches!(
            bad.validate(&g),
            Err(ClusterError::MultipleOutputs { .. }) | Err(ClusterError::OutputNotMember { .. })
        ));
    }

    #[test]
    fn validate_catches_unassigned() {
        let (g, n1, _, _) = figure1();
        let bad = Clustering {
            clusters: vec![Cluster { members: vec![n1], output: n1, input_edges: vec![] }],
            break_nodes: vec![],
            overrides: IntrinsicOverrides::new(),
        };
        assert!(matches!(bad.validate(&g), Err(ClusterError::Unassigned { .. })));
    }
}
