//! Byte framing for the store's three artifact granularities, plus the
//! cache-key fingerprints.
//!
//! Every artifact is expressed in **canonical coordinates** — node and
//! edge ids of the canonical twin `decode_canonical(encode_canonical(g))`
//! — so an artifact computed for one design is valid verbatim for every
//! isomorphic (node-id-permuted, alpha-renamed) resubmission:
//!
//! * `analysis` — the width-optimized graph, as its canonical bytes;
//! * `cluster` — the width-optimized graph plus the [`Clustering`]
//!   partitioning it (member/output/input-edge ids index that graph) and
//!   the intrinsic bounds it was decided under;
//! * `netlist` — the synthesized netlist in the exact `DPN1` wire format
//!   plus the synthesis counters that are not cheap to rederive.
//!
//! Decoders here never trust length fields beyond the buffer and never
//! panic; a malformed payload is a `String` error the service converts
//! into a quarantined cache miss.

use dp_analysis::{Ic, IntrinsicOverrides};
use dp_bitvec::Signedness;
use dp_dfg::{decode_canonical, Dfg, EdgeId, NodeId};
use dp_merge::{Cluster, Clustering};
use dp_synth::{AdderKind, CsaStats, MergeStrategy, ReductionKind, SynthConfig};

/// Renders the strategy component of cluster/netlist cache keys.
pub fn strategy_fingerprint(strategy: MergeStrategy) -> &'static str {
    match strategy {
        MergeStrategy::None => "none",
        MergeStrategy::Old => "old",
        MergeStrategy::New => "new",
    }
}

/// Renders the synthesis-config component of netlist cache keys. Every
/// field that changes the emitted gates must appear here — a config not
/// in the key would let one config's netlist answer another's request.
pub fn config_fingerprint(config: &SynthConfig) -> String {
    let adder = match config.adder {
        AdderKind::Ripple => "rca",
        AdderKind::CarrySelect => "csel",
        AdderKind::KoggeStone => "ks",
    };
    let reduction = match config.reduction {
        ReductionKind::Wallace => "wal",
        ReductionKind::Dadda => "dad",
    };
    let sx = if config.sign_ext_compression { "sx1" } else { "sx0" };
    format!("{adder}.{reduction}.{sx}")
}

/// Frames a cluster artifact: the canonical bytes of the graph the
/// clustering partitions, then the clustering itself — clusters, break
/// nodes, and its intrinsic bounds as `(node, i, t)` in ascending node
/// order.
pub fn encode_cluster_artifact(graph_bytes: &[u8], clustering: &Clustering) -> Vec<u8> {
    let mut out = Vec::with_capacity(graph_bytes.len() + 64);
    put_varint(&mut out, graph_bytes.len() as u64);
    out.extend_from_slice(graph_bytes);
    put_varint(&mut out, clustering.clusters.len() as u64);
    for c in &clustering.clusters {
        put_varint(&mut out, c.members.len() as u64);
        for &m in &c.members {
            put_varint(&mut out, m.index() as u64);
        }
        put_varint(&mut out, c.output.index() as u64);
        put_varint(&mut out, c.input_edges.len() as u64);
        for &e in &c.input_edges {
            put_varint(&mut out, e.index() as u64);
        }
    }
    put_varint(&mut out, clustering.break_nodes.len() as u64);
    for &b in &clustering.break_nodes {
        put_varint(&mut out, b.index() as u64);
    }
    let mut bounds: Vec<_> = clustering.overrides.iter().collect();
    bounds.sort_unstable_by_key(|b| b.0);
    put_varint(&mut out, bounds.len() as u64);
    for (n, ic) in bounds {
        put_varint(&mut out, n.index() as u64);
        put_varint(&mut out, ic.i as u64);
        out.push(ic.t.as_bit());
    }
    out
}

/// Decodes a cluster artifact and re-validates the clustering against the
/// decoded graph, so a corrupt-but-checksummed payload still cannot reach
/// synthesis.
///
/// # Errors
///
/// A description of the defect (truncation, id out of range, a bound no
/// signal can have, invariant violation). An artifact without the bounds
/// section — the layout before clusterings carried them — is truncated.
pub fn decode_cluster_artifact(bytes: &[u8]) -> Result<(Dfg, Clustering), String> {
    let mut d = Decoder { bytes, pos: 0 };
    let graph_len = d.length()?;
    let graph_bytes = d.slice(graph_len)?;
    let graph = decode_canonical(graph_bytes).map_err(|e| e.to_string())?;
    let num_clusters = d.length()?;
    let mut clusters = Vec::with_capacity(num_clusters.min(1 << 16));
    for _ in 0..num_clusters {
        let num_members = d.length()?;
        let mut members = Vec::with_capacity(num_members.min(1 << 16));
        for _ in 0..num_members {
            members.push(d.node(&graph)?);
        }
        let output = d.node(&graph)?;
        let num_inputs = d.length()?;
        let mut input_edges = Vec::with_capacity(num_inputs.min(1 << 16));
        for _ in 0..num_inputs {
            input_edges.push(d.edge(&graph)?);
        }
        clusters.push(Cluster { members, output, input_edges });
    }
    let num_breaks = d.length()?;
    let mut break_nodes = Vec::with_capacity(num_breaks.min(1 << 16));
    for _ in 0..num_breaks {
        break_nodes.push(d.node(&graph)?);
    }
    let num_bounds = d.length()?;
    let mut overrides = IntrinsicOverrides::with_capacity(num_bounds.min(1 << 16));
    for _ in 0..num_bounds {
        let n = d.node(&graph)?;
        let i = d.length()?;
        let t = match d.byte()? {
            0 => Signedness::Unsigned,
            1 if i > 0 => Signedness::Signed,
            b => return Err(format!("bound <{i},{b}> for node {n} is invalid at byte {}", d.pos)),
        };
        overrides.insert(n, Ic::new(i, t));
    }
    d.finish()?;
    let clustering = Clustering { clusters, break_nodes, overrides };
    clustering.validate(&graph).map_err(|e| format!("stored clustering invalid: {e}"))?;
    Ok((graph, clustering))
}

/// Frames a netlist artifact: the synthesis counters a warm response must
/// reproduce byte-for-byte, then the `DPN1` wire bytes.
pub fn encode_netlist_artifact(clusters: usize, csa: CsaStats, wire: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(wire.len() + 16);
    put_varint(&mut out, clusters as u64);
    put_varint(&mut out, csa.cpa_count as u64);
    put_varint(&mut out, csa.csa_depth as u64);
    out.extend_from_slice(wire);
    out
}

/// Splits a netlist artifact back into counters and wire bytes (the wire
/// bytes are decoded and verified by `dp_netlist::Netlist::from_bytes`).
///
/// # Errors
///
/// A description of the truncation.
pub fn decode_netlist_artifact(bytes: &[u8]) -> Result<(usize, CsaStats, &[u8]), String> {
    let mut d = Decoder { bytes, pos: 0 };
    let clusters = d.length()?;
    let cpa_count = d.length()?;
    let csa_depth = d.length()?;
    let wire = &bytes[d.pos..];
    Ok((clusters, CsaStats { csa_depth, cpa_count }, wire))
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bounds-checked reader over an artifact payload.
struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn byte(&mut self) -> Result<u8, String> {
        let b =
            *self.bytes.get(self.pos).ok_or_else(|| format!("truncated at byte {}", self.pos))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(format!("varint overflow at byte {}", self.pos))
    }

    /// A varint bounded by the remaining payload, usable as an element
    /// count without risking huge pre-allocations.
    fn length(&mut self) -> Result<usize, String> {
        let v = self.varint()?;
        if v > self.bytes.len() as u64 * 8 {
            return Err(format!("implausible length {v} at byte {}", self.pos));
        }
        Ok(v as usize)
    }

    fn slice(&mut self, len: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("truncated slice of {len} at byte {}", self.pos))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn node(&mut self, g: &Dfg) -> Result<NodeId, String> {
        let v = self.length()?;
        if v >= g.num_nodes() {
            return Err(format!("node id {v} out of range at byte {}", self.pos));
        }
        Ok(NodeId::from_index(v))
    }

    fn edge(&mut self, g: &Dfg) -> Result<EdgeId, String> {
        let v = self.length()?;
        if v >= g.num_edges() {
            return Err(format!("edge id {v} out of range at byte {}", self.pos));
        }
        Ok(EdgeId::from_index(v))
    }

    fn finish(&self) -> Result<(), String> {
        if self.pos != self.bytes.len() {
            return Err(format!("{} trailing byte(s) after artifact", self.bytes.len() - self.pos));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_bitvec::Signedness::Unsigned;
    use dp_dfg::{encode_canonical, OpKind};
    use dp_merge::cluster_max;

    fn canonical_twin_and_clustering() -> (Dfg, Clustering, Vec<u8>) {
        let mut g = Dfg::new();
        let a = g.input("a", 4);
        let b = g.input("b", 4);
        let c = g.input("c", 4);
        let d = g.input("d", 4);
        let m = g.op(OpKind::Mul, 8, &[(a, Unsigned), (b, Unsigned)]);
        // A skewed chain the Huffman refinement tightens (7 -> 6 bits).
        let s1 = g.op(OpKind::Add, 5, &[(a, Unsigned), (b, Unsigned)]);
        let s2 = g.op(OpKind::Add, 6, &[(s1, Unsigned), (c, Unsigned)]);
        let s3 = g.op(OpKind::Add, 7, &[(s2, Unsigned), (d, Unsigned)]);
        let s = g.op(OpKind::Add, 9, &[(m, Unsigned), (s3, Unsigned)]);
        g.output("r", 9, s, Unsigned);
        let mut gc = decode_canonical(&encode_canonical(&g)).expect("canonical twin");
        let (clustering, _) = cluster_max(&mut gc);
        let bytes = encode_canonical(&gc);
        (gc, clustering, bytes)
    }

    #[test]
    fn cluster_artifact_round_trips() {
        let (gc, clustering, graph_bytes) = canonical_twin_and_clustering();
        let framed = encode_cluster_artifact(&graph_bytes, &clustering);
        let (g2, c2) = decode_cluster_artifact(&framed).expect("decode");
        assert_eq!(format!("{gc:?}"), format!("{g2:?}"));
        assert_eq!(format!("{:?}", clustering.clusters), format!("{:?}", c2.clusters));
        assert_eq!(clustering.break_nodes, c2.break_nodes);
        assert!(!clustering.overrides.is_empty(), "the fixture carries refined bounds");
        assert_eq!(clustering.overrides, c2.overrides);
    }

    #[test]
    fn corrupt_cluster_artifacts_error_without_panicking() {
        let (_, clustering, graph_bytes) = canonical_twin_and_clustering();
        let framed = encode_cluster_artifact(&graph_bytes, &clustering);
        for cut in 0..framed.len() {
            assert!(decode_cluster_artifact(&framed[..cut]).is_err(), "truncation at {cut}");
        }
        for i in 0..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x41;
            // Must never panic; flips that survive decoding still passed
            // Clustering::validate against the decoded graph.
            let _ = decode_cluster_artifact(&bad);
        }
        let mut trailing = framed.clone();
        trailing.push(0);
        assert!(decode_cluster_artifact(&trailing).is_err());
        // The bounds section closes the artifact: each entry ends with
        // its discipline byte. A <0, signed> bound, an unknown
        // discipline and an out-of-range node are errors, not panics.
        for patch in [[0, 1], [0, 2]] {
            let mut bad = framed[..framed.len() - 2].to_vec();
            bad.extend_from_slice(&patch);
            let err = decode_cluster_artifact(&bad).expect_err("invalid bound");
            assert!(err.contains("invalid"), "{err}");
        }
        let (_, node_pos) = bounds_section(&framed, &clustering);
        let mut far = framed[..node_pos].to_vec();
        far.extend_from_slice(&[0x7f, 1, 0]);
        let err = decode_cluster_artifact(&far).expect_err("node out of range");
        assert!(err.contains("out of range"), "{err}");
        // The layout before clusterings carried bounds ends after the
        // break nodes: a truncated artifact, so the service's store
        // quarantines it as a miss.
        let (old_end, _) = bounds_section(&framed, &clustering);
        assert!(decode_cluster_artifact(&framed[..old_end]).is_err());
    }

    /// Byte offsets of the bounds section's count and first node id in a
    /// framed artifact whose bounds have single-byte fields.
    fn bounds_section(framed: &[u8], clustering: &Clustering) -> (usize, usize) {
        let entries = clustering.overrides.len();
        let count_at = framed.len() - 3 * entries - 1;
        (count_at, count_at + 1)
    }

    #[test]
    fn netlist_artifact_round_trips() {
        let csa = CsaStats { csa_depth: 3, cpa_count: 2 };
        let framed = encode_netlist_artifact(5, csa, b"DPN1-wire-bytes");
        let (clusters, csa2, wire) = decode_netlist_artifact(&framed).expect("decode");
        assert_eq!(clusters, 5);
        assert_eq!(csa2, csa);
        assert_eq!(wire, b"DPN1-wire-bytes");
        assert!(decode_netlist_artifact(&framed[..2]).is_err());
    }

    #[test]
    fn fingerprints_separate_every_config_axis() {
        let mut seen = std::collections::BTreeSet::new();
        for adder in [AdderKind::Ripple, AdderKind::CarrySelect, AdderKind::KoggeStone] {
            for reduction in [ReductionKind::Wallace, ReductionKind::Dadda] {
                for sx in [false, true] {
                    let fp = config_fingerprint(&SynthConfig {
                        adder,
                        reduction,
                        sign_ext_compression: sx,
                    });
                    assert!(seen.insert(fp), "fingerprint collision");
                }
            }
        }
        assert_eq!(seen.len(), 12);
        assert_eq!(strategy_fingerprint(MergeStrategy::New), "new");
    }
}
