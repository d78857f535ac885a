//! `serve-mix`: one client in a closed loop against `dp_serve::Service`.
//!
//! Each request is one `Service::serve_lines` call carrying a design as
//! DSL text. The service runs with one worker, an inline-source parser and
//! a fresh on-disk store per pass. The seeded stream draws from a pool of
//! medium designs: first sightings are misses that write the store,
//! repeats are netlist hits, a known design with a new adder is a cluster
//! hit, and a share of the repeats renames the ports. Parsing, canonical
//! hashing, store reads and writes, wire decoding and the per-hit audit
//! dominate; these layers are idle in the other workloads.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::time::Instant;

use datapath_merge::dsl::{parse_design, to_dsl};
use dp_dfg::gen::{random_dfg, GenConfig};
use dp_dfg::{canonical_form, decode_canonical, encode_canonical, Dfg};
use dp_metrics::{Json, Recorder};
use dp_netlist::Netlist;
use dp_serve::codec::{
    config_fingerprint, decode_cluster_artifact, decode_netlist_artifact, encode_cluster_artifact,
    encode_netlist_artifact, strategy_fingerprint,
};
use dp_serve::{ArtifactKind, ServeOptions, Service, Store};
use dp_synth::{
    run_flow_guarded, synthesize_with, AdderKind, FlowBudget, MergeStrategy, SynthConfig,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::calib::Calibration;
use crate::check::{planted_defect_caught, Reference};
use crate::flow::{check_traced, SETUP_KERNELS};
use crate::report::Outcome;
use crate::stats::{another_pass, geomean, peak_rss_mb, share, Samples};
use crate::trace::Tracer;
use crate::Opts;

/// Designs in the pool, their operator counts spread evenly over 100–600.
const POOL: usize = 80;

/// Requests per pass.
const REQUESTS: usize = 320;

/// Kernel samples after each request (see `calib`).
const KERNELS: usize = 2;

/// Times the set-up is repeated; its median is `setup_s`.
const SETUP_REPS: usize = 11;

/// Mixed into the seed for the request stream.
const STREAM_SALT: u64 = 0x5EB7_E000;

fn pool_config(k: usize) -> GenConfig {
    let ops = 100 + 500 * k / (POOL - 1);
    GenConfig {
        num_ops: ops,
        num_inputs: (ops / 10).max(4),
        mul_weight: 0.1,
        ..GenConfig::default()
    }
}

/// One request of the stream.
struct Request {
    id: usize,
    design: usize,
    strategy: MergeStrategy,
    adder: AdderKind,
    /// The design's first sighting (new-merge, default adder).
    intro: bool,
    /// Sent with renamed ports.
    renamed: bool,
}

/// The pool's designs, their DSL texts (as generated and with renamed
/// ports) and the request stream.
struct Workload {
    designs: Vec<Dfg>,
    texts: Vec<[String; 2]>,
    stream: Vec<Request>,
}

impl Workload {
    fn text(&self, req: &Request) -> &str {
        &self.texts[req.design][usize::from(req.renamed)]
    }

    /// The request line sent to the service.
    fn line(&self, req: &Request) -> String {
        let strategy = if req.strategy == MergeStrategy::New { "new" } else { "old" };
        Json::obj()
            .field("id", format!("r{}", req.id))
            .field("source", self.text(req))
            .field("strategy", strategy)
            .field("adder", adder_name(req.adder))
            .render()
    }
}

impl Request {
    fn config(&self) -> SynthConfig {
        SynthConfig { adder: self.adder, ..SynthConfig::default() }
    }

    /// The answer a repeat must reproduce exactly.
    fn key(&self) -> (usize, &'static str, &'static str) {
        (self.design, strategy_fingerprint(self.strategy), adder_name(self.adder))
    }
}

fn adder_name(a: AdderKind) -> &'static str {
    match a {
        AdderKind::Ripple => "ripple",
        AdderKind::CarrySelect => "carry-select",
        AdderKind::KoggeStone => "kogge-stone",
    }
}

/// Renames every primary input and output (`i<k>`, `o<k>`) of a design's
/// DSL text: the same structure under other port names.
fn rename_ports(text: &str) -> String {
    let rename = |token: &str| -> String {
        let (name, rest) = token.split_once(':').map_or((token, None), |(n, r)| (n, Some(r)));
        let port = name.len() > 1
            && (name.starts_with('i') || name.starts_with('o'))
            && name[1..].bytes().all(|b| b.is_ascii_digit());
        let name = if port { format!("port_{name}") } else { name.to_string() };
        rest.map_or(name.clone(), |r| format!("{name}:{r}"))
    };
    text.lines()
        .map(|line| line.split(' ').map(rename).collect::<Vec<_>>().join(" "))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The pool and the request stream. Design `j` is first requested at
/// position `j · REQUESTS / POOL` (new-merge, default adder); every other
/// position repeats an already-introduced design with a random strategy
/// (mostly new-merge), adder and port naming.
fn generate(seed: u64, t: &mut Tracer) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let designs: Vec<Dfg> = (0..POOL)
        .map(|k| {
            t.design(k);
            t.span("dfg.gen", |_| random_dfg(&mut rng, &pool_config(k)))
        })
        .collect();
    let texts: Vec<[String; 2]> = designs
        .iter()
        .map(|g| {
            let text = to_dsl(g);
            let renamed = rename_ports(&text);
            [text, renamed]
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ STREAM_SALT);
    let mut stream = Vec::with_capacity(REQUESTS);
    let mut introduced = 0;
    for k in 0..REQUESTS {
        let intro = introduced < POOL && k * POOL >= introduced * REQUESTS;
        let (design, strategy, adder, renamed) = if intro {
            introduced += 1;
            (introduced - 1, MergeStrategy::New, AdderKind::KoggeStone, false)
        } else {
            let strategy = if rng.gen_bool(0.85) { MergeStrategy::New } else { MergeStrategy::Old };
            let adder = match rng.gen_range(0..5) {
                0 => AdderKind::Ripple,
                1 => AdderKind::CarrySelect,
                _ => AdderKind::KoggeStone,
            };
            (rng.gen_range(0..introduced), strategy, adder, rng.gen_bool(0.3))
        };
        stream.push(Request { id: k, design, strategy, adder, intro, renamed });
    }
    Workload { designs, texts, stream }
}

/// A fresh, empty store directory inside the benchmark's output tree.
fn store_dir(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("store-{}-{tag}", std::process::id()))
}

/// Opens a fresh store in `dir`.
fn fresh_store(dir: &Path) -> Result<Store, String> {
    let _ = std::fs::remove_dir_all(dir);
    Store::open(dir).map_err(|e| format!("store: {e}"))
}

/// Design, DSL and stream generation plus store creation: one `setup_s`
/// sample.
fn setup(seed: u64) -> Result<(Workload, f64), String> {
    let start = Instant::now();
    let workload = generate(seed, &mut Tracer::new());
    let dir = store_dir("setup");
    drop(fresh_store(&dir)?);
    let secs = start.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&dir).map_err(|e| format!("store cleanup: {e}"))?;
    Ok((workload, secs))
}

fn service(store: Store) -> Service {
    Service::new(ServeOptions { jobs: 1, ..ServeOptions::default() })
        .with_store(store)
        .with_parser(Box::new(|text| parse_design(text).map_err(|e| e.to_string())))
}

/// The fields of a response line the benchmark checks.
#[derive(Clone, PartialEq)]
struct Answer {
    gates: i64,
    delay_ns: f64,
    area: f64,
}

struct Response {
    outcome: String,
    hash: String,
    answer: Answer,
}

fn parse_response(out: &[u8]) -> Result<Response, String> {
    let text = String::from_utf8_lossy(out);
    let line = text.lines().next().ok_or("empty response")?;
    let doc = Json::parse(line).map_err(|e| format!("bad response: {e}"))?;
    let str_of = |j: Option<&Json>| j.and_then(Json::as_str).unwrap_or("").to_string();
    let cache = doc.get("cache");
    Ok(Response {
        outcome: str_of(doc.get("outcome")),
        hash: str_of(cache.and_then(|c| c.get("key"))),
        answer: Answer {
            gates: doc.get("gates").and_then(Json::as_i64).unwrap_or(-1),
            delay_ns: doc.get("delay_ns").and_then(Json::as_f64).unwrap_or(f64::NAN),
            area: doc.get("area").and_then(Json::as_f64).unwrap_or(f64::NAN),
        },
    })
}

fn netlist_key(hash: &str, strategy: MergeStrategy, config: &SynthConfig) -> String {
    format!("{hash}-{}-{}", strategy_fingerprint(strategy), config_fingerprint(config))
}

/// The canonical twin the service compiles, and its check vectors.
fn canonical_reference(g: &Dfg, seed: u64) -> Result<(Dfg, Reference), String> {
    let gc = decode_canonical(&encode_canonical(g)).map_err(|e| format!("canonical: {e}"))?;
    let reference = Reference::new(&gc, seed)?;
    Ok((gc, reference))
}

/// Bytes under `dir`, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Latencies and counters of the untraced passes.
#[derive(Default)]
struct Measured {
    /// Adjusted latencies (see `calib`).
    request_ms: Samples,
    hit_ms: Samples,
    miss_ms: Samples,
    /// Each request's latencies as measured.
    per_request: Vec<Samples>,
    nodes: usize,
    degraded: u64,
    hits: u64,
    answered: u64,
    /// Per pass: the service's and the store's counters.
    counters: Vec<BTreeMap<String, u64>>,
    /// New-merge QoR of each design's first request, from the first pass.
    qor: Vec<(f64, f64)>,
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut setup_s = Samples::default();
    let mut cal = Calibration::new();
    let mut m = Measured {
        per_request: (0..REQUESTS).map(|_| Samples::default()).collect(),
        ..Measured::default()
    };
    let mut expected: BTreeMap<(usize, &str, &str), Answer> = BTreeMap::new();
    let mut references: BTreeMap<usize, (Dfg, Reference)> = BTreeMap::new();

    let mut workload = None;
    for _ in 0..SETUP_REPS {
        let (w, secs) = setup(opts.seed)?;
        cal.sample(SETUP_KERNELS);
        setup_s.push(cal.adjust(secs));
        workload = Some(w);
    }
    let w = workload.as_ref().ok_or("no set-up")?;
    let (designs, stream) = (&w.designs, &w.stream);

    // A traced run repeats the stream at least once, so the service's
    // counters can be compared across passes.
    let (budget, min_passes) = if opts.trace { (opts.seconds / 2, 2) } else { (opts.seconds, 1) };
    let start = Instant::now();
    let mut pass = 0;
    while another_pass(start, pass, min_passes, budget) {
        let dir = store_dir(&format!("pass{pass}"));
        let svc = service(fresh_store(&dir)?);
        let mut counters = BTreeMap::new();
        let mut answers = Vec::with_capacity(stream.len());
        for (k, req) in stream.iter().enumerate() {
            let line = w.line(req);
            let mut buf = Vec::new();
            let t0 = Instant::now();
            let stats = svc
                .serve_lines(Cursor::new(line.as_bytes()), &mut buf)
                .map_err(|e| format!("serve: {e}"))?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            cal.sample(KERNELS);
            let adjusted = cal.adjust(ms);
            m.request_ms.push(adjusted);
            m.per_request[k].push(ms);
            m.nodes += designs[req.design].num_nodes();
            let hit = stats.hits() > 0;
            if hit {
                m.hit_ms.push(adjusted);
                m.hits += 1;
            } else if stats.misses > 0 {
                m.miss_ms.push(adjusted);
            }
            for (name, n) in [
                ("serve.hits_netlist", stats.hits_netlist),
                ("serve.hits_cluster", stats.hits_cluster),
                ("serve.hits_analysis", stats.hits_analysis),
                ("serve.misses", stats.misses),
            ] {
                *counters.entry(name.to_string()).or_insert(0) += n;
            }
            m.answered += 1;
            answers.push(parse_response(&buf)?);
        }
        let store_stats = svc.store_stats().unwrap_or_default();
        drop(svc);
        counters.insert("serve.quarantined".into(), store_stats.quarantined);
        counters.insert("serve.store_bytes".into(), dir_bytes(&dir));
        m.counters.push(counters);

        // Check every answer: the outcome, repeats against the first
        // answer for the same request, and each stored netlist against
        // the design.
        let mut store = Store::open(&dir).map_err(|e| format!("store reopen: {e}"))?;
        for (k, (req, resp)) in stream.iter().zip(&answers).enumerate() {
            let what = format!("serve-mix pass {pass} request {k}");
            let failure = check_answer(
                opts.seed,
                req,
                resp,
                designs,
                &mut store,
                &mut references,
                &mut expected,
            );
            if resp.outcome == "degraded" {
                m.degraded += 1;
            }
            if pass == 0 && req.intro {
                m.qor.push((resp.answer.delay_ns, resp.answer.area));
            }
            out.tally(&what, failure);
        }
        drop(store);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("store cleanup: {e}"))?;
        pass += 1;
    }

    let delays: Vec<f64> = m.qor.iter().map(|q| q.0).collect();
    let areas: Vec<f64> = m.qor.iter().map(|q| q.1).collect();
    out.set("setup_s", setup_s.median());
    out.set("compile_ms_p50", m.miss_ms.median());
    if let Some(p90) = m.miss_ms.p90() {
        out.set("compile_ms_p90", p90);
    }
    out.set("request_ms_p50", m.request_ms.median());
    if let Some(p90) = m.request_ms.p90() {
        out.set("request_ms_p90", p90);
    }
    out.set("hit_ms_p50", m.hit_ms.median());
    out.set("hit_rate", share(m.hits, m.answered));
    out.set("serve.hit_miss_ratio", m.hit_ms.median() / m.miss_ms.median());
    out.set("nodes_per_s", m.nodes as f64 / (m.request_ms.sum() / 1e3));
    out.set("delay_ns_geomean", geomean(&delays));
    out.set("area_geomean", geomean(&areas));
    out.set("fallback_share", share(m.degraded, m.answered));
    out.set("compiles", m.miss_ms.len() as f64);
    out.set("calib.kernel_ms", cal.kernel_ms());

    let (gc, reference) = &references[&stream[0].design];
    let flow =
        run_flow_guarded(gc, MergeStrategy::New, &SynthConfig::default(), &FlowBudget::default())
            .map_err(|e| e.to_string())?;
    if !planted_defect_caught(&flow.flow.netlist, reference) {
        eprintln!("self-test: a rewired netlist passed the check");
        out.correct = false;
    }

    if opts.trace {
        if let Some(first) = m.counters.first() {
            if m.counters.iter().any(|c| c != first) {
                eprintln!("serve counters differ between passes: {:?}", m.counters);
                out.correct = false;
            }
            for (name, &n) in first {
                out.set(name, n as f64);
            }
        }
        traced(opts, w, &m.per_request, &mut out)?;
    }
    out.set_fail_share();
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// Checks one answer; `None` when it is right.
fn check_answer(
    seed: u64,
    req: &Request,
    resp: &Response,
    designs: &[Dfg],
    store: &mut Store,
    references: &mut BTreeMap<usize, (Dfg, Reference)>,
    expected: &mut BTreeMap<(usize, &'static str, &'static str), Answer>,
) -> Option<String> {
    if resp.outcome != "ok" && resp.outcome != "degraded" {
        return Some(format!("outcome {}", resp.outcome));
    }
    if let Some(first) = expected.get(&req.key()) {
        if *first != resp.answer {
            return Some("answer differs from the first answer to the same request".into());
        }
    }
    expected.insert(req.key(), resp.answer.clone());
    let (gc, reference) = match references.get(&req.design) {
        Some(r) => r,
        None => match canonical_reference(&designs[req.design], seed) {
            Ok(r) => references.entry(req.design).or_insert(r),
            Err(e) => return Some(e),
        },
    };
    let netlist = if resp.outcome == "ok" {
        // Healthy answers are stored: check the stored netlist.
        let key = netlist_key(&resp.hash, req.strategy, &req.config());
        let Some(payload) = store.get(ArtifactKind::Netlist, &key) else {
            return Some(format!("no stored netlist under {key}"));
        };
        match decode_netlist_artifact(&payload)
            .and_then(|(_, _, wire)| Netlist::from_bytes(wire).map_err(|e| e.to_string()))
        {
            Ok(nl) => nl,
            Err(e) => return Some(format!("stored netlist undecodable: {e}")),
        }
    } else {
        // Degraded answers are not stored: recompute the same flow.
        match run_flow_guarded(gc, req.strategy, &req.config(), &FlowBudget::default()) {
            Ok(f) => f.flow.netlist,
            Err(e) => return Some(format!("flow error: {e}")),
        }
    };
    if i64::try_from(netlist.num_gates()).ok() != Some(resp.answer.gates) {
        return Some("answer's gate count differs from its netlist".into());
    }
    reference.check(&netlist)
}

/// The traced half: the same stream replayed against the layers the
/// service calls — parser, canonical form, store, codec, guarded flow,
/// synthesis and the netlist audit — each inside a span.
fn traced(
    opts: &Opts,
    w: &Workload,
    untraced: &[Samples],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut t = Tracer::new();
    let _ = generate(opts.seed, &mut t);
    let mut traced_ms: Vec<Samples> = (0..REQUESTS).map(|_| Samples::default()).collect();
    let mut passes = Vec::new();
    let start = Instant::now();
    while another_pass(start, passes.len() as u32, 2, opts.seconds / 2) {
        let dir = store_dir(&format!("replay{}", passes.len()));
        let mut store = fresh_store(&dir)?;
        for (k, req) in w.stream.iter().enumerate() {
            t.design(req.design);
            let t0 = Instant::now();
            let failure = t.span("request", |t| replay(t, opts.seed, w.text(req), req, &mut store));
            traced_ms[k].push(t0.elapsed().as_secs_f64() * 1e3);
            out.tally(&format!("serve-mix replay request {k}"), failure);
        }
        drop(store);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("store cleanup: {e}"))?;
        passes.push(t.take_counters());
    }
    out.set_overhead(untraced, &traced_ms);
    out.set_layers(t, &passes);
    Ok(())
}

/// One request, layer by layer, in the service's order.
fn replay(
    t: &mut Tracer,
    seed: u64,
    text: &str,
    req: &Request,
    store: &mut Store,
) -> Option<String> {
    let g = match t.span("serve.parse", |_| parse_design(text)) {
        Ok(g) => g,
        Err(e) => return Some(format!("parse: {e}")),
    };
    let (form, gc) =
        t.span("dfg.canonical", |_| (canonical_form(&g), decode_canonical(&encode_canonical(&g))));
    let Ok(gc) = gc else { return Some("canonical decode failed".into()) };
    let reference = match t.span("dfg.evaluate", |_| Reference::new(&gc, seed)) {
        Ok(r) => r,
        Err(e) => return Some(e),
    };
    let config = req.config();
    let key = netlist_key(&form.hash, req.strategy, &config);
    let cluster_key = format!("{}-{}", form.hash, strategy_fingerprint(req.strategy));
    if let Some(payload) = t.span("serve.store_get", |_| store.get(ArtifactKind::Netlist, &key)) {
        let decoded = t.span("netlist.decode", |_| {
            decode_netlist_artifact(&payload)
                .and_then(|(_, _, wire)| Netlist::from_bytes(wire).map_err(|e| e.to_string()))
        });
        t.count("serve.replay_netlist_hits", 1);
        return match decoded {
            Ok(nl) => check_traced(t, &nl, &reference),
            Err(e) => Some(e),
        };
    }
    if let Some(payload) =
        t.span("serve.store_get", |_| store.get(ArtifactKind::Cluster, &cluster_key))
    {
        let Ok((graph, clustering)) = decode_cluster_artifact(&payload) else {
            return Some("stored clustering undecodable".into());
        };
        let synthesized = t.span("synth.synthesize", |_| {
            synthesize_with(&graph, &clustering, &config, &mut Recorder::disabled())
        });
        let (nl, csa) = match synthesized {
            Ok(v) => v,
            Err(e) => return Some(e.to_string()),
        };
        t.count("serve.replay_cluster_hits", 1);
        let failure = check_traced(t, &nl, &reference);
        let artifact = encode_netlist_artifact(clustering.len(), csa, &nl.to_bytes());
        t.span("serve.store_put", |_| store.put(ArtifactKind::Netlist, &key, &artifact)).ok();
        return failure;
    }
    let flow = match t.span("synth.guarded_flow", |_| {
        run_flow_guarded(&gc, req.strategy, &config, &FlowBudget::default())
    }) {
        Ok(f) => f,
        Err(e) => return Some(format!("flow error: {e}")),
    };
    t.count("serve.replay_misses", 1);
    let failure = check_traced(t, &flow.flow.netlist, &reference);
    if flow.degradation.is_none() {
        let f = &flow.flow;
        let csa =
            dp_synth::CsaStats { csa_depth: f.metrics.csa_depth, cpa_count: f.metrics.cpa_count };
        let netlist = encode_netlist_artifact(f.metrics.clusters, csa, &f.netlist.to_bytes());
        // As the service does: a clustering is stored only when the
        // flow's graph is already in canonical node order.
        let canonical =
            canonical_form(&f.graph).order.iter().enumerate().all(|(i, n)| n.index() == i);
        let cluster =
            canonical.then(|| encode_cluster_artifact(&encode_canonical(&f.graph), &f.clustering));
        t.span("serve.store_put", |_| {
            store.put(ArtifactKind::Netlist, &key, &netlist)?;
            match &cluster {
                Some(c) => store.put(ArtifactKind::Cluster, &cluster_key, c),
                None => Ok(false),
            }
        })
        .ok();
    } else {
        t.count("synth.fallbacks", 1);
    }
    failure
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renamed_ports_keep_the_structure() {
        let designs = generate(3, &mut Tracer::new()).designs;
        let text = to_dsl(&designs[0]);
        let renamed = parse_design(&rename_ports(&text)).expect("renamed text parses");
        assert_ne!(rename_ports(&text), text);
        assert_eq!(canonical_form(&renamed).hash, canonical_form(&designs[0]).hash);
    }
}
