//! Telemetry determinism: the dp-obs event stream and the telemetry
//! levels must never make the flow less reproducible.
//!
//! Three contracts:
//!
//! 1. **Job-count independence** — the same designs produce a
//!    byte-identical `dpmc-events/1` stream whether benched on 1, 2 or 8
//!    workers: at [`Level::Counters`] exactly, at [`Level::Full`] after
//!    stripping the wall-time keys (`us`, `est_ns_per_visit`) — the
//!    allocation fields must survive the scrub *exactly*.
//! 2. **Level invariance** — for arbitrary machine-generated designs,
//!    QoR metrics and the trace-decision sequence are identical at
//!    `off`/`counters`/`full`: the level governs what is recorded, never
//!    what the flow does.
//! 3. **Degradation counters** — a guarded flow that falls back surfaces
//!    its `FALLBACK-*` tally in the `FlowMetrics` JSON (the bench-row
//!    `degradations` block), so no `dpmc explain` re-run is needed.

use datapath_merge::dfg::gen::{random_dfg, GenConfig};
use datapath_merge::driver::bench_design;
use datapath_merge::obs::{self, render_stream, trace_events, validate_stream, DesignEvents};
use datapath_merge::prelude::*;
use datapath_merge::serve::pool::run_slots;
use datapath_merge::testcases::{all_designs, figures};
use proptest::prelude::*;

// The same counting allocator the dpmc binary installs, so full-level
// streams here carry real alloc fields.
#[global_allocator]
static A: obs::CountingAlloc = obs::CountingAlloc::new();

fn designs() -> Vec<(String, Dfg)> {
    let mut v = vec![
        ("fig1".to_string(), figures::fig1().g),
        ("fig2".to_string(), figures::fig2().g),
        ("fig3".to_string(), figures::fig3().g),
    ];
    v.extend(all_designs().into_iter().take(2).map(|t| (t.name.to_string(), t.dfg)));
    v
}

/// Benches the fixed design set on `jobs` workers and renders the
/// merged event stream.
fn stream_at(jobs: usize, level: Level) -> String {
    obs::install();
    let lib = Library::synthetic_025um();
    let ds = designs();
    let results = run_slots(ds.len(), jobs, |i| {
        bench_design(&ds[i].0, &ds[i].1, &SynthConfig::default(), &lib, level)
    });
    let streams: Vec<DesignEvents> =
        results.into_iter().map(|r| r.expect("builtin designs bench cleanly").events).collect();
    render_stream(level, &streams)
}

/// Removes every `,"key":<digits>` occurrence — the wall-time scrub.
fn strip_key(s: &str, key: &str) -> String {
    let pat = format!(",\"{key}\":");
    let mut out = String::new();
    let mut rest = s;
    while let Some(i) = rest.find(&pat) {
        out.push_str(&rest[..i]);
        let after = &rest[i + pat.len()..];
        let end = after.find(|c: char| !c.is_ascii_digit()).unwrap_or(after.len());
        rest = &after[end..];
    }
    out.push_str(rest);
    out
}

#[test]
fn counters_stream_is_byte_identical_for_any_job_count() {
    let one = stream_at(1, Level::Counters);
    assert!(!one.contains("\"us\""), "counters stream carries no wall times");
    assert!(!one.contains("est_ns_per_visit"), "counters stream carries no sampled ns");
    assert_eq!(one, stream_at(2, Level::Counters), "jobs 1 vs 2");
    assert_eq!(one, stream_at(8, Level::Counters), "jobs 1 vs 8");
    let summary = validate_stream(&one).expect("stream validates");
    assert_eq!(summary.designs, designs().len());
    assert!(summary.events > 0);
}

#[test]
fn full_stream_is_identical_for_any_job_count_after_timing_scrub() {
    let scrub = |s: &str| strip_key(&strip_key(s, "us"), "est_ns_per_visit");
    let one_raw = stream_at(1, Level::Full);
    assert!(one_raw.contains("\"us\""), "full stream carries wall times");
    assert!(one_raw.contains("\"alloc_bytes\""), "full stream carries alloc deltas");
    let one = scrub(&one_raw);
    assert!(one.contains("\"alloc_bytes\""), "alloc fields survive the scrub exactly");
    assert_eq!(one, scrub(&stream_at(2, Level::Full)), "jobs 1 vs 2");
    assert_eq!(one, scrub(&stream_at(8, Level::Full)), "jobs 1 vs 8");
}

#[test]
fn degradations_counter_block_reaches_flow_metrics_json() {
    let g = figures::fig3().g;
    let mut budget = FlowBudget::default();
    // Starve the width pipeline so the guarded flow must retreat.
    budget.pipeline.max_rounds = 1;
    let mut rec = Recorder::new();
    let mut tr = TraceLog::new();
    let guarded = run_flow_guarded_with(
        &g,
        MergeStrategy::New,
        &SynthConfig::default(),
        &budget,
        None,
        &mut rec,
        &mut tr,
    )
    .expect("starved flow degrades instead of failing");
    let report = guarded.degradation.expect("round cap breached");
    assert!(!report.steps.is_empty());
    let json = guarded.flow.metrics.to_json().render();
    assert!(json.contains("\"degraded\":true"), "{json}");
    assert!(json.contains("\"degradations\":{\"FALLBACK-"), "{json}");
}

fn graph_strategy() -> impl Strategy<Value = (u64, usize, usize)> {
    (any::<u64>(), 2usize..5, 4usize..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn qor_and_trace_are_level_invariant((seed, num_inputs, num_ops) in graph_strategy()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0B57);
        let g = random_dfg(&mut rng, &GenConfig { num_inputs, num_ops, ..GenConfig::default() });

        let run_at = |level: Level| {
            let mut rec = Recorder::with_level(level);
            let mut tr = TraceLog::new();
            run_flow(&g, MergeStrategy::New, &SynthConfig::default(), &mut rec, &mut tr)
                .map(|flow| (flow.metrics.to_json().render(), trace_events(&tr)))
                .map_err(|e| e.to_string())
        };
        let off = run_at(Level::Off);
        prop_assert_eq!(&off, &run_at(Level::Counters), "off vs counters");
        prop_assert_eq!(&off, &run_at(Level::Full), "off vs full");
    }

    #[test]
    fn bench_event_streams_are_level_stable_for_random_designs(seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let g = random_dfg(&mut rng, &GenConfig { num_inputs: 3, num_ops: 8, ..GenConfig::default() });
        let lib = Library::synthetic_025um();
        let at = |level: Level| {
            bench_design("rand", &g, &SynthConfig::default(), &lib, level)
                .map(|o| render_stream(level, &[o.events]))
        };
        // The counters stream re-run must be byte-identical; the full
        // stream differs from it only by recorded detail, never by QoR
        // or trace content.
        if let (Ok(a), Ok(b)) = (at(Level::Counters), at(Level::Counters)) {
            prop_assert_eq!(a, b, "counters stream is run-stable");
        }
        if let (Ok(c), Ok(f)) = (at(Level::Counters), at(Level::Full)) {
            let pick = |s: &str, tag: &str| {
                s.lines()
                    .filter(|l| l.contains(&format!("\"ev\":\"{tag}\"")))
                    .map(String::from)
                    .collect::<Vec<_>>()
            };
            // The event sets align line-for-line, so the global seq
            // numbers agree too; QoR and trace lines must match exactly.
            prop_assert_eq!(pick(&c, "qor"), pick(&f, "qor"), "QoR identical across levels");
            prop_assert_eq!(pick(&c, "trace"), pick(&f, "trace"), "trace identical across levels");
        }
    }
}
