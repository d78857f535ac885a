//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <wide-add|mul-table2|serve-mix> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process, generated from
//! the seed, for about `--seconds` of measurement. Every output netlist is
//! checked against an independent evaluation of its design. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones (see `benchmark/README.md`).

mod calib;
mod check;
mod flow;
mod mul_table2;
mod report;
mod serve_mix;
mod stats;
mod trace;
mod wide_add;

use std::process::ExitCode;
use std::time::Duration;

use dp_obs::CountingAlloc;

use report::{Outcome, END_TO_END, PER_LAYER};

// The `dpmc` binary counts every allocation; the benchmark runs the
// program under the same allocator.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Command-line options of one benchmark run.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match opts.workload.as_str() {
        "wide-add" => wide_add::run(&opts),
        "mul-table2" => mul_table2::run(&opts),
        "serve-mix" => serve_mix::run(&opts),
        other => Err(format!("unknown workload {other:?}")),
    };
    match outcome {
        Ok(outcome) => {
            print_result(&opts, outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes the spans (traced runs) and prints the result line.
fn print_result(opts: &Opts, mut outcome: Outcome) {
    if let Some(tracer) = &outcome.tracer {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-{}.jsonl", opts.workload, opts.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| tracer.write_jsonl(&opts.workload, &mut std::io::BufWriter::new(f)));
        match written {
            Ok(()) => eprintln!("spans: {}", path.display()),
            Err(e) => eprintln!("spans not written: {e}"),
        }
    }
    let list = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit, _) in list {
        let value = match outcome.values.get(name) {
            Some(v) => *v,
            // Per-layer metrics of layers a workload does not exercise
            // read 0; an end-to-end metric must always be measured.
            None if opts.trace => 0.0,
            None => {
                eprintln!("benchmark: end-to-end metric {name} was not measured");
                outcome.correct = false;
                0.0
            }
        };
        metrics
            .push(format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_number(value)));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
