//! `arc-perfbench` — one end-to-end benchmark of the ARC pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <checkpoint_sz|checkpoint_zfp|tile_serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the run prints the
//! end-to-end metrics; with `--trace 1` it runs the workload untraced and
//! then traced, and prints per-layer self times and counts (see
//! `perfbench/README.md`). Every run checks the outputs it gets back. The
//! last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}`;
//! the line before it records the run's provenance and sample counts.
//! A wrong output makes `correct` false and the exit code 1.

mod access;
mod alloc;
mod checkpoint;
mod common;
mod report;
mod stats;
mod tiles;
mod trace;

use std::process::ExitCode;

use report::Outcome;
use stats::Json;

#[global_allocator]
static ALLOC: alloc::PeakAlloc = alloc::PeakAlloc;

const WORKLOADS: [&str; 3] = ["checkpoint_sz", "checkpoint_zfp", "tile_serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("arc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out: Outcome = match args.workload.as_str() {
        "checkpoint_sz" => {
            checkpoint::run(checkpoint::Family::Sz, args.seed, args.seconds, args.trace)
        }
        "checkpoint_zfp" => {
            checkpoint::run(checkpoint::Family::Zfp, args.seed, args.seconds, args.trace)
        }
        _ => tiles::run(args.seed, args.seconds, args.trace),
    };
    let finite = out.metrics.0.iter().all(|(_, v, _)| v.is_finite());
    let correct = out.ops.wrong.is_empty() && out.ops.attempted > 0 && finite;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let provenance = Json::obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("recorded_cores", Json::Int(cores as u64)),
        ("library_threads", out.threads),
        ("git_commit", Json::Str(common::git_commit())),
        ("ops_failed_frac", Json::Num(out.ops.failed as f64 / out.ops.attempted.max(1) as f64)),
        ("wrong_outputs", Json::Int(out.ops.wrong.len() as u64)),
        ("samples", out.samples),
    ]);
    println!("{}", Json::obj(vec![("provenance", provenance)]).render());
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(out.ops.attempted)),
        ("failed", Json::Int(out.ops.failed)),
        ("metrics", out.metrics.to_json()),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
