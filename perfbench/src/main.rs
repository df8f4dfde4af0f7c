//! The repository benchmark: three workloads against the engine facade
//! (`rnn_heatmap::Session`) and the HTTP front end (`rnnhm_serve`),
//! with output checks, plus a traced run that breaks the work down by
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore|whatif|serve [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` (default) runs the named workload for `S` seconds and
//! reports its end-to-end metrics. `--trace 1` replays all three
//! workloads layer by layer (`S / 3` seconds each, alternating untraced
//! and traced operations), reports the per-layer metrics and the
//! tracing overhead, and writes every span to
//! `perfbench/out/trace-seed<N>.jsonl`. Every line before the last
//! names a measured quantity with its unit and sample count; the last
//! line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `perfbench/README.md`.

mod alloc;
mod explore;
mod http;
mod inputs;
mod replay;
mod report;
mod serve;
mod setup;
mod stats;
mod trace;
mod whatif;

use report::Report;
use trace::{Analysis, Tracer};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Operation ids of the traced engine builds.
pub const BUILD_OP_CITY: u64 = 1;
pub const BUILD_OP_DISTRICT: u64 = 2;
pub const BUILD_OP_SERVE: u64 = 3;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 60.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad(()))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["explore", "whatif", "serve"].contains(&args.workload.as_str()) {
        return Err("--workload must be explore, whatif or serve".to_string());
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// The traced run: every workload replayed layer by layer.
fn traced(args: &Args) -> Report {
    let mut rep = Report::default();
    let tracer = Tracer::new();
    let share = args.seconds / 3.0;
    let explore = explore::traced(args.seed, share, &tracer, &mut rep);
    let whatif = whatif::traced(args.seed, share, &tracer, &mut rep);
    let serve = serve::traced(args.seed, share, &tracer, &mut rep);
    let spans = tracer.spans();
    let analysis = Analysis::new(&spans);
    let build = analysis.per_op("snapshot.build", &[BUILD_OP_CITY]);
    rep.line(format!(
        "traced run (workload argument {}): {} spans, {share:.1} s per workload",
        args.workload,
        spans.len()
    ));
    rep.metric("snapshot.build_ms", build.sum(), "ms", 1);
    for (what, op) in [("district", BUILD_OP_DISTRICT), ("city, serve", BUILD_OP_SERVE)] {
        let ms = analysis.per_op("snapshot.build", &[op]).sum();
        rep.note(&format!("snapshot.build_ms ({what})"), ms, "ms", 1);
    }
    explore.emit(&analysis, &mut rep);
    whatif.emit(&analysis, &mut rep);
    serve.emit(&analysis, &mut rep);
    let path = std::path::PathBuf::from(format!("perfbench/out/trace-seed{}.jsonl", args.seed));
    match analysis.write_jsonl(&spans, &path) {
        Ok(()) => rep.line(format!("spans written to {}", path.display())),
        Err(e) => rep.line(format!("spans not written ({e})")),
    }
    rep
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        traced(&args)
    } else {
        match args.workload.as_str() {
            "explore" => explore::run(args.seed, args.seconds),
            "whatif" => whatif::run(args.seed, args.seconds),
            _ => serve::run(args.seed, args.seconds),
        }
    };
    report.print();
}
