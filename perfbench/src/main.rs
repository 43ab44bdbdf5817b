//! The t2vec-rs benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train|serve|ingest|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload builds its inputs from `--seed`, measures, checks the
//! program's outputs, prints its figures by name with units, and ends
//! with one JSON line: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). The exit code is non-zero when a check fails. See
//! `perfbench/README.md`.

// A benchmark binary: its report is its standard output.
#![allow(clippy::disallowed_macros)]

mod fixture;
mod ingest;
mod loadgen;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use report::{Metrics, Outcome, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::OnceLock;

const WORKLOADS: [&str; 3] = ["train", "serve", "ingest"];

/// What a workload run needs to know.
pub struct Ctx {
    pub seed: u64,
    /// Measurement budget of the run.
    pub seconds: f64,
    pub trace: bool,
    /// Sender threads and `T2VEC_THREADS`.
    pub nproc: usize,
    /// Scratch directory of this run (model files, stores).
    pub work_dir: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(25).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Where results, traces and scratch directories go.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

static TRACE_PATH: OnceLock<PathBuf> = OnceLock::new();

/// Writes the run's spans as JSON lines next to its result file.
pub fn write_trace(spans: &[trace::SpanRec]) {
    if let Some(path) = TRACE_PATH.get() {
        if let Err(e) = trace::write_jsonl(path, spans) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
}

/// The attribution figures of a traced run.
pub fn set_trace_metrics(l: &mut Metrics, sum: &trace::Summary, overhead_frac: f64) {
    l.set("trace.wall_s", sum.wall_s);
    l.set("trace.attributed_s", sum.attributed_s);
    l.set("trace.unattributed_s", sum.wall_s - sum.attributed_s);
    l.set(
        "trace.attributed_frac",
        sum.attributed_s / sum.wall_s.max(1e-12),
    );
    l.set("trace.overhead_frac", overhead_frac);
    for (layer, s) in &sum.layer_self_s {
        l.set(&format!("{layer}.self_s"), *s);
    }
}

/// `git rev-parse HEAD` of the source tree, or `unknown` outside a git
/// checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The host fingerprint recorded with every result.
fn fingerprint(args: &Args, nproc: usize) -> String {
    format!(
        "{{\"nproc\": {nproc}, \"T2VEC_THREADS\": \"{}\", \"simd\": \"{}\", \"commit\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        std::env::var("T2VEC_THREADS").unwrap_or_default(),
        t2vec_tensor::simd::backend().name(),
        git_commit(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: --workload train|serve|ingest|all --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Pin the worker count before any thread exists.
    std::env::set_var("T2VEC_THREADS", nproc.to_string());
    t2vec_tensor::parallel::set_threads(nproc);

    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let work_dir = out_dir().join(format!("work-{tag}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("cannot create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    if args.trace {
        let _ = TRACE_PATH.set(out_dir().join(format!("{tag}.trace.jsonl")));
    }
    let host = fingerprint(&args, nproc);
    println!("host {host}");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        nproc,
        work_dir: work_dir.clone(),
    };
    let mut out = match args.workload.as_str() {
        "train" => train::run(&ctx),
        "serve" => serve::run(&ctx),
        _ => ingest::run(&ctx),
    };
    if out.e2e.get("peak_rss_mb").is_none() {
        out.e2e.set("peak_rss_mb", stats::peak_rss_mb());
    }
    let _ = std::fs::remove_dir_all(&work_dir);

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let positive = args.trace
        || END_TO_END
            .iter()
            .all(|(name, _)| out.e2e.get(name).is_some_and(|v| v > 0.0));
    let finite = report::all_finite(table, if args.trace { &out.layer } else { &out.e2e });
    let attempted = out.attempted > 0;
    out.check(
        "metrics.measured",
        positive && finite && attempted,
        "every reported metric is finite, every end-to-end metric positive",
    );
    print_human(&out, args.trace);
    let metrics = if args.trace { &out.layer } else { &out.e2e };
    let json = report::metrics_json(table, metrics);
    let line = report::result_line(out.correct(), out.attempted, out.failed, &json);
    let detail = format!(
        "{{\"host\": {host}, \"result\": {line}, \"end_to_end\": {}, \"per_layer\": {}}}\n",
        report::metrics_json(END_TO_END, &out.e2e),
        report::metrics_json(PER_LAYER, &out.layer)
    );
    let _ = std::fs::write(out_dir().join(format!("{tag}.json")), detail);
    println!("{line}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the checks and every figure the run measured.
fn print_human(out: &Outcome, traced: bool) {
    for c in &out.checks {
        let status = if c.ok { "ok  " } else { "FAIL" };
        println!("check {status} {}: {}", c.name, c.detail);
    }
    println!("attempted {} failed {}", out.attempted, out.failed);
    let show = |table: &[(&str, &str)], m: &Metrics, kind: &str| {
        for (name, unit) in table {
            if let Some(v) = m.get(name) {
                println!("{kind} {name} = {v} {unit}");
            }
        }
    };
    if !traced {
        show(END_TO_END, &out.e2e, "end_to_end");
    }
    show(
        PER_LAYER,
        &out.layer,
        if traced { "per_layer" } else { "figure" },
    );
}

/// Runs every workload in its own process, one after the other, and
/// prints their outputs and a combined result line whose metric names
/// are prefixed with the workload.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate the benchmark executable");
        return ExitCode::FAILURE;
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let Ok(output) = output else {
            eprintln!("could not run workload {w}");
            return ExitCode::FAILURE;
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("[{w}] {l}");
        }
        correct &= output.status.success();
        // The result line's counters, and the figures each child printed
        // as `<kind> <name> = <value> <unit>`.
        let field = |key: &str| -> u64 {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.trim().parse().ok())
                .unwrap_or(0)
        };
        attempted += field("attempted");
        failed += field("failed");
        let kind = if args.trace {
            "per_layer "
        } else {
            "end_to_end "
        };
        for l in stdout.lines().filter_map(|l| l.strip_prefix(kind)) {
            if let [name, "=", value, unit] = l.split(' ').collect::<Vec<_>>()[..] {
                metrics.push(format!(
                    "\"{w}.{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                ));
            }
        }
    }
    let metrics = format!("{{{}}}", metrics.join(", "));
    let line = report::result_line(correct, attempted, failed, &metrics);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
