//! The repo's benchmark: five fixed-work QMC workloads, five end-to-end
//! metrics each, and a traced per-layer run. See `README.md`.
//!
//! ```text
//! qmc-benchmark --workload NAME|all --seed N --trace 0|1 [--seconds 20]
//!               [--out DIR] [--home DIR] [--quick] [--record META]
//! qmc-benchmark --list | --describe | --selfcheck [--home DIR]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

// A CLI entry point owns process-exit policy (see the root clippy.toml).
#![allow(clippy::disallowed_methods)]

mod estimate;
mod oracle;
mod probes;
mod run;
mod selfcheck;
mod spec;
mod sys;
mod trace;
mod workloads;

use run::{Ctx, Outcome};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    home: PathBuf,
    record: Option<String>,
    mode: Mode,
}

enum Mode {
    Run,
    List,
    Describe,
    Selfcheck,
}

fn usage() -> ! {
    eprintln!(
        "usage: qmc-benchmark --workload NAME|all --seed N --trace 0|1 [--seconds {}] \
         [--out DIR] [--home DIR] [--quick] [--record META]\n       \
         qmc-benchmark --list | --describe | --selfcheck [--home DIR]",
        spec::RUN_SECONDS
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: "all".into(),
        seed: 1,
        trace: false,
        quick: false,
        out: None,
        home: PathBuf::from("benchmark"),
        record: None,
        mode: Mode::Run,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => a.workload = value("a workload name"),
            "--seed" => a.seed = value("an integer").parse().unwrap_or_else(|_| usage()),
            // Work is fixed (`spec.rs`), not timed: the flag exists for the
            // driver, which passes `run_seconds` of `BENCHMARK.json`.
            "--seconds" => {
                if value("the run length").parse() != Ok(spec::RUN_SECONDS) {
                    eprintln!(
                        "--seconds accepts only {}: the work of a run is fixed",
                        spec::RUN_SECONDS
                    );
                    std::process::exit(2);
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value("a directory"))),
            "--home" => a.home = PathBuf::from(value("a directory")),
            "--record" => a.record = Some(value("a metadata string")),
            "--quick" => a.quick = true,
            "--list" => a.mode = Mode::List,
            "--describe" => a.mode = Mode::Describe,
            "--selfcheck" => a.mode = Mode::Selfcheck,
            _ => usage(),
        }
    }
    a
}

/// A number as JSON: shortest representation that round-trips.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        // Not a measurement; `report` marks the run incorrect.
        "0".into()
    }
}

/// `(name, value, unit)` of the metrics this run reports: every
/// end-to-end metric untraced, every per-layer metric traced (a layer
/// the workload bypasses reads 0).
fn metrics_of(out: &Outcome, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    if trace {
        spec::PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, out.layer.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let m = &out.measured;
        let tau = out.tau.map_or(0.5, |t| t.tau_int);
        let values = [
            m.setup_s(),
            m.sweeps_per_s(),
            m.sweeps_per_s() / (2.0 * tau),
            m.cpu_s_per_ksweep(),
            m.peak_heap_mb,
        ];
        spec::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _, _), v)| (name, v, unit))
            .collect()
    }
}

/// Print one workload's report; returns its result line.
fn report(name: &str, ctx: &Ctx, out: &Outcome) -> String {
    let metrics = metrics_of(out, ctx.trace);
    let finite = metrics.iter().all(|m| m.1.is_finite());
    println!(
        "# {name}  seed {}  trace {}  ranks {}  nproc {}  all threads on {}",
        ctx.seed,
        u8::from(ctx.trace),
        ctx.ranks,
        sys::nproc(),
        ctx.pinned
            .map_or_else(|| "any CPU (pinning refused)".into(), |c| format!("cpu{c}"))
    );
    for (check, ok, detail) in &out.checks {
        println!(
            "check {check}: {} ({detail})",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    if out.attempted != out.planned {
        println!(
            "check planned_operations: FAILED (planned {}, performed {})",
            out.planned, out.attempted
        );
    }
    if !ctx.trace {
        let m = &out.measured;
        let c = m.chunks();
        let walls = estimate::sorted(&m.walls);
        let ms = |q: f64| estimate::quantile(&walls, q) * 1e3;
        println!(
            "chunks {}  p10 {:.2}  p25 {:.2}  p50 {:.2}  p75 {:.2}  p90 {:.2} ms  undisturbed (q{:.2}) {:.2} ms  spread {:.4}  set-ups {:.3?} s",
            c.k,
            ms(0.10),
            ms(0.25),
            ms(0.50),
            ms(0.75),
            ms(0.90),
            estimate::USUAL_QUANTILE,
            m.chunk_s() * 1e3,
            c.spread,
            m.setup_s
        );
        // The raw readings every rate comes from, in run order.
        let series: Vec<String> = m.walls.iter().map(|w| format!("{:.1}", w * 1e3)).collect();
        println!("chunk_ms {}", series.join(" "));
        let busy = m.host_busy_frac();
        if busy > 0.2 {
            println!(
                "warning: other processes used {busy:.2} of the host during the measured phase"
            );
        }
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct() && finite,
        out.attempted.max(1),
        out.failed
    );
    for (i, (metric, value, unit)) in metrics.iter().enumerate() {
        println!("{metric} {} {unit}", num(*value));
        let _ = write!(
            json,
            "{}\"{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" },
            num(*value)
        );
    }
    json.push_str("}}");
    json
}

/// Append one line to `history.jsonl`: who measured what, every value.
fn record(args: &Args, name: &str, ctx: &Ctx, out: &Outcome, meta: &str) {
    let mut line = format!(
        "{{\"meta\": \"{}\", \"workload\": \"{name}\", \"seed\": {}, \"trace\": {}, \"metrics\": {{",
        meta.replace(['"', '\\'], "'"),
        ctx.seed,
        u8::from(ctx.trace)
    );
    for (i, (metric, value, _)) in metrics_of(out, ctx.trace).iter().enumerate() {
        let _ = write!(
            line,
            "{}\"{metric}\": {}",
            if i > 0 { ", " } else { "" },
            num(*value)
        );
    }
    line.push_str("}}\n");
    let path = args.home.join("history.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = appended {
        eprintln!("warning: could not append to {}: {e}", path.display());
    }
}

fn main() {
    let args = parse_args();
    match args.mode {
        Mode::List => {
            for (name, why) in spec::WORKLOADS {
                println!("{name}\t{why}");
            }
            return;
        }
        Mode::Describe => {
            print!("{}", selfcheck::benchmark_json());
            return;
        }
        Mode::Selfcheck => {
            let problems = selfcheck::run(&args.home);
            for p in &problems {
                eprintln!("selfcheck: {p}");
            }
            std::process::exit(i32::from(!problems.is_empty()));
        }
        Mode::Run => {}
    }

    // Count the CPUs, then give all of the run's threads one of them.
    let ranks = sys::nproc().min(spec::MAX_RANKS);
    let pinned = sys::pin_to_one_cpu();
    let ctx = Ctx {
        seed: args.seed,
        trace: args.trace,
        quick: args.quick,
        out: args.out.clone().unwrap_or_else(|| args.home.join("out")),
        ranks,
        pinned,
    };
    let names: Vec<&str> = if args.workload == "all" {
        spec::WORKLOADS.iter().map(|w| w.0).collect()
    } else {
        vec![args.workload.as_str()]
    };
    for name in names {
        let Some(out) = workloads::run(name, &ctx) else {
            eprintln!("unknown workload {name:?}; --list names them");
            std::process::exit(2);
        };
        let line = report(name, &ctx, &out);
        if let Some(meta) = &args.record {
            record(&args, name, &ctx, &out, meta);
        }
        // The result line goes last, after everything else is flushed.
        println!("{line}");
    }
    let _ = std::io::stdout().flush();
    // A run that measured but found an output wrong still exits 0: the
    // result line carries `correct: false` for the driver to read.
}
