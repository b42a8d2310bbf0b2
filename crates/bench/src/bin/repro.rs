//! `repro` — regenerate every table and figure of the evaluation.
//!
//! ```text
//! repro <experiment|all|bench> [--quick] [--metrics] [--trace]
//!
//! experiments: f1 f2 f3 f4 f5 t1 t2 t3 t4 t5 t6
//! ```
//!
//! `--quick` shrinks sweep counts ~10× for smoke runs; the full settings
//! are what EXPERIMENTS.md records.
//!
//! `repro bench` prints the four in-window ratio guards of the hot
//! kernels (packed-vs-scalar speedup; obs, trace and checkpoint
//! overhead) and exits non-zero when the packed speedup misses its
//! target (≥ 4x full, ≥ 2x relaxed under `--quick`) — the
//! `scripts/check.sh bench-quick` stage. Absolute per-layer timings
//! live in `benchmark/`.
//!
//! `repro verify` records a 4-rank parallel-tempering run through the
//! `qmc-verify` tracing layer, proves the captured comm traffic
//! deadlock-free, shows the checker flagging a crossed-recv
//! counterexample, and runs `qmc-lint` over the workspace. Exits
//! non-zero on any violation (the `scripts/check.sh verify` stage).
//!
//! `repro faults` runs the fault-tolerance demo: a 4-rank thread-backed
//! parallel-tempering run behind `FaultyComm` (seeded drops, duplicates,
//! delays, transient send failures), then a scheduled rank kill and a
//! checkpoint-based recovery that lands on the bit-identical trajectory.
//! `--checkpoint-every N` / `--checkpoint-dir D` override the cadence
//! and store location; `--resume` skips straight to the recovery act.
//!
//! `repro serve-demo` runs the multi-tenant job-server drill: 240 jobs
//! from four tenants over TCP with five injected worker deaths, a
//! parallel-tempering world kill, and a drain/restart — every result
//! verified bit-identical to a direct in-process run, zero jobs lost.
//! Writes `METRICS_serve.json` and exits non-zero on any divergence
//! (the `scripts/check.sh serve` stage).
//!
//! `repro elastic` runs the elastic-worlds demo: a 4-rank
//! parallel-tempering world loses a rank mid-flight and finishes
//! bit-identical after an in-place respawn, then the same death with a
//! zero respawn budget shrinks the β ladder and resumes the survivors
//! deterministically. Writes `VERIFY_elastic.json` and exits non-zero
//! on any divergence (the `scripts/check.sh elastic` stage).
//!
//! `repro analyze` records the same 4-rank parallel-tempering run
//! with `qmc_obs::Tracer`, merges the per-rank streams into a
//! cross-rank happens-before DAG, and prints the critical path with
//! per-rank compute/wait/send attribution and the straggler/imbalance
//! summary. Writes `ANALYSIS_run.json` (schema `qmc-analysis/v1`) and a
//! `trace.json` whose flow events draw each matched message as an arrow
//! between rank tracks. Exits non-zero if the trace fails analysis (the
//! `scripts/check.sh analyze` stage).
//!
//! `--metrics` / `--trace` turn on the observability layer (`qmc-obs`):
//! with no experiment named they run the 4-rank thread-backed TFIM demo
//! and write `METRICS_run.json` / `trace.json` at the repository root;
//! with experiments named they record the driver thread's spans and
//! counters across the run and export the same artifacts. `--metrics`
//! also streams engine observables through the online health monitor
//! (τ_int, error bars, equilibration drift → `METRICS_run.json`);
//! `--health-every N` prints a one-line report per observable every N
//! samples.

// CLI entry point: exiting with a status code is this file's job.
#![allow(clippy::disallowed_methods)]
fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // Pull out the two value-taking checkpoint flags first; everything
    // else stays positional/boolean as before.
    let mut args = Vec::new();
    let mut ck_every = 0usize;
    let mut ck_dir = String::new();
    let mut health_every = 0usize;
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--checkpoint-every" => {
                ck_every = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--checkpoint-every needs a sweep count");
                    std::process::exit(2);
                });
            }
            "--checkpoint-dir" => {
                ck_dir = it.next().unwrap_or_else(|| {
                    eprintln!("--checkpoint-dir needs a path");
                    std::process::exit(2);
                });
            }
            "--health-every" => {
                health_every = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--health-every needs a sample count");
                    std::process::exit(2);
                });
            }
            _ => args.push(a),
        }
    }
    const SWITCHES: [&str; 4] = ["--quick", "--metrics", "--trace", "--resume"];
    if let Some(bad) = args
        .iter()
        .find(|a| a.starts_with("--") && !SWITCHES.contains(&a.as_str()))
    {
        eprintln!("unknown flag '{bad}'");
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let metrics = args.iter().any(|a| a == "--metrics");
    let trace = args.iter().any(|a| a == "--trace");
    let resume = args.iter().any(|a| a == "--resume");
    let obs_on = metrics || trace || health_every > 0;
    let wanted: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    if wanted.is_empty() {
        if obs_on {
            // The flagship path: a 4-rank ThreadWorld TFIM run with
            // per-rank recorders gathered over the communicator.
            println!("=== obs ===");
            print!("{}", qmc_bench::obs::obs_demo(metrics, trace, quick));
            return;
        }
        eprintln!(
            "usage: repro <f1|f2|f3|f4|f5|t1|t2|t3|t4|t5|t6|all|bench|faults|verify|analyze|serve-demo|elastic> \
             [--quick] [--metrics] [--trace] [--health-every N] \
             [--checkpoint-every N] [--checkpoint-dir D] [--resume]"
        );
        std::process::exit(2);
    }

    if obs_on {
        let mut config = qmc_obs::ObsConfig::new().with_metrics(metrics);
        if metrics || health_every > 0 {
            config = config.with_health_every(health_every);
        }
        qmc_obs::init(0, &config);
    }

    let registry = qmc_bench::registry();
    let mut label = String::from("repro");
    for name in &wanted {
        label.push('-');
        label.push_str(name);
        if *name == "all" {
            print!("{}", qmc_bench::run_all(quick));
            continue;
        }
        if *name == "bench" {
            println!("=== bench ===");
            let (report, ok) = qmc_bench::kernels::bench_guards(quick);
            print!("{report}");
            if !ok {
                eprintln!("bench guard failed: packed speedup vs scalar below target");
                std::process::exit(1);
            }
            continue;
        }
        if *name == "faults" {
            println!("=== faults ===");
            print!(
                "{}",
                qmc_bench::faults::faults_demo(quick, ck_every, &ck_dir, resume)
            );
            continue;
        }
        if *name == "serve-demo" {
            println!("=== serve-demo ===");
            let (report, ok) = qmc_bench::serve_demo::serve_demo(quick);
            print!("{report}");
            if !ok {
                std::process::exit(1);
            }
            continue;
        }
        if *name == "elastic" {
            println!("=== elastic ===");
            let (report, ok) = qmc_bench::elastic::elastic_demo(quick);
            print!("{report}");
            if !ok {
                std::process::exit(1);
            }
            continue;
        }
        if *name == "verify" {
            println!("=== verify ===");
            let (report, ok) = qmc_bench::verify::verify_demo();
            print!("{report}");
            if !ok {
                std::process::exit(1);
            }
            continue;
        }
        if *name == "analyze" {
            println!("=== analyze ===");
            let (report, ok) = qmc_bench::analyze::analyze_demo(quick);
            print!("{report}");
            if !ok {
                std::process::exit(1);
            }
            continue;
        }
        match registry.iter().find(|(id, _)| id == *name) {
            Some((id, f)) => {
                println!("=== {id} ===");
                print!("{}", f(quick));
            }
            None => {
                eprintln!("unknown experiment '{name}'");
                std::process::exit(2);
            }
        }
    }

    if obs_on {
        print!(
            "{}",
            qmc_bench::obs::export_current_thread(&label, metrics, trace)
        );
    }
}
