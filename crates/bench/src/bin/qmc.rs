//! `qmc` — command-line driver for the three QMC engines.
//!
//! ```text
//! qmc worldline --l 16 --jx 1.0 --jz 1.0 --beta 2.0 --m 32 --sweeps 20000
//! qmc sse       --lattice chain  --l 16 --beta 2.0 --sweeps 20000
//! qmc sse       --lattice square --l 8  --beta 4.0 --sweeps 20000
//! qmc tfim      --lx 32 --ly 1 --h 1.0 --beta 8.0 --m 64 --sweeps 10000
//! qmc tfim      --lx 64 --ly 64 --h 2.0 --beta 1.0 --m 8 --ranks 16 --machine mesh1993
//! qmc serve     --addr 127.0.0.1:7777 --workers 4 --ckpt-dir ckpt/serve
//! qmc submit    --addr 127.0.0.1:7777 --tenant alice --engine tfim --lx 16 --sweeps 2000
//! qmc submit    --addr 127.0.0.1:7777 --tenant alice --stats
//! qmc submit    --addr 127.0.0.1:7777 --tenant admin --drain
//! ```
//!
//! Common flags: `--seed N` (default 1), `--therm N` (default sweeps/5).
//!
//! `tfim --machine threads|mesh1993 --ranks P` runs the distributed engine
//! with stream 0 of the seed's factory on every rank: its keyed draws then
//! make the run the same on every `P` and on both machines (and on
//! `--machine serial --ranks P`, which runs it on one rank).
//!
//! Checkpoint/restart (serial engines): `--checkpoint-every N` writes an
//! atomic generation every N sweeps into `--checkpoint-dir D` (default
//! `ckpt/qmc-<engine>` at the repository root, gitignored); `--resume`
//! restores the newest valid generation and continues the identical
//! fixed-seed trajectory bit for bit. A resume must repeat the first
//! run's parameters: `worldline` and `sse` refuse a store written at
//! another β (SSE: or J), `tfim` one written at another J, h or β, and
//! exit 2.
//!
//! Observability: `--metrics` writes `METRICS_run.json` and `--trace`
//! writes a Chrome trace-event `trace.json` (both at the repository
//! root; load the trace in Perfetto). With `--machine threads` every
//! rank records its own track and the records are gathered over the
//! communicator; serial commands record the driver thread.
//!
//! Convergence health: `--metrics` streams every engine observable
//! through the online health monitor (τ_int, error bars, equilibration
//! drift — exported into `METRICS_run.json`); `--health-every N` also
//! prints a one-line report per observable every N samples.

// CLI entry point: exiting with a status code is this file's job.
#![allow(clippy::disallowed_methods)]
use qmc_ckpt::{run_engine, Checkpoint, End, Engine};
use qmc_comm::{job_seconds, run_model, run_threads, Communicator, MachineModel, SerialComm};
use qmc_lattice::{Chain, Square};
use qmc_rng::{Buffered, StreamFactory, Xoshiro256StarStar};
use qmc_sse::Sse;
use qmc_stats::BinningAnalysis;
use qmc_tfim::parallel::DistTfim;
use qmc_tfim::serial::SerialTfim;
use qmc_tfim::TfimModel;
use qmc_worldline::{Worldline, WorldlineParams};
use std::collections::HashMap;

/// `print!` that ends the process quietly, with status 0, once the reader
/// of standard output has gone (`qmc tfim … | head -2`), where the std
/// macro panics with "failed printing to stdout: Broken pipe".
macro_rules! print {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` over the [`print!`] above.
macro_rules! println {
    () => {
        print!("\n")
    };
    ($($arg:tt)*) => {
        print!("{}\n", format_args!($($arg)*))
    };
}

fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    match std::io::stdout().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        usage_and_exit();
    };
    let flags = parse_flags(args.collect());
    match cmd.as_str() {
        "worldline" => run_worldline(&flags),
        "sse" => run_sse(&flags),
        "tfim" => run_tfim(&flags),
        "serve" => run_serve(&flags),
        "submit" => run_submit(&flags),
        _ => usage_and_exit(),
    }
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage: qmc <worldline|sse|tfim|serve|submit> [flags]\n\
         see crate docs (src/bin/qmc.rs) for the flag list per engine"
    );
    std::process::exit(2);
}

/// Flags that take no value (presence means `true`).
const BOOL_FLAGS: &[&str] = &["metrics", "trace", "resume", "drain", "stats", "quiet"];

fn parse_flags(items: Vec<String>) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut it = items.into_iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            eprintln!("expected --flag, got '{key}'");
            std::process::exit(2);
        };
        if BOOL_FLAGS.contains(&name) {
            out.insert(name.to_string(), "true".to_string());
            continue;
        }
        let Some(value) = it.next() else {
            eprintln!("flag --{name} needs a value");
            std::process::exit(2);
        };
        out.insert(name.to_string(), value);
    }
    out
}

/// `(metrics, trace)` from parsed flags.
fn obs_flags(flags: &HashMap<String, String>) -> (bool, bool) {
    (flags.contains_key("metrics"), flags.contains_key("trace"))
}

/// Build the recorder config for the requested artifacts, or `None` when
/// observability was not asked for. `--metrics` also turns on online
/// health monitoring (per-observable τ_int/error/drift snapshots export
/// into `METRICS_run.json`); `--health-every N` additionally prints a
/// one-line health report per observable every N samples.
fn obs_config(flags: &HashMap<String, String>) -> Option<qmc_obs::ObsConfig> {
    let (metrics, trace) = obs_flags(flags);
    let health_every: usize = get(flags, "health-every", 0);
    (metrics || trace || health_every > 0).then(|| {
        let mut cfg = qmc_obs::ObsConfig::new().with_metrics(metrics);
        if metrics || health_every > 0 {
            cfg = cfg.with_health_every(health_every);
        }
        cfg
    })
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str, default: T) -> T {
    match flags.get(name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("cannot parse --{name} value '{v}'");
            std::process::exit(2);
        }),
    }
}

/// Checkpointing requested via `--checkpoint-every N` /
/// `--checkpoint-dir D` / `--resume`.
struct CkptRequest {
    store: qmc_ckpt::CkptStore,
    cadence: qmc_ckpt::Cadence,
    resume: bool,
}

impl CkptRequest {
    fn policy(&self) -> qmc_ckpt::Policy<'_> {
        qmc_ckpt::Policy {
            store: &self.store,
            cadence: self.cadence,
            resume: self.resume,
            stop: None,
        }
    }
}

/// Parse the checkpoint flags; `None` when checkpointing was not asked
/// for. `--resume` without `--checkpoint-every` keeps checkpointing at a
/// default cadence of 100 sweeps. `--checkpoint-full-every K` (default 8)
/// writes every K-th generation as a full snapshot and the rest as deltas
/// against it; `0` turns deltas off. The default directory is
/// `ckpt/qmc-<engine>` at the repository root (gitignored).
fn ckpt_request(flags: &HashMap<String, String>, engine: &str) -> Option<CkptRequest> {
    let every: usize = get(flags, "checkpoint-every", 0);
    let full_every: usize = get(flags, "checkpoint-full-every", 8);
    let resume = flags.contains_key("resume");
    if every == 0 && !resume {
        return None;
    }
    let dir = flags
        .get("checkpoint-dir")
        .cloned()
        .unwrap_or_else(|| format!("{}/../../ckpt/qmc-{engine}", env!("CARGO_MANIFEST_DIR")));
    let store = qmc_ckpt::CkptStore::new(&dir, 3).unwrap_or_else(|e| {
        eprintln!("cannot open checkpoint dir '{dir}': {e}");
        std::process::exit(2);
    });
    let every = if every == 0 { 100 } else { every };
    Some(CkptRequest {
        store,
        cadence: qmc_ckpt::Cadence::new(every, full_every).expect("cadence is nonzero here"),
        resume,
    })
}

/// Run `eng` to the end through the one engine loop, checkpointed as the
/// flags ask ([`ckpt_request`]; none: the plain run). Nothing here arms a
/// kill or raises a stop flag, so the run ends early only when the store
/// does not restore (another engine's, or another run's physics), and
/// that exits 2.
fn run_to_end<R: Checkpoint, E: Engine<R>>(
    eng: &mut E,
    rng: &mut R,
    (therm, sweeps): (usize, usize),
    flags: &HashMap<String, String>,
    engine: &str,
) -> E::Series {
    let req = ckpt_request(flags, engine);
    let policy = req.as_ref().map(CkptRequest::policy);
    match run_engine(eng, rng, therm, sweeps, policy.as_ref(), None, |_, _| {}) {
        Ok((End::Finished, series)) => series,
        Ok((end, _)) => unreachable!("nothing stops this run, yet it ended {end:?}"),
        Err(e) => {
            eprintln!("restore from checkpoint: {e}");
            std::process::exit(2);
        }
    }
}

/// `qmc serve --addr H:P --workers N --ckpt-dir D --ckpt-every N
/// --max-active N --admin T` — run the multi-tenant job server until an
/// admin session drains it (`qmc submit --addr H:P --tenant admin
/// --drain`).
fn run_serve(flags: &HashMap<String, String>) {
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7777".to_string());
    let ckpt_root = flags
        .get("ckpt-dir")
        .cloned()
        .unwrap_or_else(|| format!("{}/../../ckpt/qmc-serve", env!("CARGO_MANIFEST_DIR")));
    let cfg = qmc_serve::ServeConfig {
        workers: get(flags, "workers", 4),
        ckpt_root: ckpt_root.into(),
        ckpt_every: get(flags, "ckpt-every", 10),
        quota: qmc_serve::TenantQuota {
            max_active: get(flags, "max-active", 64),
        },
        admin: flags
            .get("admin")
            .cloned()
            .unwrap_or_else(|| "admin".into()),
        ..qmc_serve::ServeConfig::default()
    };
    let workers = cfg.workers;
    let server = qmc_serve::Server::start(cfg, &addr).unwrap_or_else(|e| {
        eprintln!("cannot start server on '{addr}': {e}");
        std::process::exit(2);
    });
    println!(
        "qmc-serve listening on {} ({workers} workers); stop with \
         `qmc submit --addr {} --tenant admin --drain`",
        server.addr(),
        server.addr()
    );
    let obs = server.join();
    let mut counters = obs.counters;
    counters.sort();
    println!("drained; final counters:");
    for (name, v) in counters {
        println!("  {name} = {v}");
    }
}

/// Build a [`qmc_serve::JobSpec`] from submit flags.
fn submit_spec(flags: &HashMap<String, String>, tenant: &str) -> qmc_serve::JobSpec {
    let engine = flags
        .get("engine")
        .map(String::as_str)
        .unwrap_or("tfim")
        .to_string();
    let sweeps: u32 = get(flags, "sweeps", 1000);
    let (kind, betas) = match engine.as_str() {
        "tfim" => (
            qmc_serve::JobKind::Tfim {
                lx: get(flags, "lx", 16),
                ly: get(flags, "ly", 1),
                j: get(flags, "j", 1.0),
                h: get(flags, "h", 2.0),
                m: get(flags, "m", 8),
                wolff: get(flags, "wolff", 1),
            },
            vec![get(flags, "beta", 1.0)],
        ),
        "pt" => {
            let betas: Vec<f64> = flags
                .get("betas")
                .map(String::as_str)
                .unwrap_or("0.5,1.0,2.0")
                .split(',')
                .filter_map(|b| b.trim().parse().ok())
                .collect();
            (
                qmc_serve::JobKind::PtXxz {
                    l: get(flags, "l", 8),
                    jx: get(flags, "jx", 1.0),
                    jz: get(flags, "jz", 1.0),
                    m: get(flags, "m", 8),
                    exchange_every: get(flags, "exchange-every", 2),
                },
                betas,
            )
        }
        other => {
            eprintln!("unknown --engine '{other}' (want tfim or pt)");
            std::process::exit(2);
        }
    };
    qmc_serve::JobSpec {
        tenant: tenant.to_string(),
        name: flags
            .get("name")
            .cloned()
            .unwrap_or_else(|| format!("{engine}-job")),
        kind,
        betas,
        therm: get(flags, "therm", sweeps / 5),
        sweeps,
        seed: get(flags, "seed", 1),
        priority: get(flags, "priority", 0),
        ckpt_every: get(flags, "job-ckpt-every", 0),
    }
}

/// `qmc submit --addr H:P --tenant T [job flags]` — submit a job and
/// stream its progress; `--stats` prints the tenant's counters instead;
/// `--drain` asks the server to checkpoint everything and shut down.
fn run_submit(flags: &HashMap<String, String>) {
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7777".to_string());
    let tenant = flags
        .get("tenant")
        .cloned()
        .unwrap_or_else(|| "default".to_string());
    let mut client = qmc_serve::Client::connect(addr.as_str(), &tenant).unwrap_or_else(|e| {
        eprintln!("cannot connect to '{addr}': {e}");
        std::process::exit(2);
    });
    if flags.contains_key("drain") {
        match client.drain() {
            Ok(()) => println!("server is draining"),
            Err(e) => {
                eprintln!("drain failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if flags.contains_key("stats") {
        match client.stats(&tenant) {
            Ok((counters, health)) => {
                for (name, v) in counters {
                    println!("{name} = {v}");
                }
                for h in health {
                    println!(
                        "health {}: n {} mean {:.6} ± {:.3e} tau_int {:.2}",
                        h.name, h.count, h.mean, h.error, h.tau_int
                    );
                }
            }
            Err(e) => {
                eprintln!("stats failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let spec = submit_spec(flags, &tenant);
    let quiet = flags.contains_key("quiet");
    let id = match client.submit(&spec) {
        Ok(id) => id,
        Err(e) => {
            eprintln!("submit rejected: {e}");
            std::process::exit(1);
        }
    };
    println!("job {id} accepted ({} as {})", spec.name, tenant);
    let on_snap = |sweep: u64, total: u64, mean: f64, attempt: u32| {
        if !quiet {
            println!("  job {id} attempt {attempt}: sweep {sweep}/{total}, mean energy {mean:.6}");
        }
    };
    match client.await_result(id, on_snap) {
        Ok((obs, attempts)) => {
            let n = obs.energy.first().map(Vec::len).unwrap_or(0);
            let mean = obs
                .energy
                .first()
                .filter(|e| !e.is_empty())
                .map(|e| e.iter().sum::<f64>() / e.len() as f64)
                .unwrap_or(f64::NAN);
            println!(
                "job {id} done in {attempts} attempt(s): {} series x {n} samples, \
                 mean energy {mean:.6}",
                obs.energy.len()
            );
        }
        Err(e) => {
            eprintln!("job {id} failed: {e}");
            std::process::exit(1);
        }
    }
}

fn run_worldline(flags: &HashMap<String, String>) {
    let (metrics, trace) = obs_flags(flags);
    if let Some(cfg) = obs_config(flags) {
        qmc_obs::init(0, &cfg);
    }
    let sweeps: usize = get(flags, "sweeps", 20_000);
    let params = WorldlineParams {
        l: get(flags, "l", 16),
        jx: get(flags, "jx", 1.0),
        jz: get(flags, "jz", 1.0),
        beta: get(flags, "beta", 1.0),
        m: get(flags, "m", 16),
    };
    let therm: usize = get(flags, "therm", sweeps / 5);
    let mut rng = Buffered::new(Xoshiro256StarStar::new(get(flags, "seed", 1)));
    let mut sim = Worldline::new(params);
    let series = run_to_end(&mut sim, &mut rng, (therm, sweeps), flags, "worldline");

    let be = BinningAnalysis::new(&series.energy, 16);
    let (chi, chi_err) = series.susceptibility();
    let (c, c_err) = series.specific_heat();
    println!(
        "world-line XXZ chain: L={} Jx={} Jz={} β={} m={} (Δτ={:.4})",
        params.l,
        params.jx,
        params.jz,
        params.beta,
        params.m,
        params.dtau()
    );
    println!(
        "  E/N  = {:+.6} ± {:.6}   (τ_int ≈ {:.1})",
        be.mean,
        be.error(),
        be.tau_int()
    );
    println!("  C/N  = {:+.6} ± {:.6}", c, c_err);
    println!("  χ/N  = {:+.6} ± {:.6}", chi, chi_err);
    let corr = series.correlations();
    let shown = corr.len().min(5);
    println!(
        "  C(r) = {:?}",
        corr[..shown]
            .iter()
            .map(|v| (v * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    println!(
        "  acceptance: local {:.3}, straight-line {:.3}",
        sim.local_accepted as f64 / sim.local_proposed.max(1) as f64,
        sim.straight_accepted as f64 / sim.straight_proposed.max(1) as f64
    );
    print!(
        "{}",
        qmc_bench::obs::export_current_thread("qmc-worldline", metrics, trace)
    );
}

fn run_sse(flags: &HashMap<String, String>) {
    let (metrics, trace) = obs_flags(flags);
    if let Some(cfg) = obs_config(flags) {
        qmc_obs::init(0, &cfg);
    }
    let sweeps: usize = get(flags, "sweeps", 20_000);
    let therm: usize = get(flags, "therm", sweeps / 5);
    let beta: f64 = get(flags, "beta", 1.0);
    let j: f64 = get(flags, "j", 1.0);
    let l: usize = get(flags, "l", 16);
    let lattice = flags.get("lattice").map(|s| s.as_str()).unwrap_or("chain");
    let mut rng = Buffered::new(Xoshiro256StarStar::new(get(flags, "seed", 1)));
    // Built from the freshly seeded `rng` it then runs with, resumed or not.
    let mut eng = match lattice {
        "chain" => Sse::new(&Chain::new(l), j, beta, &mut rng),
        "square" => Sse::new(&Square::new(l, get(flags, "ly", l)), j, beta, &mut rng),
        other => {
            eprintln!("unknown --lattice '{other}' (chain|square)");
            std::process::exit(2);
        }
    };
    let series = run_to_end(&mut eng, &mut rng, (therm, sweeps), flags, "sse");

    let be = BinningAnalysis::new(&series.energy_samples(), 16);
    let (c, c_err) = series.specific_heat();
    let (chi, chi_err) = series.susceptibility();
    println!(
        "SSE Heisenberg {lattice}: N={} β={beta} J={j}",
        series.n_sites
    );
    println!("  E/N     = {:+.6} ± {:.6}", be.mean, be.error());
    println!("  C/N     = {:+.6} ± {:.6}", c, c_err);
    println!("  χ/N     = {:+.6} ± {:.6}", chi, chi_err);
    println!("  S(π)/N  = {:+.6}", series.staggered_structure_factor());
    print!(
        "{}",
        qmc_bench::obs::export_current_thread("qmc-sse", metrics, trace)
    );
}

fn run_tfim(flags: &HashMap<String, String>) {
    let (metrics, trace) = obs_flags(flags);
    let obs_cfg = obs_config(flags);
    let sweeps: usize = get(flags, "sweeps", 10_000);
    let therm: usize = get(flags, "therm", sweeps / 5);
    let model = TfimModel {
        lx: get(flags, "lx", 32),
        ly: get(flags, "ly", 1),
        j: get(flags, "j", 1.0),
        h: get(flags, "h", 1.0),
        beta: get(flags, "beta", 8.0),
        m: get(flags, "m", 64),
    };
    let ranks: usize = get(flags, "ranks", 1);
    let seed: u64 = get(flags, "seed", 1);
    let machine = flags.get("machine").map(|s| s.as_str()).unwrap_or("serial");
    if (flags.contains_key("checkpoint-every") || flags.contains_key("resume"))
        && !(machine == "serial" && ranks == 1)
    {
        eprintln!(
            "note: --checkpoint-every/--checkpoint-dir/--resume drive the serial \
             TFIM engine only (distributed checkpointing lives in `repro faults`); ignoring"
        );
    }

    let report = |series: &qmc_tfim::serial::TfimSeries| {
        let be = BinningAnalysis::new(&series.energy, 16);
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        println!(
            "TFIM: {}×{} J={} h={} β={} m={} (Δτ={:.4})",
            model.lx,
            model.ly,
            model.j,
            model.h,
            model.beta,
            model.m,
            model.dtau()
        );
        println!("  E/N   = {:+.6} ± {:.6}", be.mean, be.error());
        println!("  <|m|> = {:.6}", avg(&series.abs_m));
        println!("  U4    = {:.6}", series.binder_cumulant());
        println!("  <σx>  = {:.6}", avg(&series.sigma_x));
    };

    match (machine, ranks) {
        ("serial", 1) => {
            if let Some(cfg) = &obs_cfg {
                qmc_obs::init(0, cfg);
            }
            let mut rng = Buffered::new(Xoshiro256StarStar::new(seed));
            let mut eng = SerialTfim::new(model);
            eng.wolff_per_sweep = get(flags, "wolff", 1);
            let series = run_to_end(&mut eng, &mut rng, (therm, sweeps), flags, "tfim");
            report(&series);
            if let Some(mut mine) = qmc_obs::finish() {
                mine.absorb_registry(eng.metrics());
                let meta = qmc_obs::RunMeta::new("qmc-tfim", "serial-tfim", "serial", 1);
                print!(
                    "{}",
                    qmc_bench::obs::write_artifacts(&meta, &[mine], metrics, trace)
                );
            }
        }
        ("serial", _) => {
            if let Some(cfg) = &obs_cfg {
                qmc_obs::init(0, cfg);
            }
            let mut comm = SerialComm::new();
            let mut eng = DistTfim::new(model, &comm);
            let mut rng = StreamFactory::new(seed).stream(0);
            let series = eng.run(&mut comm, &mut rng, therm, sweeps);
            report(&series);
            if let Some(mut mine) = qmc_obs::finish() {
                mine.absorb_registry(eng.metrics());
                mine.comm = Some(comm.stats());
                let meta = qmc_obs::RunMeta::new("qmc-tfim", "dist-tfim", "serial", 1);
                print!(
                    "{}",
                    qmc_bench::obs::write_artifacts(&meta, &[mine], metrics, trace)
                );
            }
        }
        ("threads", p) => {
            let cfg = obs_cfg.clone();
            let mut results = run_threads(p, move |comm| {
                if let Some(cfg) = &cfg {
                    qmc_obs::init(comm.rank(), cfg);
                }
                let mut eng = DistTfim::new(model, comm);
                let mut rng = StreamFactory::new(seed).stream(0);
                let series = eng.run(comm, &mut rng, therm, sweeps);
                let gathered = qmc_obs::finish().map(|mut mine| {
                    mine.absorb_registry(eng.metrics());
                    mine.comm = Some(comm.stats());
                    qmc_obs::gather_ranks(comm, &mine)
                });
                (series, gathered)
            });
            report(&results[0].0);
            println!("  ({p} thread-backed ranks)");
            if let Some(Some(gathered)) = results.swap_remove(0).1 {
                let meta = qmc_obs::RunMeta::new("qmc-tfim", "dist-tfim", "threads", p);
                print!(
                    "{}",
                    qmc_bench::obs::write_artifacts(&meta, &gathered, metrics, trace)
                );
            }
        }
        ("mesh1993", p) => {
            let reports = run_model(p, MachineModel::mesh_1993(p), move |comm| {
                let mut eng = DistTfim::new(model, comm);
                let mut rng = StreamFactory::new(seed).stream(0);
                eng.run(comm, &mut rng, therm, sweeps)
            });
            report(&reports[0].result);
            let merged = reports
                .iter()
                .fold(qmc_comm::CommStats::default(), |acc, r| {
                    acc.merged(&r.stats)
                });
            println!(
                "  simulated 1993 mesh, P={p}: job time {:.3} model-s \
                 (comm fraction {:.1}%, recv wait {:.3} model-s, max message {} B)",
                job_seconds(&reports),
                100.0 * merged.comm_fraction(),
                merged.recv_wait_seconds,
                merged.max_message_bytes
            );
        }
        (other, _) => {
            eprintln!("unknown --machine '{other}' (serial|threads|mesh1993)");
            std::process::exit(2);
        }
    }
}
