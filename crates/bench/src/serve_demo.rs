//! `repro serve-demo` — the simulation-as-a-service fault drill.
//!
//! Three acts against a live [`qmc_serve::Server`] over real sockets:
//!
//! 1. **Fleet**: four tenants submit 240 jobs over one TCP connection
//!    each; five of the jobs have deterministic worker deaths injected
//!    mid-run. Every job must come back (zero lost), every killed job
//!    must show a second attempt, and *every* result — killed or not —
//!    must be bit-identical to a direct in-process run of the same spec.
//! 2. **Parallel tempering**: a 4-rank PT job whose world is killed at a
//!    scheduled sweep; a fresh world resumes from the store and rides
//!    through *inside the same attempt* — no requeue — and still
//!    matches the uninterrupted reference bit for bit
//!    (`serve.respawns` records the event).
//! 3. **Drain / restart**: a server draining mid-job checkpoints it; a
//!    fresh server over the same checkpoint root finishes the job to the
//!    same bits.
//!
//! Writes `METRICS_serve.json` (schema `qmc-metrics/v1`) with the server
//! counters (`serve.*`, per-tenant `tenant.<name>.*`) at the repository
//! root. The `scripts/check.sh serve` stage runs this with `--quick`.

use qmc_obs::{metrics_json, RunMeta};
use qmc_serve::{
    run_job, Client, JobKind, JobObservables, JobSpec, KillSpec, Outcome, RunCtl, ServeConfig,
    Server, TenantQuota,
};
use std::fmt::Write as _;

const TENANTS: [&str; 4] = ["alice", "bob", "carol", "dave"];
const FLEET_JOBS: usize = 240;
const WORKERS: usize = 4;

/// Injected worker deaths for act 1: (submission-order job id, sweep).
const KILLS: [(u64, u64); 5] = [(7, 6), (58, 9), (123, 5), (199, 8), (233, 7)];

/// The i-th fleet job: a tiny serial TFIM chain with varied sweep
/// budgets, seeds, and priorities.
fn fleet_spec(i: usize) -> JobSpec {
    JobSpec {
        tenant: TENANTS[i % TENANTS.len()].into(),
        name: format!("fleet-{i}"),
        kind: JobKind::Tfim {
            lx: 4,
            ly: 1,
            j: 1.0,
            h: 2.0,
            m: 4,
            wolff: 1,
        },
        betas: vec![1.0],
        therm: 4,
        sweeps: (12 + i % 5) as u32,
        seed: 1000 + i as u64,
        priority: (i % 3) as u8,
        ckpt_every: 4,
    }
}

fn pt_spec(quick: bool) -> JobSpec {
    JobSpec {
        tenant: "alice".into(),
        name: "pt-drill".into(),
        kind: JobKind::PtXxz {
            l: 8,
            jx: 1.0,
            jz: 1.0,
            m: 8,
            exchange_every: 2,
        },
        betas: vec![0.5, 0.9, 1.4, 2.0],
        therm: if quick { 6 } else { 12 },
        sweeps: if quick { 12 } else { 24 },
        seed: 4242,
        priority: 2,
        ckpt_every: 4,
    }
}

fn reference(spec: &JobSpec) -> JobObservables {
    match run_job(spec, RunCtl::default()) {
        Outcome::Done { obs, .. } => obs,
        other => panic!("reference run must complete, got {other:?}"),
    }
}

/// Run the full demo; returns (report, ok).
pub fn serve_demo(quick: bool) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;

    // ---- Act 1: the fleet ------------------------------------------
    let cfg = ServeConfig {
        workers: WORKERS,
        ckpt_root: crate::scratch("fleet"),
        ckpt_every: 4,
        quota: TenantQuota { max_active: 64 },
        kills: KILLS
            .iter()
            .map(|&(job, at_sweep)| KillSpec { job, at_sweep })
            .collect(),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, "127.0.0.1:0").expect("serve-demo server");
    let addr = server.addr();
    let _ = writeln!(
        out,
        "act 1: {FLEET_JOBS} jobs, {} tenants, {WORKERS} workers, {} injected kills @ {addr}",
        TENANTS.len(),
        KILLS.len()
    );

    let mut clients: Vec<Client> = TENANTS
        .iter()
        .map(|t| Client::connect(addr, t).expect("tenant connects"))
        .collect();

    // Submit everything up front so the queue holds the whole fleet.
    let mut ids = Vec::with_capacity(FLEET_JOBS);
    for i in 0..FLEET_JOBS {
        let spec = fleet_spec(i);
        let id = clients[i % TENANTS.len()]
            .submit(&spec)
            .expect("fleet submit");
        ids.push((id, spec));
    }
    let peak_pending = ids.len();

    // Await every result; verify bit-identity against direct runs.
    let mut completed = 0usize;
    let mut identical = 0usize;
    let mut kill_attempts_ok = 0usize;
    let mut snapshots_seen = 0usize;
    for (i, (id, spec)) in ids.iter().enumerate() {
        let client = &mut clients[i % TENANTS.len()];
        match client.await_result(*id, |_, _, _, _| snapshots_seen += 1) {
            Ok((obs, attempts)) => {
                completed += 1;
                if obs.bits_eq(&reference(spec)) {
                    identical += 1;
                }
                if KILLS.iter().any(|&(k, _)| k == *id) && attempts >= 2 {
                    kill_attempts_ok += 1;
                }
            }
            Err(e) => {
                let _ = writeln!(out, "  LOST job {id}: {e}");
            }
        }
    }
    let lost = FLEET_JOBS - completed;
    let _ = writeln!(
        out,
        "  completed {completed}/{FLEET_JOBS} (lost {lost}), peak queue {peak_pending}, \
         snapshots streamed {snapshots_seen}"
    );
    let _ = writeln!(
        out,
        "  bit-identical to direct runs: {identical}/{FLEET_JOBS}; \
         killed jobs retried: {kill_attempts_ok}/{}",
        KILLS.len()
    );
    ok &= lost == 0 && identical == FLEET_JOBS && kill_attempts_ok == KILLS.len();

    // Global counters need operator powers: tenant sessions are pinned
    // to their own namespace, so the drill connects an admin session for
    // the unfiltered view (and, below, the drains).
    let mut admin = Client::connect(addr, "admin").expect("admin connects");
    let (counters, _) = admin.stats("").expect("global stats");
    let get = |name: &str| {
        counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    let _ = writeln!(
        out,
        "  counters: submitted {} completed {} requeues {} worker_kills {}",
        get("serve.jobs_submitted"),
        get("serve.jobs_completed"),
        get("serve.requeues"),
        get("serve.worker_kills"),
    );
    ok &= get("serve.jobs_completed") == FLEET_JOBS as u64
        && get("serve.requeues") == KILLS.len() as u64;

    // Per-tenant isolation over the wire: each tenant's filtered view
    // carries its own counters and nobody else's.
    let mut isolated = true;
    for (i, t) in TENANTS.iter().enumerate() {
        let (mine, _) = clients[i].stats(t).expect("tenant stats");
        isolated &= mine
            .iter()
            .any(|(k, _)| *k == format!("tenant.{t}.jobs_completed"));
        isolated &= mine
            .iter()
            .all(|(k, _)| !k.starts_with("tenant.") || k.starts_with(&format!("tenant.{t}.")));
    }
    let _ = writeln!(out, "  tenant metric isolation: {}", yes(isolated));
    ok &= isolated;

    admin.drain().expect("drain ack");
    let fleet_obs = server.join();

    // ---- Act 2: PT world kill --------------------------------------
    let spec = pt_spec(quick);
    let kill_sweep = (spec.therm + spec.sweeps / 2) as u64;
    let cfg = ServeConfig {
        workers: 1,
        ckpt_root: crate::scratch("pt"),
        ckpt_every: 4,
        kills: vec![KillSpec {
            job: 0,
            at_sweep: kill_sweep,
        }],
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, "127.0.0.1:0").expect("pt server");
    let mut client = Client::connect(server.addr(), "alice").expect("connect");
    let id = client.submit(&spec).expect("pt submit");
    let (obs, attempts) = client.await_result(id, |_, _, _, _| {}).expect("pt result");
    let pt_identical = obs.bits_eq(&reference(&spec));
    let mut admin = Client::connect(server.addr(), "admin").expect("admin connects");
    let (counters, _) = admin.stats("").expect("pt stats");
    let respawns = counters
        .iter()
        .find(|(k, _)| k == "serve.respawns")
        .map(|&(_, v)| v)
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "act 2: PT world killed at sweep {kill_sweep}: rode through in \
         attempts {attempts} with respawns {respawns}, bit-identical resume {}",
        yes(pt_identical)
    );
    // The whole point of the elastic world: the death is absorbed inside
    // the attempt (respawn counter fires), not retried by the scheduler.
    ok &= attempts == 1 && respawns >= 1 && pt_identical;
    admin.drain().expect("drain ack");
    server.join();

    // ---- Act 3: drain, restart, finish -----------------------------
    let root = crate::scratch("drain");
    let mut spec = fleet_spec(0);
    spec.name = "long-haul".into();
    spec.sweeps = 400;
    spec.ckpt_every = 8;
    let cfg = ServeConfig {
        workers: 1,
        ckpt_root: root.clone(),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, "127.0.0.1:0").expect("drain server");
    let mut client = Client::connect(server.addr(), spec.tenant.as_str()).expect("connect");
    client.submit(&spec).expect("submit long job");
    // Drain right away: the job pauses at its next sweep boundary (or
    // stays queued if no worker picked it up yet — either is safe).
    let mut admin = Client::connect(server.addr(), "admin").expect("admin connects");
    admin.drain().expect("drain ack");
    let drained_obs = server.join();
    let paused = drained_obs.counter("serve.jobs_drained");

    let cfg = ServeConfig {
        workers: 1,
        ckpt_root: root,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, "127.0.0.1:0").expect("restart server");
    let mut client = Client::connect(server.addr(), spec.tenant.as_str()).expect("reconnect");
    let id = client.submit(&spec).expect("resubmit after restart");
    let (obs, _) = client
        .await_result(id, |_, _, _, _| {})
        .expect("resumed result");
    let drain_identical = obs.bits_eq(&reference(&spec));
    let _ = writeln!(
        out,
        "act 3: drained mid-flight (paused {paused}), restarted server resumed \
         bit-identical {}",
        yes(drain_identical)
    );
    ok &= drain_identical;
    let mut admin = Client::connect(server.addr(), "admin").expect("admin connects");
    admin.drain().expect("drain ack");
    server.join();

    // ---- Artifact ---------------------------------------------------
    let meta = RunMeta::new("serve-demo", "serve", "tcp", WORKERS)
        .param("jobs", FLEET_JOBS)
        .param("tenants", TENANTS.len())
        .param("kills", KILLS.len());
    let json = metrics_json(&meta, std::slice::from_ref(&fleet_obs));
    crate::write_artifact(&mut out, "", "METRICS_serve.json", &json);

    let _ = writeln!(
        out,
        "[{}] serve demo: {FLEET_JOBS} jobs, {} kills, zero lost, bit-identical",
        if ok { "PASS" } else { "FAIL" },
        KILLS.len()
    );
    (out, ok)
}

fn yes(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "NO"
    }
}
