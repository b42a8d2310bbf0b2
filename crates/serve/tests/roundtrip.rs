//! End-to-end server ↔ client exercises over real sockets: submit,
//! stream, kill-and-requeue, tenant isolation, quota, drain.

use qmc_serve::{
    run_job, Client, JobKind, JobObservables, JobSpec, KillSpec, Outcome, RunCtl, ServeConfig,
    Server, TenantQuota,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(label: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("qmc-serve-it-{}-{label}-{n}", std::process::id()))
}

fn tfim_spec(tenant: &str, name: &str, seed: u64) -> JobSpec {
    JobSpec {
        tenant: tenant.into(),
        name: name.into(),
        kind: JobKind::Tfim {
            lx: 4,
            ly: 1,
            j: 1.0,
            h: 2.0,
            m: 4,
            wolff: 1,
        },
        betas: vec![1.0],
        therm: 5,
        sweeps: 15,
        seed,
        priority: 0,
        ckpt_every: 4,
    }
}

fn reference(spec: &JobSpec) -> JobObservables {
    match run_job(spec, RunCtl::default()) {
        Outcome::Done { obs, .. } => obs,
        other => panic!("reference run must complete, got {other:?}"),
    }
}

#[test]
fn submit_await_drain_round_trip_matches_direct_run() {
    let cfg = ServeConfig {
        workers: 2,
        ckpt_root: scratch("rt"),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, "127.0.0.1:0").expect("server start");
    let addr = server.addr();

    let mut alice = Client::connect(addr, "alice").expect("alice connects");
    let mut bob = Client::connect(addr, "bob").expect("bob connects");

    let sa = tfim_spec("alice", "job-a", 11);
    let sb = tfim_spec("bob", "job-b", 77);
    let ja = alice.submit(&sa).expect("alice submit");
    let jb = bob.submit(&sb).expect("bob submit");
    assert_ne!(ja, jb);

    let mut snaps = 0usize;
    let (obs_a, attempts_a) = alice
        .await_result(ja, |_, _, _, _| snaps += 1)
        .expect("alice result");
    let (obs_b, attempts_b) = bob.await_result(jb, |_, _, _, _| {}).expect("bob result");
    assert_eq!(attempts_a, 1);
    assert_eq!(attempts_b, 1);
    assert!(snaps > 0, "snapshots must stream during the run");

    // Served results are bit-identical to a direct local run.
    assert!(obs_a.bits_eq(&reference(&sa)));
    assert!(obs_b.bits_eq(&reference(&sb)));

    // Tenant metric isolation over the wire: alice's view has no bob
    // counters and vice versa.
    let (alice_counters, _) = alice.stats("alice").expect("alice stats");
    assert!(alice_counters
        .iter()
        .any(|(k, _)| k == "tenant.alice.jobs_completed"));
    assert!(!alice_counters
        .iter()
        .any(|(k, _)| k.contains("tenant.bob.")));
    let (bob_counters, _) = bob.stats("bob").expect("bob stats");
    assert!(!bob_counters
        .iter()
        .any(|(k, _)| k.contains("tenant.alice.")));

    // The filter is pinned to the session's handshaken tenant: bob
    // asking for alice's namespace (or the global "" view) still gets
    // only his own counters.
    for nosy in ["alice", ""] {
        let (counters, health) = bob.stats(nosy).expect("stats reply");
        assert!(
            !counters.iter().any(|(k, _)| k.contains("tenant.alice.")),
            "bob read alice's counters via filter {nosy:?}"
        );
        assert!(health.iter().all(|h| !h.name.contains("alice")));
    }

    // A tenant name is one segment of the metrics namespace. `bob` is a
    // dotted prefix of `bob.ops`, so bob's `tenant.bob.` filter would
    // show that tenant's counters if it could ever own any: its
    // submission is refused, and nosy bob finds nothing under the name.
    let mut ops = Client::connect(addr, "bob.ops").expect("bob.ops connects");
    let err = ops
        .submit(&tfim_spec("bob.ops", "job-c", 5))
        .expect_err("a dotted tenant must be refused");
    assert!(err.to_string().contains("must not contain"), "got: {err}");
    let (counters, health) = bob.stats("bob.ops").expect("stats reply");
    assert!(!counters
        .iter()
        .any(|(k, _)| k.starts_with("tenant.bob.ops")));
    assert!(health.iter().all(|h| !h.name.contains("bob.ops")));

    // Drain is an operator action: a tenant session is refused, the
    // admin session is honored.
    let err = alice.drain().expect_err("tenant drain must be refused");
    assert!(err.to_string().contains("admin"), "got: {err}");
    let mut admin = Client::connect(addr, "admin").expect("admin connects");
    let (global, _) = admin.stats("").expect("admin global stats");
    assert!(global.iter().any(|(k, _)| k.contains("tenant.alice.")));
    assert!(global.iter().any(|(k, _)| k.contains("tenant.bob.")));
    admin.drain().expect("drain ack");
    let obs = server.join();
    assert_eq!(obs.counter("serve.jobs_completed"), 2);
    assert_eq!(obs.counter("serve.requeues"), 0);
}

#[test]
fn killed_worker_requeues_and_resumes_bit_identical() {
    let cfg = ServeConfig {
        workers: 1,
        ckpt_root: scratch("kill"),
        // Job id 0's first attempt dies at sweep 9 (mid-run, past a
        // checkpoint boundary).
        kills: vec![KillSpec {
            job: 0,
            at_sweep: 9,
        }],
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, "127.0.0.1:0").expect("server start");
    let mut client = Client::connect(server.addr(), "carol").expect("connect");

    let spec = tfim_spec("carol", "survivor", 41);
    let id = client.submit(&spec).expect("submit");
    assert_eq!(id, 0);

    let (obs, attempts) = client.await_result(id, |_, _, _, _| {}).expect("result");
    assert_eq!(attempts, 2, "first attempt must die and be requeued");
    assert!(
        obs.bits_eq(&reference(&spec)),
        "resumed run must be bit-identical to an uninterrupted one"
    );

    let mut admin = Client::connect(server.addr(), "admin").expect("admin connects");
    admin.drain().expect("drain ack");
    let counters = server.join();
    assert_eq!(counters.counter("serve.worker_kills"), 1);
    assert_eq!(counters.counter("serve.requeues"), 1);
    assert_eq!(counters.counter("serve.jobs_completed"), 1);
}

#[test]
fn quota_rejections_come_back_over_the_wire() {
    let cfg = ServeConfig {
        workers: 1,
        ckpt_root: scratch("quota"),
        quota: TenantQuota { max_active: 2 },
        // Park the worker so submissions stay active.
        kills: Vec::new(),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, "127.0.0.1:0").expect("server start");
    let mut client = Client::connect(server.addr(), "dora").expect("connect");

    let mut big = tfim_spec("dora", "j0", 1);
    big.sweeps = 4000; // long enough to still be active while we spam
    client.submit(&big).expect("first fits");
    let mut j1 = tfim_spec("dora", "j1", 2);
    j1.sweeps = 4000;
    client.submit(&j1).expect("second fits");
    let err = client
        .submit(&tfim_spec("dora", "j2", 3))
        .expect_err("third must exceed the quota");
    assert!(err.to_string().contains("quota"), "got: {err}");

    // Invalid specs are rejected with the validation reason.
    let mut bad = tfim_spec("dora", "bad", 4);
    bad.betas = vec![-1.0];
    let err = client.submit(&bad).expect_err("negative beta");
    assert!(err.to_string().contains("beta"), "got: {err}");

    let mut admin = Client::connect(server.addr(), "admin").expect("admin connects");
    admin.drain().expect("drain ack");
    server.join();
}

/// Two live jobs must never share a checkpoint namespace: the sanitized
/// directory key is enforced at admission, and a completed job's
/// namespace is released (its checkpoint directory removed) so the name
/// can be reused from a clean store.
#[test]
fn live_namespace_collisions_are_rejected_and_done_jobs_release_disk() {
    let root = scratch("ns");
    let cfg = ServeConfig {
        workers: 1,
        ckpt_root: root.clone(),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, "127.0.0.1:0").expect("server start");
    let mut client = Client::connect(server.addr(), "erin").expect("connect");

    let mut long = tfim_spec("erin", "job a", 5);
    long.sweeps = 4000; // stays live while we probe the collision
    let id = client.submit(&long).expect("first name fits");
    // "job_a" sanitizes to the same checkpoint directory as "job a".
    let err = client
        .submit(&tfim_spec("erin", "job_a", 6))
        .expect_err("colliding namespace while live");
    assert!(err.to_string().contains("collides"), "got: {err}");

    let (_, attempts) = client.await_result(id, |_, _, _, _| {}).expect("result");
    assert_eq!(attempts, 1);
    // Done: the namespace directory is gone and the name is free again.
    assert!(
        !root.join("erin").join("job_a").exists(),
        "completed job's checkpoint namespace must be removed"
    );
    let id2 = client
        .submit(&tfim_spec("erin", "job_a", 6))
        .expect("name is free after completion");
    client.await_result(id2, |_, _, _, _| {}).expect("reran");

    let mut admin = Client::connect(server.addr(), "admin").expect("admin connects");
    admin.drain().expect("drain ack");
    server.join();
}

/// A result is delivered once: the `Await` that receives it claims the
/// record, so a second `Await` of the same id gets the same clean error
/// as an id that never existed.
#[test]
fn delivered_results_return_a_clean_error() {
    let cfg = ServeConfig {
        workers: 1,
        ckpt_root: scratch("delivered"),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, "127.0.0.1:0").expect("server start");
    let mut client = Client::connect(server.addr(), "fay").expect("connect");

    let spec = tfim_spec("fay", "short", 11);
    let id = client.submit(&spec).expect("submit");
    let (obs, _) = client.await_result(id, |_, _, _, _| {}).expect("result");
    assert!(obs.bits_eq(&reference(&spec)));

    let again = client
        .await_result(id, |_, _, _, _| {})
        .expect_err("a delivered result is not held");
    assert!(
        again.to_string().contains("already delivered"),
        "the error must say so, got: {again}"
    );

    // An id that never existed is reported as unknown, by the same text.
    let unknown = client
        .await_result(9_999, |_, _, _, _| {})
        .expect_err("unknown id");
    assert!(
        unknown.to_string().contains("unknown job"),
        "got: {unknown}"
    );
    assert_eq!(
        unknown.to_string().replace("9999", &id.to_string()),
        again.to_string()
    );

    let mut admin = Client::connect(server.addr(), "admin").expect("admin connects");
    admin.drain().expect("drain ack");
    server.join();
}

/// Regression: `--ckpt-every 0` used to start fine and then fail every
/// job that left `ckpt_every` at "0 = server default" with a
/// remainder-by-zero panic inside the attempt. Start-up refuses it, and
/// an attempt handed a zero cadence directly fails with the same typed
/// reason instead of panicking.
#[test]
fn a_zero_cadence_is_refused_at_start_up_and_per_attempt() {
    let zero = qmc_ckpt::CkptError::ZeroCadence;
    let cfg = ServeConfig {
        ckpt_root: scratch("zero-cadence"),
        ckpt_every: 0,
        ..ServeConfig::default()
    };
    let err = Server::start(cfg, "127.0.0.1:0")
        .err()
        .expect("a zero cadence must not start");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert_eq!(err.get_ref().and_then(|e| e.downcast_ref()), Some(&zero));

    let store = qmc_ckpt::CkptStore::new(scratch("zero-attempt"), 3).unwrap();
    let ctl = RunCtl {
        store: Some(&store),
        every: 0,
        ..Default::default()
    };
    let outcome = run_job(&tfim_spec("alice", "zero", 3), ctl);
    assert!(
        matches!(&outcome, Outcome::Failed { reason } if *reason == zero.to_string()),
        "{outcome:?}"
    );
}
