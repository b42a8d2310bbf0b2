//! Pins the `repro serve-demo` fault drill: a multi-tenant job server
//! under injected worker deaths must lose zero jobs and resume every
//! killed or drained job bit-identically; the handshake refuses the
//! one tenant name that would read every tenant's counters; and a spec
//! its engine would refuse is refused at submit.

use qmc_serve::{Client, JobKind, JobSpec, ServeConfig, ServeError, Server};

#[test]
fn serve_demo_loses_nothing_and_resumes_bit_identical() {
    let (report, ok) = qmc_bench::serve_demo::serve_demo(true);
    assert!(ok, "serve demo failed:\n{report}");
    assert!(
        report.contains("completed 240/240 (lost 0)"),
        "fleet must complete in full:\n{report}"
    );
    assert!(
        report.contains("bit-identical to direct runs: 240/240"),
        "every served result must match a direct run:\n{report}"
    );
    assert!(
        report.contains("killed jobs retried: 5/5"),
        "every injected kill must requeue and finish:\n{report}"
    );
    assert!(
        report.contains("tenant metric isolation: yes"),
        "tenant metrics must not leak:\n{report}"
    );
    assert!(
        report.contains("bit-identical resume yes"),
        "the PT kill must resume bit-identically:\n{report}"
    );
    assert!(
        report.contains("rode through in attempts 1"),
        "the PT kill must be absorbed inside one attempt, not requeued:\n{report}"
    );
    assert!(
        report.contains("restarted server resumed bit-identical yes"),
        "the drain/restart act must resume bit-identically:\n{report}"
    );
    assert!(report.contains("[PASS]"), "{report}");
}

#[test]
fn an_empty_tenant_name_is_refused_at_the_handshake() {
    // A non-admin session's `Stats` filter is pinned to its tenant name,
    // and the filter `""` is the admin's global view: a session that
    // handshook with an empty name read every tenant's counters.
    let ckpt_root =
        std::env::temp_dir().join(format!("qmc-serve-empty-tenant-{}", std::process::id()));
    let cfg = ServeConfig {
        workers: 1,
        ckpt_root: ckpt_root.clone(),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, "127.0.0.1:0").expect("server start");
    let mut alice = Client::connect(server.addr(), "alice").expect("alice connects");
    let spec = JobSpec {
        tenant: "alice".into(),
        name: "job".into(),
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
        seed: 3,
        priority: 0,
        ckpt_every: 4,
    };
    let job = alice.submit(&spec).expect("alice submits");
    alice.await_result(job, |_, _, _, _| {}).expect("result");

    match Client::connect(server.addr(), "") {
        Err(ServeError::Rejected(detail)) => {
            assert!(detail.contains("tenant name is empty"), "{detail}")
        }
        Err(other) => panic!("the refusal must be a typed error, got {other:?}"),
        Ok(mut nobody) => {
            let (counters, _) = nobody.stats("").expect("stats");
            let leaked: Vec<_> = counters
                .iter()
                .filter(|(name, _)| name.starts_with("tenant.alice."))
                .collect();
            panic!("an empty-tenant session handshook and reads {leaked:?}");
        }
    }
    // Named tenants are served as before, each its own view.
    let mut bob = Client::connect(server.addr(), "bob").expect("bob connects");
    let (counters, _) = bob.stats("").expect("bob stats");
    assert!(counters
        .iter()
        .all(|(n, _)| !n.starts_with("tenant.alice.")));

    server.shutdown();
    let _ = std::fs::remove_dir_all(ckpt_root);
}

#[test]
fn a_spec_its_engine_refuses_comes_back_rejected() {
    // Admitted, this TFIM spec panicked its worker in
    // `TfimModel::validated` and the job ended `Failed`.
    let ckpt_root =
        std::env::temp_dir().join(format!("qmc-serve-refused-spec-{}", std::process::id()));
    let cfg = ServeConfig {
        workers: 1,
        ckpt_root: ckpt_root.clone(),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, "127.0.0.1:0").expect("server start");
    let mut alice = Client::connect(server.addr(), "alice").expect("alice connects");
    let spec = JobSpec {
        tenant: "alice".into(),
        name: "no-field".into(),
        kind: JobKind::Tfim {
            lx: 4,
            ly: 1,
            j: 1.0,
            h: 0.0,
            m: 4,
            wolff: 1,
        },
        betas: vec![1.0],
        therm: 5,
        sweeps: 15,
        seed: 3,
        priority: 0,
        ckpt_every: 4,
    };
    match alice.submit(&spec) {
        Err(ServeError::Rejected(reason)) => {
            assert!(reason.contains("j and h"), "{reason}")
        }
        other => panic!("h = 0 must be rejected at submit, got {other:?}"),
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(ckpt_root);
}
