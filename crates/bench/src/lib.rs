//! Experiment implementations behind the `repro` binary.
//!
//! One module per table/figure of the evaluation (see DESIGN.md for the
//! experiment index). Every function returns the rendered text of its
//! table(s) so the binary, the integration tests, and EXPERIMENTS.md all
//! consume the same output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

pub mod analyze;
pub mod elastic;
pub mod faults;
pub mod figures;
pub mod kernels;
pub mod obs;
pub mod scaling;
pub mod sched_model;
pub mod serve_demo;
pub mod validation;
pub mod verify;

/// Write `text` as the artifact `file` at the repository root and log
/// the outcome as one `indent`ed line of `out`; false when the write
/// failed.
pub(crate) fn write_artifact(out: &mut String, indent: &str, file: &str, text: &str) -> bool {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, text) {
        Ok(()) => {
            let _ = writeln!(out, "{indent}wrote {file} ({} bytes)", text.len());
            true
        }
        Err(e) => {
            let _ = writeln!(out, "{indent}could not write {file}: {e}");
            false
        }
    }
}

/// A fresh scratch directory path for one drill run.
pub(crate) fn scratch(label: &str) -> std::path::PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("qmc-drill-{}-{label}-{n}", std::process::id()))
}

/// Everything, in order — `repro all`.
pub fn run_all(quick: bool) -> String {
    let mut out = String::new();
    for (name, f) in registry() {
        out.push_str(&format!("=== {name} ===\n"));
        out.push_str(&f(quick));
        out.push('\n');
    }
    out
}

type Runner = fn(bool) -> String;

/// The experiment registry: `(id, runner)` pairs.
pub fn registry() -> Vec<(&'static str, Runner)> {
    vec![
        ("f1", figures::f1_heisenberg_chain_thermo as Runner),
        ("f2", figures::f2_trotter_extrapolation),
        ("f3", figures::f3_xy_susceptibility),
        ("f4", figures::f4_tfim_critical_sweep),
        ("f5", figures::f5_heisenberg_2d),
        ("t1", scaling::t1_strong_scaling),
        ("t2", scaling::t2_weak_scaling),
        ("t3", scaling::t3_comm_fraction),
        ("t4", validation::t4_parallel_tempering),
        ("t5", validation::t5_cross_validation),
        ("t6", validation::t6_rng_quality),
    ]
}
