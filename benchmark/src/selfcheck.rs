//! `--selfcheck`: the benchmark's description, its build profile and its
//! thread plan must agree with what the binary does. Run by `run.sh`
//! before every measurement; takes milliseconds.

use crate::run::Ctx;
use crate::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::sys;
use crate::workloads;
use qmc_obs::json::Json;
use std::fmt::Write as _;
use std::path::Path;

/// `BENCHMARK.json` as generated from `spec.rs` (`--describe`).
pub fn benchmark_json() -> String {
    let mut s = String::from(
        "{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    let _ = writeln!(s, "  \"run_seconds\": {},", spec::RUN_SECONDS);
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{}",
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}{}",
            better.as_str(),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{}",
            better.as_str(),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `key = value` lines of `[profile.release]` in a manifest, sorted.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").replace(' ', ""))
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

/// Every disagreement found; empty means the benchmark may measure.
pub fn run(home: &Path) -> Vec<String> {
    let mut problems = Vec::new();

    // Names and counts, straight from the tables the binary emits from.
    let mut seen = std::collections::BTreeSet::new();
    for name in WORKLOADS
        .iter()
        .map(|w| w.0)
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0))
    {
        if !name_ok(name) {
            problems.push(format!(
                "name {name:?} is not [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"
            ));
        }
        if !seen.insert(name) {
            problems.push(format!("name {name:?} is used twice"));
        }
    }
    if !(2..=8).contains(&WORKLOADS.len())
        || !(1..=16).contains(&END_TO_END.len())
        || !(1..=128).contains(&PER_LAYER.len())
    {
        problems.push("workload or metric count outside 2..=8 / 1..=16 / 1..=128".into());
    }
    if !END_TO_END.iter().any(|m| m.0 == "setup_s" && m.1 == "s") {
        problems.push("end-to-end metrics lack setup_s".into());
    }

    // BENCHMARK.json says exactly what spec.rs says.
    let described = home.join("../BENCHMARK.json");
    match std::fs::read_to_string(&described) {
        Err(e) => problems.push(format!("{}: {e}", described.display())),
        Ok(text) => {
            let want = Json::parse(&benchmark_json()).expect("generated JSON parses");
            match Json::parse(&text) {
                Err(e) => problems.push(format!("{}: {e}", described.display())),
                Ok(have) if have != want => problems.push(format!(
                    "{} differs from spec.rs; regenerate it with --describe",
                    described.display()
                )),
                Ok(_) => {}
            }
        }
    }

    // The release profile mirrors the root manifest's.
    let own = std::fs::read_to_string(home.join("Cargo.toml")).unwrap_or_default();
    let root = std::fs::read_to_string(home.join("../Cargo.toml")).unwrap_or_default();
    if release_profile(&own).is_empty() || release_profile(&own) != release_profile(&root) {
        problems.push(format!(
            "[profile.release] {:?} differs from the root manifest's {:?}",
            release_profile(&own),
            release_profile(&root)
        ));
    }

    // No workload plans more runnable threads than the host has CPUs,
    // and every workload can say how many operations it will perform.
    let nproc = sys::nproc();
    for trace in [false, true] {
        let ctx = Ctx {
            seed: 0,
            trace,
            quick: false,
            out: home.join("out"),
            ranks: nproc.min(spec::MAX_RANKS),
            pinned: None,
        };
        for (name, _) in WORKLOADS {
            let threads = workloads::planned_threads(name, &ctx);
            // A ladder has at least two rungs, whatever the host.
            if threads > nproc.max(2) {
                problems.push(format!(
                    "{name} plans {threads} runnable threads on {nproc} CPUs"
                ));
            }
            match workloads::planned(name, &ctx) {
                Some(n) if n >= 1 => {}
                _ => problems.push(format!("{name} plans no operations")),
            }
        }
    }
    problems
}
