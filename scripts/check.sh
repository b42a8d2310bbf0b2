#!/usr/bin/env bash
# Pre-merge gate: formatting, lints, and the tier-1 build+test suite.
# Run from anywhere inside the repository.
#
#   scripts/check.sh          — the standard gate
#   scripts/check.sh --full   — additionally run the suite under Miri
#                               when the toolchain has it (skipped
#                               gracefully offline: `rustup component
#                               add miri` needs the network)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

FULL=0
for arg in "$@"; do
  case "$arg" in
    --full) FULL=1 ;;
    *) echo "usage: $0 [--full]" >&2; exit 2 ;;
  esac
done

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
# A doc link to a deleted, renamed or private item, or an ambiguous one,
# fails here instead of rotting in the rendered docs.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
# Every test binary runs exactly once per profile, here: the unit suites
# (qmc-ckpt slot store / torn-write matrix / coordinated restore / shared
# drive loop, qmc-verify trace checker, qmc-bench `faults`), the comm
# conformance and deadlock-detector suites, and the integration suites —
# observability (determinism + artifact schema), checkpoint (crash-at-
# every-boundary matrix, drain, v1 resume, bench<->serve cross-resume),
# alloc_guard (zero steady-state allocations), explore (DPOR and
# state-search budgets + mutant replays on the real code), serve,
# elastic. The stages below only add what `cargo test` does not run:
# lints, demos, drills.
cargo test -q

echo "== one emitter: the schema key and the string escape live in obs/json.rs only =="
if grep -rnE --include='*.rs' '\\"schema\\"|key\("schema"\)|fn esc' crates | grep -v '^crates/obs/src/json\.rs:'; then exit 1; fi

echo "== one protocol: the rows/k + head chunk arithmetic and its refusals live in qmc-ckpt only =="
# A chunked series lists its columns and writes its head; which rows a
# chunk holds, when it is dirty and every reason to refuse one are
# qmc_ckpt::chunk's, tested once in crates/ckpt/tests/chunk.rs. A hit
# here is a second copy of the protocol growing back in an engine crate.
if grep -rnE --include='*.rs' 'chunk::(range|is_dirty|name|count)\(|carries index|arrived at row|malformed columns|head claims' crates | grep -v '^crates/ckpt/'; then exit 1; fi

echo "== one commit path: no rename, no canonicalize, no temp file in qmc-ckpt =="
# A generation reaches the disk by one in-place write into a slot file
# (crates/ckpt/src/store.rs). A hit here is the temp + rename path, or
# the writer registry it needed, growing back. The temp-file suffix may
# appear where the orphans of older builds are swept, and in the unit
# tests that plant them.
if grep -rnE --include='*.rs' 'fs::rename|canonicalize' crates/ckpt/src; then exit 1; fi
if awk 'FNR == 1 { gc = 0; tests = 0 }
        /^#\[cfg\(test\)\]/ { tests = 1 }
        /pub fn gc_temp_files/ { gc = 1 }
        gc && /^    }$/ { gc = 0 }
        !gc && !tests && /\.tmp/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        END { exit !hit }' crates/ckpt/src/*.rs; then exit 1; fi

echo "== one framing: a section's name, tag, payload and CRC are written by frame_section only =="
# Every image (CkptFile::to_bytes, RawCkpt::to_bytes) and every fragment
# of a commit, serial or coordinated, frames its sections through frame_section in
# crates/ckpt/src/file.rs, which folds a payload's CRC into the image's
# instead of summing the bytes again. A hit here is a second framing
# growing back: a section tag written, or a length-prefixed payload
# followed by its CRC.
if awk 'FNR == 1 { fr = 0; tests = 0; prev = "" }
        /^#\[cfg\(test\)\]/ { tests = 1 }
        /^pub\(crate\) fn frame_section\(/ { fr = 1 }
        fr && /^}$/ { fr = 0; next }
        fr || tests || /^[[:space:]]*(\/\/|$)/ { next }
        /\.u8\(TAG_/ || (prev ~ /\.bytes\([^)]/ && /\.u32\([^)]/) { print FILENAME ":" FNR ": " $0; hit = 1 }
        { prev = $0 }
        END { exit !hit }' crates/ckpt/src/*.rs; then exit 1; fi

echo "== one writer: every generation goes RankSections -> write_fragments -> commit, decided by DeltaBase =="
# A serial store and every rank of a coordinated commit frame their
# sections with coord::RankSections; CkptStore::write_fragments puts the
# image header and trailer around the fragments and is the only caller of
# CkptStore::commit. Whether a generation is a delta is decided once, in
# DeltaBase::delta_on, by comparing the base with the generation being
# written. A hit here is a second writer or a second copy of that rule
# growing back: a commit called from elsewhere, or a base compared with a
# generation outside delta_on (load_in's check that a delta it reads is on
# an older base is a reader's, not a decision).
if awk 'FNR == 1 { tests = 0; fn = "" }
        /^#\[cfg\(test\)\]/ { tests = 1 }
        tests || /^[[:space:]]*\/\// { next }
        match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
        /\.commit\(/ && fn != "write_fragments" { print FILENAME ":" FNR ": " $0; hit = 1 }
        /[<>]=? *(generation|[a-z_]+ as u64)([^a-z_]|$)|generation *[<>]/ && fn != "delta_on" && fn != "load_in" {
          print FILENAME ":" FNR ": " $0; hit = 1 }
        END { exit !hit }' crates/ckpt/src/*.rs; then exit 1; fi

echo "== one scheduler: qmc-verify's models restate nothing of qmc_serve::Sched =="
# The job lifecycle is explored on the scheduler that ships:
# crates/bench/src/sched_model.rs calls Sched::{submit, next_work, settle} on a
# clone per transition. The models under crates/verify/src/model mirror
# message protocols only. A hit here is the scheduler mirror growing
# back: a job state, a quota, a priority or a requeue written a second
# time, beside the code it would drift from.
if grep -rnE --include='*.rs' 'JobSt|Queued|Paused|quota|priorit|requeue|pop_next' crates/verify/src/model; then exit 1; fi

echo "== one observer: only qmc-comm implements Communicator, and one type counts a channel =="
# Whatever only watches the message stream is an Observer behind
# qmc_comm::Observed (obs's Tracer, verify's Recorder); FaultyComm, which
# perturbs delivery, is the only other decorator. Per-channel sequence
# numbers are counted by qmc_comm::ChannelSeq, which both number their
# traffic with. A hit here is a whole-trait decorator forwarding every
# method again, or a second channel counter, growing back.
if awk 'FNR == 1 { tests = 0 }
        /^#\[cfg\(test\)\]/ { tests = 1 }
        tests || /^[[:space:]]*\/\// { next }
        /Communicator for/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        END { exit !hit }' $(find crates -path '*/src/*' -name '*.rs' -not -path 'crates/comm/src/*'); then exit 1; fi
if grep -rnE --include='*.rs' 'HashMap<\(usize, u32\), u64>' crates/comm/src; then exit 1; fi

echo "== one world per launch: a respawn is a fresh world resuming from the store =="
# qmc_comm::try_run_threads builds new mailboxes and a new poison word on
# every call, and a caller that respawns after a rank death relaunches
# through it. A hit here is in-place respawn growing back: a mailbox
# or poison reset between rounds, a round counter on ThreadComm, or the
# protocol model that mirrored the reset.
if grep -rnE --include='*.rs' 'reset_for_respawn|fn incarnation|fn clear' crates/comm/src; then exit 1; fi
if grep -rn --include='*.rs' 'RespawnModel' crates; then exit 1; fi

echo "== one codec: bytes are written and read by qmc_comm::wire only =="
# Checkpoint images, every qmc-serve/v1 message and the rank-record
# gather are encoded by qmc_comm::wire's Encoder / Decoder. A hit here is
# a second codec growing back: a writer or reader defined elsewhere, or
# raw little-endian conversions in the observability or job-server code.
if grep -rnE --include='*.rs' 'struct (Encoder|Decoder|Cursor)\b|fn put_u64\b' crates tests examples |
   grep -v '^crates/comm/src/wire\.rs:'; then exit 1; fi
if grep -rnE --include='*.rs' '(to|from)_le_bytes' crates/obs/src crates/serve/src; then exit 1; fi

echo "== one spin layout: the world-line chain keeps its rows packed =="
# Worldline stores each spin row as bits, twice over (x‖x), and every walk
# reads words; the bool-row kernel it replaced lives on only as the test
# oracle. A hit here is one-byte-per-spin storage growing back in the
# engine outside its tests.
if awk '/^mod tests \{/ { tests = 1 }
        tests || /^[[:space:]]*\/\// { next }
        /Vec<bool>/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        END { exit !hit }' crates/worldline/src/engine.rs; then exit 1; fi

echo "== benchmark: builds against this tree, offline and locked =="
# benchmark/ is a standalone package with its own frozen lock file: an
# API or crate-graph break against it must fail here, not in the
# pipeline. The rule for the crates it reaches: a dependency edge may be
# removed (a leftover lock entry still resolves under --locked), never
# added — a new edge or crate needs a lock update, and benchmark/ changes
# only in a [benchmark] PR.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml

echo "== benchmark: every workload runs correct at a tenth of its size =="
# The build only proves benchmark/ compiles. Its oracles, consistency
# and bit-identity checks judge this tree here, so a break fails the gate
# and not the pipeline: a run that finds an output wrong still exits 0
# and says so in its result line, hence the grep. Under a minute, not a
# measurement, writes only the git-ignored benchmark/out/.
bench_report="$(benchmark/run.sh --workload all --quick)"
bench_results="$(grep '^{"correct": ' <<<"$bench_report" || true)"
if [ -z "$bench_results" ] ||
   grep -qv '^{"correct": true, "attempted": [0-9]*, "failed": 0, ' <<<"$bench_results"; then
  echo "benchmark --quick: no result line, or a workload is incorrect or has failed operations:" >&2
  cut -c1-120 <<<"$bench_results" >&2
  exit 1
fi

echo "== verify: workspace lint + recorded-PT verification =="
# qmc-lint over the workspace (token-level invariants), then `repro
# verify`: the recorded-PT protocol check, and (act 4) the explore
# budget+ratio guards, regenerating VERIFY_explore.json.
cargo run -q -p qmc-verify --bin qmc-lint
cargo run -q -p qmc-bench --bin repro -- verify

echo "== serve: multi-tenant job server fault drill =="
# 240 jobs from four tenants over TCP with five injected worker deaths,
# a PT world kill, and a drain/restart — every result must be
# bit-identical to a direct run with zero jobs lost. The same drill is
# pinned as the `serve` integration test; running the binary here also
# regenerates METRICS_serve.json.
cargo run -q --release -p qmc-bench --bin repro -- serve-demo --quick

echo "== elastic: rank respawn + ladder resize drill =="
# A 4-rank PT world loses a rank mid-flight and must finish
# bit-identical (observables + RNG draw counts) after an in-place
# respawn; the same death with a zero budget shrinks the β ladder and
# resumes the survivors deterministically. The crash matrix behind it
# is pinned as the `elastic` integration test, run here a second time
# under the release profile the drill binary uses; the binary
# regenerates VERIFY_elastic.json.
cargo test -q --release -p qmc-bench --test elastic
cargo run -q --release -p qmc-bench --bin repro -- elastic --quick

echo "== pins: fixed-seed trajectories and checkpoint bytes under the profile that is timed =="
# `cargo test` above runs the pins under the dev profile (opt-level 2, no
# LTO), but the benchmark and `repro` are built release + thin LTO, and
# the pins are about f64 bits: a kernel whose rounding moved only under
# the inlining the timed profile does would pass every stage above and
# still publish other numbers than it pinned. Same literals, second
# profile. layout_pins also holds the crc32 table, the images two
# fixed-seed stores materialise and their slot files byte for byte.
# qmc-tfim's unit suite rides along for its oracle comparisons: the
# measurement adds up in byte lanes, and an accumulator too narrow
# panics under dev but wraps without a word under release. qmc-sse's
# does too: its sweep is compared pass for pass against the full-string
# scan it replaced, under the inlining the benchmark times. So do
# qmc-worldline's (the packed-row walks against the bool-row kernel, move
# for move: spins, counters and draws) and qmc-core's (the tempering
# ladders built on them).
cargo test -q --release -p qmc-bench --test trajectory_pins --test layout_pins
cargo test -q --release -p qmc-tfim
cargo test -q --release -p qmc-sse
cargo test -q --release -p qmc-worldline -p qmc-core

echo "== analyze: causal trace -> critical-path report =="
# Records the 4-rank traced PT demo, merges the per-rank streams into
# the happens-before DAG, and prints the critical path + attribution.
# Exits non-zero if message matching or the path walk fails.
cargo run -q --release -p qmc-bench --bin repro -- analyze

echo "== bench-quick: packed-kernel speedup guard =="
# The four in-window ratio guards on shrunk fixed-seed work. The
# multi-spin coded sweep must stay >= 1.2x the scalar kernel, median over
# median of 5 (the full-run target is 1.6x; --quick relaxes it so gate
# latency stays in seconds) or the run exits non-zero; the obs / trace /
# ckpt overhead lines are printed and warn. The floors were 2x / 4x while
# the scalar kernel was the site-by-site loop: the colour kernel made the
# denominator 2.1x faster, so an unchanged packed engine reads ~2.1x
# (--quick: 2.0-2.5x) where it read ~5x.
cargo run -q --release -p qmc-bench --bin repro -- bench --quick

if [ "$FULL" = "1" ]; then
  if cargo miri --version >/dev/null 2>&1; then
    echo "== full: cargo miri test (UB check) =="
    # Miri cannot run the timing-sensitive thread-world suites; the pure
    # data-structure crates are where UB would hide.
    cargo miri test -q -p qmc-rng -p qmc-stats -p qmc-lattice -p qmc-ckpt -p qmc-verify
  else
    echo "== full: miri not installed; skipping (rustup component add miri) =="
  fi
fi

echo "All checks passed."
