//! `repro bench` — the four in-window ratio guards of the hot kernels.
//!
//! Absolute ns/op per layer is the business of `benchmark/` (its
//! `--trace 1` per-layer metrics and `history.jsonl`); what a harness
//! that runs workloads one after another cannot express is a *ratio
//! taken inside one timing window*, where scheduler and thermal drift
//! are common-mode. Those stay here, on fixed seeds and fixed work:
//!
//! * `packed speedup vs scalar` ≥ 1.6× (1.2× under `--quick`): the
//!   replica-packed multi-spin sweep against the scalar sweep, median
//!   over median. The only hard guard — a miss is exit 1. The floor was
//!   4× (2×) while the denominator was the site-by-site loop; with the
//!   colour kernel `SerialTfim::metropolis_sweep` itself runs 2.1× faster
//!   on this model (8.7 → 4.1 ns per site), so the same unchanged
//!   `PackedReplicas` that reads 4.0–6.1× against the old loop (median of
//!   six runs 5.2×) reads 1.5–2.7× (median of seven 2.1×) against the new
//!   one, same host, same day. The number now says what 64-lane packing,
//!   with its own RNG discipline and approximate `u32` thresholds, still
//!   buys over a bit-exact scalar kernel — no longer "branch-free vs
//!   branchy". 1.6 is 0.8 × 2.1 rounded down, the margin 4.0 had against
//!   5.0; 1.2 only asks that packed still beats scalar. The two medians
//!   are taken seconds apart, and this host's speed drifts on that scale:
//!   single runs scatter ±30 % around the median. Keyed draws made the
//!   denominator faster again (one `SplitMix64::at` per site, where the
//!   in-order stream counted each block's draws and fetched them in a
//!   batch): on one 2-core host, alternating with the build before, the
//!   unchanged `PackedReplicas` read 1.92–2.42× → 1.25–1.45× under
//!   `--quick` and 1.69–2.96× → 1.17–1.41× on full runs, which misses
//!   1.6×. The floors stay until ROADMAP item 13(ii) settles
//!   whether 64-lane packing still pays.
//! * `obs overhead` ≤ 1.02×, `trace overhead` ≤ 1.02×: recorder on vs
//!   off and `Tracer` vs bare, paired best-of-N.
//! * `ckpt overhead` ≤ 1.03×: a checkpoint every 100 sweeps, the write
//!   time taken inside the run it slows.
//!
//! The three overhead lines warn instead of failing: on a shared box
//! percent-level ratios are reported, not enforced. They divide fixed
//! costs by the scalar sweep, which the colour kernel halved and keyed
//! draws cut again, so each excess over 1 weighs more than it did: on
//! one host `ckpt overhead` read 1.016–1.017 before the colour kernel and
//! 1.033–1.034 after with the write itself unchanged, `trace overhead`
//! 1.013–1.014 and 1.019–1.035. The targets were not moved with it.

use qmc_comm::Communicator;
use qmc_rng::Xoshiro256StarStar;
use qmc_tfim::packed::PackedReplicas;
use qmc_tfim::serial::SerialTfim;
use qmc_tfim::TfimModel;
use std::fmt::Write as _;
use std::time::Instant;

/// Timing repetitions of each side of the packed-vs-scalar ratio (after
/// one untimed warmup); the guard compares *medians*, so one outlier
/// repetition cannot flip the gate.
const REPS: usize = 5;

/// Repetitions for the paired overhead guards. Percent-level ratios need
/// more chances at a contention-free bare/instrumented pair.
const PAIR_REPS: usize = 9;

type SerialRng = Xoshiro256StarStar;

fn tfim_model() -> TfimModel {
    TfimModel {
        lx: 64,
        ly: 64,
        j: 1.0,
        h: 2.0,
        beta: 1.0,
        m: 8,
    }
}

/// The scalar engine and its draw source as the drivers configure them.
fn serial_tfim() -> (SerialTfim, SerialRng) {
    (SerialTfim::new(tfim_model()), Xoshiro256StarStar::new(12))
}

fn secs(f: impl FnOnce()) -> f64 {
    // lint: allow(wall-clock) — benchmark timing is the point
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Median seconds of [`REPS`] runs of `f`, after one warmup run (fills
/// caches, faults pages).
fn median_secs(mut f: impl FnMut()) -> f64 {
    f();
    let mut times = [0.0f64; REPS];
    for t in times.iter_mut() {
        *t = secs(&mut f);
    }
    times.sort_by(|a, b| a.total_cmp(b));
    times[REPS / 2]
}

/// Scalar over replica-packed nanoseconds per site update. 64 replicas
/// of the same 64×64×8 model advance in lockstep, one bitwise word
/// update per site covering all lanes; the elementary operation is
/// still one site update, so the two sides are directly comparable.
fn packed_speedup(scale: usize) -> f64 {
    let cells = {
        let m = tfim_model();
        (m.lx * m.ly * m.m) as f64
    };
    let scalar = {
        let sweeps = 1500 / scale;
        let (mut eng, mut rng) = serial_tfim();
        let t = median_secs(|| {
            for _ in 0..sweeps {
                eng.metropolis_sweep(&mut rng);
            }
        });
        t / (cells * sweeps as f64)
    };
    let packed = {
        let (lanes, sweeps) = (64usize, 50 / scale);
        let mut eng = PackedReplicas::new(tfim_model(), lanes);
        let mut rng = Xoshiro256StarStar::new(17);
        let t = median_secs(|| {
            for _ in 0..sweeps {
                eng.metropolis_sweep(&mut rng);
            }
        });
        t / (cells * (lanes * sweeps) as f64)
    };
    scalar / packed
}

/// The scalar sweep with observability fully on (spans recorded into the
/// ring + metrics flushed per sweep) over the same sweep bare. Paired
/// single-thread design: each repetition times the sweeps bare and then
/// again with a recorder installed, back to back, and the ratio compares
/// the *best* repetition on each side. Contention noise on a shared box
/// is one-sided (it only ever adds time), so best-of-N recovers the
/// uncontended cost of both variants, while the interleaving keeps
/// slower drift common-mode — independent medians drifted ±10 %, 5× the
/// 2 % budget being guarded.
fn obs_overhead(scale: usize) -> f64 {
    let sweeps = 1500 / scale;
    let (mut eng, mut rng) = serial_tfim();
    let mut run = || {
        for _ in 0..sweeps {
            eng.metropolis_sweep(&mut rng);
        }
    };
    run(); // bare warmup
    qmc_obs::init(0, &qmc_obs::ObsConfig::new());
    run(); // instrumented warmup
    let _ = qmc_obs::finish();
    let (mut bare, mut observed) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..PAIR_REPS {
        bare = bare.min(secs(&mut run));
        // Ring allocation happens here, outside the timed window.
        qmc_obs::init(0, &qmc_obs::ObsConfig::new());
        observed = observed.min(secs(&mut run));
        let _ = qmc_obs::finish();
    }
    observed / bare
}

/// Causal-tracing overhead, same paired best-of-N design: the scalar
/// sweep plus a halo-like burst of 8 self-messages per sweep through a
/// `SerialComm`, bare and then observed by [`qmc_obs::Tracer`] with
/// the recorder on (per-sweep span + a ring record and two clock reads
/// per message). Multi-rank timing on a shared box is noisier than the
/// 2 % budget, hence one thread.
fn trace_overhead(scale: usize) -> f64 {
    const MSGS_PER_SWEEP: usize = 8;
    let sweeps = 300 / scale;
    let payload = vec![0u8; 4096];
    let (mut eng, mut rng) = serial_tfim();
    let mut comm = qmc_comm::SerialComm::new();
    fn burst<C: Communicator>(comm: &mut C, payload: &[u8]) {
        for _ in 0..MSGS_PER_SWEEP {
            comm.send_bytes(0, 11, payload);
            let _ = comm.recv_bytes(0, 11);
        }
    }
    let run_bare = |eng: &mut SerialTfim, rng: &mut SerialRng, comm: &mut qmc_comm::SerialComm| {
        for _ in 0..sweeps {
            eng.metropolis_sweep(rng);
            burst(comm, &payload);
        }
    };
    let run_traced =
        |eng: &mut SerialTfim, rng: &mut SerialRng, comm: &mut qmc_comm::SerialComm| {
            let mut traced = qmc_comm::Observed::new(comm, qmc_obs::Tracer);
            secs(|| {
                for _ in 0..sweeps {
                    let _s = qmc_obs::span("bench.sweep");
                    eng.metropolis_sweep(rng);
                    burst(&mut traced, &payload);
                }
            })
        };
    run_bare(&mut eng, &mut rng, &mut comm); // warmup
    qmc_obs::init(0, &qmc_obs::ObsConfig::new());
    // Traced warmup: fills the ring once so steady-state overwrites, not
    // first-touch, are what gets timed.
    run_traced(&mut eng, &mut rng, &mut comm);
    let (mut bare, mut traced) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..PAIR_REPS {
        bare = bare.min(secs(|| run_bare(&mut eng, &mut rng, &mut comm)));
        traced = traced.min(run_traced(&mut eng, &mut rng, &mut comm));
    }
    let _ = qmc_obs::finish();
    traced / bare
}

/// The scalar sweep checkpointing every 100 sweeps (engine + RNG into an
/// atomic generation store). The write branch is timed inside the run,
/// so the ratio `total / (total - writes)` comes from a single timing
/// window — scheduler and thermal drift cancel instead of swamping the
/// percent-level signal.
fn ckpt_overhead(scale: usize) -> f64 {
    let sweeps = 1500 / scale;
    let (mut eng, mut rng) = serial_tfim();
    let dir = std::env::temp_dir().join(format!("qmc-bench-ckpt-{}", std::process::id()));
    let store = qmc_ckpt::CkptStore::new(&dir, 2).expect("scratch checkpoint dir");
    let (mut total, mut writes) = (0.0, 0.0);
    for round in 0..4 {
        let mut w = 0.0;
        let elapsed = secs(|| {
            for s in 0..sweeps {
                if s % 100 == 0 {
                    w += secs(|| {
                        let mut file = qmc_ckpt::CkptFile::new();
                        let mut meta = qmc_ckpt::Encoder::new();
                        meta.u64(s as u64);
                        file.add("meta", meta.into_bytes());
                        file.add_state("engine", &eng);
                        file.add_state("rng", &rng);
                        let _ = store.write(s as u64, &file);
                    });
                }
                eng.metropolis_sweep(&mut rng);
            }
        });
        if round > 0 {
            // Round 0 is warmup (cold caches, first page faults).
            total += elapsed;
            writes += w;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    total / (total - writes)
}

/// `repro bench`: the rendered guard lines and whether the packed
/// speedup met its target (≥ 1.6× full, ≥ 1.2× under `--quick`, which
/// times a handful of sweeps — enough to smoke the guard at a relaxed
/// threshold, not to certify the full one).
pub fn bench_guards(quick: bool) -> (String, bool) {
    let scale = if quick { 10 } else { 1 };
    let packed = packed_speedup(scale);
    let packed_target = if quick { 1.2 } else { 1.6 };
    let packed_ok = packed >= packed_target;
    let obs = obs_overhead(scale);
    let trace = trace_overhead(scale);
    let ckpt = ckpt_overhead(scale);

    let mark = |ok: bool, miss: &'static str| if ok { "PASS" } else { miss };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Kernel ratio guards (fixed seeds, fixed work{}):",
        if quick { ", --quick: sizes / 10" } else { "" }
    );
    let _ = writeln!(
        out,
        "packed speedup vs scalar (replica-packed, median/median of {REPS}): {packed:.2}x \
         (target >= {packed_target:.1}x) [{}]",
        mark(packed_ok, "FAIL")
    );
    let _ = writeln!(
        out,
        "obs overhead (spans+metrics on vs off, paired best-of-{PAIR_REPS}): {obs:.3}x \
         (target <= 1.02x) [{}]",
        mark(obs <= 1.02, "WARN")
    );
    let _ = writeln!(
        out,
        "trace overhead (Tracer+spans vs bare, paired best-of-{PAIR_REPS}): {trace:.3}x \
         (target <= 1.02x) [{}]",
        mark(trace <= 1.02, "WARN")
    );
    let _ = writeln!(
        out,
        "ckpt overhead (every 100 sweeps vs off): {ckpt:.3}x (target <= 1.03x) [{}]",
        mark(ckpt <= 1.03, "WARN")
    );
    (out, packed_ok)
}
