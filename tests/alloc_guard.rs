//! Zero-steady-state-allocation guard for the four QMC engines.
//!
//! The hot-kernel discipline (see `qmc-lint`'s `hot-alloc` rule) says
//! sweeps may only touch preallocated state. The text lint proves no
//! allocating *call* appears in a `#[qmc_hot::hot]` region; this harness
//! proves the *runtime* claim: after warmup, a sweep performs zero heap
//! allocations — however the calls are spelled or inlined.
//!
//! A counting `#[global_allocator]` tallies allocations, and the bytes
//! they ask for, per thread (thread-local, so the parallel test harness
//! and unrelated test threads cannot bleed into each other's counts).
//! The byte tally guards decoders of untrusted input: a hostile count
//! must cost an error, not a reservation.

use qmc_comm::SerialComm;
use qmc_core::pt::PtLadder;
use qmc_lattice::{Chain, Square};
use qmc_rng::{Buffered, Xoshiro256StarStar};
use qmc_sse::Sse;
use qmc_tfim::parallel::DistTfim;
use qmc_tfim::serial::SerialTfim;
use qmc_tfim::TfimModel;
use qmc_worldline::estimators::{measure, TimeSeries};
use qmc_worldline::weights::PlaqWeights;
use qmc_worldline::{GenericParams, GenericWorldline, Worldline, WorldlineParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Tally one allocation of `bytes` on the current thread. `try_with`
/// keeps late TLS-teardown allocations from recursing or aborting.
fn tally(bytes: usize) {
    let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// Forwards to the system allocator, counting every allocation made by
/// the current thread and the bytes it asked for.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place is still a steady-state allocation as far as
        // the discipline is concerned.
        tally(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Count this thread's allocations across `f`.
fn allocations_during<F: FnOnce()>(f: F) -> u64 {
    let before = ALLOC_COUNT.with(|c| c.get());
    f();
    ALLOC_COUNT.with(|c| c.get()) - before
}

/// Bytes this thread's allocations asked for across `f`.
fn bytes_allocated_during<F: FnOnce()>(f: F) -> u64 {
    let before = ALLOC_BYTES.with(|c| c.get());
    f();
    ALLOC_BYTES.with(|c| c.get()) - before
}

/// Assert the engine allocates nothing over `sweeps` steady-state sweeps.
fn assert_steady_state_clean(name: &str, sweeps: u64, mut sweep: impl FnMut()) {
    let n = allocations_during(|| {
        for _ in 0..sweeps {
            sweep();
        }
    });
    assert_eq!(
        n, 0,
        "{name}: {n} heap allocation(s) across {sweeps} steady-state sweeps \
         (hot kernels must only reuse preallocated buffers)"
    );
}

#[test]
fn serial_tfim_sweep_is_allocation_free() {
    let model = TfimModel {
        lx: 16,
        ly: 16,
        j: 1.0,
        h: 2.0,
        beta: 1.0,
        m: 8,
    };
    let mut eng = SerialTfim::new(model);
    let mut rng = Buffered::new(Xoshiro256StarStar::new(21));
    for _ in 0..20 {
        eng.metropolis_sweep(&mut rng); // warmup: tables, RNG buffer
    }
    assert_steady_state_clean("SerialTfim::metropolis_sweep", 100, || {
        eng.metropolis_sweep(&mut rng)
    });
}

#[test]
fn serial_tfim_recorded_sweep_is_allocation_free() {
    // What `SerialTfim::run` does per sweep, at the benchmark's critical
    // chain, where a cluster is a third of the lattice. The Wolff stack is
    // not sized to the lattice: it doubles up to the deepest cluster a run
    // has met, so the warm-up (fixed seed) is what brings it to size.
    let model = TfimModel {
        lx: 64,
        ly: 1,
        j: 1.0,
        h: 1.0,
        beta: 16.0,
        m: 128,
    };
    let mut eng = SerialTfim::new(model);
    let mut rng = Xoshiro256StarStar::new(29);
    let _ = eng.run(&mut rng, 400, 0, 1);
    let mut energy = 0.0;
    assert_steady_state_clean("SerialTfim: Metropolis + Wolff + measure", 200, || {
        eng.metropolis_sweep(&mut rng);
        eng.wolff_update(&mut rng);
        energy += eng.measure().energy_per_site;
    });
    assert!(energy.is_finite());
}

#[test]
fn dist_tfim_sweep_is_allocation_free() {
    // Two half-sweeps of the colour kernel (scratch on the stack) and two
    // halo exchanges through the persistent buffers; on one rank both
    // directions wrap onto the rank itself.
    let model = TfimModel {
        lx: 16,
        ly: 16,
        j: 1.0,
        h: 2.0,
        beta: 1.0,
        m: 8,
    };
    let mut comm = SerialComm::new();
    let mut eng = DistTfim::new(model, &comm);
    let mut rng = Buffered::new(Xoshiro256StarStar::new(27));
    let _ = eng.run(&mut comm, &mut rng, 20, 0); // warmup: ghosts, RNG buffer
    assert_steady_state_clean("DistTfim::sweep", 100, || eng.sweep(&mut comm, &mut rng));
}

#[test]
fn worldline_sweep_is_allocation_free() {
    let params = WorldlineParams {
        l: 32,
        jx: 1.0,
        jz: 1.0,
        beta: 2.0,
        m: 8,
    };
    let mut w = Worldline::new(params);
    let mut rng = Xoshiro256StarStar::new(22);
    for _ in 0..50 {
        w.sweep(&mut rng);
    }
    assert_steady_state_clean("Worldline::sweep", 100, || w.sweep(&mut rng));
}

#[test]
fn generic_worldline_sweep_is_allocation_free() {
    let params = GenericParams {
        jx: 1.0,
        jz: 1.0,
        beta: 2.0,
        m: 8,
    };
    let mut w = GenericWorldline::new(Square::new(8, 8), params);
    let mut rng = Xoshiro256StarStar::new(23);
    for _ in 0..50 {
        w.sweep(&mut rng);
    }
    assert_steady_state_clean("GenericWorldline::sweep", 100, || w.sweep(&mut rng));
}

#[test]
fn sse_sweep_is_allocation_free() {
    let lat = Square::new(8, 8);
    let mut rng = Xoshiro256StarStar::new(24);
    let mut sse = Sse::new(&lat, 1.0, 2.0, &mut rng);
    // Thermalize until the operator-string cutoff stops growing — cutoff
    // growth legitimately reallocates, so steady state starts after it.
    let _ = sse.run(&mut rng, 500, 0);
    assert_steady_state_clean("Sse::sweep", 100, || sse.sweep(&mut rng));
}

#[test]
fn sse_recorded_sweep_is_allocation_free() {
    let lat = Chain::new(64);
    let mut rng = Xoshiro256StarStar::new(25);
    let mut sse = Sse::new(&lat, 1.0, 2.0, &mut rng);
    let _ = sse.run(&mut rng, 500, 0);
    let mut series = sse.begin_series(100);
    assert_steady_state_clean("Sse::sweep + record_measurement", 100, || {
        sse.sweep(&mut rng);
        sse.record_measurement(&mut series);
    });
    assert_eq!(series.n_ops.len(), 100);
}

#[test]
fn cold_sse_recorded_sweep_is_allocation_free() {
    // The cold end of the benchmark's β scan: the string grows from 64
    // slots to over a thousand while thermalizing, and the occupied-slot
    // list must have grown with it, not be left to grow in the sweeps.
    let lat = Chain::new(64);
    let mut rng = Xoshiro256StarStar::new(30);
    let mut sse = Sse::new(&lat, 1.0, 16.0, &mut rng);
    let _ = sse.run(&mut rng, 500, 0);
    assert!(sse.cutoff() > 1000, "cutoff {}", sse.cutoff());
    let mut series = sse.begin_series(200);
    assert_steady_state_clean("Sse at β = 16: sweep + record_measurement", 200, || {
        sse.sweep(&mut rng);
        sse.record_measurement(&mut series);
    });
    assert_eq!(series.n_ops.len(), 200);
}

#[test]
fn worldline_recorded_sweep_is_allocation_free() {
    let params = WorldlineParams {
        l: 32,
        jx: 1.0,
        jz: 1.0,
        beta: 2.0,
        m: 8,
    };
    let mut w = Worldline::new(params);
    let mut rng = Xoshiro256StarStar::new(26);
    for _ in 0..50 {
        w.sweep(&mut rng);
    }
    let mut series = TimeSeries::with_capacity(params.l, 100);
    series.set_beta(params.beta);
    assert_steady_state_clean(
        "Worldline::sweep + record + record_correlations",
        100,
        || {
            w.sweep(&mut rng);
            series.record(&measure(&w));
            series.record_correlations(&w);
        },
    );
    assert_eq!(series.len(), 100);
}

#[test]
fn worldline_exchange_phase_is_allocation_free() {
    // What a tempering rung evaluates between sweeps: its own log-weight,
    // the log-weight under a neighbour's table, and a measurement, each a
    // walk over per-pattern tables built on the stack.
    let params = WorldlineParams {
        l: 32,
        jx: 1.0,
        jz: 1.0,
        beta: 2.0,
        m: 8,
    };
    let mut w = Worldline::new(params);
    let mut rng = Xoshiro256StarStar::new(28);
    for _ in 0..50 {
        w.sweep(&mut rng);
    }
    let neighbour = PlaqWeights::new(params.jx, params.jz, 1.2 * params.dtau());
    let mut sum = 0.0;
    assert_steady_state_clean(
        "Worldline::log_weight + log_weight_with + measure",
        100,
        || sum += w.log_weight() + w.log_weight_with(&neighbour) + measure(&w).energy_per_site,
    );
    assert!(sum.is_finite());
}

#[test]
fn pt_ladder_sweep_and_exchange_are_allocation_free() {
    // A serial ladder's step: every rung swept, then an exchange phase
    // whose log-weights are stack walks and whose accepted swaps trade
    // two replicas' row buffers in place.
    let mut ladder = PtLadder::new(16, 1.0, 1.0, 8, vec![1.0, 1.1, 1.2, 1.3]);
    let mut rng = Xoshiro256StarStar::new(30);
    for s in 0..50 {
        ladder.sweep(&mut rng);
        ladder.exchange(&mut rng, s % 2);
    }
    let swaps = |l: &PtLadder| l.stats().accepted.iter().sum::<u64>();
    let before = swaps(&ladder);
    let mut phase = 0;
    assert_steady_state_clean("PtLadder::sweep + exchange", 100, || {
        ladder.sweep(&mut rng);
        ladder.exchange(&mut rng, phase);
        phase ^= 1;
    });
    assert!(
        swaps(&ladder) > before,
        "no swap accepted in the guarded sweeps"
    );
}

/// A 24-byte rank record claiming `u64::MAX` spans is refused before
/// anything is reserved. Reserving even a capped count up front would
/// cost tens of MiB (a span is 56 bytes) for a payload that then fails.
#[test]
fn hostile_rank_record_count_reserves_nothing() {
    let payload: Vec<u8> = [0u64, 0, u64::MAX]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let mut refused = false;
    let bytes = bytes_allocated_during(|| {
        refused = qmc_obs::RankObs::from_bytes(&payload).is_err();
    });
    assert!(refused, "a record claiming u64::MAX spans decoded");
    assert!(
        bytes < 4096,
        "decoding a 24-byte hostile record allocated {bytes} bytes"
    );
}
