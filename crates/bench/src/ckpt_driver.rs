//! Stepwise checkpointed drivers for the serial engines.
//!
//! Each driver is a step closure over [`qmc_ckpt::drive`], the one
//! sweep-boundary run loop, replaying the exact sweep/measure sequence of
//! its engine's `run()` method (thermalization/measurement split on `s >=
//! therm`). The checkpoint captures engine, RNG, and accumulated series
//! together, so a resumed run continues the identical fixed-seed
//! trajectory bit for bit; the crash-at-every-boundary tests in
//! `tests/checkpoint.rs` pin this for every engine and every sweep index.
//! With `ck = None` a driver *is* the plain run, so callers need no
//! "checkpointing on?" fork.
//!
//! `None` = the run ended early: a simulated crash just before sweep
//! `kill_at` (the store left exactly as a real mid-run failure would), or
//! a drain (`Policy::stop` raised).

use qmc_ckpt::{drive, Checkpoint, CkptError, End, Policy};
use qmc_lattice::Lattice;
use qmc_rng::Rng64;
use qmc_sse::{Sse, SseSeries};
use qmc_tfim::serial::{SerialTfim, TfimSeries};
use qmc_tfim::TfimModel;
use qmc_worldline::estimators::TimeSeries;
use qmc_worldline::{GenericParams, GenericWorldline, Worldline, WorldlineParams};

/// `true` when every sweep ran. A store that does not restore is a
/// caller error here (wrong directory, wrong engine), not tenant input.
fn finished(end: Result<End, CkptError>) -> bool {
    end.expect("restore from checkpoint") == End::Finished
}

/// Checkpointed serial TFIM run; draw-for-draw identical to
/// [`SerialTfim::run`]. Returns the final engine alongside the series;
/// `None` = simulated crash at `kill_at`.
pub fn run_serial_tfim_ckpt<R: Rng64 + Checkpoint>(
    model: TfimModel,
    rng: &mut R,
    therm: usize,
    sweeps: usize,
    wolff_per_sweep: usize,
    ck: Option<&Policy<'_>>,
    kill_at: Option<usize>,
) -> Option<(SerialTfim, TfimSeries)> {
    let mut eng = SerialTfim::new(model);
    let mut series = TfimSeries::default();
    let done = drive(
        (&mut eng, rng, &mut series),
        therm + sweeps,
        ck,
        kill_at,
        |eng, rng, series, s| {
            eng.metropolis_sweep(rng);
            for _ in 0..wolff_per_sweep {
                eng.wolff_update(rng);
            }
            if s >= therm {
                series.record(&eng.measure());
            }
        },
        |_, _| {},
    );
    finished(done).then_some((eng, series))
}

/// Checkpointed world-line chain run; draw-for-draw identical to
/// [`Worldline::run`].
pub fn run_worldline_ckpt<R: Rng64 + Checkpoint>(
    params: WorldlineParams,
    rng: &mut R,
    therm: usize,
    sweeps: usize,
    ck: Option<&Policy<'_>>,
    kill_at: Option<usize>,
) -> Option<(Worldline, TimeSeries)> {
    let mut eng = Worldline::new(params);
    let mut series = TimeSeries::with_capacity(params.l, sweeps);
    series.set_beta(params.beta);
    let done = drive(
        (&mut eng, rng, &mut series),
        therm + sweeps,
        ck,
        kill_at,
        |eng, rng, series, s| {
            eng.sweep(rng);
            if s >= therm {
                series.record(&qmc_worldline::estimators::measure(eng));
                series.record_correlations(eng);
            }
        },
        |_, _| {},
    );
    finished(done).then_some((eng, series))
}

/// Checkpointed generic world-line run; draw-for-draw identical to
/// [`GenericWorldline::run`].
pub fn run_generic_worldline_ckpt<L: Lattice, R: Rng64 + Checkpoint>(
    lattice: L,
    params: GenericParams,
    rng: &mut R,
    therm: usize,
    sweeps: usize,
    ck: Option<&Policy<'_>>,
    kill_at: Option<usize>,
) -> Option<(GenericWorldline<L>, TimeSeries)> {
    let n_sites = lattice.num_sites();
    let mut eng = GenericWorldline::new(lattice, params);
    let mut series = TimeSeries::with_capacity(n_sites, sweeps);
    series.set_beta(params.beta);
    let done = drive(
        (&mut eng, rng, &mut series),
        therm + sweeps,
        ck,
        kill_at,
        |eng, rng, series, s| {
            eng.sweep(rng);
            if s >= therm {
                series.record(&eng.measure());
            }
        },
        |_, _| {},
    );
    finished(done).then_some((eng, series))
}

/// Checkpointed SSE run; draw-for-draw identical to [`Sse::run`]
/// (thermalization sweeps adapt the cutoff, measured sweeps do not).
///
/// `Sse::new` itself consumes RNG draws for the random initial state, so
/// the caller must pass a freshly seeded RNG on resume too — the restore
/// then rewinds both engine and RNG to the checkpointed state.
#[allow(clippy::too_many_arguments)]
pub fn run_sse_ckpt<L: Lattice, R: Rng64 + Checkpoint>(
    lattice: &L,
    j: f64,
    beta: f64,
    rng: &mut R,
    therm: usize,
    sweeps: usize,
    ck: Option<&Policy<'_>>,
    kill_at: Option<usize>,
) -> Option<(Sse, SseSeries)> {
    let mut eng = Sse::new(lattice, j, beta, rng);
    let mut series = eng.begin_series(sweeps);
    let done = drive(
        (&mut eng, rng, &mut series),
        therm + sweeps,
        ck,
        kill_at,
        |eng, rng, series, s| {
            eng.sweep(rng);
            if s < therm {
                eng.adjust_cutoff();
            } else {
                eng.record_measurement(series);
            }
        },
        |_, _| {},
    );
    finished(done).then_some((eng, series))
}
