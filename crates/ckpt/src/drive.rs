//! The sweep-boundary run loop: restore → cadence → drain → kill → step.
//!
//! Before sweep `s` runs: write the generation due at `s` (so generation
//! `g` is the state *entering* sweep `g`), honour a drain request with one
//! final full generation, honour an injected kill, and only then step.
//! Resuming generation `g` therefore replays sweeps `g..` on the identical
//! fixed-seed trajectory. [`drive`] is that loop; [`run_engine`] runs any
//! [`Engine`] through it, and is how every serial engine runs: its own
//! `run()`, the `qmc` CLI and `qmc-serve`'s TFIM jobs, against one
//! `engine` / `rng` / `series` section layout, so a store written by one
//! resumes under another.
//!
//! The parallel-tempering loop in `qmc_core::pt` keeps its own body — its
//! drain verdict is a broadcast and its writes are rank-0-coordinated —
//! but takes every *decision* from here: [`Cadence::due`] is the only
//! copy of the cadence modulus and the full-snapshot rule, [`write_meta`]
//! / [`read_meta`] the only `meta` header codec, [`restore_sections`] the
//! only legacy-vs-sectioned layout switch. Whether a due generation is a
//! delta is the writer's to decide, from its base (`DeltaBase`), in the
//! serial store and on every rank alike.

use crate::{restore_sections, Checkpoint, CkptError, CkptFile, CkptStore, Decoder, Encoder};
use std::sync::atomic::{AtomicBool, Ordering};

/// When generations are written, and which of them are full snapshots.
/// Construction rejects a zero cadence, so [`Cadence::due`] cannot divide
/// by zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cadence {
    every: usize,
    full_every: usize,
}

impl Cadence {
    /// A generation every `every` sweeps; every `full_every`-th of them a
    /// full snapshot and the ones in between deltas against it. A
    /// `full_every` of `0` disables deltas (every generation is full).
    /// `every == 0` is [`CkptError::ZeroCadence`].
    pub fn new(every: usize, full_every: usize) -> Result<Self, CkptError> {
        if every == 0 {
            return Err(CkptError::ZeroCadence);
        }
        Ok(Self { every, full_every })
    }

    /// `Some(want_full)` when a generation is due at sweep boundary `s`.
    /// A drain can land between cadence boundaries, where the
    /// generation-index arithmetic has no meaning — draining always
    /// writes, and always a full snapshot.
    pub fn due(&self, s: usize, draining: bool) -> Option<bool> {
        if draining {
            return Some(true);
        }
        s.is_multiple_of(self.every)
            .then(|| self.full_every == 0 || (s / self.every).is_multiple_of(self.full_every))
    }
}

/// Checkpoint policy of one run.
pub struct Policy<'a> {
    /// Generation store (one in-place write per commit, retain-K rule).
    pub store: &'a CkptStore,
    /// Write cadence and full-snapshot rule.
    pub cadence: Cadence,
    /// Resume from the newest valid generation before sweeping (a fresh
    /// store has none, so this is safe to leave on).
    pub resume: bool,
    /// Graceful-drain flag: when raised (observed at a sweep boundary)
    /// the driver writes a final full generation and returns early
    /// instead of being killed mid-write. A later run with `resume`
    /// continues the identical trajectory bit for bit.
    pub stop: Option<&'a AtomicBool>,
}

/// How a [`drive`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// Every sweep ran.
    Finished,
    /// The stop flag was seen at boundary `at`; the store's newest
    /// generation is a full snapshot of the state entering sweep `at`.
    Drained { at: usize },
    /// The injected kill fired before sweep `at` ran, after any
    /// generation due at `at` was written — the store is exactly what a
    /// real mid-run death would leave.
    Killed { at: usize },
}

/// The payload of the `meta` section every driver writes first, appended
/// to `enc`: the sweep index the generation carries, then the driver's
/// own counters.
pub fn write_meta(enc: &mut Encoder, sweep: usize, extra: &[u64]) {
    enc.u64(sweep as u64);
    for &x in extra {
        enc.u64(x);
    }
}

/// Decode the `meta` section written by [`write_meta`] into the sweep
/// index (which must equal `generation`) and `extra`.
pub fn read_meta(file: &CkptFile, generation: u64, extra: &mut [u64]) -> Result<usize, CkptError> {
    let mut dec = Decoder::new(file.require("meta")?);
    let sweep = dec.u64()?;
    if sweep != generation {
        return Err(CkptError::corrupt(format!(
            "generation {generation} carries sweep index {sweep}"
        )));
    }
    for x in extra {
        *x = dec.u64()?;
    }
    Ok(sweep as usize)
}

/// A serial engine, as the one run loop sees it: one sweep at a time,
/// each either thermalising or recorded into the engine's series.
///
/// `R` is the random source the engine draws from (this crate cannot name
/// `qmc_rng::Rng64`, which depends on it).
pub trait Engine<R>: Checkpoint {
    /// The measurement series a run records.
    type Series: Checkpoint;

    /// The empty series of a run of `sweeps` recorded sweeps, carrying
    /// what the engine was built with that a restore must match.
    fn begin_series(&self, sweeps: usize) -> Self::Series;

    /// One sweep, recorded into `record`; `None` while thermalising,
    /// where an engine may still tune itself (SSE grows its cutoff).
    fn advance(&mut self, rng: &mut R, record: Option<&mut Self::Series>);
}

/// Thermalise `eng` for `therm` sweeps, then record `sweeps` more, through
/// [`drive`] under `policy`: the run ends as [`drive`]'s does, and
/// `kill_at` and `at_checkpoint` mean what they mean there.
///
/// A resume needs a fresh engine built exactly as the interrupted one
/// was, with the same parameters and from the same freshly seeded `rng`
/// (an engine whose construction draws, SSE's, is built from the very
/// `rng` passed here); the restore then rewinds engine, `rng` and series
/// to the generation together. With `policy = None` this is the plain
/// run and cannot fail.
pub fn run_engine<R, E>(
    eng: &mut E,
    rng: &mut R,
    therm: usize,
    sweeps: usize,
    policy: Option<&Policy<'_>>,
    kill_at: Option<usize>,
    at_checkpoint: impl FnMut(&E::Series, usize),
) -> Result<(End, E::Series), CkptError>
where
    R: Checkpoint,
    E: Engine<R>,
{
    let mut series = eng.begin_series(sweeps);
    let end = drive(
        (eng, rng, &mut series),
        therm + sweeps,
        policy,
        kill_at,
        |eng, rng, series, s| eng.advance(rng, (s >= therm).then_some(series)),
        at_checkpoint,
    )?;
    Ok((end, series))
}

/// Run sweeps `0..total` of a serial engine under `policy`.
///
/// With `policy.resume`, state is first restored from the store's newest
/// generation; a generation that does not restore (corrupt `meta`, a
/// section of a foreign kind, a shape mismatch) is `Err` before any sweep
/// runs — retrying would hit the same wall. Then, at each boundary `s`:
/// the generation due at `s` is written (a failed write is warned about,
/// never fatal, and leaves the dirty flags set) and `at_checkpoint(series,
/// s)` runs; a raised `policy.stop` ends the run as [`End::Drained`];
/// `kill_at == Some(s)` ends it as [`End::Killed`]; otherwise `step`
/// runs sweep `s`. With `policy = None` this is a plain `for` loop over
/// `step`.
pub fn drive<E, R, S>(
    (eng, rng, series): (&mut E, &mut R, &mut S),
    total: usize,
    policy: Option<&Policy<'_>>,
    kill_at: Option<usize>,
    mut step: impl FnMut(&mut E, &mut R, &mut S, usize),
    mut at_checkpoint: impl FnMut(&S, usize),
) -> Result<End, CkptError>
where
    E: Checkpoint,
    R: Checkpoint,
    S: Checkpoint,
{
    let mut start = 0;
    let newest = policy.filter(|p| p.resume).and_then(|p| p.store.latest());
    if let Some((generation, file)) = newest {
        start = read_meta(&file, generation, &mut [])?;
        restore_sections(&file, "engine", eng)?;
        restore_sections(&file, "rng", rng)?;
        restore_sections(&file, "series", series)?;
    }
    for s in start..total {
        let draining = policy
            .and_then(|p| p.stop)
            .is_some_and(|f| f.load(Ordering::SeqCst));
        if let Some(p) = policy {
            if let Some(want_full) = p.cadence.due(s, draining) {
                let written = p.store.write_sections(s as u64, want_full, |sections| {
                    sections.payload("meta", |enc| write_meta(enc, s, &[]));
                    sections.state("engine", eng);
                    sections.state("rng", rng);
                    sections.state("series", series);
                });
                match written {
                    Ok(_) => {
                        // Only a durably written generation may mark
                        // state clean: a false "clean" would let a later
                        // delta reference a base that never captured it.
                        eng.mark_clean();
                        rng.mark_clean();
                        series.mark_clean();
                    }
                    Err(e) => {
                        eprintln!("warning: checkpoint generation {s} not written: {e}; continuing")
                    }
                }
                at_checkpoint(series, s);
            }
        }
        if draining {
            return Ok(End::Drained { at: s });
        }
        if kill_at == Some(s) {
            return Ok(End::Killed { at: s });
        }
        step(eng, rng, series, s);
    }
    Ok(End::Finished)
}
