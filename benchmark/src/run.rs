//! What every workload shares: the run context, one measured pass, and
//! the outcome the command line prints.

use crate::estimate::{chunk_stats, usual, ChunkStats, Tau};
use crate::spec::TRAJECTORY_SEED;
use crate::sys;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Derives every RNG stream, the serve job order, mix and tenants.
    pub seed: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke-test sizes: a tenth of the chunks, thermalization and
    /// companion sweeps. Never used by measured runs.
    pub quick: bool,
    /// Where trace files and scratch stores go.
    pub out: PathBuf,
    /// Ranks of the threaded workloads: `min(nproc, 4)`.
    pub ranks: usize,
    /// The one CPU every thread of the run is confined to, if the kernel
    /// allowed it (`sys::pin_to_one_cpu`).
    pub pinned: Option<usize>,
}

impl Ctx {
    /// A chunk, sweep or job count at this run's size: a tenth in
    /// `--quick` mode.
    pub fn sized(&self, full: usize) -> usize {
        if self.quick {
            full / 10
        } else {
            full
        }
    }

    /// An independent seed for purpose `salt`, from `--seed`.
    pub fn derive(&self, salt: u64) -> u64 {
        mix(self.seed, salt)
    }

    /// Seed `salt` of set-up instance `instance` of `setups`: the last
    /// instance continues into the measured phase and runs this
    /// commit's fixed trajectory; the ones before it are thrown away and
    /// run on `--seed`.
    pub fn setup_seed(&self, salt: u64, instance: usize, setups: usize) -> u64 {
        if instance + 1 == setups {
            mix(TRAJECTORY_SEED, salt)
        } else {
            mix(self.seed, salt + 1 + instance as u64)
        }
    }
}

/// SplitMix64 finalizer over `seed` and `salt`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stopwatch for the equal-work chunks of a measured phase: wall time
/// from the process clock and CPU time of the whole process, read at
/// every chunk boundary (the reads themselves fall between chunks).
/// Allocates everything up front, so it can be made before the heap
/// baseline is taken.
#[derive(Debug)]
pub struct ChunkClock {
    t: u64,
    cpu: f64,
    host0: f64,
    walls: Vec<f64>,
    cpu_s: Vec<f64>,
}

impl ChunkClock {
    /// A stopped clock with room for `chunks` chunks.
    pub fn with_capacity(chunks: usize) -> ChunkClock {
        ChunkClock {
            t: 0,
            cpu: 0.0,
            host0: 0.0,
            walls: Vec::with_capacity(chunks),
            cpu_s: Vec::with_capacity(chunks),
        }
    }

    /// Start timing the first chunk.
    pub fn start(&mut self) {
        self.host0 = sys::host_busy_s();
        self.cpu = sys::process_cpu_s();
        self.t = sys::now_ns();
    }

    /// The current chunk ends here and the next one starts.
    pub fn lap(&mut self) {
        let end = sys::now_ns();
        let cpu = sys::process_cpu_s();
        self.walls.push((end - self.t) as f64 * 1e-9);
        self.cpu_s.push(cpu - self.cpu);
        self.cpu = sys::process_cpu_s();
        self.t = sys::now_ns();
    }

    /// When the current chunk started, ns on the process clock.
    pub fn chunk_start(&self) -> u64 {
        self.t
    }

    /// Move the readings into `m`, with the CPU seconds other processes
    /// used meanwhile.
    pub fn finish(self, m: &mut Measured) {
        let host = sys::host_busy_s() - self.host0;
        m.other_cpu_s = (host - self.cpu_s.iter().sum::<f64>()).max(0.0);
        m.phase_wall_s = self.walls.iter().sum();
        m.walls = self.walls;
        m.chunk_cpu = self.cpu_s;
    }
}

/// One pass over a workload's fixed work.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Wall time of each from-scratch set-up instance, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each equal-work chunk, seconds.
    pub walls: Vec<f64>,
    /// Process CPU seconds spent during each chunk.
    pub chunk_cpu: Vec<f64>,
    /// Workload sweeps in one chunk.
    pub sweeps_per_chunk: f64,
    /// Other processes' CPU seconds over `phase_wall_s`.
    pub other_cpu_s: f64,
    /// Wall seconds `other_cpu_s` was counted over.
    pub phase_wall_s: f64,
    /// Energy series at the workload's target point.
    pub energy: Vec<f64>,
    /// Peak live heap over the set-up that continues and the measured
    /// phase, above what was live when that set-up started (the harness's
    /// own buffers included), MB.
    pub peak_heap_mb: f64,
}

impl Measured {
    /// Chunk-time summary.
    pub fn chunks(&self) -> ChunkStats {
        chunk_stats(&self.walls)
    }

    /// Wall time of a chunk on an undisturbed host.
    pub fn chunk_s(&self) -> f64 {
        usual(&self.walls)
    }

    /// Workload sweeps per wall second on an undisturbed host.
    pub fn sweeps_per_s(&self) -> f64 {
        self.sweeps_per_chunk / self.chunk_s()
    }

    /// CPU seconds per 1000 workload sweeps on an undisturbed host (a
    /// contended physical core inflates CPU time just as it inflates
    /// wall time, so it is read the same way).
    pub fn cpu_s_per_ksweep(&self) -> f64 {
        usual(&self.chunk_cpu) / self.sweeps_per_chunk * 1000.0
    }

    /// Set-up time on an undisturbed host.
    pub fn setup_s(&self) -> f64 {
        usual(&self.setup_s)
    }

    /// Share of the host other processes used during the measured phase.
    pub fn host_busy_frac(&self) -> f64 {
        self.other_cpu_s / (self.phase_wall_s * sys::nproc() as f64).max(1e-9)
    }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The untraced pass the end-to-end metrics come from.
    pub measured: Measured,
    /// τ_int of `measured.energy` (or the workload's own definition).
    pub tau: Option<Tau>,
    /// Operations planned from `spec.rs`.
    pub planned: u64,
    /// Operations performed: chunks + commits + jobs.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(&'static str, bool, String)>,
    /// Most threads of this process found runnable at once during the
    /// main pass (traced run only).
    pub threads_max: usize,
    /// Per-layer metrics by name (traced run only).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a correctness check.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push((name, ok, detail));
    }

    /// Every check held and the operation count matched the plan.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1) && self.attempted == self.planned
    }

    /// Count the chunks of pass `m` as operations performed, the ones
    /// without a positive finite time as failed.
    pub fn count_chunks(&mut self, m: &Measured) {
        self.attempted += m.walls.len() as u64;
        self.failed += m.chunks().bad as u64;
    }

    /// Set a per-layer metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }
}
