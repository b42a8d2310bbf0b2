//! Process-level measurements: counted heap, CPU time, host load, and
//! the scratch directory checkpoint stores live in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Forwards to the system allocator and keeps the live and peak byte
/// counts (the `tests/alloc_guard.rs` idiom, counting bytes not calls).
pub struct CountingAlloc;

#[inline]
fn grew(by: usize) {
    // Relaxed: the counters publish no other data.
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was allocated by this allocator (i.e. `System`)
        // with `layout`, as the caller vouched for.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Start a workload's heap window: forget earlier peaks and return the
/// bytes live now. A workload allocates its own buffers (series, clocks,
/// generated inputs) at full size before calling this, so they are in
/// the baseline and not in its peak.
pub fn heap_baseline() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Peak live heap since `heap_baseline` returned `baseline`, above it, MB.
pub fn peak_heap_mb(baseline: usize) -> f64 {
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline) as f64 / 1e6
}

/// Nanoseconds since the first call in this process: one clock shared
/// by every thread, so spans from different ranks are comparable.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Logical CPUs available to this process when it started (the first
/// call, made before [`pin_to_one_cpu`], fixes the answer).
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// `cpu_set_t` of the C library: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Confine this thread, and every thread it starts later, to the
/// highest-numbered CPU it may run on (the lowest takes most of the
/// guest's interrupts). Returns that CPU, or `None` where the kernel
/// refuses, in which case nothing changed.
///
/// Why: the vCPUs of a small shared VM are not independent. With two of
/// them busy the host runs them now on two cores, now on one, for
/// minutes at a time, and a 2-rank workload is ×1.6 slower in the second
/// state; neither `/proc/stat` nor CPU time shows which state a chunk ran
/// in. One busy vCPU always has its core. So the ranks, workers and
/// clients of a workload keep their threads, messages and hand-overs but
/// take turns on one CPU, and every rate is work per second of one core.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut set: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `set` is a writable buffer of exactly `size` bytes, and pid
    // 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut set) } != 0 {
        return None;
    }
    let (word, bits) = set.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a readable buffer of exactly `size` bytes naming a
    // CPU the thread is already allowed on.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(word * 64 + bit)
}

/// Linux reports host CPU times in `USER_HZ` ticks, which the kernel
/// ABI fixes at 100 on every architecture.
const TICKS_PER_S: f64 = 100.0;

/// `struct timespec` of the 64-bit Linux ABIs.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    /// From the C library `std` already links; `/proc/self/stat` counts
    /// the same time in 10 ms ticks, too coarse for one 50 ms chunk.
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU seconds of this process, all threads, dead ones
/// included, at nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the
    // duration of the call, and the clock id is a constant the kernel
    // defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Busy CPU seconds of the whole host, summed over CPUs (`/proc/stat`
/// first line: everything except idle and iowait). Reads into a stack
/// buffer: it is called inside the heap window, and the whole file is
/// larger than a small workload's peak.
pub fn host_busy_s() -> f64 {
    use std::io::Read;
    let mut head = [0u8; 256];
    let n = std::fs::File::open("/proc/stat")
        .and_then(|mut f| f.read(&mut head))
        .unwrap_or(0);
    let text = std::str::from_utf8(&head[..n]).unwrap_or("");
    // user nice system idle iowait irq softirq steal
    let mut v = [0.0f64; 8];
    let fields = text.lines().next().unwrap_or("").split_whitespace();
    for (slot, field) in v.iter_mut().zip(fields.skip(1)) {
        *slot = field.parse().unwrap_or(0.0);
    }
    (v[0] + v[1] + v[2] + v[5] + v[6] + v[7]) / TICKS_PER_S
}

/// Threads of this process that are running or ready to run right now
/// (state `R` in `/proc/self/task/*/stat`), the caller included.
pub fn runnable_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("stat")).ok())
        // The state follows the parenthesized command name.
        .filter(|stat| {
            stat.rsplit_once(") ")
                .is_some_and(|(_, rest)| rest.starts_with('R'))
        })
        .count()
}

/// Watches how many threads of the process are runnable, from a thread
/// of its own that wakes every 10 ms. Traced runs only: the watcher is
/// itself a (mostly sleeping) thread.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    watcher: std::thread::JoinHandle<usize>,
}

impl ThreadSampler {
    /// Start watching.
    pub fn start() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let watcher = std::thread::spawn(move || {
            let mut max = 0;
            while !flag.load(Ordering::Relaxed) {
                // The watcher is running while it looks.
                max = max.max(runnable_threads().saturating_sub(1));
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            max
        });
        ThreadSampler { stop, watcher }
    }

    /// Stop watching; the most runnable threads seen at once.
    pub fn stop(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        self.watcher.join().unwrap_or(0)
    }
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|r| r.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fresh directory under the benchmark's own output directory,
/// removed on drop. Checkpoint stores and serve namespaces live here:
/// the benchmark may write only inside its checkout, so this is not
/// `/dev/shm`; the stores never fsync, so writes stay in the page cache.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Create `<out>/scratch-<pid>-<tag>`.
    pub fn new(out: &Path, tag: &str) -> Scratch {
        let dir = out.join(format!("scratch-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create benchmark scratch directory");
        Scratch { dir }
    }

    /// A not-yet-created subdirectory path.
    pub fn sub(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
