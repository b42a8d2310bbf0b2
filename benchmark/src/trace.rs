//! Benchmark-owned tracing: spans recorded around calls into each
//! layer's public functions, a `Communicator` decorator and a counting
//! `Rng64` wrapper. Nothing here edits a crate; tracing inside the
//! crates is a later issue.

use crate::sys::now_ns;
use qmc_ckpt::{Checkpoint, CkptError, Decoder, DirtySections, Encoder};
use qmc_comm::{CommStats, Communicator, ReduceOp};
use qmc_rng::Rng64;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Duration;

/// The layers are the crates (plus the harness itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own loop (chunk roots; its self time is what no
    /// layer span covers).
    Bench,
    /// `qmc-stats`.
    Stats,
    /// `qmc-tfim`.
    Tfim,
    /// `qmc-worldline`.
    Worldline,
    /// `qmc-sse`.
    Sse,
    /// `qmc-core`.
    Core,
    /// `qmc-comm`.
    Comm,
    /// `qmc-ckpt`.
    Ckpt,
    /// `qmc-serve`.
    Serve,
}

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; 9] = [
        Layer::Bench,
        Layer::Stats,
        Layer::Tfim,
        Layer::Worldline,
        Layer::Sse,
        Layer::Core,
        Layer::Comm,
        Layer::Ckpt,
        Layer::Serve,
    ];

    /// Lower-case crate name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Stats => "stats",
            Layer::Tfim => "tfim",
            Layer::Worldline => "worldline",
            Layer::Sse => "sse",
            Layer::Core => "core",
            Layer::Comm => "comm",
            Layer::Ckpt => "ckpt",
            Layer::Serve => "serve",
        }
    }
}

/// One recorded span. `parent` is filled in by [`nest`].
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The layer that owns the time.
    pub layer: Layer,
    /// Message tag for comm spans, else 0.
    pub tag: u32,
    /// Chunk (or job) the span belongs to: the shared identifier.
    pub id: u32,
    /// Start, ns on the process clock.
    pub start: u64,
    /// End, ns on the process clock.
    pub end: u64,
    /// Index of the enclosing span in the same buffer, `u32::MAX` for a
    /// root.
    pub parent: u32,
}

/// Per-thread span buffer, preallocated so recording never allocates
/// inside a timed window; spans beyond the capacity are counted and
/// dropped.
#[derive(Debug)]
pub struct SpanBuf {
    /// Recorded spans, in completion order until [`nest`] sorts them.
    pub spans: Vec<Span>,
    /// Current chunk or job id, stamped on every span.
    pub id: u32,
    /// Spans that did not fit.
    pub dropped: u64,
}

impl SpanBuf {
    /// Buffer for up to `cap` spans.
    pub fn with_capacity(cap: usize) -> SpanBuf {
        SpanBuf {
            spans: Vec::with_capacity(cap),
            id: 0,
            dropped: 0,
        }
    }

    /// Record a finished span.
    #[inline]
    pub fn push(&mut self, name: &'static str, layer: Layer, tag: u32, start: u64, end: u64) {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            layer,
            tag,
            id: self.id,
            start,
            end,
            parent: u32::MAX,
        });
    }

    /// Record a span ending now.
    #[inline]
    pub fn close(&mut self, name: &'static str, layer: Layer, start: u64) {
        self.push(name, layer, 0, start, now_ns());
    }
}

/// Sort one thread's spans by start and assign parents by containment
/// (a thread's spans come from one call tree, so they nest).
pub fn nest(buf: &mut SpanBuf) {
    buf.spans
        .sort_by(|a, b| a.start.cmp(&b.start).then(b.end.cmp(&a.end)));
    let mut stack: Vec<u32> = Vec::new();
    for i in 0..buf.spans.len() {
        let s = buf.spans[i];
        while let Some(&top) = stack.last() {
            if buf.spans[top as usize].end >= s.end && buf.spans[top as usize].start <= s.start {
                break;
            }
            stack.pop();
        }
        buf.spans[i].parent = stack.last().copied().unwrap_or(u32::MAX);
        stack.push(i as u32);
    }
}

/// Per-layer self times and per-name durations of a traced pass.
#[derive(Debug, Default)]
pub struct Summary {
    /// Self time per layer (span duration minus the part its child
    /// spans cover), ns, summed over threads; indexed like `Layer::ALL`.
    pub self_ns: [u64; 9],
    /// Sum of root span durations, ns, over threads.
    pub root_ns: u64,
    /// Durations (ns) of every span, by name.
    pub by_name: BTreeMap<&'static str, Vec<f64>>,
    /// Self times (ns) of every span, by name.
    pub self_by_name: BTreeMap<&'static str, Vec<f64>>,
    /// Spans dropped for lack of buffer space.
    pub dropped: u64,
}

impl Summary {
    /// Share of the traced wall that is `layer`'s self time.
    pub fn self_frac(&self, layer: Layer) -> f64 {
        let i = Layer::ALL.iter().position(|l| *l == layer).expect("listed");
        self.self_ns[i] as f64 / self.root_ns.max(1) as f64
    }

    /// Share of the traced wall inside some layer's span.
    pub fn coverage(&self) -> f64 {
        1.0 - self.self_frac(Layer::Bench)
    }

    /// Median duration of spans called `name`, in units of `scale` ns.
    pub fn p50(&self, name: &str, scale: f64) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |v| crate::estimate::median(v) / scale)
    }

    /// Summed self time of spans called `name`, ns.
    pub fn self_sum(&self, name: &str) -> f64 {
        self.self_by_name.get(name).map_or(0.0, |v| v.iter().sum())
    }
}

/// Nest every buffer and fold them into one [`Summary`].
pub fn summarize(bufs: &mut [SpanBuf]) -> Summary {
    let mut out = Summary::default();
    for buf in bufs.iter_mut() {
        nest(buf);
        out.dropped += buf.dropped;
        let mut child_ns = vec![0u64; buf.spans.len()];
        for s in &buf.spans {
            if s.parent != u32::MAX {
                child_ns[s.parent as usize] += s.end - s.start;
            } else {
                out.root_ns += s.end - s.start;
            }
        }
        for (s, kids) in buf.spans.iter().zip(&child_ns) {
            let dur = s.end - s.start;
            let own = dur.saturating_sub(*kids);
            let li = Layer::ALL
                .iter()
                .position(|l| *l == s.layer)
                .expect("listed");
            out.self_ns[li] += own;
            out.by_name.entry(s.name).or_default().push(dur as f64);
            out.self_by_name.entry(s.name).or_default().push(own as f64);
        }
    }
    out
}

/// Largest number of spans per thread written to a trace file; the
/// summary always uses all of them.
const FILE_SPANS_PER_THREAD: usize = 20_000;

/// Write the spans of one traced pass as JSON (see README "Reading a
/// trace file").
pub fn write_trace(
    path: &std::path::Path,
    workload: &str,
    bufs: &[SpanBuf],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"schema\":\"qmc-benchmark-trace/v1\",\"workload\":\"{workload}\",\"threads\":["
    )?;
    for (t, buf) in bufs.iter().enumerate() {
        if t > 0 {
            write!(w, ",")?;
        }
        let shown = buf.spans.len().min(FILE_SPANS_PER_THREAD);
        write!(
            w,
            "{{\"thread\":{t},\"recorded\":{},\"dropped\":{},\"written\":{shown},\"spans\":[",
            buf.spans.len(),
            buf.dropped
        )?;
        for (i, s) in buf.spans[..shown].iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                w,
                "\n{{\"i\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"id\":{},\"tag\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name,
                s.layer.name(),
                s.id,
                s.tag,
                s.start,
                s.end
            )?;
        }
        write!(w, "]}}")?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

/// `Communicator` decorator: every user-level call becomes a `comm`
/// span in `buf`, so the engines' communication shows up as children of
/// whatever span the benchmark has open around the engine call.
/// Collectives delegate to the inner communicator's own collective, so
/// their internal messages are not recorded twice.
pub struct TraceComm<'a, C: Communicator> {
    inner: &'a mut C,
    /// This thread's spans (the benchmark pushes its own here too).
    pub buf: SpanBuf,
}

impl<'a, C: Communicator> TraceComm<'a, C> {
    /// Wrap `inner` with room for `cap` spans.
    pub fn new(inner: &'a mut C, cap: usize) -> Self {
        TraceComm {
            inner,
            buf: SpanBuf::with_capacity(cap),
        }
    }
}

impl<C: Communicator> Communicator for TraceComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send_bytes(&mut self, dest: usize, tag: u32, data: &[u8]) {
        let t0 = now_ns();
        self.inner.send_bytes(dest, tag, data);
        self.buf.push("comm.send", Layer::Comm, tag, t0, now_ns());
    }

    fn recv_bytes(&mut self, src: usize, tag: u32) -> Vec<u8> {
        let t0 = now_ns();
        let msg = self.inner.recv_bytes(src, tag);
        self.buf.push("comm.recv", Layer::Comm, tag, t0, now_ns());
        msg
    }

    fn recv_bytes_timeout(&mut self, src: usize, tag: u32, timeout: Duration) -> Option<Vec<u8>> {
        let t0 = now_ns();
        let msg = self.inner.recv_bytes_timeout(src, tag, timeout);
        self.buf.push("comm.recv", Layer::Comm, tag, t0, now_ns());
        msg
    }

    fn recv_bytes_into(&mut self, src: usize, tag: u32, buf: &mut Vec<u8>) {
        let t0 = now_ns();
        self.inner.recv_bytes_into(src, tag, buf);
        self.buf.push("comm.recv", Layer::Comm, tag, t0, now_ns());
    }

    fn sendrecv_bytes(
        &mut self,
        dest: usize,
        send_tag: u32,
        data: &[u8],
        src: usize,
        recv_tag: u32,
    ) -> Vec<u8> {
        let t0 = now_ns();
        let msg = self
            .inner
            .sendrecv_bytes(dest, send_tag, data, src, recv_tag);
        self.buf
            .push("comm.sendrecv", Layer::Comm, send_tag, t0, now_ns());
        msg
    }

    fn sendrecv_bytes_into(
        &mut self,
        dest: usize,
        send_tag: u32,
        data: &[u8],
        src: usize,
        recv_tag: u32,
        recv_buf: &mut Vec<u8>,
    ) {
        let t0 = now_ns();
        self.inner
            .sendrecv_bytes_into(dest, send_tag, data, src, recv_tag, recv_buf);
        self.buf
            .push("comm.sendrecv", Layer::Comm, send_tag, t0, now_ns());
    }

    fn compute(&mut self, units: f64) {
        self.inner.compute(units);
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }

    fn next_collective_seq(&mut self) -> u32 {
        self.inner.next_collective_seq()
    }

    fn send_internal(&mut self, dest: usize, tag: u32, data: &[u8]) {
        self.inner.send_internal(dest, tag, data);
    }

    fn recv_internal(&mut self, src: usize, tag: u32) -> Vec<u8> {
        self.inner.recv_internal(src, tag)
    }

    fn barrier(&mut self) {
        let t0 = now_ns();
        self.inner.barrier();
        self.buf.close("comm.barrier", Layer::Comm, t0);
    }

    fn broadcast_bytes(&mut self, root: usize, data: Vec<u8>) -> Vec<u8> {
        let t0 = now_ns();
        let out = self.inner.broadcast_bytes(root, data);
        self.buf.close("comm.broadcast", Layer::Comm, t0);
        out
    }

    fn allreduce_f64(&mut self, values: &[f64], op: ReduceOp) -> Vec<f64> {
        let t0 = now_ns();
        let out = self.inner.allreduce_f64(values, op);
        self.buf.close("comm.allreduce", Layer::Comm, t0);
        out
    }

    fn gather_bytes(&mut self, root: usize, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        let t0 = now_ns();
        let out = self.inner.gather_bytes(root, data);
        self.buf.close("comm.gather", Layer::Comm, t0);
        out
    }
}

/// `Rng64` wrapper counting raw 64-bit draws. Checkpoints as the inner
/// generator, so a checkpointed driver sees no difference.
pub struct CountingRng<R> {
    inner: R,
    /// Raw outputs drawn so far.
    pub draws: u64,
}

impl<R> CountingRng<R> {
    /// Wrap `inner`.
    pub fn new(inner: R) -> Self {
        CountingRng { inner, draws: 0 }
    }
}

impl<R: Rng64> Rng64 for CountingRng<R> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }

    #[inline]
    fn fill_u64(&mut self, out: &mut [u64]) {
        self.draws += out.len() as u64;
        self.inner.fill_u64(out);
    }
}

impl<R: Checkpoint> Checkpoint for CountingRng<R> {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn save(&self, enc: &mut Encoder) {
        self.inner.save(enc);
    }

    fn load(&mut self, dec: &mut Decoder) -> Result<(), CkptError> {
        self.inner.load(dec)
    }

    fn dirty_sections(&self) -> DirtySections {
        self.inner.dirty_sections()
    }

    fn save_section(&self, name: &str, enc: &mut Encoder) {
        self.inner.save_section(name, enc);
    }

    fn load_section(&mut self, name: &str, dec: &mut Decoder) -> Result<(), CkptError> {
        self.inner.load_section(name, dec)
    }

    fn mark_clean(&mut self) {
        self.inner.mark_clean();
    }
}
