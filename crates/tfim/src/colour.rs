//! The checkerboard colour kernel: one Metropolis pass over every site of
//! one colour, for both engines, each site deciding on its keyed draw. The
//! crate docs ("Colour kernel") say why the passes are legal, why the
//! thresholds are exact ([`qmc_rng::threshold`] is their one constructor)
//! and which draw each site takes; this module is the only place the
//! table index, the resolve loop and the draw index ([`SweepKey`], the one
//! reader of its checkpointed state) are written down, and it holds the
//! one restore check ([`restore_spins`], not a sweep-rate function) that
//! keeps the ±1 invariant its byte arithmetic needs.

use crate::{AcceptTable, TfimModel};
use qmc_rng::{threshold, Rng64, SplitMix64};

/// Sites of scratch a block of rows may fill. 1 024 index bytes stay in
/// L1 next to the seven spin rows a block streams through, and are small
/// enough to be a local of the caller's sweep: on the heap they would
/// grow `tfim_chain_crit`'s whole 39 KB footprint, and as an array inside
/// the engine they would be copied with every move of one.
const BLOCK: usize = 1024;

/// Flat [`AcceptTable`] index `((s+1)/2)·27 + (sp+4)·3 + (tp+2)/2` of a
/// site with spin `s`, spatial neighbour sum `sp` and temporal neighbour
/// sum `tp`, in byte arithmetic: every intermediate is within `0..=53`
/// as long as every spin is ±1, which is the engines' invariant.
#[qmc_hot::hot]
#[inline(always)]
fn flat_index(s: i8, sp: i8, tp: i8) -> u8 {
    (((s + 1) >> 1) * 27 + (sp + 4) * 3 + ((tp + 2) >> 1)) as u8
}

/// [`threshold`] of every [`AcceptTable`] entry, by [`flat_index`]: 64
/// entries, the last ten never read, so that a masked index needs no
/// bounds check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Thresholds([u64; 64]);

impl Thresholds {
    #[qmc_hot::hot]
    pub(crate) fn new(table: &AcceptTable) -> Self {
        let mut by_index = [0; 64];
        for s in [-1i8, 1] {
            for sp in -4i8..=4 {
                for tp in [-2i8, 0, 2] {
                    by_index[flat_index(s, sp, tp) as usize] =
                        threshold(table.ratio(s, sp.into(), tp.into()));
                }
            }
        }
        Self(by_index)
    }

    /// The threshold at index `k`, which is below 54 while every stored
    /// spin is ±1.
    #[inline(always)]
    fn get(&self, k: u8) -> u64 {
        debug_assert!(k < 54, "a stored spin is not ±1");
        self.0[usize::from(k & 63)]
    }
}

/// Replace `spins` by the checkpointed configuration `raw`, or refuse it
/// whole: the length and every value are checked before a byte lands, so
/// a refused checkpoint leaves the engine as it was and an accepted one
/// keeps "every stored spin is ±1" — the invariant [`flat_index`] needs.
pub(crate) fn restore_spins(
    spins: &mut [i8],
    raw: &[u8],
    engine: &str,
) -> Result<(), qmc_ckpt::CkptError> {
    if raw.len() != spins.len() {
        return Err(qmc_ckpt::CkptError::corrupt(format!(
            "{engine} spins: engine has {} cells, checkpoint has {}",
            spins.len(),
            raw.len()
        )));
    }
    if let Some(&b) = raw.iter().find(|&&b| !matches!(b as i8, 1 | -1)) {
        return Err(qmc_ckpt::CkptError::corrupt(format!(
            "{engine} spin value {} is not ±1",
            b as i8
        )));
    }
    for (dst, &b) in spins.iter_mut().zip(raw) {
        *dst = b as i8;
    }
    Ok(())
}

/// A block's scratch: the table index of every cell of its rows (both
/// colours, and the ghost or wrap cells between rows — the index pass
/// tests neither parity nor position). A local of the sweep that owns it,
/// so it is zeroed once per sweep.
pub(crate) struct Scratch {
    idx: [u8; BLOCK],
}

impl Scratch {
    #[qmc_hot::hot]
    pub(crate) fn new() -> Self {
        Self { idx: [0; BLOCK] }
    }
}

/// The keyed draws of one sweep: the site at layout column `x`, row `y`,
/// slice `t` takes output `origin + t·slice + y·row + x` of the SplitMix64
/// stream seeded by `key` ([`SplitMix64::at`]), whether or not it consumes
/// it — a number fixed by the site and the sweep alone, however the
/// lattice is split and in whatever order it is swept.
pub(crate) struct Keyed {
    key: u64,
    origin: u64,
    row: u64,
    slice: u64,
}

impl Keyed {
    /// The output index of column `x` of row `y` of slice `t`.
    #[inline(always)]
    fn at(&self, t: usize, y: usize, x: usize) -> u64 {
        self.origin
            .wrapping_add(t as u64 * self.slice + y as u64 * self.row + x as u64)
    }
}

/// An engine's whole Metropolis draw state: the key of its keyed draws,
/// taken from its generator at its first sweep, and the sweeps begun since.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SweepKey {
    key: Option<u64>,
    sweeps: u64,
}

impl SweepKey {
    /// The key and the number of the sweep about to run, which this counts;
    /// the first sweep takes the key from `rng`.
    pub(crate) fn next<R: Rng64>(&mut self, rng: &mut R) -> (u64, u64) {
        let key = *self.key.get_or_insert_with(|| rng.next_u64());
        let sweep = self.sweeps;
        self.sweeps += 1;
        (key, sweep)
    }

    /// The keyed draws of the sweep about to run (see [`Self::next`]):
    /// global site `g = (t·ly + y)·lx + x` of `model` in sweep `s` takes
    /// output `s·(lx·ly·m) + g`, and the layout's column 0, row 0, slice 0
    /// is global site `first`.
    pub(crate) fn keyed<R: Rng64>(
        &mut self,
        rng: &mut R,
        model: &TfimModel,
        first: usize,
    ) -> Keyed {
        let (key, sweep) = self.next(rng);
        let slice = (model.lx * model.ly) as u64;
        Keyed {
            key,
            origin: sweep
                .wrapping_mul(slice * model.m as u64)
                .wrapping_add(first as u64),
            row: model.lx as u64,
            slice,
        }
    }

    /// Write whether the key is drawn, the key (0 if not) and the counter.
    pub(crate) fn save(&self, enc: &mut qmc_ckpt::Encoder) {
        enc.bool(self.key.is_some());
        enc.u64(self.key.unwrap_or(0));
        enc.u64(self.sweeps);
    }

    /// Read what [`Self::save`] wrote, refusing a state no run of `model`
    /// can reach: the key is drawn at the first sweep, so it exists
    /// exactly when a sweep has run, and the next sweep's draw indices
    /// must fit in a `u64`.
    pub(crate) fn load(
        dec: &mut qmc_ckpt::Decoder,
        model: &TfimModel,
        engine: &str,
    ) -> Result<Self, qmc_ckpt::CkptError> {
        let (keyed, key, sweeps) = (dec.bool()?, dec.u64()?, dec.u64()?);
        if keyed != (sweeps > 0) || !keyed && key != 0 {
            return Err(qmc_ckpt::CkptError::corrupt(format!(
                "{engine} key (present: {keyed}, {key:#x}) does not fit {sweeps} sweeps"
            )));
        }
        let per_sweep = (model.lx * model.ly * model.m) as u64;
        if sweeps
            .checked_add(1)
            .and_then(|s| s.checked_mul(per_sweep))
            .is_none()
        {
            return Err(qmc_ckpt::CkptError::corrupt(format!(
                "{engine} sweep counter {sweeps} is past the draw index range"
            )));
        }
        Ok(Self {
            key: keyed.then_some(key),
            sweeps,
        })
    }
}

/// How an engine lays its space-time lattice out in one `i8` array:
/// `slices` time slices of `slice_stride` cells, each holding `rows` rows
/// of `width` sites, row `y` starting `origin + y·row_stride` into its
/// slice. The time direction always wraps; the two engines differ in what
/// lies around a row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    pub slices: usize,
    pub slice_stride: usize,
    pub rows: usize,
    pub row_stride: usize,
    pub width: usize,
    pub origin: usize,
    /// `(x + y + t) mod 2` of the site at column 0, row 0, slice 0.
    pub parity: usize,
    /// Rows couple to the rows north and south of them (`ly > 1`).
    pub square: bool,
    /// `true`: the slice is the whole periodic lattice, so column 0 and
    /// column `width − 1` are each other's west / east neighbours and row
    /// 0 and row `rows − 1` each other's south / north (`SerialTfim`).
    /// `false`: a ghost frame surrounds the rows, so every neighbour is
    /// one cell or one `row_stride` away (`DistTfim`).
    pub wraps: bool,
}

/// One block of a colour pass: columns `a..a + n` of the `rows` rows from
/// `r0` on, row `i` of them indexed at `idx[i·pitch..][..n]`.
struct Block {
    r0: usize,
    rows: usize,
    a: usize,
    n: usize,
    pitch: usize,
    colour: usize,
}

/// Row `y` of slice `t`: where it and its north, south, up and down
/// neighbour rows start, and the column (0 or 1) of its first site of the
/// colour being swept.
struct Row {
    cur: usize,
    north: usize,
    south: usize,
    up: usize,
    down: usize,
    first: usize,
}

/// `len` rows of a block from its row `i` on that lie one `pitch` apart,
/// each with its neighbour rows at the distances `head`'s are (see
/// [`Layout::uniform_rows`]): row `k` of a run is `head` moved `k·pitch`
/// spins on, and its first site of the colour is in column
/// `(head.first + k) mod 2`.
struct Run {
    i: usize,
    len: usize,
    head: Row,
}

impl Layout {
    #[qmc_hot::hot]
    #[inline]
    fn row(&self, t: usize, y: usize, colour: usize) -> Row {
        let in_slice = self.origin + y * self.row_stride;
        let cur = t * self.slice_stride + in_slice;
        let rs = self.row_stride;
        let north = if self.wraps && y + 1 == self.rows {
            cur - y * rs
        } else {
            cur + rs
        };
        let south = if self.wraps && y == 0 {
            cur + (self.rows - 1) * rs
        } else {
            cur - rs
        };
        let t_up = if t + 1 == self.slices { 0 } else { t + 1 };
        let t_down = if t == 0 { self.slices } else { t } - 1;
        Row {
            cur,
            north,
            south,
            up: t_up * self.slice_stride + in_slice,
            down: t_down * self.slice_stride + in_slice,
            first: (colour + self.parity + y + t) % 2,
        }
    }

    /// How many rows from `(t, y)` on, itself included, lie one
    /// `row_stride` apart with each of their neighbour rows at one common
    /// distance: pass 1 indexes such a run as a single span. A ghost frame
    /// makes the rest of a slice uniform; without one a row whose north or
    /// south wraps stands alone, and the slices of a chain are its rows,
    /// all alike but the first and the last.
    #[qmc_hot::hot]
    #[inline]
    fn uniform_rows(&self, t: usize, y: usize) -> usize {
        let inner = |at: usize, of: usize| {
            if at == 0 || at + 1 == of {
                1
            } else {
                of - 1 - at
            }
        };
        if !self.wraps {
            self.rows - y
        } else if self.rows > 1 {
            inner(y, self.rows)
        } else if self.slice_stride == self.row_stride {
            inner(t, self.slices)
        } else {
            1
        }
    }

    /// The uniform runs of `block`'s rows, in sweep order: one
    /// [`Self::row`] per run, none per row.
    #[qmc_hot::hot]
    #[inline]
    fn runs<'a>(&'a self, block: &'a Block) -> impl Iterator<Item = Run> + 'a {
        let (mut t, mut y) = (block.r0 / self.rows, block.r0 % self.rows);
        let mut i = 0;
        std::iter::from_fn(move || {
            if i == block.rows {
                return None;
            }
            let len = self.uniform_rows(t, y).min(block.rows - i);
            let run = Run {
                i,
                len,
                head: self.row(t, y, block.colour),
            };
            i += len;
            // A run ends within its slice, unless the slice is one row.
            if self.rows == 1 {
                t += len;
            } else {
                y += len;
                if y == self.rows {
                    (t, y) = (t + 1, 0);
                }
            }
            Some(run)
        })
    }

    /// One Metropolis pass over every site of `colour`, in the order of a
    /// site-by-site loop over slices, rows and columns, each site deciding
    /// on its draw of `draws`. Returns `(proposed, accepted)`.
    #[qmc_hot::hot]
    pub(crate) fn half_sweep(
        &self,
        spins: &mut [i8],
        thr: &Thresholds,
        colour: usize,
        scratch: &mut Scratch,
        draws: &Keyed,
    ) -> (u64, u64) {
        debug_assert!(
            !self.wraps || self.width.is_multiple_of(2),
            "an odd ring has no checkerboard"
        );
        // A block is whole rows, `pitch` index bytes apart as they are
        // `row_stride` spins apart, or one segment of a row too wide for
        // that.
        let (seg, pitch) = if self.row_stride <= BLOCK {
            (self.width, self.row_stride)
        } else {
            (BLOCK, BLOCK)
        };
        let block_rows = BLOCK / pitch;
        let all_rows = self.slices * self.rows;
        let (mut proposed, mut accepted) = (0, 0);
        for r0 in (0..all_rows).step_by(block_rows) {
            for a in (0..self.width).step_by(seg) {
                let block = Block {
                    r0,
                    rows: block_rows.min(all_rows - r0),
                    a,
                    n: seg.min(self.width - a),
                    pitch,
                    colour,
                };
                proposed += self.index(&mut scratch.idx, spins, &block);
                accepted += self.resolve(spins, thr, &scratch.idx, draws, &block);
            }
        }
        (proposed, accepted)
    }

    /// Pass 1 — index every site of the block's rows, a uniform run of
    /// rows at a time (the ghost or wrap cells between the rows of a run
    /// are indexed along and never read), then the wrap column of each
    /// periodic row of the run at the head's distances. Returns the
    /// block's colour sites.
    #[qmc_hot::hot]
    fn index(&self, idx: &mut [u8], spins: &[i8], block: &Block) -> u64 {
        let &Block { a, n, pitch, .. } = block;
        let last = self.width - 1;
        // Columns indexed by slices: all of them between ghosts, all but
        // the wrap columns of a periodic row.
        let (lo, hi) = if self.wraps {
            (a.max(1), (a + n).min(last))
        } else {
            (a, a + n)
        };
        let mut sites = 0;
        for Run { i, len, head } in self.runs(block) {
            if lo < hi {
                let cells = (len - 1) * pitch + (hi - lo);
                let out = &mut idx[i * pitch + (lo - a)..][..cells];
                index_span(out, spins, &head, lo, self.square);
            }
            for k in 0..len {
                let first = (head.first + k) % 2;
                // A periodic row's wrap column of the colour being swept
                // (the other one is never read), one site at a time: its
                // west / east is the row's other end.
                if self.wraps && (first == 0 && a == 0 || first == last % 2 && a + n > last) {
                    let (x, west, east) = if first == 0 {
                        (0, last, 1)
                    } else {
                        (last, last - 1, 0)
                    };
                    let (cur, on) = (head.cur + k * pitch, k * pitch + x);
                    let mut sp = spins[cur + west] + spins[cur + east];
                    if self.square {
                        sp += spins[head.north + on] + spins[head.south + on];
                    }
                    let tp = spins[head.up + on] + spins[head.down + on];
                    idx[(i + k) * pitch + x - a] = flat_index(spins[cur + x], sp, tp);
                }
                sites += ((n + 1 - (first + a) % 2) / 2) as u64;
            }
        }
        sites
    }

    /// Pass 2 — resolve the block's colour sites in site order, without a
    /// branch, each on its draw of `draws`. Row by row the spin offset
    /// steps by `row_stride` and the draw index by `lx`, the first colour site
    /// changes column, and a new slice is placed afresh (its first row may
    /// lie past a ghost frame, and its colour need not alternate). Returns
    /// the flips.
    #[qmc_hot::hot]
    fn resolve(
        &self,
        spins: &mut [i8],
        thr: &Thresholds,
        idx: &[u8],
        draws: &Keyed,
        block: &Block,
    ) -> u64 {
        let &Block { a, n, pitch, .. } = block;
        // Where row `y` of slice `t` starts at column `a`, that column's
        // draw index, and the column (0 or 1, from `a`) of its first
        // colour site.
        let place = |t: usize, y: usize| {
            let row = self.row(t, y, block.colour);
            (row.cur + a, draws.at(t, y, a), (row.first + a) % 2)
        };
        let (mut t, mut y) = (block.r0 / self.rows, block.r0 % self.rows);
        let (mut cur, mut row_at, mut first) = place(t, y);
        let mut accepted = 0;
        for idx in idx.chunks(pitch).take(block.rows) {
            let mut at = row_at.wrapping_add(first as u64);
            // Counted per row: a counter that lives across rows gets
            // spilled, and an add to memory per site costs the loop 12 %.
            let mut flips = 0;
            let mut decide = |s: &mut i8, k: u8| {
                let t = thr.get(k);
                let accept = (SplitMix64::at(draws.key, at) >> 11) < t;
                at = at.wrapping_add(2);
                *s = if accept { -*s } else { *s };
                flips += u64::from(accept);
            };
            // Pairs of columns, then the colour site of an odd tail.
            let mut row = spins[cur + first..cur + n].chunks_exact_mut(2);
            let mut idx = idx[first..n].chunks_exact(2);
            for (s, k) in row.by_ref().zip(idx.by_ref()) {
                decide(&mut s[0], k[0]);
            }
            if let ([s], &[k]) = (row.into_remainder(), idx.remainder()) {
                decide(s, k);
            }
            accepted += flips;
            y += 1;
            if y == self.rows {
                (t, y) = (t + 1, 0);
                (cur, row_at, first) = place(t, y);
            } else {
                cur += self.row_stride;
                row_at = row_at.wrapping_add(draws.row);
                first ^= 1;
            }
        }
        accepted
    }
}

/// Pass 1 for `out.len()` consecutive cells starting at column `lo` of
/// `row` — on through the rows that follow it, when they are uniform with
/// it: byte arithmetic over seven contiguous runs of spins, each cell's
/// neighbours taken at `row`'s distances. Nothing here depends on a
/// cell's colour or on another cell's outcome, so the loops vectorise.
#[qmc_hot::hot]
#[inline]
#[allow(clippy::needless_range_loop)] // `k` walks eight equally long slices
fn index_span(out: &mut [u8], spins: &[i8], row: &Row, lo: usize, square: bool) {
    let n = out.len();
    let run = |start: usize| &spins[start..start + n];
    let (cur, west, east) = (
        run(row.cur + lo),
        run(row.cur + lo - 1),
        run(row.cur + lo + 1),
    );
    let (up, down) = (run(row.up + lo), run(row.down + lo));
    if square {
        let (north, south) = (run(row.north + lo), run(row.south + lo));
        for k in 0..n {
            let sp = west[k] + east[k] + north[k] + south[k];
            out[k] = flat_index(cur[k], sp, up[k] + down[k]);
        }
    } else {
        for k in 0..n {
            out[k] = flat_index(cur[k], west[k] + east[k], up[k] + down[k]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StCouplings;
    use qmc_rng::{unit_f64, NO_DRAW};

    /// `(J, h, β, m)`: the `tfim2d_halo` and `tfim_chain_crit` models of
    /// the benchmark, three generic sets, and one whose `K_τ ≈ 196` makes
    /// `e^{−ΔS}` underflow to 0 on one side and overflow to ∞ on the other.
    const COUPLINGS: [(f64, f64, f64, usize); 6] = [
        (1.0, 3.044, 2.0, 32),
        (1.0, 1.0, 16.0, 128),
        (1.0, 0.4, 2.0, 32),
        (0.7, 2.5, 0.5, 8),
        (2.0, 0.05, 4.0, 64),
        (1.0, 1e-170, 8.0, 8),
    ];

    fn tables() -> impl Iterator<Item = AcceptTable> {
        COUPLINGS
            .iter()
            .map(|&(j, h, beta, m)| AcceptTable::new(&StCouplings::new(j, h, beta / m as f64)))
    }

    fn domain() -> impl Iterator<Item = (i8, i8, i8)> {
        [-1i8, 1].into_iter().flat_map(|s| {
            (-4i8..=4).flat_map(move |sp| [-2i8, 0, 2].into_iter().map(move |tp| (s, sp, tp)))
        })
    }

    #[test]
    fn flat_index_is_the_accept_table_layout() {
        let mut seen = [false; 54];
        for (s, sp, tp) in domain() {
            let (s32, sp32, tp32) = (i32::from(s), i32::from(sp), i32::from(tp));
            let spelled_out = ((s32 + 1) / 2) * 27 + (sp32 + 4) * 3 + (tp32 + 2) / 2;
            assert_eq!(i32::from(flat_index(s, sp, tp)), spelled_out);
            seen[usize::from(flat_index(s, sp, tp))] = true;
        }
        assert!(seen.iter().all(|&hit| hit), "the 54 points fill 0..54");
        for table in tables() {
            let thr = Thresholds::new(&table);
            for (s, sp, tp) in domain() {
                let k = flat_index(s, sp, tp);
                let want = threshold(table.ratio(s, sp.into(), tp.into()));
                assert_eq!(thr.get(k), want);
            }
        }
    }

    #[test]
    fn thresholds_decide_exactly_as_the_f64_predicate() {
        // The identity the kernel rests on, against the definition it
        // cites (`qmc_rng::unit_f64`): for every ratio a table can hold
        // and raw draws on both sides of the threshold and at both ends
        // of the range, low 11 bits clear and set.
        let synthetic = [
            0.0,
            5e-324,
            2f64.powi(-53),
            0.5,
            1.0 - 2f64.powi(-53),
            1.0,
            1.0 + 2f64.powi(-52),
            f64::INFINITY,
            f64::NAN,
        ];
        let from_tables = tables().flat_map(|table| {
            domain().map(move |(s, sp, tp)| table.ratio(s, sp.into(), tp.into()))
        });
        let mut met = (false, false, false); // an entry of 0, of ∞, one consuming no draw
        for ratio in from_tables.chain(synthetic) {
            let thr = threshold(ratio);
            met.0 |= ratio == 0.0;
            met.1 |= ratio == f64::INFINITY;
            met.2 |= thr == NO_DRAW;
            // `metropolis` skips the draw on `ratio >= 1.0` (false for NaN).
            let skips_draw = ratio >= 1.0;
            assert_eq!(thr == NO_DRAW, skips_draw, "ratio {ratio:e}");
            let top = (1u64 << 53) - 1;
            let around = [thr.wrapping_sub(1), thr, thr.wrapping_add(1), 0, top];
            for n in around.into_iter().filter(|&n| n <= top) {
                for low in [0u64, (1 << 11) - 1] {
                    let raw = n << 11 | low;
                    assert_eq!(
                        (raw >> 11) < thr,
                        ratio >= 1.0 || unit_f64(raw) < ratio,
                        "ratio {ratio:e} (threshold {thr}) at raw {raw:#x}"
                    );
                }
            }
        }
        assert_eq!(met, (true, true, true));
    }
}
