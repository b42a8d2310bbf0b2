//! The world-line configuration and its Monte Carlo moves.

use crate::weights::{by_pattern, classify, PlaqClass, PlaqWeights};
use qmc_lattice::parity_mask;
use qmc_rng::{threshold, Rng64, NO_DRAW};

/// Simulation parameters for the world-line engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldlineParams {
    /// Chain length (even, ≥ 4; periodic).
    pub l: usize,
    /// Transverse exchange `Jx` (sign immaterial on the bipartite chain).
    pub jx: f64,
    /// Longitudinal exchange `Jz`.
    pub jz: f64,
    /// Inverse temperature `β`.
    pub beta: f64,
    /// Trotter number `m` (`Δτ = β/m`; the lattice has `2m` spin rows).
    pub m: usize,
}

impl WorldlineParams {
    /// `Δτ = β/m`.
    pub fn dtau(&self) -> f64 {
        self.beta / self.m as f64
    }
}

/// A world-line configuration on the `L × 2m` space-time lattice plus the
/// update machinery.
///
/// Shaded (weight-carrying) cells sit at `(i, t)` with `i + t` even: bond
/// `(i, i+1)` is active during imaginary-time interval `t → t+1`. Every
/// site belongs to exactly one active bond per interval, so each spin is a
/// corner of exactly two shaded cells.
///
/// Each spin row is stored bit-packed and twice over, `x‖x` (the layout of
/// [`qmc_lattice::DoubledRing`], bit 1 ⇔ ↑): site `i` is bit `i` and bit
/// `i + l` of the row's `2l` bits, so any run of columns starting below
/// `l` is one contiguous bit field, read with at most a two-word funnel
/// shift, and the periodic seam needs no wrap case.
#[derive(Debug, Clone)]
pub struct Worldline {
    params: WorldlineParams,
    rows: usize,
    /// Words per row: `⌈2l/64⌉`, the bits past `2l` zero.
    row_words: usize,
    /// Row `t` is `words[t·row_words..(t + 1)·row_words]`; one zero word
    /// follows the last row, so a two-word read at any row's end stays in
    /// bounds (what it brings in lies past `2l` and is shifted out).
    words: Vec<u64>,
    /// Spins changed since the last successful checkpoint snapshot
    /// (conservatively true on construction and after any accepted move
    /// or replica import; cleared only by
    /// [`qmc_ckpt::Checkpoint::mark_clean`]).
    spins_dirty: bool,
    weights: PlaqWeights,
    /// Weight of a diagonal cell, `[parallel, anti-parallel]`: the
    /// factors a straight-line move multiplies.
    diag_w: [f64; 2],
    /// A straight-line move's `(old, new)` products when its column's two
    /// neighbours are kink-free too, by `first << 1 | second`: each half's
    /// `m` cells are then all parallel or all anti-parallel (see
    /// [`Self::try_straight_line`]).
    straight_pairs: [(f64, f64); 4],
    /// The corner move's acceptance over all 2⁹ neighbourhood spin patterns
    /// (keyed as [`Self::corner_row`] gathers them) as [`threshold`]s on a
    /// raw draw: the row kernel is one table load and one integer compare
    /// per proposal, no classify, divide or float conversion.
    local_thr: Box<[u64; 512]>,
    /// Bit `i` set when column `i` is not one straight world line (see
    /// [`Self::mark_kinks`]); rebuilt every sweep after the corner rows.
    kinks: Vec<u64>,
    /// Local-move acceptance counters (accepted, proposed-with-precondition).
    pub local_accepted: u64,
    /// Local proposals satisfying the flippable precondition.
    pub local_proposed: u64,
    /// Accepted straight-line (temporal winding) moves.
    pub straight_accepted: u64,
    /// Proposed straight-line moves.
    pub straight_proposed: u64,
}

/// Pack the nine spins a corner move's ratio depends on into a table key.
///
/// Under the move precondition (`s(i,t) = s(i,t+1) = a0`,
/// `s(j,·) = ¬a0`) the four affected shaded cells are determined by `a0`
/// plus the eight surrounding spins: the bottom row of the cell below
/// (`itd`, `jtd`), the top row of the cell above (`ituu`, `jtuu`), and the
/// left/right neighbour columns over the two move rows (`imt`, `imtu`,
/// `jpt`, `jptu`). The bit order is the one the row kernel gathers from
/// its words (see [`Worldline::corner_row`]).
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn local_move_key(
    a0: bool,
    itd: bool,
    jtd: bool,
    ituu: bool,
    jtuu: bool,
    imt: bool,
    imtu: bool,
    jpt: bool,
    jptu: bool,
) -> usize {
    (imt as usize)
        | (a0 as usize) << 1
        | (imtu as usize) << 2
        | (jpt as usize) << 3
        | (jptu as usize) << 4
        | (itd as usize) << 5
        | (jtd as usize) << 6
        | (ituu as usize) << 7
        | (jtuu as usize) << 8
}

/// The corner-move weight ratio of the neighbourhood pattern `key`
/// ([`local_move_key`]): the four affected cells classified and their
/// weights multiplied in the order the hand-enumerated reference (the
/// `cfg(test)` `Worldline::ratio_local_fast`) uses, so the bits are its bits.
/// Patterns whose *current* cells are forbidden can never be queried from
/// a valid configuration; they get ratio 0.
fn local_ratio(w: &PlaqWeights, key: usize) -> f64 {
    let bit = |b: usize| (key >> b) & 1 == 1;
    let (imt, a0, imtu, jpt, jptu, itd, jtd, ituu, jtuu) = (
        bit(0),
        bit(1),
        bit(2),
        bit(3),
        bit(4),
        bit(5),
        bit(6),
        bit(7),
        bit(8),
    );
    let b0 = !a0;
    let c1_old = classify((itd, jtd), (a0, b0));
    let c1_new = classify((itd, jtd), (!a0, !b0));
    let c2_old = classify((a0, b0), (ituu, jtuu));
    let c2_new = classify((!a0, !b0), (ituu, jtuu));
    let c3_old = classify((imt, a0), (imtu, a0));
    let c3_new = classify((imt, !a0), (imtu, !a0));
    let c4_old = classify((b0, jpt), (b0, jptu));
    let c4_new = classify((!b0, jpt), (!b0, jptu));
    let denom = w.weight(c1_old) * w.weight(c2_old) * w.weight(c3_old) * w.weight(c4_old);
    if denom > 0.0 {
        (w.weight(c1_new) * w.weight(c2_new) * w.weight(c3_new) * w.weight(c4_new)) / denom
    } else {
        0.0
    }
}

/// [`threshold`] of [`local_ratio`] for every neighbourhood pattern.
fn local_thresholds(w: &PlaqWeights) -> Box<[u64; 512]> {
    Box::new(std::array::from_fn(|key| threshold(local_ratio(w, key))))
}

/// `i + 1` on a ring of `n`: a wrap test, not a division.
#[inline]
fn succ(i: usize, n: usize) -> usize {
    if i + 1 == n {
        0
    } else {
        i + 1
    }
}

/// `i − 1` on a ring of `n`.
#[inline]
fn pred(i: usize, n: usize) -> usize {
    if i == 0 {
        n - 1
    } else {
        i - 1
    }
}

/// `rng.metropolis(ratio)` for `thr = threshold(ratio)`: the same verdict
/// for every raw draw, and a draw consumed exactly when it consumes one.
#[qmc_hot::hot]
#[inline(always)]
fn accepts<R: Rng64>(thr: u64, rng: &mut R) -> bool {
    thr == NO_DRAW || (rng.next_u64() >> 11) < thr
}

/// The 64 bits of the packed row at word `base` that start at bit `p`
/// (`p < 2l`): a funnel shift over two words. `(x << 1) << (63 − s)` is
/// `x << (64 − s)` without the overlong shift at `s = 0`, where it is 0.
#[inline(always)]
fn bits_at(words: &[u64], base: usize, p: usize) -> u64 {
    let (q, s) = (base + p / 64, p % 64);
    (words[q] >> s) | ((words[q + 1] << 1) << (63 - s))
}

/// Sites `first − 1 .. first + 63` of the packed row at `base` as bits
/// `0..64`, site `−1` being site `l − 1`: a candidate `first + b` with
/// `b ≤ 60` finds its four-site field at bit `b`.
#[inline(always)]
fn window(words: &[u64], base: usize, l: usize, first: usize) -> u64 {
    if first == 0 {
        bits_at(words, base, 0) << 1 | (words[base + (l - 1) / 64] >> ((l - 1) % 64)) & 1
    } else {
        bits_at(words, base, first - 1)
    }
}

/// Bit `b` set for each non-zero `bytes[b]`, for up to 64 bytes: eight
/// at a time, gathered by one multiply.
fn bits_of(bytes: &[u8]) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let chunks = bytes.chunks_exact(8);
    let (tail, done) = (chunks.remainder(), bytes.len() & !7);
    let mut x = 0;
    for (j, chunk) in chunks.enumerate() {
        let v = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        // Bit 0 of each byte: is the byte non-zero.
        let nz = ((((v & LOW7) + LOW7) | v) >> 7) & 0x0101_0101_0101_0101;
        // Byte k's bit lands at bit 56 + k, with no carry into the top byte.
        x |= (nz.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * j);
    }
    for (b, &v) in tail.iter().enumerate() {
        x |= ((v != 0) as u64) << (done + b);
    }
    x
}

/// Byte `k` of `SPREAD[x]` is bit `k` of the byte `x`, as 0 or 1.
const SPREAD: [u64; 256] = {
    let mut table = [0; 256];
    let mut x = 0;
    while x < 256 {
        let mut k = 0;
        while k < 8 {
            table[x] |= ((x as u64 >> k) & 1) << (8 * k);
            k += 1;
        }
        x += 1;
    }
    table
};

/// Write bits `0..out.len()` of `x` (at most 64) into `out`, one byte
/// each, as 0 or 1: eight at a time, from [`SPREAD`].
fn spread_into(x: u64, out: &mut [u8]) {
    let done = out.len() & !7;
    let mut chunks = out.chunks_exact_mut(8);
    for (j, chunk) in chunks.by_ref().enumerate() {
        chunk.copy_from_slice(&SPREAD[(x >> (8 * j)) as u8 as usize].to_le_bytes());
    }
    for (b, v) in chunks.into_remainder().iter_mut().enumerate() {
        *v = (x >> (done + b)) as u8 & 1;
    }
}

/// XOR `mask << p` into the packed row at word `base`; a two-bit `mask`
/// may straddle a word.
#[inline(always)]
fn xor_at(words: &mut [u64], base: usize, p: usize, mask: u64) {
    let (q, s) = (base + p / 64, p % 64);
    words[q] ^= mask << s;
    words[q + 1] ^= (mask >> 1) >> (63 - s);
}

/// Flip sites `i` and `i + 1` (mod `l`) of the packed row at `base`, in
/// both copies.
#[inline(always)]
fn flip_pair(words: &mut [u64], base: usize, l: usize, i: usize) {
    // Bits i, i + 1: at i = l − 1 the second is site 0's second copy.
    xor_at(words, base, i, 0b11);
    if i + 1 < l {
        xor_at(words, base, i + l, 0b11);
    } else {
        xor_at(words, base, 0, 1);
        xor_at(words, base, 2 * l - 1, 1);
    }
}

impl Worldline {
    /// Create a configuration in the Néel state (a valid, `M = 0`,
    /// zero-winding starting point).
    pub fn new(params: WorldlineParams) -> Self {
        assert!(
            params.l >= 4 && params.l.is_multiple_of(2),
            "world-line chain length must be even ≥ 4, got {}",
            params.l
        );
        // m ≥ 2 keeps the four shaded cells around any unshaded cell
        // distinct (at m = 1 the two temporal neighbours coincide, which
        // the specialized local-move kernel does not handle).
        assert!(params.m >= 2, "need at least two Trotter steps");
        assert!(params.beta > 0.0, "β must be positive");
        let rows = 2 * params.m;
        let row_words = params.l.div_ceil(32);
        let weights = PlaqWeights::new(params.jx, params.jz, params.dtau());
        let diag_w = [
            weights.weight(PlaqClass::DiagonalParallel),
            weights.weight(PlaqClass::DiagonalAnti),
        ];
        let mut w = Self {
            params,
            rows,
            row_words,
            words: vec![0; rows * row_words + 1],
            spins_dirty: true,
            weights,
            diag_w,
            // The general walk's multiplications, in its order, for
            // halves of constant anti-parallel bit.
            straight_pairs: std::array::from_fn(|k| {
                let (mut old, mut new) = (1.0, 1.0);
                for anti in [k >> 1, k & 1] {
                    for _ in 0..params.m {
                        old *= diag_w[anti];
                        new *= diag_w[anti ^ 1];
                    }
                }
                (old, new)
            }),
            local_thr: local_thresholds(&weights),
            kinks: vec![0; params.l.div_ceil(64)],
            local_accepted: 0,
            local_proposed: 0,
            straight_accepted: 0,
            straight_proposed: 0,
        };
        // Néel: site i is up for even i, so bit b of a doubled row is
        // up for even b (l is even).
        let doubled = 2 * params.l;
        for (k, word) in w.words[..rows * row_words].iter_mut().enumerate() {
            let first = 64 * (k % row_words);
            *word = 0x5555_5555_5555_5555 & (!0 >> (64 - (doubled - first).min(64)));
        }
        w
    }

    /// Parameters.
    pub fn params(&self) -> &WorldlineParams {
        &self.params
    }

    /// Number of spin rows (`2m`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The plaquette weight table in use.
    pub fn weights(&self) -> &PlaqWeights {
        &self.weights
    }

    /// Spin at site `i`, row `t`.
    #[inline]
    pub fn spin(&self, i: usize, t: usize) -> bool {
        (self.words[t * self.row_words + i / 64] >> (i % 64)) & 1 == 1
    }

    /// The packed words from row `t` on: the row's doubled ring (bits
    /// `0..2l`) followed by further words whose bits are never needed.
    #[inline]
    pub(crate) fn doubled_row(&self, t: usize) -> &[u64] {
        &self.words[t * self.row_words..]
    }

    #[cfg(test)]
    fn flip(&mut self, i: usize, t: usize) {
        let (base, l) = (t * self.row_words, self.params.l);
        xor_at(&mut self.words, base, i, 1);
        xor_at(&mut self.words, base, i + l, 1);
    }

    /// Replace the configuration with `bytes`, one per spin, row-major
    /// (non-zero = ↑), 64 sites to a word.
    fn pack(&mut self, bytes: &[u8]) {
        let (l, nw) = (self.params.l, self.row_words);
        self.words.fill(0);
        for (t, row) in bytes.chunks_exact(l).enumerate() {
            let base = t * nw;
            for (k, sites) in row.chunks(64).enumerate() {
                let x = bits_of(sites);
                self.words[base + k] |= x;
                // The second copy starts at bit l + 64k; its bits all lie
                // below 2l, so the second word written is still this row's.
                let (q, s) = (base + (l + 64 * k) / 64, (l + 64 * k) % 64);
                self.words[q] |= x << s;
                self.words[q + 1] |= (x >> 1) >> (63 - s);
            }
        }
    }

    /// Visit the spins row-major as bytes, one per spin (1 = ↑), a few
    /// hundred at a time: the replica-exchange and checkpoint layout.
    fn spin_bytes(&self, mut f: impl FnMut(&[u8])) {
        let (l, nw) = (self.params.l, self.row_words);
        let (mut buf, mut fill) = ([0; 512], 0);
        for t in 0..self.rows {
            for first in (0..l).step_by(64) {
                let n = (l - first).min(64);
                if fill + n > buf.len() {
                    f(&buf[..fill]);
                    fill = 0;
                }
                spread_into(self.words[t * nw + first / 64], &mut buf[fill..fill + n]);
                fill += n;
            }
        }
        f(&buf[..fill]);
    }

    #[inline]
    fn row_up(&self, t: usize) -> usize {
        succ(t, self.rows)
    }

    #[inline]
    fn row_down(&self, t: usize) -> usize {
        pred(t, self.rows)
    }

    /// Class of the shaded cell at `(i, t)` (caller guarantees `i + t`
    /// even).
    #[inline]
    pub fn cell_class(&self, i: usize, t: usize) -> PlaqClass {
        debug_assert!((i + t).is_multiple_of(2), "cell ({i},{t}) is not shaded");
        let l = self.params.l;
        let j = (i + 1) % l;
        let tu = self.row_up(t);
        classify(
            (self.spin(i, t), self.spin(j, t)),
            (self.spin(i, tu), self.spin(j, tu)),
        )
    }

    /// Visit the corner [`pattern`](crate::weights::pattern) of every
    /// shaded cell in row-major order (rows ascending, cells left to right
    /// — the order every sum over cells is taken in, so part of its bits).
    ///
    /// The cells of row `t` start at site `t mod 2` and take two sites
    /// each, so one 64-bit read of the bottom and of the top row from
    /// there holds the corner pairs of 32 cells, two bits apiece (the seam
    /// cell's right site is the second copy's site 0).
    ///
    /// Always inlined: the visitor's running sums have to stay in registers,
    /// and through a call they are loaded and stored once per cell.
    #[qmc_hot::hot]
    #[inline(always)]
    pub(crate) fn for_each_pattern<F: FnMut(usize)>(&self, mut f: F) {
        let (l, nw) = (self.params.l, self.row_words);
        for t in 0..self.rows {
            let (bottom, top) = (t * nw, self.row_up(t) * nw);
            let (mut left, mut first) = (l / 2, t % 2);
            while left > 0 {
                let mut b = bits_at(&self.words, bottom, first);
                let mut h = bits_at(&self.words, top, first);
                let cells = left.min(32);
                for _ in 0..cells {
                    f((b & 3 | (h & 3) << 2) as usize);
                    b >>= 2;
                    h >>= 2;
                }
                left -= cells;
                first += 64;
            }
        }
    }

    /// Log-weight of the whole configuration (−∞ if invalid). Test and
    /// debugging aid.
    pub fn log_weight(&self) -> f64 {
        self.log_weight_with(&self.weights)
    }

    /// Log-weight of the configuration under an *arbitrary* plaquette
    /// weight table — the quantity parallel tempering needs to evaluate a
    /// configuration at a neighbouring temperature (same `l` and `m`,
    /// different `Δτ`).
    ///
    /// One table add per shaded cell; a sum that meets a cell of weight
    /// ≤ 0 is −∞ from there on (no weight is +∞).
    pub fn log_weight_with(&self, weights: &PlaqWeights) -> f64 {
        let ln_w = by_pattern(|class| weights.ln_weight(class));
        let mut s = 0.0;
        self.for_each_pattern(|p| s += ln_w[p]);
        s
    }

    /// `(`[`Self::log_weight`]`, `[`Self::log_weight_with`]`(other))` from
    /// one walk with two accumulators: what a tempering exchange compares.
    /// Each sum takes the cells in the order of its single-table walk, so
    /// both have the bits those return.
    pub fn log_weight_pair(&self, other: &PlaqWeights) -> (f64, f64) {
        let own_ln = by_pattern(|class| self.weights.ln_weight(class));
        let other_ln = by_pattern(|class| other.ln_weight(class));
        let (mut own, mut cross) = (0.0, 0.0);
        self.for_each_pattern(|p| {
            own += own_ln[p];
            cross += other_ln[p];
        });
        (own, cross)
    }

    /// Export the spin configuration as bytes (replica-exchange payload),
    /// one per spin, row-major.
    pub fn export_spins(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.rows * self.params.l);
        self.spin_bytes(|bytes| out.extend_from_slice(bytes));
        out
    }

    /// Import a spin configuration previously produced by
    /// [`Worldline::export_spins`] on an engine with identical `(l, m)`.
    pub fn import_spins(&mut self, bytes: &[u8]) {
        assert_eq!(
            bytes.len(),
            self.rows * self.params.l,
            "configuration size mismatch (different l or m?)"
        );
        self.pack(bytes);
        self.spins_dirty = true;
        debug_assert!(self.log_weight().is_finite(), "imported invalid config");
    }

    /// Exchange configurations with `other`, an engine of the same `(l, m)`:
    /// what [`Self::export_spins`] and [`Self::import_spins`] do both ways
    /// for a tempering swap, as two swapped buffers. Both are marked dirty,
    /// as an import marks them.
    pub fn swap_spins(&mut self, other: &mut Worldline) {
        assert_eq!(
            (self.params.l, self.params.m),
            (other.params.l, other.params.m),
            "configuration size mismatch (different l or m?)"
        );
        std::mem::swap(&mut self.words, &mut other.words);
        self.spins_dirty = true;
        other.spins_dirty = true;
    }

    /// Reference weight ratio for the local corner move on unshaded cell
    /// `(i, t)` — hand-enumerates the four affected shaded cells. The hot
    /// path reads [`Self::local_thr`] instead (built from exactly this
    /// expression by [`local_ratio`]); this stays as the test oracle.
    #[cfg(test)]
    fn ratio_local_fast(&self, i: usize, t: usize) -> f64 {
        let l = self.params.l;
        let j = (i + 1) % l;
        let tu = self.row_up(t);
        let td = if t == 0 { self.rows - 1 } else { t - 1 };
        let tuu = self.row_up(tu);
        let im = (i + l - 1) % l;
        let jp = (j + 1) % l;
        let w = &self.weights;

        let s = |site: usize, row: usize| self.spin(site, row);
        let f = |site: usize, row: usize| !self.spin(site, row); // flipped view

        // Cell (i, td): rows td → t, both sites flipped on the top row.
        let c1_old = classify((s(i, td), s(j, td)), (s(i, t), s(j, t)));
        let c1_new = classify((s(i, td), s(j, td)), (f(i, t), f(j, t)));
        // Cell (i, tu): rows tu → tuu, both sites flipped on the bottom.
        let c2_old = classify((s(i, tu), s(j, tu)), (s(i, tuu), s(j, tuu)));
        let c2_new = classify((f(i, tu), f(j, tu)), (s(i, tuu), s(j, tuu)));
        // Cell (im, t): rows t → tu, site i flipped on both rows.
        let c3_old = classify((s(im, t), s(i, t)), (s(im, tu), s(i, tu)));
        let c3_new = classify((s(im, t), f(i, t)), (s(im, tu), f(i, tu)));
        // Cell (j, t): rows t → tu, site j flipped on both rows.
        let c4_old = classify((s(j, t), s(jp, t)), (s(j, tu), s(jp, tu)));
        let c4_new = classify((f(j, t), s(jp, t)), (f(j, tu), s(jp, tu)));

        (w.weight(c1_new) * w.weight(c2_new) * w.weight(c3_new) * w.weight(c4_new))
            / (w.weight(c1_old) * w.weight(c2_old) * w.weight(c3_old) * w.weight(c4_old))
    }

    /// One full sweep: every unshaded cell is offered a corner move, then
    /// `L` random straight-line attempts.
    #[qmc_hot::hot]
    pub fn sweep<R: Rng64>(&mut self, rng: &mut R) {
        let _span = qmc_obs::span("worldline.sweep");
        let before = (
            self.local_accepted,
            self.local_proposed,
            self.straight_accepted,
            self.straight_proposed,
        );
        let l = self.params.l;
        for t in 0..self.rows {
            self.corner_row(t, rng);
        }
        self.mark_kinks();
        for _ in 0..l {
            let i = rng.index(l);
            self.try_straight_line(i, rng);
        }
        // Only accepted moves mutate spins; proposal counts alone leave
        // the configuration (and its checkpoint section) untouched.
        if self.local_accepted != before.0 || self.straight_accepted != before.2 {
            self.spins_dirty = true;
        }
        // Mirror this sweep's counter deltas into the rank recorder (the
        // public fields stay authoritative; no-ops when metrics are off).
        if qmc_obs::metrics_enabled() {
            qmc_obs::counter_add("worldline.local_accepted", self.local_accepted - before.0);
            qmc_obs::counter_add("worldline.local_proposed", self.local_proposed - before.1);
            qmc_obs::counter_add(
                "worldline.straight_accepted",
                self.straight_accepted - before.2,
            );
            qmc_obs::counter_add(
                "worldline.straight_proposed",
                self.straight_proposed - before.3,
            );
        }
    }

    /// Offer the corner move to every unshaded cell of interval `t`
    /// (`i + t` odd), left to right — neighbouring cells share columns, so
    /// the order is part of the trajectory.
    ///
    /// A cell `(i, t)` with a vertical world-line segment on exactly one
    /// side (`s(i,·) = a0`, `s(j,·) = ¬a0` on rows `t` and `t+1`) is a
    /// proposal. One candidate mask per 64 sites,
    /// `eq & eq≫1 & (lo ⊕ lo≫1) & parity` with `eq = ¬(lo ⊕ hi)`, marks
    /// them all; it stays exact while the row's moves are made, because a
    /// cell's test reads only its own two sites and only it flips them.
    /// Candidates go in ascending order (`trailing_zeros`); each gathers
    /// its nine-spin key from the live rows — sites `i − 1..i + 2` are one
    /// four-bit field per row, shifted out of a [`window`] that an accepted
    /// move reloads, so a neighbour an earlier move flipped is read
    /// flipped — and [`accepts`] decides it.
    #[qmc_hot::hot]
    fn corner_row<R: Rng64>(&mut self, t: usize, rng: &mut R) {
        let (l, nw) = (self.params.l, self.row_words);
        let tu = self.row_up(t);
        // Distinct rows because m ≥ 2.
        let (down, lo, hi, up) = (self.row_down(t) * nw, t * nw, tu * nw, self.row_up(tu) * nw);
        let (words, thr) = (&mut self.words, &self.local_thr);
        let (mut proposed, mut accepted) = (0, 0);
        for first in (0..l).step_by(64) {
            let (a, b) = (bits_at(words, lo, first), bits_at(words, hi, first));
            let (a1, b1) = (bits_at(words, lo, first + 1), bits_at(words, hi, first + 1));
            let in_row = !0u64 >> (64 - (l - first).min(64));
            let mut cand = !(a ^ b) & !(a1 ^ b1) & (a ^ a1) & parity_mask(t + 1) & in_row;
            proposed += cand.count_ones() as u64;
            let (mut wlo, mut whi) = (window(words, lo, l, first), window(words, hi, l, first));
            let (wdn, wup) = (window(words, down, l, first), window(words, up, l, first));
            while cand != 0 {
                let b = cand.trailing_zeros() as usize;
                cand &= cand - 1;
                let i = first + b;
                // Sites i − 1, i, i + 1, i + 2 as bits 0..4.
                let (lo4, hi4, dn4, up4) = if b <= 60 {
                    (wlo >> b, whi >> b, wdn >> b, wup >> b)
                } else {
                    let field = |base| bits_at(words, base, i - 1);
                    (field(lo), field(hi), field(down), field(up))
                };
                let key = (lo4 & 0b1011)
                    | (hi4 & 1) << 2
                    | (hi4 & 8) << 1
                    | (dn4 & 6) << 4
                    | (up4 & 6) << 6;
                if accepts(thr[key as usize], rng) {
                    // Both columns are constant over the two rows and
                    // opposite, so flipping the four corners swaps them.
                    flip_pair(words, lo, l, i);
                    flip_pair(words, hi, l, i);
                    (wlo, whi) = (window(words, lo, l, first), window(words, hi, l, first));
                    accepted += 1;
                }
            }
        }
        self.local_proposed += proposed;
        self.local_accepted += accepted;
    }

    /// Rebuild the kink mask: bit `i` of `OR_t (row_t ⊕ row_0)` is set
    /// when column `i` is not one straight world line.
    ///
    /// In a valid configuration a column changes between rows `t` and
    /// `t + 1` exactly when its shaded cell of that interval is a
    /// [`PlaqClass::Flip`] (the only allowed class whose top differs from
    /// its bottom), so the bit marks a column with a flip cell beside it.
    /// A straight-line move there is a forbidden cell, a ratio of exactly
    /// 0; flipping a kink-free column keeps every cell diagonal, so the
    /// mask holds for all of a sweep's straight-line attempts.
    #[qmc_hot::hot]
    fn mark_kinks(&mut self) {
        let nw = self.row_words;
        for (k, kinks) in self.kinks.iter_mut().enumerate() {
            let row0 = self.words[k];
            *kinks = (1..self.rows).fold(0, |acc, t| acc | (self.words[t * nw + k] ^ row0));
        }
    }

    /// Attempt the straight-line move: flip site `i` on every row
    /// (changes total magnetization by ±1 world line).
    ///
    /// A kinked column ([`Self::mark_kinks`]) has ratio 0: rejected
    /// without a draw. Otherwise column `i` is a corner of one diagonal
    /// cell per interval: the cell with left site `i` on rows
    /// `t ≡ i (mod 2)` and the one with left site `i − 1` on the others.
    /// Each weighs parallel or anti-parallel by its two sites on its
    /// bottom row, and the flip swaps the two. Both products start at 1 and
    /// take the cells in ascending `(left site, row)` order — for `i = 0`
    /// site 0's cells come before site `l − 1`'s — which fixes the bits of
    /// the ratio. When both neighbours of the column are kink-free too,
    /// each of the two halves is all parallel or all anti-parallel, and the
    /// products are [`Self::straight_pairs`], taken in that same order. An
    /// accepted move is two XORs per row.
    #[qmc_hot::hot]
    fn try_straight_line<R: Rng64>(&mut self, i: usize, rng: &mut R) {
        self.straight_proposed += 1;
        let kinked = |c: usize| (self.kinks[c / 64] >> (c % 64)) & 1 == 1;
        if kinked(i) {
            return;
        }
        let (l, nw) = (self.params.l, self.row_words);
        let (left, right) = (pred(i, l), succ(i, l));
        let halves = if i == 0 { [i, left] } else { [left, i] };
        let (old, new) = if !kinked(left) && !kinked(right) {
            let anti = |c: usize| (self.spin(c, 0) ^ self.spin(succ(c, l), 0)) as usize;
            self.straight_pairs[anti(halves[0]) << 1 | anti(halves[1])]
        } else {
            let (mut old, mut new) = (1.0, 1.0);
            for c in halves {
                // Sites c and c + 1 (at the seam, the second copy's site
                // 0) of rows c mod 2, c mod 2 + 2, …
                let (qc, sc, qd, sd) = (c / 64, c % 64, (c + 1) / 64, (c + 1) % 64);
                for row in self.words[(c % 2) * nw..self.rows * nw].chunks(2 * nw) {
                    let anti = (((row[qc] >> sc) ^ (row[qd] >> sd)) & 1) as usize;
                    old *= self.diag_w[anti];
                    new *= self.diag_w[anti ^ 1];
                }
            }
            (old, new)
        };
        debug_assert!(old > 0.0, "current configuration must be valid");
        let ratio = new / old;
        if ratio > 0.0 && accepts(threshold(ratio), rng) {
            let (own, copy) = (1u64 << (i % 64), 1u64 << ((i + l) % 64));
            for row in self.words[..self.rows * nw].chunks_exact_mut(nw) {
                row[i / 64] ^= own;
                row[(i + l) / 64] ^= copy;
            }
            self.straight_accepted += 1;
        }
    }

    /// Total magnetization `Σ (s − ½)` of row `t` (conserved across rows
    /// for valid configurations).
    pub fn row_magnetization(&self, t: usize) -> f64 {
        (0..self.params.l)
            .map(|i| if self.spin(i, t) { 0.5 } else { -0.5 })
            .sum()
    }

    /// Net world-line crossing number at the spatial seam (the bond
    /// `(L−1, 0)`); conserved by both move types — the simulation stays in
    /// the sector it starts in (0 for the Néel start).
    pub fn seam_crossing_number(&self) -> i64 {
        let l = self.params.l;
        let i = l - 1;
        let mut x = 0i64;
        for t in 0..self.rows {
            if !(i + t).is_multiple_of(2) {
                continue; // seam bond inactive in this interval
            }
            let tu = self.row_up(t);
            let bottom = (self.spin(i, t), self.spin(0, t));
            let top = (self.spin(i, tu), self.spin(0, tu));
            if classify(bottom, top) == PlaqClass::Flip {
                // ↑ moving l−1 → 0 counts +1, the reverse −1.
                x += if bottom.0 { 1 } else { -1 };
            }
        }
        x
    }

    /// Iterate shaded cells, yielding their classes (estimator support).
    pub fn for_each_cell<F: FnMut(PlaqClass)>(&self, mut f: F) {
        for t in 0..self.rows {
            let start = t % 2;
            for i in (start..self.params.l).step_by(2) {
                f(self.cell_class(i, t));
            }
        }
    }

    /// Run `therm` thermalization sweeps then `sweeps` measured sweeps,
    /// returning the measurement time series.
    pub fn run<R: Rng64>(
        &mut self,
        rng: &mut R,
        therm: usize,
        sweeps: usize,
    ) -> crate::estimators::TimeSeries {
        for _ in 0..therm {
            self.sweep(rng);
        }
        let mut series = crate::estimators::TimeSeries::with_capacity(self.params.l, sweeps);
        series.set_beta(self.params.beta);
        for _ in 0..sweeps {
            self.sweep(rng);
            series.record(&crate::estimators::measure(self));
            series.record_correlations(self);
        }
        series
    }
}

impl qmc_ckpt::Checkpoint for Worldline {
    fn kind(&self) -> &'static str {
        "engine.worldline.chain"
    }

    fn save(&self, enc: &mut qmc_ckpt::Encoder) {
        qmc_ckpt::save_sections_in_order(self, enc);
    }

    fn load(&mut self, dec: &mut qmc_ckpt::Decoder) -> Result<(), qmc_ckpt::CkptError> {
        qmc_ckpt::load_sections_in_order(self, dec)
    }

    fn dirty_sections(&self) -> qmc_ckpt::DirtySections {
        let mut s = qmc_ckpt::DirtySections::new();
        s.push("spins", self.spins_dirty);
        // Proposal counters advance every sweep regardless of acceptance.
        s.push("counters", true);
        s
    }

    fn save_section(&self, name: &str, enc: &mut qmc_ckpt::Encoder) {
        match name {
            // One byte per spin, length-prefixed: the layout of
            // `Encoder::bools`, whose count is its byte length.
            "spins" => enc.prefixed(|enc| self.spin_bytes(|bytes| enc.raw(bytes))),
            "counters" => {
                enc.u64(self.local_accepted);
                enc.u64(self.local_proposed);
                enc.u64(self.straight_accepted);
                enc.u64(self.straight_proposed);
            }
            _ => panic!("engine.worldline.chain has no checkpoint section {name:?}"),
        }
    }

    fn load_section(
        &mut self,
        name: &str,
        dec: &mut qmc_ckpt::Decoder,
    ) -> Result<(), qmc_ckpt::CkptError> {
        match name {
            "spins" => {
                let spins = dec.bools()?;
                let cells = self.rows * self.params.l;
                if spins.len() != cells {
                    return Err(qmc_ckpt::CkptError::corrupt(format!(
                        "worldline spins: engine has {cells} cells, checkpoint has {}",
                        spins.len()
                    )));
                }
                // Judged in place of the current spins, which go back
                // untouched if the candidate is refused.
                let current = self.words.clone();
                let bytes: Vec<u8> = spins.iter().map(|&s| s as u8).collect();
                self.pack(&bytes);
                if !self.log_weight().is_finite() {
                    self.words = current;
                    return Err(qmc_ckpt::CkptError::corrupt(
                        "worldline checkpoint is not a valid configuration",
                    ));
                }
                self.spins_dirty = true;
                Ok(())
            }
            "counters" => {
                self.local_accepted = dec.u64()?;
                self.local_proposed = dec.u64()?;
                self.straight_accepted = dec.u64()?;
                self.straight_proposed = dec.u64()?;
                Ok(())
            }
            _ => Err(qmc_ckpt::CkptError::MissingSection {
                name: name.to_string(),
            }),
        }
    }

    fn mark_clean(&mut self) {
        self.spins_dirty = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::pattern;
    use qmc_rng::{CountingRng, Xoshiro256StarStar};

    /// The replica step as it was before the table-driven walks, kept as
    /// the oracle they are compared against: the generic sorted-cell-list
    /// ratio, the corner move cell by cell on the `f64` ratio, the
    /// straight-line move through a flip list, the log-weight with one
    /// `ln` per cell.
    impl Worldline {
        /// The shaded cell (left site index) containing site `i` during
        /// interval `t`.
        fn cell_of_site(&self, i: usize, t: usize) -> usize {
            if (i + t).is_multiple_of(2) {
                i
            } else {
                (i + self.params.l - 1) % self.params.l
            }
        }

        /// Weight ratio (new/old) for flipping the given `(site, row)`
        /// spins, computed generically over the affected shaded cells.
        fn ratio_for_flips(&mut self, flips: &[(usize, usize)]) -> f64 {
            let mut cells = Vec::new();
            for &(i, t) in flips {
                let t_down = self.row_down(t);
                cells.push((self.cell_of_site(i, t), t));
                cells.push((self.cell_of_site(i, t_down), t_down));
            }
            cells.sort_unstable();
            cells.dedup();

            let mut old = 1.0;
            for &(c, t) in &cells {
                old *= self.weights.weight(self.cell_class(c, t));
            }
            assert!(old > 0.0, "current configuration must be valid");

            for &(i, t) in flips {
                self.flip(i, t);
            }
            let mut new = 1.0;
            for &(c, t) in &cells {
                new *= self.weights.weight(self.cell_class(c, t));
            }
            for &(i, t) in flips {
                self.flip(i, t);
            }
            new / old
        }

        /// Table key for the corner move on unshaded cell `(i, t)`.
        fn local_key(&self, i: usize, t: usize) -> usize {
            let l = self.params.l;
            let j = (i + 1) % l;
            let tu = self.row_up(t);
            let td = self.row_down(t);
            let tuu = self.row_up(tu);
            let im = (i + l - 1) % l;
            let jp = (j + 1) % l;
            local_move_key(
                self.spin(i, t),
                self.spin(i, td),
                self.spin(j, td),
                self.spin(i, tuu),
                self.spin(j, tuu),
                self.spin(im, t),
                self.spin(im, tu),
                self.spin(jp, t),
                self.spin(jp, tu),
            )
        }

        /// Attempt the corner move on the unshaded cell `(i, t)`.
        fn try_local<R: Rng64>(&mut self, i: usize, t: usize, rng: &mut R) {
            let l = self.params.l;
            let j = (i + 1) % l;
            let tu = self.row_up(t);
            let (a0, a1) = (self.spin(i, t), self.spin(i, tu));
            let (b0, b1) = (self.spin(j, t), self.spin(j, tu));
            if a0 != a1 || b0 != b1 || a0 == b0 {
                return;
            }
            self.local_proposed += 1;
            let ratio = local_ratio(&self.weights, self.local_key(i, t));
            if rng.metropolis(ratio) {
                for (s, r) in [(i, t), (i, tu), (j, t), (j, tu)] {
                    self.flip(s, r);
                }
                self.local_accepted += 1;
            }
        }

        /// The corner moves of interval `t`, cell by cell.
        fn corner_row_cell_by_cell<R: Rng64>(&mut self, t: usize, rng: &mut R) {
            for i in ((t + 1) % 2..self.params.l).step_by(2) {
                self.try_local(i, t, rng);
            }
        }

        /// Attempt the straight-line move through its flip list.
        fn try_straight_line_sorted<R: Rng64>(&mut self, i: usize, rng: &mut R) {
            self.straight_proposed += 1;
            let flips: Vec<_> = (0..self.rows).map(|t| (i, t)).collect();
            let ratio = self.ratio_for_flips(&flips);
            if ratio > 0.0 && rng.metropolis(ratio) {
                for &(s, r) in &flips {
                    self.flip(s, r);
                }
                self.straight_accepted += 1;
            }
        }

        /// Log-weight with one classify, one match and one `ln` per cell.
        fn log_weight_cell_by_cell(&self, weights: &PlaqWeights) -> f64 {
            let mut s = 0.0;
            for t in 0..self.rows {
                for i in (t % 2..self.params.l).step_by(2) {
                    let w = weights.weight(self.cell_class(i, t));
                    if w <= 0.0 {
                        return f64::NEG_INFINITY;
                    }
                    s += w.ln();
                }
            }
            s
        }

        /// The energy fields of `estimators::measure` through
        /// [`Worldline::for_each_cell`] and two class matches per cell.
        fn energies_cell_by_cell(&self) -> [u64; 2] {
            let (m, l) = (self.params.m as f64, self.params.l as f64);
            let (mut eps, mut deps) = (0.0, 0.0);
            self.for_each_cell(|class| {
                eps += self.weights.energy(class);
                deps += self.weights.denergy(class);
            });
            [(eps / m / l).to_bits(), (deps / (m * m) / l).to_bits()]
        }

        fn counters(&self) -> [u64; 4] {
            [
                self.local_accepted,
                self.local_proposed,
                self.straight_accepted,
                self.straight_proposed,
            ]
        }
    }

    /// The replica step's moves as they were before the rows were packed
    /// into words, kept as the oracle the packed walks are compared
    /// against: one `bool` per spin, row-major; the corner moves cell by
    /// cell over neighbour indices, and the straight-line products over
    /// every cell of the column by a 16-entry table.
    #[derive(Clone)]
    struct BoolRows {
        l: usize,
        rows: usize,
        spins: Vec<bool>,
        cell_w: [f64; 16],
        local_thr: Box<[u64; 512]>,
        counters: [u64; 4],
    }

    impl BoolRows {
        fn of(w: &Worldline) -> Self {
            Self {
                l: w.params.l,
                rows: w.rows,
                spins: w.export_spins().iter().map(|&b| b != 0).collect(),
                cell_w: by_pattern(|class| w.weights.weight(class)),
                local_thr: w.local_thr.clone(),
                counters: w.counters(),
            }
        }

        fn row(&self, t: usize) -> &[bool] {
            &self.spins[t * self.l..(t + 1) * self.l]
        }

        fn corner_row<R: Rng64>(&mut self, t: usize, rng: &mut R) {
            let l = self.l;
            let tu = succ(t, self.rows);
            let row = |t: usize| t * l..(t + 1) * l;
            let rows = [
                row(pred(t, self.rows)),
                row(t),
                row(tu),
                row(succ(tu, self.rows)),
            ];
            let [down, lo, hi, up] = self
                .spins
                .get_disjoint_mut(rows)
                .expect("four distinct rows");
            let (mut proposed, mut accepted) = (0, 0);
            let mut i = (t + 1) % 2;
            while i < l {
                let j = succ(i, l);
                let (a0, b0) = (lo[i], lo[j]);
                if a0 == hi[i] && b0 == hi[j] && a0 != b0 {
                    proposed += 1;
                    let (im, jp) = (pred(i, l), succ(j, l));
                    let thr = self.local_thr[local_move_key(
                        a0, down[i], down[j], up[i], up[j], lo[im], hi[im], lo[jp], hi[jp],
                    )];
                    if accepts(thr, rng) {
                        (lo[i], hi[i]) = (b0, b0);
                        (lo[j], hi[j]) = (a0, a0);
                        accepted += 1;
                    }
                }
                i += 2;
            }
            self.counters[1] += proposed;
            self.counters[0] += accepted;
        }

        fn try_straight_line<R: Rng64>(&mut self, i: usize, rng: &mut R) {
            self.counters[3] += 1;
            let l = self.l;
            let own = (i, 0b0101);
            let left = (pred(i, l), 0b1010);
            let (mut old, mut new) = (1.0, 1.0);
            for (c, column) in if i == 0 { [own, left] } else { [left, own] } {
                let j = succ(c, l);
                for t in (c % 2..self.rows).step_by(2) {
                    let (bottom, top) = (self.row(t), self.row(succ(t, self.rows)));
                    let p = pattern((bottom[c], bottom[j]), (top[c], top[j]));
                    old *= self.cell_w[p];
                    new *= self.cell_w[p ^ column];
                }
            }
            let ratio = new / old;
            if ratio > 0.0 && rng.metropolis(ratio) {
                for t in 0..self.rows {
                    self.spins[t * l + i] ^= true;
                }
                self.counters[2] += 1;
            }
        }
    }

    /// `(l, m, jx, jz, β)`: the shapes `tests/trajectory_pins.rs` pins
    /// (rows of one, two and three words among them), a second `l = 4`
    /// chain (every neighbour index wraps) and `Jx = 0` (`w_flip = 0`:
    /// ratios of exactly 0, which still consume a draw).
    const SHAPES: [(usize, usize, f64, f64, f64); 11] = [
        (32, 32, 1.0, 1.0, 2.0),
        (32, 32, 1.0, 1.0, 2.4),
        (4, 2, 1.0, 0.7, 1.3),
        (6, 3, 1.0, 1.0, 1.5),
        (8, 4, 0.6, 1.0, 1.0),
        (16, 8, 1.0, 0.3, 4.0),
        (64, 16, 1.0, 1.0, 1.0),
        (66, 8, 1.0, 1.0, 1.0),
        (130, 6, 1.0, 0.8, 1.5),
        (4, 3, 1.0, 1.0, 2.0),
        (8, 4, 0.0, 1.0, 1.0),
    ];

    /// The packed layout's invariant: each row's bits `l..2l` repeat bits
    /// `0..l`, and every bit past them, the trailing word included, is 0.
    fn assert_doubled(w: &Worldline, at: &str) {
        let (l, nw) = (w.params.l, w.row_words);
        for t in 0..w.rows {
            let row = &w.words[t * nw..(t + 1) * nw];
            let bit = |b: usize| (row[b / 64] >> (b % 64)) & 1;
            for b in 0..64 * nw {
                let want = if b < 2 * l { bit(b % l) } else { 0 };
                assert_eq!(bit(b), want, "l = {l}, row {t}, bit {b} after {at}");
            }
        }
        assert_eq!(w.words[w.rows * nw], 0, "trailing word after {at}");
    }

    fn shape((l, m, jx, jz, beta): (usize, usize, f64, f64, f64)) -> Worldline {
        Worldline::new(WorldlineParams { l, jx, jz, beta, m })
    }

    #[test]
    fn packed_walks_follow_the_bool_row_kernel_move_for_move() {
        // From copies of one generator: after every corner row and every
        // straight-line attempt the spins, the four counters and the
        // draws served agree, and both copies of every row still match.
        for (k, &case) in SHAPES.iter().enumerate() {
            let mut packed = shape(case);
            let mut bools = BoolRows::of(&packed);
            let mut rng = CountingRng::new(Xoshiro256StarStar::new(800 + k as u64));
            let mut rng_b = rng.clone();
            let l = case.0;
            let sweeps = if l > 64 { 60 } else { 150 };
            for sweep in 0..sweeps {
                let agree = |p: &Worldline, b: &BoolRows, draws: (u64, u64), at: &str| {
                    assert!(
                        p.export_spins()
                            .iter()
                            .map(|&s| s != 0)
                            .eq(b.spins.iter().copied()),
                        "{case:?}: spins after {at}"
                    );
                    assert_eq!(p.counters(), b.counters, "{case:?}: counters after {at}");
                    assert_eq!(draws.0, draws.1, "{case:?}: draws after {at}");
                    assert_doubled(p, at);
                };
                for t in 0..packed.rows {
                    packed.corner_row(t, &mut rng);
                    bools.corner_row(t, &mut rng_b);
                    let at = format!("sweep {sweep} row {t}");
                    agree(&packed, &bools, (rng.draws, rng_b.draws), &at);
                }
                packed.mark_kinks();
                for attempt in 0..l {
                    let i = rng.index(l);
                    assert_eq!(i, rng_b.index(l));
                    packed.try_straight_line(i, &mut rng);
                    bools.try_straight_line(i, &mut rng_b);
                    let at = format!("sweep {sweep} attempt {attempt}");
                    agree(&packed, &bools, (rng.draws, rng_b.draws), &at);
                }
            }
            let [local, _, straight, _] = bools.counters;
            assert!(straight > 0, "{case:?}: no straight-line move accepted");
            assert!(
                case.2 == 0.0 || local > 0,
                "{case:?}: no corner move accepted"
            );
        }
    }

    #[test]
    fn spins_cross_as_bytes_and_swap_as_buffers_in_both_copies() {
        for (k, &case) in SHAPES.iter().enumerate() {
            let (l, neel) = (case.0, shape(case));
            let mut a = shape(case);
            assert_doubled(&a, "construction");
            let mut rng = Xoshiro256StarStar::new(600 + k as u64);
            for _ in 0..20 {
                a.sweep(&mut rng);
            }
            let bytes = a.export_spins();
            assert_eq!(bytes.len(), a.rows * l);
            for (n, &b) in bytes.iter().enumerate() {
                assert_eq!(b, a.spin(n % l, n / l) as u8, "{case:?}: byte {n}");
            }
            // Any non-zero byte is an up spin.
            let up = 1 + (k * 37 % 255) as u8;
            let loud: Vec<u8> = bytes.iter().map(|&b| b * up).collect();
            let mut b = shape(case);
            b.import_spins(&loud);
            assert_eq!(b.words, a.words, "{case:?}: import");
            assert_doubled(&b, "import");
            let mut c = shape(case);
            c.spins_dirty = false;
            b.spins_dirty = false;
            c.swap_spins(&mut b);
            assert_eq!(
                (&c.words, &b.words),
                (&a.words, &neel.words),
                "{case:?}: swap"
            );
            assert!(
                b.spins_dirty && c.spins_dirty,
                "{case:?}: a swap dirties both"
            );
        }
    }

    #[test]
    fn table_walks_follow_the_oracle_move_for_move() {
        // Old and new paths from copies of one generator: after every row
        // pass and every straight-line attempt the spins, the counters and
        // the generator's state agree; a third engine checks that `sweep`
        // is those passes in that order.
        for (k, &case) in SHAPES.iter().enumerate() {
            let start = (shape(case), Xoshiro256StarStar::new(900 + k as u64));
            let (mut new, mut old, mut whole) = (start.clone(), start.clone(), start);
            let agree = |(a, rng_a): &(Worldline, _), (b, rng_b): &(Worldline, _), at: &str| {
                assert_eq!(a.words, b.words, "{case:?}: spins after {at}");
                assert_eq!(a.counters(), b.counters(), "{case:?}: counters after {at}");
                assert_eq!(rng_a, rng_b, "{case:?}: draws after {at}");
            };
            let l = case.0;
            for sweep in 0..200 {
                for t in 0..new.0.rows {
                    new.0.corner_row(t, &mut new.1);
                    old.0.corner_row_cell_by_cell(t, &mut old.1);
                    agree(&new, &old, &format!("sweep {sweep} row {t}"));
                }
                new.0.mark_kinks();
                for attempt in 0..l {
                    let i = new.1.index(l);
                    assert_eq!(i, old.1.index(l));
                    new.0.try_straight_line(i, &mut new.1);
                    old.0.try_straight_line_sorted(i, &mut old.1);
                    agree(&new, &old, &format!("sweep {sweep} attempt {attempt}"));
                }
                whole.0.sweep(&mut whole.1);
                agree(&whole, &old, &format!("sweep {sweep}"));
            }
            let [local, _, straight, _] = old.0.counters();
            assert!(straight > 0, "{case:?}: no straight-line move accepted");
            assert!(
                case.2 == 0.0 || local > 0,
                "{case:?}: no corner move accepted"
            );
        }
    }

    /// Serves one scripted raw output, counting how often it is asked.
    struct Scripted {
        raw: u64,
        draws: u32,
    }

    impl Rng64 for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.raw
        }
    }

    #[test]
    fn every_corner_threshold_decides_as_metropolis_does() {
        let top = (1u64 << 53) - 1;
        let mut met = (false, false); // a ratio of exactly 0, one consuming no draw
        for (jx, jz, dtau) in [
            (1.0, 1.0, 0.0625),
            (1.0, 0.7, 0.65),
            (0.6, 1.0, 0.25),
            (1.0, -0.5, 0.5),
            (0.0, 1.0, 0.25),
        ] {
            let w = PlaqWeights::new(jx, jz, dtau);
            let thresholds = local_thresholds(&w);
            for (key, &thr) in thresholds.iter().enumerate() {
                let ratio = local_ratio(&w, key);
                met.0 |= ratio == 0.0;
                met.1 |= thr == NO_DRAW;
                let around = [thr.wrapping_sub(1), thr, thr.wrapping_add(1), 0, top];
                let raws = around
                    .into_iter()
                    .filter(|&n| n <= top)
                    .flat_map(|n| [n << 11, n << 11 | 0x7ff])
                    .chain([0, u64::MAX]);
                for raw in raws {
                    let (mut by_thr, mut by_f64) =
                        (Scripted { raw, draws: 0 }, Scripted { raw, draws: 0 });
                    assert_eq!(
                        accepts(thr, &mut by_thr),
                        by_f64.metropolis(ratio),
                        "({jx}, {jz}, {dtau}) key {key:#05x}: ratio {ratio:e} (threshold {thr}) at raw {raw:#x}"
                    );
                    assert_eq!(
                        by_thr.draws, by_f64.draws,
                        "key {key:#05x}: draws for ratio {ratio:e}"
                    );
                }
            }
        }
        assert_eq!(met, (true, true));
    }

    #[test]
    fn table_log_weight_and_measure_equal_the_cell_by_cell_sums_bit_for_bit() {
        let energies = |w: &Worldline| {
            let m = crate::estimators::measure(w);
            [m.energy_per_site.to_bits(), m.denergy_per_site.to_bits()]
        };
        for (k, &case) in SHAPES.iter().enumerate() {
            let mut w = shape(case);
            let (l, m, jx, jz, beta) = case;
            let other = PlaqWeights::new(jx, jz, 1.2 * beta / m as f64);
            let mut rng = Xoshiro256StarStar::new(950 + k as u64);
            for sweep in 0..60 {
                w.sweep(&mut rng);
                let (own, cross) = w.log_weight_pair(&other);
                for (weights, paired) in [(w.weights, own), (other, cross)] {
                    let (table, cells) = (
                        w.log_weight_with(&weights),
                        w.log_weight_cell_by_cell(&weights),
                    );
                    assert_eq!(paired.to_bits(), table.to_bits(), "{case:?} sweep {sweep}");
                    assert!(table.is_finite());
                    assert_eq!(
                        table.to_bits(),
                        cells.to_bits(),
                        "{case:?} sweep {sweep}: {table} vs {cells}"
                    );
                }
                assert_eq!(
                    energies(&w),
                    w.energies_cell_by_cell(),
                    "{case:?} sweep {sweep}"
                );
            }
            // A forbidden configuration — one spin flipped, anywhere — is
            // −∞ by both routes wherever the broken cells sit in the sum,
            // and the same NaN energy.
            for (i, t) in [(0, 0), (l - 1, 0), (l / 2, w.rows - 1), (l - 1, w.rows - 1)] {
                w.flip(i, t);
                assert_eq!(w.log_weight(), f64::NEG_INFINITY);
                assert_eq!(w.log_weight_cell_by_cell(&other), f64::NEG_INFINITY);
                assert_eq!(w.log_weight_with(&other), f64::NEG_INFINITY);
                assert_eq!(energies(&w), w.energies_cell_by_cell());
                w.flip(i, t);
            }
        }
    }

    fn params(l: usize, m: usize, beta: f64) -> WorldlineParams {
        WorldlineParams {
            l,
            jx: 1.0,
            jz: 1.0,
            beta,
            m,
        }
    }

    #[test]
    fn neel_start_is_valid() {
        let w = Worldline::new(params(8, 4, 1.0));
        assert!(w.log_weight().is_finite());
        assert_eq!(w.row_magnetization(0), 0.0);
        assert_eq!(w.seam_crossing_number(), 0);
    }

    #[test]
    fn sweeps_preserve_validity_and_row_conservation() {
        let mut w = Worldline::new(params(8, 4, 1.0));
        let mut rng = Xoshiro256StarStar::new(1);
        for sweep in 0..200 {
            w.sweep(&mut rng);
            assert!(w.log_weight().is_finite(), "invalid after sweep {sweep}");
            let m0 = w.row_magnetization(0);
            for t in 1..w.rows() {
                assert_eq!(
                    w.row_magnetization(t),
                    m0,
                    "Sz not conserved across rows after sweep {sweep}"
                );
            }
        }
    }

    #[test]
    fn seam_crossing_number_invariant_under_sweeps() {
        let mut w = Worldline::new(params(6, 3, 1.5));
        let mut rng = Xoshiro256StarStar::new(2);
        for _ in 0..300 {
            w.sweep(&mut rng);
            assert_eq!(w.seam_crossing_number(), 0);
        }
    }

    #[test]
    fn moves_actually_accept() {
        let mut w = Worldline::new(params(8, 4, 1.0));
        let mut rng = Xoshiro256StarStar::new(3);
        for _ in 0..100 {
            w.sweep(&mut rng);
        }
        assert!(w.local_accepted > 0, "local moves never accepted");
        assert!(w.straight_accepted > 0, "straight moves never accepted");
    }

    #[test]
    fn magnetization_sectors_are_explored() {
        let mut w = Worldline::new(params(6, 2, 0.5));
        let mut rng = Xoshiro256StarStar::new(4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            w.sweep(&mut rng);
            seen.insert((2.0 * w.row_magnetization(0)) as i64);
        }
        assert!(
            seen.len() >= 3,
            "straight-line moves should reach several M sectors: {seen:?}"
        );
    }

    #[test]
    fn detailed_balance_ratio_consistency() {
        // ratio(flips) * ratio(flips applied, then same flips) == 1.
        let mut w = Worldline::new(params(8, 4, 1.0));
        let mut rng = Xoshiro256StarStar::new(5);
        for _ in 0..20 {
            w.sweep(&mut rng);
        }
        // find a flippable unshaded cell
        'outer: for t in 0..w.rows() {
            let start = (t + 1) % 2;
            for i in (start..8).step_by(2) {
                let j = (i + 1) % 8;
                let tu = w.row_up(t);
                if w.spin(i, t) == w.spin(i, tu)
                    && w.spin(j, t) == w.spin(j, tu)
                    && w.spin(i, t) != w.spin(j, t)
                {
                    let flips = [(i, t), (i, tu), (j, t), (j, tu)];
                    let fwd = w.ratio_for_flips(&flips);
                    for (s, r) in flips {
                        w.flip(s, r);
                    }
                    let bwd = w.ratio_for_flips(&flips);
                    assert!((fwd * bwd - 1.0).abs() < 1e-12, "fwd {fwd} · bwd {bwd} ≠ 1");
                    break 'outer;
                }
            }
        }
    }

    #[test]
    fn ratio_matches_full_weight_recomputation() {
        // The incremental ratio must equal exp(ΔlogW) from full recompute.
        let mut w = Worldline::new(params(6, 3, 1.2));
        let mut rng = Xoshiro256StarStar::new(6);
        for _ in 0..10 {
            w.sweep(&mut rng);
        }
        let t = 1usize;
        let i = (t + 1) % 2; // unshaded cell at (i, t)
        let j = i + 1;
        let tu = w.row_up(t);
        if w.spin(i, t) == w.spin(i, tu)
            && w.spin(j, t) == w.spin(j, tu)
            && w.spin(i, t) != w.spin(j, t)
        {
            let before = w.log_weight();
            let flips = [(i, t), (i, tu), (j, t), (j, tu)];
            let ratio = w.ratio_for_flips(&flips);
            for (s, r) in flips {
                w.flip(s, r);
            }
            let after = w.log_weight();
            assert!(
                (ratio.ln() - (after - before)).abs() < 1e-10,
                "incremental {} vs full {}",
                ratio.ln(),
                after - before
            );
        }
    }

    #[test]
    #[should_panic(expected = "even ≥ 4")]
    fn rejects_small_chain() {
        Worldline::new(params(2, 2, 1.0));
    }

    #[test]
    #[should_panic(expected = "two Trotter steps")]
    fn rejects_single_trotter_step() {
        Worldline::new(params(8, 1, 1.0));
    }

    #[test]
    fn fast_local_ratio_equals_generic_ratio() {
        // Property check over many equilibrated configurations: the
        // specialized kernel and the generic recompute-everything path
        // must agree on every flippable unshaded cell.
        for seed in 0..5u64 {
            for (l, m) in [(4usize, 2usize), (6, 3), (8, 4), (8, 2)] {
                let mut w = Worldline::new(WorldlineParams {
                    l,
                    jx: 1.0,
                    jz: 0.7,
                    beta: 1.3,
                    m,
                });
                let mut rng = Xoshiro256StarStar::new(1000 + seed);
                for _ in 0..50 {
                    w.sweep(&mut rng);
                }
                for t in 0..w.rows() {
                    let start = (t + 1) % 2;
                    for i in (start..l).step_by(2) {
                        let j = (i + 1) % l;
                        let tu = w.row_up(t);
                        if w.spin(i, t) == w.spin(i, tu)
                            && w.spin(j, t) == w.spin(j, tu)
                            && w.spin(i, t) != w.spin(j, t)
                        {
                            let fast = w.ratio_local_fast(i, t);
                            let table = local_ratio(&w.weights, w.local_key(i, t));
                            assert_eq!(
                                table.to_bits(),
                                fast.to_bits(),
                                "l={l} m={m} cell ({i},{t}): table {table} vs fast {fast}"
                            );
                            let generic = w.ratio_for_flips(&[(i, t), (i, tu), (j, t), (j, tu)]);
                            assert!(
                                (fast - generic).abs() < 1e-12 * generic.max(1.0),
                                "l={l} m={m} cell ({i},{t}): fast {fast} vs generic {generic}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn local_acceptance_grows_with_dtau() {
        // Corner moves on kink-free segments create two kinks, with
        // acceptance ~ sinh²(ΔτJx/2): the rate must rise with Δτ.
        let rate = |m: usize, beta: f64, seed: u64| {
            let mut w = Worldline::new(params(8, m, beta));
            let mut rng = Xoshiro256StarStar::new(seed);
            for _ in 0..400 {
                w.sweep(&mut rng);
            }
            w.local_accepted as f64 / w.local_proposed.max(1) as f64
        };
        let coarse = rate(2, 4.0, 7); // Δτ = 2
        let fine = rate(32, 4.0, 8); // Δτ = 0.125
                                     // (in equilibrium many proposals shuffle existing kinks with O(1)
                                     // acceptance, so the dependence is softer than the bare sinh²)
        assert!(coarse > 1.5 * fine, "coarse {coarse} vs fine {fine}");
        assert!(
            coarse > 0.05,
            "coarse-Δτ acceptance unexpectedly low: {coarse}"
        );
    }
}
