//! Bit-packed spin storage for multi-spin coding.
//!
//! Ising spins are two-valued, so a `u64` word holds 64 of them; bitwise
//! kernels then update all 64 with the same handful of instructions. Three
//! packings are useful (see DESIGN.md "Multi-spin coding"):
//!
//! * **Replica packing** (primary): bit `j` of word `i` is spin `i` of
//!   *replica* `j` — 64 independent simulations, or 64 members of a
//!   β-ladder, advance in lockstep. Every bit of a word sees the same
//!   lattice geometry, so there are no edge cases at word boundaries.
//! * **Spatial packing**: bit `j` of word `i` is site `64·i + j` of a
//!   single replica — neighbour words come from shifts with carries
//!   across word boundaries, and checkerboard sweeps mask alternating
//!   bits. Denser, but only when the fast-varying extent divides by 64.
//! * **Ring, doubled** ([`DoubledRing`]): a periodic ring of `n` sites
//!   stored twice back to back (`x‖x`), so the ring rotated by `r` is
//!   simply bits `r..r+n` of the doubled string — a funnel shift, no
//!   wrap-around case, any `n`. One shift + XOR + popcount per word then
//!   counts the anti-parallel pairs at distance `r`, which is all a
//!   translation-averaged `⟨Sᶻ₀Sᶻᵣ⟩` needs. A measurement scratch, not an
//!   engine state: it is reloaded from the scalar configuration.
//!
//! [`PackedLattice`] is the storage type shared by the first two: a flat
//! `Vec<u64>` of *cells* (lattice sites in replica mode, 64-site groups in
//! spatial mode) with up to 64 active *lanes* per cell. The convention
//! throughout the workspace is **bit 1 ⇔ spin +1**.

/// Bit-packed spin configuration: `cells` words of up to 64 lanes.
///
/// Inactive lanes (bits ≥ `lanes`) are kept at 0 so popcount-based
/// observable kernels never need to mask them out of per-word counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedLattice {
    words: Vec<u64>,
    cells: usize,
    lanes: usize,
}

impl PackedLattice {
    /// Fresh configuration with every active lane spin-up (bit set).
    ///
    /// `cells` is the number of packed words (sites × slices in replica
    /// mode); `lanes ∈ [1, 64]` the number of active bits per word.
    pub fn new(cells: usize, lanes: usize) -> Self {
        assert!(cells > 0, "packed lattice needs at least one cell");
        assert!((1..=64).contains(&lanes), "lanes must be in 1..=64");
        let mask = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
        Self {
            words: vec![mask; cells],
            cells,
            lanes,
        }
    }

    /// Number of packed words.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Number of active lanes per word.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Mask with the low `lanes` bits set — every valid word satisfies
    /// `w & !mask == 0`.
    pub fn lane_mask(&self) -> u64 {
        if self.lanes == 64 {
            !0
        } else {
            (1u64 << self.lanes) - 1
        }
    }

    /// Raw packed words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable raw packed words. Callers must keep inactive lanes zero
    /// (mask flip words with [`Self::lane_mask`]).
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Spin (±1) of `lane` at `cell`.
    #[inline]
    pub fn get(&self, cell: usize, lane: usize) -> i8 {
        debug_assert!(lane < self.lanes);
        if (self.words[cell] >> lane) & 1 == 1 {
            1
        } else {
            -1
        }
    }

    /// Set the spin (±1) of `lane` at `cell`.
    #[inline]
    pub fn set(&mut self, cell: usize, lane: usize, s: i8) {
        debug_assert!(lane < self.lanes);
        debug_assert!(s == 1 || s == -1);
        let bit = 1u64 << lane;
        if s == 1 {
            self.words[cell] |= bit;
        } else {
            self.words[cell] &= !bit;
        }
    }

    /// Pack a full scalar configuration (±1 per cell) into one lane.
    pub fn pack_lane(&mut self, lane: usize, spins: &[i8]) {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        assert_eq!(spins.len(), self.cells, "configuration length mismatch");
        let bit = 1u64 << lane;
        for (w, &s) in self.words.iter_mut().zip(spins) {
            debug_assert!(s == 1 || s == -1);
            if s == 1 {
                *w |= bit;
            } else {
                *w &= !bit;
            }
        }
    }

    /// Unpack one lane into a scalar configuration (±1 per cell).
    pub fn unpack_lane(&self, lane: usize, out: &mut [i8]) {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        assert_eq!(out.len(), self.cells, "configuration length mismatch");
        for (s, &w) in out.iter_mut().zip(&self.words) {
            *s = if (w >> lane) & 1 == 1 { 1 } else { -1 };
        }
    }
}

/// Checkerboard mask for spatially packed words: the bits whose index has
/// the given parity (`0` → bits 0, 2, 4, …; `1` → bits 1, 3, 5, …).
///
/// When the packed (fast-varying) extent is a multiple of 64, bit parity
/// equals site-coordinate parity in every word, so one constant mask per
/// row selects the active checkerboard half.
#[inline]
pub const fn parity_mask(parity: usize) -> u64 {
    match parity & 1 {
        0 => 0x5555_5555_5555_5555,
        _ => 0xAAAA_AAAA_AAAA_AAAA,
    }
}

/// In-place 64×64 bit-matrix transpose (Hacker's Delight 7-3): bit `i` of
/// output word `k` equals bit `k` of input word `i`.
///
/// This is the bridge between the two packing views: a block of 64
/// replica-packed words (word = cell, bit = lane) transposes into 64
/// lane-major words (word = lane, bit = cell), after which per-lane
/// observables are single `count_ones` calls.
pub fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Streaming per-lane popcount: push replica-packed words one at a time;
/// every full block of 64 is transposed once and folded into 64 per-lane
/// counts (one `count_ones` per lane instead of 64 single-bit extractions
/// per word). Fixed-size stack scratch — no allocation.
#[derive(Debug)]
pub struct LaneCounter {
    block: [u64; 64],
    fill: usize,
    counts: [u64; 64],
}

impl Default for LaneCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl LaneCounter {
    /// Empty counter.
    pub fn new() -> Self {
        Self {
            block: [0; 64],
            fill: 0,
            counts: [0; 64],
        }
    }

    /// Add one packed word to the tally.
    #[inline]
    pub fn push(&mut self, w: u64) {
        self.block[self.fill] = w;
        self.fill += 1;
        if self.fill == 64 {
            self.flush();
        }
    }

    fn flush(&mut self) {
        transpose64(&mut self.block);
        for (c, b) in self.counts.iter_mut().zip(self.block.iter()) {
            *c += b.count_ones() as u64;
        }
        self.block = [0; 64];
        self.fill = 0;
    }

    /// Per-lane set-bit counts over every pushed word.
    pub fn finish(mut self) -> [u64; 64] {
        if self.fill > 0 {
            // The tail of the block is still zero (flush re-zeroes it),
            // so a partial flush counts exactly the pushed words.
            self.flush();
        }
        self.counts
    }
}

/// A periodic ring of `n` two-valued sites packed twice over (`x‖x`) for
/// all-distance pair counting (see the module docs, "ring, doubled").
///
/// Bits `0..n` and `n..2n` both hold the ring and every other bit is
/// zero; the storage is `2·⌈n/64⌉ + 1` words so that [`Self::mismatches`]
/// may read one word past the shifted window for every `r ∈ 0..=n`
/// without a bounds case. Sized once by [`Self::new`]; [`Self::load`] and
/// [`Self::mismatches`] never allocate.
#[derive(Debug, Clone)]
pub struct DoubledRing {
    /// Length of the ring currently loaded.
    n: usize,
    words: Vec<u64>,
}

impl DoubledRing {
    /// All-zero scratch that can hold any ring of up to `capacity` sites.
    pub fn new(capacity: usize) -> Self {
        Self {
            n: capacity,
            words: vec![0; 2 * capacity.div_ceil(64) + 1],
        }
    }

    /// Replace the contents with `sites` (bit 1 ⇔ `true`); the ring
    /// length becomes `sites.len()`, which must fit the capacity.
    pub fn load(&mut self, sites: &[bool]) {
        let n = sites.len();
        let used = 2 * n.div_ceil(64) + 1;
        assert!(
            used <= self.words.len(),
            "ring of {n} sites does not fit this scratch"
        );
        self.n = n;
        self.words[..used].fill(0);
        // Second copy starts at bit n = 64·q + s.
        let (q, s) = (n / 64, n % 64);
        for (k, chunk) in sites.chunks(64).enumerate() {
            let mut x = 0u64;
            for (b, &up) in chunk.iter().enumerate() {
                x |= (up as u64) << b;
            }
            self.words[k] |= x;
            self.words[q + k] |= x << s;
            // `(x >> 1) >> (63 − s)` is `x >> (64 − s)` without the
            // undefined 64-bit shift at s = 0 (where it must give 0).
            self.words[q + k + 1] |= (x >> 1) >> (63 - s);
        }
    }

    /// Number of sites `i` whose value differs from site `(i + r) mod n`,
    /// for any `r ∈ 0..=n`: [`doubled_mismatches`] over this scratch.
    pub fn mismatches(&self, r: usize) -> u32 {
        doubled_mismatches(&self.words, self.n, r)
    }
}

/// Number of sites `i` of a ring of `n` sites, stored doubled (`x‖x` in
/// bits `0..2n` of `words`, the [`DoubledRing`] layout), whose value
/// differs from site `(i + r) mod n`, for any `r ∈ 0..=n`:
/// `Σ_w popcount((x ≫ r) ^ x)` over the ring's `⌈n/64⌉` words, the last one
/// masked to the ring length.
///
/// The reads reach word `r/64 + ⌈n/64⌉`, so `words` must extend that far;
/// no bit at or past `2n` is counted, whatever it holds, so an engine
/// that keeps its rows doubled back to back counts them in place.
pub fn doubled_mismatches(words: &[u64], n: usize, r: usize) -> u32 {
    assert!(r <= n, "distance {r} exceeds the ring length {n}");
    let (q, s) = (r / 64, r % 64);
    let nw = n.div_ceil(64);
    let tail_mask = !0u64 >> ((64 - n % 64) % 64);
    let mut count = 0;
    for w in 0..nw {
        // Funnel shift: bits r + 64·w .. r + 64·w + 64 of x‖x.
        let shifted = (words[q + w] >> s) | ((words[q + w + 1] << 1) << (63 - s));
        let mask = if w + 1 == nw { tail_mask } else { !0 };
        count += ((shifted ^ words[w]) & mask).count_ones();
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_lattice_is_all_up_with_clean_inactive_lanes() {
        let lat = PackedLattice::new(10, 5);
        assert_eq!(lat.lane_mask(), 0b11111);
        for c in 0..10 {
            for l in 0..5 {
                assert_eq!(lat.get(c, l), 1);
            }
            assert_eq!(lat.words()[c] & !lat.lane_mask(), 0);
        }
        assert_eq!(PackedLattice::new(3, 64).lane_mask(), u64::MAX);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut lat = PackedLattice::new(7, 64);
        lat.set(3, 17, -1);
        lat.set(6, 63, -1);
        lat.set(6, 63, 1);
        assert_eq!(lat.get(3, 17), -1);
        assert_eq!(lat.get(3, 16), 1);
        assert_eq!(lat.get(6, 63), 1);
    }

    #[test]
    fn pack_unpack_lane_roundtrip() {
        // Pseudo-random ±1 pattern without an RNG dependency.
        let spins: Vec<i8> = (0..97u64)
            .map(|i| {
                if (i.wrapping_mul(0x9E37_79B9)) & 4 == 0 {
                    1
                } else {
                    -1
                }
            })
            .collect();
        let mut lat = PackedLattice::new(97, 3);
        lat.pack_lane(1, &spins);
        let mut out = vec![0i8; 97];
        lat.unpack_lane(1, &mut out);
        assert_eq!(out, spins);
        // Other lanes untouched (still all-up).
        lat.unpack_lane(0, &mut out);
        assert!(out.iter().all(|&s| s == 1));
    }

    #[test]
    fn parity_masks_partition_the_word() {
        assert_eq!(parity_mask(0) | parity_mask(1), u64::MAX);
        assert_eq!(parity_mask(0) & parity_mask(1), 0);
        assert_eq!(parity_mask(0) & 1, 1);
        assert_eq!(parity_mask(2), parity_mask(0));
    }

    #[test]
    fn transpose64_matches_naive_bit_swap() {
        // Deterministic pseudo-random matrix via SplitMix-style mixing.
        let mut a = [0u64; 64];
        let mut x = 0x853c_49e6_748f_ea9bu64;
        for w in a.iter_mut() {
            x = x
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(0x9E37_79B9_7F4A_7C15);
            *w = x ^ (x >> 29);
        }
        let orig = a;
        transpose64(&mut a);
        for (i, ow) in orig.iter().enumerate() {
            for (k, aw) in a.iter().enumerate() {
                assert_eq!((aw >> i) & 1, (ow >> k) & 1, "({i},{k})");
            }
        }
        // Involution: transposing twice restores the original.
        transpose64(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn lane_counter_counts_per_lane_including_partial_blocks() {
        // 150 words (two full blocks + a 22-word tail): lane j gets a bit
        // in word i iff (i + j) divisible by (j + 2).
        let mut lc = LaneCounter::new();
        let mut expect = [0u64; 64];
        for i in 0..150usize {
            let mut w = 0u64;
            for (j, e) in expect.iter_mut().enumerate() {
                if (i + j) % (j + 2) == 0 {
                    w |= 1 << j;
                    *e += 1;
                }
            }
            lc.push(w);
        }
        assert_eq!(lc.finish(), expect);
    }

    /// Ring lengths on both sides of every word boundary up to 200.
    const RING_SIZES: [usize; 12] = [2, 4, 8, 20, 62, 64, 66, 100, 126, 128, 130, 200];

    fn naive_mismatches(sites: &[bool], r: usize) -> u32 {
        let n = sites.len();
        (0..n).filter(|&i| sites[i] != sites[(i + r) % n]).count() as u32
    }

    fn assert_ring_matches_naive(ring: &mut DoubledRing, sites: &[bool], what: &str) {
        ring.load(sites);
        for r in 0..=sites.len() {
            assert_eq!(
                ring.mismatches(r),
                naive_mismatches(sites, r),
                "{what}: n = {}, r = {r}",
                sites.len()
            );
        }
    }

    #[test]
    fn doubled_ring_mismatches_match_naive_bit_loop() {
        let mut x = 0x1234_5678_9abc_def0u64;
        for n in RING_SIZES {
            let mut ring = DoubledRing::new(n);
            assert_ring_matches_naive(&mut ring, &vec![true; n], "all up");
            assert_ring_matches_naive(&mut ring, &vec![false; n], "all down");
            let neel: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
            assert_ring_matches_naive(&mut ring, &neel, "Neel");
            // One flipped site on each side of every word boundary.
            for site in [0, 1, 62, 63, 64, 65, 126, 127, 128, 129, n - 2, n - 1] {
                if site < n {
                    let mut one = vec![false; n];
                    one[site] = true;
                    assert_ring_matches_naive(&mut ring, &one, "single flipped site");
                }
            }
            for _ in 0..8 {
                let random: Vec<bool> = (0..n)
                    .map(|_| {
                        x = x
                            .wrapping_mul(0x2545_F491_4F6C_DD1D)
                            .wrapping_add(0x9E37_79B9_7F4A_7C15);
                        (x >> 40) & 1 == 1
                    })
                    .collect();
                assert_ring_matches_naive(&mut ring, &random, "random");
            }
        }
    }

    #[test]
    fn doubled_ring_reload_leaves_no_stale_bits() {
        // A long all-up ring sets every bit a shorter one could see;
        // reloading must clear all of them, whatever the new length.
        let mut ring = DoubledRing::new(200);
        for n in RING_SIZES {
            ring.load(&[true; 200]);
            let sites: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            assert_ring_matches_naive(&mut ring, &sites, "reloaded shorter");
            ring.load(&[true; 200]);
            assert_ring_matches_naive(&mut ring, &vec![false; n], "reloaded all down");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn doubled_ring_rejects_a_ring_beyond_its_capacity() {
        DoubledRing::new(64).load(&[true; 65]);
    }
}
