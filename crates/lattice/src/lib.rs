//! Lattice geometry, bond coloring, and domain decomposition.
//!
//! Quantum spin models live on a lattice of sites connected by bonds; the
//! two facts a parallel QMC engine needs from the geometry layer are:
//!
//! 1. **Bond coloring** — the Suzuki-Trotter "checkerboard" breakup splits
//!    the Hamiltonian into groups of mutually non-overlapping bonds
//!    (`H = Σ_c H_c` with every bond in `H_c` disjoint), so that
//!    `exp(−Δτ H_c)` factorizes exactly into independent two-site
//!    propagators. A chain needs 2 colors (even/odd bonds); a square
//!    lattice needs 4.
//! 2. **Domain decomposition** — assigning contiguous blocks of sites to
//!    processors of a 2-D mesh with ghost (halo) cells, the layout the
//!    SC'93-class machines used.
//!
//! [`Chain`] and [`Square`] implement the [`Lattice`] trait;
//! [`decomp`] contains the processor-grid block decomposition.
//!
//! ```
//! use qmc_lattice::{Decomposition, Lattice, ProcGrid, Square};
//!
//! let lat = Square::new(8, 8);
//! assert!(lat.coloring_is_valid()); // 4-color checkerboard
//!
//! // Split the lattice over a 2×2 processor grid with ghost frames.
//! let d = Decomposition::new(8, 8, ProcGrid::new(2, 2));
//! let block = d.subdomain(3);
//! assert_eq!((block.w, block.h), (4, 4));
//! assert_eq!(block.padded_len(), 36); // (4+2)²
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod square;

pub mod decomp;
pub mod packed;

pub use chain::Chain;
pub use decomp::{Decomposition, Dir, ProcGrid, Subdomain};
pub use packed::{parity_mask, transpose64, DoubledRing, LaneCounter, PackedLattice};
pub use square::Square;

/// An undirected bond between two sites, tagged with its checkerboard
/// color.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bond {
    /// First site index.
    pub a: u32,
    /// Second site index.
    pub b: u32,
    /// Checkerboard color: bonds of equal color never share a site.
    pub color: u8,
}

/// Common interface of the lattices the QMC engines run on.
pub trait Lattice {
    /// Number of sites.
    fn num_sites(&self) -> usize;

    /// All bonds, in color-major order (color 0 first).
    fn bonds(&self) -> &[Bond];

    /// Number of checkerboard colors.
    fn num_colors(&self) -> usize;

    /// The bonds of one color (a contiguous slice of [`Lattice::bonds`]).
    fn bonds_of_color(&self, color: u8) -> &[Bond];

    /// Bipartite sublattice (0 = A, 1 = B) of a site. All lattices here
    /// are bipartite with even linear extents; the staggered phase
    /// `(-1)^{sublattice}` enters AFM estimators and the sign-free
    /// sublattice rotation.
    fn sublattice(&self, site: usize) -> u8;

    /// Coordination number (bonds per site).
    fn coordination(&self) -> usize;

    /// Elementary 4-site ring plaquettes `(i, j, k, l)` in cyclic order
    /// (empty for lattices without them, e.g. chains). World-line
    /// algorithms in d ≥ 2 need ring moves around these to change the
    /// per-bond hop parity (ring-exchange world-line configurations).
    fn ring_plaquettes(&self) -> Vec<[u32; 4]> {
        Vec::new()
    }

    /// Verify the coloring invariant: no two bonds of the same color touch
    /// a common site. Used by tests and debug assertions.
    fn coloring_is_valid(&self) -> bool {
        for c in 0..self.num_colors() as u8 {
            let mut touched = vec![false; self.num_sites()];
            for bond in self.bonds_of_color(c) {
                for s in [bond.a as usize, bond.b as usize] {
                    if touched[s] {
                        return false;
                    }
                    touched[s] = true;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_and_square_colorings_valid() {
        assert!(Chain::new(8).coloring_is_valid());
        assert!(Chain::new(2).coloring_is_valid());
        assert!(Square::new(4, 6).coloring_is_valid());
        assert!(Square::new(2, 2).coloring_is_valid());
    }

    #[test]
    fn bonds_partition_into_colors() {
        let sq = Square::new(4, 4);
        let total: usize = (0..sq.num_colors() as u8)
            .map(|c| sq.bonds_of_color(c).len())
            .sum();
        assert_eq!(total, sq.bonds().len());
    }

    #[test]
    fn bipartite_structure_respected_by_bonds() {
        let sq = Square::new(6, 4);
        for bond in sq.bonds() {
            assert_ne!(
                sq.sublattice(bond.a as usize),
                sq.sublattice(bond.b as usize),
                "bond {bond:?} connects same sublattice"
            );
        }
        let ch = Chain::new(10);
        for bond in ch.bonds() {
            assert_ne!(
                ch.sublattice(bond.a as usize),
                ch.sublattice(bond.b as usize)
            );
        }
    }
}
