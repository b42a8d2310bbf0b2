//! Dense symmetric storage and eigensolvers (no external linear algebra).
//!
//! Two independent algorithms are provided:
//!
//! * [`tridiag_eigen`] — Householder reduction to tridiagonal form
//!   followed by the implicit-shift QL iteration. `O(n³)` with a small
//!   constant; the production path.
//! * [`jacobi_eigen`] — cyclic Jacobi rotations. Simpler, slower,
//!   unconditionally robust; used as an independent cross-check in tests
//!   (two different algorithms agreeing on random matrices is a strong
//!   correctness argument for both).

/// Dense symmetric matrix, row-major full storage.
#[derive(Debug, Clone, PartialEq)]
pub struct SymMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SymMatrix {
    /// Zero matrix of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        assert!(n > 0, "empty matrix");
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Set `(i, j)` *and* `(j, i)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
        self.data[j * self.n + i] = v;
    }

    /// Add `v` to `(i, j)` (and `(j, i)` when off-diagonal).
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] += v;
        if i != j {
            self.data[j * self.n + i] += v;
        }
    }

    /// Matrix–vector product `y = A x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for (row, out) in self.data.chunks_exact(self.n).zip(y.iter_mut()) {
            *out = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }
}

/// Eigenvalues (ascending) and, optionally, the matching orthonormal
/// eigenvectors (column `k` of `vectors` ↔ `values[k]`, stored as
/// `vectors[i][k]` = component `i`).
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Row-major matrix whose columns are eigenvectors (empty when not
    /// requested).
    pub vectors: Option<Vec<f64>>,
    /// Dimension (for indexing into `vectors`).
    pub n: usize,
}

impl EigenDecomposition {
    /// Component `i` of eigenvector `k`.
    pub fn vector_component(&self, k: usize, i: usize) -> f64 {
        self.vectors.as_ref().expect("vectors not computed")[i * self.n + k]
    }
}

fn sign_of(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

/// Householder + implicit-shift QL eigensolver.
///
/// Panics if the QL iteration fails to converge (does not happen for
/// finite symmetric input).
pub fn tridiag_eigen(a: &SymMatrix, want_vectors: bool) -> EigenDecomposition {
    let n = a.n;
    let mut z = a.data.clone(); // becomes Q, then eigenvectors
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];

    // --- Householder reduction (tred2) ---
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let scale: f64 = (0..=l).map(|k| z[i * n + k].abs()).sum();
            if scale == 0.0 {
                e[i] = z[i * n + l];
            } else {
                for k in 0..=l {
                    z[i * n + k] /= scale;
                    h += z[i * n + k] * z[i * n + k];
                }
                let f = z[i * n + l];
                let g = -sign_of(h.sqrt(), f);
                e[i] = scale * g;
                h -= f * g;
                z[i * n + l] = f - g;
                let mut f_acc = 0.0;
                for j in 0..=l {
                    z[j * n + i] = z[i * n + j] / h;
                    let mut g_acc = 0.0;
                    for k in 0..=j {
                        g_acc += z[j * n + k] * z[i * n + k];
                    }
                    for k in (j + 1)..=l {
                        g_acc += z[k * n + j] * z[i * n + k];
                    }
                    e[j] = g_acc / h;
                    f_acc += e[j] * z[i * n + j];
                }
                let hh = f_acc / (h + h);
                for j in 0..=l {
                    let f = z[i * n + j];
                    e[j] -= hh * f;
                    let g = e[j];
                    for k in 0..=j {
                        z[j * n + k] -= f * e[k] + g * z[i * n + k];
                    }
                }
            }
        } else {
            e[i] = z[i * n + l];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    // Accumulate the orthogonal transformation.
    for i in 0..n {
        if d[i] != 0.0 {
            for j in 0..i {
                let mut g = 0.0;
                for k in 0..i {
                    g += z[i * n + k] * z[k * n + j];
                }
                for k in 0..i {
                    z[k * n + j] -= g * z[k * n + i];
                }
            }
        }
        d[i] = z[i * n + i];
        z[i * n + i] = 1.0;
        for j in 0..i {
            z[j * n + i] = 0.0;
            z[i * n + j] = 0.0;
        }
    }

    // --- Implicit-shift QL (tqli) ---
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find the first small off-diagonal element.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(iter <= 64, "QL iteration failed to converge");
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + sign_of(r, g));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0;
            let mut i = m as isize - 1;
            let mut underflow = false;
            while i >= l as isize {
                let iu = i as usize;
                let mut f = s * e[iu];
                let b = c * e[iu];
                r = f.hypot(g);
                e[iu + 1] = r;
                if r == 0.0 {
                    d[iu + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[iu + 1] - p;
                r = (d[iu] - g) * s + 2.0 * c * b;
                p = s * r;
                d[iu + 1] = g + p;
                g = c * r - b;
                if want_vectors {
                    for k in 0..n {
                        f = z[k * n + iu + 1];
                        z[k * n + iu + 1] = s * z[k * n + iu] + c * f;
                        z[k * n + iu] = c * z[k * n + iu] - s * f;
                    }
                }
                i -= 1;
            }
            if underflow && i >= l as isize {
                continue;
            }
            if !underflow {
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        }
    }

    sort_eigen(n, &mut d, want_vectors.then_some(&mut z));
    EigenDecomposition {
        values: d,
        vectors: want_vectors.then_some(z),
        n,
    }
}

/// Cyclic Jacobi eigensolver (robust reference implementation).
pub fn jacobi_eigen(a: &SymMatrix, want_vectors: bool) -> EigenDecomposition {
    let n = a.n;
    let mut m = a.data.clone();
    let mut v = vec![0.0; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }

    let off_norm = |m: &[f64]| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in 0..i {
                s += m[i * n + j] * m[i * n + j];
            }
        }
        s.sqrt()
    };

    let mut sweeps = 0;
    while off_norm(&m) > 1e-12 * (n as f64) {
        sweeps += 1;
        assert!(sweeps <= 100, "Jacobi failed to converge");
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[p * n + q];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                let theta = (aqq - app) / (2.0 * apq);
                let t = sign_of(1.0, theta) / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply rotation G(p,q,θ)ᵀ A G(p,q,θ).
                for k in 0..n {
                    let akp = m[k * n + p];
                    let akq = m[k * n + q];
                    m[k * n + p] = c * akp - s * akq;
                    m[k * n + q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = m[p * n + k];
                    let aqk = m[q * n + k];
                    m[p * n + k] = c * apk - s * aqk;
                    m[q * n + k] = s * apk + c * aqk;
                }
                for k in 0..n {
                    let vkp = v[k * n + p];
                    let vkq = v[k * n + q];
                    v[k * n + p] = c * vkp - s * vkq;
                    v[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }

    let mut d: Vec<f64> = (0..n).map(|i| m[i * n + i]).collect();
    sort_eigen(n, &mut d, want_vectors.then_some(&mut v));
    EigenDecomposition {
        values: d,
        vectors: want_vectors.then_some(v),
        n,
    }
}

/// Sort eigenvalues ascending, permuting eigenvector columns alongside.
fn sort_eigen(n: usize, d: &mut [f64], z: Option<&mut Vec<f64>>) {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).expect("NaN eigenvalue"));
    let sorted: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    d.copy_from_slice(&sorted);
    if let Some(z) = z {
        let old = z.clone();
        for row in 0..n {
            for (new_col, &old_col) in order.iter().enumerate() {
                z[row * n + new_col] = old[row * n + old_col];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmc_rng::{Rng64, SplitMix64};

    fn random_sym(n: usize, seed: u64) -> SymMatrix {
        let mut rng = SplitMix64::new(seed);
        let mut m = SymMatrix::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                m.set(i, j, 2.0 * rng.next_f64() - 1.0);
            }
        }
        m
    }

    fn check_decomposition(a: &SymMatrix, eig: &EigenDecomposition, tol: f64) {
        let n = a.dim();
        let z = eig.vectors.as_ref().expect("vectors requested");
        // A v_k = λ_k v_k for every k
        for k in 0..n {
            let v: Vec<f64> = (0..n).map(|i| z[i * n + k]).collect();
            let mut av = vec![0.0; n];
            a.matvec(&v, &mut av);
            for i in 0..n {
                assert!(
                    (av[i] - eig.values[k] * v[i]).abs() < tol,
                    "residual at ({i},{k}): {} vs {}",
                    av[i],
                    eig.values[k] * v[i]
                );
            }
        }
        // Orthonormality
        for k1 in 0..n {
            for k2 in 0..=k1 {
                let dot: f64 = (0..n).map(|i| z[i * n + k1] * z[i * n + k2]).sum();
                let expect = if k1 == k2 { 1.0 } else { 0.0 };
                assert!(
                    (dot - expect).abs() < tol,
                    "orthonormality ({k1},{k2}): {dot}"
                );
            }
        }
    }

    #[test]
    fn two_by_two_known_answer() {
        // [[2, 1], [1, 2]] → eigenvalues 1, 3
        let mut m = SymMatrix::zeros(2);
        m.set(0, 0, 2.0);
        m.set(1, 1, 2.0);
        m.set(0, 1, 1.0);
        for eig in [tridiag_eigen(&m, true), jacobi_eigen(&m, true)] {
            assert!((eig.values[0] - 1.0).abs() < 1e-12);
            assert!((eig.values[1] - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let mut m = SymMatrix::zeros(4);
        for (i, v) in [3.0, -1.0, 2.0, 0.5].iter().enumerate() {
            m.set(i, i, *v);
        }
        let eig = tridiag_eigen(&m, false);
        assert_eq!(eig.values, vec![-1.0, 0.5, 2.0, 3.0]);
    }

    #[test]
    fn residuals_and_orthogonality_tridiag() {
        for n in [2, 3, 5, 8, 17, 32] {
            let a = random_sym(n, 1000 + n as u64);
            let eig = tridiag_eigen(&a, true);
            check_decomposition(&a, &eig, 1e-9);
        }
    }

    #[test]
    fn residuals_and_orthogonality_jacobi() {
        for n in [2, 3, 5, 8, 17] {
            let a = random_sym(n, 2000 + n as u64);
            let eig = jacobi_eigen(&a, true);
            check_decomposition(&a, &eig, 1e-9);
        }
    }

    #[test]
    fn two_algorithms_agree_on_random_matrices() {
        for n in [3, 7, 16, 25] {
            let a = random_sym(n, 3000 + n as u64);
            let e1 = tridiag_eigen(&a, false);
            let e2 = jacobi_eigen(&a, false);
            for (v1, v2) in e1.values.iter().zip(&e2.values) {
                assert!((v1 - v2).abs() < 1e-9, "n={n}: {v1} vs {v2}");
            }
        }
    }

    #[test]
    fn trace_preserved() {
        let a = random_sym(12, 4);
        let trace: f64 = (0..12).map(|i| a.get(i, i)).sum();
        let eig = tridiag_eigen(&a, false);
        let sum: f64 = eig.values.iter().sum();
        assert!((trace - sum).abs() < 1e-10);
    }

    #[test]
    fn matvec_identity() {
        let mut m = SymMatrix::zeros(3);
        for i in 0..3 {
            m.set(i, i, 1.0);
        }
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        m.matvec(&x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn degenerate_eigenvalues_handled() {
        // 3×3 identity ⊕ a 2-degenerate block.
        let mut m = SymMatrix::zeros(3);
        m.set(0, 0, 1.0);
        m.set(1, 1, 1.0);
        m.set(2, 2, 5.0);
        let eig = tridiag_eigen(&m, true);
        assert!((eig.values[0] - 1.0).abs() < 1e-12);
        assert!((eig.values[1] - 1.0).abs() < 1e-12);
        assert!((eig.values[2] - 5.0).abs() < 1e-12);
        check_decomposition(&m, &eig, 1e-10);
    }

    #[test]
    fn one_by_one_matrix() {
        let mut m = SymMatrix::zeros(1);
        m.set(0, 0, -3.5);
        let eig = tridiag_eigen(&m, true);
        assert_eq!(eig.values, vec![-3.5]);
    }

    #[test]
    fn vector_component_accessor() {
        let mut m = SymMatrix::zeros(2);
        m.set(0, 0, 1.0);
        m.set(1, 1, 2.0);
        let eig = tridiag_eigen(&m, true);
        // eigenvector of λ=1 is ±e0
        assert!((eig.vector_component(0, 0).abs() - 1.0).abs() < 1e-12);
        assert!(eig.vector_component(0, 1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty matrix")]
    fn rejects_zero_dim() {
        SymMatrix::zeros(0);
    }
}
