//! Eigensolvers: Householder tridiagonalisation plus implicit QL for real
//! symmetric matrices, cyclic Jacobi rotations for complex Hermitian ones.
//!
//! # Determinism
//!
//! [`symmetric_eig`] runs one source (`tridiagonalize` + `ql_implicit`)
//! compiled twice: plain, and with AVX2 enabled on hosts whose
//! [`crate::kernel_tier`] allows it. Every sum keeps its order and every
//! product-plus-sum stays a separate multiply and add (Rust never fuses
//! them), so the wider vectors only cover the element-wise updates that
//! run across independent entries: the bits are the same on every tier.

use crate::c64::C64;
use crate::cmatrix::CMatrix;
use crate::error::{LinalgError, Result};
use crate::rmatrix::RMatrix;
use crate::rvector::RVector;
use crate::tiered::avx2_tiered;

/// Maximum number of Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 100;

/// Maximum implicit-QL iterations spent on one eigenvalue before giving up.
const MAX_QL_ITERS: usize = 64;

/// Eigendecomposition `A = V·diag(λ)·Vᵀ` of a real symmetric matrix.
///
/// Eigenvalues are sorted ascending; `vectors.col(i)` is the eigenvector of
/// `values[i]`.
#[derive(Debug, Clone)]
pub struct SymmetricEig {
    /// Eigenvalues, ascending.
    pub values: RVector,
    /// Orthogonal matrix whose columns are the eigenvectors.
    pub vectors: RMatrix,
}

/// Eigendecomposition `A = V·diag(λ)·Vᴴ` of a complex Hermitian matrix.
///
/// Eigenvalues are real and sorted ascending.
#[derive(Debug, Clone)]
pub struct HermitianEig {
    /// Eigenvalues, ascending (real for Hermitian matrices).
    pub values: RVector,
    /// Unitary matrix whose columns are the eigenvectors.
    pub vectors: CMatrix,
}

/// Computes the eigendecomposition of a real symmetric matrix: Householder
/// reduction to tridiagonal form, then the implicit QL algorithm with
/// Wilkinson-style shifts (the EISPACK `tred2`/`tql2` pair), `O(n³)` with a
/// small constant.
///
/// The input is symmetrized first, `(A + Aᵀ)/2`.
///
/// # Errors
///
/// [`LinalgError::NotSquare`] for non-square input and
/// [`LinalgError::NoConvergence`] if one eigenvalue takes more than the QL
/// iteration budget (does not occur for finite symmetric input).
///
/// # Examples
///
/// ```
/// use photon_linalg::{RMatrix, symmetric_eig};
///
/// let a = RMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
/// let eig = symmetric_eig(&a)?;
/// assert!((eig.values[0] - 1.0).abs() < 1e-10);
/// assert!((eig.values[1] - 3.0).abs() < 1e-10);
/// # Ok::<(), photon_linalg::LinalgError>(())
/// ```
pub fn symmetric_eig(a: &RMatrix) -> Result<SymmetricEig> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    let mut m = a.clone();
    m.symmetrize();
    // `w` holds the transformation matrix V transposed (row-major Vᵀ), so
    // the column walks of the textbook algorithm become contiguous row
    // walks. A symmetric start needs no transpose.
    let mut w = m.as_slice().to_vec();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    if n > 0 {
        tridiagonal_ql_tiered(n, &mut w, &mut d, &mut e)?;
    }
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| d[i].total_cmp(&d[j]));
    let values = RVector::from_fn(n, |i| d[idx[i]]);
    // Row i of Vᵀ is the eigenvector of d[i].
    let vectors = RMatrix::from_fn(n, n, |r, c| w[idx[c] * n + r]);
    Ok(SymmetricEig { values, vectors })
}

avx2_tiered! {
    fn tridiagonal_ql_tiered(n: usize, w: &mut [f64], d: &mut [f64], e: &mut [f64]) -> Result<()> =
        tridiagonal_ql;
}

/// [`tridiagonalize`] then [`ql_implicit`].
#[inline(always)]
fn tridiagonal_ql(n: usize, w: &mut [f64], d: &mut [f64], e: &mut [f64]) -> Result<()> {
    tridiagonalize(n, w, d, e);
    ql_implicit(n, w, d, e)
}

/// Householder reduction of the symmetric matrix held in `w` to tridiagonal
/// form (`tred2`): on return `d` is the diagonal, `e[1..]` the subdiagonal
/// (`e[0] = 0`) and `w` holds Vᵀ, the accumulated orthogonal
/// transformation, transposed. `V[r][c]` lives at `w[c·n + r]`.
#[inline(always)]
fn tridiagonalize(n: usize, w: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    for j in 0..n {
        d[j] = w[j * n + n - 1];
    }
    for i in (1..n).rev() {
        let mut scale = 0.0;
        let mut h = 0.0;
        for &x in &d[..i] {
            scale += x.abs();
        }
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = w[j * n + i - 1];
                w[j * n + i] = 0.0;
                w[i * n + j] = 0.0;
            }
        } else {
            // Generate the Householder vector.
            for x in &mut d[..i] {
                *x /= scale;
                h += *x * *x;
            }
            let mut f = d[i - 1];
            let mut g = h.sqrt();
            if f > 0.0 {
                g = -g;
            }
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // Apply the similarity transformation to the remaining columns.
            for j in 0..i {
                f = d[j];
                w[i * n + j] = f;
                let col = &w[j * n..j * n + i];
                g = e[j] + col[j] * f;
                for k in j + 1..i {
                    g += col[k] * d[k];
                    e[k] += col[k] * f;
                }
                e[j] = g;
            }
            f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                f = d[j];
                g = e[j];
                let col = &mut w[j * n..j * n + i];
                for k in j..i {
                    col[k] -= f * e[k] + g * d[k];
                }
                d[j] = col[i - 1];
                w[j * n + i] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate the transformations.
    for i in 0..n - 1 {
        w[i * n + n - 1] = w[i * n + i];
        w[i * n + i] = 1.0;
        let h = d[i + 1];
        if h != 0.0 {
            for k in 0..=i {
                d[k] = w[(i + 1) * n + k] / h;
            }
            for j in 0..=i {
                let (head, tail) = w.split_at_mut((i + 1) * n);
                let next = &tail[..=i];
                let col = &mut head[j * n..j * n + i + 1];
                let mut g = 0.0;
                for (a, b) in next.iter().zip(col.iter()) {
                    g += a * b;
                }
                for (x, dk) in col.iter_mut().zip(&d[..=i]) {
                    *x -= g * dk;
                }
            }
        }
        w[(i + 1) * n..(i + 1) * n + i + 1].fill(0.0);
    }
    for j in 0..n {
        d[j] = w[j * n + n - 1];
        w[j * n + n - 1] = 0.0;
    }
    w[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Implicit QL iteration on the tridiagonal matrix `(d, e)` from
/// [`tridiagonalize`] (`tql2`), rotating the rows of Vᵀ in `w` along.
/// Leaves the eigenvalues, unsorted, in `d`.
#[inline(always)]
fn ql_implicit(n: usize, w: &mut [f64], d: &mut [f64], e: &mut [f64]) -> Result<()> {
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    let mut f = 0.0;
    let mut tst1 = 0.0f64;
    let eps = f64::EPSILON;
    for l in 0..n {
        // Find a negligible subdiagonal element.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n - 1 && e[m].abs() > eps * tst1 {
            m += 1;
        }
        if m > l {
            let mut iter = 0;
            loop {
                iter += 1;
                if iter > MAX_QL_ITERS {
                    return Err(LinalgError::NoConvergence {
                        iterations: iter - 1,
                    });
                }
                // Implicit shift.
                let mut g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = p.hypot(1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for x in &mut d[l + 2..] {
                    *x -= h;
                }
                f += h;
                // The QL sweep, one plane rotation per step.
                p = d[m];
                let mut c = 1.0;
                let mut c2 = c;
                let mut c3 = c;
                let el1 = e[l + 1];
                let mut s = 0.0;
                let mut s2 = 0.0;
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    g = c * e[i];
                    h = c * p;
                    r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    let (lo, hi) = w.split_at_mut((i + 1) * n);
                    let vi = &mut lo[i * n..];
                    let vi1 = &mut hi[..n];
                    for (a, b) in vi.iter_mut().zip(vi1.iter_mut()) {
                        let t = *b;
                        *b = s * *a + c * t;
                        *a = c * *a - s * t;
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                if e[l].abs() <= eps * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

/// Computes the eigendecomposition of a complex Hermitian matrix by cyclic
/// complex Jacobi rotations.
///
/// # Errors
///
/// [`LinalgError::NotSquare`] for non-square input and
/// [`LinalgError::NoConvergence`] if the off-diagonal mass fails to vanish
/// within the sweep budget.
///
/// # Examples
///
/// ```
/// use photon_linalg::{C64, CMatrix, hermitian_eig};
///
/// let a = CMatrix::from_rows(&[
///     vec![C64::from_real(2.0), C64::new(0.0, 1.0)],
///     vec![C64::new(0.0, -1.0), C64::from_real(2.0)],
/// ]);
/// let eig = hermitian_eig(&a)?;
/// assert!((eig.values[0] - 1.0).abs() < 1e-10);
/// assert!((eig.values[1] - 3.0).abs() < 1e-10);
/// # Ok::<(), photon_linalg::LinalgError>(())
/// ```
pub fn hermitian_eig(a: &CMatrix) -> Result<HermitianEig> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    // Enforce exact Hermitian symmetry to stabilize the sweeps.
    let mut m = CMatrix::from_fn(n, n, |r, c| (a[(r, c)] + a[(c, r)].conj()).scale(0.5));
    let mut v = CMatrix::identity(n);
    let scale = m.max_abs().max(1.0);
    let tol = f64::EPSILON * scale * n as f64;

    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in p + 1..n {
                off = off.max(m[(p, q)].abs());
            }
        }
        if off <= tol {
            return Ok(sorted_herm(m, v));
        }
        for p in 0..n {
            for q in p + 1..n {
                let gamma = m[(p, q)];
                let g = gamma.abs();
                if g <= tol * 1e-2 {
                    continue;
                }
                // Phase e = γ/|γ| reduces the 2x2 block to a real problem.
                let e = gamma / g;
                let alpha = m[(p, p)].re;
                let beta = m[(q, q)].re;
                let tau = (beta - alpha) / (2.0 * g);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                let se = e.scale(s); // s·e
                let se_conj = e.conj().scale(s); // s·e*

                // Rotation J: J_pp = c, J_pq = s·e, J_qp = -s·e*, J_qq = c.
                for k in 0..n {
                    if k == p || k == q {
                        continue;
                    }
                    let akp = m[(k, p)];
                    let akq = m[(k, q)];
                    // (A·J) columns p, q for row k.
                    let new_kp = akp.scale(c) - akq * se_conj;
                    let new_kq = akp * se + akq.scale(c);
                    m[(k, p)] = new_kp;
                    m[(p, k)] = new_kp.conj();
                    m[(k, q)] = new_kq;
                    m[(q, k)] = new_kq.conj();
                }
                let new_pp = c * c * alpha - 2.0 * s * c * g + s * s * beta;
                let new_qq = s * s * alpha + 2.0 * s * c * g + c * c * beta;
                m[(p, p)] = C64::from_real(new_pp);
                m[(q, q)] = C64::from_real(new_qq);
                m[(p, q)] = C64::ZERO;
                m[(q, p)] = C64::ZERO;

                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = vkp.scale(c) - vkq * se_conj;
                    v[(k, q)] = vkp * se + vkq.scale(c);
                }
            }
        }
    }
    Err(LinalgError::NoConvergence {
        iterations: MAX_SWEEPS,
    })
}

fn sorted_herm(m: CMatrix, v: CMatrix) -> HermitianEig {
    let n = m.rows();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| m[(i, i)].re.partial_cmp(&m[(j, j)].re).unwrap());
    let values = RVector::from_fn(n, |i| m[(idx[i], idx[i])].re);
    let vectors = CMatrix::from_fn(n, n, |r, c| v[(r, idx[c])]);
    HermitianEig { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cvector::CVector;
    use crate::random::standard_normal;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sym_eig_known_values() {
        let a = RMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let eig = symmetric_eig(&a).unwrap();
        assert!((eig.values[0] - 1.0).abs() < 1e-10);
        assert!((eig.values[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn sym_eig_reconstructs() {
        let a = RMatrix::from_rows(&[
            vec![4.0, 1.0, -0.5],
            vec![1.0, 3.0, 0.25],
            vec![-0.5, 0.25, 1.0],
        ]);
        let eig = symmetric_eig(&a).unwrap();
        let d = RMatrix::from_diagonal(&eig.values);
        let recon = eig
            .vectors
            .mul_mat(&d)
            .unwrap()
            .mul_mat(&eig.vectors.transpose())
            .unwrap();
        assert!((&recon - &a).max_abs() < 1e-9);
        // Eigenvector orthogonality.
        let vtv = eig.vectors.transpose().mul_mat(&eig.vectors).unwrap();
        assert!((&vtv - &RMatrix::identity(3)).max_abs() < 1e-10);
        // Ascending order.
        assert!(eig.values[0] <= eig.values[1] && eig.values[1] <= eig.values[2]);
    }

    #[test]
    fn sym_eig_diagonal_passthrough() {
        let a = RMatrix::from_diagonal(&RVector::from_slice(&[3.0, -1.0, 2.0]));
        let eig = symmetric_eig(&a).unwrap();
        assert!((eig.values[0] + 1.0).abs() < 1e-12);
        assert!((eig.values[2] - 3.0).abs() < 1e-12);
    }

    /// `n×n` orthogonal matrix: a product of three Householder
    /// reflections with seeded directions.
    fn random_orthogonal(n: usize, rng: &mut StdRng) -> RMatrix {
        let mut q = RMatrix::identity(n);
        for _ in 0..3 {
            let v = RVector::from_fn(n, |_| rng.gen::<f64>() - 0.5);
            let mut h = RMatrix::identity(n);
            h.axpy(-2.0 / v.norm_sqr(), &RMatrix::outer(&v, &v));
            q = q.mul_mat(&h).unwrap();
        }
        q
    }

    /// `Q·diag(λ)·Qᵀ`.
    fn with_spectrum(values: &[f64], rng: &mut StdRng) -> RMatrix {
        let q = random_orthogonal(values.len(), rng);
        let d = RMatrix::from_diagonal(&RVector::from_slice(values));
        q.mul_mat(&d).unwrap().mul_mat(&q.transpose()).unwrap()
    }

    /// The matrix families CMA-ES and the tests lean on, at size `n`.
    fn eig_cases(n: usize, rng: &mut StdRng) -> Vec<(&'static str, RMatrix)> {
        let mut cases = vec![
            ("identity", RMatrix::identity(n)),
            ("zero", RMatrix::zeros(n, n)),
        ];
        // Diagonal, deliberately unsorted and with a negative entry.
        let diag: Vec<f64> = (0..n).map(|i| ((i * 7919) % 13) as f64 - 3.5).collect();
        cases.push((
            "diagonal",
            RMatrix::from_diagonal(&RVector::from_slice(&diag)),
        ));
        // Three clusters: an exactly repeated value, a 1e-12-wide cluster
        // and a singleton.
        let clustered: Vec<f64> = (0..n)
            .map(|i| match i % 3 {
                0 => 1.0,
                1 => 2.0 + 1e-12 * i as f64,
                _ if i == n - 1 => 50.0,
                _ => 1.0,
            })
            .collect();
        cases.push(("clustered", with_spectrum(&clustered, rng)));
        // Near-identity CMA covariance: C = (1 − c)·I + c·Σ wᵢ·yᵢyᵢᵀ after
        // a few rank-μ updates from unit-scale samples.
        let mut cov = RMatrix::identity(n);
        for _ in 0..3 {
            let mut update = RMatrix::zeros(n, n);
            for k in 0..4 {
                let y = RVector::from_fn(n, |_| standard_normal(rng));
                update.axpy(0.25 / (k + 1) as f64, &RMatrix::outer(&y, &y));
            }
            cov = cov.scale(0.98);
            cov.axpy(0.02, &update);
        }
        cases.push(("cma-covariance", cov));
        // A generic dense symmetric matrix.
        let b = RMatrix::from_fn(n, n, |_, _| rng.gen::<f64>() - 0.5);
        let mut generic = &b + &b.transpose();
        generic.symmetrize();
        cases.push(("generic", generic));
        cases
    }

    #[test]
    fn sym_eig_residuals_across_sizes_and_spectra() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [1, 2, 37, 300] {
            for (name, a) in eig_cases(n, &mut rng) {
                let eig = symmetric_eig(&a).unwrap();
                let v = &eig.vectors;
                let bound = 1e-10 * a.frobenius_norm().max(1.0);
                assert!(
                    eig.values.as_slice().windows(2).all(|w| w[0] <= w[1]),
                    "{name} n={n}: eigenvalues not ascending"
                );
                let av = a.mul_mat(v).unwrap();
                let vl = v.mul_mat(&RMatrix::from_diagonal(&eig.values)).unwrap();
                let residual = (&av - &vl).frobenius_norm();
                assert!(residual <= bound, "{name} n={n}: ‖AV − VΛ‖ = {residual:e}");
                let vtv = v.transpose().mul_mat(v).unwrap();
                let ortho = (&vtv - &RMatrix::identity(n)).frobenius_norm();
                assert!(ortho <= bound, "{name} n={n}: ‖VᵀV − I‖ = {ortho:e}");
            }
        }
    }

    /// `symmetric_eig` as it was before the tiered build: the same two
    /// passes, called directly, so always compiled without AVX2. Kept as
    /// the bitwise reference.
    fn symmetric_eig_reference(a: &RMatrix) -> (Vec<f64>, Vec<f64>) {
        let n = a.rows();
        let mut m = a.clone();
        m.symmetrize();
        let mut w = m.as_slice().to_vec();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        if n > 0 {
            tridiagonalize(n, &mut w, &mut d, &mut e);
            ql_implicit(n, &mut w, &mut d, &mut e).unwrap();
        }
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&i, &j| d[i].total_cmp(&d[j]));
        let values = idx.iter().map(|&i| d[i]).collect();
        let vectors = (0..n * n).map(|k| w[idx[k % n] * n + k / n]).collect();
        (values, vectors)
    }

    #[test]
    fn sym_eig_matches_plain_build_bitwise() {
        let mut rng = StdRng::seed_from_u64(8);
        for n in [0, 1, 3, 5, 7, 8, 9, 37, 64, 65, 300] {
            for (name, a) in eig_cases(n.max(1), &mut rng) {
                let a = if n == 0 { RMatrix::zeros(0, 0) } else { a };
                let eig = symmetric_eig(&a).unwrap();
                let (values, vectors) = symmetric_eig_reference(&a);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(eig.values.as_slice()),
                    bits(&values),
                    "{name} n={n}: values"
                );
                assert_eq!(
                    bits(eig.vectors.as_slice()),
                    bits(&vectors),
                    "{name} n={n}: vectors"
                );
            }
        }
    }

    #[test]
    fn sym_eig_exact_on_trivial_spectra() {
        for n in [1, 2, 37] {
            let id = symmetric_eig(&RMatrix::identity(n)).unwrap();
            assert!(id.values.iter().all(|&x| x == 1.0));
            let zero = symmetric_eig(&RMatrix::zeros(n, n)).unwrap();
            assert!(zero.values.iter().all(|&x| x == 0.0));
            assert_eq!(zero.vectors, RMatrix::identity(n));
        }
        let empty = symmetric_eig(&RMatrix::zeros(0, 0)).unwrap();
        assert_eq!(empty.values.len(), 0);
    }

    #[test]
    fn sym_eig_rejects_non_square() {
        assert!(symmetric_eig(&RMatrix::zeros(2, 3)).is_err());
        assert!(hermitian_eig(&CMatrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn herm_eig_known_values() {
        let a = CMatrix::from_rows(&[
            vec![C64::from_real(2.0), C64::new(0.0, 1.0)],
            vec![C64::new(0.0, -1.0), C64::from_real(2.0)],
        ]);
        let eig = hermitian_eig(&a).unwrap();
        assert!((eig.values[0] - 1.0).abs() < 1e-10);
        assert!((eig.values[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn herm_eig_reconstructs_and_unitary() {
        let a = CMatrix::from_rows(&[
            vec![
                C64::from_real(3.0),
                C64::new(1.0, -0.5),
                C64::new(0.0, 0.25),
            ],
            vec![
                C64::new(1.0, 0.5),
                C64::from_real(1.0),
                C64::new(-0.75, 0.0),
            ],
            vec![
                C64::new(0.0, -0.25),
                C64::new(-0.75, 0.0),
                C64::from_real(2.0),
            ],
        ]);
        assert!(a.is_hermitian(1e-12));
        let eig = hermitian_eig(&a).unwrap();
        assert!(eig.vectors.is_unitary(1e-9));
        let d = CMatrix::from_diagonal(&CVector::from_real_slice(eig.values.as_slice()));
        let recon = eig
            .vectors
            .mul_mat(&d)
            .unwrap()
            .mul_mat(&eig.vectors.adjoint())
            .unwrap();
        assert!((&recon - &a).max_abs() < 1e-9);
    }

    #[test]
    fn herm_eig_trace_preserved() {
        let a = CMatrix::from_rows(&[
            vec![C64::from_real(5.0), C64::new(2.0, 1.0)],
            vec![C64::new(2.0, -1.0), C64::from_real(-3.0)],
        ]);
        let eig = hermitian_eig(&a).unwrap();
        assert!((eig.values.sum() - 2.0).abs() < 1e-10);
    }

    #[test]
    fn eig_of_gram_matrix_nonnegative() {
        // Gram matrices are PSD; all eigenvalues must be >= 0 (up to fp).
        let b = CMatrix::from_fn(4, 3, |r, c| {
            C64::new((r + 1) as f64 * 0.3, (c as f64) - 1.0)
        });
        let g = b.gram();
        let eig = hermitian_eig(&g).unwrap();
        for i in 0..3 {
            assert!(
                eig.values[i] > -1e-9,
                "negative eigenvalue {}",
                eig.values[i]
            );
        }
    }
}
