//! Cholesky factorization of symmetric / Hermitian positive-definite
//! matrices, plus covariance-shaped Gaussian sampling.
//!
//! # Determinism
//!
//! [`RCholesky`] factors left-looking in panels of 8 columns. Entry
//! `(i, j)` starts from `A[i][j]` and subtracts `L[i][k]·L[j][k]` for `k`
//! ascending, one multiply and one subtract per term (never fused): the
//! `k` below the panel in 4 × 8 register tiles whose vector lanes run
//! across independent entries, then the `k` inside the panel one entry at
//! a time. That is the order of the textbook column loop, so the factor has
//! its bits on every kernel tier.

use crate::c64::C64;
use crate::cmatrix::CMatrix;
use crate::cvector::CVector;
use crate::error::{LinalgError, Result};
use crate::rmatrix::RMatrix;
use crate::rvector::RVector;
use crate::tiered::{avx2_tiered, pack_transposed, tile, LANES};

/// Columns per panel of the blocked real factorization.
const PANEL: usize = LANES;

/// Rows per register tile of the panel's trailing update.
const TILE_ROWS: usize = 4;

/// Cholesky factorization `A = L·Lᵀ` of a real symmetric positive-definite
/// matrix.
///
/// The factor is the standard device for sampling `N(0, Σ)`: draw
/// `r ~ N(0, I)` and return `L·r`.
///
/// # Examples
///
/// ```
/// use photon_linalg::{RMatrix, RVector, RCholesky};
///
/// let a = RMatrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
/// let chol = RCholesky::new(&a)?;
/// let x = chol.solve(&RVector::from_slice(&[8.0, 7.0]))?;
/// let b = a.mul_vec(&x)?;
/// assert!((b[0] - 8.0).abs() < 1e-10 && (b[1] - 7.0).abs() < 1e-10);
/// # Ok::<(), photon_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RCholesky {
    l: RMatrix,
}

impl RCholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] for non-square input,
    /// [`LinalgError::NotPositiveDefinite`] when a pivot is non-positive.
    pub fn new(a: &RMatrix) -> Result<Self> {
        RCholesky::from_owned(a.clone())
    }

    /// [`RCholesky::new`], factoring in place in `a`'s storage: no second
    /// `n × n` buffer. Only the lower triangle of `a` is read.
    ///
    /// # Errors
    ///
    /// As [`RCholesky::new`].
    pub fn from_owned(mut a: RMatrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        for (i, row) in a.as_mut_slice().chunks_exact_mut(n.max(1)).enumerate() {
            row[i + 1..].fill(0.0);
        }
        factor_lower_tiered(a.as_mut_slice(), n, &mut Vec::new())?;
        Ok(RCholesky { l: a })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &RMatrix {
        &self.l
    }

    /// Solves `A·x = b` by two triangular solves.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `b.len() != self.dim()`.
    pub fn solve(&self, b: &RVector) -> Result<RVector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("length {n}"),
                found: format!("length {}", b.len()),
            });
        }
        // L·y = b
        let mut y = b.clone();
        for i in 0..n {
            let mut acc = y[i];
            for k in 0..i {
                acc -= self.l[(i, k)] * y[k];
            }
            y[i] = acc / self.l[(i, i)];
        }
        // Lᵀ·x = y
        for i in (0..n).rev() {
            let mut acc = y[i];
            for k in i + 1..n {
                acc -= self.l[(k, i)] * y[k];
            }
            y[i] = acc / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Maps a standard-normal draw `r ~ N(0, I)` to `L·r ~ N(0, A)`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `r.len() != self.dim()`.
    pub fn sample_from_standard(&self, r: &RVector) -> Result<RVector> {
        if r.len() != self.dim() {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("length {}", self.dim()),
                found: format!("length {}", r.len()),
            });
        }
        let n = self.dim();
        let mut out = RVector::zeros(n);
        for i in 0..n {
            let mut acc = 0.0;
            for k in 0..=i {
                acc += self.l[(i, k)] * r[k];
            }
            out[i] = acc;
        }
        Ok(out)
    }

    /// Log-determinant of `A`, computed as `2·Σ log Lᵢᵢ`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

avx2_tiered! {
    fn factor_lower_tiered(l: &mut [f64], n: usize, panel: &mut Vec<f64>) -> Result<()> =
        factor_lower_body;
}

/// Overwrites the lower triangle of the row-major `n × n` matrix in `l`
/// (upper triangle zero) with its Cholesky factor, one panel of
/// [`PANEL`] columns at a time.
#[inline(always)]
fn factor_lower_body(l: &mut [f64], n: usize, panel: &mut Vec<f64>) -> Result<()> {
    let mut jb = 0;
    while jb < n {
        let w = (n - jb).min(PANEL);
        // Trailing update: subtract the k < jb terms from the panel's
        // columns, rows jb.., in 4 × 8 tiles over L[jb..jb+w][..jb]ᵀ.
        if jb > 0 {
            pack_transposed(&l[jb * n..], n, jb, w, panel);
            let mut i = jb;
            while i < n {
                let rows = (n - i).min(TILE_ROWS);
                if rows == TILE_ROWS {
                    update_tile::<TILE_ROWS>(l, n, i, jb, w, panel);
                } else {
                    for i in i..n {
                        update_tile::<1>(l, n, i, jb, w, panel);
                    }
                }
                i += rows;
            }
        }
        // The panel itself: its diagonal block column by column, then each
        // row below it, subtracting the jb ≤ k < j terms in k order.
        let mut pivots = [0.0; PANEL];
        for (q, pivot) in pivots[..w].iter_mut().enumerate() {
            let j = jb + q;
            let lj = &mut l[j * n..(j + 1) * n];
            let mut d = lj[j];
            for &x in &lj[jb..j] {
                d -= x * x;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite);
            }
            let dj = d.sqrt();
            lj[j] = dj;
            *pivot = dj;
            for i in j + 1..jb + w {
                finish_entry(l, n, i, j, jb, dj);
            }
        }
        for i in jb + w..n {
            for (q, &dj) in pivots[..w].iter().enumerate() {
                finish_entry(l, n, i, jb + q, jb, dj);
            }
        }
        jb += w;
    }
    Ok(())
}

/// `L[i][j] = (S[i][j] − Σ_{jb ≤ k < j} L[i][k]·L[j][k]) / L[j][j]`, with
/// `S[i][j]` already in place.
#[inline(always)]
fn finish_entry(l: &mut [f64], n: usize, i: usize, j: usize, jb: usize, dj: f64) {
    debug_assert!(j < i);
    let (head, tail) = l.split_at_mut(i * n);
    let lj = &head[j * n + jb..j * n + j];
    let li = &mut tail[..n];
    let mut s = li[j];
    for (&x, &y) in li[jb..j].iter().zip(lj) {
        s -= x * y;
    }
    li[j] = s / dj;
}

/// Rows `i .. i + R` of the panel at `jb` (width `w`): starts each lower
/// entry from its value in `l` and subtracts `L[i][k]·L[jb + q][k]` for
/// `k < jb`, in `k` order.
#[inline(always)]
fn update_tile<const R: usize>(
    l: &mut [f64],
    n: usize,
    i: usize,
    jb: usize,
    w: usize,
    panel: &[f64],
) {
    let mut acc = [[0.0; LANES]; R];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        let start = (i + r) * n + jb;
        acc_r[..w].copy_from_slice(&l[start..start + w]);
    }
    let acc = tile::<R, true>(
        std::array::from_fn(|r| &l[(i + r) * n..(i + r) * n + jb]),
        panel,
        acc,
    );
    for (r, acc_r) in acc.iter().enumerate() {
        // Only entries on or below the diagonal: row i + r, columns
        // jb ..= i + r.
        let cols = (i + r + 1 - jb).min(w);
        let start = (i + r) * n + jb;
        l[start..start + cols].copy_from_slice(&acc_r[..cols]);
    }
}

/// Cholesky factorization `A = L·Lᴴ` of a complex Hermitian
/// positive-definite matrix.
///
/// # Examples
///
/// ```
/// use photon_linalg::{C64, CMatrix, CCholesky};
///
/// let a = CMatrix::from_rows(&[
///     vec![C64::from_real(2.0), C64::new(0.0, 1.0)],
///     vec![C64::new(0.0, -1.0), C64::from_real(2.0)],
/// ]);
/// let chol = CCholesky::new(&a)?;
/// assert_eq!(chol.dim(), 2);
/// # Ok::<(), photon_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CCholesky {
    l: CMatrix,
}

impl CCholesky {
    /// Factorizes a Hermitian positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] for non-square input,
    /// [`LinalgError::NotPositiveDefinite`] when a pivot is non-positive.
    pub fn new(a: &CMatrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = CMatrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)].re;
            for k in 0..j {
                d -= l[(j, k)].norm_sqr();
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite);
            }
            let dj = d.sqrt();
            l[(j, j)] = C64::from_real(dj);
            for i in j + 1..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)].conj();
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(CCholesky { l })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &CMatrix {
        &self.l
    }

    /// Solves `A·x = b` by two triangular solves.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `b.len() != self.dim()`.
    pub fn solve(&self, b: &CVector) -> Result<CVector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("length {n}"),
                found: format!("length {}", b.len()),
            });
        }
        let mut y = b.clone();
        for i in 0..n {
            let mut acc = y[i];
            for k in 0..i {
                acc -= self.l[(i, k)] * y[k];
            }
            y[i] = acc / self.l[(i, i)];
        }
        for i in (0..n).rev() {
            let mut acc = y[i];
            for k in i + 1..n {
                acc -= self.l[(k, i)].conj() * y[k];
            }
            y[i] = acc / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Log-determinant of `A` (real, since `A` is HPD).
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].re.ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> RMatrix {
        RMatrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, -0.25],
            vec![0.5, -0.25, 2.0],
        ])
    }

    #[test]
    fn real_factor_reconstructs() {
        let a = spd3();
        let chol = RCholesky::new(&a).unwrap();
        let l = chol.factor();
        let recon = l.mul_mat(&l.transpose()).unwrap();
        assert!((&recon - &a).max_abs() < 1e-12);
    }

    #[test]
    fn real_solve_roundtrip() {
        let a = spd3();
        let chol = RCholesky::new(&a).unwrap();
        let x_true = RVector::from_slice(&[1.0, -2.0, 3.0]);
        let b = a.mul_vec(&x_true).unwrap();
        let x = chol.solve(&b).unwrap();
        assert!((&x - &x_true).max_abs() < 1e-10);
        assert!(chol.solve(&RVector::zeros(2)).is_err());
    }

    /// The four-rows-per-pass column loop the blocked `RCholesky::new`
    /// replaced (itself bitwise equal to the textbook one-entry-at-a-time
    /// loop), kept as its bitwise reference.
    fn cholesky_reference(a: &RMatrix) -> Result<RMatrix> {
        let n = a.rows();
        let mut l = RMatrix::zeros(n, n);
        for j in 0..n {
            let data = l.as_mut_slice();
            let lj = &data[j * n..j * n + j];
            let mut d = a[(j, j)];
            for &x in lj {
                d -= x * x;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite);
            }
            let dj = d.sqrt();
            let (head, tail) = data.split_at_mut((j + 1) * n);
            head[j * n + j] = dj;
            let lj = &head[j * n..j * n + j];
            let mut i = j + 1;
            while i + 4 <= n {
                let base = (i - j - 1) * n;
                let rows = &tail[base..base + 4 * n];
                let mut s = [a[(i, j)], a[(i + 1, j)], a[(i + 2, j)], a[(i + 3, j)]];
                for (k, &x) in lj.iter().enumerate() {
                    s[0] -= rows[k] * x;
                    s[1] -= rows[n + k] * x;
                    s[2] -= rows[2 * n + k] * x;
                    s[3] -= rows[3 * n + k] * x;
                }
                for (r, v) in s.iter().enumerate() {
                    tail[base + r * n + j] = v / dj;
                }
                i += 4;
            }
            for i in i..n {
                let row = &mut tail[(i - j - 1) * n..(i - j) * n];
                let mut s = a[(i, j)];
                for (&x, &y) in row[..j].iter().zip(lj) {
                    s -= x * y;
                }
                row[j] = s / dj;
            }
        }
        Ok(l)
    }

    fn bits(m: &RMatrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// A dense SPD matrix with a wide spread of magnitudes, and garbage in
    /// its upper triangle (which the factorization must not read).
    fn spd(n: usize) -> RMatrix {
        let b = RMatrix::from_fn(n + 3, n, |r, c| {
            ((r * 13 + c * 7) as f64 * 0.41).cos() * 10f64.powi((r % 3) as i32 - 1)
        });
        let mut a = b.gram();
        a.add_diagonal(0.1);
        for i in 0..n {
            for j in i + 1..n {
                a[(i, j)] = f64::NAN;
            }
        }
        a
    }

    #[test]
    fn real_factor_matches_reference_bitwise() {
        // Sizes around the 4-row tile and the 8-column panel, including
        // partial last panels and tiles, plus the calibration fit's 720.
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 37, 64, 65, 67, 300, 720] {
            let a = spd(n);
            let want = cholesky_reference(&a).unwrap();
            let got = RCholesky::new(&a).unwrap();
            assert_eq!(bits(got.factor()), bits(&want), "factor differs at n = {n}");
            let owned = RCholesky::from_owned(a).unwrap();
            assert_eq!(
                bits(owned.factor()),
                bits(&want),
                "in-place factor differs at n = {n}"
            );
        }
    }

    #[test]
    fn blocked_factor_rejects_where_the_loop_does() {
        // A non-positive pivot in a late panel, past a partial tile.
        for n in [9, 37, 65] {
            let mut a = spd(n);
            a[(n - 2, n - 2)] = -1.0;
            assert!(cholesky_reference(&a).is_err());
            assert!(matches!(
                RCholesky::new(&a),
                Err(LinalgError::NotPositiveDefinite)
            ));
            assert!(matches!(
                RCholesky::from_owned(a),
                Err(LinalgError::NotPositiveDefinite)
            ));
        }
        assert!(RCholesky::from_owned(RMatrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn real_rejects_indefinite() {
        let a = RMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            RCholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite)
        ));
        assert!(RCholesky::new(&RMatrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn real_log_det_matches_lu() {
        let a = spd3();
        let chol = RCholesky::new(&a).unwrap();
        let det = a.det().unwrap();
        assert!((chol.log_det() - det.ln()).abs() < 1e-10);
    }

    #[test]
    fn sampling_covariance_shape() {
        // L·r with e_k recovers columns of L.
        let a = spd3();
        let chol = RCholesky::new(&a).unwrap();
        let e0 = RVector::basis(3, 0);
        let s = chol.sample_from_standard(&e0).unwrap();
        let l = chol.factor();
        assert!((s[0] - l[(0, 0)]).abs() < 1e-14);
        assert!((s[2] - l[(2, 0)]).abs() < 1e-14);
        assert!(chol.sample_from_standard(&RVector::zeros(2)).is_err());
    }

    #[test]
    fn complex_factor_reconstructs() {
        let a = CMatrix::from_rows(&[
            vec![C64::from_real(3.0), C64::new(1.0, 1.0)],
            vec![C64::new(1.0, -1.0), C64::from_real(4.0)],
        ]);
        let chol = CCholesky::new(&a).unwrap();
        let l = chol.factor();
        let recon = l.mul_mat(&l.adjoint()).unwrap();
        assert!((&recon - &a).max_abs() < 1e-12);
    }

    #[test]
    fn complex_solve_roundtrip() {
        let a = CMatrix::from_rows(&[
            vec![C64::from_real(3.0), C64::new(1.0, 1.0)],
            vec![C64::new(1.0, -1.0), C64::from_real(4.0)],
        ]);
        let chol = CCholesky::new(&a).unwrap();
        let x_true = CVector::from_vec(vec![C64::new(1.0, 2.0), C64::new(-0.5, 0.0)]);
        let b = a.mul_vec(&x_true).unwrap();
        let x = chol.solve(&b).unwrap();
        assert!((&x - &x_true).max_abs() < 1e-10);
        assert!(chol.solve(&CVector::zeros(3)).is_err());
    }

    #[test]
    fn complex_rejects_non_pd() {
        let a = CMatrix::from_rows(&[
            vec![C64::from_real(1.0), C64::from_real(2.0)],
            vec![C64::from_real(2.0), C64::from_real(1.0)],
        ]);
        assert!(matches!(
            CCholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn complex_log_det() {
        let a = CMatrix::from_rows(&[
            vec![C64::from_real(2.0), C64::new(0.0, 1.0)],
            vec![C64::new(0.0, -1.0), C64::from_real(2.0)],
        ]);
        // det = 4 - |i|² = 3
        let chol = CCholesky::new(&a).unwrap();
        assert!((chol.log_det() - 3.0f64.ln()).abs() < 1e-12);
    }
}
