//! Minimal dense linear algebra used by the solvers: a column-major-free,
//! row-major square-matrix type with an LU (partial pivoting)
//! factorization. Sizes in this crate are moderate (hundreds to a few
//! thousand), so straightforward O(n^3) dense kernels are appropriate.

// Index-based loops are the natural idiom for the dense kernels here.
#![allow(clippy::needless_range_loop)]

/// Dense square matrix, row-major.
#[derive(Debug, Clone)]
pub(crate) struct SquareMatrix {
    n: usize,
    a: Vec<f64>,
}

impl SquareMatrix {
    pub(crate) fn zeros(n: usize) -> Self {
        SquareMatrix {
            n,
            a: vec![0.0; n * n],
        }
    }

    #[inline]
    pub(crate) fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.n + c]
    }

    #[inline]
    pub(crate) fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.a[r * self.n + c]
    }

    /// Solves `self * x = b` by LU with partial pivoting; returns `None` for
    /// (numerically) singular systems. Consumes the matrix in place.
    pub(crate) fn lu_solve(mut self, mut b: Vec<f64>) -> Option<Vec<f64>> {
        let n = self.n;
        debug_assert_eq!(b.len(), n);
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivot.
            let mut p = k;
            let mut best = self.at(k, k).abs();
            for r in k + 1..n {
                let v = self.at(r, k).abs();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            if best < 1e-14 {
                return None;
            }
            if p != k {
                for c in 0..n {
                    let tmp = self.at(k, c);
                    *self.at_mut(k, c) = self.at(p, c);
                    *self.at_mut(p, c) = tmp;
                }
                b.swap(k, p);
                perm.swap(k, p);
            }
            let pivot = self.at(k, k);
            for r in k + 1..n {
                let f = self.at(r, k) / pivot;
                if f == 0.0 {
                    continue;
                }
                *self.at_mut(r, k) = f;
                for c in k + 1..n {
                    let sub = f * self.at(k, c);
                    *self.at_mut(r, c) -= sub;
                }
                b[r] -= f * b[k];
            }
        }
        // Back substitution.
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let mut s = b[k];
            for c in k + 1..n {
                s -= self.at(k, c) * x[c];
            }
            x[k] = s / self.at(k, k);
        }
        Some(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_rows(rows: &[&[f64]]) -> SquareMatrix {
        let n = rows.len();
        let mut m = SquareMatrix::zeros(n);
        for (i, r) in rows.iter().enumerate() {
            for (j, v) in r.iter().enumerate() {
                *m.at_mut(i, j) = *v;
            }
        }
        m
    }

    #[test]
    fn lu_solves_generic_system() {
        let m = from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]);
        let x = m.clone().lu_solve(vec![3.0, 5.0, 5.0]).unwrap();
        // Verify residual.
        for i in 0..3 {
            let mut s = 0.0;
            for j in 0..3 {
                s += m.at(i, j) * x[j];
            }
            let b = [3.0, 5.0, 5.0][i];
            assert!((s - b).abs() < 1e-10);
        }
    }

    #[test]
    fn lu_detects_singular() {
        let m = from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(m.lu_solve(vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn lu_needs_pivoting() {
        // Zero on the initial diagonal forces a row swap.
        let m = from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = m.lu_solve(vec![2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }
}
