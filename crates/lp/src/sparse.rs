//! Column-wise **sparse** standard form `min c'x  s.t.  A x = b, x >= 0`,
//! the representation behind the revised simplex backend.
//!
//! Semantically this is [`crate::standard::StandardForm`] — the same
//! variable shift, the same slack/surplus column numbering (one column per
//! inequality row, assigned in row order), the same `b >= 0` row
//! normalization — but the matrix is stored as growable sparse columns and
//! is **never densified**. A Steiner path row has `O(tree depth)` nonzeros
//! out of `n` edge columns, so the column store is typically two orders of
//! magnitude smaller than the dense image.
//!
//! Keeping the column numbering identical to the dense form is what makes
//! [`crate::WarmStart`] tokens transferable between the two backends.
//!
//! [`Lines`] is the one compressed stream type of the revised backend:
//! the LU stores its factors in it, and [`SparseForm::row_lines`] copies
//! the matrix into it row by row for the dual candidate scan.

use crate::model::{Cmp, Model};

/// One sparse column: `(row, coefficient)` pairs sorted by row index.
pub(crate) type SparseCol = Vec<(usize, f64)>;

/// Numbered lists of `(index, value)` entries in one structure-of-arrays
/// stream: line `k` is `idx[start[k]..start[k + 1]]` with the matching
/// `val` range.
#[derive(Debug, Clone)]
pub(crate) struct Lines {
    pub start: Vec<u32>,
    pub idx: Vec<u32>,
    pub val: Vec<f64>,
}

impl Default for Lines {
    fn default() -> Self {
        Lines {
            start: vec![0],
            idx: Vec::new(),
            val: Vec::new(),
        }
    }
}

impl Lines {
    #[inline]
    pub fn line(&self, k: usize) -> (&[u32], &[f64]) {
        let (a, b) = (self.start[k] as usize, self.start[k + 1] as usize);
        (&self.idx[a..b], &self.val[a..b])
    }

    pub fn push_line(&mut self, entries: &[(u32, f64)]) {
        for &(i, v) in entries {
            self.idx.push(i);
            self.val.push(v);
        }
        self.start.push(self.idx.len() as u32);
    }

    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// The transpose: entry `(i, v)` of line `k` becomes entry
    /// `(label[k], v)` of line `group[i]`, for `n` lines. Each line of
    /// the result lists its entries by ascending source line.
    pub fn transpose(&self, group: &[u32], label: &[u32], n: usize) -> Lines {
        let mut start = vec![0u32; n + 1];
        for &i in &self.idx {
            start[group[i as usize] as usize + 1] += 1;
        }
        for g in 0..n {
            start[g + 1] += start[g];
        }
        let mut fill: Vec<u32> = start[..n].to_vec();
        let mut idx = vec![0u32; self.idx.len()];
        let mut val = vec![0.0; self.val.len()];
        for (k, &to) in label.iter().enumerate() {
            let (is, vs) = self.line(k);
            for (&i, &v) in is.iter().zip(vs) {
                let g = group[i as usize] as usize;
                let at = fill[g] as usize;
                idx[at] = to;
                val[at] = v;
                fill[g] += 1;
            }
        }
        Lines { start, idx, val }
    }
}

/// Sparse standard-form image of a model, growable by appended rows.
#[derive(Debug, Clone)]
pub(crate) struct SparseForm {
    /// Number of rows.
    pub m: usize,
    /// Number of *original* (shifted) variables.
    pub n_orig: usize,
    /// Total columns: originals + slacks/surpluses.
    pub n: usize,
    /// Column-major sparse matrix; `cols[j]` is sorted by row index.
    pub cols: Vec<SparseCol>,
    /// Right-hand side (entries of *initial* rows are `>= 0`; appended
    /// rows skip normalization, exactly like the dense session tableau).
    pub b: Vec<f64>,
    /// Costs over all columns (zero on slack columns).
    pub c: Vec<f64>,
    /// Lower-bound shift per original variable.
    pub shift: Vec<f64>,
    /// Whether row `i` was multiplied by -1 during normalization.
    pub row_negated: Vec<bool>,
    /// Column index of the slack/surplus of row `i` (`usize::MAX` for
    /// equality rows).
    pub slack_col: Vec<usize>,
}

/// Sorts terms by column and combines duplicates (dropping exact zeros),
/// mirroring the `+=` accumulation of the dense builder. The sort is
/// stable, so each column's terms are summed in the order given.
pub(crate) fn combine(terms: &mut Vec<(usize, f64)>) {
    terms.sort_by_key(|&(j, _)| j);
    let mut out = 0usize;
    let mut i = 0usize;
    while i < terms.len() {
        let (j, mut v) = terms[i];
        i += 1;
        while i < terms.len() && terms[i].0 == j {
            v += terms[i].1;
            i += 1;
        }
        if v != 0.0 {
            terms[out] = (j, v);
            out += 1;
        }
    }
    terms.truncate(out);
}

impl SparseForm {
    /// Builds the sparse standard form. The model must already be
    /// validated. Column numbering, shifts and row normalization match
    /// [`crate::standard::StandardForm::build`] exactly.
    pub fn build(model: &Model) -> SparseForm {
        let n_orig = model.num_vars();
        let m = model.num_constraints();
        let n_slack = model
            .constraints
            .iter()
            .filter(|c| c.cmp != Cmp::Eq)
            .count();
        let n = n_orig + n_slack;

        let mut cols: Vec<SparseCol> = vec![Vec::new(); n];
        let mut b = vec![0.0; m];
        let mut c = vec![0.0; n];
        let mut row_negated = vec![false; m];
        let mut slack_col = vec![usize::MAX; m];

        c[..n_orig].copy_from_slice(&model.costs);
        let shift = model.lower.clone();

        let mut next_slack = n_orig;
        let mut row_terms: Vec<(usize, f64)> = Vec::new();
        for (i, con) in model.constraints.iter().enumerate() {
            row_terms.clear();
            let mut rhs = con.rhs;
            for &(v, coef) in con.expr.terms() {
                row_terms.push((v.index(), coef));
                rhs -= coef * shift[v.index()];
            }
            combine(&mut row_terms);
            match con.cmp {
                Cmp::Le => {
                    row_terms.push((next_slack, 1.0));
                    slack_col[i] = next_slack;
                    next_slack += 1;
                }
                Cmp::Ge => {
                    row_terms.push((next_slack, -1.0));
                    slack_col[i] = next_slack;
                    next_slack += 1;
                }
                Cmp::Eq => {}
            }
            if rhs < 0.0 {
                for t in row_terms.iter_mut() {
                    t.1 = -t.1;
                }
                rhs = -rhs;
                row_negated[i] = true;
            }
            b[i] = rhs;
            // Rows are visited in ascending order, so pushing keeps every
            // column sorted by row index.
            for &(j, v) in row_terms.iter() {
                cols[j].push((i, v));
            }
        }

        SparseForm {
            m,
            n_orig,
            n,
            cols,
            b,
            c,
            shift,
            row_negated,
            slack_col,
        }
    }

    /// Coefficient at `(row, col)` — `O(log nnz(col))`, used only on the
    /// cold-start and test paths.
    pub fn at(&self, row: usize, col: usize) -> f64 {
        match self.cols[col].binary_search_by_key(&row, |&(r, _)| r) {
            Ok(k) => self.cols[col][k].1,
            Err(_) => 0.0,
        }
    }

    /// The matrix row by row: line `i` lists row `i`'s entries as
    /// `(column, value)` by ascending column. Two passes over `cols`,
    /// one to count each row's entries and one to place them.
    pub fn row_lines(&self) -> Lines {
        let mut start = vec![0u32; self.m + 1];
        for col in &self.cols {
            for &(i, _) in col {
                start[i + 1] += 1;
            }
        }
        for i in 0..self.m {
            start[i + 1] += start[i];
        }
        let mut fill: Vec<u32> = start[..self.m].to_vec();
        let mut idx = vec![0u32; start[self.m] as usize];
        let mut val = vec![0.0; idx.len()];
        for (j, col) in self.cols.iter().enumerate() {
            for &(i, v) in col {
                let at = fill[i] as usize;
                idx[at] = j as u32;
                val[at] = v;
                fill[i] += 1;
            }
        }
        Lines { start, idx, val }
    }

    /// Appends an equality row `terms·x + s = rhs` with a fresh `+1` slack
    /// `s` (the orientation the incremental session produces: `<=` rows
    /// pass through, `>=` rows arrive pre-negated). `terms` must be sorted
    /// by column, combined, and reference structural columns only.
    pub fn append_row(&mut self, terms: &[(usize, f64)], rhs: f64) {
        let row = self.m;
        let slack = self.n;
        for &(j, v) in terms {
            debug_assert!(j < self.n_orig, "appended row references a slack column");
            debug_assert!(v != 0.0);
            self.cols[j].push((row, v));
        }
        self.cols.push(vec![(row, 1.0)]);
        self.b.push(rhs);
        self.c.push(0.0);
        self.row_negated.push(false);
        self.slack_col.push(slack);
        self.m += 1;
        self.n += 1;
    }

    /// Maps a standard-form solution vector back to original variable
    /// values (undoing the lower-bound shift).
    pub fn recover(&self, x_std: &[f64]) -> Vec<f64> {
        self.shift
            .iter()
            .enumerate()
            .map(|(j, lb)| x_std[j] + lb)
            .collect()
    }

    /// Recovers duals for the *original* rows from standard-form duals
    /// (undoing the row negation).
    pub fn recover_duals(&self, y_std: &[f64]) -> Vec<f64> {
        y_std
            .iter()
            .zip(&self.row_negated)
            .map(|(y, neg)| if *neg { -y } else { *y })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinExpr;
    use crate::standard::StandardForm;

    /// The sparse form must be entry-for-entry identical to the dense one.
    #[test]
    fn matches_dense_standard_form() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(2.0, 3.0);
        m.add_constraint(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Le, 10.0);
        m.add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Ge, 4.0);
        m.add_constraint(LinExpr::from_terms([(y, 1.0)]), Cmp::Eq, 1.0); // negated
        m.add_constraint(LinExpr::from_terms([(x, 1.0), (x, 2.0)]), Cmp::Le, 9.0); // dup terms

        let dense = StandardForm::build(&m);
        let sparse = SparseForm::build(&m);
        assert_eq!(sparse.m, dense.m);
        assert_eq!(sparse.n, dense.n);
        assert_eq!(sparse.n_orig, dense.n_orig);
        assert_eq!(sparse.b, dense.b);
        assert_eq!(sparse.c, dense.c);
        assert_eq!(sparse.shift, dense.shift);
        assert_eq!(sparse.row_negated, dense.row_negated);
        assert_eq!(sparse.slack_col, dense.slack_col);
        for r in 0..dense.m {
            for j in 0..dense.n {
                assert_eq!(sparse.at(r, j), dense.at(r, j), "entry ({r},{j})");
            }
        }
    }

    #[test]
    fn columns_stay_sorted_after_append() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        m.add_constraint(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Ge, 3.0);
        let mut sf = SparseForm::build(&m);
        let (m0, n0) = (sf.m, sf.n);
        sf.append_row(&[(0, -1.0)], -2.0); // x >= 2, session orientation
        assert_eq!(sf.m, m0 + 1);
        assert_eq!(sf.n, n0 + 1);
        assert_eq!(sf.at(m0, 0), -1.0);
        assert_eq!(sf.at(m0, n0), 1.0);
        assert_eq!(sf.b[m0], -2.0); // appended rows are not sign-normalized
        for col in &sf.cols {
            assert!(col.windows(2).all(|w| w[0].0 < w[1].0), "unsorted column");
        }
    }

    #[test]
    fn row_lines_hold_every_entry_by_ascending_column() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        m.add_constraint(LinExpr::from_terms([(x, 1.0), (y, 2.0)]), Cmp::Le, 4.0);
        m.add_constraint(LinExpr::from_terms([(y, 3.0)]), Cmp::Eq, 1.0);
        let mut sf = SparseForm::build(&m);
        sf.append_row(&[(0, -1.0), (1, 5.0)], 2.0);
        let rows = sf.row_lines();
        assert_eq!(rows.nnz(), sf.cols.iter().map(Vec::len).sum::<usize>());
        for i in 0..sf.m {
            let (js, vs) = rows.line(i);
            assert!(js.windows(2).all(|w| w[0] < w[1]), "row {i} unsorted");
            let expect: Vec<(u32, f64)> = (0..sf.n)
                .filter(|&j| sf.at(i, j) != 0.0)
                .map(|j| (j as u32, sf.at(i, j)))
                .collect();
            let got: Vec<(u32, f64)> = js.iter().copied().zip(vs.iter().copied()).collect();
            assert_eq!(got, expect, "row {i}");
        }
    }

    #[test]
    fn cancelling_duplicates_are_dropped() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        m.add_constraint(
            LinExpr::from_terms([(x, 1.0), (x, -1.0), (y, 2.0)]),
            Cmp::Le,
            4.0,
        );
        let sf = SparseForm::build(&m);
        assert!(sf.cols[0].is_empty());
        assert_eq!(sf.at(0, 1), 2.0);
    }
}
