//! Basis factorization for the revised simplex: a sparse LU of the basis
//! plus product-form updates.
//!
//! The factorization represents `B^{-1}` as an ordered list of sparse
//! operators applied left to right:
//!
//! * a **base** sparse LU, `P B Q = L U`, of the basis columns (see
//!   below);
//! * one **pivot eta** per simplex basis change (`B_new^{-1} = E ·
//!   B_old^{-1}`);
//! * one **append block** per incremental row batch: appending `k` rows
//!   whose fresh slacks enter the basis gives `B_new = [[B, 0], [C, I]]`,
//!   whose inverse `[[B^{-1}, 0], [-C·B^{-1}, I]]` is applied without
//!   touching the existing factors at all — the sparse analogue of
//!   `Tableau::append_rows`, but `O(nnz(C))` instead of a full re-layout.
//!
//! `ftran` applies the operators in order (`x = B^{-1} v`), `btran`
//! applies their transposes in reverse (`y = B^{-T} v`).
//!
//! # The base LU ([`Lu`])
//!
//! The build runs in two stages. It first **peels the singleton
//! columns** (slacks, surpluses, artificials): each pivots on its own
//! row, and the structural entries of those rows become the slack-row
//! block of `U`; `L` gains nothing. What is left is the **kernel**: the
//! structural columns over the rows no singleton took. The kernel is
//! eliminated right-looking in Markowitz order: at each step the pivot
//! is the active entry with the least `(r - 1)(c - 1)` (its row and
//! column counts less one) among those at least [`PIVOT_THRESHOLD`]
//! times their column's largest magnitude, found by searching the
//! columns, then the rows, of count 1, 2, … in ascending index until no
//! unsearched entry can do better or [`MARKOWITZ_SEARCH`] lines have
//! been searched; ties go to the smallest column, then row. Count-1
//! lines cost nothing, so the kernel's triangular singletons go first.
//! Entries that cancel to exactly `0.0` leave the pattern. The factor is
//! a pure function of the basis.
//!
//! `L` and `U` are stored twice, column-wise and row-wise, each as a
//! structure-of-arrays `u32` index / `f64` value stream ([`Lines`]).
//! FTRAN sweeps `L` by columns forward and `U` by columns backward;
//! BTRAN sweeps `U` by rows forward and `L` by rows backward. Both skip
//! every pivot whose value is exactly `0.0`, so a sparse right-hand side
//! (a pivot row `e_pos`) reads only the factor entries it reaches.
//!
//! # Pivot etas ([`EtaFile`])
//!
//! Pivot etas live in one structure-of-arrays file: a shared `u32`
//! row-index stream plus a parallel `f64` value stream, with each eta
//! holding an offset range. Low-fill columns stay in that arena (sorted
//! by row index, so accumulation order — and therefore the solve's bit
//! pattern — is deterministic); high-fill columns are promoted to
//! **64-byte-aligned dense blocks** ([`F64x8`], one cache line each)
//! whose fixed-eight-lane inner loops the compiler autovectorizes. The
//! one partial tail block a dense column can have at the vector's end
//! goes through a safe-indexing scalar fallback that is kept under test
//! against the blocked path. Whether a column is sparse or dense depends
//! only on its fill pattern, never on the thread count, so the
//! representation choice cannot perturb cross-thread bit identity.

use std::collections::BTreeSet;

use crate::sparse::{Lines, SparseCol};

/// Absolute pivot tolerance of the factorization: an entry this small
/// never pivots.
const FACTOR_TOL: f64 = 1e-11;

/// Threshold partial pivoting: a kernel entry may pivot only if its
/// magnitude is at least this fraction of the largest in its active
/// column, which bounds the multipliers in `L` by `1 / PIVOT_THRESHOLD`.
const PIVOT_THRESHOLD: f64 = 0.1;

/// Lines (columns or rows) the Markowitz search examines before it
/// settles for the best candidate found so far, if it holds one.
const MARKOWITZ_SEARCH: usize = 4;

/// Pivot etas tolerated since the last refactorization before
/// [`Factor::needs_refactor`] fires. Short enough to bound both the
/// per-ftran eta work and accumulated floating-point drift.
const ETA_REFRESH: usize = 64;

/// Minimum nonzeros before a column is even considered for dense blocks.
const DENSE_MIN_NNZ: usize = 16;

/// Marks an unpivoted row or column, or a row or column outside a bucket.
const NONE: u32 = u32::MAX;

/// Eight `f64` lanes on one 64-byte cache line: the unit of dense eta
/// storage, aligned so a block never straddles two lines.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy, Default)]
struct F64x8([f64; 8]);

/// Where one eta's off-pivot column lives.
#[derive(Debug, Clone)]
enum EtaBody {
    /// Offset range into the [`EtaFile`] row/value streams (sorted rows).
    Sparse { start: usize, end: usize },
    /// Dense cache-line blocks covering rows
    /// `8 * first_block .. 8 * (first_block + blocks.len())`; absent rows
    /// hold `0.0`.
    Dense {
        first_block: usize,
        blocks: Box<[F64x8]>,
    },
}

/// One pivot eta: the transformed entering column split into the pivot
/// entry `wr` (row `r`) and the remaining nonzeros in `body`.
#[derive(Debug, Clone)]
struct EtaRef {
    r: usize,
    wr: f64,
    body: EtaBody,
    /// Nonzeros: the body's plus the pivot.
    nnz: u64,
}

/// The structure-of-arrays store of the pivot etas.
#[derive(Debug, Clone, Default)]
struct EtaFile {
    rows: Vec<u32>,
    vals: Vec<f64>,
    etas: Vec<EtaRef>,
}

/// `v[8b..8b+8] -= w * t` over dense blocks: full blocks go through a
/// fixed-lane loop the compiler vectorizes, the partial tail block (if
/// the vector ends mid-block) through [`axpy_tail`].
fn dense_axpy(v: &mut [f64], first_block: usize, blocks: &[F64x8], t: f64) {
    let mut base = first_block * 8;
    for blk in blocks {
        if base + 8 <= v.len() {
            let dst: &mut [f64; 8] = (&mut v[base..base + 8]).try_into().expect("full block");
            for (slot, &w) in dst.iter_mut().zip(blk.0.iter()) {
                *slot -= w * t;
            }
        } else {
            axpy_tail(v, base, &blk.0, t);
        }
        base += 8;
    }
}

/// Safe-indexing scalar fallback for a partial tail block.
fn axpy_tail(v: &mut [f64], base: usize, lanes: &[f64; 8], t: f64) {
    for (lane, &w) in lanes.iter().enumerate() {
        if let Some(slot) = v.get_mut(base + lane) {
            *slot -= w * t;
        }
    }
}

/// `sum_i w[i] * v[i]` over dense blocks with eight independent lane
/// accumulators (vectorizable without reassociating within a lane),
/// horizontally summed in lane order at the end — a fixed, deterministic
/// accumulation order.
fn dense_dot(v: &[f64], first_block: usize, blocks: &[F64x8]) -> f64 {
    let mut acc = [0.0f64; 8];
    let mut base = first_block * 8;
    for blk in blocks {
        if base + 8 <= v.len() {
            let src: &[f64; 8] = v[base..base + 8].try_into().expect("full block");
            for lane in 0..8 {
                acc[lane] += blk.0[lane] * src[lane];
            }
        } else {
            for (lane, &w) in blk.0.iter().enumerate() {
                if let Some(&x) = v.get(base + lane) {
                    acc[lane] += w * x;
                }
            }
        }
        base += 8;
    }
    let mut s = 0.0;
    for lane in acc {
        s += lane;
    }
    s
}

impl EtaFile {
    fn len(&self) -> usize {
        self.etas.len()
    }

    /// Stores one eta column. `entries` is sorted by row index and never
    /// contains the pivot row `r`. Columns with at least [`DENSE_MIN_NNZ`]
    /// nonzeros averaging two or more per spanned cache line go dense;
    /// everything else lands in the shared arena. The choice is a pure
    /// function of the fill pattern.
    fn push(&mut self, r: usize, wr: f64, entries: &[(usize, f64)]) {
        let dense = entries.len() >= DENSE_MIN_NNZ && {
            let lo = entries[0].0 / 8;
            let hi = entries[entries.len() - 1].0 / 8;
            entries.len() * 4 >= (hi - lo + 1) * 8
        };
        self.push_with_layout(r, wr, entries, dense);
    }

    fn push_with_layout(&mut self, r: usize, wr: f64, entries: &[(usize, f64)], dense: bool) {
        let body = if dense && !entries.is_empty() {
            let lo = entries[0].0 / 8;
            let hi = entries[entries.len() - 1].0 / 8;
            let mut blocks = vec![F64x8::default(); hi - lo + 1].into_boxed_slice();
            for &(i, v) in entries {
                blocks[i / 8 - lo].0[i % 8] = v;
            }
            EtaBody::Dense {
                first_block: lo,
                blocks,
            }
        } else {
            let start = self.rows.len();
            for &(i, v) in entries {
                self.rows.push(i as u32);
                self.vals.push(v);
            }
            EtaBody::Sparse {
                start,
                end: self.rows.len(),
            }
        };
        self.etas.push(EtaRef {
            r,
            wr,
            body,
            nnz: entries.len() as u64 + 1,
        });
    }

    /// `v <- E_k v` where `E_k` maps the stored column to the unit vector
    /// `e_r`.
    #[inline]
    fn ftran_eta(&self, k: usize, v: &mut [f64]) {
        let e = &self.etas[k];
        let t = v[e.r];
        if t != 0.0 {
            let t = t / e.wr;
            match &e.body {
                EtaBody::Sparse { start, end } => {
                    let rows = &self.rows[*start..*end];
                    let vals = &self.vals[*start..*end];
                    for (i, w) in rows.iter().zip(vals) {
                        v[*i as usize] -= w * t;
                    }
                }
                EtaBody::Dense {
                    first_block,
                    blocks,
                } => dense_axpy(v, *first_block, blocks, t),
            }
            v[e.r] = t;
        }
    }

    /// `v <- E_k' v`: only component `r` changes.
    #[inline]
    fn btran_eta(&self, k: usize, v: &mut [f64]) {
        let e = &self.etas[k];
        let mut s = v[e.r];
        match &e.body {
            EtaBody::Sparse { start, end } => {
                let rows = &self.rows[*start..*end];
                let vals = &self.vals[*start..*end];
                for (i, w) in rows.iter().zip(vals) {
                    s -= w * v[*i as usize];
                }
            }
            EtaBody::Dense {
                first_block,
                blocks,
            } => s -= dense_dot(v, *first_block, blocks),
        }
        v[e.r] = s / e.wr;
    }
}

/// The base factorization `P B Q = L U`. Pivot `k` sits on basis row
/// `row[k]` and basis position `pos[k]`, with `U`'s diagonal entry
/// `diag[k]`; `L` is unit lower triangular in pivot order. The first
/// `peeled` pivots are the singleton columns, whose `L` lines are empty.
#[derive(Debug, Clone, Default)]
struct Lu {
    row: Vec<u32>,
    pos: Vec<u32>,
    diag: Vec<f64>,
    peeled: usize,
    /// Per pivot `k`: the multipliers below it, indexed by row.
    l_cols: Lines,
    /// Per pivot `k`: the `L` entries of row `row[k]`, indexed by the row
    /// of the pivot whose column holds them.
    l_rows: Lines,
    /// Per pivot `k`: the `U` entries above it in column `pos[k]`, indexed
    /// by the row of the pivot whose row holds them.
    u_cols: Lines,
    /// Per pivot `k`: the `U` entries right of it in row `row[k]`, indexed
    /// by basis position.
    u_rows: Lines,
}

impl Lu {
    /// Entries stored once each: `L`, `U` with its slack-row block, and
    /// the diagonal.
    fn nnz(&self) -> u64 {
        (self.l_cols.nnz() + self.u_rows.nnz() + self.diag.len()) as u64
    }

    /// `x = Q U^{-1} L^{-1} P w`: `w` is indexed by row and consumed, `x`
    /// is written by basis position.
    fn ftran(&self, w: &mut [f64], x: &mut [f64]) {
        for k in self.peeled..self.row.len() {
            let t = w[self.row[k] as usize];
            if t != 0.0 {
                let (is, ls) = self.l_cols.line(k);
                for (&i, &l) in is.iter().zip(ls) {
                    w[i as usize] -= l * t;
                }
            }
        }
        for k in (0..self.row.len()).rev() {
            let s = w[self.row[k] as usize];
            let p = self.pos[k] as usize;
            if s == 0.0 {
                x[p] = 0.0;
                continue;
            }
            let t = s / self.diag[k];
            x[p] = t;
            let (is, us) = self.u_cols.line(k);
            for (&i, &u) in is.iter().zip(us) {
                w[i as usize] -= u * t;
            }
        }
    }

    /// `y = P' L^{-T} U^{-T} Q' s`: `s` is indexed by basis position and
    /// consumed, `y` is written by row. Returns the factor entries read.
    fn btran(&self, s: &mut [f64], y: &mut [f64]) -> u64 {
        let mut read = 0;
        for k in 0..self.row.len() {
            let a = s[self.pos[k] as usize];
            let r = self.row[k] as usize;
            if a == 0.0 {
                y[r] = 0.0;
                continue;
            }
            let t = a / self.diag[k];
            y[r] = t;
            let (ps, us) = self.u_rows.line(k);
            read += 1 + ps.len() as u64;
            for (&p, &u) in ps.iter().zip(us) {
                s[p as usize] -= u * t;
            }
        }
        for k in (self.peeled..self.row.len()).rev() {
            let t = y[self.row[k] as usize];
            if t != 0.0 {
                let (is, ls) = self.l_rows.line(k);
                read += is.len() as u64;
                for (&i, &l) in is.iter().zip(ls) {
                    y[i as usize] -= l * t;
                }
            }
        }
        read
    }
}

/// Rows or columns of the active kernel grouped by their entry count,
/// each group in ascending index order, so the Markowitz search meets
/// ties smallest index first.
struct Buckets {
    by_count: Vec<BTreeSet<u32>>,
    count_of: Vec<u32>,
}

impl Buckets {
    fn new(n: usize) -> Self {
        Buckets {
            by_count: Vec::new(),
            count_of: vec![NONE; n],
        }
    }

    fn place(&mut self, m: usize, count: usize) {
        let old = self.count_of[m];
        if old as usize == count {
            return;
        }
        self.remove(m);
        if self.by_count.len() <= count {
            self.by_count.resize_with(count + 1, BTreeSet::new);
        }
        self.by_count[count].insert(m as u32);
        self.count_of[m] = count as u32;
    }

    fn remove(&mut self, m: usize) {
        let old = std::mem::replace(&mut self.count_of[m], NONE);
        if old != NONE {
            self.by_count[old as usize].remove(&(m as u32));
        }
    }

    fn with_count(&self, count: usize) -> impl Iterator<Item = usize> + '_ {
        self.by_count
            .get(count)
            .into_iter()
            .flatten()
            .map(|&m| m as usize)
    }
}

/// The kernel during elimination: active entries column-wise (the values
/// live here), the row-wise pattern, and the count buckets of both.
struct Active {
    cols: Vec<Vec<(u32, f64)>>,
    rows: Vec<Vec<u32>>,
    col_counts: Buckets,
    row_counts: Buckets,
    /// Scratch: slot of each row in the column being updated.
    slot: Vec<u32>,
}

/// A pivot candidate `(Markowitz cost, column, row)`.
type Candidate = (usize, usize, usize);

impl Active {
    /// Whether `a` may pivot in a column whose largest magnitude is `max`.
    fn eligible(a: f64, max: f64) -> bool {
        a.abs() > FACTOR_TOL && a.abs() >= PIVOT_THRESHOLD * max
    }

    fn offer(best: &mut Option<Candidate>, c: Candidate) {
        if best.is_none_or(|b| c < b) {
            *best = Some(c);
        }
    }

    /// The pivot `(column, row)`, or `None` when no active entry is
    /// eligible (the kernel is numerically singular).
    fn choose_pivot(&self) -> Option<(usize, usize)> {
        let mut best: Option<Candidate> = None;
        let mut searched = 0;
        let settled = |best: &Option<Candidate>, floor: usize, searched: usize| {
            best.is_some_and(|b| b.0 <= floor || searched >= MARKOWITZ_SEARCH)
        };
        let top = self
            .col_counts
            .by_count
            .len()
            .max(self.row_counts.by_count.len());
        for k in 1..top {
            // Unsearched entries now lie in rows and columns of count k
            // or more.
            for j in self.col_counts.with_count(k) {
                let col = &self.cols[j];
                let max = col.iter().fold(0.0f64, |m, e| m.max(e.1.abs()));
                for &(i, a) in col {
                    if Self::eligible(a, max) {
                        let cost = (self.rows[i as usize].len() - 1) * (k - 1);
                        Self::offer(&mut best, (cost, j, i as usize));
                    }
                }
                searched += 1;
                if settled(&best, (k - 1) * (k - 1), searched) {
                    return best.map(|b| (b.1, b.2));
                }
            }
            // Columns of count k are searched: the rest have more.
            for i in self.row_counts.with_count(k) {
                for &j in &self.rows[i] {
                    let col = &self.cols[j as usize];
                    let max = col.iter().fold(0.0f64, |m, e| m.max(e.1.abs()));
                    let a = col.iter().find(|e| e.0 as usize == i).expect("pattern").1;
                    if Self::eligible(a, max) {
                        let cost = (k - 1) * (col.len() - 1);
                        Self::offer(&mut best, (cost, j as usize, i));
                    }
                }
                searched += 1;
                if settled(&best, k * (k - 1), searched) {
                    return best.map(|b| (b.1, b.2));
                }
            }
            if settled(&best, k * k, searched) {
                return best.map(|b| (b.1, b.2));
            }
        }
        best.map(|b| (b.1, b.2))
    }

    /// Eliminates pivot `(c, r)`: moves row `r`'s other entries to `urow`
    /// and column `c`'s multipliers to `lcol` (both sorted by index),
    /// then applies the rank-one Schur update to the kernel. Returns
    /// `None` when a row or column is left empty (singular).
    fn eliminate(
        &mut self,
        c: usize,
        r: usize,
        urow: &mut Vec<(u32, f64)>,
        lcol: &mut Vec<(u32, f64)>,
    ) -> Option<f64> {
        let d = self.cols[c].iter().find(|e| e.0 as usize == r)?.1;
        urow.clear();
        lcol.clear();
        for j in std::mem::take(&mut self.rows[r]) {
            if j as usize == c {
                continue;
            }
            let col = &mut self.cols[j as usize];
            let at = col.iter().position(|e| e.0 as usize == r).expect("pattern");
            urow.push((j, col.swap_remove(at).1));
        }
        for (i, a) in std::mem::take(&mut self.cols[c]) {
            if i as usize == r {
                continue;
            }
            let row = &mut self.rows[i as usize];
            let at = row.iter().position(|&j| j as usize == c).expect("pattern");
            row.swap_remove(at);
            lcol.push((i, a / d));
        }
        urow.sort_unstable_by_key(|e| e.0);
        lcol.sort_unstable_by_key(|e| e.0);
        self.col_counts.remove(c);
        self.row_counts.remove(r);

        for &(j, u) in urow.iter() {
            let j = j as usize;
            let col = &mut self.cols[j];
            for (at, e) in col.iter().enumerate() {
                self.slot[e.0 as usize] = at as u32;
            }
            for &(i, l) in lcol.iter() {
                let at = self.slot[i as usize];
                if at == NONE {
                    col.push((i, -(l * u)));
                    self.rows[i as usize].push(j as u32);
                } else {
                    col[at as usize].1 -= l * u;
                }
            }
            for e in col.iter() {
                self.slot[e.0 as usize] = NONE;
            }
            // Exact cancellations leave the pattern.
            let mut at = 0;
            while at < col.len() {
                if col[at].1 == 0.0 {
                    let i = col.swap_remove(at).0 as usize;
                    let row = &mut self.rows[i];
                    let k = row.iter().position(|&x| x as usize == j).expect("pattern");
                    row.swap_remove(k);
                } else {
                    at += 1;
                }
            }
            if col.is_empty() {
                return None;
            }
            self.col_counts.place(j, col.len());
        }
        for &(i, _) in lcol.iter() {
            let n = self.rows[i as usize].len();
            if n == 0 {
                return None;
            }
            self.row_counts.place(i as usize, n);
        }
        Some(d)
    }
}

impl Lu {
    /// Appends pivot `(r, p)` with diagonal `d`, noting its step in the
    /// row and position maps.
    fn record(&mut self, of_row: &mut [u32], of_pos: &mut [u32], r: usize, p: usize, d: f64) {
        of_row[r] = self.row.len() as u32;
        of_pos[p] = self.row.len() as u32;
        self.row.push(r as u32);
        self.pos.push(p as u32);
        self.diag.push(d);
    }

    /// Factorizes the basis columns (position order); `None` when the
    /// basis is singular.
    fn build<C: AsRef<[(usize, f64)]>>(cols: &[C]) -> Option<Lu> {
        let dim = cols.len();
        let mut pivot_of_row = vec![NONE; dim];
        let mut pivot_of_pos = vec![NONE; dim];
        let mut lu = Lu::default();

        // Peel the singleton columns onto their rows, in position order.
        for (p, col) in cols.iter().enumerate() {
            if let &[(r, d)] = col.as_ref() {
                if pivot_of_row[r] != NONE || d.abs() <= FACTOR_TOL {
                    return None; // two unit columns on one row, or a zero column
                }
                lu.record(&mut pivot_of_row, &mut pivot_of_pos, r, p, d);
            }
        }
        lu.peeled = lu.row.len();

        // Split the other columns into the active kernel and, grouped by
        // position first, their entries on the peeled rows: the
        // slack-row block of U.
        let mut active = Active {
            cols: vec![Vec::new(); dim],
            rows: vec![Vec::new(); dim],
            col_counts: Buckets::new(dim),
            row_counts: Buckets::new(dim),
            slot: vec![NONE; dim],
        };
        let mut block = Lines::default();
        for (p, col) in cols.iter().enumerate() {
            if pivot_of_pos[p] == NONE {
                for &(i, a) in col.as_ref() {
                    if pivot_of_row[i] != NONE {
                        block.idx.push(i as u32);
                        block.val.push(a);
                    } else {
                        active.cols[p].push((i as u32, a));
                        active.rows[i].push(p as u32);
                    }
                }
                if active.cols[p].is_empty() {
                    return None; // lives on the singletons' rows only
                }
                active.col_counts.place(p, active.cols[p].len());
            }
            block.start.push(block.idx.len() as u32);
        }
        let positions: Vec<u32> = (0..dim as u32).collect();
        lu.u_rows = block.transpose(&pivot_of_row, &positions, lu.peeled);
        lu.l_cols.start = vec![0; lu.peeled + 1];
        for (r, &k) in pivot_of_row.iter().enumerate() {
            if k == NONE {
                let n = active.rows[r].len();
                if n == 0 {
                    return None; // a row no column reaches
                }
                active.row_counts.place(r, n);
            }
        }

        // Eliminate the kernel in Markowitz order.
        let (mut urow, mut lcol) = (Vec::new(), Vec::new());
        while lu.row.len() < dim {
            let (c, r) = active.choose_pivot()?;
            let d = active.eliminate(c, r, &mut urow, &mut lcol)?;
            lu.record(&mut pivot_of_row, &mut pivot_of_pos, r, c, d);
            lu.u_rows.push_line(&urow);
            lu.l_cols.push_line(&lcol);
        }

        lu.u_cols = lu.u_rows.transpose(&pivot_of_pos, &lu.row, dim);
        lu.l_rows = lu.l_cols.transpose(&pivot_of_row, &lu.row, dim);
        Some(lu)
    }
}

/// A post-base update operator.
#[derive(Debug, Clone)]
enum Update {
    /// Pivot eta in basis-position space, indexing into the eta file.
    Eta(usize),
    /// `k` appended rows with slack pivots: `rows[k']` holds the appended
    /// row's coefficients on the *basis positions* `0..base` (sorted).
    Append { base: usize, rows: Vec<SparseCol> },
}

/// The basis factorization: base sparse LU plus pivot-eta and
/// append-block updates. See the module docs for the operator algebra
/// and the storage layout.
#[derive(Debug, Clone)]
pub(crate) struct Factor {
    /// Current basis dimension.
    dim: usize,
    /// Dimension covered by the base factorization.
    base_dim: usize,
    lu: Lu,
    /// Pivot etas, in application order.
    file: EtaFile,
    updates: Vec<Update>,
    /// Pivot etas accumulated since the base was (re)built.
    pivot_etas: usize,
    /// Nonzeros of the factored basis (`lp.basis_nnz`).
    basis_nnz: u64,
}

impl Factor {
    /// Factorizes the basis given as sparse columns (position order).
    /// Returns `None` when the basis is singular.
    pub fn build<C: AsRef<[(usize, f64)]>>(cols: &[C]) -> Option<Factor> {
        let lu = Lu::build(cols)?;
        let dim = cols.len();
        Some(Factor {
            dim,
            base_dim: dim,
            lu,
            file: EtaFile::default(),
            updates: Vec::new(),
            pivot_etas: 0,
            basis_nnz: cols.iter().map(|c| c.as_ref().len() as u64).sum(),
        })
    }

    /// Current basis dimension.
    #[cfg(test)]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Entries the base factorization stores (`lp.factor_nnz`): `L`, `U`
    /// with its slack-row block, and the diagonal.
    pub fn nnz(&self) -> u64 {
        self.lu.nnz()
    }

    /// Nonzeros of the basis the base factorization factored
    /// (`lp.basis_nnz`).
    pub fn basis_nnz(&self) -> u64 {
        self.basis_nnz
    }

    /// Number of update operators since the last (re)build — the
    /// `lp.eta_len` observable.
    pub fn eta_len(&self) -> usize {
        self.updates.len()
    }

    /// `true` once enough pivot etas have accumulated that a fresh
    /// factorization is cheaper (and numerically safer) than applying them.
    pub fn needs_refactor(&self) -> bool {
        self.pivot_etas >= ETA_REFRESH
    }

    /// Records a simplex basis change: the entering column's ftran image
    /// `w` (dense) replaces basis position `pos`.
    pub fn push_pivot(&mut self, pos: usize, w: &[f64]) {
        debug_assert_eq!(w.len(), self.dim);
        let mut col: Vec<(usize, f64)> = Vec::new();
        for (i, &v) in w.iter().enumerate() {
            if i != pos && v != 0.0 {
                col.push((i, v));
            }
        }
        self.file.push(pos, w[pos], &col);
        self.updates.push(Update::Eta(self.file.len() - 1));
        self.pivot_etas += 1;
    }

    /// Records an appended row block whose fresh slacks enter the basis:
    /// `rows[k']` holds row `k'`'s coefficients on the current basis
    /// positions (sorted by position). The basis dimension grows by
    /// `rows.len()`.
    pub fn push_append(&mut self, rows: Vec<SparseCol>) {
        let k = rows.len();
        self.updates.push(Update::Append {
            base: self.dim,
            rows,
        });
        self.dim += k;
    }

    /// `v <- B^{-1} v`. `scratch` is caller-owned storage reused across
    /// calls (resized as needed).
    pub fn ftran(&self, v: &mut [f64], scratch: &mut Vec<f64>) {
        debug_assert_eq!(v.len(), self.dim);
        scratch.clear();
        scratch.extend_from_slice(&v[..self.base_dim]);
        self.lu.ftran(scratch, &mut v[..self.base_dim]);
        for u in &self.updates {
            match u {
                Update::Eta(k) => self.file.ftran_eta(*k, v),
                Update::Append { base, rows } => {
                    for (k, row) in rows.iter().enumerate() {
                        let mut s = 0.0;
                        for &(i, ci) in row {
                            s += ci * v[i];
                        }
                        v[base + k] -= s;
                    }
                }
            }
        }
    }

    /// `v <- B^{-T} v`: the transposed operators applied in reverse.
    /// Returns the stored factor entries it read (`lp.btran_entries`).
    pub fn btran(&self, v: &mut [f64], scratch: &mut Vec<f64>) -> u64 {
        debug_assert_eq!(v.len(), self.dim);
        let mut read = 0;
        for u in self.updates.iter().rev() {
            match u {
                Update::Eta(k) => {
                    self.file.btran_eta(*k, v);
                    read += self.file.etas[*k].nnz;
                }
                Update::Append { base, rows } => {
                    for (k, row) in rows.iter().enumerate() {
                        let f = v[base + k];
                        if f != 0.0 {
                            for &(i, ci) in row {
                                v[i] -= ci * f;
                            }
                            read += row.len() as u64;
                        }
                    }
                }
            }
        }
        scratch.clear();
        scratch.extend_from_slice(&v[..self.base_dim]);
        read + self.lu.btran(scratch, &mut v[..self.base_dim])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_cols(a: &[&[f64]]) -> Vec<SparseCol> {
        let dim = a.len();
        (0..dim)
            .map(|j| {
                (0..dim)
                    .filter(|&i| a[i][j] != 0.0)
                    .map(|i| (i, a[i][j]))
                    .collect()
            })
            .collect()
    }

    fn mat_vec(a: &[&[f64]], x: &[f64]) -> Vec<f64> {
        a.iter()
            .map(|row| row.iter().zip(x).map(|(r, v)| r * v).sum())
            .collect()
    }

    fn mat_t_vec(a: &[&[f64]], x: &[f64]) -> Vec<f64> {
        let n = a.len();
        (0..n)
            .map(|j| (0..n).map(|i| a[i][j] * x[i]).sum())
            .collect()
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn ftran_btran_invert_a_dense_basis() {
        let a: &[&[f64]] = &[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]];
        let f = Factor::build(&dense_cols(a)).unwrap();
        let x = vec![1.0, -2.0, 0.5];
        let mut scratch = Vec::new();

        let mut v = mat_vec(a, &x); // v = A x  =>  ftran(v) == x
        f.ftran(&mut v, &mut scratch);
        assert_close(&v, &x);

        let mut v = mat_t_vec(a, &x); // v = A' x  =>  btran(v) == x
        f.btran(&mut v, &mut scratch);
        assert_close(&v, &x);
    }

    #[test]
    fn singular_basis_is_rejected() {
        let a: &[&[f64]] = &[&[1.0, 2.0], &[2.0, 4.0]];
        assert!(Factor::build(&dense_cols(a)).is_none());
    }

    #[test]
    fn pivot_eta_tracks_a_column_replacement() {
        let a: &[&[f64]] = &[&[1.0, 1.0], &[0.0, 2.0]];
        let mut f = Factor::build(&dense_cols(a)).unwrap();
        let mut scratch = Vec::new();
        // Replace position 0 with column q = (3, 1)'.
        let mut w = vec![3.0, 1.0];
        f.ftran(&mut w, &mut scratch);
        f.push_pivot(0, &w);
        // New basis: [[3, 1], [1, 2]].
        let b2: &[&[f64]] = &[&[3.0, 1.0], &[1.0, 2.0]];
        let x = vec![0.5, -1.5];
        let mut v = mat_vec(b2, &x);
        f.ftran(&mut v, &mut scratch);
        assert_close(&v, &x);
        let mut v = mat_t_vec(b2, &x);
        f.btran(&mut v, &mut scratch);
        assert_close(&v, &x);
    }

    #[test]
    fn append_block_matches_the_block_inverse() {
        // B = [[2, 0], [1, 1]]; appended row contributes C = (5, 7) and a
        // unit slack, so B_new = [[B, 0], [C, 1]].
        let b0: &[&[f64]] = &[&[2.0, 0.0], &[1.0, 1.0]];
        let mut f = Factor::build(&dense_cols(b0)).unwrap();
        f.push_append(vec![vec![(0, 5.0), (1, 7.0)]]);
        assert_eq!(f.dim(), 3);
        let b1: &[&[f64]] = &[&[2.0, 0.0, 0.0], &[1.0, 1.0, 0.0], &[5.0, 7.0, 1.0]];
        let mut scratch = Vec::new();
        let x = vec![1.0, 2.0, -1.0];
        let mut v = mat_vec(b1, &x);
        f.ftran(&mut v, &mut scratch);
        assert_close(&v, &x);
        let mut v = mat_t_vec(b1, &x);
        f.btran(&mut v, &mut scratch);
        assert_close(&v, &x);
    }

    #[test]
    fn refactor_trigger_fires_after_enough_pivots() {
        let a: &[&[f64]] = &[&[1.0, 0.0], &[0.0, 1.0]];
        let mut f = Factor::build(&dense_cols(a)).unwrap();
        assert!(!f.needs_refactor());
        for _ in 0..ETA_REFRESH {
            f.push_pivot(0, &[1.0, 0.0]);
        }
        assert!(f.needs_refactor());
        assert_eq!(f.eta_len(), ETA_REFRESH);
    }

    /// Deterministic value noise for the representation tests.
    fn noise(i: usize) -> f64 {
        1.0 + ((i * 37 + 11) % 97) as f64 / 13.0
    }

    #[test]
    fn dense_and_sparse_bodies_apply_identically() {
        // A high-fill column stored both ways must transform bit-for-bit
        // identically (no -0.0 inputs: lane zeros then subtract exactly
        // nothing). 45 of 48 rows filled, pivot at row 20.
        let dim = 48;
        let r = 20;
        let entries: Vec<(usize, f64)> = (0..dim)
            .filter(|&i| i != r && i % 16 != 3)
            .map(|i| (i, noise(i)))
            .collect();
        assert!(entries.len() >= DENSE_MIN_NNZ);
        let mut file = EtaFile::default();
        file.push_with_layout(r, 2.5, &entries, false);
        file.push_with_layout(r, 2.5, &entries, true);
        assert!(matches!(file.etas[0].body, EtaBody::Sparse { .. }));
        assert!(matches!(file.etas[1].body, EtaBody::Dense { .. }));

        let v0: Vec<f64> = (0..dim).map(|i| noise(i + 5) - 4.0).collect();
        let (mut a, mut b) = (v0.clone(), v0.clone());
        file.ftran_eta(0, &mut a);
        file.ftran_eta(1, &mut b);
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "ftran diverged between representations"
        );
        let (mut a, mut b) = (v0.clone(), v0);
        file.btran_eta(0, &mut a);
        file.btran_eta(1, &mut b);
        for (x, y) in a.iter().zip(&b) {
            // btran accumulates lane-wise in the dense path; same result
            // to roundoff, not necessarily the same bits.
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn partial_tail_block_uses_the_safe_fallback() {
        // dim = 21 is not a multiple of 8: the dense column's last block
        // overhangs the vector, forcing the safe-indexing tail path. It
        // must agree with the arena representation of the same column.
        let dim = 21;
        let r = 0;
        let entries: Vec<(usize, f64)> = (1..dim).map(|i| (i, noise(i))).collect();
        let mut file = EtaFile::default();
        file.push_with_layout(r, -1.5, &entries, false);
        file.push_with_layout(r, -1.5, &entries, true);
        match &file.etas[1].body {
            EtaBody::Dense {
                first_block,
                blocks,
            } => {
                assert!(
                    first_block * 8 + blocks.len() * 8 > dim,
                    "tail must overhang"
                );
            }
            EtaBody::Sparse { .. } => panic!("expected a dense body"),
        }

        let v0: Vec<f64> = (0..dim).map(|i| noise(i + 2) - 3.0).collect();
        let (mut a, mut b) = (v0.clone(), v0.clone());
        file.ftran_eta(0, &mut a);
        file.ftran_eta(1, &mut b);
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );
        let (mut a, mut b) = (v0.clone(), v0);
        file.btran_eta(0, &mut a);
        file.btran_eta(1, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn high_fill_pivot_columns_are_promoted_to_dense_blocks() {
        let dim = 64;
        let a: Vec<Vec<f64>> = (0..dim)
            .map(|i| (0..dim).map(|j| if i == j { 4.0 } else { 0.0 }).collect())
            .collect();
        let refs: Vec<&[f64]> = a.iter().map(|r| r.as_slice()).collect();
        let mut f = Factor::build(&dense_cols(&refs)).unwrap();
        // A fully dense entering column must land in block storage.
        let w: Vec<f64> = (0..dim).map(|i| noise(i) / 4.0).collect();
        f.push_pivot(3, &w);
        let Update::Eta(k) = f.updates[0] else {
            panic!("expected a pivot eta");
        };
        assert!(matches!(f.file.etas[k].body, EtaBody::Dense { .. }));
    }

    /// A seeded random sparse basis: a permuted diagonal keeps it
    /// nonsingular in the usual case, a third of the columns stay
    /// singletons, and small dyadic values make exact cancellation common.
    /// Two columns fill a contiguous row band so their etas go dense.
    fn random_basis(seed: u64) -> Vec<SparseCol> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const VALUES: [f64; 6] = [1.0, -1.0, 2.0, -2.0, 0.5, 4.0];
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = rng.gen_range(20usize..121);
        let mut rows: Vec<usize> = (0..dim).collect();
        for i in (1..dim).rev() {
            rows.swap(i, rng.gen_range(0..i + 1));
        }
        let dense_cols = [rng.gen_range(0..dim), rng.gen_range(0..dim)];
        (0..dim)
            .map(|j| {
                let mut col = vec![(rows[j], VALUES[rng.gen_range(0..VALUES.len())])];
                if dense_cols.contains(&j) {
                    let lo = rng.gen_range(0..dim - 18);
                    col.extend((lo..dim.min(lo + 40)).map(|i| (i, VALUES[i % VALUES.len()])));
                } else if rng.gen_range(0..3) != 0 {
                    for _ in 0..rng.gen_range(1usize..5) {
                        col.push((
                            rng.gen_range(0..dim),
                            VALUES[rng.gen_range(0..VALUES.len())],
                        ));
                    }
                }
                col.sort_by_key(|&(i, _)| i);
                col.dedup_by_key(|e| e.0);
                col
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `B x` for a basis given as sparse columns.
    fn col_product(cols: &[SparseCol], x: &[f64]) -> Vec<f64> {
        let mut v = vec![0.0; cols.len()];
        for (col, &xj) in cols.iter().zip(x) {
            for &(i, a) in col {
                v[i] += a * xj;
            }
        }
        v
    }

    /// `B' y` for a basis given as sparse columns.
    fn col_t_product(cols: &[SparseCol], y: &[f64]) -> Vec<f64> {
        cols.iter()
            .map(|col| col.iter().map(|&(i, a)| a * y[i]).sum())
            .collect()
    }

    /// `‖a - b‖∞ / max(1, ‖b‖∞)`.
    fn rel_gap(a: &[f64], b: &[f64]) -> f64 {
        let norm = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        a.iter()
            .zip(b)
            .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
            / norm
    }

    /// Solves `B x = v` and `B' y = v` for a dense and a unit right-hand
    /// side and checks both residuals against the dense products.
    fn assert_solves(cols: &[SparseCol], f: &Factor, label: &str) {
        let dim = cols.len();
        let mut scratch = Vec::new();
        let dense: Vec<f64> = (0..dim).map(|i| noise(i * 7 + 3) - 4.0).collect();
        let mut unit = vec![0.0; dim];
        unit[dim / 2] = 1.0;
        for v in [dense, unit] {
            let mut x = v.clone();
            f.ftran(&mut x, &mut scratch);
            let gap = rel_gap(&col_product(cols, &x), &v);
            assert!(gap <= 1e-9, "{label}: ftran residual {gap:e}");
            let mut y = v.clone();
            f.btran(&mut y, &mut scratch);
            let gap = rel_gap(&col_t_product(cols, &y), &v);
            assert!(gap <= 1e-9, "{label}: btran residual {gap:e}");
        }
    }

    #[test]
    fn lu_solves_match_dense_products() {
        let (mut built, mut kernel_pivots, mut fill) = (0, 0, 0);
        for seed in 0..40 {
            let cols = random_basis(seed);
            let Some(f) = Factor::build(&cols) else {
                continue;
            };
            built += 1;
            assert_solves(&cols, &f, &format!("seed {seed}"));
            kernel_pivots += f.lu.row.len() - f.lu.peeled;
            fill += f.lu.l_cols.nnz();
            // Each entry is stored once in each orientation.
            assert_eq!(f.lu.l_cols.nnz(), f.lu.l_rows.nnz());
            assert_eq!(f.lu.u_rows.nnz(), f.lu.u_cols.nnz());
        }
        assert!(
            built >= 30,
            "only {built} of 40 random bases were nonsingular"
        );
        assert!(kernel_pivots > 0 && fill > 0, "no kernel elimination ran");
    }

    /// Every stream of two factors, compared by bits.
    fn assert_bit_identical(a: &Lu, b: &Lu) {
        assert_eq!((&a.row, &a.pos, a.peeled), (&b.row, &b.pos, b.peeled));
        assert_eq!(bits(&a.diag), bits(&b.diag));
        for (x, y) in [
            (&a.l_cols, &b.l_cols),
            (&a.l_rows, &b.l_rows),
            (&a.u_cols, &b.u_cols),
            (&a.u_rows, &b.u_rows),
        ] {
            assert_eq!((&x.start, &x.idx), (&y.start, &y.idx));
            assert_eq!(bits(&x.val), bits(&y.val));
        }
    }

    #[test]
    fn two_builds_of_one_basis_are_bit_identical() {
        for seed in 0..40 {
            let owned = random_basis(seed);
            // The second build reads the same columns through borrowed
            // slices, as the kernel passes them.
            let borrowed: Vec<&[(usize, f64)]> = owned.iter().map(Vec::as_slice).collect();
            match (Factor::build(&owned), Factor::build(&borrowed)) {
                (Some(a), Some(b)) => {
                    assert_bit_identical(&a.lu, &b.lu);
                    let mut scratch = Vec::new();
                    let v0: Vec<f64> = (0..owned.len()).map(|i| noise(i + 1) - 3.0).collect();
                    let (mut x, mut y) = (v0.clone(), v0.clone());
                    a.ftran(&mut x, &mut scratch);
                    b.ftran(&mut y, &mut scratch);
                    assert_eq!(bits(&x), bits(&y), "ftran, seed {seed}");
                    let (mut x, mut y) = (v0.clone(), v0);
                    a.btran(&mut x, &mut scratch);
                    b.btran(&mut y, &mut scratch);
                    assert_eq!(bits(&x), bits(&y), "btran, seed {seed}");
                }
                (None, None) => {}
                _ => panic!("seed {seed}: the two builds disagree on singularity"),
            }
        }
    }

    #[test]
    fn structurally_and_numerically_singular_bases_are_rejected() {
        let singular: [(&str, Vec<SparseCol>); 6] = [
            ("an empty column", vec![vec![(0, 1.0)], vec![]]),
            (
                "two unit columns on one row",
                vec![vec![(0, 1.0)], vec![(0, 2.0)], vec![(1, 1.0), (2, 1.0)]],
            ),
            (
                "a structural column on the singletons' rows only",
                vec![vec![(0, 1.0)], vec![(1, 1.0)], vec![(0, 1.0), (1, -1.0)]],
            ),
            (
                "a row no column reaches",
                vec![
                    vec![(0, 1.0), (1, 1.0)],
                    vec![(0, 1.0), (1, -1.0)],
                    vec![(0, 2.0), (1, 3.0)],
                ],
            ),
            (
                "a column that is the sum of two others",
                vec![
                    vec![(0, 1.0), (1, 1.0)],
                    vec![(1, 1.0), (2, 1.0)],
                    vec![(0, 1.0), (1, 2.0), (2, 1.0)],
                ],
            ),
            (
                "that sum off by 1e-13",
                vec![
                    vec![(0, 1.0), (1, 1.0)],
                    vec![(1, 1.0), (2, 1.0)],
                    vec![(0, 1.0), (1, 2.0), (2, 1.0 + 1e-13)],
                ],
            ),
        ];
        for (label, cols) in singular {
            assert!(Factor::build(&cols).is_none(), "{label}");
        }
    }

    #[test]
    fn threshold_pivoting_passes_over_a_tiny_markowitz_cheapest_entry() {
        // Entry (0, 0) alone has Markowitz count 1; every other entry
        // costs 2 or more. Below FACTOR_TOL (1e-13) or merely under the
        // threshold (1e-4), it must not pivot.
        for tiny in [1e-13, 1e-4] {
            let cols: Vec<SparseCol> = vec![
                vec![(0, tiny), (1, 1.0)],
                vec![(0, 1.0), (1, 1.0), (2, 1.0)],
                vec![(1, 1.0), (2, 1.0), (3, 1.0)],
                vec![(1, 1.0), (2, -1.0), (3, 2.0)],
            ];
            let f = Factor::build(&cols).expect("nonsingular");
            assert_eq!(f.lu.peeled, 0);
            assert_ne!((f.lu.pos[0], f.lu.row[0]), (0, 0), "tiny {tiny:e}");
            for &d in &f.lu.diag {
                assert!(d.abs() >= PIVOT_THRESHOLD, "tiny {tiny:e}: pivot {d:e}");
            }
            assert_solves(&cols, &f, &format!("tiny {tiny:e}"));
        }
    }

    #[test]
    fn singletons_are_peeled_and_their_rows_form_the_slack_row_block() {
        // Two slacks (positions 1 and 3) and a 2 x 2 structural kernel on
        // rows 1 and 2; the structural entries in the slacks' rows 0 and
        // 3 become U rows of the peeled pivots.
        let cols: Vec<SparseCol> = vec![
            vec![(0, 1.0), (1, 1.0), (2, 1.0)],
            vec![(0, 1.0)],
            vec![(1, 1.0), (2, -1.0), (3, 1.0)],
            vec![(3, -1.0)],
        ];
        let f = Factor::build(&cols).expect("nonsingular");
        assert_eq!(f.lu.peeled, 2);
        assert_eq!(
            (&f.lu.pos[..2], &f.lu.row[..2]),
            (&[1u32, 3][..], &[0u32, 3][..])
        );
        assert_eq!(f.lu.u_rows.line(0).0, &[0u32]);
        assert_eq!(f.lu.u_rows.line(1).0, &[2u32]);
        // 4 diagonal + 2 slack-row + 1 kernel U + 1 L entries.
        assert_eq!(f.nnz(), 8);
        assert_eq!(f.basis_nnz(), 8);
        assert_solves(&cols, &f, "peeled");
    }
}
