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
//! applies their transposes in reverse (`y = B^{-T} v`). The pivot etas
//! and append blocks are applied whole: an FTRAN skips an eta whose
//! pivot entry is zero, a BTRAN reads every eta.
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
//! FTRAN solves with `L` by columns forward and `U` by columns backward;
//! BTRAN with `U` by rows forward and `L` by rows backward.
//!
//! # Hypersparse solves
//!
//! A solve visits only the pivot steps its right-hand side reaches
//! (Gilbert–Peierls). The build keeps each row's and each position's
//! pivot step; a bitmap over the steps marks the right-hand side's
//! steps, and every entry that turns nonzero marks its own step. Each
//! triangle is walked over the marked steps, word by word, in the order
//! a full sweep would take them, and an update only ever reaches a step
//! the walk has yet to visit. So each entry receives the same updates in
//! the same order as in a sweep over every step, and a step whose value
//! is zero writes the `+0.0` the sweep would. A solve costs the steps and
//! factor entries it reaches plus one bitmap word per 64 steps.
//!
//! The peeled steps have no `U` columns, so FTRAN may finish them in any
//! order once the kernel steps are done: the rows its `U` pass fills are
//! listed without a branch, and only the kernel ones are marked.
//!
//! A sparse work vector travels with its pattern: the indices of the
//! entries that may hold anything but `+0.0`, listed in ascending order
//! on return. Its consumers walk the pattern instead of every row, and
//! keep their `!= 0.0` tests, since a listed entry may have cancelled to
//! zero. A dense right-hand side comes without a pattern: each of its
//! entries marks its step unless it is `+0.0`, and the walks are the
//! same.
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
    /// `e_r`, marking in `seen` the rows it writes. Row `r` is already
    /// marked whenever the eta applies: it holds a nonzero.
    #[inline]
    fn ftran_eta(&self, k: usize, v: &mut [f64], seen: &mut [u64]) {
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
                    mark_ascending(seen, rows);
                }
                EtaBody::Dense {
                    first_block,
                    blocks,
                } => {
                    dense_axpy(v, *first_block, blocks, t);
                    let lo = first_block * 8;
                    mark_range(seen, lo, v.len().min(lo + blocks.len() * 8));
                }
            }
            v[e.r] = t;
        }
    }

    /// `v <- E_k' v`: only component `r` changes. Returns `r`.
    #[inline]
    fn btran_eta(&self, k: usize, v: &mut [f64]) -> usize {
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
        e.r
    }
}

/// Sets bit `i`.
#[inline]
fn mark(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// Sets the bits of the ascending indices `idx`, one store per word.
fn mark_ascending(bits: &mut [u64], idx: &[u32]) {
    let (mut at, mut word) = (usize::MAX, 0u64);
    for &i in idx {
        let i = i as usize;
        if i / 64 != at {
            if word != 0 {
                bits[at] |= word;
            }
            (at, word) = (i / 64, 0);
        }
        word |= 1 << (i % 64);
    }
    if word != 0 {
        bits[at] |= word;
    }
}

/// Sets bits `lo..hi`.
fn mark_range(bits: &mut [u64], lo: usize, hi: usize) {
    if lo >= hi {
        return;
    }
    let (first, last) = (lo / 64, (hi - 1) / 64);
    let head = u64::MAX << (lo % 64);
    let tail = u64::MAX >> (63 - (hi - 1) % 64);
    if first == last {
        bits[first] |= head & tail;
    } else {
        bits[first] |= head;
        bits[first + 1..last].fill(u64::MAX);
        bits[last] |= tail;
    }
}

/// Visits the marked steps at or above `from` in ascending order.
/// `visit(k, steps)` may mark later steps; it returns whether it marked
/// any, so the walk rereads the word, and whether `k` stays marked.
/// Marks below `from` stay as they are.
#[inline]
fn walk_up(
    steps: &mut [u64],
    from: usize,
    mut visit: impl FnMut(usize, &mut [u64]) -> (bool, bool),
) {
    let below = !(u64::MAX << (from % 64));
    for at in from / 64..steps.len() {
        let mut keep = if at == from / 64 {
            steps[at] & below
        } else {
            0
        };
        let mut word = steps[at] & !keep;
        while word != 0 {
            let b = word.trailing_zeros();
            let (marked, kept) = visit(at * 64 + b as usize, steps);
            keep |= (kept as u64) << b;
            word = if marked {
                steps[at] & (u64::MAX << b << 1)
            } else {
                word & (word - 1)
            };
        }
        steps[at] = keep;
    }
}

/// Visits the marked steps at or above `from` in descending order and
/// clears their marks. `visit(k, steps)` may mark earlier steps; it
/// returns whether it marked any, so the walk rereads the word. Marks
/// below `from` stay as they are.
#[inline]
fn walk_down(steps: &mut [u64], from: usize, mut visit: impl FnMut(usize, &mut [u64]) -> bool) {
    for at in (from / 64..steps.len()).rev() {
        let part = if at == from / 64 {
            u64::MAX << (from % 64)
        } else {
            u64::MAX
        };
        let mut word = steps[at] & part;
        while word != 0 {
            let b = 63 - word.leading_zeros();
            word = if visit(at * 64 + b as usize, steps) {
                steps[at] & part & !(u64::MAX << b)
            } else {
                word & !(1 << b)
            };
        }
        steps[at] &= !part;
    }
}

/// Whether `x` is anything but `+0.0`: the entries a pattern must list.
#[inline]
fn is_set(x: f64) -> bool {
    x.to_bits() != 0
}

/// Panics unless `pat` is ascending and lists every entry of `v` that is
/// not `+0.0`.
#[cfg(test)]
pub(crate) fn assert_pattern(v: &[f64], pat: &[u32]) {
    assert!(pat.windows(2).all(|p| p[0] < p[1]), "{pat:?}");
    let mut listed = vec![false; v.len()];
    for &i in pat {
        listed[i as usize] = true;
    }
    for (i, &x) in v.iter().enumerate() {
        assert!(listed[i] || !is_set(x), "entry {i} = {x:e} is unlisted");
    }
}

/// Scratch of [`Factor::ftran`] and [`Factor::btran`], reused across
/// calls and refactorizations. Every buffer is all zero between calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    /// The LU's work vector: by row in FTRAN, by position in BTRAN.
    work: Vec<f64>,
    /// One bit per LU pivot step: the steps the solve reached.
    steps: Vec<u64>,
    /// One bit per basis row or position: the result's pattern.
    seen: Vec<u64>,
    /// The rows an FTRAN's `U` pass filled.
    fills: Vec<u32>,
}

impl Scratch {
    /// Sizes the buffers to an LU of `base_dim` steps under a basis of
    /// `dim` rows.
    fn fit(&mut self, base_dim: usize, dim: usize) {
        self.work.resize(base_dim, 0.0);
        self.steps.resize(base_dim.div_ceil(64), 0);
        self.seen.resize(dim.div_ceil(64), 0);
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
    /// The inverses of `row` and `pos`: the pivot step of each basis row
    /// and each basis position.
    step_of_row: Vec<u32>,
    step_of_pos: Vec<u32>,
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

    /// Marks in `steps` each step `k` whose entry `work[at[k]]` is not
    /// `+0.0`, where `at` is `row` or `pos`.
    fn mark_set(&self, at: &[u32], work: &[f64], steps: &mut [u64]) {
        for (word, ats) in steps.iter_mut().zip(at.chunks(64)) {
            let mut bits = 0;
            for (b, &i) in ats.iter().enumerate() {
                bits |= (is_set(work[i as usize]) as u64) << b;
            }
            *word |= bits;
        }
    }

    /// `x = Q U^{-1} L^{-1} P w` over the reached pivot steps. On entry
    /// `w` holds the right-hand side by row, `steps` marks the step of
    /// every row it may hold a nonzero on, and `x`, by basis position, is
    /// all `+0.0`. On return `w` and `steps` are clear, and `seen` marks
    /// the positions written. `fills` is scratch. Returns the steps
    /// visited.
    ///
    /// A peeled step has no `U` column, so nothing depends on the order
    /// in which the peeled steps finish: the kernel steps go through the
    /// ordered walks, and the peeled rows the `U` pass reaches are listed
    /// without a branch and finished last.
    fn ftran(
        &self,
        w: &mut [f64],
        steps: &mut [u64],
        x: &mut [f64],
        seen: &mut [u64],
        fills: &mut Vec<u32>,
    ) -> u64 {
        let mut visited = 0;
        // L by columns, ascending: an update reaches a later step.
        walk_up(steps, self.peeled, |k, steps| {
            visited += 1;
            let t = w[self.row[k] as usize];
            let (is, ls) = self.l_cols.line(k);
            if t == 0.0 || is.is_empty() {
                return (false, true);
            }
            for (&i, &l) in is.iter().zip(ls) {
                let i = i as usize;
                if w[i] == 0.0 {
                    mark(steps, self.step_of_row[i] as usize);
                }
                w[i] -= l * t;
            }
            (true, true)
        });
        // U by columns, descending over the kernel steps: an update
        // reaches an earlier step. Every row an update finds at zero is
        // listed; a kernel one is marked for this walk.
        let mut len = 0;
        walk_down(steps, self.peeled, |k, steps| {
            visited += 1;
            let s = std::mem::replace(&mut w[self.row[k] as usize], 0.0);
            if s == 0.0 {
                return false;
            }
            let p = self.pos[k] as usize;
            let t = s / self.diag[k];
            x[p] = t;
            mark(seen, p);
            let (is, us) = self.u_cols.line(k);
            if fills.len() < len + is.len() {
                fills.resize(len + is.len(), 0);
            }
            let start = len;
            for (&i, &u) in is.iter().zip(us) {
                fills[len] = i;
                len += (w[i as usize] == 0.0) as usize;
                w[i as usize] -= u * t;
            }
            let mut marked = false;
            for &i in &fills[start..len] {
                let j = self.step_of_row[i as usize] as usize;
                if j >= self.peeled {
                    mark(steps, j);
                    marked = true;
                }
            }
            marked
        });
        // The peeled steps: first those of the right-hand side, still
        // marked, then the listed rows. Kernel rows on the list were
        // finished by the walk.
        let mut finish = |k: usize, s: f64| {
            let p = self.pos[k] as usize;
            x[p] = s / self.diag[k];
            mark(seen, p);
        };
        walk_down(steps, 0, |k, _| {
            visited += 1;
            let s = std::mem::replace(&mut w[self.row[k] as usize], 0.0);
            if s != 0.0 {
                finish(k, s);
            }
            false
        });
        for &i in &fills[..len] {
            let k = self.step_of_row[i as usize] as usize;
            if k < self.peeled {
                visited += 1;
                let s = std::mem::replace(&mut w[i as usize], 0.0);
                if s != 0.0 {
                    finish(k, s);
                }
            }
        }
        visited
    }

    /// `y = P' L^{-T} U^{-T} Q' s` over the reached pivot steps. On entry
    /// `s` holds the right-hand side by basis position, `steps` marks the
    /// step of every position it may hold a nonzero on, and `y`, by row,
    /// is all `+0.0`. On return `s` and `steps` are clear, and `seen`
    /// marks the rows written. Returns the factor entries read and the
    /// steps visited.
    fn btran(
        &self,
        s: &mut [f64],
        steps: &mut [u64],
        y: &mut [f64],
        seen: &mut [u64],
    ) -> (u64, u64) {
        let (mut read, mut visited) = (0, 0);
        // U by rows, ascending: an update reaches a later step. A step
        // stays marked for the L pass only if it wrote a kernel row.
        walk_up(steps, 0, |k, steps| {
            visited += 1;
            let a = std::mem::replace(&mut s[self.pos[k] as usize], 0.0);
            if a == 0.0 {
                return (false, false);
            }
            let r = self.row[k] as usize;
            let t = a / self.diag[k];
            y[r] = t;
            let kernel = k >= self.peeled;
            if !kernel {
                mark(seen, r);
            }
            let (ps, us) = self.u_rows.line(k);
            read += 1 + ps.len() as u64;
            for (&p, &u) in ps.iter().zip(us) {
                let p = p as usize;
                if s[p] == 0.0 {
                    mark(steps, self.step_of_pos[p] as usize);
                }
                s[p] -= u * t;
            }
            (!ps.is_empty(), kernel)
        });
        // L by rows, descending over the kernel steps: an update reaches
        // an earlier kernel row.
        walk_down(steps, self.peeled, |k, steps| {
            visited += 1;
            let r = self.row[k] as usize;
            mark(seen, r);
            let t = y[r];
            let (is, ls) = self.l_rows.line(k);
            if t == 0.0 {
                return false;
            }
            read += is.len() as u64;
            for (&i, &l) in is.iter().zip(ls) {
                let i = i as usize;
                if y[i] == 0.0 {
                    mark(steps, self.step_of_row[i] as usize);
                }
                y[i] -= l * t;
            }
            !is.is_empty()
        });
        (read, visited)
    }

    /// The sweep [`Lu::ftran`] replaced, visiting every pivot step:
    /// `w` is indexed by row and consumed, `x` is written by basis
    /// position.
    #[cfg(test)]
    fn ftran_sweep(&self, w: &mut [f64], x: &mut [f64]) {
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

    /// The sweep [`Lu::btran`] replaced, visiting every pivot step: `s`
    /// is indexed by basis position and consumed, `y` is written by row.
    /// Returns the factor entries read.
    #[cfg(test)]
    fn btran_sweep(&self, s: &mut [f64], y: &mut [f64]) -> u64 {
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
        lu.step_of_row = pivot_of_row;
        lu.step_of_pos = pivot_of_pos;
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
    /// `w`, with its ascending pattern `pat`, replaces basis position
    /// `pos`.
    pub fn push_pivot(&mut self, pos: usize, w: &[f64], pat: &[u32]) {
        debug_assert_eq!(w.len(), self.dim);
        debug_assert!(pat.windows(2).all(|p| p[0] < p[1]));
        let mut col: Vec<(usize, f64)> = Vec::new();
        for &i in pat {
            let (i, v) = (i as usize, w[i as usize]);
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

    /// `v <- B^{-1} v`. `pat`, if given, lists without repeats every
    /// index whose entry may be anything but `+0.0`, and lists the
    /// result's in ascending order on return; without it `v` is dense.
    /// Returns the LU pivot steps visited (`lp.ftran_steps`).
    pub fn ftran(&self, v: &mut [f64], pat: Option<&mut Vec<u32>>, scratch: &mut Scratch) -> u64 {
        debug_assert_eq!(v.len(), self.dim);
        let base = self.base_dim;
        scratch.fit(base, self.dim);
        let Scratch {
            work,
            steps,
            seen,
            fills,
        } = scratch;
        match &pat {
            Some(pat) => {
                for &i in pat.iter() {
                    let i = i as usize;
                    if i < base {
                        work[i] = std::mem::replace(&mut v[i], 0.0);
                        mark(steps, self.lu.step_of_row[i] as usize);
                    } else {
                        mark(seen, i);
                    }
                }
            }
            None => {
                work.copy_from_slice(&v[..base]);
                v[..base].fill(0.0);
                self.lu.mark_set(&self.lu.row, work, steps);
            }
        }
        let visited = self.lu.ftran(work, steps, &mut v[..base], seen, fills);
        self.ftran_updates(v, seen);
        take_pattern(seen, pat);
        visited
    }

    /// `v <- B^{-T} v`, with `pat` as in [`Factor::ftran`]. Returns the
    /// stored factor entries it read (`lp.btran_entries`) and the LU
    /// pivot steps it visited (`lp.btran_steps`).
    pub fn btran(
        &self,
        v: &mut [f64],
        pat: Option<&mut Vec<u32>>,
        scratch: &mut Scratch,
    ) -> (u64, u64) {
        debug_assert_eq!(v.len(), self.dim);
        let base = self.base_dim;
        scratch.fit(base, self.dim);
        let Scratch {
            work, steps, seen, ..
        } = scratch;
        for &i in pat.iter().flat_map(|p| p.iter()) {
            mark(seen, i as usize);
        }
        let read = self.btran_updates(v, seen);
        if pat.is_some() {
            // The entries below `base` move to the LU's work vector.
            for (at, bits) in seen[..base.div_ceil(64)].iter_mut().enumerate() {
                let part = if base - at * 64 < 64 {
                    !(u64::MAX << (base % 64))
                } else {
                    u64::MAX
                };
                let mut word = *bits & part;
                *bits &= !part;
                while word != 0 {
                    let p = at * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    work[p] = std::mem::replace(&mut v[p], 0.0);
                    mark(steps, self.lu.step_of_pos[p] as usize);
                }
            }
        } else {
            work.copy_from_slice(&v[..base]);
            v[..base].fill(0.0);
            self.lu.mark_set(&self.lu.pos, work, steps);
        }
        let (lu_read, visited) = self.lu.btran(work, steps, &mut v[..base], seen);
        take_pattern(seen, pat);
        (read + lu_read, visited)
    }

    /// Applies the update operators in order, marking in `seen` the
    /// entries they write.
    fn ftran_updates(&self, v: &mut [f64], seen: &mut [u64]) {
        for u in &self.updates {
            match u {
                Update::Eta(k) => self.file.ftran_eta(*k, v, seen),
                Update::Append { base, rows } => {
                    for (k, row) in rows.iter().enumerate() {
                        let mut s = 0.0;
                        for &(i, ci) in row {
                            s += ci * v[i];
                        }
                        v[base + k] -= s;
                        if is_set(v[base + k]) {
                            mark(seen, base + k);
                        }
                    }
                }
            }
        }
    }

    /// Applies the transposed update operators in reverse, marking in
    /// `seen` the entries they write. Returns the stored entries read.
    fn btran_updates(&self, v: &mut [f64], seen: &mut [u64]) -> u64 {
        let mut read = 0;
        for u in self.updates.iter().rev() {
            match u {
                Update::Eta(k) => {
                    let r = self.file.btran_eta(*k, v);
                    if is_set(v[r]) {
                        mark(seen, r);
                    }
                    read += self.file.etas[*k].nnz;
                }
                Update::Append { base, rows } => {
                    for (k, row) in rows.iter().enumerate() {
                        let f = v[base + k];
                        if f != 0.0 {
                            for &(i, ci) in row {
                                v[i] -= ci * f;
                                mark(seen, i);
                            }
                            read += row.len() as u64;
                        }
                    }
                }
            }
        }
        read
    }

    /// The FTRAN [`Factor::ftran`] replaced: the dense vector through
    /// the sweep over every LU step, then the same updates.
    #[cfg(test)]
    pub fn ftran_by_sweep(&self, v: &mut [f64]) {
        let mut w = v[..self.base_dim].to_vec();
        self.lu.ftran_sweep(&mut w, &mut v[..self.base_dim]);
        self.ftran_updates(v, &mut vec![0; self.dim.div_ceil(64)]);
    }

    /// The BTRAN [`Factor::btran`] replaced; returns the entries read.
    #[cfg(test)]
    pub fn btran_by_sweep(&self, v: &mut [f64]) -> u64 {
        let read = self.btran_updates(v, &mut vec![0; self.dim.div_ceil(64)]);
        let mut s = v[..self.base_dim].to_vec();
        read + self.lu.btran_sweep(&mut s, &mut v[..self.base_dim])
    }
}

/// Clears `seen`, first listing its set bits, ascending, in `pat` if
/// given.
fn take_pattern(seen: &mut [u64], pat: Option<&mut Vec<u32>>) {
    let Some(pat) = pat else {
        seen.fill(0);
        return;
    };
    pat.clear();
    for (at, word) in seen.iter_mut().enumerate() {
        let mut w = std::mem::take(word);
        while w != 0 {
            pat.push((at * 64) as u32 + w.trailing_zeros());
            w &= w - 1;
        }
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

    /// The pattern of `v`: every entry that is not `+0.0`.
    fn support(v: &[f64]) -> Vec<u32> {
        (0..v.len() as u32)
            .filter(|&i| is_set(v[i as usize]))
            .collect()
    }

    /// `B^{-1} v` with `v`'s pattern and as a dense vector, each checked
    /// bit for bit against the sweep over every LU step; returns the
    /// result and its checked pattern. `scratch` carries over between
    /// calls, as in the kernel.
    fn ftran(f: &Factor, v: &[f64], scratch: &mut Scratch) -> (Vec<f64>, Vec<u32>) {
        let mut want = v.to_vec();
        f.ftran_by_sweep(&mut want);
        let mut dense = v.to_vec();
        f.ftran(&mut dense, None, scratch);
        assert_eq!(
            bits(&dense),
            bits(&want),
            "dense ftran diverged from the sweep"
        );
        let (mut got, mut pat) = (v.to_vec(), support(v));
        f.ftran(&mut got, Some(&mut pat), scratch);
        assert_eq!(bits(&got), bits(&want), "ftran diverged from the sweep");
        assert_pattern(&got, &pat);
        (got, pat)
    }

    /// `B^{-T} v`, checked like [`ftran`], and its count of factor
    /// entries read against the sweep's.
    fn btran(f: &Factor, v: &[f64], scratch: &mut Scratch) -> (Vec<f64>, Vec<u32>) {
        let mut want = v.to_vec();
        let want_read = f.btran_by_sweep(&mut want);
        let mut dense = v.to_vec();
        let (read, _) = f.btran(&mut dense, None, scratch);
        assert_eq!(
            bits(&dense),
            bits(&want),
            "dense btran diverged from the sweep"
        );
        assert_eq!(
            read, want_read,
            "dense btran read other entries than the sweep"
        );
        let (mut got, mut pat) = (v.to_vec(), support(v));
        let (read, _) = f.btran(&mut got, Some(&mut pat), scratch);
        assert_eq!(bits(&got), bits(&want), "btran diverged from the sweep");
        assert_eq!(read, want_read, "btran read other entries than the sweep");
        assert_pattern(&got, &pat);
        (got, pat)
    }

    #[test]
    fn ftran_btran_invert_a_dense_basis() {
        let a: &[&[f64]] = &[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]];
        let f = Factor::build(&dense_cols(a)).unwrap();
        let x = vec![1.0, -2.0, 0.5];
        let mut scratch = Scratch::default();

        let v = ftran(&f, &mat_vec(a, &x), &mut scratch); // ftran(A x) == x
        assert_close(&v.0, &x);

        let v = btran(&f, &mat_t_vec(a, &x), &mut scratch); // btran(A' x) == x
        assert_close(&v.0, &x);
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
        let mut scratch = Scratch::default();
        // Replace position 0 with column q = (3, 1)'.
        let (w, pat) = ftran(&f, &[3.0, 1.0], &mut scratch);
        f.push_pivot(0, &w, &pat);
        // New basis: [[3, 1], [1, 2]].
        let b2: &[&[f64]] = &[&[3.0, 1.0], &[1.0, 2.0]];
        let x = vec![0.5, -1.5];
        let v = ftran(&f, &mat_vec(b2, &x), &mut scratch);
        assert_close(&v.0, &x);
        let v = btran(&f, &mat_t_vec(b2, &x), &mut scratch);
        assert_close(&v.0, &x);
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
        let mut scratch = Scratch::default();
        let x = vec![1.0, 2.0, -1.0];
        let v = ftran(&f, &mat_vec(b1, &x), &mut scratch);
        assert_close(&v.0, &x);
        let v = btran(&f, &mat_t_vec(b1, &x), &mut scratch);
        assert_close(&v.0, &x);
    }

    #[test]
    fn refactor_trigger_fires_after_enough_pivots() {
        let a: &[&[f64]] = &[&[1.0, 0.0], &[0.0, 1.0]];
        let mut f = Factor::build(&dense_cols(a)).unwrap();
        assert!(!f.needs_refactor());
        for _ in 0..ETA_REFRESH {
            f.push_pivot(0, &[1.0, 0.0], &[0]);
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
        let (mut seen_a, mut seen_b) = ([0u64; 1], [0u64; 1]);
        file.ftran_eta(0, &mut a, &mut seen_a);
        file.ftran_eta(1, &mut b, &mut seen_b);
        assert_eq!(bits(&a), bits(&b), "ftran diverged between representations");
        // The dense body marks its whole lane range, which covers the rows
        // the sparse one marks.
        assert_eq!(seen_a[0] & !seen_b[0], 0);
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
        let (mut seen_a, mut seen_b) = ([0u64; 1], [0u64; 1]);
        file.ftran_eta(0, &mut a, &mut seen_a);
        file.ftran_eta(1, &mut b, &mut seen_b);
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(seen_a[0] & !seen_b[0], 0);
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
        f.push_pivot(3, &w, &support(&w));
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
        let mut scratch = Scratch::default();
        let dense: Vec<f64> = (0..dim).map(|i| noise(i * 7 + 3) - 4.0).collect();
        let mut unit = vec![0.0; dim];
        unit[dim / 2] = 1.0;
        for v in [dense, unit] {
            let x = ftran(f, &v, &mut scratch);
            let gap = rel_gap(&col_product(cols, &x.0), &v);
            assert!(gap <= 1e-9, "{label}: ftran residual {gap:e}");
            let y = btran(f, &v, &mut scratch);
            let gap = rel_gap(&col_t_product(cols, &y.0), &v);
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

    /// Random bases grown by pivot etas and append blocks, as the kernel
    /// grows them. After each growth step, every unit vector, every basis
    /// column and a dense vector (with `-0.0` entries) go through FTRAN
    /// and BTRAN, with and without a pattern, each compared by bits with
    /// the sweep over every LU step; one scratch serves every call.
    #[test]
    fn reach_only_solves_match_the_sweep_bit_for_bit() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (mut checked, mut grown) = (0, 0);
        for seed in 0..24 {
            let cols = random_basis(seed);
            let Some(mut f) = Factor::build(&cols) else {
                continue;
            };
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let mut scratch = Scratch::default();
            for round in 0..4 {
                let dim = f.dim;
                let mut rhs: Vec<Vec<f64>> = Vec::new();
                for i in 0..dim {
                    let mut e = vec![0.0; dim];
                    e[i] = 1.0;
                    rhs.push(e);
                }
                for col in &cols {
                    let mut a = vec![0.0; dim];
                    for &(i, v) in col {
                        a[i] = v;
                    }
                    rhs.push(a);
                }
                rhs.push(
                    (0..dim)
                        .map(|i| if i % 5 == 2 { -0.0 } else { noise(i) - 4.0 })
                        .collect(),
                );
                for v in &rhs {
                    ftran(&f, v, &mut scratch);
                    btran(&f, v, &mut scratch);
                    checked += 2;
                }
                if round % 2 == 0 {
                    // Pivot etas: a random sparse column replaces a position
                    // whose pivot entry is safely away from zero.
                    for _ in 0..3 {
                        let mut a = vec![0.0; dim];
                        for _ in 0..rng.gen_range(1..6) {
                            a[rng.gen_range(0..dim)] = noise(rng.gen_range(0usize..97)) - 4.0;
                        }
                        let (w, pat) = ftran(&f, &a, &mut scratch);
                        if let Some(&pos) = pat.iter().find(|&&i| w[i as usize].abs() > 0.25) {
                            f.push_pivot(pos as usize, &w, &pat);
                            grown += 1;
                        }
                    }
                } else {
                    // An append block of two rows over the current positions.
                    let rows: Vec<SparseCol> = (0..2)
                        .map(|_| {
                            let mut row: SparseCol = (0..rng.gen_range(1..5))
                                .map(|_| {
                                    (
                                        rng.gen_range(0..dim),
                                        noise(rng.gen_range(0usize..97)) - 4.0,
                                    )
                                })
                                .collect();
                            row.sort_by_key(|e| e.0);
                            row.dedup_by_key(|e| e.0);
                            row
                        })
                        .collect();
                    f.push_append(rows);
                    grown += 1;
                }
            }
        }
        assert!(
            checked > 10_000 && grown > 100,
            "{checked} solves, {grown} updates"
        );
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
                    let mut scratch = Scratch::default();
                    let v0: Vec<f64> = (0..owned.len()).map(|i| noise(i + 1) - 3.0).collect();
                    let (x, y) = (ftran(&a, &v0, &mut scratch), ftran(&b, &v0, &mut scratch));
                    assert_eq!(bits(&x.0), bits(&y.0), "ftran, seed {seed}");
                    let (x, y) = (btran(&a, &v0, &mut scratch), btran(&b, &v0, &mut scratch));
                    assert_eq!(bits(&x.0), bits(&y.0), "btran, seed {seed}");
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
