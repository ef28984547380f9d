//! Steiner-constraint machinery (§4.1, §4.6).
//!
//! For every pair of sinks `(s_i, s_j)` the EBF requires
//! `pathlength(s_i, s_j) >= dist(s_i, s_j)` — necessary because separating
//! the pair would disconnect the tree, and *sufficient* for embeddability by
//! Theorem 4.1. There are `C(m, 2)` such rows; §4.6 observes most are
//! redundant. This module provides both the full generator and the
//! **separation oracle** used for lazy constraint generation: given a
//! candidate edge-length vector, find the violated pairs in `O(m n)`.
//! Row `i` of the pair triangle is one preorder sweep that labels every
//! node with the delay of its meeting point on sink `i`'s root path, so
//! each pair costs one subtraction and no LCA query. The lazy loop then
//! takes only its batch of most violated pairs, picked by a
//! select-then-sort rather than a sort of every violated pair.

use std::cmp::Ordering;

use crate::LubtProblem;
use lubt_delay::linear::node_delays;
use lubt_topology::{NodeId, Topology};

/// One sink-pair Steiner constraint: `pathlength(a, b) >= dist`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinkPair {
    /// First sink node.
    pub a: NodeId,
    /// Second sink node.
    pub b: NodeId,
    /// Manhattan distance between the sink locations (the row's RHS).
    pub dist: f64,
}

/// All `C(m, 2)` Steiner constraints (the §4.3 formulation, before
/// reduction).
pub fn all_pair_constraints(problem: &LubtProblem) -> Vec<SinkPair> {
    let topo = problem.topology();
    let m = topo.num_sinks();
    let mut out = Vec::with_capacity(m * (m - 1) / 2);
    for i in 1..=m {
        for j in i + 1..=m {
            let (a, b) = (NodeId(i), NodeId(j));
            out.push(SinkPair {
                a,
                b,
                dist: problem.sink_location(a).dist(problem.sink_location(b)),
            });
        }
    }
    out
}

/// Geometric seed for the lazy scheme: each sink paired with its nearest
/// other sink (deduplicated). These `<= m` rows anchor the first LP and in
/// practice already rule out most collapse directions.
pub fn seed_pairs(problem: &LubtProblem) -> Vec<SinkPair> {
    let topo = problem.topology();
    let m = topo.num_sinks();
    let mut out: Vec<SinkPair> = Vec::with_capacity(m);
    for i in 1..=m {
        let pi = problem.sink_location(NodeId(i));
        let mut best: Option<(usize, f64)> = None;
        for j in 1..=m {
            if i == j {
                continue;
            }
            let d = pi.dist(problem.sink_location(NodeId(j)));
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((j, d));
            }
        }
        if let Some((j, d)) = best {
            let (lo, hi) = (i.min(j), i.max(j));
            let pair = SinkPair {
                a: NodeId(lo),
                b: NodeId(hi),
                dist: d,
            };
            if !out.iter().any(|p| p.a == pair.a && p.b == pair.b) {
                out.push(pair);
            }
        }
    }
    out
}

/// Separation oracle: every sink pair whose Steiner constraint the given
/// edge lengths violate by more than `tol`, most violated first.
///
/// # Panics
///
/// Panics when `lengths.len() != topology.num_nodes()`.
pub fn violated_pairs(problem: &LubtProblem, lengths: &[f64], tol: f64) -> Vec<(SinkPair, f64)> {
    violated_pairs_with_threads(problem, lengths, tol, 1)
}

/// [`violated_pairs`] with the `O(m^2)` pair triangle claimed by
/// `threads` participants (`0` = all cores, `1` = the exact sequential
/// scan): the scan the lazy EBF loop runs, from a cold cache.
///
/// Determinism contract: rows of the triangle are claimed in blocks from
/// one shared cursor, each block scans whole rows into a private buffer,
/// and buffers merge in ascending row order, reproducing the serial
/// enumeration exactly; the most-violated-first order breaks ties by that
/// enumeration order, as a stable sort would — so the returned cut
/// sequence is **identical for every thread count**. The lazy EBF loop
/// depends on this: the cuts added each round fix the simplex pivot
/// sequence, hence the solution bits.
///
/// # Panics
///
/// Panics when `lengths.len() != topology.num_nodes()`.
pub fn violated_pairs_with_threads(
    problem: &LubtProblem,
    lengths: &[f64],
    tol: f64,
    threads: usize,
) -> Vec<(SinkPair, f64)> {
    violated_pairs_cached(
        problem,
        lengths,
        tol,
        threads,
        usize::MAX,
        &mut SeparationCache::new(),
        &lubt_obs::NoopRecorder,
    )
    .top
}

/// Scratch of the row sweep, reused by every row of a claimed block.
struct RowSweep {
    /// `on_path[v] == i` iff `v` lies on sink `i`'s root path.
    on_path: Vec<usize>,
    /// `meet[v]`: delay of the deepest node of that path above or at `v`,
    /// which is `lca(i, v)`.
    meet: Vec<f64>,
}

impl RowSweep {
    fn new(topo: &Topology) -> RowSweep {
        RowSweep {
            on_path: vec![0; topo.num_nodes()],
            meet: vec![0.0; topo.num_nodes()],
        }
    }

    /// Scans row `i` of the pair triangle (all partners `j > i`) into
    /// `out`. Each pair evaluates `D_i + D_j - 2 D_lca(i,j)`, the
    /// expression of [`lubt_delay::linear::path_length`], with the LCA's
    /// delay read from one preorder sweep.
    fn scan_row_into(
        &mut self,
        problem: &LubtProblem,
        delays: &[f64],
        tol: f64,
        i: usize,
        out: &mut Vec<(SinkPair, f64)>,
    ) {
        let topo = problem.topology();
        let mut v = Some(NodeId(i));
        while let Some(u) = v {
            self.on_path[u.0] = i;
            v = topo.parent(u);
        }
        for v in topo.preorder() {
            self.meet[v.0] = match topo.parent(v) {
                Some(p) if self.on_path[v.0] != i => self.meet[p.0],
                _ => delays[v.0],
            };
        }
        let a = NodeId(i);
        for j in i + 1..=topo.num_sinks() {
            let b = NodeId(j);
            let need = problem.sink_location(a).dist(problem.sink_location(b));
            let have = delays[i] + delays[j] - 2.0 * self.meet[j];
            let violation = need - have;
            if violation > tol {
                out.push((SinkPair { a, b, dist: need }, violation));
            }
        }
    }
}

/// Most violated first; equal violations keep the enumeration order of
/// the pair triangle, which is ascending `(a, b)`.
fn most_violated_first(x: &&(SinkPair, f64), y: &&(SinkPair, f64)) -> Ordering {
    y.1.partial_cmp(&x.1)
        .expect("finite violations")
        .then(x.0.a.cmp(&y.0.a))
        .then(x.0.b.cmp(&y.0.b))
}

/// One oracle call's result, as the lazy EBF loop consumes it.
#[derive(Debug, PartialEq)]
pub struct Separation {
    /// Pairs violated by more than the tolerance.
    pub violated: usize,
    /// The sum of their violations, added in enumeration order.
    pub mass: f64,
    /// The `limit` most violated pairs with their violations, most
    /// violated first, ties in enumeration order.
    pub top: Vec<(SinkPair, f64)>,
}

/// Cross-round residual state for the lazy separation loop: the node
/// delays of the previous oracle call and every row's scan result.
///
/// The violation of pair `(i, j)` is
/// `dist(i, j) - (D_i + D_j - 2 D_lca(i,j))`, a function of the delays of
/// `i`, `j`, and their LCA (an ancestor of `i`). Between two successive LP
/// rounds most edge lengths — hence most delays — are bitwise unchanged,
/// so whole rows of the triangle rescan to the exact same result. Row `i`
/// is **reusable** iff the delay of `i` and every ancestor of `i` is
/// bitwise unchanged *and* the same holds for every partner sink
/// `j > i`; reused rows skip the `O(m)` rescan entirely (the satisfied
/// region early-exit). Because reuse requires bitwise-equal inputs, the
/// cached output is bit-identical to a full recompute — counts, ordering,
/// and violation bits all match, independent of thread count.
#[derive(Debug, Default, Clone)]
pub struct SeparationCache {
    prev_delays: Vec<f64>,
    prev_tol: f64,
    /// `rows[i - 1]` holds row `i`'s hits in ascending-`j` scan order.
    rows: Vec<Vec<(SinkPair, f64)>>,
}

impl SeparationCache {
    /// An empty cache; the first oracle call scans every row.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The lazy EBF loop's separation oracle: [`violated_pairs_with_threads`]
/// with a cross-round [`SeparationCache`], returning the violated count,
/// the residual mass and only the `limit` most violated pairs. Rows of the
/// pair triangle whose relevant delays are bitwise unchanged since the
/// previous call are reused instead of rescanned; the stale rows are
/// claimed in one assisted loop (DESIGN.md §9). Emits
/// `ebf.sep_rows_scanned` / `ebf.sep_rows_reused` counters
/// (deterministic: reuse depends only on the delay sequence, never on
/// scheduling) and the loop's `par.assist.*` scheduling counters, which
/// vary between runs.
pub fn violated_pairs_cached(
    problem: &LubtProblem,
    lengths: &[f64],
    tol: f64,
    threads: usize,
    limit: usize,
    cache: &mut SeparationCache,
    rec: &dyn lubt_obs::Recorder,
) -> Separation {
    let topo = problem.topology();
    let delays = node_delays(topo, lengths);
    let m = topo.num_sinks();
    let n = topo.num_nodes();

    // Which sinks' path delays (self + ancestors) changed since last round?
    let warm = cache.rows.len() == m
        && cache.prev_delays.len() == n
        && cache.prev_tol.to_bits() == tol.to_bits();
    let stale: Vec<usize> = if warm {
        let mut anc_changed = vec![false; n];
        for v in topo.preorder() {
            let own = cache.prev_delays[v.0].to_bits() != delays[v.0].to_bits();
            let inherited = topo.parent(v).map(|p| anc_changed[p.0]).unwrap_or(false);
            anc_changed[v.0] = own || inherited;
        }
        // suffix[i]: does any sink j >= i have a changed path delay?
        let mut suffix = vec![false; m + 2];
        for i in (1..=m).rev() {
            suffix[i] = anc_changed[i] || suffix[i + 1];
        }
        (1..=m)
            .filter(|&i| anc_changed[i] || suffix[i + 1])
            .collect()
    } else {
        cache.rows = vec![Vec::new(); m];
        (1..=m).collect()
    };

    rec.incr("ebf.sep_rows_scanned", stale.len() as u64);
    rec.incr("ebf.sep_rows_reused", (m - stale.len()) as u64);

    // Rescan only the stale rows, claimed via the assist loop. Row i holds
    // m - i pairs; a small grain keeps many blocks behind the shared claim
    // cursor so late-arriving helpers even out the ragged triangle without
    // a pre-split partition (DESIGN.md §9).
    let grain = (stale.len() / lubt_par::resolve_threads(threads).max(1) / 4).max(1);
    let rescanned = lubt_par::assist_reduce_traced(
        threads,
        stale.len(),
        grain,
        rec,
        |range| {
            let mut sweep = RowSweep::new(topo);
            let mut buf = Vec::with_capacity(range.len());
            for idx in range {
                let row = stale[idx];
                let mut hits = Vec::new();
                sweep.scan_row_into(problem, &delays, tol, row, &mut hits);
                buf.push((row, hits));
            }
            buf
        },
        |mut a, mut b| {
            a.append(&mut b);
            a
        },
    );
    for (row, hits) in rescanned.into_iter().flatten() {
        cache.rows[row - 1] = hits;
    }
    cache.prev_delays = delays;
    cache.prev_tol = tol;

    // Select the `limit` most violated, then sort only those: the order is
    // total, so this is the prefix of a stable sort of every violated pair.
    let mut hits: Vec<&(SinkPair, f64)> = cache.rows.iter().flatten().collect();
    let violated = hits.len();
    let mass = hits.iter().fold(-0.0, |sum, hit| sum + hit.1);
    if limit < violated {
        if limit > 0 {
            hits.select_nth_unstable_by(limit - 1, most_violated_first);
        }
        hits.truncate(limit);
    }
    hits.sort_unstable_by(most_violated_first);
    Separation {
        violated,
        mass,
        top: hits.into_iter().copied().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayBounds, LubtBuilder};
    use lubt_geom::Point;

    fn problem() -> LubtProblem {
        LubtBuilder::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 10.0),
            Point::new(10.0, 10.0),
        ])
        .bounds(DelayBounds::unbounded(4))
        .build()
        .unwrap()
    }

    #[test]
    fn all_pairs_count_and_rhs() {
        let p = problem();
        let pairs = all_pair_constraints(&p);
        assert_eq!(pairs.len(), 6); // C(4,2)
        let d12 = pairs
            .iter()
            .find(|q| q.a == NodeId(1) && q.b == NodeId(2))
            .unwrap();
        assert_eq!(d12.dist, 10.0);
        let d14 = pairs
            .iter()
            .find(|q| q.a == NodeId(1) && q.b == NodeId(4))
            .unwrap();
        assert_eq!(d14.dist, 20.0);
    }

    #[test]
    fn seed_is_deduplicated_nearest_neighbors() {
        let p = problem();
        let seeds = seed_pairs(&p);
        // In a symmetric square every sink's nearest neighbor pairs up;
        // after dedup at most m pairs survive and each is a side (dist 10).
        assert!(!seeds.is_empty() && seeds.len() <= 4);
        for s in &seeds {
            assert_eq!(s.dist, 10.0);
        }
    }

    #[test]
    fn zero_lengths_violate_everything() {
        let p = problem();
        let lengths = vec![0.0; p.topology().num_nodes()];
        let v = violated_pairs(&p, &lengths, 1e-9);
        assert_eq!(v.len(), 6);
        // Sorted descending by violation; diagonals (20) come first.
        assert!(v[0].1 >= v[v.len() - 1].1);
        assert_eq!(v[0].1, 20.0);
    }

    #[test]
    fn generous_lengths_violate_nothing() {
        let p = problem();
        let lengths = vec![100.0; p.topology().num_nodes()];
        assert!(violated_pairs(&p, &lengths, 1e-9).is_empty());
        let sep = violated_pairs_cached(
            &p,
            &lengths,
            1e-9,
            1,
            256,
            &mut SeparationCache::new(),
            &lubt_obs::NoopRecorder,
        );
        assert_eq!((sep.violated, sep.top.len()), (0, 0));
        // A converged round's mass is the empty sum, printed `-0.000000`.
        assert_eq!(sep.mass.to_bits(), (-0.0f64).to_bits());
    }

    /// The square's zero-length violations tie: both diagonals at 20, all
    /// four sides at 10. Every top-`limit` batch must be the first
    /// `limit` pairs of a stable sort of the enumeration.
    #[test]
    fn top_batch_is_the_prefix_of_the_stable_sort_under_ties() {
        let p = problem();
        let lengths = vec![0.0; p.topology().num_nodes()];
        let mut stable: Vec<(SinkPair, f64)> = all_pair_constraints(&p)
            .into_iter()
            .map(|pair| (pair, pair.dist))
            .collect();
        stable.sort_by(|x, y| y.1.partial_cmp(&x.1).unwrap());
        let key = |v: &[(SinkPair, f64)]| -> Vec<(usize, usize, u64)> {
            v.iter().map(|(q, x)| (q.a.0, q.b.0, x.to_bits())).collect()
        };
        assert_eq!(key(&violated_pairs(&p, &lengths, 1e-9)), key(&stable));
        for limit in 0..=stable.len() + 1 {
            for threads in [1, 3] {
                let sep = violated_pairs_cached(
                    &p,
                    &lengths,
                    1e-9,
                    threads,
                    limit,
                    &mut SeparationCache::new(),
                    &lubt_obs::NoopRecorder,
                );
                assert_eq!(sep.violated, 6);
                assert_eq!(sep.mass, 2.0 * 20.0 + 4.0 * 10.0);
                let want = &stable[..limit.min(stable.len())];
                assert_eq!(key(&sep.top), key(want), "limit {limit} threads {threads}");
            }
        }
    }

    #[test]
    fn cached_oracle_matches_full_recompute_bitwise() {
        use lubt_obs::TraceRecorder;
        let sinks: Vec<Point> = (0..31)
            .map(|i| {
                let k = i as f64;
                Point::new((k * 53.0) % 97.0, (k * k * 7.0) % 83.0)
            })
            .collect();
        let m = sinks.len();
        let p = LubtBuilder::new(sinks)
            .bounds(DelayBounds::unbounded(m))
            .build()
            .unwrap();
        let n = p.topology().num_nodes();
        let mut lengths = vec![0.75; n];
        let mut cache = SeparationCache::new();
        let mut saw_reuse = false;
        let same = |got: &[(SinkPair, f64)], want: &[(SinkPair, f64)], what: &str| {
            for (c, f) in got.iter().zip(want) {
                assert_eq!(c.0.a, f.0.a, "{what}");
                assert_eq!(c.0.b, f.0.b, "{what}");
                assert_eq!(c.1.to_bits(), f.1.to_bits(), "{what}");
            }
        };
        // Each round takes a different batch, the lazy loop's 256 among
        // them. Every round checks the whole cached list against a full
        // recompute, then the batch against its prefix.
        for (round, limit) in [usize::MAX, 256, 1, 17, 100, 3].into_iter().enumerate() {
            let full = violated_pairs(&p, &lengths, 1e-9);
            assert!(full.len() > limit.min(100), "round {round}: too few pairs");
            for threads in [1, 4] {
                let what = format!("round {round} threads {threads}");
                // The whole list from a clone of the pre-round state, so
                // every reused row is compared.
                let mut unlimited = cache.clone();
                let rec = TraceRecorder::new();
                let all = violated_pairs_cached(
                    &p,
                    &lengths,
                    1e-9,
                    threads,
                    usize::MAX,
                    &mut unlimited,
                    &rec,
                );
                let sizes = (all.violated, all.top.len());
                assert_eq!(sizes, (full.len(), full.len()), "{what}");
                same(&all.top, &full, &what);
                let trace = rec.snapshot();
                let scanned = trace.counter("ebf.sep_rows_scanned");
                let reused = trace.counter("ebf.sep_rows_reused");
                assert_eq!(scanned + reused, m as u64);
                if reused > 0 {
                    saw_reuse = true;
                }
                // The threads=4 pass replays the round on a clone of the
                // pre-round state; only the threads=1 pass advances `cache`.
                let mut replay = cache.clone();
                let state = if threads == 1 {
                    &mut cache
                } else {
                    &mut replay
                };
                let batch = violated_pairs_cached(
                    &p,
                    &lengths,
                    1e-9,
                    threads,
                    limit,
                    state,
                    &lubt_obs::NoopRecorder,
                );
                assert_eq!(batch.violated, full.len(), "{what}");
                assert_eq!(batch.mass.to_bits(), all.mass.to_bits(), "{what}");
                assert_eq!(batch.top.len(), limit.min(full.len()), "{what}");
                same(&batch.top, &full, &what);
            }
            // Perturb one Steiner edge; most rows should reuse next round.
            // On odd rounds its child edges shrink by as much, so the sinks
            // below keep their delays bit for bit and only their changed
            // ancestor marks their rows stale. Lengths and delays stay
            // multiples of 1/8, so every sum is exact.
            let v = NodeId(n - 1 - (round % 3));
            lengths[v.0] += 0.125;
            if round % 2 == 1 {
                for c in p.topology().children(v) {
                    lengths[c.0] -= 0.125;
                }
            }
        }
        assert!(saw_reuse, "perturbing one edge should leave reusable rows");
    }

    #[test]
    fn unchanged_lengths_reuse_every_row() {
        use lubt_obs::TraceRecorder;
        let p = problem();
        let lengths = vec![0.5; p.topology().num_nodes()];
        let mut cache = SeparationCache::new();
        let first = violated_pairs_cached(
            &p,
            &lengths,
            1e-9,
            1,
            usize::MAX,
            &mut cache,
            &lubt_obs::NoopRecorder,
        );
        let rec = TraceRecorder::new();
        let second = violated_pairs_cached(&p, &lengths, 1e-9, 1, usize::MAX, &mut cache, &rec);
        assert_eq!(first, second);
        let trace = rec.snapshot();
        assert_eq!(trace.counter("ebf.sep_rows_scanned"), 0);
        assert_eq!(
            trace.counter("ebf.sep_rows_reused"),
            p.topology().num_sinks() as u64
        );
    }

    #[test]
    fn parallel_oracle_matches_serial_exactly() {
        // A deliberately asymmetric sink cloud so violations are all
        // distinct and any merge-order slip would reorder the result.
        let sinks: Vec<Point> = (0..23)
            .map(|i| {
                let k = i as f64;
                Point::new((k * 37.0) % 101.0, (k * k * 13.0) % 89.0)
            })
            .collect();
        let m = sinks.len();
        let p = LubtBuilder::new(sinks)
            .bounds(DelayBounds::unbounded(m))
            .build()
            .unwrap();
        let lengths = vec![0.5; p.topology().num_nodes()];
        let serial = violated_pairs(&p, &lengths, 1e-9);
        assert!(!serial.is_empty());
        for threads in [2, 3, 4, 8, 0] {
            let par = violated_pairs_with_threads(&p, &lengths, 1e-9, threads);
            assert_eq!(par.len(), serial.len(), "threads={threads}");
            for (a, b) in serial.iter().zip(par.iter()) {
                assert_eq!(a.0.a, b.0.a, "threads={threads}");
                assert_eq!(a.0.b, b.0.b, "threads={threads}");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "threads={threads}");
            }
        }
    }
}
