//! Work-assisting iteration: one shared atomic claim index, joinable
//! mid-flight (DESIGN.md §9).
//!
//! There is no up-front partition of the index range and no per-worker
//! deque: a single [`AtomicUsize`] cursor runs over the block sequence.
//! Every participant — the caller plus however many helpers join — runs
//! the same claim loop: `fetch_add(1)` to take the next block, run it,
//! repeat until the cursor passes the end. A helper that shows up late
//! simply starts claiming from wherever the cursor currently is; there is
//! nothing to rebalance and nothing to steal. That serves both shapes of
//! work in the workspace: the ragged separation triangle, scanned once
//! per round of a lazy solve, and batch loops whose blocks are whole
//! instances of very different sizes. Each call spawns its helpers, so
//! callers enter a loop only where that cost is spread over a whole
//! round or batch, never once per simplex pivot.
//!
//! Determinism contract: each block's output is tagged with its block id,
//! and after the scoped join the blocks are reduced **in ascending block
//! order**. `threads <= 1` runs the identical per-block evaluation inline,
//! so the result is bit-identical for every thread count as long as the
//! caller's fold is associative over adjacent index ranges (concatenation
//! and the lowest-index-wins argmax both are).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use lubt_obs::{NoopRecorder, Recorder};

/// What one participant did inside the claim loop, reported after the
/// scoped join so the recorder sees no hot-loop trait calls.
#[derive(Debug, Clone, Copy, Default)]
struct AssistStats {
    claims: u64,
}

/// One participant's claim loop over `num_blocks` blocks of `grain`
/// indices: `fetch_add` the shared cursor, evaluate the claimed block,
/// repeat until the cursor passes the end. Returns `(block_id, value)`
/// pairs in claim order plus the participant's claim tally.
fn assist_claim_loop<T, B>(
    cursor: &AtomicUsize,
    num_blocks: usize,
    grain: usize,
    n: usize,
    block: &B,
) -> (Vec<(usize, T)>, AssistStats)
where
    T: Send,
    B: Fn(Range<usize>) -> T + Sync,
{
    let mut out = Vec::new();
    let mut stats = AssistStats::default();
    loop {
        let id = cursor.fetch_add(1, Ordering::Relaxed);
        if id >= num_blocks {
            return (out, stats);
        }
        stats.claims += 1;
        let range = id * grain..((id + 1) * grain).min(n);
        out.push((id, block(range)));
    }
}

/// Runs `block` over `0..n` in blocks of `grain` indices claimed from a
/// shared atomic cursor, then folds the per-block values **in ascending
/// block order** with `fold`.
///
/// Returns `None` when `n == 0` (no block ever runs), otherwise the fold
/// of every block value. `threads` counts total participants including
/// the caller; `0` means all cores and `<= 1` takes the exact sequential
/// path. The result is bit-identical for every thread count provided
/// `fold` is associative over adjacent index ranges — block boundaries
/// are a function of `grain` alone, never of the thread count.
///
/// # Example
///
/// ```
/// // Lowest-index-wins argmax, merged deterministically.
/// let best = lubt_par::assist_reduce(
///     4,
///     100,
///     8,
///     |range| range.map(|i| (i, (i % 7) as f64)).max_by(|a, b| {
///         a.1.partial_cmp(&b.1).unwrap().then(b.0.cmp(&a.0))
///     }),
///     |a, b| std::cmp::max_by(a, b, |x, y| {
///         match (x, y) {
///             (Some(a), Some(b)) => a.1.partial_cmp(&b.1).unwrap().then(b.0.cmp(&a.0)),
///             (Some(_), None) => std::cmp::Ordering::Greater,
///             (None, Some(_)) => std::cmp::Ordering::Less,
///             (None, None) => std::cmp::Ordering::Equal,
///         }
///     }),
/// );
/// assert_eq!(best.flatten(), Some((6, 6.0)));
/// ```
pub fn assist_reduce<T, B, F>(
    threads: usize,
    n: usize,
    grain: usize,
    block: B,
    fold: F,
) -> Option<T>
where
    T: Send,
    B: Fn(Range<usize>) -> T + Sync,
    F: FnMut(T, T) -> T,
{
    assist_reduce_traced(threads, n, grain, &NoopRecorder, block, fold)
}

/// [`assist_reduce`] with `par.assist.*` instrumentation: loop/job/claim
/// tallies, the participant high-water mark, and how many helpers
/// actually claimed at least one block (`par.assist.joins`).
///
/// Scheduling counters are inherently nondeterministic across runs and
/// thread counts; the *result* keeps the same determinism contract as
/// [`assist_reduce`].
pub fn assist_reduce_traced<T, B, F>(
    threads: usize,
    n: usize,
    grain: usize,
    rec: &dyn Recorder,
    block: B,
    mut fold: F,
) -> Option<T>
where
    T: Send,
    B: Fn(Range<usize>) -> T + Sync,
    F: FnMut(T, T) -> T,
{
    let grain = grain.max(1);
    let num_blocks = n.div_ceil(grain);
    let threads = crate::resolve_threads(threads).min(num_blocks.max(1));
    if rec.enabled() {
        rec.incr("par.assist.loops", 1);
        rec.incr("par.assist.jobs", n as u64);
        rec.record_max("par.assist.workers", threads as u64);
    }
    if threads <= 1 {
        // Identical per-block evaluation and ascending fold: the serial
        // path is the reference the parallel merge reproduces.
        let mut acc: Option<T> = None;
        for id in 0..num_blocks {
            let value = block(id * grain..((id + 1) * grain).min(n));
            acc = Some(match acc {
                None => value,
                Some(prev) => fold(prev, value),
            });
        }
        return acc;
    }

    let cursor = AtomicUsize::new(0);
    let mut helper_stats = vec![AssistStats::default(); threads - 1];
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        // Helpers join the same claim loop the caller runs below; a
        // helper that arrives after the cursor passed the end claims
        // nothing and leaves — the join protocol is the claim itself.
        let handles: Vec<_> = (0..threads - 1)
            .map(|_| {
                let cursor = &cursor;
                let block = &block;
                scope.spawn(move || assist_claim_loop(cursor, num_blocks, grain, n, block))
            })
            .collect();
        let (mut all, caller) = assist_claim_loop(&cursor, num_blocks, grain, n, &block);
        let mut stats = vec![caller];
        for (h, slot) in handles.into_iter().zip(helper_stats.iter_mut()) {
            match h.join() {
                Ok((part, s)) => {
                    *slot = s;
                    all.extend(part);
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        stats.extend(helper_stats.iter().copied());
        if rec.enabled() {
            let joins = helper_stats.iter().filter(|s| s.claims > 0).count();
            rec.incr("par.assist.joins", joins as u64);
            for s in &stats {
                rec.incr("par.assist.claims", s.claims);
            }
        }
        all
    });

    // Canonical merge: ascending block id reproduces the serial fold.
    tagged.sort_by_key(|(id, _)| *id);
    let mut acc: Option<T> = None;
    for (_, value) in tagged {
        acc = Some(match acc {
            None => value,
            Some(prev) => fold(prev, value),
        });
    }
    acc
}

/// Runs `f(i, &mut buf)` for every `i in 0..n` under assisted claiming,
/// concatenating the per-block buffers in index order: the output is the
/// serial `for i in 0..n` sequence for every thread count.
pub fn assist_flat_map<T, F>(threads: usize, n: usize, grain: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Vec<T>) + Sync,
{
    assist_flat_map_traced(threads, n, grain, &NoopRecorder, f)
}

/// [`assist_flat_map`] with the same `par.assist.*` instrumentation as
/// [`assist_reduce_traced`].
pub fn assist_flat_map_traced<T, F>(
    threads: usize,
    n: usize,
    grain: usize,
    rec: &dyn Recorder,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Vec<T>) + Sync,
{
    assist_reduce_traced(
        threads,
        n,
        grain,
        rec,
        |range| {
            let mut buf = Vec::new();
            for i in range {
                f(i, &mut buf);
            }
            buf
        },
        |mut a, mut b| {
            a.append(&mut b);
            a
        },
    )
    .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_matches_serial_for_every_thread_count() {
        // Sum of i^2 folded left-to-right: float addition is not
        // associative, so bit-equality here proves the ascending-block
        // merge really reproduces the serial fold per block boundary.
        let reference = |grain: usize| {
            assist_reduce(
                1,
                513,
                grain,
                |r| r.map(|i| (i as f64).sqrt()).sum::<f64>(),
                |a, b| a + b,
            )
        };
        for threads in [2, 3, 4, 8, 33] {
            for grain in [1, 2, 7, 64, 1000] {
                let par = assist_reduce(
                    threads,
                    513,
                    grain,
                    |r| r.map(|i| (i as f64).sqrt()).sum::<f64>(),
                    |a, b| a + b,
                );
                assert_eq!(
                    par.map(f64::to_bits),
                    reference(grain).map(f64::to_bits),
                    "threads={threads} grain={grain}"
                );
            }
        }
    }

    #[test]
    fn flat_map_matches_serial_order() {
        let rows = 40;
        let serial: Vec<(usize, usize)> = (0..rows)
            .flat_map(|i| (i + 1..rows).map(move |j| (i, j)))
            .collect();
        for threads in [1, 2, 4, 8] {
            let par = assist_flat_map(threads, rows, 3, |i, out| {
                for j in i + 1..rows {
                    out.push((i, j));
                }
            });
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(assist_reduce(4, 0, 8, |_| 1u32, |a, b| a + b), None);
        assert!(assist_flat_map(4, 0, 8, |i, out| out.push(i)).is_empty());
        assert_eq!(
            assist_flat_map(8, 1, 8, |i, out| out.push(i + 10)),
            vec![10]
        );
    }

    #[test]
    fn traced_loop_reports_claims_and_joins() {
        let rec = lubt_obs::TraceRecorder::new();
        let serial: Vec<usize> = (0..100).map(|i| i + 1).collect();
        let par = assist_flat_map_traced(4, 100, 4, &rec, |i, out| out.push(i + 1));
        assert_eq!(par, serial);
        let t = rec.snapshot();
        assert_eq!(t.counter("par.assist.jobs"), 100);
        assert_eq!(t.counter("par.assist.loops"), 1);
        // 100 jobs / grain 4 = 25 blocks, each claimed exactly once.
        assert_eq!(t.counter("par.assist.claims"), 25);
        assert_eq!(t.maximum("par.assist.workers"), 4);
        // Joins are scheduling-dependent but bounded by the helper count.
        assert!(t.counter("par.assist.joins") <= 3);
    }

    #[test]
    fn every_assist_key_is_determinism_exempt() {
        // Every key this module emits must be quarantined by prefix or
        // nondeterministic claim counts would leak into exact cross-run
        // comparisons.
        let rec = lubt_obs::TraceRecorder::new();
        let _ = assist_flat_map_traced(4, 100, 4, &rec, |i, out| out.push(i));
        let t = rec.snapshot();
        assert!(!t.counters.is_empty());
        for key in t.counters.keys().chain(t.maxima.keys()) {
            assert!(
                lubt_obs::is_determinism_exempt_key(key),
                "assist key {key:?} is not covered by the exemption contract"
            );
        }
    }

    #[test]
    fn participant_panic_propagates() {
        let err = std::panic::catch_unwind(|| {
            assist_flat_map(4, 64, 1, |i, out| {
                assert!(i != 17, "hit the poisoned index");
                out.push(i);
            })
        });
        assert!(err.is_err());
    }
}
