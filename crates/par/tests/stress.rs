//! Loom-style stress tests: scheduling-independence and nesting of the
//! work-assisting claim loop. No loom in the offline tree, so these hammer
//! the real primitives with enough iterations and thread counts to shake
//! out ordering bugs; CI runs the suite both single-threaded
//! (`RUST_TEST_THREADS=1`) and with default parallelism, and under Miri.

use lubt_par::assist_flat_map;

#[test]
fn chunked_loops_are_schedule_independent() {
    // Uneven per-index workloads (triangle rows) across many repetitions:
    // the merged output must always equal the serial order.
    let rows = 96;
    let serial = assist_flat_map(1, rows, 4, |i, out| {
        for j in i + 1..rows {
            out.push((i, j, i * j));
        }
    });
    for rep in 0..20 {
        for threads in [2, 4, 8] {
            let par = assist_flat_map(threads, rows, 4, |i, out| {
                for j in i + 1..rows {
                    out.push((i, j, i * j));
                }
            });
            assert_eq!(par, serial, "rep={rep} threads={threads}");
        }
    }
}

#[test]
fn nested_assist_loops_do_not_deadlock() {
    // Each call spawns its own scoped helpers and the caller always claims
    // blocks itself, so an inner loop never waits on the outer one's workers.
    let out = assist_flat_map(4, 16, 1, |i, out| {
        out.push(assist_flat_map(2, 8, 1, move |j, inner| {
            inner.push(i * 8 + j)
        }));
    });
    let flat: Vec<usize> = out.into_iter().flatten().collect();
    assert_eq!(flat, (0..128).collect::<Vec<_>>());
}
