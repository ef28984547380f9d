//! Property tests of the parallel separation oracle and the parallel solve
//! path: for any instance and any thread count, results must be
//! bit-for-bit identical to the sequential reference.

use lubt_core::{
    violated_pairs, violated_pairs_with_threads, DelayBounds, EbfSolver, LubtBuilder, SteinerMode,
};
use lubt_delay::linear::{node_delays, path_length};
use lubt_geom::Point;
use lubt_topology::NodeId;
use proptest::prelude::*;

fn sink_set(max: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(
        (0.0..200.0f64, 0.0..200.0f64).prop_map(|(x, y)| Point::new(x, y)),
        2..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The parallel oracle returns the exact serial cut sequence — same
    /// pairs, same order, same violation bits — for every thread count,
    /// including counts far above the pair-row count.
    #[test]
    fn parallel_oracle_equals_serial_reference(
        sinks in sink_set(64),
        scale in 0.0..2.0f64,
    ) {
        let m = sinks.len();
        let problem = LubtBuilder::new(sinks)
            .bounds(DelayBounds::unbounded(m))
            .build()
            .expect("valid instance");
        // Deliberately short lengths so a scale-dependent subset of the
        // Steiner constraints is violated.
        let lengths = vec![scale; problem.topology().num_nodes()];
        let serial = violated_pairs(&problem, &lengths, 1e-9);
        for threads in [2usize, 3, 7, 16, 0] {
            let par = violated_pairs_with_threads(&problem, &lengths, 1e-9, threads);
            prop_assert_eq!(par.len(), serial.len(), "threads={}", threads);
            for (k, (s, p)) in serial.iter().zip(par.iter()).enumerate() {
                prop_assert!(
                    s.0.a == p.0.a && s.0.b == p.0.b && s.1.to_bits() == p.1.to_bits(),
                    "threads={}: cut {} diverged: serial ({}, {}, {}) vs parallel ({}, {}, {})",
                    threads, k, s.0.a, s.0.b, s.1, p.0.a, p.0.b, p.1
                );
            }
        }
    }

    /// The sweep oracle against a brute-force reference: each pair's
    /// violation from `path_length` (one LCA query per pair), then a
    /// stable most-violated-first sort of the enumeration. Random
    /// per-edge lengths, every second to fifth edge zero; equal bits at 1
    /// and several threads.
    #[test]
    fn sweep_oracle_equals_lca_reference(
        sinks in sink_set(48),
        edges in proptest::collection::vec(0.0..80.0f64, 96..97),
        zero_every in 2usize..6,
    ) {
        let m = sinks.len();
        let problem = LubtBuilder::new(sinks)
            .bounds(DelayBounds::unbounded(m))
            .build()
            .expect("valid instance");
        let topo = problem.topology();
        let lengths: Vec<f64> = (0..topo.num_nodes())
            .map(|v| if v % zero_every == 0 { 0.0 } else { edges[v] })
            .collect();
        let delays = node_delays(topo, &lengths);
        let mut reference = Vec::new();
        for i in 1..=m {
            for j in i + 1..=m {
                let (a, b) = (NodeId(i), NodeId(j));
                let need = problem.sink_location(a).dist(problem.sink_location(b));
                let violation = need - path_length(topo, &delays, a, b);
                if violation > 1e-9 {
                    reference.push((i, j, need.to_bits(), violation));
                }
            }
        }
        reference.sort_by(|x, y| y.3.partial_cmp(&x.3).unwrap());
        let reference: Vec<_> = reference
            .into_iter()
            .map(|(i, j, need, v)| (i, j, need, v.to_bits()))
            .collect();
        for threads in [1usize, 2, 5] {
            let got: Vec<_> = violated_pairs_with_threads(&problem, &lengths, 1e-9, threads)
                .into_iter()
                .map(|(p, v)| (p.a.0, p.b.0, p.dist.to_bits(), v.to_bits()))
                .collect();
            prop_assert_eq!(&got, &reference, "threads={}", threads);
        }
    }

    /// Full solves agree between 1 and 4 oracle threads across random
    /// mixes of eager and lazy configurations: identical edge-length bits
    /// and identical solve reports.
    #[test]
    fn full_solve_is_thread_invariant_across_steiner_modes(
        sinks in sink_set(16),
        lower_frac in 0.0..1.0f64,
        eager in proptest::bool::ANY,
        tight_budget in proptest::bool::ANY,
    ) {
        let m = sinks.len();
        let radius = lubt_delay::skew::radius_free(&sinks);
        prop_assume!(radius > 1.0);
        let mode = if eager {
            SteinerMode::Eager
        } else if tight_budget {
            // Tiny budget exercises the max_rounds safety net under
            // parallel separation as well.
            SteinerMode::Lazy { max_rounds: 2, batch: 2 }
        } else {
            SteinerMode::default_lazy()
        };
        let problem = LubtBuilder::new(sinks)
            .bounds(DelayBounds::uniform(m, lower_frac * radius, 1.6 * radius))
            .build()
            .expect("valid instance");
        let solve = |threads: usize| {
            EbfSolver::new()
                .with_steiner_mode(mode)
                .with_threads(threads)
                .solve(&problem)
                .expect("window above the radius is feasible")
        };
        let (base_lengths, base_report) = solve(1);
        let (par_lengths, par_report) = solve(4);
        for (k, (a, b)) in base_lengths.iter().zip(&par_lengths).enumerate() {
            prop_assert!(
                a.to_bits() == b.to_bits(),
                "mode {:?}: edge e_{} diverged: {} vs {}",
                mode, k, a, b
            );
        }
        prop_assert_eq!(base_report, par_report, "mode {:?}", mode);
    }
}
