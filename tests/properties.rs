//! Property-based tests over the whole pipeline: random instances, random
//! feasible windows — every solution must verify and satisfy the paper's
//! structural theorems.

use lubt::core::{DelayBounds, LubtBuilder};
use lubt::delay::linear::{node_delays, path_length};
use lubt::geom::Point;
use proptest::prelude::*;

fn sink_set() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(
        (0.0..100.0f64, 0.0..100.0f64).prop_map(|(x, y)| Point::new(x, y)),
        2..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any feasible window produces a solution that passes independent
    /// verification, and whose embedding satisfies every pairwise Steiner
    /// constraint when re-measured geometrically.
    #[test]
    fn solutions_verify_and_satisfy_steiner(
        sinks in sink_set(),
        lower_frac in 0.0..1.2f64,
        width_frac in 0.05..1.0f64,
        sx in 0.0..100.0f64,
        sy in 0.0..100.0f64,
    ) {
        let m = sinks.len();
        let source = Point::new(sx, sy);
        let radius = sinks.iter().map(|s| source.dist(*s)).fold(0.0f64, f64::max);
        prop_assume!(radius > 1.0);
        // Window guaranteed feasible: u >= radius (Equation 3).
        let l = lower_frac * radius;
        let u = (lower_frac + width_frac).max(1.0) * radius + 1e-9;
        let sol = LubtBuilder::new(sinks.clone())
            .source(source)
            .bounds(DelayBounds::uniform(m, l.min(u), u))
            .solve()
            .expect("window above the radius is feasible (Lemma 3.1)");
        prop_assert!(sol.verify().is_ok(), "verify failed: {:?}", sol.verify());

        // Steiner sufficiency check from the embedding itself.
        let topo = sol.problem().topology();
        let delays = node_delays(topo, sol.edge_lengths());
        for i in 1..=m {
            for j in i + 1..=m {
                let a = lubt::topology::NodeId(i);
                let b = lubt::topology::NodeId(j);
                let need = sinks[i - 1].dist(sinks[j - 1]);
                let have = path_length(topo, &delays, a, b);
                prop_assert!(
                    have >= need - 1e-6 * (1.0 + need),
                    "pair ({i},{j}): path {have} < dist {need}"
                );
            }
        }
    }

    /// Zero-skew windows produce genuinely zero-skew embeddings.
    #[test]
    fn zero_skew_windows_have_zero_skew(
        sinks in sink_set(),
        sx in 0.0..100.0f64,
        sy in 0.0..100.0f64,
        target_frac in 1.0..2.0f64,
    ) {
        let m = sinks.len();
        let source = Point::new(sx, sy);
        let radius = sinks.iter().map(|s| source.dist(*s)).fold(0.0f64, f64::max);
        prop_assume!(radius > 1.0);
        let sol = LubtBuilder::new(sinks)
            .source(source)
            .bounds(DelayBounds::zero_skew(m, target_frac * radius + 1e-9))
            .solve()
            .expect("target above radius is feasible");
        prop_assert!(sol.skew() < 1e-6 * radius, "skew {}", sol.skew());
        prop_assert!(sol.verify().is_ok());
    }

    /// §4.6 equivalence as a property: the zero-skew closed form and the
    /// general LP at `l = u` agree on cost for random instances.
    #[test]
    fn zero_skew_closed_form_equals_lp(
        sinks in proptest::collection::vec(
            (0.0..60.0f64, 0.0..60.0f64).prop_map(|(x, y)| Point::new(x, y)),
            2..8,
        ),
        sx in 0.0..60.0f64,
        sy in 0.0..60.0f64,
    ) {
        let src = Point::new(sx, sy);
        let radius = sinks.iter().map(|s| src.dist(*s)).fold(0.0f64, f64::max);
        prop_assume!(radius > 1.0);
        let topo = lubt::topology::nearest_neighbor_topology(
            &sinks,
            lubt::topology::SourceMode::Given,
        );
        let zst = lubt::core::zero_skew_edge_lengths(&topo, &sinks, Some(src), None)
            .expect("natural zero-skew always exists");
        let closed_cost = lubt::delay::linear::tree_cost(&zst.edge_lengths);
        let problem = lubt::core::LubtProblem::new(
            sinks.clone(),
            Some(src),
            topo,
            DelayBounds::zero_skew(sinks.len(), zst.delay),
        )
        .expect("valid problem");
        let (lengths, _) = lubt::core::EbfSolver::new().solve(&problem).expect("feasible");
        let lp_cost = lubt::delay::linear::tree_cost(&lengths);
        let scale = 1.0 + closed_cost;
        prop_assert!(
            (closed_cost - lp_cost).abs() / scale < 1e-6,
            "closed form {closed_cost} vs LP {lp_cost}"
        );
    }

    /// The dense and revised simplex backends agree on the optimal cost.
    #[test]
    fn backends_agree_on_random_instances(
        sinks in proptest::collection::vec(
            (0.0..50.0f64, 0.0..50.0f64).prop_map(|(x, y)| Point::new(x, y)),
            2..8,
        ),
    ) {
        let m = sinks.len();
        let radius = lubt::delay::skew::radius_free(&sinks);
        prop_assume!(radius > 1.0);
        let mk = |backend| {
            LubtBuilder::new(sinks.clone())
                .bounds(DelayBounds::uniform(m, 0.8 * radius, 1.5 * radius))
                .backend(backend)
                .solve()
        };
        let simplex = mk(lubt::core::SolverBackend::Simplex).expect("feasible");
        let revised = mk(lubt::core::SolverBackend::Revised).expect("feasible");
        let scale = 1.0 + simplex.cost();
        prop_assert!(
            (simplex.cost() - revised.cost()).abs() / scale < 1e-4,
            "simplex {} vs revised {}",
            simplex.cost(),
            revised.cost()
        );
    }

    /// Differential test of the parallel separation oracle: solving the
    /// same instance with 1, 2 and 8 oracle threads must produce the same
    /// Solution JSON byte for byte — the cut sequence fixes the simplex
    /// pivot sequence, so any divergence means the parallel merge order
    /// broke the determinism contract.
    #[test]
    fn oracle_thread_count_never_changes_the_solution(
        sinks in sink_set(),
        sx in 0.0..100.0f64,
        sy in 0.0..100.0f64,
        lower_frac in 0.0..1.0f64,
    ) {
        let m = sinks.len();
        let source = Point::new(sx, sy);
        let radius = sinks.iter().map(|s| source.dist(*s)).fold(0.0f64, f64::max);
        prop_assume!(radius > 1.0);
        let solve = |threads: usize| {
            LubtBuilder::new(sinks.clone())
                .source(source)
                .bounds(DelayBounds::uniform(m, lower_frac * radius, 1.5 * radius))
                .threads(threads)
                .solve()
                .expect("window above the radius is feasible")
        };
        let base = solve(1);
        let base_json = lubt::core::solution_to_json(&base);
        for threads in [2usize, 8] {
            let other = solve(threads);
            let other_json = lubt::core::solution_to_json(&other);
            if base_json != other_json {
                // Name the first diverging edge before failing.
                let diverged = base
                    .edge_lengths()
                    .iter()
                    .zip(other.edge_lengths())
                    .enumerate()
                    .find(|(_, (a, b))| a.to_bits() != b.to_bits());
                match diverged {
                    Some((edge, (a, b))) => prop_assert!(
                        false,
                        "threads={threads}: first diverging edge e_{edge}: \
                         {a} (1 thread) vs {b} ({threads} threads)"
                    ),
                    None => prop_assert!(
                        false,
                        "threads={threads}: JSON differs but edge lengths agree \
                         (embedding or report divergence)"
                    ),
                }
            }
        }
    }

    /// Both placement policies yield verifiable embeddings of the same
    /// LP optimum.
    #[test]
    fn placement_policies_both_verify(
        sinks in sink_set(),
        sx in 0.0..100.0f64,
        sy in 0.0..100.0f64,
    ) {
        let m = sinks.len();
        let source = Point::new(sx, sy);
        let radius = sinks.iter().map(|s| source.dist(*s)).fold(0.0f64, f64::max);
        prop_assume!(radius > 1.0);
        for policy in [
            lubt::core::PlacementPolicy::ClosestToParent,
            lubt::core::PlacementPolicy::Center,
        ] {
            let sol = LubtBuilder::new(sinks.clone())
                .source(source)
                .bounds(DelayBounds::uniform(m, 0.5 * radius, 1.4 * radius))
                .placement(policy)
                .solve()
                .expect("feasible");
            prop_assert!(sol.verify().is_ok(), "{policy:?}: {:?}", sol.verify());
        }
    }
}

/// Builds a histogram over `vals`.
fn hist(vals: &[u64]) -> lubt::obs::Histogram {
    let mut h = lubt::obs::Histogram::new();
    for &v in vals {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram merge is commutative and associative — the property that
    /// makes `AggregateTrace` folds independent of completion order.
    #[test]
    fn histogram_merge_is_commutative_and_associative(
        a in proptest::collection::vec(0u64..1_000_000_000, 0..40),
        b in proptest::collection::vec(0u64..1_000, 0..40),
        c in proptest::collection::vec(0u64..40, 0..40),
    ) {
        let (ha, hb, hc) = (hist(&a), hist(&b), hist(&c));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
        let mut ab_c = ab.clone();
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc);
    }

    /// Percentiles are monotone in `q` and always land inside the observed
    /// `[min, max]` range, despite the log-bucket approximation.
    #[test]
    fn histogram_percentiles_are_monotone_and_bounded(
        vals in proptest::collection::vec(0u64..1_000_000_000, 1..80),
        qs in proptest::collection::vec(0.0..1.0f64, 2..6),
    ) {
        let h = hist(&vals);
        let mut qs = qs;
        qs.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let ps: Vec<u64> = qs
            .iter()
            .map(|&q| h.percentile(q).expect("non-empty histogram"))
            .collect();
        for w in ps.windows(2) {
            prop_assert!(w[0] <= w[1], "percentiles not monotone: {ps:?} for {qs:?}");
        }
        let lo = *vals.iter().min().unwrap();
        let hi = *vals.iter().max().unwrap();
        for &p in &ps {
            prop_assert!((lo..=hi).contains(&p), "percentile {p} outside [{lo}, {hi}]");
        }
    }

    /// `percentile` is total over the whole `f64` line: NaN is rejected
    /// explicitly (it used to fall through the comparisons and masquerade
    /// as a small quantile), everything else clamps into `[0, 1]` and
    /// still lands inside the observed `[min, max]`.
    #[test]
    fn histogram_percentile_is_total_over_hostile_q(
        vals in proptest::collection::vec(0u64..1_000_000_000, 1..80),
        q in (0u8..6, -1e6..1e6f64).prop_map(|(kind, x)| match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -x.abs(),
            4 => 1.0 + x.abs(),
            _ => x,
        }),
    ) {
        let h = hist(&vals);
        prop_assert_eq!(h.percentile(f64::NAN), None);
        let lo = *vals.iter().min().unwrap();
        let hi = *vals.iter().max().unwrap();
        match h.percentile(q) {
            None => prop_assert!(q.is_nan(), "only NaN may be rejected, got None for {q}"),
            Some(p) => {
                prop_assert!((lo..=hi).contains(&p), "percentile {p} outside [{lo}, {hi}]");
                if q <= 0.0 {
                    prop_assert_eq!(p, lo, "q={} below range must clamp to min", q);
                }
                if q >= 1.0 {
                    prop_assert_eq!(p, hi, "q={} above range must clamp to max", q);
                }
            }
        }
    }

    /// Counts near `u64::MAX` saturate instead of wrapping, and the merge
    /// laws (commutativity, order independence) survive at the ceiling.
    #[test]
    fn histogram_merge_saturates_near_u64_max(
        vals in proptest::collection::vec(0u64..1_000, 1..20),
        copies in 1usize..4,
    ) {
        // Drive one histogram's counts to the ceiling by merging it into
        // itself through exponential doubling.
        let mut big = hist(&vals);
        for _ in 0..64 {
            let snapshot = big.clone();
            big.merge(&snapshot);
        }
        prop_assert_eq!(big.count(), u64::MAX, "64 doublings must pin the count");
        let small = hist(&vals);
        let mut bs = big.clone();
        bs.merge(&small);
        let mut sb = small.clone();
        sb.merge(&big);
        prop_assert_eq!(&bs, &sb, "saturating merge stays commutative");
        prop_assert_eq!(bs.count(), u64::MAX);
        for _ in 0..copies {
            let snapshot = bs.clone();
            bs.merge(&snapshot);
        }
        // Percentiles stay total and bounded at the ceiling.
        let lo = *vals.iter().min().unwrap();
        let hi = *vals.iter().max().unwrap();
        for q in [0.0, 0.5, 0.99, 1.0] {
            let p = bs.percentile(q).expect("non-empty");
            prop_assert!((lo..=hi).contains(&p));
        }
    }

    /// Sharding the recordings over real worker threads and merging the
    /// shard histograms reproduces the serial histogram exactly, whatever
    /// the shard count — bucket contents cannot depend on scheduling.
    #[test]
    fn histogram_is_sharding_invariant_across_thread_counts(
        vals in proptest::collection::vec(0u64..1_000_000_000, 1..120),
        shards in 1usize..8,
    ) {
        let serial = hist(&vals);
        let chunk = vals.len().div_ceil(shards);
        let parts: Vec<lubt::obs::Histogram> = std::thread::scope(|scope| {
            vals.chunks(chunk)
                .map(|part| scope.spawn(move || hist(part)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|handle| handle.join().expect("shard worker"))
                .collect()
        });
        // Merge in reverse completion order for good measure.
        let mut merged = lubt::obs::Histogram::new();
        for part in parts.iter().rev() {
            merged.merge(part);
        }
        prop_assert_eq!(merged, serial);
    }
}
