use crate::{MergeTreeBuilder, SourceMode, Topology};
use lubt_geom::Point;

/// Nearest-neighbor merge topology generation (Edahiro DAC'93 family — the
/// generator the paper "adopted from \[9\]").
///
/// Starting from singleton clusters at the sink locations, the two clusters
/// whose representative points are closest in the Manhattan metric are
/// merged under a fresh Steiner point, until one cluster remains. The
/// representative of a merged cluster is placed on the segment between its
/// children so that the two subtree delays balance under the linear delay
/// model (the same balancing rule zero-skew DME uses), which is what makes
/// the resulting topologies good inputs for skew-controlled routing.
///
/// The returned topology is a full binary tree in which every sink is a
/// leaf, so by Lemma 3.1 a LUBT exists for *any* bounds.
///
/// # Panics
///
/// Panics when `sinks` is empty.
///
/// # Example
///
/// ```
/// use lubt_geom::Point;
/// use lubt_topology::{nearest_neighbor_topology, SourceMode};
/// let sinks = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(9.0, 9.0)];
/// let t = nearest_neighbor_topology(&sinks, SourceMode::Free);
/// // The two nearby sinks (nodes 1 and 2) share a parent.
/// assert_eq!(t.parent(t.sink_node(0)), t.parent(t.sink_node(1)));
/// ```
pub fn nearest_neighbor_topology(sinks: &[Point], mode: SourceMode) -> Topology {
    assert!(!sinks.is_empty(), "need at least one sink");
    let m = sinks.len();
    let mut b = MergeTreeBuilder::new(m);
    if m == 1 {
        return b
            .clone()
            .finish(b.sink(0), mode)
            .expect("single sink tree is always valid");
    }

    #[derive(Clone, Copy)]
    struct Cluster {
        handle: crate::builder::ClusterId,
        rep: Point,
        delay: f64,
    }

    let mut clusters: Vec<Option<Cluster>> = sinks
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            Some(Cluster {
                handle: b.sink(i),
                rep: p,
                delay: 0.0,
            })
        })
        .collect();

    // Cached nearest neighbor per live cluster: (partner index, distance).
    let nearest_of = |clusters: &[Option<Cluster>], i: usize| -> Option<(usize, f64)> {
        let ci = clusters[i]?;
        let mut best: Option<(usize, f64)> = None;
        for (j, cj) in clusters.iter().enumerate() {
            if j == i {
                continue;
            }
            if let Some(cj) = cj {
                let d = ci.rep.dist(cj.rep);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((j, d));
                }
            }
        }
        best
    };
    let mut nn: Vec<Option<(usize, f64)>> = (0..clusters.len())
        .map(|i| nearest_of(&clusters, i))
        .collect();

    let mut live = m;
    while live > 1 {
        // Globally closest pair from the cache.
        let (i, _) = nn
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|(_, d)| (i, d)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distance"))
            .expect("at least two live clusters");
        let (j, d) = nn[i].expect("cache entry for live cluster");

        let a = clusters[i].take().expect("live");
        let c = clusters[j].take().expect("live");
        let merged = merge_clusters(&mut b, a, c, d);
        clusters[i] = Some(merged);
        nn[j] = None;

        // Refresh caches that referenced the merged pair, plus the new
        // cluster itself.
        nn[i] = nearest_of(&clusters, i);
        for k in 0..clusters.len() {
            if k == i || clusters[k].is_none() {
                continue;
            }
            match nn[k] {
                Some((p, _)) if p == i || p == j => nn[k] = nearest_of(&clusters, k),
                _ => {
                    // The new cluster may be closer than the cached partner.
                    let ck = clusters[k].expect("live");
                    let d = ck.rep.dist(merged.rep);
                    if nn[k].is_none_or(|(_, bd)| d < bd) {
                        nn[k] = Some((i, d));
                    }
                }
            }
        }
        live -= 1;

        fn merge_clusters(b: &mut MergeTreeBuilder, a: Cluster, c: Cluster, d: f64) -> Cluster {
            let handle = b.merge(a.handle, c.handle);
            let gap = (a.delay - c.delay).abs();
            if gap <= d {
                // Balanced split: e_a + e_c = d with delays equalized.
                let ea = ((d + c.delay - a.delay) / 2.0).clamp(0.0, d);
                let t = if d > 0.0 { ea / d } else { 0.5 };
                let rep = Point::new(
                    a.rep.x + t * (c.rep.x - a.rep.x),
                    a.rep.y + t * (c.rep.y - a.rep.y),
                );
                Cluster {
                    handle,
                    rep,
                    delay: a.delay + ea,
                }
            } else if a.delay > c.delay {
                // The deeper side dominates; merge at its representative
                // (the shallower side will be elongated).
                Cluster {
                    handle,
                    rep: a.rep,
                    delay: a.delay,
                }
            } else {
                Cluster {
                    handle,
                    rep: c.rep,
                    delay: c.delay,
                }
            }
        }
    }

    let top = clusters
        .iter()
        .flatten()
        .next()
        .expect("one cluster remains")
        .handle;
    b.finish(top, mode).expect("merge covers every sink once")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn merges_closest_pair_first() {
        let sinks = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(50.0, 50.0),
            Point::new(52.0, 50.0),
        ];
        let t = nearest_neighbor_topology(&sinks, SourceMode::Free);
        assert_eq!(t.num_sinks(), 4);
        assert!(t.is_binary(SourceMode::Free));
        // The two left sinks share a parent, and the two right sinks do.
        assert_eq!(t.parent(NodeId(1)), t.parent(NodeId(2)));
        assert_eq!(t.parent(NodeId(3)), t.parent(NodeId(4)));
    }

    #[test]
    fn all_sizes_produce_valid_binary_trees() {
        for m in 1..24usize {
            let sinks: Vec<Point> = (0..m)
                .map(|i| {
                    // Deterministic scatter.
                    let a = (i * 37 % 101) as f64;
                    let b = (i * 61 % 89) as f64;
                    Point::new(a, b)
                })
                .collect();
            let t = nearest_neighbor_topology(&sinks, SourceMode::Given);
            assert_eq!(t.num_sinks(), m);
            assert!(t.all_sinks_are_leaves());
            if m >= 2 {
                assert!(t.is_binary(SourceMode::Given), "m={m}");
                assert_eq!(t.num_nodes(), 2 * m); // root + m sinks + (m-1) steiner
            }
        }
    }

    #[test]
    fn collinear_equal_points() {
        // Duplicate locations must not break the generator.
        let sinks = vec![Point::new(5.0, 5.0); 6];
        let t = nearest_neighbor_topology(&sinks, SourceMode::Free);
        assert_eq!(t.num_sinks(), 6);
        assert!(t.all_sinks_are_leaves());
    }
}
