use crate::builder::ClusterId;
use crate::{MergeTreeBuilder, SourceMode, Topology};
use lubt_geom::Point;

/// Recursive geometric-matching topology generation
/// (Kahng-Cong-Robins DAC'91 family).
///
/// At each level the current clusters are paired up by a greedy minimum
/// Manhattan-distance matching (shortest compatible pair first); each
/// matched pair merges under a Steiner point placed at the pair midpoint,
/// and an unmatched odd cluster passes through to the next level. Levels
/// repeat until a single cluster remains, yielding a balanced full binary
/// tree.
///
/// # Panics
///
/// Panics when `sinks` is empty.
///
/// # Example
///
/// ```
/// use lubt_geom::Point;
/// use lubt_topology::{matching_topology, SourceMode};
/// let sinks: Vec<Point> = (0..8).map(|i| Point::new(f64::from(i), 0.0)).collect();
/// let t = matching_topology(&sinks, SourceMode::Given);
/// assert!(t.is_binary(SourceMode::Given));
/// // Balanced: depth of every sink is log2(8) + 1 below the source.
/// for s in t.sinks() {
///     assert_eq!(t.depth(s), 4);
/// }
/// ```
pub fn matching_topology(sinks: &[Point], mode: SourceMode) -> Topology {
    assert!(!sinks.is_empty(), "need at least one sink");
    let m = sinks.len();
    let mut b = MergeTreeBuilder::new(m);

    let mut level: Vec<(ClusterId, Point)> = sinks
        .iter()
        .enumerate()
        .map(|(i, &p)| (b.sink(i), p))
        .collect();

    while level.len() > 1 {
        // All pairs sorted by distance; greedy disjoint selection.
        let k = level.len();
        let mut pairs = Vec::with_capacity(k * (k - 1) / 2);
        for i in 0..k {
            for j in i + 1..k {
                pairs.push((i, j, level[i].1.dist(level[j].1)));
            }
        }
        pairs.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite distance"));

        let mut used = vec![false; k];
        let mut next_level = Vec::with_capacity(k / 2 + 1);
        for (i, j, _) in pairs {
            if used[i] || used[j] {
                continue;
            }
            used[i] = true;
            used[j] = true;
            let handle = b.merge(level[i].0, level[j].0);
            next_level.push((handle, level[i].1.midpoint(level[j].1)));
        }
        // Odd cluster carries over.
        for (i, &(h, p)) in level.iter().enumerate() {
            if !used[i] {
                next_level.push((h, p));
            }
        }
        level = next_level;
    }

    let top = level[0].0;
    b.finish(top, mode)
        .expect("matching covers every sink once")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_of_two_is_perfectly_balanced() {
        let sinks: Vec<Point> = (0..16)
            .map(|i| Point::new(f64::from(i % 4), f64::from(i / 4)))
            .collect();
        let t = matching_topology(&sinks, SourceMode::Free);
        assert!(t.is_binary(SourceMode::Free));
        for s in t.sinks() {
            assert_eq!(t.depth(s), 4);
        }
    }

    #[test]
    fn odd_count_still_valid() {
        let sinks: Vec<Point> = (0..7)
            .map(|i| Point::new(f64::from(i), f64::from(i * i % 5)))
            .collect();
        let t = matching_topology(&sinks, SourceMode::Given);
        assert_eq!(t.num_sinks(), 7);
        assert!(t.all_sinks_are_leaves());
        assert!(t.is_binary(SourceMode::Given));
    }

    #[test]
    fn single_and_pair() {
        let t = matching_topology(&[Point::ORIGIN], SourceMode::Given);
        assert_eq!(t.num_nodes(), 2);
        let t = matching_topology(&[Point::ORIGIN, Point::new(1.0, 0.0)], SourceMode::Free);
        assert_eq!(t.num_sinks(), 2);
    }
}
