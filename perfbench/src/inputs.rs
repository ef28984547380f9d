//! Workload inputs. Every net comes from the in-repo synthetic
//! generators; the workload seed only decides which nets of a fixed,
//! stratified pool a run uses and in which order, so every net a run can
//! draw has a pinned reference cost (see `references.txt`).

use lubt_core::{DelayBounds, LubtBuilder, LubtProblem};
use lubt_data::{synthetic, Instance};

/// Side of the square die the pool nets are placed on.
const DIE: f64 = 10_000.0;
/// Gaussian-ish clusters per clustered pool net.
const CLUSTERS: usize = 4;

/// The §4.3 delay-window families, as fractions of the net's radius.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Upper bound only: `[0, 1.2R]`.
    UpperOnly,
    /// Lower and upper bound: `[0.9R, 1.4R]`.
    Bounded,
    /// Zero skew: `[1.0R, 1.0R]`.
    ZeroSkew,
}

impl Window {
    const ALL: [Window; 3] = [Window::UpperOnly, Window::Bounded, Window::ZeroSkew];

    /// `(lower, upper)` as fractions of the radius.
    pub fn fractions(self) -> (f64, f64) {
        match self {
            Window::UpperOnly => (0.0, 1.2),
            Window::Bounded => (0.9, 1.4),
            Window::ZeroSkew => (1.0, 1.0),
        }
    }
}

/// One net of a workload: the instance plus its delay window.
#[derive(Debug, Clone)]
pub struct Net {
    /// Stable name, the key of its pinned reference cost.
    pub key: String,
    /// Sinks and source.
    pub inst: Instance,
    /// Delay window family.
    pub window: Window,
}

impl Net {
    /// A builder for this net with the library defaults: the window
    /// made absolute from the radius as the CLI does it, the source
    /// pinned when the instance has one.
    pub fn builder(&self) -> LubtBuilder {
        let r = self.inst.radius();
        let (lo, up) = self.window.fractions();
        let bounds = DelayBounds::uniform(self.inst.sinks.len(), lo * r, up * r);
        let builder = LubtBuilder::new(self.inst.sinks.clone()).bounds(bounds);
        match self.inst.source {
            Some(s) => builder.source(s),
            None => builder,
        }
    }

    /// The problem with the default nearest-neighbour topology.
    pub fn problem(&self) -> LubtProblem {
        self.builder()
            .build()
            .expect("pool nets are well-formed by construction")
    }
}

/// A net as the CLI receives it: the instance in the text format.
pub struct TextNet {
    /// The generated net.
    pub net: Net,
    /// `lubt_data::io::write` of its instance.
    pub text: String,
}

impl TextNet {
    /// Writes `net` out as text.
    pub fn new(net: Net) -> Self {
        let text = lubt_data::io::write(&net.inst);
        TextNet { net, text }
    }

    /// The net read back with `lubt_data::io::parse`.
    pub fn parse(&self) -> Result<Net, String> {
        let inst =
            lubt_data::io::parse(&self.text).map_err(|e| format!("{}: {e}", self.net.key))?;
        Ok(Net {
            inst,
            ..self.net.clone()
        })
    }
}

/// The synthetic analogues of the paper's `prim1`, `r1` and `prim2` at
/// the published sink counts, with the delay window `[0.9R, 1.4R]`.
pub fn paper_nets() -> Vec<Net> {
    [
        ("paper/prim1", synthetic::prim1()),
        ("paper/r1", synthetic::r1()),
        ("paper/prim2", synthetic::prim2()),
    ]
    .into_iter()
    .map(|(key, inst)| Net {
        key: key.to_string(),
        inst,
        window: Window::Bounded,
    })
    .collect()
}

/// A fixed pool of seeded nets, stratified into classes by sink count,
/// placement (uniform or clustered) and window family.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    /// Key prefix of the pool's nets.
    pub prefix: &'static str,
    /// Sink counts, one class each.
    pub sizes: &'static [usize],
    /// Nets in the pool; a multiple of [`Pool::classes`].
    pub len: usize,
    /// Generator seed of net 0; net `k` uses `base_seed + k`.
    pub base_seed: u64,
}

/// `small-batch`: nets of 8 to 64 sinks, three per class; a batch is the
/// whole pool in seeded order.
pub const BATCH_POOL: Pool = Pool {
    prefix: "batch",
    sizes: &[8, 16, 24, 32, 48, 64],
    len: 36 * 3,
    base_seed: 0x5eed_0000,
};

/// `serve-mixed`: nets of 16 to 128 sinks.
pub const SERVE_POOL: Pool = Pool {
    prefix: "serve",
    sizes: &[16, 32, 48, 64, 96, 128],
    len: 36 * 40,
    base_seed: 0x5eed_8000,
};

impl Pool {
    /// Size × placement × window classes.
    pub fn classes(&self) -> usize {
        self.sizes.len() * 2 * Window::ALL.len()
    }

    /// Which of [`Pool::sizes`] net `k` has.
    pub fn size_index(&self, k: usize) -> usize {
        k % self.sizes.len()
    }

    /// Net `k` of the pool, `k < len`. Class `k % classes()`.
    pub fn net(&self, k: usize) -> Net {
        let s = self.sizes.len();
        let m = self.sizes[self.size_index(k)];
        let clustered = (k / s) % 2 == 1;
        let window = Window::ALL[(k / (2 * s)) % Window::ALL.len()];
        let key = format!("{}/{k}", self.prefix);
        let seed = self.base_seed + k as u64;
        let inst = if clustered {
            synthetic::clustered(&key, m, DIE, CLUSTERS, seed)
        } else {
            synthetic::uniform(&key, m, DIE, seed)
        };
        Net { key, inst, window }
    }

    /// `count` distinct pool indices for `seed`, stratified: every run of
    /// `classes()` consecutive draws holds each class once (in a seeded
    /// order), and each class hands out its members in a seeded order.
    /// So any two seeds draw the same mix of sizes, placements and
    /// windows, and differ only in which nets and in what order.
    ///
    /// # Panics
    ///
    /// When `count > len`.
    pub fn draw(&self, seed: u64, count: usize) -> Vec<usize> {
        assert!(
            count <= self.len,
            "pool {} has only {} nets",
            self.prefix,
            self.len
        );
        let c = self.classes();
        let per_class = self.len / c;
        let mut rng = SplitMix::new(seed);
        let members: Vec<Vec<usize>> = (0..c)
            .map(|class| {
                let mut m: Vec<usize> = (0..per_class).map(|t| class + c * t).collect();
                rng.shuffle(&mut m);
                m
            })
            .collect();
        let mut out = Vec::with_capacity(count);
        let mut order: Vec<usize> = (0..c).collect();
        while out.len() < count {
            let cycle = out.len() / c;
            rng.shuffle(&mut order);
            let take = (count - out.len()).min(c);
            out.extend(order[..take].iter().map(|&class| members[class][cycle]));
        }
        out
    }
}

/// SplitMix64: a small, fully specified generator, so the benchmark's
/// draws never depend on another crate's RNG choices.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`, `n > 0`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_distinct_stratified_and_seeded() {
        let pool = BATCH_POOL;
        let c = pool.classes();
        let a = pool.draw(7, 3 * c);
        assert_eq!(a, pool.draw(7, 3 * c));
        assert_ne!(a, pool.draw(8, 3 * c));
        let mut seen = a.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), a.len());
        for chunk in a.chunks(c) {
            let mut classes: Vec<usize> = chunk.iter().map(|k| k % c).collect();
            classes.sort_unstable();
            assert_eq!(classes, (0..c).collect::<Vec<_>>());
        }
        assert_eq!(pool.draw(1, pool.len).len(), pool.len);
    }

    #[test]
    fn pool_nets_cover_every_class() {
        let pool = SERVE_POOL;
        let nets: Vec<Net> = (0..pool.classes()).map(|k| pool.net(k)).collect();
        for size in pool.sizes {
            for window in Window::ALL {
                let n = nets
                    .iter()
                    .filter(|n| n.inst.sinks.len() == *size && n.window == window)
                    .count();
                assert_eq!(n, 2, "size {size} window {window:?}");
            }
        }
        assert_eq!(pool.net(5).inst, pool.net(5).inst);
    }
}
