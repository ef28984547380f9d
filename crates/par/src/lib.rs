//! Dependency-free deterministic parallelism for the LUBT workspace.
//!
//! One engine, built on scoped `std` threads and one atomic only (the
//! build environment is offline — no rayon, no crossbeam):
//! [`assist_flat_map`] / [`assist_reduce`] cut an index range into blocks
//! of `grain` indices and let every participant — the caller plus
//! `threads - 1` helpers — claim the next block from one shared atomic
//! cursor. Per-block results are tagged with their block id and merged in
//! ascending block order after the join, so the result is **bit-for-bit
//! identical for every thread count** (including the serial
//! `threads <= 1` path) as long as the per-block work is pure and the fold
//! is associative over adjacent index ranges (DESIGN.md §9).
//!
//! Its consumers are batch solving (one loop per call, one instance per
//! block) and the separation triangle (one loop per round). That
//! merge-order guarantee is the contract the EBF separation oracle relies
//! on: the violated-cut set a lazy solve adds each round — and therefore
//! the simplex pivot sequence — must not depend on scheduling.
//!
//! # Example
//!
//! ```
//! let squares = lubt_par::assist_flat_map(4, 100, 8, |i, out| out.push(i * i));
//! assert_eq!(squares, (0..100).map(|i| i * i).collect::<Vec<_>>());
//! // Same output on the exact sequential path.
//! assert_eq!(squares, lubt_par::assist_flat_map(1, 100, 8, |i, out| out.push(i * i)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assist;

pub use assist::{assist_flat_map, assist_flat_map_traced, assist_reduce, assist_reduce_traced};

/// Number of hardware threads available to this process (at least 1).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a user-facing thread-count knob: `0` means "one worker per
/// available core", any other value is taken literally. `1` selects the
/// exact sequential path everywhere in the workspace.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        available_parallelism()
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_is_positive() {
        assert!(available_parallelism() >= 1);
        assert_eq!(resolve_threads(0), available_parallelism());
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }
}
