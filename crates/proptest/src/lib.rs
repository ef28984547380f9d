//! Workspace-local stand-in for the subset of the `proptest` crate that
//! LUBT's property tests use.
//!
//! The build environment is offline, so the real `proptest` cannot be
//! fetched. This shim keeps all existing `proptest! { ... }` test modules
//! source-compatible:
//!
//! * [`strategy::Strategy`] with `prop_map`, implemented for numeric
//!   ranges, tuples of strategies, and [`collection::vec`];
//! * the [`proptest!`] macro (including `#![proptest_config(...)]`),
//!   [`prop_assert!`], [`prop_assert_eq!`] and [`prop_assume!`];
//! * [`test_runner::ProptestConfig`] with `with_cases`.
//!
//! Unlike upstream there is **no shrinking**: a failing case panics with
//! the deterministic case number so it can be replayed (generation is
//! seeded from the test name, so runs are reproducible).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;
pub mod test_runner;

/// Strategies over collections.
pub mod collection {
    use crate::strategy::{Strategy, VecStrategy};
    use std::ops::Range;

    /// Number of elements a [`vec()`] strategy may generate.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        pub(crate) min: usize,
        /// Exclusive upper end.
        pub(crate) max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                min: r.start,
                max: r.end,
            }
        }
    }

    /// A strategy producing `Vec`s whose elements come from `element` and
    /// whose length is drawn from `size` (a fixed `usize` or a
    /// `Range<usize>`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        let size = size.into();
        VecStrategy {
            element,
            min: size.min,
            max: size.max,
        }
    }
}

/// Strategies over `bool`.
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy yielding uniformly random booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct BoolStrategy;

    /// Any boolean, as upstream's `proptest::bool::ANY`.
    pub const ANY: BoolStrategy = BoolStrategy;

    impl Strategy for BoolStrategy {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// The glob-importable surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

#[macro_export]
/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that samples the strategies `cases` times and runs
/// the body against each sample.
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (config = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::from_name(stringify!($name));
            let mut accepted: u32 = 0;
            let mut attempts: u32 = 0;
            while accepted < config.cases {
                attempts += 1;
                assert!(
                    attempts < config.cases.saturating_mul(64).max(1024),
                    "proptest {}: too many prop_assume! rejections \
                     ({} attempts for {} accepted cases)",
                    stringify!($name), attempts, accepted,
                );
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { { $body }; ::std::result::Result::Ok(()) })();
                match outcome {
                    Ok(()) => accepted += 1,
                    Err($crate::test_runner::TestCaseError::Reject) => {}
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest {} failed at deterministic case {} (attempt {}): {}",
                            stringify!($name), accepted, attempts, msg,
                        );
                    }
                }
            }
        }
    )*};
}

#[macro_export]
/// Like `assert!` but aborts only the current generated case, reporting the
/// condition (and optional formatted context) through the proptest runner.
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {}: {}", stringify!($cond), format!($($fmt)+)),
            ));
        }
    };
}

#[macro_export]
/// `assert_eq!` for property bodies.
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) if l == r => {}
            (l, r) => {
                return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                    format!("assertion failed: {} == {} ({:?} vs {:?})",
                        stringify!($left), stringify!($right), l, r),
                ));
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) if l == r => {}
            (l, r) => {
                return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                    format!("assertion failed: {} == {} ({:?} vs {:?}): {}",
                        stringify!($left), stringify!($right), l, r, format!($($fmt)+)),
                ));
            }
        }
    };
}

#[macro_export]
/// `assert_ne!` for property bodies.
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) if l != r => {}
            (l, r) => {
                return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                    format!(
                        "assertion failed: {} != {} ({:?} vs {:?})",
                        stringify!($left),
                        stringify!($right),
                        l,
                        r
                    ),
                ));
            }
        }
    };
}

#[macro_export]
/// Discards the current generated case when `cond` is false (does not count
/// toward the configured number of cases).
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Range strategies stay in range; tuple + map compose.
        #[test]
        fn ranges_and_maps(
            x in -3.0..3.0f64,
            n in 1usize..5,
            pair in (0.0..1.0f64, 0u8..4).prop_map(|(a, b)| (a, b)),
        ) {
            prop_assert!((-3.0..3.0).contains(&x));
            prop_assert!((1..5).contains(&n));
            prop_assert!(pair.0 < 1.0 && pair.1 < 4);
        }

        #[test]
        fn vectors_respect_sizes(
            fixed in crate::collection::vec(0.0..10.0f64, 6),
            ranged in crate::collection::vec(0usize..3, 2..9),
            flag in crate::bool::ANY,
        ) {
            prop_assert_eq!(fixed.len(), 6);
            prop_assert!((2..9).contains(&ranged.len()));
            let coin = u8::from(flag);
            prop_assert!(coin <= 1);
            prop_assert_ne!(fixed.len(), 0);
        }

        #[test]
        fn assume_rejects_without_failing(v in 0usize..10) {
            prop_assume!(v >= 5);
            prop_assert!(v >= 5);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        let mut a = crate::test_runner::TestRng::from_name("x");
        let mut b = crate::test_runner::TestRng::from_name("x");
        for _ in 0..32 {
            assert_eq!((0.0..1.0f64).sample(&mut a), (0.0..1.0f64).sample(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "assertion failed")]
    fn failures_panic() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1))]
            #[allow(unused)]
            fn always_fails(x in 0usize..2) {
                prop_assert!(x > 10, "x was {x}");
            }
        }
        always_fails();
    }
}
