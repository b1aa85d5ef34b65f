//! Offline stand-in for the `proptest` crate (see `compat/README.md`).
//!
//! Implements the subset this workspace's property tests use — the
//! [`proptest!`] macro, [`strategy::Strategy`] with `prop_map`,
//! [`prop_oneof!`], tuple/range/`any` strategies,
//! [`collection::vec`], `prop_assert*` and [`prop_assume!`] — as plain
//! seeded random testing. Differences from the real crate, deliberately
//! accepted:
//!
//! * **no shrinking** — a failing case reports its inputs and the seed,
//!   not a minimized counterexample;
//! * **deterministic seeds** — cases derive from a hash of the test
//!   name, so a failure reproduces exactly on re-run (the real crate
//!   randomizes and persists regressions instead);
//! * strategies sample uniformly (no bias toward edge values).

pub mod strategy;

pub mod test_runner;

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds for a generated collection's length.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy producing a `Vec` of `element` values with a length
    /// drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.max - self.size.min) as u64 + 1;
            let len = self.size.min + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// What everyone imports: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Run the cases of one property, panicking on the first failure.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            @cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal: expands each `fn name(args in strategies) { body }` item.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (@cfg ($cfg:expr)) => {};
    (@cfg ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run(stringify!($name), $cfg, |__rng| {
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), __rng);)+
                $body
                ::std::result::Result::Ok(())
            });
        }
        $crate::__proptest_items! { @cfg ($cfg) $($rest)* }
    };
}

/// Assert inside a property; failure fails the case with location info.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{} at {}:{}", format_args!($($fmt)+), file!(), line!()),
            ));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}` ({})\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            format_args!($($fmt)+),
            left,
            right
        );
    }};
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
}

/// Discard the current case (does not count toward the case budget).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Choose uniformly among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_any(x in 3u32..10, y in any::<u64>(), z in 0usize..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert_eq!(y, y);
            prop_assert!(z <= 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Doc comments and config headers are accepted.
        #[test]
        fn vec_and_map_and_oneof(
            v in crate::collection::vec(any::<u8>(), 2..=5),
            w in prop_oneof![Just(1u8), Just(2u8), (0u8..1).prop_map(|x| x + 3)],
            (a, b) in (any::<u32>(), 0u64..9),
        ) {
            prop_assert!(v.len() >= 2 && v.len() <= 5);
            prop_assert!(w == 1 || w == 2 || w == 3);
            prop_assert_eq!(u64::from(a) + b >= b, true);
        }
    }

    proptest! {
        #[test]
        fn assume_rejects_dont_fail(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    #[should_panic(expected = "assertion failed")]
    fn failing_property_panics() {
        crate::test_runner::run(
            "always_fails",
            ProptestConfig::with_cases(4),
            |_rng| -> Result<(), crate::test_runner::TestCaseError> {
                prop_assert!(false);
                Ok(())
            },
        );
    }
}
