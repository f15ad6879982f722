//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this crate implements
//! the slice of proptest the workspace's property tests use: the
//! [`strategy::Strategy`] trait with `prop_map` / `prop_flat_map`, range / tuple /
//! [`strategy::Just`] / [`collection::vec()`] strategies, `prop_oneof!`, the
//! [`proptest!`] test macro with `#![proptest_config(…)]`, and the
//! `prop_assert!` / `prop_assert_eq!` assertion macros. Consumers depend
//! on it renamed (`proptest = { package = "sg-proptest", … }`), so
//! `use proptest::prelude::*` compiles unchanged.
//!
//! Differences from upstream, deliberately accepted:
//!
//! * **no shrinking** — a failing case reports its deterministic seed and
//!   case index instead of a minimized input;
//! * **deterministic by construction** — each test function derives its
//!   stream from an FNV hash of its module path, so failures reproduce
//!   across runs without a persistence file.

#![forbid(unsafe_code)]

pub mod strategy;
pub mod test_runner;

pub mod collection {
    //! Collection strategies (`proptest::collection` subset).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Size specification for [`vec()`]: an exact length or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        /// Inclusive upper bound.
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s of `element` with a length drawn from
    /// `size`.
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
            let len = rng.usize_inclusive(self.size.lo, self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Per-test configuration (`proptest::test_runner::Config` subset).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases each `proptest!` test executes.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// A failed `prop_assert!` / `prop_assert_eq!`, carrying its message.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Builds a failure with the given message.
    pub fn fail(msg: String) -> Self {
        Self(msg)
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

pub mod prelude {
    //! The usual glob import, as `proptest::prelude`.
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest, ProptestConfig};
}

/// Non-fatal assertion: fails the current case with location and message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed at {}:{}: {}",
                file!(),
                line!(),
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed at {}:{}: {}: {}",
                file!(),
                line!(),
                stringify!($cond),
                format!($($fmt)+)
            )));
        }
    };
}

/// Non-fatal equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        if !(lhs == rhs) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed at {}:{}: {} == {}\n  left: {:?}\n right: {:?}",
                file!(),
                line!(),
                stringify!($lhs),
                stringify!($rhs),
                lhs,
                rhs
            )));
        }
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        if !(lhs == rhs) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed at {}:{}: {} == {}\n  left: {:?}\n right: {:?}\n {}",
                file!(),
                line!(),
                stringify!($lhs),
                stringify!($rhs),
                lhs,
                rhs,
                format!($($fmt)+)
            )));
        }
    }};
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($a:expr, $b:expr $(,)?) => {
        $crate::strategy::OneOf2($a, $b)
    };
    ($a:expr, $b:expr, $c:expr $(,)?) => {
        $crate::strategy::OneOf3($a, $b, $c)
    };
}

/// Declares deterministic property tests.
///
/// Mirrors `proptest::proptest!`: an optional
/// `#![proptest_config(…)]` inner attribute followed by `#[test]`
/// functions whose parameters are `pattern in strategy` pairs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let fn_seed = $crate::test_runner::fn_seed(concat!(
                module_path!(),
                "::",
                stringify!($name)
            ));
            for case in 0..config.cases {
                let mut __proptest_rng =
                    $crate::test_runner::TestRng::for_case(fn_seed, case);
                $(let $pat = $crate::strategy::Strategy::generate(
                    &($strat),
                    &mut __proptest_rng,
                );)+
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest `{}` failed at case {} of {} (fn seed {:#x}):\n{}",
                        stringify!($name),
                        case,
                        config.cases,
                        fn_seed,
                        e
                    );
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_land_in_bounds() {
        let mut rng = TestRng::for_case(1, 0);
        for _ in 0..1000 {
            let x = (3usize..9).generate(&mut rng);
            assert!((3..9).contains(&x));
            let y = (1usize..=4).generate(&mut rng);
            assert!((1..=4).contains(&y));
            let f = (0.25f64..0.75).generate(&mut rng);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn map_and_flat_map_compose() {
        let mut rng = TestRng::for_case(2, 0);
        let s = (1usize..=3)
            .prop_flat_map(|k| crate::collection::vec(0usize..10, k).prop_map(|v| (v.len(), v)));
        for _ in 0..200 {
            let (len, v) = s.generate(&mut rng);
            assert_eq!(len, v.len());
            assert!((1..=3).contains(&len));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn oneof_hits_both_arms() {
        let mut rng = TestRng::for_case(3, 0);
        let s = prop_oneof![Just(1u8), Just(2u8)];
        let draws: Vec<u8> = (0..100).map(|_| s.generate(&mut rng)).collect();
        assert!(draws.contains(&1));
        assert!(draws.contains(&2));
    }

    #[test]
    fn deterministic_per_case() {
        let seed = crate::test_runner::fn_seed("a::b::c");
        let s = crate::collection::vec(0usize..100, 0..20);
        let a = s.generate(&mut TestRng::for_case(seed, 7));
        let b = s.generate(&mut TestRng::for_case(seed, 7));
        assert_eq!(a, b);
        // And different cases give different draws somewhere in 20 tries.
        let other: Vec<_> = (0..20)
            .map(|c| s.generate(&mut TestRng::for_case(seed, c)))
            .collect();
        assert!(other.iter().any(|v| *v != a) || a.is_empty());
    }

    // The macro path itself, including config, multiple params and a
    // trailing comma.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Doc comments on cases must parse.
        #[test]
        fn macro_generates_runnable_tests(
            a in 0usize..50,
            b in crate::collection::vec(0u64..10, 1..5),
        ) {
            prop_assert!(a < 50);
            prop_assert!(!b.is_empty(), "len = {}", b.len());
            prop_assert_eq!(b.len(), b.len());
        }
    }
}
