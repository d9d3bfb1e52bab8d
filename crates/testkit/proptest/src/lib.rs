//! A minimal, offline, in-tree stand-in for the `proptest` crate.
//!
//! The build environment for this workspace has no access to crates.io,
//! so this shim implements exactly the property-testing API surface the
//! workspace uses:
//!
//! - the [`proptest!`] macro (with an optional `#![proptest_config(..)]`
//!   header) generating one `#[test]` per property;
//! - [`strategy::Strategy`] with `prop_map`, strategies for integer and
//!   float ranges, tuples, [`strategy::Just`], [`arbitrary::any`],
//!   `prop::collection::vec`, `prop::bool::weighted`, and the
//!   [`prop_oneof!`] union;
//! - `prop_assert!` / `prop_assert_eq!` / `prop_assume!` and
//!   [`test_runner::TestCaseError`].
//!
//! Semantics differ from real proptest in two deliberate ways: inputs
//! are drawn from a deterministic per-test RNG (seeded from the test's
//! module path and name) so runs are exactly reproducible, and failing
//! cases are reported without shrinking. Neither difference changes
//! what a passing suite guarantees.
//!
//! Two environment variables make a run explore instead:
//! `HVFT_PROPTEST_SEED` (decimal or `0x` hex) is mixed into every
//! test's seed, so each value draws a new set of cases, and
//! `HVFT_PROPTEST_CASES` replaces every test's configured case count.
//! With neither set the cases are the pinned ones. A case that fails —
//! by a `prop_assert!` or by panicking — prints the one line that
//! replays it alone: the seed its draws started from, one case, and the
//! test's name.

pub mod test_runner {
    /// Deterministic splitmix64 generator used to sample all inputs.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    /// FNV-1a over a label (e.g. a test's full name).
    fn label_hash(label: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Reads a numeric environment variable, decimal or `0x` hex.
    ///
    /// # Panics
    ///
    /// Panics, naming the variable, if it is set to anything else.
    fn env_number(name: &str) -> Option<u64> {
        let raw = std::env::var(name).ok()?;
        let parsed = match raw.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => raw.parse(),
        };
        Some(parsed.unwrap_or_else(|_| panic!("{name}={raw:?} is not a number")))
    }

    /// The number of accepted cases a property runs: `HVFT_PROPTEST_CASES`
    /// if set, else `configured`.
    pub fn cases(configured: u32) -> u32 {
        env_number("HVFT_PROPTEST_CASES").map_or(configured, |n| n as u32)
    }

    /// The line that replays, alone, the case of the test `label`
    /// (`module path::name`) whose draws started from `state`.
    pub fn replay_line(label: &str, state: u64) -> String {
        let path = label.split_once("::").map_or(label, |(_crate, path)| path);
        format!(
            "replay: HVFT_PROPTEST_SEED={:#x} HVFT_PROPTEST_CASES=1 cargo test --workspace -q -- --exact {path}",
            state ^ label_hash(label)
        )
    }

    impl TestRng {
        /// Seeds from an arbitrary label (e.g. the test's full name).
        pub fn from_label(label: &str) -> Self {
            Self::for_test_with(label, 0)
        }

        /// The generator the property `label` draws its cases from:
        /// seeded from the label and `HVFT_PROPTEST_SEED`, if set.
        pub fn for_test(label: &str) -> Self {
            Self::for_test_with(label, env_number("HVFT_PROPTEST_SEED").unwrap_or(0))
        }

        /// [`TestRng::for_test`] under the explored seed `seed` (0: the
        /// pinned cases).
        pub fn for_test_with(label: &str, seed: u64) -> Self {
            TestRng {
                state: label_hash(label) ^ seed,
            }
        }

        /// Where the next draw starts: what [`replay_line`] needs to
        /// replay a case from here.
        pub fn state(&self) -> u64 {
            self.state
        }

        /// Next raw 64-bit value (splitmix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            // Multiply-shift bounded sampling; bias is < 2^-64 per draw,
            // irrelevant for test-input generation.
            ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
        }

        /// Uniform float in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// The case was vetoed by `prop_assume!` and should be resampled.
        Reject(String),
        /// The property failed for this case.
        Fail(String),
    }

    impl TestCaseError {
        /// A failed case with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// A rejected (assumption-violating) case.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Runner configuration; only `cases` is meaningful in the shim.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of accepted cases each property must pass.
        pub cases: u32,
        /// Cap on `prop_assume!` rejections before the run aborts.
        pub max_global_rejects: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` accepted cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig {
                cases,
                ..ProptestConfig::default()
            }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 64,
                max_global_rejects: 4096,
            }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};
    use std::rc::Rc;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (cheaply clonable).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    trait DynStrategy<T> {
        fn dyn_value(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn dyn_value(&self, rng: &mut TestRng) -> S::Value {
            self.new_value(rng)
        }
    }

    /// A type-erased [`Strategy`].
    pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            self.0.dyn_value(rng)
        }
    }

    /// Always generates a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn new_value(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// Uniform choice between type-erased alternatives (the `prop_oneof!` macro).
    pub struct Union<T>(Vec<BoxedStrategy<T>>);

    impl<T> Union<T> {
        /// A union over the given alternatives; must be non-empty.
        pub fn new(alts: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!alts.is_empty(), "prop_oneof! needs at least one arm");
            Union(alts)
        }
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union(self.0.clone())
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.0.len() as u64) as usize;
            self.0[i].new_value(rng)
        }
    }

    macro_rules! unsigned_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo + rng.below(span + 1) as $t
                }
            }
        )*};
    }
    unsigned_range_strategies!(u8, u16, u32, u64, usize);

    macro_rules! signed_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    (lo as i128 + rng.below(span + 1) as i128) as $t
                }
            }
        )*};
    }
    signed_range_strategies!(i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategies {
        ($(($($s:ident $i:tt),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.new_value(rng),)+)
                }
            }
        )*};
    }
    tuple_strategies! {
        (A 0);
        (A 0, B 1);
        (A 0, B 1, C 2);
        (A 0, B 1, C 2, D 3);
        (A 0, B 1, C 2, D 3, E 4);
        (A 0, B 1, C 2, D 3, E 4, F 5);
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_ints {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-range strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

/// Namespaced strategy constructors (`prop::collection::vec`, …).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        use std::ops::Range;

        /// Size bounds for generated collections.
        #[derive(Clone, Debug)]
        pub struct SizeRange {
            lo: usize,
            hi: usize,
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                SizeRange {
                    lo: r.start,
                    hi: r.end - 1,
                }
            }
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi: n }
            }
        }

        /// Strategy for `Vec<S::Value>` with length drawn from `size`.
        #[derive(Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let span = (self.size.hi - self.size.lo) as u64;
                let len = self.size.lo + rng.below(span + 1) as usize;
                (0..len).map(|_| self.element.new_value(rng)).collect()
            }
        }

        /// Generates vectors of `element` values with a length in `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }
    }

    /// Boolean strategies.
    pub mod bool {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        /// A biased boolean: `true` with probability `p`.
        #[derive(Clone, Debug)]
        pub struct Weighted(f64);

        impl Strategy for Weighted {
            type Value = bool;
            fn new_value(&self, rng: &mut TestRng) -> bool {
                rng.next_f64() < self.0
            }
        }

        /// `true` with probability `p` (clamped to `[0, 1]`).
        pub fn weighted(p: f64) -> Weighted {
            Weighted(p.clamp(0.0, 1.0))
        }
    }
}

/// The glob-import module mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Uniform choice among strategy alternatives of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($alt:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($alt)),+
        ])
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless the two values compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}`: {}",
            l,
            r,
            format!($($fmt)+)
        );
    }};
}

/// Rejects the current case (resampled without counting) unless `cond`.
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

/// Declares property tests: each `fn` body runs once per sampled input
/// set, `config.cases` accepted times (see the crate docs for the
/// environment variables that change the cases and their number).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    (@run ($cfg:expr) $(
        #[test]
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let label = concat!(module_path!(), "::", stringify!($name));
            let mut rng = $crate::test_runner::TestRng::for_test(label);
            let mut accepted: u32 = 0;
            let mut rejected: u32 = 0;
            while accepted < $crate::test_runner::cases(config.cases) {
                let replay = $crate::test_runner::replay_line(label, rng.state());
                let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                    $(let $arg = $crate::strategy::Strategy::new_value(&($strat), &mut rng);)+
                    (move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    })()
                }));
                match outcome {
                    ::std::result::Result::Err(panic) => {
                        eprintln!("proptest '{}' panicked at case {}; {}", stringify!($name), accepted, replay);
                        ::std::panic::resume_unwind(panic);
                    }
                    ::std::result::Result::Ok(::std::result::Result::Ok(())) => accepted += 1,
                    ::std::result::Result::Ok(::std::result::Result::Err(
                        $crate::test_runner::TestCaseError::Reject(_),
                    )) => {
                        rejected += 1;
                        assert!(
                            rejected < config.max_global_rejects,
                            "proptest '{}': too many prop_assume! rejections",
                            stringify!($name)
                        );
                    }
                    ::std::result::Result::Ok(::std::result::Result::Err(
                        $crate::test_runner::TestCaseError::Fail(msg),
                    )) => {
                        panic!(
                            "proptest '{}' failed at case {}: {}\n{}",
                            stringify!($name),
                            accepted,
                            msg,
                            replay
                        );
                    }
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::from_label("x");
        let mut b = TestRng::from_label("x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn a_replay_line_names_the_seed_that_redraws_its_case() {
        let label = "suite::prop";
        let mut rng = TestRng::for_test_with(label, 0);
        assert_eq!(rng.state(), TestRng::from_label(label).state());
        for _ in 0..17 {
            rng.next_u64();
        }
        let line = crate::test_runner::replay_line(label, rng.state());
        let seed = line
            .split_whitespace()
            .find_map(|w| w.strip_prefix("HVFT_PROPTEST_SEED=0x"))
            .map(|hex| u64::from_str_radix(hex, 16).expect("hex"))
            .expect("the line names a seed");
        let mut replayed = TestRng::for_test_with(label, seed);
        for _ in 0..5 {
            assert_eq!(replayed.next_u64(), rng.next_u64());
        }
        assert!(line.ends_with("--exact prop"), "{line}");
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = TestRng::from_label("below");
        for n in 1..50u64 {
            for _ in 0..20 {
                assert!(rng.below(n) < n);
            }
        }
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in -5i32..=5, z in 0.0f64..1.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..=5).contains(&y));
            prop_assert!((0.0..1.0).contains(&z));
        }

        #[test]
        fn maps_and_unions_compose(
            v in prop::collection::vec(prop_oneof![Just(1u32), 10u32..20], 1..8),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert!(v.iter().all(|&x| x == 1 || (10..20).contains(&x)));
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u32..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }
}
