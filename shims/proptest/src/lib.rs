//! Offline shim for the `proptest` subset used by this workspace: the
//! [`proptest!`] macro, range/tuple strategies, [`collection::vec`],
//! `prop_map`, `Just`, and the `prop_assert*` / `prop_assume!` macros.
//!
//! Cases are generated from a deterministic per-test RNG. Unlike real
//! proptest there is **no shrinking**: a failing case reports its number and
//! message; re-running reproduces it (generation is seeded by test name).

/// Common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Test-runner configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` successful cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Why a generated case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// An assertion failed — the test fails.
    Fail(String),
    /// `prop_assume!` rejected the inputs — the case is retried.
    Reject(String),
}

/// Deterministic generator driving strategies (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeds from a test-name hash and case counter.
    pub fn new(seed: u64) -> Self {
        TestRng(seed)
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, bound)`; `bound > 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A recipe for generating random values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always generates a clone of the given value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = hi.wrapping_sub(lo) as u64;
                if span == u64::MAX { return rng.next_u64() as $t; }
                lo.wrapping_add(rng.below(span + 1) as $t)
            }
        }
    )*};
}
int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let v = self.start + (self.end - self.start) * rng.unit_f64() as $t;
                if v < self.end { v } else { self.start }
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                // Closed interval: unit_f64() is in [0,1), so stretch slightly
                // and clamp to make `hi` reachable.
                let v = lo + (hi - lo) * (rng.unit_f64() * 1.0000001) as $t;
                if v > hi { hi } else { v }
            }
        }
    )*};
}
float_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A: 0);
tuple_strategy!(A: 0, B: 1);
tuple_strategy!(A: 0, B: 1, C: 2);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification: an exact `usize` or a range of lengths.
    pub trait SizeRange {
        /// Draws a length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for core::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty vec length range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    impl SizeRange for core::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty vec length range");
            lo + rng.below((hi - lo + 1) as u64) as usize
        }
    }

    /// Strategy for `Vec`s of `element` values with lengths from `size`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, size: L) -> VecStrategy<S, L> {
        VecStrategy { element, size }
    }

    /// Output of [`vec()`].
    pub struct VecStrategy<S, L> {
        element: S,
        size: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless the operands are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        match (&$a, &$b) {
            (__l, __r) => {
                $crate::prop_assert!(__l == __r, "{:?} != {:?}", __l, __r);
            }
        }
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        match (&$a, &$b) {
            (__l, __r) => {
                $crate::prop_assert!(__l == __r, $($fmt)*);
            }
        }
    };
}

/// Fails the current case if the operands are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {
        match (&$a, &$b) {
            (__l, __r) => {
                $crate::prop_assert!(__l != __r, "{:?} == {:?}", __l, __r);
            }
        }
    };
}

/// Rejects the current case (retried with fresh inputs) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject(stringify!($cond).to_string()));
        }
    };
}

/// Hashes a test name into an RNG seed so each test gets a stable stream.
pub fn seed_for(name: &str, case: u64) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h ^ case.wrapping_mul(0x9E3779B97F4A7C15)
}

/// Declares property tests; mirrors real proptest's macro surface for the
/// forms used in this workspace (optional `#![proptest_config(..)]`, then
/// `fn name(binding in strategy, ...) { body }` items).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*
    ) => {
        $(
            // Real proptest has callers write `#[test]` themselves inside the
            // block; it arrives via `$meta`, so emitting another here would
            // register every test twice with libtest.
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let mut __passed: u32 = 0;
                let mut __case: u64 = 0;
                let __max_attempts: u64 = (__config.cases as u64) * 20 + 1000;
                while __passed < __config.cases {
                    assert!(
                        __case < __max_attempts,
                        "proptest shim: too many rejected cases ({} attempts, {} passed)",
                        __case, __passed
                    );
                    let mut __rng =
                        $crate::TestRng::new($crate::seed_for(stringify!($name), __case));
                    __case += 1;
                    $( let $arg = $crate::Strategy::generate(&($strat), &mut __rng); )*
                    let __result: ::core::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::core::result::Result::Ok(()) })();
                    match __result {
                        Ok(()) => __passed += 1,
                        Err($crate::TestCaseError::Reject(_)) => {}
                        Err($crate::TestCaseError::Fail(msg)) => {
                            panic!("proptest case #{} failed: {}", __case, msg);
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_cover_ranges() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..500 {
            let v = crate::Strategy::generate(&(3usize..10), &mut rng);
            assert!((3..10).contains(&v));
            let f = crate::Strategy::generate(&(-1.0f32..1.0), &mut rng);
            assert!((-1.0..1.0).contains(&f));
            let (a, b) = crate::Strategy::generate(&(0u32..4, 10i64..12), &mut rng);
            assert!(a < 4 && (10..12).contains(&b));
        }
    }

    #[test]
    fn vec_strategy_and_map() {
        let mut rng = crate::TestRng::new(2);
        let s = crate::collection::vec(0u32..5, 2..6).prop_map(|v| v.len());
        for _ in 0..100 {
            let n = crate::Strategy::generate(&s, &mut rng);
            assert!((2..6).contains(&n));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: assumptions retry, assertions check.
        #[test]
        fn macro_roundtrip(x in 0u64..100, v in crate::collection::vec(0u8..10, 0..8)) {
            prop_assume!(x != 13);
            prop_assert!(x < 100);
            prop_assert_eq!(v.len(), v.len());
            prop_assert_ne!(x, 13);
        }
    }
}
