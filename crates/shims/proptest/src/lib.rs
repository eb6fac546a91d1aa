//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest API the workspace's property
//! tests use: the [`Strategy`] trait with `prop_map`, `any::<T>()`, range
//! strategies, tuple strategies, [`collection::vec`], the [`proptest!`]
//! macro (with `#![proptest_config(..)]`), and `prop_assert!` /
//! `prop_assert_eq!`.
//!
//! Unlike real proptest there is no shrinking: a failing case reports its
//! seed and inputs via the panic message. Cases are generated from a
//! deterministic per-test seed, so failures reproduce exactly.

#![deny(unsafe_code)]

use rand::rngs::StdRng;
use std::ops::{Range, RangeInclusive};

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// A generator of test-case values.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy producing one fixed value (clones of `0`-arity data).
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generate an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_standard {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rand::Rng::gen(rng)
            }
        }
    )*};
}
impl_arbitrary_standard!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

impl Arbitrary for f64 {
    /// Finite doubles in a searchable range (no NaN/inf — the workspace
    /// asserts on finite arithmetic).
    fn arbitrary(rng: &mut TestRng) -> Self {
        rand::Rng::gen_range(rng, -1.0e9..1.0e9)
    }
}

impl Arbitrary for f32 {
    /// Finite floats in a searchable range.
    fn arbitrary(rng: &mut TestRng) -> Self {
        rand::Rng::gen_range(rng, -1.0e6f32..1.0e6)
    }
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// An unconstrained value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);

/// String patterns as strategies: a `&str` is interpreted as a simplified
/// regex supporting literal characters, character classes `[abc]`, and
/// repetition `{m}` / `{m,n}` — the subset the workspace's tests use
/// (e.g. `"[ACDEFGHIKLMNPQRSTVWY]{1,30}"`).
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let mut chars = self.chars().peekable();
        while let Some(c) = chars.next() {
            // One atom: a character class or a literal.
            let class: Vec<char> = if c == '[' {
                let mut set = Vec::new();
                for member in chars.by_ref() {
                    if member == ']' {
                        break;
                    }
                    set.push(member);
                }
                assert!(!set.is_empty(), "empty character class in pattern {self:?}");
                set
            } else {
                vec![c]
            };
            // Optional repetition suffix.
            let (min, max) = if chars.peek() == Some(&'{') {
                chars.next();
                let mut spec = String::new();
                for member in chars.by_ref() {
                    if member == '}' {
                        break;
                    }
                    spec.push(member);
                }
                match spec.split_once(',') {
                    Some((m, n)) => (
                        m.trim().parse().expect("bad repetition lower bound"),
                        n.trim().parse().expect("bad repetition upper bound"),
                    ),
                    None => {
                        let exact: usize = spec.trim().parse().expect("bad repetition count");
                        (exact, exact)
                    }
                }
            } else {
                (1, 1)
            };
            let count = rand::Rng::gen_range(rng, min..=max);
            for _ in 0..count {
                out.push(class[rand::Rng::gen_range(rng, 0..class.len())]);
            }
        }
        out
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// A `Vec` whose length is drawn from `len` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rand::Rng::gen_range(rng, self.len.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Per-test configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// Everything a property test file needs.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, proptest, Arbitrary, Just, ProptestConfig, Strategy,
    };
}

#[doc(hidden)]
pub fn __new_case_rng(test_name: &str, case: u32) -> TestRng {
    // FNV-1a over the test name mixes distinct tests onto distinct
    // streams; the case index advances the stream deterministically.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    <StdRng as rand::SeedableRng>::seed_from_u64(h ^ (u64::from(case) << 32) ^ u64::from(case))
}

/// Define property tests, mirroring `proptest::proptest!`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ($config:expr; $(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            for case in 0..config.cases {
                let mut rng = $crate::__new_case_rng(stringify!($name), case);
                $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                let mut rendered_inputs = ::std::string::String::new();
                $(rendered_inputs.push_str(
                    &::std::format!("\n  {} = {:?}", stringify!($arg), $arg),
                );)+
                let outcome: ::std::result::Result<(), ::std::string::String> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(message) = outcome {
                    panic!(
                        "property {} failed at case {case}: {message}\ninputs:{rendered_inputs}",
                        stringify!($name),
                    );
                }
            }
        }
        $crate::__proptest_items! { $config; $($rest)* }
    };
    ($config:expr;) => {};
}

/// Assert inside a [`proptest!`] body, reporting the failing case instead
/// of panicking outright.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(
                ::std::format!("prop_assert failed: {}", stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!(
                "prop_assert failed: {} ({})",
                stringify!($cond),
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err(::std::format!(
                "prop_assert_eq failed: {} != {} ({:?} vs {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r,
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err(::std::format!(
                "prop_assert_eq failed: {} != {} ({:?} vs {:?}): {}",
                stringify!($left),
                stringify!($right),
                l,
                r,
                ::std::format!($($fmt)+),
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3usize..10, y in -2.0f64..=2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.0..=2.0).contains(&y), "y = {y}");
        }

        #[test]
        fn vec_and_tuple_strategies(v in collection::vec((any::<u8>(), 0u32..5), 1..9)) {
            prop_assert!(!v.is_empty() && v.len() < 9);
            for (_, small) in &v {
                prop_assert!(*small < 5);
            }
        }

        #[test]
        fn prop_map_applies(doubled in (1u32..50).prop_map(|x| x * 2)) {
            prop_assert_eq!(doubled % 2, 0);
            prop_assert!((2..100).contains(&doubled));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let a: Vec<u64> = (0..5)
            .map(|case| rand::Rng::gen(&mut crate::__new_case_rng("t", case)))
            .collect();
        let b: Vec<u64> = (0..5)
            .map(|case| rand::Rng::gen(&mut crate::__new_case_rng("t", case)))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], a[1]);
    }
}
