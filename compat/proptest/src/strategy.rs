//! Strategies: deterministic pseudo-random value generators.

use std::ops::{Range, RangeInclusive};

/// Deterministic test RNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Seed from a test name so each property replays its own stream.
    pub fn from_name(name: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self::new(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in [0, n).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.next_u64() % n
    }
}

/// A generator of values of type `Value`.
pub trait Strategy {
    type Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform every sampled value with `f` (mirrors `proptest`'s
    /// `Strategy::prop_map`).
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Adapter returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.sample(rng))
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

macro_rules! float_strategy {
    ($t:ty) => {
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                self.start + (rng.unit_f64() as $t) * (self.end - self.start)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (a, b) = (*self.start(), *self.end());
                a + (rng.unit_f64() as $t) * (b - a)
            }
        }
    };
}
float_strategy!(f64);
float_strategy!(f32);

macro_rules! int_strategy {
    ($t:ty) => {
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (a, b) = (*self.start(), *self.end());
                a + rng.below((b - a) as u64 + 1) as $t
            }
        }
    };
}
int_strategy!(usize);
int_strategy!(u64);
int_strategy!(u32);
int_strategy!(u8);
int_strategy!(i64);
int_strategy!(i32);

macro_rules! tuple_strategy {
    ($(($($name:ident),+))+) => {
        $(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        )+
    };
}
tuple_strategy! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

/// Length bounds accepted by [`vec`](fn@vec).
pub trait SizeBounds {
    fn pick(&self, rng: &mut TestRng) -> usize;
}

impl SizeBounds for Range<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        assert!(self.start < self.end, "empty size range");
        self.start + rng.below((self.end - self.start) as u64) as usize
    }
}

impl SizeBounds for RangeInclusive<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        let (a, b) = (*self.start(), *self.end());
        a + rng.below((b - a) as u64 + 1) as usize
    }
}

impl SizeBounds for usize {
    fn pick(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

/// `prop::collection::vec(element, size)`.
pub fn vec<S: Strategy, B: SizeBounds>(element: S, size: B) -> VecStrategy<S, B> {
    VecStrategy { element, size }
}

pub struct VecStrategy<S, B> {
    element: S,
    size: B,
}

impl<S: Strategy, B: SizeBounds> Strategy for VecStrategy<S, B> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.element.sample(rng)).collect()
    }
}
