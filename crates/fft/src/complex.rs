//! A minimal double-precision complex number.
//!
//! Deliberately tiny: only the operations the FFT and the Poisson solver
//! actually use, all `#[inline]`, `repr(C)` so a `&mut [Complex64]` can be
//! reinterpreted as interleaved re/im pairs if an external tool ever needs it.

// Hot path (runs in pool tasks every step): no bare unwrap/panic outside tests.
#![deny(clippy::unwrap_used, clippy::panic)]

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// `re + i·im` with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    pub re: f64,
    pub im: f64,
}

impl Complex64 {
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
    pub const ONE: Self = Self { re: 1.0, im: 0.0 };
    pub const I: Self = Self { re: 0.0, im: 1.0 };

    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Purely real value.
    #[inline]
    pub fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// `e^{iθ} = cos θ + i sin θ`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self { re: c, im: s }
    }

    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Self {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Complex64 {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        Self {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
}

impl Sub for Complex64 {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        Self {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
}

impl Mul for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, o: Self) -> Self {
        Self {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

impl Mul<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, s: f64) -> Self {
        self.scale(s)
    }
}

impl Div<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn div(self, s: f64) -> Self {
        self.scale(1.0 / s)
    }
}

impl Neg for Complex64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, o: Self) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, o: Self) {
        self.re -= o.re;
        self.im -= o.im;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, o: Self) {
        *self = *self * o;
    }
}

#[cfg(test)]
impl Complex64 {
    /// Fused multiply-add: `self + a * b`.
    #[inline]
    pub(crate) fn mul_add(self, a: Self, b: Self) -> Self {
        Self {
            re: self.re + a.re * b.re - a.im * b.im,
            im: self.im + a.re * b.im + a.im * b.re,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::neg_multiply)] // the expansion mirrors (a.re·b.re − a.im·b.im)
    fn arithmetic_identities() {
        let a = Complex64::new(3.0, -2.0);
        let b = Complex64::new(-1.0, 0.5);
        assert_eq!(a + b - b, a);
        assert_eq!((a * Complex64::ONE), a);
        assert_eq!(a * Complex64::I, Complex64::new(2.0, 3.0));
        let prod = a * b;
        assert!((prod.re - (3.0 * -1.0 - -2.0 * 0.5)).abs() < 1e-15);
        assert!((prod.im - (3.0 * 0.5 + -2.0 * -1.0)).abs() < 1e-15);
    }

    #[test]
    fn cis_lies_on_unit_circle() {
        for k in 0..16 {
            let z = Complex64::cis(k as f64 * 0.7);
            assert!((z.abs() - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn conj_and_norm() {
        let a = Complex64::new(1.5, -2.5);
        assert_eq!(a.conj().im, 2.5);
        assert!((a.norm_sqr() - (a * a.conj()).re).abs() < 1e-15);
    }

    #[test]
    fn mul_add_matches_expanded_form() {
        let a = Complex64::new(0.3, 0.7);
        let b = Complex64::new(-1.2, 0.4);
        let c = Complex64::new(2.0, -0.1);
        let got = c.mul_add(a, b);
        let expect = c + a * b;
        assert!((got.re - expect.re).abs() < 1e-15);
        assert!((got.im - expect.im).abs() < 1e-15);
    }
}
