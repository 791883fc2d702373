//! Exact rational arithmetic and univariate polynomials over ℚ.
//!
//! The semi-Lagrangian flux weights are polynomials in the fractional shift
//! `s` whose coefficients are small rationals (Lagrange interpolation on
//! integer nodes: denominators divide `5! = 120`). Representing them exactly
//! lets the verifier state the conservation/moment identities as *polynomial
//! equalities* — machine-checked with no tolerance at all — and only fall
//! back to ULP bounds when comparing against the shipped `f64` kernels.
//!
//! `i128` numerators/denominators are far beyond anything these degree-≤ 5
//! constructions can produce; arithmetic uses checked ops and panics on
//! overflow rather than silently wrapping (this is analysis-time code, not a
//! kernel).

use std::fmt;

/// A normalised rational number `num / den`, `den > 0`, `gcd(num, den) = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Rat {
    num: i128,
    den: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// `num / den`, normalised. Panics on `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "rational with zero denominator");
        let g = gcd(num, den).max(1);
        let sign = if den < 0 { -1 } else { 1 };
        Rat {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// Integer `n`.
    pub(crate) fn int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// Numerator (after normalisation).
    pub fn num(&self) -> i128 {
        self.num
    }

    /// Is this exactly zero?
    pub(crate) fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Nearest `f64` (num and den convert exactly for the small values the
    /// weight constructions produce, so the only rounding is the division).
    pub(crate) fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    fn chk(v: Option<i128>) -> i128 {
        v.expect("rational arithmetic overflowed i128")
    }

    /// Exact sum.
    pub fn add(&self, o: &Rat) -> Rat {
        let num = Self::chk(
            Self::chk(self.num.checked_mul(o.den))
                .checked_add(Self::chk(o.num.checked_mul(self.den))),
        );
        Rat::new(num, Self::chk(self.den.checked_mul(o.den)))
    }

    /// Exact difference.
    pub fn sub(&self, o: &Rat) -> Rat {
        self.add(&o.neg())
    }

    /// Exact product.
    pub fn mul(&self, o: &Rat) -> Rat {
        // Cross-reduce first to keep intermediates small.
        let g1 = gcd(self.num, o.den).max(1);
        let g2 = gcd(o.num, self.den).max(1);
        Rat::new(
            Self::chk((self.num / g1).checked_mul(o.num / g2)),
            Self::chk((self.den / g2).checked_mul(o.den / g1)),
        )
    }

    /// Exact quotient. Panics on division by zero.
    pub fn div(&self, o: &Rat) -> Rat {
        assert!(!o.is_zero(), "rational division by zero");
        self.mul(&Rat::new(o.den, o.num))
    }

    /// Negation.
    pub fn neg(&self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }

    /// Exact integer power (non-negative exponent).
    pub fn pow(&self, e: u32) -> Rat {
        let mut out = Rat::ONE;
        for _ in 0..e {
            out = out.mul(self);
        }
        out
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// A polynomial over ℚ in one variable, coefficients in ascending powers.
/// The zero polynomial is the empty coefficient list; all other
/// representations are normalised (no trailing zero coefficients).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Poly {
    coeffs: Vec<Rat>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Poly {
        Poly { coeffs: Vec::new() }
    }

    /// Constant polynomial.
    pub fn constant(c: Rat) -> Poly {
        Poly { coeffs: vec![c] }.normalised()
    }

    /// The variable `s` itself.
    pub fn var() -> Poly {
        Poly {
            coeffs: vec![Rat::ZERO, Rat::ONE],
        }
    }

    /// From ascending coefficients.
    pub(crate) fn from_coeffs(coeffs: Vec<Rat>) -> Poly {
        Poly { coeffs }.normalised()
    }

    fn normalised(mut self) -> Poly {
        while self.coeffs.last().is_some_and(Rat::is_zero) {
            self.coeffs.pop();
        }
        self
    }

    /// Ascending coefficients (empty for the zero polynomial).
    pub(crate) fn coeffs(&self) -> &[Rat] {
        &self.coeffs
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// Is this identically zero?
    pub(crate) fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Exact sum.
    pub fn add(&self, o: &Poly) -> Poly {
        let n = self.coeffs.len().max(o.coeffs.len());
        let coeffs = (0..n)
            .map(|i| {
                let a = self.coeffs.get(i).copied().unwrap_or(Rat::ZERO);
                let b = o.coeffs.get(i).copied().unwrap_or(Rat::ZERO);
                a.add(&b)
            })
            .collect();
        Poly { coeffs }.normalised()
    }

    /// Exact difference.
    pub fn sub(&self, o: &Poly) -> Poly {
        self.add(&o.scale(&Rat::int(-1)))
    }

    /// Exact product.
    pub fn mul(&self, o: &Poly) -> Poly {
        if self.is_zero() || o.is_zero() {
            return Poly::zero();
        }
        let mut coeffs = vec![Rat::ZERO; self.coeffs.len() + o.coeffs.len() - 1];
        for (i, a) in self.coeffs.iter().enumerate() {
            for (j, b) in o.coeffs.iter().enumerate() {
                coeffs[i + j] = coeffs[i + j].add(&a.mul(b));
            }
        }
        Poly { coeffs }.normalised()
    }

    /// Scalar multiple.
    pub fn scale(&self, c: &Rat) -> Poly {
        Poly {
            coeffs: self.coeffs.iter().map(|a| a.mul(c)).collect(),
        }
        .normalised()
    }

    /// Exact evaluation at a rational point (Horner).
    pub(crate) fn eval_rat(&self, x: &Rat) -> Rat {
        let mut acc = Rat::ZERO;
        for c in self.coeffs.iter().rev() {
            acc = acc.mul(x).add(c);
        }
        acc
    }

    /// `f64` evaluation at `x` (Horner over `f64`-converted coefficients).
    pub(crate) fn eval_f64(&self, x: f64) -> f64 {
        let mut acc = 0.0f64;
        for c in self.coeffs.iter().rev() {
            acc = acc * x + c.to_f64();
        }
        acc
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.coeffs.is_empty() {
            return write!(f, "0");
        }
        let mut first = true;
        for (k, c) in self.coeffs.iter().enumerate() {
            if c.is_zero() {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            match k {
                0 => write!(f, "{c}")?,
                1 => write!(f, "({c})·s")?,
                _ => write!(f, "({c})·s^{k}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miri_smoke_rat_arithmetic_is_exact() {
        let a = Rat::new(1, 3);
        let b = Rat::new(1, 6);
        assert_eq!(a.add(&b), Rat::new(1, 2));
        assert_eq!(a.sub(&b), Rat::new(1, 6));
        assert_eq!(a.mul(&b), Rat::new(1, 18));
        assert_eq!(a.div(&b), Rat::int(2));
        assert_eq!(Rat::new(-4, -8), Rat::new(1, 2));
        assert_eq!(Rat::new(4, -8), Rat::new(-1, 2));
        assert_eq!(Rat::new(2, 4).pow(3), Rat::new(1, 8));
        assert!(Rat::ZERO.is_zero());
        assert_eq!(Rat::new(1, 2).to_f64(), 0.5);
    }

    #[test]
    fn miri_smoke_poly_algebra() {
        // (1 + s)(1 - s) = 1 - s²
        let one_plus = Poly::from_coeffs(vec![Rat::ONE, Rat::ONE]);
        let one_minus = Poly::from_coeffs(vec![Rat::ONE, Rat::int(-1)]);
        let prod = one_plus.mul(&one_minus);
        assert_eq!(
            prod,
            Poly::from_coeffs(vec![Rat::ONE, Rat::ZERO, Rat::int(-1)])
        );
        assert_eq!(prod.degree(), Some(2));
        // Exact and f64 evaluation agree on representable points.
        assert_eq!(prod.eval_rat(&Rat::new(1, 2)), Rat::new(3, 4));
        assert_eq!(prod.eval_f64(0.5), 0.75);
        // Subtraction of equal polynomials is identically zero.
        assert!(prod.sub(&prod).is_zero());
    }

    #[test]
    fn poly_display_is_readable() {
        let p = Poly::from_coeffs(vec![Rat::new(1, 2), Rat::ZERO, Rat::int(3)]);
        assert_eq!(p.to_string(), "1/2 + (3)·s^2");
        assert_eq!(Poly::zero().to_string(), "0");
    }
}
