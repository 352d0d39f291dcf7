//! Normalized `i128`-backed rational numbers.
//!
//! All symbolic computation in the workspace (polynomial coefficients,
//! guards, pre/post-conditions, constraint generation) uses [`Rational`] so
//! that the reduction of Steps 1–3 of the paper is exact; only the numeric
//! QCQP back-end works in `f64`.
//!
//! The representation is always normalized: the denominator is strictly
//! positive and `gcd(|numer|, denom) == 1`. Arithmetic panics on overflow of
//! the 128-bit intermediate values, which never happens for the benchmark
//! programs shipped in this repository (their constants are tiny); the
//! checked entry points [`Rational::checked_add`] and friends are available
//! for callers that prefer graceful failure.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// Error produced by fallible [`Rational`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RationalError {
    /// A denominator of zero was supplied or produced.
    DivisionByZero,
    /// An intermediate value exceeded the `i128` range.
    Overflow,
}

impl fmt::Display for RationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RationalError::DivisionByZero => write!(f, "division by zero"),
            RationalError::Overflow => write!(f, "arithmetic overflow in rational computation"),
        }
    }
}

impl std::error::Error for RationalError {}

/// Error produced when parsing a [`Rational`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError {
    input: String,
}

impl ParseRationalError {
    fn new(input: &str) -> Self {
        Self {
            input: input.to_string(),
        }
    }
}

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal `{}`", self.input)
    }
}

impl std::error::Error for ParseRationalError {}

/// An exact rational number `numer / denom` with `denom > 0` and
/// `gcd(|numer|, denom) == 1`.
///
/// # Example
///
/// ```
/// use polyinv_arith::Rational;
///
/// let a = Rational::new(3, 4);
/// let b = Rational::new(1, 4);
/// assert_eq!(a + b, Rational::one());
/// assert_eq!((a - b).to_string(), "1/2");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Rational {
    numer: i128,
    denom: i128,
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rational {
    /// The rational number zero.
    pub fn zero() -> Self {
        Rational { numer: 0, denom: 1 }
    }

    /// The rational number one.
    pub fn one() -> Self {
        Rational { numer: 1, denom: 1 }
    }

    /// Creates a new rational `numer / denom`, normalizing the result.
    ///
    /// # Panics
    ///
    /// Panics if `denom == 0`.
    pub fn new(numer: i128, denom: i128) -> Self {
        Self::checked_new(numer, denom).expect("denominator must be non-zero")
    }

    /// Creates a new rational, returning an error instead of panicking on a
    /// zero denominator.
    pub fn checked_new(numer: i128, denom: i128) -> Result<Self, RationalError> {
        if denom == 0 {
            return Err(RationalError::DivisionByZero);
        }
        let sign = if denom < 0 { -1 } else { 1 };
        let g = gcd(numer, denom);
        if g == 0 {
            return Ok(Rational { numer: 0, denom: 1 });
        }
        Ok(Rational {
            numer: sign * numer / g,
            denom: sign * denom / g,
        })
    }

    /// Creates a rational from an integer.
    pub fn from_int(value: i64) -> Self {
        Rational {
            numer: value as i128,
            denom: 1,
        }
    }

    /// Approximates an `f64` by a rational with denominator at most `10^9`.
    ///
    /// Intended for turning solver output (which is numeric) back into
    /// presentable symbolic form. Non-finite inputs map to zero.
    pub fn approximate(value: f64) -> Self {
        if !value.is_finite() {
            return Rational::zero();
        }
        // Continued-fraction expansion with a bounded denominator.
        const MAX_DENOM: i128 = 1_000_000_000;
        let negative = value < 0.0;
        let mut x = value.abs();
        let (mut p0, mut q0, mut p1, mut q1) = (0i128, 1i128, 1i128, 0i128);
        for _ in 0..40 {
            let a = x.floor();
            if a > i64::MAX as f64 {
                break;
            }
            let a_int = a as i128;
            let p2 = match a_int.checked_mul(p1).and_then(|v| v.checked_add(p0)) {
                Some(v) => v,
                None => break,
            };
            let q2 = match a_int.checked_mul(q1).and_then(|v| v.checked_add(q0)) {
                Some(v) => v,
                None => break,
            };
            if q2 > MAX_DENOM {
                break;
            }
            p0 = p1;
            q0 = q1;
            p1 = p2;
            q1 = q2;
            let frac = x - a;
            if frac < 1e-12 {
                break;
            }
            x = 1.0 / frac;
        }
        if q1 == 0 {
            return Rational::zero();
        }
        let r = Rational::new(p1, q1);
        if negative {
            -r
        } else {
            r
        }
    }

    /// The numerator of the normalized representation.
    pub fn numer(&self) -> i128 {
        self.numer
    }

    /// The (strictly positive) denominator of the normalized representation.
    pub fn denom(&self) -> i128 {
        self.denom
    }

    /// Returns `true` if the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.numer == 0
    }

    /// Returns `true` if the value is exactly one.
    pub fn is_one(&self) -> bool {
        self.numer == 1 && self.denom == 1
    }

    /// Returns `true` if the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.numer > 0
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.numer < 0
    }

    /// The absolute value.
    pub fn abs(&self) -> Self {
        Rational {
            numer: self.numer.abs(),
            denom: self.denom,
        }
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Self {
        self.checked_recip().expect("cannot invert zero")
    }

    /// The multiplicative inverse, or an error if the value is zero.
    pub fn checked_recip(&self) -> Result<Self, RationalError> {
        Self::checked_new(self.denom, self.numer)
    }

    /// Converts to an `f64` approximation.
    pub fn to_f64(&self) -> f64 {
        self.numer as f64 / self.denom as f64
    }

    /// Checked addition.
    pub fn checked_add(&self, other: &Self) -> Result<Self, RationalError> {
        let g = gcd(self.denom, other.denom);
        let lhs_scale = other.denom / g;
        let rhs_scale = self.denom / g;
        let numer = self
            .numer
            .checked_mul(lhs_scale)
            .and_then(|a| {
                other
                    .numer
                    .checked_mul(rhs_scale)
                    .and_then(|b| a.checked_add(b))
            })
            .ok_or(RationalError::Overflow)?;
        let denom = self
            .denom
            .checked_mul(lhs_scale)
            .ok_or(RationalError::Overflow)?;
        Self::checked_new(numer, denom)
    }

    /// Checked subtraction.
    pub fn checked_sub(&self, other: &Self) -> Result<Self, RationalError> {
        self.checked_add(&(-*other))
    }

    /// Checked multiplication.
    pub fn checked_mul(&self, other: &Self) -> Result<Self, RationalError> {
        // Cross-reduce first to keep intermediates small.
        let g1 = gcd(self.numer, other.denom);
        let g2 = gcd(other.numer, self.denom);
        let n1 = self.numer / g1;
        let d2 = other.denom / g1;
        let n2 = other.numer / g2;
        let d1 = self.denom / g2;
        let numer = n1.checked_mul(n2).ok_or(RationalError::Overflow)?;
        let denom = d1.checked_mul(d2).ok_or(RationalError::Overflow)?;
        Self::checked_new(numer, denom)
    }

    /// Checked division.
    pub fn checked_div(&self, other: &Self) -> Result<Self, RationalError> {
        if other.is_zero() {
            return Err(RationalError::DivisionByZero);
        }
        self.checked_mul(&other.checked_recip()?)
    }

    /// Raises the rational to a non-negative integer power.
    pub fn pow(&self, exp: u32) -> Self {
        let mut result = Rational::one();
        let mut base = *self;
        let mut e = exp;
        while e > 0 {
            if e & 1 == 1 {
                result *= base;
            }
            base = base * base;
            e >>= 1;
        }
        result
    }

    /// Raises the rational to a non-negative integer power, returning an
    /// error instead of panicking on overflow (used by the interpreter's
    /// overflow-safe evaluation path).
    pub fn checked_pow(&self, exp: u32) -> Result<Self, RationalError> {
        let mut result = Rational::one();
        let mut base = *self;
        let mut e = exp;
        while e > 0 {
            if e & 1 == 1 {
                result = result.checked_mul(&base)?;
            }
            e >>= 1;
            if e > 0 {
                base = base.checked_mul(&base)?;
            }
        }
        Ok(result)
    }

    /// The floor of the rational as an integer.
    pub fn floor(&self) -> i128 {
        if self.numer >= 0 {
            self.numer / self.denom
        } else {
            -((-self.numer + self.denom - 1) / self.denom)
        }
    }

    /// The minimum of two rationals.
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The maximum of two rationals.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl PartialEq for Rational {
    fn eq(&self, other: &Self) -> bool {
        self.numer == other.numer && self.denom == other.denom
    }
}

impl Eq for Rational {}

impl Hash for Rational {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.numer.hash(state);
        self.denom.hash(state);
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare a/b with c/d by comparing a*d with c*b (b, d > 0); when a
        // product overflows, fall back to the exact continued-fraction
        // comparison.
        let lhs = self.numer.checked_mul(other.denom);
        let rhs = other.numer.checked_mul(self.denom);
        match (lhs, rhs) {
            (Some(l), Some(r)) => l.cmp(&r),
            _ => cmp_fractions(self.numer, self.denom, other.numer, other.denom),
        }
    }
}

/// Exact comparison of `a/b` with `c/d` (`b, d > 0`) that cannot overflow:
/// compare the integer parts, and on a tie compare the remainders `r/b` and
/// `s/d` through their reciprocals `d/s` and `b/r` (which reverses the
/// order). Every step only divides, and the denominators shrink like
/// Euclid's algorithm, so it terminates in `O(log max(b, d))` rounds.
fn cmp_fractions(mut a: i128, mut b: i128, mut c: i128, mut d: i128) -> Ordering {
    loop {
        let (q, r) = (a.div_euclid(b), a.rem_euclid(b));
        let (p, s) = (c.div_euclid(d), c.rem_euclid(d));
        if q != p {
            return q.cmp(&p);
        }
        match (r == 0, s == 0) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            // r/b vs s/d ⇔ d/s vs b/r.
            (false, false) => (a, b, c, d) = (d, s, b, r),
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.denom == 1 {
            write!(f, "{}", self.numer)
        } else {
            write!(f, "{}/{}", self.numer, self.denom)
        }
    }
}

impl From<i64> for Rational {
    fn from(value: i64) -> Self {
        Rational::from_int(value)
    }
}

impl From<i32> for Rational {
    fn from(value: i32) -> Self {
        Rational::from_int(value as i64)
    }
}

impl FromStr for Rational {
    type Err = ParseRationalError;

    /// Parses `"3"`, `"-3/4"` or a decimal literal such as `"0.25"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if let Some((n, d)) = s.split_once('/') {
            let numer: i128 = n.trim().parse().map_err(|_| ParseRationalError::new(s))?;
            let denom: i128 = d.trim().parse().map_err(|_| ParseRationalError::new(s))?;
            return Rational::checked_new(numer, denom).map_err(|_| ParseRationalError::new(s));
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            let negative = int_part.trim_start().starts_with('-');
            let int: i128 = if int_part.is_empty() || int_part == "-" {
                0
            } else {
                int_part.parse().map_err(|_| ParseRationalError::new(s))?
            };
            if frac_part.is_empty() || !frac_part.chars().all(|c| c.is_ascii_digit()) {
                return Err(ParseRationalError::new(s));
            }
            let frac: i128 = frac_part.parse().map_err(|_| ParseRationalError::new(s))?;
            let scale = 10i128
                .checked_pow(frac_part.len() as u32)
                .ok_or_else(|| ParseRationalError::new(s))?;
            let frac_rat = Rational::new(frac, scale);
            let int_rat = Rational::new(int.abs(), 1);
            let magnitude = int_rat + frac_rat;
            return Ok(if negative || int < 0 {
                -magnitude
            } else {
                magnitude
            });
        }
        let numer: i128 = s.parse().map_err(|_| ParseRationalError::new(s))?;
        Ok(Rational::new(numer, 1))
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $checked:ident) => {
        impl $trait for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$checked(&rhs).expect("rational arithmetic overflow")
            }
        }

        impl $trait<&Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                self.$checked(rhs).expect("rational arithmetic overflow")
            }
        }

        impl $trait<Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$checked(&rhs).expect("rational arithmetic overflow")
            }
        }

        impl $trait<&Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                self.$checked(rhs).expect("rational arithmetic overflow")
            }
        }
    };
}

impl_binop!(Add, add, checked_add);
impl_binop!(Sub, sub, checked_sub);
impl_binop!(Mul, mul, checked_mul);
impl_binop!(Div, div, checked_div);

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            numer: -self.numer,
            denom: self.denom,
        }
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        -*self
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rational {
    fn div_assign(&mut self, rhs: Rational) {
        *self = *self / rhs;
    }
}

impl std::iter::Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Self {
        iter.fold(Rational::zero(), |acc, x| acc + x)
    }
}

impl std::iter::Product for Rational {
    fn product<I: Iterator<Item = Rational>>(iter: I) -> Self {
        iter.fold(Rational::one(), |acc, x| acc * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalizes() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, 7), Rational::zero());
    }

    #[test]
    fn zero_denominator_is_an_error() {
        assert_eq!(
            Rational::checked_new(1, 0),
            Err(RationalError::DivisionByZero)
        );
    }

    #[test]
    fn basic_arithmetic() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 6);
        assert_eq!(a + b, Rational::new(1, 2));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 18));
        assert_eq!(a / b, Rational::new(2, 1));
    }

    #[test]
    fn negation_and_abs() {
        let a = Rational::new(-3, 4);
        assert_eq!(-a, Rational::new(3, 4));
        assert_eq!(a.abs(), Rational::new(3, 4));
        assert!(a.is_negative());
        assert!((-a).is_positive());
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::zero());
        assert_eq!(
            Rational::new(2, 6).cmp(&Rational::new(1, 3)),
            Ordering::Equal
        );
    }

    #[test]
    fn pow_and_floor() {
        assert_eq!(Rational::new(2, 3).pow(3), Rational::new(8, 27));
        assert_eq!(Rational::new(1, 2).pow(0), Rational::one());
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(6, 2).floor(), 3);
    }

    #[test]
    fn parsing() {
        assert_eq!("3".parse::<Rational>().unwrap(), Rational::from_int(3));
        assert_eq!("-3/4".parse::<Rational>().unwrap(), Rational::new(-3, 4));
        assert_eq!("0.25".parse::<Rational>().unwrap(), Rational::new(1, 4));
        assert_eq!("-0.5".parse::<Rational>().unwrap(), Rational::new(-1, 2));
        assert_eq!("1.5".parse::<Rational>().unwrap(), Rational::new(3, 2));
        assert!("abc".parse::<Rational>().is_err());
        assert!("1/0".parse::<Rational>().is_err());
    }

    #[test]
    fn display_round_trips() {
        for r in [
            Rational::new(3, 7),
            Rational::from_int(-4),
            Rational::zero(),
            Rational::new(-22, 7),
        ] {
            let text = r.to_string();
            assert_eq!(text.parse::<Rational>().unwrap(), r);
        }
    }

    #[test]
    fn approximate_recovers_simple_fractions() {
        assert_eq!(Rational::approximate(0.5), Rational::new(1, 2));
        assert_eq!(Rational::approximate(-0.25), Rational::new(-1, 4));
        assert_eq!(Rational::approximate(3.0), Rational::from_int(3));
        let third = Rational::approximate(1.0 / 3.0);
        assert!((third.to_f64() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(Rational::approximate(f64::NAN), Rational::zero());
    }

    #[test]
    fn sums_and_products() {
        let values = [
            Rational::new(1, 2),
            Rational::new(1, 3),
            Rational::new(1, 6),
        ];
        let sum: Rational = values.iter().copied().sum();
        assert_eq!(sum, Rational::one());
        let product: Rational = values.iter().copied().product();
        assert_eq!(product, Rational::new(1, 36));
    }

    #[test]
    fn comparison_is_exact_when_cross_products_overflow() {
        // (2¹⁰⁰+1)/2¹⁰⁰ and (2¹⁰⁰+2)/(2¹⁰⁰+1) differ by 2⁻¹⁰⁰/(2¹⁰⁰+1):
        // both round to 1.0 as f64 and their cross products overflow i128.
        let p = 1i128 << 100;
        let lhs = Rational::new(p + 1, p);
        let rhs = Rational::new(p + 2, p + 1);
        assert_eq!(lhs.to_f64(), rhs.to_f64());
        assert_eq!(lhs.cmp(&rhs), Ordering::Greater);
        assert_eq!(rhs.cmp(&lhs), Ordering::Less);
        assert_eq!(lhs.cmp(&lhs), Ordering::Equal);
        let (neg_lhs, neg_rhs) = (-lhs, -rhs);
        assert_eq!(neg_lhs.cmp(&neg_rhs), Ordering::Less);
        // Agrees with cross-multiplication wherever that does not overflow.
        for (a, b, c, d) in [(7, 3, 9, 4), (-7, 3, -9, 4), (5, 10, 1, 2), (-1, 3, 0, 1)] {
            assert_eq!(
                cmp_fractions(a, b, c, d),
                (a * d).cmp(&(c * b)),
                "{a}/{b} vs {c}/{d}"
            );
        }
    }

    #[test]
    fn checked_overflow_is_detected() {
        let huge = Rational::new(i128::MAX / 2, 1);
        assert_eq!(huge.checked_mul(&huge), Err(RationalError::Overflow));
    }
}
