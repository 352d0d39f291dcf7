//! Normalized `i128`-backed rational numbers.
//!
//! All symbolic computation in the workspace (polynomial coefficients,
//! guards, pre/post-conditions, constraint generation, the exact
//! certificate and trace falsification) uses [`Rational`] so that the
//! reduction of Steps 1–3 of the paper is exact; only the numeric QCQP
//! back-end works in `f64`.
//!
//! # Invariants
//!
//! Every value is normalized: the denominator is strictly positive,
//! `gcd(|numer|, denom) == 1`, and neither part is `i128::MIN`. The last
//! rule keeps negation and [`Rational::abs`] total: a checked operation
//! whose exact result would hold `i128::MIN` returns
//! [`RationalError::Overflow`] instead.
//!
//! # Errors and panics
//!
//! The `checked_*` operations and [`Rational::checked_pow`] never panic:
//! they return [`RationalError::DivisionByZero`] for a zero divisor and
//! [`RationalError::Overflow`] when an intermediate product or sum leaves
//! the `i128` range. The operator impls (`+`, `-`, `*`, `/` and their
//! assigning forms, [`Sum`](std::iter::Sum), [`Product`](std::iter::Product)),
//! [`Rational::new`], [`Rational::recip`] and [`Rational::pow`] are the
//! same operations with the error turned into a panic; code that handles
//! input of unbounded magnitude uses the checked forms. Negation,
//! [`Rational::abs`], comparison and [`Rational::floor`] never fail.
//!
//! # Fast paths
//!
//! The hot operations avoid 128-bit division, which compiles to a software
//! routine: the gcd is Stein's binary algorithm on `u128` magnitudes that
//! drops to `u64` once both operands fit, exact divisions by a power of
//! two shift, and integer operands skip the gcd altogether. A product of
//! normalized operands is already in lowest terms after cross-reduction,
//! and a sum needs only `gcd(t, g)` with `g = gcd(b, d)` (Knuth, TAOCP
//! vol. 2 §4.5.1). Each fast path returns exactly the `Result` of the
//! textbook Euclid-based algorithm — the same normalized value and
//! `Overflow` in the same cases — which the unit tests keep as a
//! reference oracle.

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

/// An exact rational number `numer / denom` with `denom > 0`,
/// `gcd(|numer|, denom) == 1` and `numer != i128::MIN`.
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

/// The largest magnitude a [`Rational`] part may have (`i128::MIN` is
/// excluded, so this bounds both signs).
const MAX_MAGNITUDE: u128 = i128::MAX as u128;

/// `gcd(a, b)` by Stein's binary algorithm: shifts and subtractions only,
/// switching to 64-bit words once both operands fit.
fn gcd(a: u128, b: u128) -> u128 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    let (mut a, mut b) = (a >> a.trailing_zeros(), b >> b.trailing_zeros());
    // Integer and dyadic denominators end here.
    if a == 1 || b == 1 {
        return 1 << shift;
    }
    // Both odd from here on; each round halves the larger one at least.
    while a != b {
        if (a | b) >> 64 == 0 {
            return u128::from(odd_gcd_u64(a as u64, b as u64)) << shift;
        }
        if a > b {
            a -= b;
            a >>= a.trailing_zeros();
        } else {
            b -= a;
            b >>= b.trailing_zeros();
        }
    }
    a << shift
}

/// The binary gcd of two odd 64-bit words.
fn odd_gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while a != b {
        if a > b {
            a -= b;
            a >>= a.trailing_zeros();
        } else {
            b -= a;
            b >>= b.trailing_zeros();
        }
    }
    a
}

/// `a / b` for a divisor `b` of `a`: a shift when `b` is a power of two
/// (`b == 1` included), a 64-bit division when both fit.
fn div_exact(a: u128, b: u128) -> u128 {
    if b.is_power_of_two() {
        a >> b.trailing_zeros()
    } else if (a | b) >> 64 == 0 {
        u128::from(a as u64 / b as u64)
    } else {
        a / b
    }
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
    /// Panics if `denom == 0` or if a normalized part would be `i128::MIN`.
    pub fn new(numer: i128, denom: i128) -> Self {
        Self::checked_new(numer, denom)
            .unwrap_or_else(|error| panic!("invalid rational {numer}/{denom}: {error}"))
    }

    /// Creates a new rational, returning an error instead of panicking on a
    /// zero denominator or on a normalized part equal to `i128::MIN`.
    pub fn checked_new(numer: i128, denom: i128) -> Result<Self, RationalError> {
        if denom == 0 {
            return Err(RationalError::DivisionByZero);
        }
        let (n, d) = (numer.unsigned_abs(), denom.unsigned_abs());
        let g = gcd(n, d);
        Self::from_magnitudes((numer < 0) != (denom < 0), div_exact(n, g), div_exact(d, g))
    }

    /// The rational `±n/d` from coprime magnitudes (`d > 0`), or `Overflow`
    /// when a part does not fit the invariant's range.
    fn from_magnitudes(negative: bool, n: u128, d: u128) -> Result<Self, RationalError> {
        if n > MAX_MAGNITUDE || d > MAX_MAGNITUDE {
            return Err(RationalError::Overflow);
        }
        let numer = if negative { -(n as i128) } else { n as i128 };
        Ok(Rational {
            numer,
            denom: d as i128,
        })
    }

    /// An integer-valued rational, or `Overflow` for `i128::MIN`.
    fn integer(numer: Option<i128>) -> Result<Self, RationalError> {
        match numer {
            Some(numer) if numer != i128::MIN => Ok(Rational { numer, denom: 1 }),
            _ => Err(RationalError::Overflow),
        }
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
        if self.numer == 0 {
            return Err(RationalError::DivisionByZero);
        }
        // Swapping coprime parts keeps them coprime.
        Ok(Rational {
            numer: self.denom * self.numer.signum(),
            denom: self.numer.abs(),
        })
    }

    /// Converts to an `f64` approximation.
    pub fn to_f64(&self) -> f64 {
        self.numer as f64 / self.denom as f64
    }

    /// Checked addition.
    ///
    /// With `g = gcd(b, d)`, `a/b + c/d = t / (b·(d/g))` for
    /// `t = a·(d/g) + c·(b/g)`, and `gcd(t, b·(d/g)) = gcd(t, g)`: the
    /// result needs that one small gcd, and none when `g == 1`. `Overflow`
    /// is reported exactly when one of the checked products `a·(d/g)`,
    /// `c·(b/g)`, `b·(d/g)` or the sum `t` leaves `i128`, or the result
    /// would hold `i128::MIN`.
    pub fn checked_add(&self, other: &Self) -> Result<Self, RationalError> {
        if self.denom == 1 && other.denom == 1 {
            return Self::integer(self.numer.checked_add(other.numer));
        }
        let (b, d) = (self.denom as u128, other.denom as u128);
        let g = gcd(b, d);
        let lhs_scale = div_exact(d, g) as i128;
        let rhs_scale = div_exact(b, g) as i128;
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
            .ok_or(RationalError::Overflow)? as u128;
        let t = numer.unsigned_abs();
        let h = gcd(t, g);
        Self::from_magnitudes(numer < 0, div_exact(t, h), div_exact(denom, h))
    }

    /// Checked subtraction.
    pub fn checked_sub(&self, other: &Self) -> Result<Self, RationalError> {
        self.checked_add(&(-*other))
    }

    /// Checked multiplication.
    ///
    /// Cross-reducing `a/b · c/d` by `gcd(a, d)` and `gcd(c, b)` leaves
    /// coprime parts, so the product is already normalized: no third gcd.
    pub fn checked_mul(&self, other: &Self) -> Result<Self, RationalError> {
        if self.numer == 0 || other.numer == 0 {
            return Ok(Rational::zero());
        }
        if self.denom == 1 && other.denom == 1 {
            return Self::integer(self.numer.checked_mul(other.numer));
        }
        let (a, b) = (self.numer.unsigned_abs(), self.denom as u128);
        let (c, d) = (other.numer.unsigned_abs(), other.denom as u128);
        let g1 = gcd(a, d);
        let g2 = gcd(c, b);
        let numer = div_exact(a, g1).checked_mul(div_exact(c, g2));
        let denom = div_exact(b, g2).checked_mul(div_exact(d, g1));
        match (numer, denom) {
            (Some(n), Some(d)) => {
                Self::from_magnitudes((self.numer < 0) != (other.numer < 0), n, d)
            }
            _ => Err(RationalError::Overflow),
        }
    }

    /// Checked division.
    pub fn checked_div(&self, other: &Self) -> Result<Self, RationalError> {
        if other.is_zero() {
            return Err(RationalError::DivisionByZero);
        }
        self.checked_mul(&other.checked_recip()?)
    }

    /// Raises the rational to a non-negative integer power.
    ///
    /// # Panics
    ///
    /// Panics on overflow; [`Rational::checked_pow`] is the fallible form.
    pub fn pow(&self, exp: u32) -> Self {
        self.checked_pow(exp).expect("rational arithmetic overflow")
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
        self.numer.div_euclid(self.denom)
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
        if self.denom == other.denom {
            return self.numer.cmp(&other.numer);
        }
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
            let magnitude = Rational::checked_new(frac, scale)
                .and_then(|frac| {
                    Rational::checked_new(int.unsigned_abs() as i128, 1)?.checked_add(&frac)
                })
                .map_err(|_| ParseRationalError::new(s))?;
            return Ok(if negative || int < 0 {
                -magnitude
            } else {
                magnitude
            });
        }
        let numer: i128 = s.parse().map_err(|_| ParseRationalError::new(s))?;
        Rational::checked_new(numer, 1).map_err(|_| ParseRationalError::new(s))
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

    #[test]
    fn a_product_equal_to_i128_min_overflows() {
        let half_min = Rational::new(i128::MIN / 2, 1);
        assert_eq!(
            half_min.checked_mul(&Rational::from_int(2)),
            Err(RationalError::Overflow)
        );
        let half = Rational::new(i128::MIN / 2, 3);
        assert_eq!(
            half.checked_mul(&Rational::from_int(6)),
            Err(RationalError::Overflow)
        );
    }

    #[test]
    fn a_difference_equal_to_i128_min_overflows() {
        let most_negative = Rational::new(i128::MIN + 1, 1);
        assert_eq!(
            Rational::zero().checked_sub(&Rational::new(i128::MAX, 1)),
            Ok(most_negative)
        );
        assert_eq!(
            most_negative.checked_sub(&Rational::one()),
            Err(RationalError::Overflow)
        );
        assert_eq!(
            most_negative.checked_add(&Rational::from_int(-1)),
            Err(RationalError::Overflow)
        );
    }

    #[test]
    fn negation_and_abs_of_the_most_negative_value_do_not_wrap() {
        let most_negative = Rational::new(i128::MIN + 1, 1);
        assert_eq!(-most_negative, Rational::new(i128::MAX, 1));
        assert_eq!(most_negative.abs(), Rational::new(i128::MAX, 1));
        assert!((-most_negative).is_positive());
    }

    #[test]
    fn construction_from_i128_min_overflows_unless_it_reduces() {
        assert_eq!(
            Rational::checked_new(i128::MIN, -1),
            Err(RationalError::Overflow)
        );
        assert_eq!(
            Rational::checked_new(i128::MIN, 1),
            Err(RationalError::Overflow)
        );
        assert_eq!(
            Rational::checked_new(1, i128::MIN),
            Err(RationalError::Overflow)
        );
        assert_eq!(
            Rational::checked_new(i128::MIN, -2),
            Ok(Rational::new(1 << 126, 1))
        );
        assert_eq!(
            Rational::checked_new(-2, i128::MIN),
            Ok(Rational::new(1, 1 << 126))
        );
        let text = i128::MIN.to_string();
        assert!(text.parse::<Rational>().is_err());
        assert!(format!("{text}.5").parse::<Rational>().is_err());
    }

    #[test]
    fn floor_near_the_range_ends() {
        assert_eq!(Rational::new(i128::MIN + 1, 2).floor(), i128::MIN / 2);
        assert_eq!(Rational::new(i128::MAX, 2).floor(), i128::MAX / 2);
    }

    /// The textbook algorithms the fast paths must agree with: Euclid's gcd
    /// by remainders, normalization by two divisions, the sum over the
    /// cross-scaled common denominator and the cross-reduced product
    /// re-normalized by a third gcd. Normalization enforces the type's
    /// invariant the same way: a part equal to `i128::MIN` is `Overflow`.
    mod reference {
        use super::*;

        pub fn gcd(mut a: u128, mut b: u128) -> u128 {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        }

        pub fn new(numer: i128, denom: i128) -> Result<Rational, RationalError> {
            if denom == 0 {
                return Err(RationalError::DivisionByZero);
            }
            let g = gcd(numer.unsigned_abs(), denom.unsigned_abs());
            let n = numer.unsigned_abs() / g;
            let d = denom.unsigned_abs() / g;
            if n > i128::MAX as u128 || d > i128::MAX as u128 {
                return Err(RationalError::Overflow);
            }
            let sign = if (numer < 0) != (denom < 0) { -1 } else { 1 };
            Ok(Rational {
                numer: sign * n as i128,
                denom: d as i128,
            })
        }

        pub fn add(x: &Rational, y: &Rational) -> Result<Rational, RationalError> {
            let g = gcd(x.denom as u128, y.denom as u128) as i128;
            let lhs_scale = y.denom / g;
            let rhs_scale = x.denom / g;
            let numer = x
                .numer
                .checked_mul(lhs_scale)
                .and_then(|a| {
                    y.numer
                        .checked_mul(rhs_scale)
                        .and_then(|b| a.checked_add(b))
                })
                .ok_or(RationalError::Overflow)?;
            let denom = x
                .denom
                .checked_mul(lhs_scale)
                .ok_or(RationalError::Overflow)?;
            new(numer, denom)
        }

        pub fn sub(x: &Rational, y: &Rational) -> Result<Rational, RationalError> {
            add(
                x,
                &Rational {
                    numer: -y.numer,
                    denom: y.denom,
                },
            )
        }

        pub fn mul(x: &Rational, y: &Rational) -> Result<Rational, RationalError> {
            let g1 = gcd(x.numer.unsigned_abs(), y.denom as u128) as i128;
            let g2 = gcd(y.numer.unsigned_abs(), x.denom as u128) as i128;
            let numer = (x.numer / g1)
                .checked_mul(y.numer / g2)
                .ok_or(RationalError::Overflow)?;
            let denom = (x.denom / g2)
                .checked_mul(y.denom / g1)
                .ok_or(RationalError::Overflow)?;
            new(numer, denom)
        }

        pub fn recip(x: &Rational) -> Result<Rational, RationalError> {
            new(x.denom, x.numer)
        }

        pub fn div(x: &Rational, y: &Rational) -> Result<Rational, RationalError> {
            if y.numer == 0 {
                return Err(RationalError::DivisionByZero);
            }
            mul(x, &recip(y)?)
        }

        pub fn pow(x: &Rational, exp: u32) -> Result<Rational, RationalError> {
            let (mut result, mut base, mut e) = (Rational::one(), *x, exp);
            while e > 0 {
                if e & 1 == 1 {
                    result = mul(&result, &base)?;
                }
                e >>= 1;
                if e > 0 {
                    base = mul(&base, &base)?;
                }
            }
            Ok(result)
        }

        pub fn cmp(x: &Rational, y: &Rational) -> Ordering {
            match (x.numer.checked_mul(y.denom), y.numer.checked_mul(x.denom)) {
                (Some(l), Some(r)) => l.cmp(&r),
                _ => cmp_fractions(x.numer, x.denom, y.numer, y.denom),
            }
        }
    }

    /// A raw `i128` drawn from one of the magnitude classes the oracle test
    /// covers, from two 64-bit draws.
    fn raw_i128(kind: u32, x: i64, y: i64) -> i128 {
        let (x, y) = (i128::from(x), i128::from(y));
        match kind {
            // Small integers.
            0 => x % 1000,
            // 64-bit integers.
            1 => x,
            // Products of 64-bit integers: general 128-bit values.
            2 => x * (y >> 1),
            // Powers of two, with sign.
            3 => x.signum() * (1i128 << y.rem_euclid(127)),
            // Near i128::MAX.
            4 => i128::MAX - y.rem_euclid(1000),
            // One step from i128::MIN, and i128::MIN itself.
            _ => i128::MIN + y.rem_euclid(3),
        }
    }

    /// A normalized operand: integers, dyadics `k/2^e` with `e ≤ 62`, small
    /// general rationals, magnitudes near `i128::MAX` and values one step
    /// from `i128::MIN`.
    fn operand() -> impl Strategy<Value = Rational> {
        ((0u32..7, 0u32..6), (i64::MIN..i64::MAX, i64::MIN..i64::MAX)).prop_map(
            |((kind, class), (x, y))| {
                let value = match kind {
                    0 => Rational::checked_new(raw_i128(class, x, y), 1),
                    1 => Rational::checked_new(i128::from(x), 1 << y.rem_euclid(63)),
                    2 => {
                        Rational::checked_new(i128::from(x % 200), 1 + i128::from(y).rem_euclid(40))
                    }
                    3 => Rational::checked_new(
                        raw_i128(class, x, y),
                        1 + i128::from(x).rem_euclid(12),
                    ),
                    4 => Rational::checked_new(
                        1 + i128::from(x).rem_euclid(12),
                        raw_i128(class, y, x),
                    ),
                    5 => Rational::checked_new(
                        raw_i128(class, x, y),
                        raw_i128((class + 2) % 6, y, x),
                    ),
                    _ => Rational::checked_new(
                        i128::MIN + 1 + i128::from(x).rem_euclid(4),
                        1 + i128::from(y).rem_euclid(5),
                    ),
                };
                value.unwrap_or_else(|_| Rational::from_int(x))
            },
        )
    }

    fn assert_normalized(value: &Rational) {
        assert!(value.denom > 0, "{value:?}");
        assert_ne!(value.numer, i128::MIN, "{value:?}");
        assert_eq!(
            reference::gcd(value.numer.unsigned_abs(), value.denom as u128),
            1,
            "{value:?}"
        );
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn construction_matches_the_reference(
            kinds in (0u32..6, 0u32..6),
            x in (i64::MIN..i64::MAX, i64::MIN..i64::MAX),
            y in (i64::MIN..i64::MAX, i64::MIN..i64::MAX),
        ) {
            let numer = raw_i128(kinds.0, x.0, x.1);
            let denom = if kinds.1 == 0 && x.0 % 7 == 0 { 0 } else { raw_i128(kinds.1, y.0, y.1) };
            let fast = Rational::checked_new(numer, denom);
            prop_assert_eq!(fast, reference::new(numer, denom), "{}/{}", numer, denom);
            if let Ok(value) = fast {
                assert_normalized(&value);
            }
        }

        #[test]
        fn binary_operations_match_the_reference(a in operand(), b in operand()) {
            assert_normalized(&a);
            assert_normalized(&b);
            prop_assert_eq!(a.checked_add(&b), reference::add(&a, &b), "{} + {}", a, b);
            prop_assert_eq!(a.checked_sub(&b), reference::sub(&a, &b), "{} - {}", a, b);
            prop_assert_eq!(a.checked_mul(&b), reference::mul(&a, &b), "{} * {}", a, b);
            prop_assert_eq!(a.checked_div(&b), reference::div(&a, &b), "{} / {}", a, b);
            prop_assert_eq!(a.cmp(&b), reference::cmp(&a, &b), "{} vs {}", a, b);
            for result in [a.checked_add(&b), a.checked_sub(&b), a.checked_mul(&b), a.checked_div(&b)]
                .into_iter()
                .flatten()
            {
                assert_normalized(&result);
            }
        }

        #[test]
        fn unary_operations_match_the_reference(a in operand(), exp in 0u32..5) {
            prop_assert_eq!(a.checked_recip(), reference::recip(&a), "1 / {}", a);
            prop_assert_eq!(a.checked_pow(exp), reference::pow(&a, exp), "{} ^ {}", a, exp);
            assert_normalized(&-a);
            assert_normalized(&a.abs());
            prop_assert_eq!(-(-a), a);
        }
    }
}
