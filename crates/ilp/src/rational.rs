//! Exact rational arithmetic over `i128` with overflow detection.
//!
//! The simplex method over rationals is exact: no tolerances, no cycling
//! caused by round-off, and results that tests can compare with `==`, which
//! is what makes [`crate::reference`] a reference. The price is potential
//! coefficient growth; every operation here uses checked `i128` math and
//! reports [`IlpError::Overflow`] instead of wrapping.

use crate::error::{IlpError, Result};
use std::cmp::Ordering;
use std::fmt;

/// A reduced fraction `num/den` with `den > 0`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Rational {
    num: i128,
    den: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rational {
    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Builds `num/den`, reducing to lowest terms. `den` must be nonzero.
    pub fn new(num: i128, den: i128) -> Result<Rational> {
        if den == 0 {
            return Err(IlpError::DivideByZero);
        }
        let g = gcd(num, den);
        let (mut num, mut den) = if g == 0 { (0, 1) } else { (num / g, den / g) };
        if den < 0 {
            num = num.checked_neg().ok_or(IlpError::Overflow)?;
            den = den.checked_neg().ok_or(IlpError::Overflow)?;
        }
        Ok(Rational { num, den })
    }

    /// An integer as a rational.
    pub fn from_int(v: i64) -> Rational {
        Rational {
            num: v as i128,
            den: 1,
        }
    }

    /// Checked addition.
    pub fn try_add(&self, o: &Rational) -> Result<Rational> {
        // a/b + c/d = (a*(d/g) + c*(b/g)) / lcm(b,d); pre-divide to limit growth.
        let g = gcd(self.den, o.den);
        let db = self.den / g;
        let dd = o.den / g;
        let lhs = self.num.checked_mul(dd).ok_or(IlpError::Overflow)?;
        let rhs = o.num.checked_mul(db).ok_or(IlpError::Overflow)?;
        let num = lhs.checked_add(rhs).ok_or(IlpError::Overflow)?;
        let den = self.den.checked_mul(dd).ok_or(IlpError::Overflow)?;
        Rational::new(num, den)
    }

    /// Checked subtraction.
    pub fn try_sub(&self, o: &Rational) -> Result<Rational> {
        self.try_add(&o.neg())
    }

    /// Checked multiplication.
    pub fn try_mul(&self, o: &Rational) -> Result<Rational> {
        // Cross-reduce before multiplying to limit growth.
        let g1 = gcd(self.num, o.den);
        let g2 = gcd(o.num, self.den);
        let num = (self.num / g1)
            .checked_mul(o.num / g2)
            .ok_or(IlpError::Overflow)?;
        let den = (self.den / g2)
            .checked_mul(o.den / g1)
            .ok_or(IlpError::Overflow)?;
        Rational::new(num, den)
    }

    /// Checked division.
    pub fn try_div(&self, o: &Rational) -> Result<Rational> {
        if o.num == 0 {
            return Err(IlpError::DivideByZero);
        }
        self.try_mul(&Rational {
            num: o.den,
            den: o.num,
        })
    }

    /// Negation (cannot overflow: `num` is never `i128::MIN` after reduction
    /// from the public constructors, but we saturate defensively).
    pub fn neg(&self) -> Rational {
        Rational {
            num: self.num.checked_neg().unwrap_or(i128::MAX),
            den: self.den,
        }
    }

    /// `true` if exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// `true` if strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// `true` if strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// `true` if an integer.
    pub fn is_integral(&self) -> bool {
        self.den == 1
    }

    /// Floor as `i64`.
    pub fn floor_i64(&self) -> i64 {
        self.num.div_euclid(self.den) as i64
    }

    /// Ceiling as `i64`.
    pub fn ceil_i64(&self) -> i64 {
        -((-self.num).div_euclid(self.den)) as i64
    }

    /// Nearest integer (ties round half away from zero).
    pub fn round_i64(&self) -> i64 {
        let two_num = 2 * self.num;
        if self.num >= 0 {
            ((two_num + self.den) / (2 * self.den)) as i64
        } else {
            ((two_num - self.den) / (2 * self.den)) as i64
        }
    }

    /// Lossy conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        if self.num < 0 {
            self.neg()
        } else {
            *self
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare a/b vs c/d via a*d vs c*b; fall back to f64 on overflow
        // (only relevant for astronomically large components, where the
        // approximation is still ordering-accurate in practice).
        match (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            (Some(l), Some(r)) => l.cmp(&r),
            _ => self
                .to_f64()
                .partial_cmp(&other.to_f64())
                .unwrap_or(Ordering::Equal),
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d).unwrap()
    }

    #[test]
    fn construction_reduces_and_normalizes_sign() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(1, -2), r(-1, 2));
        assert_eq!(r(-1, -2), r(1, 2));
        assert_eq!(r(0, -7), Rational::ZERO);
        assert!(Rational::new(1, 0).is_err());
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r(1, 2).try_add(&r(1, 3)).unwrap(), r(5, 6));
        assert_eq!(r(1, 2).try_sub(&r(1, 3)).unwrap(), r(1, 6));
        assert_eq!(r(2, 3).try_mul(&r(3, 4)).unwrap(), r(1, 2));
        assert_eq!(r(1, 2).try_div(&r(1, 4)).unwrap(), r(2, 1));
        assert!(r(1, 2).try_div(&Rational::ZERO).is_err());
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < Rational::ZERO);
        assert_eq!(r(2, 4).cmp(&r(1, 2)), Ordering::Equal);
    }

    #[test]
    fn rounding() {
        assert_eq!(r(7, 2).floor_i64(), 3);
        assert_eq!(r(7, 2).ceil_i64(), 4);
        assert_eq!(r(7, 2).round_i64(), 4);
        assert_eq!(r(-7, 2).floor_i64(), -4);
        assert_eq!(r(-7, 2).ceil_i64(), -3);
        assert_eq!(r(-7, 2).round_i64(), -4);
        assert_eq!(r(1, 3).round_i64(), 0);
        assert_eq!(r(2, 3).round_i64(), 1);
        assert!(r(4, 2).is_integral());
        assert!(!r(1, 2).is_integral());
    }

    #[test]
    fn overflow_detected_not_wrapped() {
        let huge = Rational::new(i128::MAX / 2, 1).unwrap();
        assert_eq!(huge.try_mul(&huge), Err(IlpError::Overflow));
        let near_max = Rational::new(i128::MAX - 1, 1).unwrap();
        assert_eq!(near_max.try_add(&near_max), Err(IlpError::Overflow));
        // MAX/2 + MAX/2 = MAX - 1 still fits.
        assert!(huge.try_add(&huge).is_ok());
    }

    #[test]
    fn display() {
        assert_eq!(r(3, 1).to_string(), "3");
        assert_eq!(r(-1, 2).to_string(), "-1/2");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_rat() -> impl Strategy<Value = Rational> {
        (-1000i128..1000, 1i128..1000).prop_map(|(n, d)| Rational::new(n, d).unwrap())
    }

    proptest! {
        #[test]
        fn add_commutes(a in arb_rat(), b in arb_rat()) {
            prop_assert_eq!(a.try_add(&b).unwrap(), b.try_add(&a).unwrap());
        }

        #[test]
        fn add_associates(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
            let l = a.try_add(&b).unwrap().try_add(&c).unwrap();
            let r = a.try_add(&b.try_add(&c).unwrap()).unwrap();
            prop_assert_eq!(l, r);
        }

        #[test]
        fn mul_distributes_over_add(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
            let l = a.try_mul(&b.try_add(&c).unwrap()).unwrap();
            let r = a.try_mul(&b).unwrap().try_add(&a.try_mul(&c).unwrap()).unwrap();
            prop_assert_eq!(l, r);
        }

        #[test]
        fn sub_then_add_roundtrips(a in arb_rat(), b in arb_rat()) {
            let back = a.try_sub(&b).unwrap().try_add(&b).unwrap();
            prop_assert_eq!(back, a);
        }

        #[test]
        fn div_then_mul_roundtrips(a in arb_rat(), b in arb_rat()) {
            prop_assume!(!b.is_zero());
            let back = a.try_div(&b).unwrap().try_mul(&b).unwrap();
            prop_assert_eq!(back, a);
        }

        #[test]
        fn floor_le_value_le_ceil(a in arb_rat()) {
            let fl = Rational::from_int(a.floor_i64());
            let ce = Rational::from_int(a.ceil_i64());
            prop_assert!(fl <= a && a <= ce);
        }

        #[test]
        fn ordering_matches_f64(a in arb_rat(), b in arb_rat()) {
            let exact = a.cmp(&b);
            let approx = a.to_f64().partial_cmp(&b.to_f64()).unwrap();
            // f64 has plenty of precision for these small rationals.
            prop_assert_eq!(exact, approx);
        }
    }
}
