//! Property-based tests for the arithmetic substrate.

use polyinv_arith::{Matrix, Rational, Vector};
use proptest::prelude::*;

fn small_rational() -> impl Strategy<Value = Rational> {
    (-200i128..200, 1i128..40).prop_map(|(n, d)| Rational::new(n, d))
}

proptest! {
    #[test]
    fn addition_is_commutative(a in small_rational(), b in small_rational()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn addition_is_associative(a in small_rational(), b in small_rational(), c in small_rational()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn multiplication_distributes_over_addition(
        a in small_rational(), b in small_rational(), c in small_rational()
    ) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn additive_inverse(a in small_rational()) {
        prop_assert_eq!(a + (-a), Rational::zero());
    }

    #[test]
    fn multiplicative_inverse(a in small_rational()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a * a.recip(), Rational::one());
    }

    #[test]
    fn ordering_is_consistent_with_f64(a in small_rational(), b in small_rational()) {
        if a < b {
            prop_assert!(a.to_f64() <= b.to_f64() + 1e-9);
        }
    }

    #[test]
    fn display_round_trip(a in small_rational()) {
        let text = a.to_string();
        let parsed: Rational = text.parse().unwrap();
        prop_assert_eq!(parsed, a);
    }

    #[test]
    fn pow_matches_repeated_multiplication(a in small_rational(), e in 0u32..5) {
        let mut expected = Rational::one();
        for _ in 0..e {
            expected *= a;
        }
        prop_assert_eq!(a.pow(e), expected);
    }

    #[test]
    fn floor_is_a_lower_bound(a in small_rational()) {
        let fl = a.floor();
        prop_assert!(Rational::from_int(fl as i64) <= a);
        prop_assert!(a < Rational::from_int(fl as i64 + 1));
    }
}

fn small_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-5.0f64..5.0, n * n).prop_map(move |values| {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m.set(i, j, values[i * n + j]);
            }
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gaussian_solve_satisfies_system(m in small_matrix(4), rhs in prop::collection::vec(-5.0f64..5.0, 4)) {
        let b = Vector::from_slice(&rhs);
        if let Some(x) = m.solve(&b) {
            let residual = m.mul_vec(&x);
            for i in 0..4 {
                prop_assert!((residual[i] - b[i]).abs() < 1e-6);
            }
        }
    }
}
