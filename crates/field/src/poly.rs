//! Univariate polynomials over a [`Field`].
//!
//! The SVSS protocols manipulate degree-`t` polynomials in three ways:
//! sampling with a fixed constant term (the secret), evaluating at process
//! indices, and interpolating from `t+1` points. Every point is a process
//! index, so interpolation — plain and *checked* ("is there a degree-`t`
//! polynomial through all of these `≥ t+1` points?", MW-SVSS `R′` step 4,
//! SVSS `R` steps 2–3) — lives on [`crate::Domain`].

use std::fmt;

use rand::Rng;

use crate::Field;

/// A univariate polynomial, stored as coefficients, lowest degree first.
///
/// The representation is canonical: the highest coefficient is nonzero
/// (the zero polynomial stores an empty coefficient vector).
///
/// # Examples
///
/// ```
/// use sba_field::{Field, Gf101, Poly};
///
/// // 3 + 2x over GF(101)
/// let p = Poly::from_coeffs(vec![Gf101::from_u64(3), Gf101::from_u64(2)]);
/// assert_eq!(p.eval(Gf101::from_u64(10)), Gf101::from_u64(23));
/// assert_eq!(p.degree(), Some(1));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Poly<F: Field> {
    coeffs: Vec<F>,
}

/// Error returned by [`crate::Domain`]'s interpolators when input points
/// are unusable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterpolateError {
    /// Two points share the same x-coordinate.
    DuplicateX,
    /// The point list is empty.
    Empty,
    /// A point index lies outside the precomputed domain `1..=n`.
    OutOfDomain,
}

impl fmt::Display for InterpolateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpolateError::DuplicateX => write!(f, "duplicate x-coordinate"),
            InterpolateError::Empty => write!(f, "no points to interpolate"),
            InterpolateError::OutOfDomain => write!(f, "point index outside the domain"),
        }
    }
}

/// Inverts every element of `xs` in place with Montgomery's batch trick:
/// one field inversion plus `3(k − 1)` multiplications.
///
/// # Panics
///
/// Panics if any element is zero.
pub fn batch_invert<F: Field>(xs: &mut [F]) {
    if xs.is_empty() {
        return;
    }
    // prefix[i] = x_0 · … · x_{i-1}; invert the total once, then peel.
    let mut prefix = Vec::with_capacity(xs.len());
    let mut acc = F::ONE;
    for &x in xs.iter() {
        prefix.push(acc);
        acc = acc * x;
    }
    let mut inv = acc.inv();
    for i in (0..xs.len()).rev() {
        let orig = xs[i];
        xs[i] = inv * prefix[i];
        inv = inv * orig;
    }
}

impl std::error::Error for InterpolateError {}

impl<F: Field> fmt::Debug for Poly<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Poly{:?}", self.coeffs)
    }
}

impl<F: Field> Poly<F> {
    /// Constructs a polynomial from coefficients (lowest degree first).
    /// Trailing zero coefficients are trimmed to keep the form canonical.
    pub fn from_coeffs(mut coeffs: Vec<F>) -> Self {
        while coeffs.last().is_some_and(|c| c.is_zero()) {
            coeffs.pop();
        }
        Poly { coeffs }
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// Samples a uniformly random polynomial of degree **at most** `degree`
    /// whose constant term is exactly `constant`.
    ///
    /// This is the dealer's sampling step: `f(0) = s` with the remaining
    /// `degree` coefficients uniform, so any `degree` evaluations at nonzero
    /// points reveal nothing about `s` (the hiding property).
    pub fn random_with_constant<R: Rng + ?Sized>(constant: F, degree: usize, rng: &mut R) -> Self {
        let mut coeffs = Vec::with_capacity(degree + 1);
        coeffs.push(constant);
        for _ in 0..degree {
            coeffs.push(F::random(rng));
        }
        Self::from_coeffs(coeffs)
    }

    /// The degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// The coefficients, lowest degree first (empty for the zero polynomial).
    pub fn coeffs(&self) -> &[F] {
        &self.coeffs
    }

    /// Evaluates at `x` by Horner's rule.
    pub fn eval(&self, x: F) -> F {
        let mut acc = F::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// Evaluates at the *process index* `i` (1-based), i.e. at the field
    /// element `i`.
    pub fn eval_at_index(&self, i: u64) -> F {
        self.eval(F::from_u64(i))
    }

    /// The constant term `f(0)` (zero for the zero polynomial).
    #[inline]
    pub fn constant_term(&self) -> F {
        self.coeffs.first().copied().unwrap_or(F::ZERO)
    }

    /// Evaluates at every point of `xs`, appending into `out` (which is
    /// cleared first). Allocation-free once `out` has capacity `xs.len()`.
    pub fn eval_many(&self, xs: &[F], out: &mut Vec<F>) {
        out.clear();
        out.extend(xs.iter().map(|&x| self.eval(x)));
    }
}

impl<F: Field> Default for Poly<F> {
    fn default() -> Self {
        Self::zero()
    }
}

#[cfg(test)]
mod tests {
    // Interpolation is `Domain`'s: the cases below sample a `Poly`,
    // evaluate it at process indices and check what the domain recovers
    // against the polynomial they built.

    use super::*;
    use crate::{Domain, Gf101, Gf61};
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// `p`'s `(index, value)` points at `indices`.
    fn points<F: Field>(p: &Poly<F>, indices: impl IntoIterator<Item = u64>) -> Vec<(u64, F)> {
        indices
            .into_iter()
            .map(|i| (i, p.eval_at_index(i)))
            .collect()
    }

    #[test]
    fn zero_poly_invariants() {
        let z = Poly::<Gf61>::zero();
        assert_eq!(z.degree(), None);
        assert_eq!(z.eval(Gf61::from_u64(5)), Gf61::ZERO);
        assert_eq!(Poly::from_coeffs(vec![Gf61::ZERO; 4]), z);
    }

    #[test]
    fn constant_trimming() {
        let p = Poly::from_coeffs(vec![Gf101::from_u64(7), Gf101::ZERO, Gf101::ZERO]);
        assert_eq!(p.degree(), Some(0));
        assert_eq!(p.eval(Gf101::from_u64(50)), Gf101::from_u64(7));
    }

    #[test]
    fn interpolate_empty_and_duplicates() {
        let domain: Domain<Gf61> = Domain::new(4);
        assert_eq!(
            domain.interpolate(&[]).unwrap_err(),
            InterpolateError::Empty
        );
        let pts = [(3, Gf61::ONE), (3, Gf61::ZERO)];
        assert_eq!(
            domain.interpolate(&pts).unwrap_err(),
            InterpolateError::DuplicateX
        );
    }

    #[test]
    fn interpolate_checked_detects_off_curve_point() {
        let domain: Domain<Gf61> = Domain::new(5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let p = Poly::random_with_constant(Gf61::from_u64(9), 2, &mut rng);
        let mut pts = points(&p, 1..=5);
        assert_eq!(domain.interpolate_checked(&pts, 2), Some(p));
        pts[4].1 += Gf61::ONE;
        assert!(domain.interpolate_checked(&pts, 2).is_none());
    }

    #[test]
    fn interpolate_checked_rejects_high_degree() {
        // Points from a degree-3 polynomial cannot be fit with max_degree 2.
        let domain: Domain<Gf101> = Domain::new(6);
        let p = Poly::from_coeffs(vec![
            Gf101::from_u64(1),
            Gf101::from_u64(0),
            Gf101::from_u64(0),
            Gf101::from_u64(5),
        ]);
        let pts = points(&p, 1..=6);
        assert_eq!(domain.interpolate_checked(&pts, 3), Some(p));
        assert!(domain.interpolate_checked(&pts, 2).is_none());
        assert!(domain.interpolate_checked_at_zero(&pts, 2).is_none());
    }

    #[test]
    fn interpolate_checked_rejects_duplicate_in_tail() {
        // The base (the first max_degree + 1 points) is duplicate-free;
        // the repeat hides in the points only checked against it.
        let domain: Domain<Gf101> = Domain::new(4);
        let y = Gf101::from_u64(4);
        let pts = [(1, y), (2, y), (2, y)];
        assert!(domain.interpolate_checked(&pts, 1).is_none());
        assert!(domain.interpolate_checked_at_zero(&pts, 1).is_none());
    }

    proptest! {
        #[test]
        fn interpolation_round_trip(
            seed in any::<u64>(),
            degree in 0usize..6,
            secret in 0u64..1_000_000,
        ) {
            let domain: Domain<Gf61> = Domain::new(degree + 1);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let p = Poly::random_with_constant(Gf61::from_u64(secret), degree, &mut rng);
            let q = domain.interpolate(&points(&p, 1..=degree as u64 + 1)).unwrap();
            prop_assert_eq!(q.clone(), p);
            prop_assert_eq!(q.eval(Gf61::ZERO), Gf61::from_u64(secret));
        }

        #[test]
        fn any_t_plus_one_points_determine_poly(
            seed in any::<u64>(),
            // choose 4 distinct evaluation indices out of 1..=9
            perm in proptest::sample::subsequence((1u64..=9).collect::<Vec<_>>(), 4),
        ) {
            let domain: Domain<Gf61> = Domain::new(9);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let p = Poly::random_with_constant(Gf61::from_u64(77), 3, &mut rng);
            prop_assert_eq!(domain.interpolate(&points(&p, perm)).unwrap(), p);
        }

        #[test]
        fn add_and_scale_agree_with_pointwise(
            a in proptest::collection::vec(0u64..101, 0..5),
            b in proptest::collection::vec(0u64..101, 0..5),
            s in 0u64..101,
            x in 0u64..101,
        ) {
            let coeff = |v: &[u64], k: usize| Gf101::from_u64(v.get(k).copied().unwrap_or(0));
            let pa = Poly::from_coeffs(a.iter().map(|&c| Gf101::from_u64(c)).collect());
            let pb = Poly::from_coeffs(b.iter().map(|&c| Gf101::from_u64(c)).collect());
            let sum = (0..a.len().max(b.len())).map(|k| coeff(&a, k) + coeff(&b, k));
            let s = Gf101::from_u64(s);
            let x = Gf101::from_u64(x);
            prop_assert_eq!(Poly::from_coeffs(sum.collect()).eval(x), pa.eval(x) + pb.eval(x));
            let scaled = Poly::from_coeffs(pa.coeffs().iter().map(|&c| c * s).collect());
            prop_assert_eq!(scaled.eval(x), pa.eval(x) * s);
        }
    }

    /// Hiding, exhaustively over GF(101): for a degree-1 polynomial with a
    /// fixed secret, the value at index 1 is uniform over the field.
    #[test]
    fn single_share_distribution_is_uniform() {
        use std::collections::HashMap;
        for secret in [0u64, 1, 50] {
            let mut counts: HashMap<u64, usize> = HashMap::new();
            // Enumerate all degree-1 polynomials with f(0) = secret.
            for a1 in Gf101::all() {
                let p = Poly::from_coeffs(vec![Gf101::from_u64(secret), a1]);
                *counts.entry(p.eval_at_index(1).as_u64()).or_default() += 1;
            }
            assert_eq!(counts.len(), 101);
            assert!(counts.values().all(|&c| c == 1), "share not uniform");
        }
    }
}
