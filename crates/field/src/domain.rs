//! Precomputed evaluation domains for the process-index points `1..=n`.
//!
//! Every SVSS/coin instance interpolates and evaluates polynomials at the
//! *same* points — the process indices — thousands of times per session.
//! [`Domain`] precomputes, once per instance:
//!
//! - the field elements `x_i = i` for `i ∈ 1..=n`, and
//! - the inverses of every possible index difference `1..n` (so the
//!   inverse of `x_i − x_j` is a table lookup, never a Fermat
//!   exponentiation).
//!
//! With those tables, Lagrange interpolation over any subset of the domain
//! needs **zero** field inversions: the barycentric weights
//! `w_m = Π_{j≠m} (x_m − x_j)^{-1}` are products of table entries, and
//! coefficient recovery is a synthetic division of the master polynomial
//! `M(x) = Π (x − x_m)` — `O(k²)` multiplications total, against `O(k³)`
//! multiplications plus `k` inversions for the textbook formula.
//!
//! The domain is capped at [`MAX_DOMAIN`] points, matching the workspace
//! process-count cap (`sba_net::MAX_N` — tied by a compile-time assert on
//! the `sba-net` side); interpolation scratch still lives on the stack
//! (a few KiB of fixed-size arrays).

use std::fmt;

use crate::{batch_invert, Field, InterpolateError, Poly};

/// Largest supported domain (process count). Matches `sba_net::MAX_N`,
/// the workspace-wide process cap (asserted at compile time in `sba-net`,
/// which depends on this crate).
pub const MAX_DOMAIN: usize = 256;

/// Words in the duplicate-index bitmask used by `check_indices`.
const SEEN_WORDS: usize = MAX_DOMAIN / 64;
const _: () = assert!(
    MAX_DOMAIN.is_multiple_of(64),
    "seen-bitmask words must be fully used"
);

/// A precomputed evaluation domain over the points `1..=n`.
///
/// Construct one per protocol instance and share it (e.g. behind an `Arc`)
/// with every state machine of that instance.
///
/// # Examples
///
/// ```
/// use sba_field::{Domain, Field, Gf61, Poly};
///
/// let domain: Domain<Gf61> = Domain::new(7);
/// let p = Poly::from_coeffs(vec![Gf61::from_u64(3), Gf61::from_u64(2)]);
/// let pts: Vec<(u64, Gf61)> = (1..=3).map(|i| (i, p.eval_at_index(i))).collect();
/// // Recover the secret p(0) without computing coefficients:
/// assert_eq!(domain.interpolate_at_zero(&pts).unwrap(), Gf61::from_u64(3));
/// // Or recover the full polynomial:
/// assert_eq!(domain.interpolate(&pts).unwrap(), p);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Domain<F> {
    /// `points[k]` is the field element `k + 1`.
    points: Vec<F>,
    /// `inv_small[d]` is the inverse of the field element `d`, `d ∈ 1..=n`
    /// (`inv_small[0]` is unused and set to zero).
    inv_small: Vec<F>,
}

impl<F: Field> Domain<F> {
    /// Builds the domain `{1, …, n}`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, exceeds [`MAX_DOMAIN`], or is not smaller
    /// than the field modulus (the points must be distinct and nonzero).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "domain needs at least one point");
        assert!(n <= MAX_DOMAIN, "domain capped at {MAX_DOMAIN} points");
        assert!((n as u64) < F::MODULUS, "domain points must be distinct");
        let points: Vec<F> = (1..=n as u64).map(F::from_u64).collect();
        let mut inv_small = points.clone();
        batch_invert(&mut inv_small);
        inv_small.insert(0, F::ZERO);
        Domain { points, inv_small }
    }

    /// Number of points in the domain.
    pub fn n(&self) -> usize {
        self.points.len()
    }

    /// The domain points `1..=n` as field elements.
    pub fn points(&self) -> &[F] {
        &self.points
    }

    /// The field element for 1-based index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside `1..=n`.
    #[inline]
    pub fn point(&self, i: u64) -> F {
        self.points[(i - 1) as usize]
    }

    /// Whether `i` is a valid 1-based domain index.
    #[inline]
    fn contains_index(&self, i: u64) -> bool {
        i >= 1 && i <= self.points.len() as u64
    }

    /// The inverse of `x_i − x_j` (both 1-based domain indices, `i ≠ j`),
    /// via the difference table — no inversion.
    #[inline]
    fn inv_diff(&self, i: u64, j: u64) -> F {
        if i > j {
            self.inv_small[(i - j) as usize]
        } else {
            -self.inv_small[(j - i) as usize]
        }
    }

    /// The field element `x_i − x_j` for 1-based indices (`i ≠ j`).
    #[inline]
    fn diff(&self, i: u64, j: u64) -> F {
        if i > j {
            self.points[(i - j - 1) as usize]
        } else {
            -self.points[(j - i - 1) as usize]
        }
    }

    /// Validates that every index is in `1..=n` and no index repeats.
    /// Returns the duplicate-free bitmask check result.
    fn check_indices(&self, pts: &[(u64, F)]) -> Result<(), InterpolateError> {
        let mut seen = [0u64; SEEN_WORDS];
        for &(i, _) in pts {
            if !self.contains_index(i) {
                return Err(InterpolateError::OutOfDomain);
            }
            let (w, bit) = (((i - 1) / 64) as usize, 1u64 << ((i - 1) % 64));
            if seen[w] & bit != 0 {
                return Err(InterpolateError::DuplicateX);
            }
            seen[w] |= bit;
        }
        Ok(())
    }

    /// Evaluates the interpolant through `pts` at zero — the "recover the
    /// secret" operation — without materialising coefficients.
    ///
    /// `O(k²)` multiplications, no inversions, no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`InterpolateError::Empty`] on an empty slice,
    /// [`InterpolateError::DuplicateX`] on a repeated index, and
    /// [`InterpolateError::OutOfDomain`] on an index outside `1..=n`.
    pub fn interpolate_at_zero(&self, pts: &[(u64, F)]) -> Result<F, InterpolateError> {
        if pts.is_empty() {
            return Err(InterpolateError::Empty);
        }
        self.check_indices(pts)?;
        // f(0) = Σ_m y_m Π_{j≠m} x_j / (x_j − x_m), all factors tabled.
        let mut acc = F::ZERO;
        for &(im, ym) in pts {
            let mut lm = ym;
            for &(ij, _) in pts {
                if ij != im {
                    lm = lm * self.point(ij) * self.inv_diff(ij, im);
                }
            }
            acc = acc + lm;
        }
        Ok(acc)
    }

    /// Checked secret recovery: succeeds only if one polynomial of degree
    /// at most `max_degree` passes through **all** points, returning its
    /// value at zero. The coefficient-free form of
    /// [`Domain::interpolate_checked`].
    ///
    /// The barycentric weights of the `k = max_degree + 1` base points
    /// are computed **once** (`O(k²)`) and shared by every surplus-point
    /// check and the final evaluation at zero (`O(k)` each) — total
    /// `O(k² + k·surplus)` where a per-point Lagrange evaluation of
    /// each surplus point would cost `O(k²·surplus)`. With full verification
    /// quorums (`surplus ≈ k`) that is the difference between quadratic
    /// and cubic, which is exactly what the `domain_batch_verify_t20`
    /// microbenchmark measures.
    pub fn interpolate_checked_at_zero(&self, pts: &[(u64, F)], max_degree: usize) -> Option<F> {
        if pts.is_empty() || self.check_indices(pts).is_err() {
            return None;
        }
        let take = (max_degree + 1).min(pts.len());
        let (base, tail) = pts.split_at(take);
        // Barycentric weights w_m = Π_{j≠m} (x_m − x_j)^{-1}: every
        // factor is a difference-table lookup, no inversions.
        let mut w = [F::ZERO; MAX_DOMAIN];
        for (a, &(im, _)) in base.iter().enumerate() {
            let mut wm = F::ONE;
            for &(ij, _) in base {
                if ij != im {
                    wm = wm * self.inv_diff(im, ij);
                }
            }
            w[a] = wm;
        }
        // Each surplus point must sit on the base interpolant:
        // f(x) = M(x) · Σ_m y_m w_m / (x − x_m) with M(x) = Π_j (x − x_j).
        // Tail indices are distinct from base indices (duplicate check
        // above), so every difference is nonzero and tabled.
        for &(i, y) in tail {
            let mut master = F::ONE;
            let mut sum = F::ZERO;
            for (a, &(im, ym)) in base.iter().enumerate() {
                master = master * self.diff(i, im);
                sum = sum + ym * w[a] * self.inv_diff(i, im);
            }
            if master * sum != y {
                return None;
            }
        }
        // f(0) with the same weights: M(0) = Π (−x_j), (0 − x_m)^{-1} =
        // −x_m^{-1} (the small-inverse table).
        let mut master0 = F::ONE;
        let mut sum0 = F::ZERO;
        for (a, &(im, ym)) in base.iter().enumerate() {
            master0 = master0 * (-self.point(im));
            sum0 = sum0 + ym * w[a] * (-self.inv_small[im as usize]);
        }
        Some(master0 * sum0)
    }

    /// Interpolates the unique polynomial of degree `< pts.len()` through
    /// the given `(index, value)` points, writing its coefficients
    /// (lowest degree first, untrimmed) into `coeffs`.
    ///
    /// `O(k²)` multiplications, no inversions; allocation-free once
    /// `coeffs` has capacity `k`.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Domain::interpolate_at_zero`].
    pub fn interpolate_into(
        &self,
        pts: &[(u64, F)],
        coeffs: &mut Vec<F>,
    ) -> Result<(), InterpolateError> {
        if pts.is_empty() {
            return Err(InterpolateError::Empty);
        }
        self.check_indices(pts)?;
        let k = pts.len();
        coeffs.clear();
        coeffs.resize(k, F::ZERO);
        if k == 1 {
            coeffs[0] = pts[0].1;
            return Ok(());
        }
        // Master polynomial M(x) = Π (x − x_m), lowest degree first.
        let mut master = [F::ZERO; MAX_DOMAIN + 1];
        master[0] = F::ONE;
        for (deg, &(i, _)) in pts.iter().enumerate() {
            let xi = self.point(i);
            master[deg + 1] = master[deg];
            for c in (1..=deg).rev() {
                master[c] = master[c - 1] - xi * master[c];
            }
            master[0] = -(xi * master[0]);
        }
        // Each basis numerator is M(x)/(x − x_m), recovered by synthetic
        // division and scaled by y_m · w_m with the tabled weight.
        for &(im, ym) in pts {
            let xm = self.point(im);
            let mut w = ym;
            for &(ij, _) in pts {
                if ij != im {
                    w = w * self.inv_diff(im, ij);
                }
            }
            let mut carry = master[k]; // leading coefficient, always 1
            for c in (0..k).rev() {
                coeffs[c] = coeffs[c] + w * carry;
                carry = master[c] + xm * carry;
            }
            debug_assert!(carry.is_zero(), "x_m must be a root of the master");
        }
        Ok(())
    }

    /// Interpolates the unique polynomial of degree `< pts.len()` through
    /// the given `(index, value)` points.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Domain::interpolate_at_zero`].
    pub fn interpolate(&self, pts: &[(u64, F)]) -> Result<Poly<F>, InterpolateError> {
        let mut coeffs = Vec::with_capacity(pts.len());
        self.interpolate_into(pts, &mut coeffs)?;
        Ok(Poly::from_coeffs(coeffs))
    }

    /// Checked interpolation: succeeds only if a polynomial of degree at
    /// most `max_degree` passes through **all** points. Returns `None`
    /// otherwise, and on an empty, repeated or out-of-domain index.
    ///
    /// This is the predicate the paper's reconstruct protocols apply to
    /// decide between outputting a value and outputting `⊥`.
    pub fn interpolate_checked(&self, pts: &[(u64, F)], max_degree: usize) -> Option<Poly<F>> {
        if pts.is_empty() || self.check_indices(pts).is_err() {
            return None;
        }
        let take = (max_degree + 1).min(pts.len());
        let (base, tail) = pts.split_at(take);
        let poly = self.interpolate(base).expect("base checked");
        for &(i, y) in tail {
            if poly.eval(self.point(i)) != y {
                return None;
            }
        }
        Some(poly)
    }
}

impl<F: Field> fmt::Debug for Domain<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Domain(1..={})", self.points.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gf101, Gf61};
    use rand::SeedableRng;

    fn poly_and_points(degree: usize, secret: u64, seed: u64) -> (Poly<Gf61>, Vec<(u64, Gf61)>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = Poly::random_with_constant(Gf61::from_u64(secret), degree, &mut rng);
        let pts = (1..=(degree as u64 + 1))
            .map(|i| (i, p.eval_at_index(i)))
            .collect();
        (p, pts)
    }

    #[test]
    fn interpolate_matches_naive() {
        let domain: Domain<Gf61> = Domain::new(12);
        for degree in 0..6 {
            let (p, pts) = poly_and_points(degree, 99, degree as u64 + 1);
            assert_eq!(domain.interpolate(&pts).unwrap(), p);
        }
    }

    #[test]
    fn interpolate_at_zero_recovers_secret() {
        let domain: Domain<Gf61> = Domain::new(9);
        let (_, pts) = poly_and_points(4, 1234, 7);
        assert_eq!(
            domain.interpolate_at_zero(&pts).unwrap(),
            Gf61::from_u64(1234)
        );
    }

    #[test]
    fn error_paths() {
        let domain: Domain<Gf61> = Domain::new(4);
        let y = Gf61::ONE;
        assert_eq!(
            domain.interpolate_at_zero(&[]).unwrap_err(),
            InterpolateError::Empty
        );
        assert_eq!(
            domain.interpolate_at_zero(&[(2, y), (2, y)]).unwrap_err(),
            InterpolateError::DuplicateX
        );
        assert_eq!(
            domain.interpolate_at_zero(&[(5, y)]).unwrap_err(),
            InterpolateError::OutOfDomain
        );
        assert_eq!(
            domain.interpolate_at_zero(&[(0, y)]).unwrap_err(),
            InterpolateError::OutOfDomain
        );
        assert!(domain
            .interpolate_checked_at_zero(&[(2, y), (2, y)], 1)
            .is_none());
        assert!(domain.interpolate_checked(&[(9, y)], 1).is_none());
    }

    #[test]
    fn checked_at_zero_detects_off_curve_point() {
        let domain: Domain<Gf61> = Domain::new(8);
        let (p, mut pts) = poly_and_points(2, 42, 5);
        pts.push((7, p.eval_at_index(7)));
        assert_eq!(
            domain.interpolate_checked_at_zero(&pts, 2),
            Some(Gf61::from_u64(42))
        );
        pts[3].1 += Gf61::ONE;
        assert_eq!(domain.interpolate_checked_at_zero(&pts, 2), None);
    }

    #[test]
    fn checked_matches_poly_checked() {
        let domain: Domain<Gf101> = Domain::new(10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let p = Poly::random_with_constant(Gf101::from_u64(7), 3, &mut rng);
        let pts: Vec<(u64, Gf101)> = (1..=7).map(|i| (i, p.eval_at_index(i))).collect();
        assert_eq!(domain.interpolate_checked(&pts, 3), Some(p));
        assert!(domain.interpolate_checked(&pts, 2).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn zero_sized_domain_rejected() {
        let _: Domain<Gf61> = Domain::new(0);
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn oversized_domain_rejected() {
        let _: Domain<Gf61> = Domain::new(MAX_DOMAIN + 1);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn domain_wider_than_field_rejected() {
        // Gf101 only has 100 nonzero points, below MAX_DOMAIN: the modulus
        // check must fire before any point collides with zero.
        let _: Domain<Gf101> = Domain::new(101);
    }

    #[test]
    fn max_domain_boundary_accepted() {
        let domain: Domain<Gf61> = Domain::new(MAX_DOMAIN);
        assert_eq!(domain.n(), MAX_DOMAIN);
        assert!(domain.contains_index(MAX_DOMAIN as u64));
        assert!(!domain.contains_index(MAX_DOMAIN as u64 + 1));
    }
}
