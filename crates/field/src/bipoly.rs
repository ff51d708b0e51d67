//! Bivariate polynomials of degree `t` in each variable.
//!
//! The SVSS share protocol (§4 of the paper) deals a random bivariate
//! `f(x, y)` with `f(0,0) = s` and hands process `j` the row `g_j(y) =
//! f(j, y)` and the column `h_j(x) = f(x, j)`. Reconstruction stitches rows
//! and columns back together and checks the pairwise consistency
//! `h_k(l) = g_l(k)`.

use rand::Rng;

use crate::{Field, Poly};

/// A bivariate polynomial `f(x, y) = Σ_{i,j ≤ t} a_{ij} x^i y^j` of degree
/// at most `t` in each variable.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use sba_field::{BiPoly, Field, Gf61};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let f = BiPoly::random_with_secret(Gf61::from_u64(5), 2, &mut rng);
/// // Row j evaluated at l equals column l evaluated at j: f(j, l).
/// let (j, l) = (3u64, 7u64);
/// assert_eq!(f.row(j).eval_at_index(l), f.col(l).eval_at_index(j));
/// assert_eq!(f.eval(Gf61::ZERO, Gf61::ZERO), Gf61::from_u64(5));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BiPoly<F: Field> {
    /// `coeffs[i][j]` is the coefficient of `x^i y^j`; both dims are `t+1`.
    coeffs: Vec<Vec<F>>,
    degree: usize,
}

impl<F: Field> BiPoly<F> {
    /// Samples a uniformly random bivariate polynomial of degree `t` in each
    /// variable with `f(0,0) = secret` (all other `(t+1)² − 1` coefficients
    /// uniform), exactly as SVSS share step 1 prescribes.
    pub fn random_with_secret<R: Rng + ?Sized>(secret: F, t: usize, rng: &mut R) -> Self {
        let mut coeffs = vec![vec![F::ZERO; t + 1]; t + 1];
        for (i, row) in coeffs.iter_mut().enumerate() {
            for (j, c) in row.iter_mut().enumerate() {
                *c = if i == 0 && j == 0 {
                    secret
                } else {
                    F::random(rng)
                };
            }
        }
        BiPoly { coeffs, degree: t }
    }

    /// Evaluates `f(x, y)`.
    pub fn eval(&self, x: F, y: F) -> F {
        // Horner in x over inner Horner in y.
        let mut acc = F::ZERO;
        for row in self.coeffs.iter().rev() {
            let mut inner = F::ZERO;
            for &c in row.iter().rev() {
                inner = inner * y + c;
            }
            acc = acc * x + inner;
        }
        acc
    }

    /// The row polynomial `g_j(y) = f(j, y)` for process index `j`.
    pub fn row(&self, j: u64) -> Poly<F> {
        let mut out = Vec::with_capacity(self.degree + 1);
        self.row_into(j, &mut out);
        Poly::from_coeffs(out)
    }

    /// Writes the coefficients of `g_j(y) = f(j, y)` into `out` (cleared
    /// first, lowest degree first, untrimmed). Allocation-free once `out`
    /// has capacity `t + 1`.
    pub fn row_into(&self, j: u64, out: &mut Vec<F>) {
        let x = F::from_u64(j);
        // Collapse the x dimension: coefficient of y^k is Σ_i a_{ik} x^i.
        out.clear();
        out.resize(self.degree + 1, F::ZERO);
        let mut xp = F::ONE;
        for row in &self.coeffs {
            for (k, &c) in row.iter().enumerate() {
                out[k] = out[k] + c * xp;
            }
            xp = xp * x;
        }
    }

    /// The column polynomial `h_j(x) = f(x, j)` for process index `j`.
    pub fn col(&self, j: u64) -> Poly<F> {
        let mut out = Vec::with_capacity(self.degree + 1);
        self.col_into(j, &mut out);
        Poly::from_coeffs(out)
    }

    /// Writes the coefficients of `h_j(x) = f(x, j)` into `out` (cleared
    /// first, lowest degree first, untrimmed). Allocation-free once `out`
    /// has capacity `t + 1`.
    pub fn col_into(&self, j: u64, out: &mut Vec<F>) {
        let y = F::from_u64(j);
        out.clear();
        out.resize(self.degree + 1, F::ZERO);
        for (i, row) in self.coeffs.iter().enumerate() {
            let mut yp = F::ONE;
            for &c in row {
                out[i] = out[i] + c * yp;
                yp = yp * y;
            }
        }
    }

    /// The shared secret `f(0, 0)`.
    pub fn secret(&self) -> F {
        self.coeffs[0][0]
    }

    /// Reconstructs the unique degree-`(t, t)` bivariate polynomial from
    /// `t+1` row polynomials `(index, g_index)`, then returns it.
    ///
    /// Returns `None` if the rows are inconsistent with any degree-`(t,t)`
    /// bivariate polynomial (wrong degrees or duplicate indices).
    ///
    /// This implements SVSS `R` step 3's interpolation: given rows for
    /// `t+1` distinct indices, `f̄(x, y) = Σ_m L_m(x) · g_{k_m}(y)` where
    /// `L_m` are the Lagrange basis polynomials over the indices.
    pub fn interpolate_rows(t: usize, rows: &[(u64, Poly<F>)]) -> Option<Self> {
        if rows.len() != t + 1 {
            return None;
        }
        for (a, (ia, ga)) in rows.iter().enumerate() {
            if ga.degree().unwrap_or(0) > t {
                return None;
            }
            for (ib, _) in &rows[a + 1..] {
                if ia == ib {
                    return None;
                }
            }
        }
        let xs: Vec<F> = rows.iter().map(|&(i, _)| F::from_u64(i)).collect();
        // Barycentric weights over the row indices, with one batched
        // inversion instead of one Fermat inversion per row.
        let mut weights: Vec<F> = Vec::with_capacity(rows.len());
        for (m, &xm) in xs.iter().enumerate() {
            let mut d = F::ONE;
            for (j, &xj) in xs.iter().enumerate() {
                if j != m {
                    d = d * (xm - xj);
                }
            }
            weights.push(d);
        }
        crate::batch_invert(&mut weights);
        let mut coeffs = vec![vec![F::ZERO; t + 1]; t + 1];
        let mut basis: Vec<F> = Vec::with_capacity(t + 1);
        for (m, (_, g)) in rows.iter().enumerate() {
            // L_m(x) = w_m · prod_{j != m} (x - x_j) as coefficients.
            basis.clear();
            basis.push(F::ONE);
            for (j, &xj) in xs.iter().enumerate() {
                if j == m {
                    continue;
                }
                basis.push(F::ZERO);
                for k in (1..basis.len()).rev() {
                    let prev = basis[k - 1];
                    basis[k] = prev - xj * basis[k];
                }
                basis[0] = -xj * basis[0];
            }
            for (i, &bi) in basis.iter().enumerate() {
                let w = bi * weights[m];
                for (k, ck) in coeffs[i].iter_mut().enumerate() {
                    let gk = g.coeffs().get(k).copied().unwrap_or(F::ZERO);
                    *ck = *ck + w * gk;
                }
            }
        }
        Some(BiPoly { coeffs, degree: t })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gf101, Gf61};
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn row_col_cross_consistency() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let f = BiPoly::random_with_secret(Gf61::from_u64(123), 3, &mut rng);
        for j in 1..=8u64 {
            for l in 1..=8u64 {
                let direct = f.eval(Gf61::from_u64(j), Gf61::from_u64(l));
                assert_eq!(f.row(j).eval_at_index(l), direct);
                assert_eq!(f.col(l).eval_at_index(j), direct);
                assert_eq!(f.row(j).eval_at_index(l), f.col(l).eval_at_index(j));
            }
        }
    }

    #[test]
    fn secret_is_constant_term_of_diagonal() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let f = BiPoly::random_with_secret(Gf61::from_u64(99), 2, &mut rng);
        assert_eq!(f.secret(), Gf61::from_u64(99));
        assert_eq!(f.eval(Gf61::ZERO, Gf61::ZERO), Gf61::from_u64(99));
        // g_0(0) = f(0,0); row(0) is the polynomial f(0, y).
        assert_eq!(f.row(0).eval(Gf61::ZERO), Gf61::from_u64(99));
    }

    #[test]
    fn interpolate_rows_round_trip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let t = 2usize;
        let f = BiPoly::random_with_secret(Gf61::from_u64(5), t, &mut rng);
        let rows: Vec<(u64, Poly<Gf61>)> = [2u64, 5, 9].iter().map(|&i| (i, f.row(i))).collect();
        let g = BiPoly::interpolate_rows(t, &rows).unwrap();
        assert_eq!(g, f);
    }

    #[test]
    fn interpolate_rows_wrong_count_or_dup_fails() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let t = 2usize;
        let f = BiPoly::random_with_secret(Gf61::from_u64(5), t, &mut rng);
        let rows: Vec<(u64, Poly<Gf61>)> = [2u64, 5].iter().map(|&i| (i, f.row(i))).collect();
        assert!(BiPoly::interpolate_rows(t, &rows).is_none());
        let dup: Vec<(u64, Poly<Gf61>)> = [2u64, 2, 5].iter().map(|&i| (i, f.row(i))).collect();
        assert!(BiPoly::interpolate_rows(t, &dup).is_none());
    }

    proptest! {
        #[test]
        fn random_bipoly_rows_determine_it(seed in any::<u64>(), t in 1usize..4) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let f = BiPoly::random_with_secret(Gf101::from_u64(17), t, &mut rng);
            let rows: Vec<(u64, Poly<Gf101>)> =
                (1..=(t as u64 + 1)).map(|i| (i, f.row(i))).collect();
            let g = BiPoly::interpolate_rows(t, &rows).unwrap();
            prop_assert_eq!(g.secret(), Gf101::from_u64(17));
            for x in 0..6u64 {
                for y in 0..6u64 {
                    let (x, y) = (Gf101::from_u64(x), Gf101::from_u64(y));
                    prop_assert_eq!(g.eval(x, y), f.eval(x, y));
                }
            }
        }

        #[test]
        fn rows_and_cols_have_degree_at_most_t(seed in any::<u64>(), t in 0usize..4) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let f = BiPoly::random_with_secret(Gf61::from_u64(3), t, &mut rng);
            for j in 1..=5u64 {
                prop_assert!(f.row(j).degree().unwrap_or(0) <= t);
                prop_assert!(f.col(j).degree().unwrap_or(0) <= t);
            }
        }
    }
}
