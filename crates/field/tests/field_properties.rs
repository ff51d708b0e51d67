//! Property suite for the field layer (integration-level, both fields):
//! `Poly` evaluation / `Domain` interpolation round-trips and row/column
//! projection consistency for `BiPoly`, over `Gf61` (production) and
//! `Gf101` (tiny, near-exhaustive index space).
//!
//! Case counts are bounded explicitly so the tier-1 run stays fast; crank
//! `cases` locally when hunting for counterexamples.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sba_field::{BiPoly, Domain, Field, Gf101, Gf61, Poly};

/// Shared body: a random degree-`d` polynomial is recovered exactly from
/// `d+1` evaluations at distinct indices, and its secret from the recovery.
fn poly_round_trips<F: Field>(seed: u64, degree: usize, secret: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let secret = F::from_u64(secret);
    let p = Poly::random_with_constant(secret, degree, &mut rng);
    let domain: Domain<F> = Domain::new(degree + 1);
    let pts: Vec<(u64, F)> = (1..=(degree as u64 + 1))
        .map(|i| (i, p.eval_at_index(i)))
        .collect();
    let q = domain.interpolate(&pts).map_err(|e| e.to_string())?;
    if q != p {
        return Err(format!(
            "interpolation changed the polynomial: {q:?} != {p:?}"
        ));
    }
    if q.eval(F::ZERO) != secret {
        return Err("recovered polynomial lost the secret".into());
    }
    // Checked interpolation agrees on honest points.
    if domain.interpolate_checked(&pts, degree).as_ref() != Some(&p) {
        return Err("interpolate_checked rejected honest points".into());
    }
    Ok(())
}

/// Shared body: every row/column projection of a random bivariate
/// polynomial is consistent with direct evaluation, rows and columns agree
/// pairwise (`g_l(k) = h_k(l) = f(k, l)`), and `t+1` rows reconstruct `f`.
fn bipoly_projections_consistent<F: Field>(seed: u64, t: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let secret = F::random(&mut rng);
    let f = BiPoly::random_with_secret(secret, t, &mut rng);
    if f.secret() != secret || f.eval(F::ZERO, F::ZERO) != secret {
        return Err("secret is not f(0,0)".into());
    }
    for k in 1..=(2 * t as u64 + 2) {
        let row = f.row(k);
        let col = f.col(k);
        if row.degree().unwrap_or(0) > t || col.degree().unwrap_or(0) > t {
            return Err(format!("projection degree exceeds t={t} at index {k}"));
        }
        for l in 1..=(2 * t as u64 + 2) {
            let direct = f.eval(F::from_u64(k), F::from_u64(l));
            if row.eval_at_index(l) != direct {
                return Err(format!("row({k}) at {l} disagrees with f({k},{l})"));
            }
            if f.col(l).eval_at_index(k) != direct {
                return Err(format!("col({l}) at {k} disagrees with f({k},{l})"));
            }
        }
    }
    let rows: Vec<(u64, Poly<F>)> = (1..=(t as u64 + 1)).map(|i| (i, f.row(i))).collect();
    match BiPoly::interpolate_rows(t, &rows) {
        Some(g) if g == f => Ok(()),
        Some(_) => Err("interpolate_rows produced a different polynomial".into()),
        None => Err("interpolate_rows rejected t+1 honest rows".into()),
    }
}

proptest! {
    // Every case runs O(t^2) interpolations; keep the counts bounded so
    // the whole file stays well under a minute in debug builds.
    #![proptest_config(ProptestConfig { cases: 48, max_shrink_iters: 0 })]

    /// Degree-d interpolation round-trip over the production field.
    #[test]
    fn poly_round_trip_gf61(seed in any::<u64>(), degree in 0usize..6, secret in any::<u64>()) {
        if let Err(e) = poly_round_trips::<Gf61>(seed, degree, secret) {
            prop_assert!(false, "Gf61: {}", e);
        }
    }

    /// Degree-d interpolation round-trip over the tiny field (where index
    /// collisions modulo 101 would be loudest if index handling broke).
    #[test]
    fn poly_round_trip_gf101(seed in any::<u64>(), degree in 0usize..6, secret in 0u64..101) {
        if let Err(e) = poly_round_trips::<Gf101>(seed, degree, secret) {
            prop_assert!(false, "Gf101: {}", e);
        }
    }

    /// Evaluation at an arbitrary point matches explicit coefficient
    /// summation (Horner correctness witness).
    #[test]
    fn horner_matches_naive_gf61(
        coeffs in proptest::collection::vec(any::<u64>(), 0..7),
        x in any::<u64>(),
    ) {
        let p = Poly::from_coeffs(coeffs.iter().copied().map(Gf61::from_u64).collect());
        let x = Gf61::from_u64(x);
        let mut naive = Gf61::ZERO;
        let mut xp = Gf61::ONE;
        for &c in coeffs.iter() {
            naive += Gf61::from_u64(c) * xp;
            xp *= x;
        }
        prop_assert_eq!(p.eval(x), naive);
    }

    /// Bivariate projection consistency over the production field.
    #[test]
    fn bipoly_projections_gf61(seed in any::<u64>(), t in 0usize..5) {
        if let Err(e) = bipoly_projections_consistent::<Gf61>(seed, t) {
            prop_assert!(false, "Gf61: {}", e);
        }
    }

    /// Bivariate projection consistency over the tiny field.
    #[test]
    fn bipoly_projections_gf101(seed in any::<u64>(), t in 0usize..4) {
        if let Err(e) = bipoly_projections_consistent::<Gf101>(seed, t) {
            prop_assert!(false, "Gf101: {}", e);
        }
    }

    /// Tampering one share of an otherwise-honest point set must be caught
    /// by checked interpolation whenever redundancy exists (> t+1 points).
    #[test]
    fn checked_interpolation_catches_one_lie(
        seed in any::<u64>(),
        degree in 0usize..4,
        victim in 0usize..6,
        delta in 1u64..1000,
    ) {
        let domain: Domain<Gf61> = Domain::new(8);
        let mut rng = StdRng::seed_from_u64(seed);
        let p = Poly::random_with_constant(Gf61::from_u64(99), degree, &mut rng);
        let extra = 2u64; // redundancy beyond t+1
        let mut pts: Vec<(u64, Gf61)> = (1..=(degree as u64 + 1 + extra))
            .map(|i| (i, p.eval_at_index(i)))
            .collect();
        let victim = victim % pts.len();
        pts[victim].1 += Gf61::from_u64(delta);
        prop_assert!(
            domain.interpolate_checked(&pts, degree).is_none(),
            "a corrupted share slipped through checked interpolation"
        );
        prop_assert!(
            domain.interpolate_checked_at_zero(&pts, degree).is_none(),
            "a corrupted share slipped through checked secret recovery"
        );
    }

    /// Wide-domain interpolation (PR 7 cap lift): over a 128-point domain
    /// — past the old 64-point tables — a degree-d polynomial is
    /// recovered exactly from d+1 evaluations at indices drawn anywhere
    /// in 1..=128, its secret matches `interpolate_at_zero`, and the
    /// checked form accepts the honest redundancy.
    #[test]
    fn domain_interpolation_at_n128(
        seed in any::<u64>(),
        degree in 0usize..6,
        offset in 0u64..100,
    ) {
        let domain: Domain<Gf61> = Domain::new(128);
        let mut rng = StdRng::seed_from_u64(seed);
        let secret = Gf61::random(&mut rng);
        let p = Poly::random_with_constant(secret, degree, &mut rng);
        // Spread the sample indices across both 64-index words: stride
        // from a high offset and wrap within 1..=128.
        let idx = |k: u64| (offset + k * 17) % 128 + 1;
        let pts: Vec<(u64, Gf61)> = (0..=degree as u64)
            .map(|k| (idx(k), p.eval_at_index(idx(k))))
            .collect();
        // Strided indices are distinct here (17 is coprime to 128 and
        // degree < 8 keeps the stride from wrapping onto itself).
        let q = domain.interpolate(&pts).expect("interpolation succeeds");
        prop_assert_eq!(&q, &p, "128-point domain changed the polynomial");
        prop_assert_eq!(
            domain.interpolate_at_zero(&pts).expect("at-zero succeeds"),
            secret
        );
        let redundant: Vec<(u64, Gf61)> = (1..=(degree as u64 + 3))
            .map(|i| (i + 64, p.eval_at_index(i + 64)))
            .collect();
        prop_assert_eq!(
            domain.interpolate_checked_at_zero(&redundant, degree),
            Some(secret),
            "checked interpolation rejected honest high-index shares"
        );
    }
}
