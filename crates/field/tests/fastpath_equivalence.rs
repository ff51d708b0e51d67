//! Property tests pinning the fast interpolation paths to the naive
//! Lagrange reference: the domain-cached barycentric forms and the
//! allocation-free batch-eval APIs must agree **exactly** with the
//! straightforward implementations over both `Gf61` (production) and
//! `Gf101` (tiny, collision-rich), including the duplicate-x and
//! degree-overflow error paths.

use proptest::prelude::*;
use rand::SeedableRng;
use sba_field::{batch_invert, Domain, Field, Gf101, Gf61, InterpolateError, Poly};

/// The textbook per-basis Lagrange expansion at arbitrary distinct x's:
/// the reference implementation `Domain` is pinned to, and the only
/// generic-x interpolator in the workspace.
fn naive_interpolate<F: Field>(points: &[(F, F)]) -> Poly<F> {
    let mut result = vec![F::ZERO; points.len()];
    for (i, &(xi, yi)) in points.iter().enumerate() {
        let mut basis = vec![F::ONE];
        let mut denom = F::ONE;
        for (j, &(xj, _)) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            denom = denom * (xi - xj);
            basis.push(F::ZERO);
            for k in (1..basis.len()).rev() {
                let prev = basis[k - 1];
                basis[k] = prev - xj * basis[k];
            }
            basis[0] = -xj * basis[0];
        }
        let scale = yi * denom.inv();
        for (k, &b) in basis.iter().enumerate() {
            result[k] = result[k] + scale * b;
        }
    }
    Poly::from_coeffs(result)
}

/// The checked form over [`naive_interpolate`]: the polynomial through
/// the first `max_degree + 1` points, if every point lies on it and no x
/// repeats.
fn naive_interpolate_checked<F: Field>(points: &[(F, F)], max_degree: usize) -> Option<Poly<F>> {
    let repeats = points
        .iter()
        .enumerate()
        .any(|(a, &(xa, _))| points[a + 1..].iter().any(|&(xb, _)| xa == xb));
    if points.is_empty() || repeats {
        return None;
    }
    let take = (max_degree + 1).min(points.len());
    let poly = naive_interpolate(&points[..take]);
    points[take..]
        .iter()
        .all(|&(x, y)| poly.eval(x) == y)
        .then_some(poly)
}

/// Distinct 1-based indices drawn from `1..=max_index`.
fn indices(max_index: u64, count: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::sample::subsequence((1..=max_index).collect::<Vec<_>>(), count)
}

fn check_field<F: Field>(
    domain_n: usize,
    seed: u64,
    idx: &[u64],
    degree: usize,
) -> Result<(), String> {
    let domain: Domain<F> = Domain::new(domain_n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let secret = F::random(&mut rng);
    let poly = Poly::random_with_constant(secret, degree, &mut rng);
    let idx_pts: Vec<(u64, F)> = idx.iter().map(|&i| (i, poly.eval_at_index(i))).collect();
    let pts: Vec<(F, F)> = idx_pts.iter().map(|&(i, y)| (F::from_u64(i), y)).collect();

    // Coefficient recovery: Domain == naive Lagrange.
    let reference = naive_interpolate(&pts);
    let via_domain = domain.interpolate(&idx_pts).map_err(|e| e.to_string())?;
    if via_domain != reference {
        return Err("Domain::interpolate disagrees with naive Lagrange".into());
    }

    // Secret recovery without coefficients.
    if domain.interpolate_at_zero(&idx_pts).expect("distinct") != reference.eval(F::ZERO) {
        return Err("interpolate_at_zero disagrees with eval(0)".into());
    }

    // Batch eval agrees with pointwise Horner.
    let mut many = Vec::new();
    poly.eval_many(domain.points(), &mut many);
    for (k, &v) in many.iter().enumerate() {
        if v != poly.eval_at_index(k as u64 + 1) {
            return Err(format!("eval_many disagrees at index {}", k + 1));
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn gf61_fast_paths_agree(
        seed in any::<u64>(),
        degree in 0usize..6,
        extra in 0usize..3,
    ) {
        let count = degree + 1 + extra; // up to 9 points from 1..=12
        let idx: Vec<u64> = (1..=count as u64).collect();
        let r = check_field::<Gf61>(12, seed, &idx, degree);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn gf61_fast_paths_agree_on_scattered_indices(
        seed in any::<u64>(),
        idx in indices(16, 5),
    ) {
        let r = check_field::<Gf61>(16, seed, &idx, 4);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn gf101_fast_paths_agree(
        seed in any::<u64>(),
        idx in indices(10, 4),
    ) {
        let r = check_field::<Gf101>(10, seed, &idx, 3);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn checked_paths_agree_with_naive_membership(
        seed in any::<u64>(),
        degree in 0usize..4,
        corrupt in proptest::option::of(0usize..6),
    ) {
        let domain: Domain<Gf61> = Domain::new(8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let poly = Poly::random_with_constant(Gf61::random(&mut rng), degree, &mut rng);
        let mut idx_pts: Vec<(u64, Gf61)> =
            (1..=6u64).map(|i| (i, poly.eval_at_index(i))).collect();
        if let Some(c) = corrupt {
            idx_pts[c].1 += Gf61::ONE;
        }
        let pts: Vec<(Gf61, Gf61)> = idx_pts
            .iter()
            .map(|&(i, y)| (Gf61::from_u64(i), y))
            .collect();
        let naive = naive_interpolate_checked(&pts, degree);
        let fast_zero = domain.interpolate_checked_at_zero(&idx_pts, degree);
        let fast_poly = domain.interpolate_checked(&idx_pts, degree);
        prop_assert_eq!(naive.as_ref().map(|p| p.eval(Gf61::ZERO)), fast_zero);
        prop_assert_eq!(naive, fast_poly);
    }

    #[test]
    fn batch_invert_agrees_with_fermat(
        vals in proptest::collection::vec(1u64..sba_field::Gf61::MODULUS, 0..12),
    ) {
        let mut xs: Vec<Gf61> = vals.iter().map(|&v| Gf61::from_u64(v)).collect();
        let expect: Vec<Gf61> = xs.iter().map(|x| x.inv()).collect();
        batch_invert(&mut xs);
        prop_assert_eq!(xs, expect);
    }
}

// ---------------------------------------------------------------------
// Error paths: duplicate x's, out-of-domain indices, degree overflow.
// ---------------------------------------------------------------------

#[test]
fn duplicate_x_rejected_everywhere() {
    let domain: Domain<Gf61> = Domain::new(6);
    let y = Gf61::from_u64(5);
    let dup_idx = [(2u64, y), (3, y), (2, y)];
    assert_eq!(
        domain.interpolate(&dup_idx).unwrap_err(),
        InterpolateError::DuplicateX
    );
    assert_eq!(
        domain.interpolate_at_zero(&dup_idx).unwrap_err(),
        InterpolateError::DuplicateX
    );
    assert!(domain.interpolate_checked(&dup_idx, 2).is_none());
    assert!(domain.interpolate_checked_at_zero(&dup_idx, 2).is_none());
}

#[test]
fn empty_and_out_of_domain_rejected() {
    let domain: Domain<Gf101> = Domain::new(4);
    let y = Gf101::ONE;
    assert_eq!(
        domain.interpolate(&[]).unwrap_err(),
        InterpolateError::Empty
    );
    for bad in [0u64, 5, 99] {
        assert_eq!(
            domain.interpolate(&[(bad, y)]).unwrap_err(),
            InterpolateError::OutOfDomain,
            "index {bad}"
        );
    }
}

/// Degree overflow: points from a degree-(d+1) polynomial must be rejected
/// by every checked path with `max_degree = d`, exactly like the naive one.
#[test]
fn degree_overflow_rejected_consistently() {
    let domain: Domain<Gf61> = Domain::new(10);
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    for d in 0usize..4 {
        let poly = Poly::random_with_constant(Gf61::from_u64(3), d + 1, &mut rng);
        // A degree-(d+1) polynomial with a nonzero top coefficient.
        let idx_pts: Vec<(u64, Gf61)> = (1..=(d as u64 + 3))
            .map(|i| (i, poly.eval_at_index(i)))
            .collect();
        let pts: Vec<(Gf61, Gf61)> = idx_pts
            .iter()
            .map(|&(i, y)| (Gf61::from_u64(i), y))
            .collect();
        if poly.degree() != Some(d + 1) {
            continue; // random top coefficient happened to be zero
        }
        assert!(naive_interpolate_checked(&pts, d).is_none(), "naive d={d}");
        assert!(
            domain.interpolate_checked(&idx_pts, d).is_none(),
            "domain d={d}"
        );
        assert!(
            domain.interpolate_checked_at_zero(&idx_pts, d).is_none(),
            "domain-at-zero d={d}"
        );
        // With the true degree allowed, all accept and agree.
        assert_eq!(
            domain.interpolate_checked(&idx_pts, d + 1),
            naive_interpolate_checked(&pts, d + 1)
        );
    }
}
