#![warn(missing_docs)]

//! Finite-field and polynomial arithmetic for the `sba` workspace.
//!
//! The SVSS protocols of Abraham–Dolev–Halpern (PODC 2008) operate over an
//! arbitrary finite field `F` with `|F| > n`. This crate provides:
//!
//! - the [`Field`] trait abstracting a prime field,
//! - [`Gf61`], the production field `GF(2^61 − 1)` with fast Mersenne
//!   reduction,
//! - [`Gf101`], a tiny field used by exhaustive property tests,
//! - [`Poly`], univariate degree-bounded polynomials (sampling with a
//!   fixed secret, evaluation),
//! - [`Domain`], a precomputed evaluation domain over the process indices
//!   `1..=n`: the one interpolator, inversion-free, plain and checked
//!   (the protocols' hot path — build one per instance and share it),
//! - [`BiPoly`], bivariate polynomials of degree `t` in each variable, with
//!   the row/column extraction (`g_j(y) = f(j, y)`, `h_j(x) = f(x, j)`)
//!   used by the SVSS share protocol.
//!
//! # Examples
//!
//! Share-style sampling: a random degree-`t` polynomial with a fixed
//! constant term, evaluated at process indices and recovered from them.
//!
//! ```
//! use rand::SeedableRng;
//! use sba_field::{Domain, Field, Gf61, Poly};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let secret = Gf61::from_u64(42);
//! let poly = Poly::random_with_constant(secret, 2, &mut rng);
//! let domain: Domain<Gf61> = Domain::new(4);
//! // Any 3 = t+1 evaluations reconstruct the secret...
//! let pts: Vec<(u64, Gf61)> = [1, 3, 4].map(|i| (i, poly.eval_at_index(i))).to_vec();
//! assert_eq!(domain.interpolate_at_zero(&pts), Ok(secret));
//! // ...and all 4 of them only if they lie on one degree-2 polynomial.
//! let mut all: Vec<(u64, Gf61)> = (1..=4).map(|i| (i, poly.eval_at_index(i))).collect();
//! assert_eq!(domain.interpolate_checked_at_zero(&all, 2), Some(secret));
//! all[1].1 += Gf61::ONE;
//! assert_eq!(domain.interpolate_checked_at_zero(&all, 2), None);
//! ```

mod bipoly;
mod domain;
mod gf101;
mod gf61;
mod poly;
mod traits;

pub use bipoly::BiPoly;
pub use domain::{Domain, MAX_DOMAIN};
pub use gf101::Gf101;
pub use gf61::Gf61;
pub use poly::{batch_invert, InterpolateError, Poly};
pub use traits::Field;
