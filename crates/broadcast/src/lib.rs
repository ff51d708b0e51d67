#![warn(missing_docs)]

//! Weak Reliable Broadcast and Bracha Reliable Broadcast (paper, Appendix A).
//!
//! Both protocols tolerate `t < n/3` Byzantine processes:
//!
//! - [`Wrb`]: Dolev's *crusader agreement*. If the dealer is nonfaulty all
//!   nonfaulty processes accept its value; any two nonfaulty processes
//!   that accept, accept the same value — but acceptance itself is not
//!   guaranteed for a faulty dealer (weak termination).
//! - [`Rb`]: Bracha's echo broadcast on top of WRB, adding the
//!   *termination* property: if any nonfaulty process accepts, all do.
//! - [`RbMux`]: many RB instances keyed by `(origin, tag)`. One instance
//!   per slot means a Byzantine sender cannot equivocate within a slot:
//!   whatever is accepted is accepted identically by all nonfaulty
//!   processes. The SVSS/coin/agreement layers lean on this.
//!
//! All machines are sans-io: they step on the paper's `(step, value)`
//! pairs ([`sba_net::RbStep`]) and emit `(recipient, message)` pairs,
//! each message built by the caller's `wrap` hook, plus delivery events.

mod mux;
mod rb;
mod wrb;

pub use mux::{MuxMsg, RbDelivery, RbMux};
pub use rb::Rb;
pub use wrb::Wrb;

/// Quorum sizes for `n` processes tolerating `t` faults.
///
/// Validates the paper's standing assumption `n > 3t`.
///
/// # Examples
///
/// ```
/// use sba_broadcast::Params;
///
/// let p = Params::new(4, 1).unwrap();
/// assert_eq!(p.quorum(), 3);       // n - t
/// assert_eq!(p.amplify(), 2);      // t + 1
/// assert!(Params::new(6, 2).is_none()); // 6 ≤ 3·2
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Params {
    // u32 internally: a copy of Params rides in every live RB instance,
    // and the slab of live instances is the hot working set.
    n: u32,
    t: u32,
}

impl Params {
    /// Creates parameters, or `None` unless `n > 3t` and `n ≥ 1`.
    pub fn new(n: usize, t: usize) -> Option<Self> {
        if n == 0 || n <= 3 * t || n > u32::MAX as usize {
            return None;
        }
        Some(Params {
            n: n as u32,
            t: t as u32,
        })
    }

    /// Total number of processes.
    pub fn n(self) -> usize {
        self.n as usize
    }

    /// Fault tolerance bound.
    pub fn t(self) -> usize {
        self.t as usize
    }

    /// The `n − t` quorum size.
    pub fn quorum(self) -> usize {
        (self.n - self.t) as usize
    }

    /// The `t + 1` amplification threshold (at least one nonfaulty).
    pub fn amplify(self) -> usize {
        (self.t + 1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_bounds() {
        assert!(Params::new(0, 0).is_none());
        assert!(Params::new(3, 1).is_none());
        assert_eq!(Params::new(1, 0).unwrap().quorum(), 1);
        let p = Params::new(7, 2).unwrap();
        assert_eq!(p.n(), 7);
        assert_eq!(p.t(), 2);
        assert_eq!(p.quorum(), 5);
        assert_eq!(p.amplify(), 3);
    }
}
