//! Scalar root finding.
//!
//! Every characteristic equation in the paper — the general systolic
//! equation `λ·√(p_{⌈s/2⌉}(λ))·√(p_{⌊s/2⌋}(λ)) = 1` (Corollary 4.4), the
//! full-duplex chain `λ + λ² + ⋯ + λ^{s−1} = 1` (Lemma 6.1), the
//! broadcasting characteristic `x^d = x^{d−1} + ⋯ + 1` — is a monotone
//! scalar equation on an interval, so plain bisection is bulletproof and
//! the one root finder every caller uses.

/// Errors from the root finders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RootError {
    /// `f(lo)` and `f(hi)` do not bracket a root (no sign change).
    NoBracket,
}

impl std::fmt::Display for RootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RootError::NoBracket => write!(f, "interval endpoints do not bracket a root"),
        }
    }
}

impl std::error::Error for RootError {}

/// Finds the root of an *increasing* function on `[lo, hi]` by bisection.
///
/// Requires `f(lo) ≤ 0 ≤ f(hi)`. Runs a fixed number of halvings (enough to
/// resolve `f64`), so it cannot fail once the bracket holds.
pub fn bisect_increasing(
    mut f: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
) -> Result<f64, RootError> {
    let (mut lo, mut hi) = (lo, hi);
    let flo = f(lo);
    let fhi = f(hi);
    if flo > 0.0 || fhi < 0.0 {
        return Err(RootError::NoBracket);
    }
    if flo == 0.0 {
        return Ok(lo);
    }
    if fhi == 0.0 {
        return Ok(hi);
    }
    // 200 halvings resolve any f64 interval to the last ulp.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break; // interval no longer representable
        }
        if f(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn bisect_sqrt2() {
        let r = bisect_increasing(|x| x * x - 2.0, 0.0, 2.0).unwrap();
        assert!(approx_eq(r, 2.0_f64.sqrt(), 1e-14));
    }

    #[test]
    fn bisect_endpoint_roots() {
        assert_eq!(bisect_increasing(|x| x, 0.0, 1.0).unwrap(), 0.0);
        assert_eq!(bisect_increasing(|x| x - 1.0, 0.0, 1.0).unwrap(), 1.0);
    }

    #[test]
    fn bisect_rejects_bad_bracket() {
        assert_eq!(
            bisect_increasing(|x| x + 10.0, 0.0, 1.0),
            Err(RootError::NoBracket)
        );
    }
}
