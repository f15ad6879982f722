//! A tiny, deterministic xorshift64* generator.
//!
//! Power iteration needs a "generic" starting vector; any vector with a
//! nonzero component along the dominant eigenvector works, and for the
//! nonnegative matrices this workspace cares about a strictly positive
//! vector is guaranteed generic. We still perturb the all-ones vector with a
//! cheap deterministic stream so that symmetric structures cannot place the
//! start exactly orthogonal to the dominant eigenspace of a *signed* test
//! matrix. Using our own generator keeps `rand` out of the hot path and
//! makes every numeric result byte-reproducible.

/// Deterministic xorshift64* stream.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a stream from a nonzero seed (a zero seed is mapped to a
    /// fixed odd constant, as xorshift has a zero fixpoint).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = XorShift64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = XorShift64::new(0);
        // Must not get stuck at zero.
        assert_ne!(r.next_u64(), 0);
        assert_ne!(r.next_u64(), r.next_u64());
    }

    #[test]
    fn rough_uniformity() {
        let mut r = XorShift64::new(1234);
        let mut buckets = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            buckets[(r.next_f64() * 10.0) as usize] += 1;
        }
        for &b in &buckets {
            // Each bucket should be within 10% of n/10.
            assert!((b as f64 - n as f64 / 10.0).abs() < n as f64 / 100.0);
        }
    }
}
