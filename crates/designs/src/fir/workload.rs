//! FIR workloads: sample streams shared by all three models.

use tinyrng::TinyRng;

use super::core::FirCore;
use crate::cycle::Request;
use crate::Workload;

impl Request for u64 {
    type Core = FirCore;
}

/// A stream of 16-bit samples, one every 8 clock cycles by default.
pub type FirWorkload = Workload<u64>;

/// The `i`-th sample of [`FirWorkload::random`].
pub(crate) fn random_sample(rng: &mut TinyRng, _i: usize) -> u64 {
    u64::from(rng.next_u16())
}

impl Workload<u64> {
    /// `count` random 16-bit samples from a seeded RNG.
    ///
    /// # Panics
    ///
    /// Panics if `count` samples cannot be built
    /// ([`BuildError::WorkloadTooLarge`](crate::BuildError::WorkloadTooLarge)).
    #[must_use]
    pub fn random(count: usize, seed: u64) -> FirWorkload {
        Workload::draw(count, seed, random_sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_arithmetic() {
        let w = FirWorkload::random(3, 1);
        assert_eq!(w.request_edge(0), 2);
        assert_eq!(w.request_edge(2), 18);
        assert_eq!(w.request_time_ns(2), 180);
        assert_eq!(w.total_edges(), 27);
        assert_eq!(w.request_at_edge(10), Some(w.requests[1]));
        assert_eq!(w.request_at_edge(11), None);
    }

    #[test]
    fn samples_fit_16_bits() {
        let w = FirWorkload::random(50, 2);
        assert!(w.requests.iter().all(|&s| s <= 0xFFFF));
    }
}
