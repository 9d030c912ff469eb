//! DES56 workloads: the block streams driven through all three models.

use tinyrng::TinyRng;

use super::core::Des56Core;
use crate::cycle::Request;
use crate::Workload;

/// One elaboration request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesBlock {
    /// Input block.
    pub data: u64,
    /// True for decryption.
    pub decrypt: bool,
}

impl Request for DesBlock {
    type Core = Des56Core;
}

/// A stream of blocks, one every 20 clock cycles by default.
///
/// ```
/// use designs::des56::DesWorkload;
///
/// let w = DesWorkload::random(100, 42);
/// assert_eq!(w.requests.len(), 100);
/// assert_eq!(w.request_edge(0), 2);
/// assert_eq!(w.request_edge(1), 2 + w.gap_cycles);
/// ```
pub type DesWorkload = Workload<DesBlock>;

fn random_block(rng: &mut TinyRng) -> DesBlock {
    DesBlock {
        data: rng.next_u64(),
        decrypt: rng.flip(),
    }
}

/// The `i`-th block of [`DesWorkload::mixed`].
pub(crate) fn mixed_block(rng: &mut TinyRng, i: usize) -> DesBlock {
    let block = random_block(rng);
    if i.is_multiple_of(8) {
        DesBlock {
            data: 0,
            decrypt: false,
        }
    } else {
        block
    }
}

impl Workload<DesBlock> {
    /// `count` random blocks (mixed encrypt/decrypt) from a seeded RNG.
    ///
    /// # Panics
    ///
    /// Panics if `count` blocks cannot be built
    /// ([`BuildError::WorkloadTooLarge`](crate::BuildError::WorkloadTooLarge)).
    #[must_use]
    pub fn random(count: usize, seed: u64) -> DesWorkload {
        Workload::draw(count, seed, |rng, _| random_block(rng))
    }

    /// `count` random blocks where every 8th block is the all-zero encrypt
    /// request, keeping property `p1`'s antecedent (`ds && indata == 0`)
    /// non-vacuous — the mix used by the benchmark harness.
    ///
    /// # Panics
    ///
    /// As [`random`](Self::random).
    #[must_use]
    pub fn mixed(count: usize, seed: u64) -> DesWorkload {
        Workload::draw(count, seed, mixed_block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_and_times() {
        let w = DesWorkload::random(3, 7);
        assert_eq!(w.request_edge(2), 42);
        assert_eq!(w.request_time_ns(2), 420);
        assert_eq!(w.total_edges(), 42 + 21);
        assert_eq!(w.end_time_ns(), 630);
    }

    #[test]
    fn block_at_edge_matches_schedule() {
        let w = DesWorkload::new(vec![
            DesBlock {
                data: 1,
                decrypt: false,
            },
            DesBlock {
                data: 2,
                decrypt: true,
            },
        ]);
        assert_eq!(w.request_at_edge(1), None);
        assert_eq!(w.request_at_edge(2).unwrap().data, 1);
        assert_eq!(w.request_at_edge(3), None);
        assert_eq!(w.request_at_edge(22).unwrap().data, 2);
        assert_eq!(w.request_at_edge(42), None, "past the last block");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        assert_eq!(DesWorkload::random(10, 1), DesWorkload::random(10, 1));
        assert_ne!(DesWorkload::random(10, 1), DesWorkload::random(10, 2));
    }

    #[test]
    fn empty_workload_has_finite_end() {
        let w = DesWorkload::new(Vec::new());
        assert!(w.total_edges() > 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn request_edge_bounds_checked() {
        let w = DesWorkload::random(1, 0);
        let _ = w.request_edge(1);
    }
}
