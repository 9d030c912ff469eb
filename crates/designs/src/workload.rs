//! The request schedule shared by every IP: a stream of requests, one
//! strobe every `gap_cycles` clock cycles, driven through all three models.

use tinyrng::TinyRng;

use crate::cycle::{CycleCore, Request};
use crate::{BuildError, CLOCK_PERIOD_NS};

/// A stream of requests, issued every `gap_cycles` clock cycles.
///
/// The same workload drives the RTL testbench, the TLM-CA initiator and
/// the TLM-AT initiator, which is what makes the three simulations
/// comparable (and the models timing-equivalent on the shared stimulus).
/// Each IP names its own instance ([`DesWorkload`](crate::des56::DesWorkload),
/// [`ConvWorkload`](crate::colorconv::ConvWorkload),
/// [`FirWorkload`](crate::fir::FirWorkload)) and its seeded constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload<R> {
    /// The requests, in issue order.
    pub requests: Vec<R>,
    /// Clock cycles between consecutive strobes (defaults to the IP's gap,
    /// which exceeds its latency).
    pub gap_cycles: u64,
    /// Rising-edge index (1-based) of the first strobe.
    pub first_edge: u64,
}

/// Rising-edge index of the first strobe in a new workload.
const FIRST_EDGE: u64 = 2;

/// Rising edges after the last result that let its strobe retire.
const MARGIN_EDGES: u64 = 4;

impl<R: Request> Workload<R> {
    /// A workload from explicit requests with the IP's default spacing,
    /// the first strobe at edge 2.
    #[must_use]
    pub fn new(requests: Vec<R>) -> Workload<R> {
        Workload {
            requests,
            gap_cycles: R::Core::DEFAULT_GAP,
            first_edge: FIRST_EDGE,
        }
    }

    /// `count` requests, the `i`-th drawn by `draw(rng, i)` from one RNG
    /// seeded with `seed`, at the default spacing.
    ///
    /// # Errors
    ///
    /// [`BuildError::WorkloadTooLarge`] when the schedule's end time
    /// overflows 64-bit nanoseconds or the request vector cannot be
    /// allocated.
    pub(crate) fn try_draw(
        count: usize,
        seed: u64,
        mut draw: impl FnMut(&mut TinyRng, usize) -> R,
    ) -> Result<Workload<R>, BuildError> {
        let too_large = BuildError::WorkloadTooLarge {
            design: R::Core::DESIGN,
            requests: count,
        };
        end_edge::<R>(FIRST_EDGE, R::Core::DEFAULT_GAP, count)
            .and_then(|edges| edges.checked_mul(CLOCK_PERIOD_NS))
            .ok_or_else(|| too_large.clone())?;
        let mut requests = Vec::new();
        requests.try_reserve_exact(count).map_err(|_| too_large)?;
        let mut rng = TinyRng::new(seed);
        requests.extend((0..count).map(|i| draw(&mut rng, i)));
        Ok(Workload::new(requests))
    }

    /// [`try_draw`](Self::try_draw) for the public seeded constructors.
    ///
    /// # Panics
    ///
    /// Panics with the [`BuildError`] when `count` requests cannot be built.
    pub(crate) fn draw(
        count: usize,
        seed: u64,
        draw: impl FnMut(&mut TinyRng, usize) -> R,
    ) -> Workload<R> {
        Workload::try_draw(count, seed, draw).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The rising-edge index at which request `i` is strobed.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn request_edge(&self, i: usize) -> u64 {
        assert!(i < self.requests.len(), "request index out of range");
        self.first_edge + self.gap_cycles * i as u64
    }

    /// The simulation time of request `i`'s strobe sample.
    #[must_use]
    pub fn request_time_ns(&self, i: usize) -> u64 {
        self.request_edge(i) * CLOCK_PERIOD_NS
    }

    /// The request strobed at rising edge `edge`, if any.
    #[must_use]
    pub fn request_at_edge(&self, edge: u64) -> Option<R> {
        let offset = edge.checked_sub(self.first_edge)?;
        if !offset.is_multiple_of(self.gap_cycles) {
            return None;
        }
        self.requests
            .get((offset / self.gap_cycles) as usize)
            .copied()
    }

    /// Rising edges needed to complete every request, with a margin for
    /// the last result strobe to retire.
    ///
    /// # Panics
    ///
    /// Panics if the count overflows 64 bits (only reachable through
    /// hand-set `gap_cycles`/`first_edge`).
    #[must_use]
    pub fn total_edges(&self) -> u64 {
        end_edge::<R>(self.first_edge, self.gap_cycles, self.requests.len())
            .expect("the schedule ends within 64-bit edges")
    }

    /// Simulation end time covering [`total_edges`](Self::total_edges).
    #[must_use]
    pub fn end_time_ns(&self) -> u64 {
        self.total_edges() * CLOCK_PERIOD_NS
    }
}

/// [`Workload::total_edges`] of `count` requests from `first_edge` every
/// `gap` cycles, or `None` on overflow.
fn end_edge<R: Request>(first_edge: u64, gap: u64, count: usize) -> Option<u64> {
    let span = match count.checked_sub(1) {
        None => 0,
        Some(last) => gap
            .checked_mul(last as u64)?
            .checked_add(R::Core::LATENCY)?,
    };
    first_edge.checked_add(span)?.checked_add(MARGIN_EDGES)
}

#[cfg(test)]
mod tests {
    use crate::des56::{DesBlock, DesWorkload};
    use crate::fir::FirWorkload;
    use crate::{BuildError, DesignKind};

    #[test]
    fn unbuildable_sizes_are_structured_errors() {
        // The end time overflows before anything is allocated.
        let err = FirWorkload::try_draw(usize::MAX, 0, |_, _| 0).unwrap_err();
        assert_eq!(
            err,
            BuildError::WorkloadTooLarge {
                design: DesignKind::Fir,
                requests: usize::MAX,
            }
        );
        // The end time fits, 1 EiB of blocks does not.
        let count = 1 << 56;
        let err = DesWorkload::try_draw(count, 0, |_, _| DesBlock {
            data: 0,
            decrypt: false,
        })
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("a DES56 workload of {count} requests is too large to build")
        );
    }
}
