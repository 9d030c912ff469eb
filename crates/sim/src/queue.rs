//! The kernel's event queue: a delta staging area ([`crate::staging`])
//! absorbing all same-timestamp work with O(1) pushes, backed by a bucketed
//! time wheel ([`crate::wheel`]) for timed events. FIFO order among
//! simultaneous events is per-bucket insertion order, so no global sequence
//! number exists on the hot path.
//!
//! The kernel drives it through an epoch drain:
//! [`next_time`](TwoTierQueue::next_time) →
//! [`begin_timestamp`](TwoTierQueue::begin_timestamp) → repeated
//! [`next_round`](TwoTierQueue::next_round). A randomized lockstep
//! differential test (`tests/sched_differential.rs`) pins it to pop the
//! exact sequence of a global `(time, delta, seq)` binary heap, the
//! executable specification kept in that test.

use crate::kernel::ComponentId;
use crate::staging::{DeltaStaging, Staged};
use crate::time::SimTime;
use crate::wheel::TimeWheel;

/// Pending events of a simulation: staging for the active timestamp, wheel
/// (plus overflow heap) for everything timed.
#[derive(Debug, Default)]
pub(crate) struct TwoTierQueue {
    staging: DeltaStaging,
    wheel: TimeWheel,
}

impl TwoTierQueue {
    /// Schedules delivery of `kind` to `target` at `(time, delta)`.
    ///
    /// Pushes at the open timestamp stage in O(1); everything else goes to
    /// the wheel (or its overflow heap).
    pub fn push(&mut self, time: SimTime, delta: u32, target: ComponentId, kind: u64) {
        if self.staging.is_open_at(time) {
            self.staging.push(delta, target, kind);
        } else {
            self.wheel.push(time, delta, target, kind);
        }
    }

    /// Schedules a wake at `(time, delta)` where `time` is known to be the
    /// open timestamp — the zero-delay/commit-wake fast path, which lands
    /// in delta staging without consulting the routing check.
    pub fn push_staged(&mut self, time: SimTime, delta: u32, target: ComponentId, kind: u64) {
        debug_assert!(
            self.staging.is_open_at(time),
            "push_staged at a closed time"
        );
        self.staging.push(delta, target, kind);
    }

    /// The earliest pending timestamp.
    pub fn next_time(&self) -> Option<SimTime> {
        // An open, non-empty staging area holds the earliest work (pushes
        // at the active timestamp route there; everything later sits in
        // the wheel). The kernel itself only calls next_time with staging
        // drained — the staged arm serves the single-pop test harness.
        let staged = (self.staging.len() > 0)
            .then(|| self.staging.open_time())
            .flatten();
        match (staged, self.wheel.next_time()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Opens timestamp `t` (which must be [`next_time`](Self::next_time)):
    /// resets the delta staging and drains the wheel bucket for `t` into
    /// it.
    pub fn begin_timestamp(&mut self, t: SimTime) {
        self.staging.open(t);
        self.wheel.open_into(t, &mut self.staging);
    }

    /// Drains the next delta round of the open timestamp into `out` (round
    /// buffers are recycled through the swap), returning its delta. `None`
    /// closes the timestamp.
    pub fn next_round(&mut self, out: &mut Vec<Staged>) -> Option<u32> {
        self.staging.next_round(out)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn len(&self) -> usize {
        self.staging.len() + self.wheel.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(n: usize) -> ComponentId {
        ComponentId(n)
    }

    /// Pops one full epoch-drain pass and flattens it to
    /// `(time, delta, target, kind)` tuples.
    fn drain_all(q: &mut TwoTierQueue) -> Vec<(u64, u32, usize, u64)> {
        let mut out = Vec::new();
        let mut round = Vec::new();
        while let Some(t) = q.next_time() {
            q.begin_timestamp(t);
            while let Some(delta) = q.next_round(&mut round) {
                out.extend(
                    round
                        .drain(..)
                        .map(|e| (t.as_ns(), delta, e.target.index(), e.kind)),
                );
            }
        }
        out
    }

    #[test]
    fn orders_by_time_then_delta_then_fifo() {
        let mut q = TwoTierQueue::default();
        q.push(SimTime::from_ns(20), 0, cid(0), 0);
        q.push(SimTime::from_ns(10), 1, cid(1), 0);
        q.push(SimTime::from_ns(10), 0, cid(2), 0);
        q.push(SimTime::from_ns(10), 0, cid(3), 0);
        assert_eq!(q.len(), 4);
        assert_eq!(
            drain_all(&mut q),
            vec![(10, 0, 2, 0), (10, 0, 3, 0), (10, 1, 1, 0), (20, 0, 0, 0)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn mid_round_pushes_stage_at_the_next_delta() {
        let mut q = TwoTierQueue::default();
        q.push(SimTime::from_ns(5), 0, cid(0), 7);
        let t = q.next_time().unwrap();
        q.begin_timestamp(t);
        let mut round = Vec::new();
        assert_eq!(q.next_round(&mut round), Some(0));
        // "While delivering" round 0: a zero-delay wake and a timed event.
        q.push(t, 1, cid(1), 8);
        q.push(SimTime::from_ns(6), 0, cid(2), 9);
        round.clear();
        assert_eq!(q.next_round(&mut round), Some(1));
        assert_eq!(round[0].kind, 8);
        round.clear();
        assert_eq!(q.next_round(&mut round), None);
        assert_eq!(q.next_time(), Some(SimTime::from_ns(6)));
    }
}
