//! The kernel's event queue: a delta staging area ([`crate::staging`])
//! absorbing all same-timestamp work with O(1) pushes, backed by one binary
//! heap ordered by `(time, delta, seq)` for timed events.
//!
//! Every simulation the design layer builds has one clock or one bus, so
//! the heap rarely holds more than a handful of events: a clock keeps one
//! self-schedule pending, a TLM-AT model its request schedule. Staging
//! takes everything at the open timestamp, which is the bulk of the
//! traffic; a push there needs no sequence number, since FIFO order among
//! simultaneous events is bucket insertion order.
//!
//! The kernel drives it through an epoch drain:
//! [`next_time`](TwoTierQueue::next_time) →
//! [`begin_timestamp`](TwoTierQueue::begin_timestamp) → repeated
//! [`next_round`](TwoTierQueue::next_round). A randomized lockstep
//! differential test (`tests/sched_differential.rs`) pins it to pop the
//! exact sequence of a global `(time, delta, seq)` binary heap, the
//! executable specification kept in that test.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::kernel::ComponentId;
use crate::staging::{DeltaStaging, Staged};
use crate::time::SimTime;

/// A timed event, ordered by `(time, delta, seq)` so same-key events drain
/// in push order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Timed {
    time: SimTime,
    delta: u32,
    seq: u64,
    target: ComponentId,
    kind: u64,
}

/// Pending events of a simulation: staging for the active timestamp, a
/// heap for everything timed.
#[derive(Debug, Default)]
pub(crate) struct TwoTierQueue {
    staging: DeltaStaging,
    timed: BinaryHeap<Reverse<Timed>>,
    /// FIFO tie-break for timed events.
    seq: u64,
}

impl TwoTierQueue {
    /// Schedules delivery of `kind` to `target` at `(time, delta)`.
    ///
    /// Pushes at the open timestamp stage in O(1); everything else goes to
    /// the heap.
    pub fn push(&mut self, time: SimTime, delta: u32, target: ComponentId, kind: u64) {
        if self.staging.is_open_at(time) {
            self.staging.push(delta, target, kind);
        } else {
            self.timed.push(Reverse(Timed {
                time,
                delta,
                seq: self.seq,
                target,
                kind,
            }));
            self.seq += 1;
        }
    }

    /// Schedules a wake at `(time, delta)` where `time` is known to be the
    /// open timestamp — the zero-delay fast path, which lands in delta
    /// staging without consulting the routing check.
    pub fn push_staged(&mut self, time: SimTime, delta: u32, target: ComponentId, kind: u64) {
        debug_assert!(
            self.staging.is_open_at(time),
            "push_staged at a closed time"
        );
        self.staging.push(delta, target, kind);
    }

    /// Stages every entry of `wakes` at `(time, delta)`, where `time` is
    /// the open timestamp, in one slice copy — the commit-wake and
    /// [`notify_all`](crate::SimCtx::notify_all) fast path.
    pub fn push_all_staged(&mut self, time: SimTime, delta: u32, wakes: &[Staged]) {
        debug_assert!(
            self.staging.is_open_at(time),
            "push_all_staged at a closed time"
        );
        self.staging.push_all(delta, wakes);
    }

    /// The earliest pending timestamp.
    pub fn next_time(&self) -> Option<SimTime> {
        // An open, non-empty staging area holds the earliest work (pushes
        // at the active timestamp route there; everything later sits in
        // the heap). The kernel itself only calls next_time with staging
        // drained — the staged arm serves the single-pop test harness.
        let staged = (self.staging.len() > 0)
            .then(|| self.staging.open_time())
            .flatten();
        let timed = self.timed.peek().map(|Reverse(e)| e.time);
        match (staged, timed) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Opens timestamp `t` (which must be [`next_time`](Self::next_time)):
    /// resets the delta staging and moves every timed event at `t` into
    /// it. The heap yields them in `(delta, seq)` order, so each round's
    /// buffer comes out in push order.
    pub fn begin_timestamp(&mut self, t: SimTime) {
        self.staging.open(t);
        while let Some(Reverse(e)) = self.timed.peek() {
            if e.time != t {
                break;
            }
            let Reverse(e) = self.timed.pop().expect("peeked entry");
            self.staging.push(e.delta, e.target, e.kind);
        }
    }

    /// Drains the next delta round of the open timestamp into `out` (round
    /// buffers are recycled through the swap), returning its delta. `None`
    /// closes the timestamp.
    pub fn next_round(&mut self, out: &mut Vec<Staged>) -> Option<u32> {
        self.staging.next_round(out)
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn len(&self) -> usize {
        self.staging.len() + self.timed.len()
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
        while let Some(t) = q.next_time() {
            out.extend(drain_at(q, t));
        }
        out
    }

    /// Opens timestamp `t` and drains its rounds.
    fn drain_at(q: &mut TwoTierQueue, t: SimTime) -> Vec<(u64, u32, usize, u64)> {
        let mut out = Vec::new();
        let mut round = Vec::new();
        q.begin_timestamp(t);
        while let Some(delta) = q.next_round(&mut round) {
            out.extend(
                round
                    .drain(..)
                    .map(|(target, kind)| (t.as_ns(), delta, target.index(), kind)),
            );
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
        assert_eq!(round[0].1, 8);
        round.clear();
        assert_eq!(q.next_round(&mut round), None);
        assert_eq!(q.next_time(), Some(SimTime::from_ns(6)));
    }

    #[test]
    fn events_come_back_in_time_then_fifo_order() {
        let mut q = TwoTierQueue::default();
        q.push(SimTime::from_ns(20), 0, cid(0), 1);
        q.push(SimTime::from_ns(10), 0, cid(1), 2);
        q.push(SimTime::from_ns(10), 0, cid(2), 3);
        assert_eq!(q.next_time(), Some(SimTime::from_ns(10)));
        assert_eq!(
            drain_at(&mut q, SimTime::from_ns(10)),
            vec![(10, 0, 1, 2), (10, 0, 2, 3)]
        );
        assert_eq!(q.next_time(), Some(SimTime::from_ns(20)));
        assert_eq!(drain_at(&mut q, SimTime::from_ns(20)), vec![(20, 0, 0, 1)]);
        assert_eq!(q.len(), 0);
        assert_eq!(q.next_time(), None);
    }

    #[test]
    fn far_future_events_wait_behind_near_ones() {
        let mut q = TwoTierQueue::default();
        let far = SimTime::from_ns(10_000);
        q.push(far, 0, cid(0), 7);
        q.push(SimTime::from_ns(5), 0, cid(1), 8);
        assert_eq!(q.next_time(), Some(SimTime::from_ns(5)));
        assert_eq!(drain_at(&mut q, SimTime::from_ns(5)), vec![(5, 0, 1, 8)]);
        assert_eq!(q.next_time(), Some(far));
        assert_eq!(drain_at(&mut q, far), vec![(10_000, 0, 0, 7)]);
        assert!(q.is_empty());
    }

    #[test]
    fn long_periodic_walk_keeps_time_order() {
        let mut q = TwoTierQueue::default();
        let mut t = 0;
        let mut expect = Vec::new();
        for k in 0..1000u64 {
            t += 97;
            q.push(SimTime::from_ns(t), 0, cid(0), k);
            expect.push((t, 0, 0, k));
        }
        assert_eq!(drain_all(&mut q), expect);
    }

    #[test]
    fn same_timestamp_pushes_drain_in_push_order() {
        let mut q = TwoTierQueue::default();
        let t = SimTime::from_ns(300);
        q.push(t, 0, cid(0), 0);
        q.push(SimTime::from_ns(1), 0, cid(9), 99);
        assert_eq!(drain_at(&mut q, SimTime::from_ns(1)), vec![(1, 0, 9, 99)]);
        q.push(SimTime::from_ns(290), 0, cid(9), 98);
        assert_eq!(
            drain_at(&mut q, SimTime::from_ns(290)),
            vec![(290, 0, 9, 98)]
        );
        // Pushed after time moved on, still behind the first push at `t`.
        q.push(t, 0, cid(1), 1);
        assert_eq!(drain_at(&mut q, t), vec![(300, 0, 0, 0), (300, 0, 1, 1)]);
    }

    #[test]
    fn rewound_schedule_is_served() {
        let mut q = TwoTierQueue::default();
        q.push(SimTime::from_ns(500), 0, cid(0), 1);
        assert_eq!(
            drain_at(&mut q, SimTime::from_ns(500)),
            vec![(500, 0, 0, 1)]
        );
        // `Simulation::schedule` may name a time before the last one run.
        q.push(SimTime::from_ns(3), 0, cid(1), 2);
        assert_eq!(q.next_time(), Some(SimTime::from_ns(3)));
        assert_eq!(drain_at(&mut q, SimTime::from_ns(3)), vec![(3, 0, 1, 2)]);
        assert!(q.is_empty());
    }
}
