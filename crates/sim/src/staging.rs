//! The delta staging area: per-round flat buffers for the *active*
//! timestamp.
//!
//! All same-timestamp work — `notify` wakes, zero-delay self-schedules and
//! signal-commit wakes — lands here with an O(1) `Vec` push, never touching
//! the timed heap. Rounds are drained in delta order by swapping the round
//! buffer with the kernel's scratch vector (classic double buffering: while
//! round *d* is being delivered, its pushes accumulate in the buffer for
//! round *d + 1*), so buffers are recycled and the steady state allocates
//! nothing.
//!
//! A whole wake list — a changed signal's sensitivity list, a transaction
//! bus's observers — stages with one slice copy
//! ([`push_all`](DeltaStaging::push_all)). A round is a plain append-only
//! buffer, so appending the list in subscription order puts every entry
//! exactly where one push per entry would have: after what the round
//! already holds, before what is staged later. Each entry stays one
//! delivery, so delivery order and event counts are those of the
//! per-entry pushes.
//!
//! Round `d` lives at `rounds[d]` — deltas restart at zero each timestamp,
//! so the buffer list is a plain `Vec` whose length is the high-water mark
//! of deltas per timestamp (a handful), and the drained prefix *is* the
//! recycling pool for the next timestamp.
//!
//! FIFO order among simultaneous events falls out of bucket insertion
//! order; no global sequence number is needed on this path.

use crate::kernel::ComponentId;
use crate::time::SimTime;

/// One staged delivery, `(receiving component, component-defined kind)`;
/// the `(time, delta)` key is implicit in the buffer holding it. It is the
/// layout of a sensitivity-list entry, so a wake list stages by slice
/// copy.
pub(crate) type Staged = (ComponentId, u64);

/// Double-buffered per-delta staging for the timestamp currently being
/// processed.
#[derive(Debug, Default)]
pub(crate) struct DeltaStaging {
    /// The timestamp the staging area is open at (meaningful while
    /// `active`).
    time: SimTime,
    /// True between [`open`](Self::open) and the exhausting
    /// [`next_round`](Self::next_round).
    active: bool,
    /// Drain cursor: the next round to deliver is `rounds[head]`.
    head: usize,
    /// `rounds[d]` holds the deliveries staged at delta `d`; entries before
    /// `head` are drained (and empty, keeping their capacity for reuse).
    rounds: Vec<Vec<Staged>>,
    /// Total staged events across all rounds.
    len: usize,
}

impl DeltaStaging {
    /// Opens the staging area at `time` with the delta counter reset.
    pub fn open(&mut self, time: SimTime) {
        debug_assert!(!self.active, "staging re-opened while active");
        debug_assert_eq!(self.len, 0, "staging opened with residual events");
        self.time = time;
        self.active = true;
        self.head = 0;
    }

    /// True if the staging area is open at exactly `time` — the routing
    /// predicate: such pushes stage, everything else goes to the timed heap.
    pub fn is_open_at(&self, time: SimTime) -> bool {
        self.active && self.time == time
    }

    /// The open timestamp, if any.
    pub fn open_time(&self) -> Option<SimTime> {
        self.active.then_some(self.time)
    }

    /// Stages a delivery at `delta` of the open timestamp.
    pub fn push(&mut self, delta: u32, target: ComponentId, kind: u64) {
        self.round(delta).push((target, kind));
        self.len += 1;
    }

    /// Stages every entry of `wakes` at `delta`, in order, with one slice
    /// copy: the same round contents as one [`push`](Self::push) per entry.
    pub fn push_all(&mut self, delta: u32, wakes: &[Staged]) {
        self.round(delta).extend_from_slice(wakes);
        self.len += wakes.len();
    }

    /// The buffer of round `delta`, created if absent.
    ///
    /// The kernel only ever stages at `current round + 1` (evaluate-phase
    /// zero-delay schedules and update-phase commit wakes), so `delta`
    /// can never lie behind the drain cursor.
    #[inline]
    fn round(&mut self, delta: u32) -> &mut Vec<Staged> {
        debug_assert!(self.active, "staging push while closed");
        debug_assert!(
            delta as usize >= self.head,
            "staging push at delta {delta} behind drain cursor {}",
            self.head
        );
        let idx = delta as usize;
        if self.rounds.len() <= idx {
            self.rounds.resize_with(idx + 1, Vec::new);
        }
        &mut self.rounds[idx]
    }

    /// Swaps the next non-empty round into `out` (which must be empty) and
    /// returns its delta. Returns `None` — closing the staging area — once
    /// every round has drained.
    pub fn next_round(&mut self, out: &mut Vec<Staged>) -> Option<u32> {
        debug_assert!(out.is_empty(), "round scratch not drained");
        while self.head < self.rounds.len() {
            let delta = self.head as u32;
            let round = &mut self.rounds[self.head];
            self.head += 1;
            if !round.is_empty() {
                self.len -= round.len();
                std::mem::swap(round, out);
                return Some(delta);
            }
        }
        self.active = false;
        self.head = 0;
        None
    }

    /// Total staged events.
    pub fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(n: usize) -> ComponentId {
        ComponentId(n)
    }

    #[test]
    fn rounds_drain_in_delta_order_with_fifo_buckets() {
        let mut st = DeltaStaging::default();
        st.open(SimTime::from_ns(10));
        st.push(0, cid(1), 11);
        st.push(1, cid(2), 22);
        st.push(0, cid(3), 33);
        assert_eq!(st.len(), 3);

        let mut out = Vec::new();
        assert_eq!(st.next_round(&mut out), Some(0));
        assert_eq!(out, vec![(cid(1), 11), (cid(3), 33)]);
        out.clear();
        assert_eq!(st.next_round(&mut out), Some(1));
        assert_eq!(out.len(), 1);
        out.clear();
        assert_eq!(st.next_round(&mut out), None);
        assert_eq!(st.len(), 0);
        assert!(!st.is_open_at(SimTime::from_ns(10)));
    }

    #[test]
    fn pushes_during_drain_land_in_later_rounds() {
        let mut st = DeltaStaging::default();
        st.open(SimTime::ZERO);
        st.push(0, cid(0), 0);
        let mut out = Vec::new();
        assert_eq!(st.next_round(&mut out), Some(0));
        out.clear();
        // While round 0 is "being delivered", its successors stage at 1.
        st.push(1, cid(7), 70);
        assert_eq!(st.next_round(&mut out), Some(1));
        assert_eq!(out[0].0, cid(7));
        out.clear();
        assert_eq!(st.next_round(&mut out), None);
    }

    #[test]
    fn push_all_stages_like_one_push_per_entry() {
        let wakes = [(cid(4), 40), (cid(2), 20), (cid(4), 41)];
        let mut batched = DeltaStaging::default();
        let mut single = DeltaStaging::default();
        for st in [&mut batched, &mut single] {
            st.open(SimTime::ZERO);
            st.push(1, cid(9), 90);
        }
        batched.push_all(1, &wakes);
        batched.push_all(1, &[]);
        for &(target, kind) in &wakes {
            single.push(1, target, kind);
        }
        single.push(2, cid(0), 0);
        batched.push(2, cid(0), 0);
        assert_eq!(batched.len(), single.len());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        loop {
            let (da, db) = (batched.next_round(&mut a), single.next_round(&mut b));
            assert_eq!((da, &a), (db, &b));
            if da.is_none() {
                break;
            }
            a.clear();
            b.clear();
        }
    }

    #[test]
    fn empty_intermediate_rounds_are_skipped() {
        let mut st = DeltaStaging::default();
        st.open(SimTime::ZERO);
        st.push(3, cid(4), 40); // sparse: rounds 0..=2 stay empty
        let mut out = Vec::new();
        assert_eq!(st.next_round(&mut out), Some(3));
        out.clear();
        assert_eq!(st.next_round(&mut out), None);
    }

    #[test]
    fn buffers_are_recycled_across_timestamps() {
        let mut st = DeltaStaging::default();
        let mut out = Vec::new();
        for ts in 0..100 {
            st.open(SimTime::from_ns(ts));
            st.push(0, cid(0), ts);
            st.push(1, cid(1), ts);
            while st.next_round(&mut out).is_some() {
                out.clear();
            }
        }
        assert!(
            st.rounds.len() <= 2,
            "buffer list stays at the per-timestamp high-water mark"
        );
        assert!(st.rounds.iter().all(|r| r.capacity() > 0 || r.is_empty()));
    }
}
