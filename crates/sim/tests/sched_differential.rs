//! Differential pinning of the kernel's two-tier scheduler against a
//! reference heap: over randomized kernel-realizable push/pop traces, the
//! two implementations must pop the **exact same sequence** of
//! `(time, delta, target, kind)` tuples.
//!
//! [`ReferenceQueue`] is the kernel's original global `BinaryHeap` ordered
//! by `(time, delta, seq)`, kept here as the executable specification of
//! event order.
//!
//! The generator deliberately covers the structurally interesting shapes:
//! same-key FIFO runs (several pushes at one `(time, delta)`), delta-wake
//! chains at the active timestamp (delta staging), and timed pushes at
//! three distances — a few ticks, a few hundred and a few thousand ahead —
//! so the timed heap holds near events in front of far ones that wait
//! there while time advances, and hands each to staging when its
//! timestamp opens.
//!
//! Cases are seeded [`TinyRng`] streams (the offline `proptest`
//! substitute); a failure message names the case for direct replay.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use desim::testing::SchedulerHarness;
use desim::{Component, Event, SimCtx, SimTime, Simulation};
use tinyrng::TinyRng;

const CASES: u64 = 600;

/// A component index, as the kernel's `ComponentId` wraps it.
type ComponentId = usize;

/// One delivery of a drained round.
#[derive(Debug, Clone, Copy)]
struct Staged {
    target: ComponentId,
    kind: u64,
}

/// One scheduled delivery of the reference queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    time: SimTime,
    delta: u32,
    seq: u64,
    target: ComponentId,
    kind: u64,
}

/// The original priority queue: a global heap with per-event sequence
/// numbers for FIFO tie-breaks.
#[derive(Debug, Default)]
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    next_seq: u64,
}

impl ReferenceQueue {
    fn push(&mut self, time: SimTime, delta: u32, target: ComponentId, kind: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry {
            time,
            delta,
            seq,
            target,
            kind,
        }));
    }

    fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Pops every event at the earliest `(time, delta)` key — provided that
    /// time is `t` — into `out`, returning the key's delta.
    fn next_round(&mut self, t: SimTime, out: &mut Vec<Staged>) -> Option<u32> {
        let delta = match self.heap.peek() {
            Some(Reverse(e)) if e.time == t => e.delta,
            _ => return None,
        };
        while let Some(Reverse(e)) = self.heap.peek() {
            if e.time != t || e.delta != delta {
                break;
            }
            let Reverse(e) = self.heap.pop().expect("peeked entry");
            out.push(Staged {
                target: e.target,
                kind: e.kind,
            });
        }
        Some(delta)
    }
}

/// [`ReferenceQueue`] behind the same push/pop interface as
/// [`SchedulerHarness`], draining round by round as the kernel does.
#[derive(Default)]
struct ReferenceHarness {
    queue: ReferenceQueue,
    round: Vec<Staged>,
    cursor: usize,
    key: (SimTime, u32),
    active: Option<SimTime>,
}

impl ReferenceHarness {
    fn push(&mut self, time_ns: u64, delta: u32, target: usize, kind: u64) {
        self.queue
            .push(SimTime::from_ns(time_ns), delta, target, kind);
    }

    fn pop(&mut self) -> Option<(u64, u32, usize, u64)> {
        loop {
            if self.cursor < self.round.len() {
                let ev = self.round[self.cursor];
                self.cursor += 1;
                return Some((self.key.0.as_ns(), self.key.1, ev.target, ev.kind));
            }
            self.round.clear();
            self.cursor = 0;
            if let Some(t) = self.active {
                match self.queue.next_round(t, &mut self.round) {
                    Some(delta) => {
                        self.key = (t, delta);
                        continue;
                    }
                    None => self.active = None,
                }
            }
            self.active = Some(self.queue.next_time()?);
        }
    }

    fn len(&self) -> usize {
        self.queue.heap.len() + (self.round.len() - self.cursor)
    }
}

/// One push/pop trace driven against both schedulers in lockstep.
fn run_case(case: u64) {
    let mut rng = TinyRng::fork(0x5C4E_D001, case);
    let mut two_tier = SchedulerHarness::new();
    let mut reference = ReferenceHarness::default();

    // The last popped key: pushes must stay kernel-realizable — at the
    // active timestamp only strictly-later deltas, otherwise later times.
    let mut now = (0u64, 0u32);
    let mut mid_timestamp = false;
    let mut next_kind = 0u64;
    let ops = rng.range_usize(30, 150);

    for op in 0..ops {
        let push = rng.range_u64(0, 100) < 60 || (two_tier.is_empty() && op + 1 < ops);
        if push {
            // Occasionally a FIFO burst at one key, otherwise one event.
            let burst = if rng.range_u64(0, 100) < 20 {
                rng.range_usize(2, 6)
            } else {
                1
            };
            let (t, d) = match rng.range_u64(0, 100) {
                // Delta wake at the active timestamp (only meaningful
                // mid-drain; otherwise fall through to a near push).
                0..=29 if mid_timestamp => (now.0, now.1 + rng.range_u32(1, 4)),
                // Near future: up to 200 ticks ahead.
                0..=54 => (now.0 + rng.range_u64(1, 200), rng.range_u32(0, 3)),
                // Middle distance: 200 to 400 ticks ahead.
                55..=79 => (now.0 + rng.range_u64(200, 400), rng.range_u32(0, 3)),
                // Far future: waits in the heap behind everything nearer.
                _ => (now.0 + rng.range_u64(400, 6000), rng.range_u32(0, 3)),
            };
            for _ in 0..burst {
                let target = rng.range_usize(0, 8);
                two_tier.push(t, d, target, next_kind);
                reference.push(t, d, target, next_kind);
                next_kind += 1;
            }
        } else {
            let a = two_tier.pop();
            let b = reference.pop();
            assert_eq!(a, b, "case {case}: divergent pop after {op} ops");
            if let Some((t, d, _, _)) = a {
                now = (t, d);
                mid_timestamp = true;
            }
        }
        assert_eq!(two_tier.len(), reference.len(), "case {case}: length drift");
    }

    // Drain both completely; tails must agree event-for-event.
    loop {
        let a = two_tier.pop();
        let b = reference.pop();
        assert_eq!(a, b, "case {case}: divergent drain tail");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn two_tier_pops_exactly_the_reference_sequence() {
    for case in 0..CASES {
        run_case(case);
    }
}

/// Far-future pushes at one key wait in the heap behind a near one and
/// still drain in push order once their timestamp opens.
#[test]
fn far_future_same_key_pushes_keep_fifo_order() {
    let mut pushes: Vec<(u64, u32, usize, u64)> = (0..10u64)
        .map(|k| (5000, 0, k as usize % 3, k)) // all far behind the 1 ns push
        .collect();
    pushes.push((1, 0, 0, 100));
    assert_same_drain(&pushes);
}

/// Pushes `(time_ns, delta, target, kind)` into both schedulers and
/// asserts they drain identically.
fn assert_same_drain(pushes: &[(u64, u32, usize, u64)]) {
    let mut two_tier = SchedulerHarness::new();
    let mut reference = ReferenceHarness::default();
    for &(t, d, target, kind) in pushes {
        two_tier.push(t, d, target, kind);
        reference.push(t, d, target, kind);
    }
    loop {
        let a = two_tier.pop();
        assert_eq!(a, reference.pop());
        if a.is_none() {
            break;
        }
    }
}

/// Schedules one tick either side of 256 and 512 ticks ahead drain in
/// exact time order: no power-of-two distance is special to the heap.
#[test]
fn offsets_around_powers_of_two_drain_in_time_order() {
    let pushes: Vec<(u64, u32, usize, u64)> = [255u64, 256, 257, 511, 512, 513]
        .iter()
        .enumerate()
        .map(|(i, &off)| (off, 0, i, off))
        .collect();
    assert_same_drain(&pushes);
}

/// A component that randomly re-schedules itself and writes a signal —
/// exercising staging (zero-delay + commit wakes) and near and far timed
/// schedules through the real kernel.
struct Churn {
    rng: TinyRng,
    sig: desim::SignalId,
    log: Vec<(u64, u64)>,
    hops: u32,
}

impl Component for Churn {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        self.log.push((ev.time.as_ns(), ev.kind));
        ctx.write(self.sig, self.rng.range_u64(0, 3));
        if self.hops > 0 {
            self.hops -= 1;
            let delay = match self.rng.range_u64(0, 100) {
                0..=39 => 0,                           // next delta
                40..=79 => self.rng.range_u64(1, 200), // near future
                _ => self.rng.range_u64(200, 4000),    // far future
            };
            ctx.schedule_self(delay, ev.kind + 1);
        }
    }
}

/// FNV-1a (64-bit) of the 40 churn cases' delivery logs and
/// [`desim::SimStats`], each log entry as little-endian `(time_ns, kind)`
/// followed by the case's `(events, deltas, signal changes, timestamps)`.
///
/// Recorded with every simulation of the suite on the reference heap,
/// before that heap left the kernel; the two-tier kernel produced the same
/// value then.
const CHURN_DIGEST: u64 = 0x233f_eea0_5b7e_730d;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// End-to-end kernel equivalence: the same randomized component network
/// produces the delivery logs and [`desim::SimStats`] the reference heap
/// produced, pinned by [`CHURN_DIGEST`].
#[test]
fn kernel_runs_identically_under_both_schedulers() {
    let mut bytes = Vec::new();
    for case in 0..40 {
        let mut sim = Simulation::new();
        let sig = sim.add_signal("churn", 0);
        let c = sim.add_component(Churn {
            rng: TinyRng::fork(0xC0DE, case),
            sig,
            log: Vec::new(),
            hops: 60,
        });
        sim.subscribe(sig, c, 1_000_000);
        sim.schedule(SimTime::from_ns(1), c, 0);
        let s = sim.run_to_completion();
        for (t, kind) in &sim.component::<Churn>(c).expect("churn").log {
            bytes.extend_from_slice(&t.to_le_bytes());
            bytes.extend_from_slice(&kind.to_le_bytes());
        }
        for v in [
            s.events_processed,
            s.delta_cycles,
            s.signal_changes,
            s.timestamps,
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    assert_eq!(
        fnv1a64(&bytes),
        CHURN_DIGEST,
        "churn delivery logs or kernel stats moved"
    );
}
