//! Differential tests for the kernel's event queue: every sequence of
//! operations must produce *exactly* the pop order of a naive sorted
//! `Vec` model — same times, same items, same tie-breaks. Driven by a
//! deterministic seeded PRNG (the build environment has no crates.io
//! access, so `proptest` is unavailable).

use netsim::queue::{EventHandle, EventQueue};
use netsim::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The ordering contract written the obvious way: a `Vec` of
/// `(at, seq, item)` kept sorted by `(at, seq)`, where a push takes the
/// next sequence number, so equal deadlines stay in push order. A moved
/// entry is taken out and inserted again at its new place.
#[derive(Default)]
struct Model {
    entries: Vec<(SimTime, u64, u64)>,
    next_seq: u64,
}

impl Model {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn reserve_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    fn push_at_seq(&mut self, at: SimTime, seq: u64, item: u64) {
        let i = self
            .entries
            .partition_point(|&(t, s, _)| (t, s) < (at, seq));
        self.entries.insert(i, (at, seq, item));
    }

    fn push(&mut self, at: SimTime, item: u64) {
        let seq = self.reserve_seq();
        self.push_at_seq(at, seq, item);
    }

    /// Take `item` out wherever it is; returns its deadline.
    fn take(&mut self, item: u64) -> SimTime {
        let i = self.entries.iter().position(|e| e.2 == item);
        self.entries.remove(i.expect("item is queued")).0
    }

    fn deadline_of(&self, item: u64) -> SimTime {
        let e = self.entries.iter().find(|e| e.2 == item);
        e.expect("item is queued").0
    }

    fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, u64)> {
        let &(at, _, item) = self.entries.first()?;
        (at <= deadline).then(|| {
            self.entries.remove(0);
            (at, item)
        })
    }
}

/// Drive the queue and the model through the same operations, asserting
/// the pop streams match step for step.
struct Pair {
    queue: EventQueue<u64>,
    model: Model,
}

impl Pair {
    fn new() -> Self {
        Pair {
            queue: EventQueue::new(),
            model: Model::default(),
        }
    }

    fn push(&mut self, at: SimTime, item: u64) -> EventHandle {
        let handle = self.queue.push(at, item);
        self.model.push(at, item);
        assert_eq!(self.queue.len(), self.model.len());
        handle
    }

    fn reserve_seq(&mut self) -> u64 {
        let seq = self.queue.reserve_seq();
        assert_eq!(seq, self.model.reserve_seq(), "the next sequence number");
        seq
    }

    fn push_at_seq(&mut self, at: SimTime, seq: u64, item: u64) -> EventHandle {
        let handle = self.queue.push_at_seq(at, seq, item);
        self.model.push_at_seq(at, seq, item);
        assert_eq!(self.queue.len(), self.model.len());
        handle
    }

    fn reschedule(&mut self, handle: EventHandle, item: u64, at: SimTime, seq: u64) {
        self.queue.reschedule(handle, at, seq);
        self.model.take(item);
        self.model.push_at_seq(at, seq, item);
        assert_eq!(self.queue.len(), self.model.len());
    }

    fn remove(&mut self, handle: EventHandle, item: u64) {
        assert_eq!(self.queue.remove(handle), item, "the handle names the item");
        self.model.take(item);
        assert_eq!(self.queue.len(), self.model.len());
    }

    fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, u64)> {
        let q = self.queue.pop_before(deadline);
        let m = self.model.pop_before(deadline);
        assert_eq!(q, m, "queue and model disagree at deadline {deadline:?}");
        assert_eq!(self.queue.len(), self.model.len());
        q
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let q = self.queue.pop();
        let m = self.model.pop_before(SimTime::MAX);
        assert_eq!(q, m, "queue and model disagree on pop");
        q
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
        assert!(self.queue.is_empty() && self.model.entries.is_empty());
    }
}

/// A deadline nearby, mid-range or far in the future of `now`.
fn deadline_after(rng: &mut SmallRng, now: u64) -> SimTime {
    let delta = match rng.gen_range(0u32..10) {
        0..=5 => rng.gen_range(0u64..4_096),
        6..=8 => rng.gen_range(0u64..10_000_000),
        _ => rng.gen_range(0u64..30_000_000_000),
    };
    SimTime::from_nanos(now + delta)
}

#[test]
fn randomized_interleavings_match_heap_reference() {
    for seed in 0..32u64 {
        let mut rng = SmallRng::seed_from_u64(0x0007_E001 + seed);
        let mut pair = Pair::new();
        let mut now = 0u64;
        for _ in 0..2_000 {
            if rng.gen_bool(0.6) || pair.queue.is_empty() {
                let at = deadline_after(&mut rng, now);
                pair.push(at, rng.gen());
            } else if rng.gen_bool(0.5) {
                if let Some((at, _)) = pair.pop() {
                    now = now.max(at.as_nanos());
                }
            } else {
                let deadline = SimTime::from_nanos(now + rng.gen_range(0u64..5_000_000));
                if let Some((at, _)) = pair.pop_before(deadline) {
                    now = now.max(at.as_nanos());
                }
            }
        }
        pair.drain();
    }
}

#[test]
fn equal_timestamp_bursts_pop_fifo() {
    // Clean check first: one burst at one instant drains in push order.
    let mut pair = Pair::new();
    let at = SimTime::from_nanos(42);
    for i in 0..100u64 {
        pair.push(at, i);
    }
    for i in 0..100u64 {
        assert_eq!(
            pair.pop(),
            Some((at, i)),
            "equal-timestamp events popped out of push order"
        );
    }
    // Then randomized bursts, including repeat bursts at instants used
    // in earlier rounds (a late push at an already-drained-past time):
    // global order is enforced by the step-for-step model comparison
    // in `Pair`.
    let mut rng = SmallRng::seed_from_u64(0x0007_E002);
    let mut pair = Pair::new();
    let mut now = 0u64;
    let mut next_item = 0u64;
    let mut instants: Vec<u64> = Vec::new();
    for _ in 0..200 {
        let at = if !instants.is_empty() && rng.gen_bool(0.3) {
            instants[rng.gen_range(0..instants.len())]
        } else {
            now + rng.gen_range(0u64..1_000_000)
        };
        instants.push(at);
        let burst = rng.gen_range(1usize..24);
        for _ in 0..burst {
            pair.push(SimTime::from_nanos(at), next_item);
            next_item += 1;
        }
        let take = rng.gen_range(0usize..=burst);
        for _ in 0..take {
            let (got_at, _) = pair.pop().expect("burst entry");
            now = now.max(got_at.as_nanos());
        }
    }
    pair.drain();
}

#[test]
fn far_future_rto_timers_order_correctly() {
    let mut pair = Pair::new();
    // The kernel's worst spread: per-packet events nanoseconds apart
    // with retransmission timers seconds out, plus one far outlier.
    for i in 0..64u64 {
        pair.push(SimTime::from_nanos(i * 7), i);
        pair.push(SimTime::from_nanos(3_000_000_000 + i * 13), 1_000 + i);
    }
    pair.push(SimTime::from_nanos(u64::MAX / 2), 9_999);
    // Pops before a deadline between the clusters take only the near
    // ones, in order.
    let mut last = None;
    while let Some((at, _)) = pair.pop_before(SimTime::from_nanos(1_000_000)) {
        if let Some(prev) = last {
            assert!(at >= prev);
        }
        last = Some(at);
    }
    assert_eq!(last, Some(SimTime::from_nanos(63 * 7)));
    // The RTO cluster and the outlier drain in order too.
    pair.drain();
}

#[test]
fn cancel_and_rearm_pattern_matches_reference() {
    // Timers cancelled by epoch alone (a stale entry pops and is ignored)
    // and re-armed at a new time: the superseded and the replacement
    // entry coexist in the queue, which must keep exact order among all
    // of them. (The kernel now moves or removes the one entry instead;
    // `handles_move_and_remove_entries_like_the_model` covers that.)
    let mut rng = SmallRng::seed_from_u64(0x0007_E003);
    let mut pair = Pair::new();
    let mut now = 0u64;
    let mut armed: Vec<u64> = Vec::new();
    for round in 0..500u64 {
        // Arm a timer.
        let at = now + rng.gen_range(1u64..5_000_000);
        pair.push(SimTime::from_nanos(at), round);
        armed.push(at);
        // Sometimes "cancel and re-arm": push a replacement at a
        // different time while the stale entry is still queued.
        if rng.gen_bool(0.4) {
            let again = now + rng.gen_range(1u64..10_000_000);
            pair.push(SimTime::from_nanos(again), round | 1 << 32);
        }
        // Fire everything due in the next half-millisecond.
        let deadline = SimTime::from_nanos(now + 500_000);
        while let Some((at, _)) = pair.pop_before(deadline) {
            now = now.max(at.as_nanos());
        }
        now += rng.gen_range(0u64..250_000);
    }
    pair.drain();
}

#[test]
fn pushes_behind_the_current_time_keep_heap_order() {
    // Pushes behind a failed pop_before's deadline, or behind the last
    // popped time (tests and apps schedule "now"), must still drain in
    // exact (time, push-order) order.
    let mut pair = Pair::new();
    pair.push(SimTime::from_nanos(1_000_000), 1);
    // Deadline miss: nothing due.
    assert_eq!(pair.pop_before(SimTime::from_nanos(500)), None);
    pair.push(SimTime::from_nanos(10), 2);
    pair.push(SimTime::from_nanos(10), 3);
    pair.push(SimTime::ZERO, 4);
    assert_eq!(pair.pop(), Some((SimTime::ZERO, 4)));
    assert_eq!(pair.pop(), Some((SimTime::from_nanos(10), 2)));
    assert_eq!(pair.pop(), Some((SimTime::from_nanos(10), 3)));
    // Behind the time just popped.
    pair.push(SimTime::from_nanos(5), 5);
    assert_eq!(pair.pop(), Some((SimTime::from_nanos(5), 5)));
    assert_eq!(pair.pop(), Some((SimTime::from_nanos(1_000_000), 1)));
    assert_eq!(pair.pop(), None);
}

#[test]
fn handles_move_and_remove_entries_like_the_model() {
    for seed in 0..32u64 {
        let mut rng = SmallRng::seed_from_u64(0x0007_E004 + seed);
        let mut pair = Pair::new();
        let mut now = 0u64;
        let mut next_item = 0u64;
        // What is queued, by item, and sequence numbers reserved but not
        // yet used.
        let mut live: Vec<(u64, EventHandle)> = Vec::new();
        let mut reserved: Vec<u64> = Vec::new();
        for _ in 0..2_000 {
            let item = next_item;
            match rng.gen_range(0u32..10) {
                0..=1 => {
                    let at = deadline_after(&mut rng, now);
                    live.push((item, pair.push(at, item)));
                    next_item += 1;
                }
                2 => reserved.push(pair.reserve_seq()),
                3 if !reserved.is_empty() => {
                    let seq = reserved.swap_remove(rng.gen_range(0..reserved.len()));
                    let at = deadline_after(&mut rng, now);
                    live.push((item, pair.push_at_seq(at, seq, item)));
                    next_item += 1;
                }
                4..=5 if !live.is_empty() => {
                    // Earlier or later than where it is, with a fresh
                    // sequence number or one reserved before.
                    let (item, handle) = live[rng.gen_range(0..live.len())];
                    let was = pair.model.deadline_of(item).as_nanos();
                    let at = if rng.gen_bool(0.5) {
                        SimTime::from_nanos(was - rng.gen_range(0..=was.min(1_000_000)))
                    } else {
                        deadline_after(&mut rng, was)
                    };
                    let seq = match reserved.len() {
                        0 => pair.reserve_seq(),
                        n if rng.gen_bool(0.5) => reserved.swap_remove(rng.gen_range(0..n)),
                        _ => pair.reserve_seq(),
                    };
                    pair.reschedule(handle, item, at, seq);
                }
                6 if !live.is_empty() => {
                    let (item, handle) = live.swap_remove(rng.gen_range(0..live.len()));
                    pair.remove(handle, item);
                }
                _ => {
                    let deadline = SimTime::from_nanos(now + rng.gen_range(0u64..5_000_000));
                    if let Some((at, item)) = pair.pop_before(deadline) {
                        now = now.max(at.as_nanos());
                        live.retain(|&(i, _)| i != item);
                    }
                }
            }
            assert_eq!(pair.queue.len(), live.len(), "len() counts live entries");
        }
        pair.drain();
    }
}
