//! The event queue at the heart of the simulator.
//!
//! [`EventQueue`] is a time-ordered priority queue with a strict
//! determinism guarantee: events are delivered in `(time, seq)` order,
//! `seq` being the order they were scheduled in, so events scheduled
//! for the same instant come out first-in first-out. The queue also
//! tracks the current virtual time, which advances to an event's
//! timestamp when it is popped.
//!
//! That one order is kept by three lanes, each holding the events
//! whose place in it is known without a heap. The *backlog* is the
//! stream handed over by [`EventQueue::preload`] before anything else
//! was scheduled: sorted by time once, it carries the lowest seqs, so
//! a sleeping arrival costs a cursor instead of a heap level. The
//! *instant* lane is a FIFO of the events scheduled for `now`: every
//! other event pending for `now` was scheduled at an earlier instant
//! and so has a lower seq. The *heap* holds the rest — events
//! scheduled for a later instant. `pop` compares the three heads, and
//! on equal times **backlog beats heap beats instant**, which is
//! exactly the seq order; no caller can tell the lanes apart.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// Heap entry: ordering key plus a slab slot. Keeping the (possibly
/// large) payload out of the heap makes every sift swap a 24-byte
/// move instead of a whole-event memcpy.
struct Scheduled {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    // Reversed so that BinaryHeap (a max-heap) pops the earliest event
    // first; ties broken by insertion order.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// True iff a lane whose head is at `a` is served before one whose
/// head is at `b` when the first wins ties (`None` = empty lane).
#[inline]
fn served_first(a: Option<SimTime>, b: Option<SimTime>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a <= b,
        (a, None) => a.is_some(),
        (None, Some(_)) => false,
    }
}

/// A deterministic discrete-event queue parameterised over the event
/// payload type `E`.
///
/// Heap payloads live in a free-list slab (`slots`); the binary heap
/// holds only `(time, seq, slot)` keys. Popped slots are recycled, so
/// the steady-state run performs no per-event allocation.
pub struct EventQueue<E> {
    /// The preloaded stream, sorted by time; seqs `0..n`.
    backlog: VecDeque<(SimTime, E)>,
    /// Events scheduled for `now`, in scheduling order.
    instant: VecDeque<E>,
    /// Events scheduled for an instant later than the `now` they were
    /// scheduled at.
    heap: BinaryHeap<Scheduled>,
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    /// Events scheduled so far, over all lanes.
    seq: u64,
    now: SimTime,
    popped: u64,
    clamped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at virtual time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `capacity` events pending for a
    /// later instant, for callers that know the rough size of the live
    /// event population up front.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            backlog: VecDeque::new(),
            instant: VecDeque::new(),
            heap: BinaryHeap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            clamped: 0,
        }
    }

    /// Current virtual time (the timestamp of the most recently popped
    /// event, or zero).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.backlog.len() + self.instant.len() + self.heap.len()
    }

    /// True iff no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events delivered so far (a cheap progress /
    /// complexity proxy used by the experiment harness).
    #[inline]
    pub fn events_delivered(&self) -> u64 {
        self.popped
    }

    /// How many events were scheduled into the past and silently
    /// clamped to `now`. Always zero in a correct run; a nonzero count
    /// means virtual time was rewritten somewhere and the run's timing
    /// is suspect.
    #[inline]
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Hand over a front-loaded stream (a run's arrivals), in the
    /// order `schedule_at` would have been called on it: same delivery
    /// order, but a sleeping event never enters the heap. Only a queue
    /// on which nothing was scheduled yet takes one — that is what
    /// makes these the lowest seqs.
    pub fn preload(&mut self, events: impl IntoIterator<Item = (SimTime, E)>) {
        assert!(
            self.seq == 0,
            "preload on a queue that already scheduled {} event(s)",
            self.seq
        );
        let mut events: Vec<(SimTime, E)> = events.into_iter().collect();
        // Streams mostly arrive sorted, and a stable sort allocates
        // half the stream again as scratch even then.
        if events.windows(2).any(|w| w[1].0 < w[0].0) {
            events.sort_by_key(|(t, _)| *t);
        }
        self.seq = events.len() as u64;
        self.backlog = VecDeque::from(events);
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in callers; the event is
    /// clamped to `now` so that virtual time never runs backwards, and
    /// debug builds assert. Release builds count the clamp instead (see
    /// [`EventQueue::clamped`]) so the rewrite of virtual time is never
    /// silent: the engine surfaces a nonzero count as a run anomaly.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let time = if at < self.now {
            self.clamped += 1;
            self.now
        } else {
            at
        };
        let seq = self.seq;
        self.seq += 1;
        if time == self.now {
            self.instant.push_back(event);
            return;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(event);
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("more than u32::MAX pending events");
                self.slots.push(Some(event));
                s
            }
        };
        self.heap.push(Scheduled { time, seq, slot });
    }

    /// Schedule `event` after a relative delay from the current time.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedule `event` at the current instant (delivered after all
    /// events already scheduled for this instant).
    #[inline]
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// Head times of the backlog, heap and instant lanes.
    #[inline]
    fn heads(&self) -> [Option<SimTime>; 3] {
        [
            self.backlog.front().map(|(t, _)| *t),
            self.heap.peek().map(|s| s.time),
            (!self.instant.is_empty()).then_some(self.now),
        ]
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heads().into_iter().flatten().min()
    }

    /// Pop the next event, advancing virtual time to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let [backlog, heap, instant] = self.heads();
        let (time, event) = if served_first(backlog, heap) && served_first(backlog, instant) {
            self.backlog.pop_front()?
        } else if served_first(heap, instant) {
            let s = self.heap.pop()?;
            let event = self.slots[s.slot as usize]
                .take()
                .expect("scheduled slot holds an event");
            self.free.push(s.slot);
            (s.time, event)
        } else {
            (self.now, self.instant.pop_front()?)
        };
        debug_assert!(time >= self.now);
        self.now = time;
        self.popped += 1;
        Some((time, event))
    }

    /// Drop all pending events (the clock is left where it is).
    pub fn clear(&mut self) {
        self.backlog.clear();
        self.instant.clear();
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("delivered", &self.popped)
            .field("clamped", &self.clamped)
            .finish()
    }
}

/// The queue as it was before it had lanes: every event goes through
/// the one heap, keyed `(time, seq)`. Kept as the executable statement
/// of the delivery order the lanes must reproduce (payloads sit in the
/// key here — the slab only ever made sifting cheaper).
#[cfg(test)]
mod reference {
    use super::*;
    use std::cmp::Reverse;

    pub struct HeapOnlyQueue<E> {
        heap: BinaryHeap<Reverse<(SimTime, u64, E)>>,
        seq: u64,
        now: SimTime,
        popped: u64,
        clamped: u64,
    }

    impl<E: Ord> HeapOnlyQueue<E> {
        pub fn new() -> Self {
            HeapOnlyQueue {
                heap: BinaryHeap::new(),
                seq: 0,
                now: SimTime::ZERO,
                popped: 0,
                clamped: 0,
            }
        }

        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }

        pub fn events_delivered(&self) -> u64 {
            self.popped
        }

        pub fn clamped(&self) -> u64 {
            self.clamped
        }

        pub fn schedule_at(&mut self, at: SimTime, event: E) {
            let time = if at < self.now {
                self.clamped += 1;
                self.now
            } else {
                at
            };
            self.heap.push(Reverse((time, self.seq, event)));
            self.seq += 1;
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse((time, ..))| *time)
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            let Reverse((time, _, event)) = self.heap.pop()?;
            self.now = time;
            self.popped += 1;
            Some((time, event))
        }

        pub fn clear(&mut self) {
            self.heap.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn schedule_now_runs_after_existing_same_instant_events() {
        let mut q = EventQueue::new();
        q.schedule_now("first");
        q.schedule_now("second");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
    }

    #[test]
    fn relative_scheduling_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "jump");
        q.pop();
        q.schedule_in(SimDuration::from_secs(1), "later");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(11));
    }

    #[test]
    fn delivered_counter() {
        let mut q = EventQueue::new();
        for _ in 0..7 {
            q.schedule_now(());
        }
        while q.pop().is_some() {}
        assert_eq!(q.events_delivered(), 7);
        assert!(q.is_empty());
    }

    #[test]
    fn in_order_scheduling_never_counts_a_clamp() {
        let mut q = EventQueue::with_capacity(8);
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_in(SimDuration::from_secs(2), "b");
        while q.pop().is_some() {}
        assert_eq!(q.clamped(), 0);
    }

    /// The debug assert catches past-time scheduling in development;
    /// this pins the release-mode behaviour (clamp + count) that the
    /// engine turns into a reported anomaly.
    #[cfg(not(debug_assertions))]
    #[test]
    fn past_time_scheduling_is_clamped_and_counted() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "jump");
        q.pop();
        q.schedule_at(SimTime::from_secs(3), "stale");
        assert_eq!(q.clamped(), 1);
        let (t, _) = q.pop().expect("clamped event still delivered");
        assert_eq!(t, SimTime::from_secs(10), "clamped to now, not dropped");
        assert_eq!(q.clamped(), 1);
    }

    /// The clock sits at `T` (a preloaded event brought it there) with
    /// one event in each lane pending for `T`.
    fn one_event_per_lane_at(t: SimTime) -> EventQueue<&'static str> {
        let mut q = EventQueue::new();
        q.preload([(t, "clock"), (t, "backlog")]);
        q.schedule_at(t, "heap");
        assert_eq!(q.pop(), Some((t, "clock")));
        q.schedule_at(t, "instant");
        q
    }

    #[test]
    fn tie_rule_preloaded_event_beats_heap_event_scheduled_for_the_same_instant() {
        let t = SimTime::from_secs(7);
        let mut q = EventQueue::new();
        q.preload([(t, "backlog")]);
        q.schedule_at(t, "heap");
        assert_eq!(q.pop(), Some((t, "backlog")));
        assert_eq!(q.pop(), Some((t, "heap")));
    }

    #[test]
    fn tie_rule_heap_event_beats_event_scheduled_while_now_is_its_instant() {
        let t = SimTime::from_secs(7);
        let mut q = EventQueue::new();
        q.schedule_at(t, "clock");
        q.schedule_at(t, "heap");
        assert_eq!(q.pop(), Some((t, "clock")));
        q.schedule_at(t, "instant");
        q.schedule_now("instant too");
        assert_eq!(q.pop(), Some((t, "heap")));
        assert_eq!(q.pop(), Some((t, "instant")));
        assert_eq!(q.pop(), Some((t, "instant too")));
    }

    #[test]
    fn tie_rule_backlog_then_heap_then_instant() {
        let t = SimTime::from_secs(7);
        let mut q = one_event_per_lane_at(t);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(t));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(t, "backlog"), (t, "heap"), (t, "instant")]);
        assert_eq!(q.events_delivered(), 4);
    }

    #[test]
    fn preload_sorts_stably_by_time() {
        let mut q = EventQueue::new();
        q.preload(
            [(2, "c"), (1, "a"), (2, "d"), (1, "b"), (0, "z")]
                .map(|(t, e)| (SimTime::from_secs(t), e)),
        );
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["z", "a", "b", "c", "d"]);
    }

    #[test]
    #[should_panic(expected = "preload on a queue that already scheduled")]
    fn preload_after_a_schedule_is_refused() {
        let mut q = EventQueue::new();
        q.schedule_now("first");
        q.preload([(SimTime::ZERO, "too late")]);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = one_event_per_lane_at(SimTime::from_secs(7));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), SimTime::from_secs(7), "the clock stays");
    }
}

#[cfg(test)]
mod proptests {
    use super::reference::HeapOnlyQueue;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Events always come out in non-decreasing time order, and
        /// same-time events preserve insertion order.
        #[test]
        fn ordering_invariant(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule_at(SimTime::from_ticks(*t), i);
            }
            let mut last_time = SimTime::ZERO;
            let mut seen_at_time: Vec<usize> = Vec::new();
            while let Some((t, idx)) = q.pop() {
                prop_assert!(t >= last_time);
                if t != last_time {
                    seen_at_time.clear();
                    last_time = t;
                }
                if let Some(&prev) = seen_at_time.last() {
                    // FIFO among equal timestamps implies increasing
                    // insertion indices.
                    prop_assert!(idx > prev);
                }
                seen_at_time.push(idx);
            }
        }

        /// The queue delivers exactly the multiset of scheduled events.
        #[test]
        fn conservation(times in proptest::collection::vec(0u64..500, 0..100)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule_at(SimTime::from_ticks(*t), i);
            }
            let mut got: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            got.sort_unstable();
            prop_assert_eq!(got, (0..times.len()).collect::<Vec<_>>());
        }

        /// The three lanes deliver exactly what the one heap did: the
        /// same `(time, event)` sequence and the same observable state
        /// after every step of a random program.
        #[test]
        fn lanes_match_the_heap_only_reference(
            preloaded in proptest::collection::vec(0u64..12, 0..24),
            program in proptest::collection::vec((0u8..10, 0u64..8), 0..160),
        ) {
            let mut q = EventQueue::new();
            let mut r = HeapOnlyQueue::new();
            let mut next_id = 0u64;
            let mut id = || {
                next_id += 1;
                next_id
            };
            // Unsorted, with duplicate instants and t = 0.
            let stream: Vec<(SimTime, u64)> =
                preloaded.iter().map(|t| (SimTime::from_ticks(*t), id())).collect();
            for (t, e) in &stream {
                r.schedule_at(*t, *e);
            }
            q.preload(stream);
            for (op, arg) in program {
                let now = r.now();
                match op {
                    // Future, or `== now` when `arg` is 0.
                    0..=2 => {
                        let (at, e) = (now + SimDuration::from_ticks(arg), id());
                        q.schedule_at(at, e);
                        r.schedule_at(at, e);
                    }
                    3 => {
                        let e = id();
                        q.schedule_in(SimDuration::ZERO, e);
                        r.schedule_at(now, e);
                    }
                    4 => {
                        let e = id();
                        q.schedule_now(e);
                        r.schedule_at(now, e);
                    }
                    // Into the past: clamped and counted (debug builds
                    // assert instead, so only release builds go there).
                    5 if cfg!(not(debug_assertions)) => {
                        let (at, e) = (SimTime::from_ticks(now.ticks().saturating_sub(arg)), id());
                        q.schedule_at(at, e);
                        r.schedule_at(at, e);
                    }
                    6 if arg == 0 => {
                        q.clear();
                        r.clear();
                    }
                    _ => prop_assert_eq!(q.pop(), r.pop()),
                }
                prop_assert_eq!(q.now(), r.now());
                prop_assert_eq!(q.len(), r.len());
                prop_assert_eq!(q.is_empty(), r.len() == 0);
                prop_assert_eq!(q.peek_time(), r.peek_time());
                prop_assert_eq!(q.events_delivered(), r.events_delivered());
                prop_assert_eq!(q.clamped(), r.clamped());
            }
            while !q.is_empty() {
                prop_assert_eq!(q.pop(), r.pop());
            }
            prop_assert_eq!(r.pop(), None);
            prop_assert_eq!(q.now(), r.now());
            prop_assert_eq!(q.events_delivered(), r.events_delivered());
        }
    }
}
