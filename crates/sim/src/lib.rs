//! A deterministic discrete-event simulation kernel.
//!
//! The MAC and mesh experiments need to model contention in time: stations
//! counting down backoff slots, frames occupying the medium, ACK timeouts.
//! [`Scheduler`] provides the classic event-queue core — nanosecond virtual
//! time, strict (time, insertion-order) determinism, and O(log n)
//! scheduling — with no threads and no wall-clock dependence, so every run
//! is exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use wlan_sim::Scheduler;
//!
//! let mut sim: Scheduler<&'static str> = Scheduler::new();
//! sim.schedule_in(50, "ack timeout");
//! sim.schedule_in(10, "ack arrives");
//! let (t, ev) = sim.pop().unwrap();
//! assert_eq!((t, ev), (10, "ack arrives"));
//! assert_eq!(sim.now(), 10);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time in nanoseconds.
pub type Time = u64;

/// One microsecond in [`Time`] units.
pub const MICROSECOND: Time = 1_000;

/// Handle returned by scheduling; its order breaks timestamp ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

/// A deterministic discrete-event scheduler.
///
/// Events with equal timestamps fire in insertion order, which keeps
/// multi-station MAC simulations reproducible from a seed.
#[derive(Debug, Clone)]
pub struct Scheduler<E> {
    now: Time,
    seq: u64,
    heap: BinaryHeap<Reverse<Entry<E>>>,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: Time,
    id: EventId,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.id == other.id
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.id).cmp(&(other.time, other.id))
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time 0.
    pub fn new() -> Self {
        Scheduler {
            now: 0,
            seq: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `event` at absolute time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past (before `now`).
    pub fn schedule_at(&mut self, t: Time, event: E) -> EventId {
        assert!(t >= self.now, "cannot schedule into the past");
        let id = EventId(self.seq);
        self.seq += 1;
        self.heap.push(Reverse(Entry { time: t, id, event }));
        id
    }

    /// Schedules `event` after a delay of `dt` from now.
    pub fn schedule_in(&mut self, dt: Time, event: E) -> EventId {
        self.schedule_at(self.now + dt, event)
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when no events remain.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(entry)| entry.time)
    }

    /// Truncates the run at `deadline`: discards **every** still-pending
    /// event, advances the clock to `deadline` (clamped to never move
    /// backwards), and returns how many events were dropped.
    ///
    /// This is the budget cut for event-driven runs: when wall-clock or
    /// trial budgets end a simulation early, the abandoned queue is work
    /// the run *would* have done — backoff ticks mid-countdown, pending
    /// ACK timeouts — and the caller must report that truncation instead
    /// of silently pretending the run drained naturally. Events scheduled
    /// beyond the deadline count too: they are exactly the "mid-backoff"
    /// state a truncated MAC run abandons.
    ///
    /// The scheduler remains usable afterwards (empty, at `deadline`).
    pub fn drain_until(&mut self, deadline: Time) -> usize {
        let dropped = self.heap.len();
        self.heap.clear();
        self.now = self.now.max(deadline);
        dropped
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(30, 3);
        s.schedule_at(10, 1);
        s.schedule_at(20, 2);
        assert_eq!(s.pop(), Some((10, 1)));
        assert_eq!(s.pop(), Some((20, 2)));
        assert_eq!(s.pop(), Some((30, 3)));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..10 {
            s.schedule_at(5, i);
        }
        for i in 0..10 {
            assert_eq!(s.pop(), Some((5, i)));
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_at(100, ());
        assert_eq!(s.now(), 0);
        s.pop();
        assert_eq!(s.now(), 100);
        // Relative scheduling uses the new time.
        s.schedule_in(50, ());
        assert_eq!(s.pop(), Some((150, ())));
    }

    #[test]
    fn peek_time_reports_the_next_event_without_popping() {
        let mut s: Scheduler<u32> = Scheduler::new();
        assert_eq!(s.peek_time(), None);
        s.schedule_at(20, 2);
        s.schedule_at(10, 1);
        assert_eq!(s.peek_time(), Some(10));
        assert_eq!((s.len(), s.now()), (2, 0));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_at(100, ());
        s.pop();
        s.schedule_at(50, ());
    }

    #[test]
    fn stress_many_events_stay_sorted() {
        let mut s: Scheduler<u64> = Scheduler::new();
        // Pseudo-random but deterministic insertion.
        let mut x = 12345u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s.schedule_at(x % 1_000_000, x);
        }
        let mut last = 0;
        let mut count = 0;
        while let Some((t, _)) = s.pop() {
            assert!(t >= last);
            last = t;
            count += 1;
        }
        assert_eq!(count, 10_000);
    }

    #[test]
    fn drain_until_counts_dropped_and_advances_clock() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(10, 1);
        s.schedule_at(50, 2);
        s.schedule_at(200, 3); // beyond the deadline: still abandoned work
        assert_eq!(s.drain_until(100), 3);
        assert_eq!(s.now(), 100);
        assert!(s.is_empty());
        assert_eq!(s.pop(), None);
        // Still usable after the cut.
        s.schedule_in(5, 9);
        assert_eq!(s.pop(), Some((105, 9)));
    }

    #[test]
    fn drain_until_never_moves_the_clock_backwards() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(100, 1);
        s.pop();
        assert_eq!(s.now(), 100);
        assert_eq!(s.drain_until(50), 0, "nothing pending, nothing dropped");
        assert_eq!(s.now(), 100, "deadline in the past is clamped");
    }

    #[test]
    fn drain_until_on_empty_scheduler_is_zero() {
        let mut s: Scheduler<()> = Scheduler::new();
        assert_eq!(s.drain_until(1_000), 0);
        assert_eq!(s.now(), 1_000);
    }
}
