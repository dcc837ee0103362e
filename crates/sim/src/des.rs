//! Deterministic discrete-event core.
//!
//! Time is integer microseconds (`u64`), which keeps event ordering exact
//! and runs reproducible. Ties are broken by insertion sequence, so two
//! events scheduled for the same instant fire in schedule order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time in microseconds.
pub type SimTime = u64;

/// Converts seconds to [`SimTime`].
pub fn secs(s: f64) -> SimTime {
    (s.max(0.0) * 1e6).round() as SimTime
}

/// Converts [`SimTime`] to seconds.
pub fn to_secs(t: SimTime) -> f64 {
    t as f64 / 1e6
}

/// A deterministic event queue over payload type `E`.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, EventSlot<E>)>>,
    seq: u64,
    now: SimTime,
}

/// Wrapper that keeps payloads out of the ordering (only time and
/// sequence number order events).
#[derive(Debug)]
struct EventSlot<E>(E);

impl<E> PartialEq for EventSlot<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for EventSlot<E> {}
impl<E> PartialOrd for EventSlot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for EventSlot<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at` (clamped to now).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        self.heap.push(Reverse((at, self.seq, EventSlot(event))));
        self.seq += 1;
    }

    /// Schedules `event` after a delay from now.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// Pops the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse((t, _, EventSlot(e)))| {
            self.now = t;
            (t, e)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_conversions_round_trip() {
        assert_eq!(secs(1.5), 1_500_000);
        assert!((to_secs(secs(0.05)) - 0.05).abs() < 1e-9);
        assert_eq!(secs(-1.0), 0);
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(300, "c");
        q.schedule_at(100, "a");
        q.schedule_at(200, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        q.schedule_at(100, 1);
        q.schedule_at(100, 2);
        q.schedule_at(100, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn clock_advances_and_past_scheduling_clamps() {
        let mut q = EventQueue::new();
        q.schedule_at(500, "x");
        assert_eq!(q.pop().unwrap().0, 500);
        assert_eq!(q.now(), 500);
        // Scheduling in the past clamps to now.
        q.schedule_at(100, "y");
        assert_eq!(q.pop().unwrap().0, 500);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(1000, "a");
        q.pop();
        q.schedule_in(50, "b");
        assert_eq!(q.pop().unwrap().0, 1050);
        assert!(q.pop().is_none());
    }
}
