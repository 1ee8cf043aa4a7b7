//! Discrete-event simulation core.
//!
//! A deliberately small, deterministic engine in the smoltcp spirit:
//! no async runtime, no trait objects on the hot path, just a binary
//! heap of timestamped events with stable FIFO tie-breaking so that
//! identical inputs replay identically.

use satwatch_simcore::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event queue over an application-defined event type `E`.
///
/// Events scheduled for the same instant are delivered in scheduling
/// order (a monotone sequence number breaks ties), which keeps the
/// simulation deterministic regardless of heap internals.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to pop the earliest first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> EventQueue<E> {
        EventQueue { heap: BinaryHeap::new(), seq: 0, now: SimTime::ZERO }
    }

    /// Current simulation clock: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past
    /// is a logic error and panics in debug builds; in release the
    /// event fires "now" (never travels back in time).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduling into the past: {at:?} < {:?}", self.now);
        let at = at.max(self.now);
        self.heap.push(Entry { at, seq: self.seq, event });
        self.seq += 1;
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| {
            debug_assert!(e.at >= self.now);
            self.now = e.at;
            (e.at, e.event)
        })
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drain events up to and including `horizon`, calling `handler`
    /// for each. The handler may schedule new events. Returns the
    /// number of events processed.
    pub fn run_until<F>(&mut self, horizon: SimTime, mut handler: F) -> u64
    where
        F: FnMut(&mut EventQueue<E>, SimTime, E),
    {
        let mut processed = 0;
        while let Some(at) = self.peek_time() {
            if at > horizon {
                break;
            }
            let (t, ev) = self.pop().expect("peeked event vanished");
            handler(self, t, ev);
            processed += 1;
        }
        // Clock lands on the horizon even if the queue ran dry earlier.
        if self.now < horizon {
            self.now = horizon;
        }
        processed
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satwatch_simcore::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn fifo_tie_breaking() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn run_until_respects_horizon_and_reentrancy() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1u32);
        q.schedule(SimTime::from_secs(10), 2u32);
        let mut seen = Vec::new();
        let n = q.run_until(SimTime::from_secs(5), |q, t, e| {
            seen.push(e);
            if e == 1 {
                // handler schedules a follow-up inside the horizon
                q.schedule(t + SimDuration::from_secs(2), 3u32);
            }
        });
        assert_eq!(n, 2);
        assert_eq!(seen, [1, 3]);
        assert_eq!(q.now(), SimTime::from_secs(5));
        assert_eq!(q.len(), 1); // event at t=10 still queued
    }

    #[test]
    fn run_until_empty_queue_advances_clock() {
        let mut q: EventQueue<()> = EventQueue::new();
        let n = q.run_until(SimTime::from_secs(7), |_, _, _| {});
        assert_eq!(n, 0);
        assert_eq!(q.now(), SimTime::from_secs(7));
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn past_scheduling_clamps_in_release() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }
}
