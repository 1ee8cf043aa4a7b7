//! Run-merge scheduling: a tournament-tree k-way merge over per-flow
//! packet runs.
//!
//! The scenario's flow synthesizer emits each flow's packets as one
//! batch (a *run*). Scheduling those packets individually through the
//! global [`EventQueue`](crate::EventQueue) heap means hundreds of
//! thousands of ~100-byte events sifting through a binary heap; this
//! merge was the day loop's answer until the probe learned to read the
//! runs a pass at a time (`satwatch_monitor::pass`), which needs no
//! merged stream at all. It stays for the benchmark harness's replica
//! of that older loop and as the oracle the pass driver is tested
//! against (`crates/monitor/tests/pass_equivalence.rs`).
//!
//! [`ColMerge`] keeps every run in place (one buffer per live flow,
//! recycled through an internal pool) and merges them with a
//! tournament (selection) tree: an array tournament whose root is the
//! global winner. Popping the winner advances one cursor and replays
//! a single leaf-to-root path — `O(log k)` comparisons on 16-byte
//! keys, no element moves. Internal nodes store the *winner* of each
//! subtree rather than the classic loser-tree loser: runs are pushed
//! and retired at arbitrary leaves while the merge is live, and a
//! non-winner leaf's replay path only sees correct opponents if each
//! node can name its sibling subtree's winner.
//!
//! The merge is generic over [`TimedRun`]: any indexable container of
//! time-sorted rows. The scenario's struct-of-arrays `PacketColumns`
//! is the production instance; `Vec<(SimTime, T)>` is the row-oriented
//! one the unit tests below drive. The merge only touches `time_at`,
//! never the row payloads.
//!
//! # Ordering contract
//!
//! The merge key is `(SimTime, run_id)` where `run_id` is assigned
//! monotonically at [`push`](ColMerge::push) time; within a run,
//! items pop in index order. DESIGN.md ("The packet path and its
//! reference") spells out why this reproduces the event queue's
//! `(at, seq)` FIFO order exactly when runs are pushed in flow-start
//! order and each run is stable-sorted by time.

use crate::time::SimTime;
use std::sync::OnceLock;

/// Sentinel key: sorts after every real `(time, run_id)` key.
const EXHAUSTED: (SimTime, u64) = (SimTime::MAX, u64::MAX);

/// A time-sorted run of rows the merge can schedule: random access to
/// row timestamps plus reset-for-reuse. Rows themselves stay opaque;
/// consumers read them out of the run by index range.
pub trait TimedRun: Default {
    fn len(&self) -> usize;
    /// Timestamp of row `i`; `i < self.len()`.
    fn time_at(&self, i: usize) -> SimTime;
    /// Reset to empty, keeping allocations for reuse.
    fn clear(&mut self);
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> TimedRun for Vec<(SimTime, T)> {
    fn len(&self) -> usize {
        Vec::len(self)
    }
    fn time_at(&self, i: usize) -> SimTime {
        self[i].0
    }
    fn clear(&mut self) {
        Vec::clear(self)
    }
}

/// Telemetry handles, resolved once. Write-only: the merge never
/// reads these back, so observation cannot change pop order.
struct Metrics {
    runs: &'static satwatch_telemetry::Counter,
    run_len: &'static satwatch_telemetry::Histogram,
    live_runs: &'static satwatch_telemetry::Gauge,
    buffers_recycled: &'static satwatch_telemetry::Counter,
}

fn metrics() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        runs: satwatch_telemetry::counter("simcore_merge_runs_total"),
        run_len: satwatch_telemetry::histogram("simcore_merge_run_len"),
        live_runs: satwatch_telemetry::gauge("simcore_merge_live_runs"),
        buffers_recycled: satwatch_telemetry::counter("simcore_merge_buffers_recycled_total"),
    })
}

struct Slot<R> {
    /// Time-sorted run; empty for a free slot.
    run: R,
    pos: usize,
    run_id: u64,
}

impl<R: TimedRun> Slot<R> {
    fn key(&self) -> (SimTime, u64) {
        if self.pos < self.run.len() {
            (self.run.time_at(self.pos), self.run_id)
        } else {
            EXHAUSTED
        }
    }
}

/// A k-way merge of time-sorted runs with tournament-tree selection,
/// generic over the run representation (see [`TimedRun`]).
///
/// Capacity grows by doubling as live runs accumulate; exhausted
/// runs return their buffers to an internal pool so a steady-state
/// merge performs no allocation per run.
pub struct ColMerge<R: TimedRun> {
    /// `k` leaf slots, one per (potential) live run.
    slots: Vec<Slot<R>>,
    /// Tournament tree over the slots: `tree[n]` (for `1 <= n < k`)
    /// is the winning slot of the subtree rooted at internal node
    /// `n`; leaf `i` sits at virtual node `k + i`. `tree[1]` is the
    /// overall winner; `tree[0]` is unused padding.
    tree: Vec<usize>,
    /// Each slot's current head key `(time, run_id)` — `EXHAUSTED`
    /// for free/finished slots. A dense mirror of `Slot::key()` so
    /// tournament replays and contender walks stay in one small
    /// cache-resident array instead of chasing into every run's
    /// timestamp column.
    keys: Vec<(SimTime, u64)>,
    /// Free slot indices.
    free: Vec<usize>,
    /// Recycled run buffers, handed back out by [`take_buffer`](Self::take_buffer).
    pool: Vec<R>,
    next_run_id: u64,
    len: usize,
}

impl<R: TimedRun> ColMerge<R> {
    pub fn new() -> ColMerge<R> {
        let k = 4;
        let mut m = ColMerge {
            slots: (0..k).map(|_| Slot { run: R::default(), pos: 0, run_id: u64::MAX }).collect(),
            keys: vec![EXHAUSTED; k],
            tree: vec![0; k],
            free: (0..k).rev().collect(),
            pool: Vec::new(),
            next_run_id: 0,
            len: 0,
        };
        m.rebuild();
        m
    }

    /// Items remaining across all runs.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A recycled (or fresh) buffer to build the next run in.
    pub fn take_buffer(&mut self) -> R {
        self.pool.pop().unwrap_or_default()
    }

    /// Add a run. `run` must already be sorted by time (stable with
    /// respect to emission order — equal-time rows keep their order).
    /// Runs pushed earlier win time ties against runs pushed later.
    pub fn push(&mut self, run: R) {
        debug_assert!((1..run.len()).all(|i| run.time_at(i - 1) <= run.time_at(i)), "run not time-sorted");
        if run.is_empty() {
            self.recycle(run);
            return;
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => self.grow(),
        };
        let m = metrics();
        m.runs.inc();
        m.run_len.record(run.len() as u64);
        m.live_runs.inc();
        self.len += run.len();
        self.keys[slot] = (run.time_at(0), self.next_run_id);
        self.slots[slot] = Slot { run, pos: 0, run_id: self.next_run_id };
        self.next_run_id += 1;
        self.update(slot);
    }

    /// Timestamp of the next item, if any.
    pub fn peek(&self) -> Option<SimTime> {
        let (t, _) = self.keys[self.tree[1]];
        (t != SimTime::MAX).then_some(t)
    }

    /// Pop the next row, passing `f` the winning run and the row's
    /// index within it (rows stay in their run's buffer; nothing is
    /// moved). Returns `None` if the merge is empty.
    pub fn pop_with<Res>(&mut self, f: impl FnOnce(SimTime, &R, usize) -> Res) -> Option<Res> {
        let slot = self.tree[1];
        let s = &self.slots[slot];
        if s.pos >= s.run.len() {
            return None;
        }
        let out = f(s.run.time_at(s.pos), &s.run, s.pos);
        let s = &mut self.slots[slot];
        s.pos += 1;
        let exhausted = s.pos == s.run.len();
        self.len -= 1;
        if exhausted {
            self.retire(slot);
        } else {
            self.keys[slot] = self.slots[slot].key();
        }
        self.update(slot);
        Some(out)
    }

    /// Drain a contiguous span of the winning run, passing `f` the run
    /// and the `[start, end)` row range. The span covers every row of
    /// that run at time `<= upto` that is guaranteed to sort before
    /// (or, by the run-id tie rule, at) every other run's head — i.e.
    /// exactly the rows [`pop_with`](Self::pop_with) would yield
    /// consecutively from this run before switching runs. Genuinely
    /// interleaved runs degrade to length-1 spans, so span draining is
    /// always order-identical to per-row popping.
    ///
    /// Returns `None` when the merge is empty or its head is after
    /// `upto`.
    pub fn next_span_upto<Res>(&mut self, upto: SimTime, f: impl FnOnce(&R, usize, usize) -> Res) -> Option<Res> {
        let slot = self.tree[1];
        let (t0, run_id) = self.keys[slot];
        if t0 == SimTime::MAX || t0 > upto {
            return None;
        }
        // Second-best key among all *other* runs: the minimum over the
        // sibling subtrees on the winner's leaf-to-root path. O(log k).
        let k = self.slots.len();
        let mut contender = EXHAUSTED;
        let mut node = slot + k;
        while node > 1 {
            let key = self.keys[self.winner_at(node ^ 1)];
            if key < contender {
                contender = key;
            }
            node /= 2;
        }
        // Inclusive emission limit. A head-time tie with the contender
        // goes to the lower run_id, so the winner may emit *through*
        // the contender's head time iff its run_id is lower. In the
        // other branch `t0 < contender.0` strictly (the winner's key is
        // the minimum and equal keys are impossible), so the -1 ns
        // cannot underflow below `t0`.
        let limit = if contender == EXHAUSTED {
            upto
        } else if run_id < contender.1 {
            upto.min(contender.0)
        } else {
            upto.min(SimTime::from_nanos(contender.0.as_nanos() - 1))
        };
        let s = &self.slots[slot];
        let mut end = s.pos + 1;
        while end < s.run.len() && s.run.time_at(end) <= limit {
            end += 1;
        }
        let out = f(&s.run, s.pos, end);
        let s = &mut self.slots[slot];
        self.len -= end - s.pos;
        s.pos = end;
        if end == s.run.len() {
            self.retire(slot);
        } else {
            self.keys[slot] = self.slots[slot].key();
        }
        self.update(slot);
        Some(out)
    }

    /// Drop all remaining items, recycling every buffer. Used at a
    /// simulation horizon to truncate the tail.
    pub fn clear(&mut self) {
        for slot in 0..self.slots.len() {
            if !self.slots[slot].run.is_empty() {
                self.retire(slot);
            }
        }
        self.len = 0;
        self.rebuild();
    }

    /// Move an exhausted (or abandoned) slot's buffer to the pool and
    /// free the slot.
    fn retire(&mut self, slot: usize) {
        let buf = std::mem::take(&mut self.slots[slot].run);
        self.recycle(buf);
        self.slots[slot].pos = 0;
        self.keys[slot] = EXHAUSTED;
        self.free.push(slot);
        metrics().live_runs.dec();
    }

    fn recycle(&mut self, mut buf: R) {
        buf.clear();
        if self.pool.len() < 64 {
            metrics().buffers_recycled.inc();
            self.pool.push(buf);
        }
    }

    /// Winning slot of the subtree hanging off tree position `node`
    /// (positions `>= k` are the leaves themselves).
    #[inline]
    fn winner_at(&self, node: usize) -> usize {
        let k = self.slots.len();
        if node >= k {
            node - k
        } else {
            self.tree[node]
        }
    }

    /// Replay the matches on the path from `slot`'s leaf to the root.
    /// Each node re-reads both children, so this is correct for *any*
    /// leaf — not just the current winner's — which `push` needs.
    fn update(&mut self, slot: usize) {
        let k = self.slots.len();
        let mut node = (slot + k) / 2;
        while node >= 1 {
            let a = self.winner_at(2 * node);
            let b = self.winner_at(2 * node + 1);
            self.tree[node] = if self.keys[a] <= self.keys[b] { a } else { b };
            node /= 2;
        }
    }

    /// Double capacity, returning a fresh free slot.
    fn grow(&mut self) -> usize {
        let k = self.slots.len();
        self.slots.extend((0..k).map(|_| Slot { run: R::default(), pos: 0, run_id: u64::MAX }));
        self.keys.resize(2 * k, EXHAUSTED);
        self.free.extend((k..2 * k).rev());
        self.tree = vec![0; 2 * k];
        self.rebuild();
        self.free.pop().expect("grow produced free slots")
    }

    /// Rebuild the whole tree bottom-up. `k` stays a power of two so
    /// the tournament is a complete binary tree: internal nodes are
    /// `1..k`, and node `n`'s children are `2n` and `2n + 1`.
    fn rebuild(&mut self) {
        let k = self.slots.len();
        for node in (1..k).rev() {
            let a = self.winner_at(2 * node);
            let b = self.winner_at(2 * node + 1);
            self.tree[node] = if self.keys[a] <= self.keys[b] { a } else { b };
        }
    }
}

impl<R: TimedRun> Default for ColMerge<R> {
    fn default() -> Self {
        ColMerge::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::EventQueue;

    /// The row-oriented instance every test below merges.
    type RowMerge<T> = ColMerge<Vec<(SimTime, T)>>;

    fn drain<T: Clone>(m: &mut RowMerge<T>) -> Vec<(SimTime, T)> {
        std::iter::from_fn(|| m.pop_with(|t, run, i| (t, run[i].1.clone()))).collect()
    }

    #[test]
    fn merges_two_runs_in_time_order() {
        let mut m = RowMerge::new();
        m.push(vec![(SimTime::from_secs(1), "a1"), (SimTime::from_secs(4), "a2")]);
        m.push(vec![(SimTime::from_secs(2), "b1"), (SimTime::from_secs(3), "b2")]);
        let order: Vec<&str> = drain(&mut m).into_iter().map(|(_, v)| v).collect();
        assert_eq!(order, ["a1", "b1", "b2", "a2"]);
        assert!(m.is_empty());
    }

    #[test]
    fn earlier_run_wins_time_ties() {
        let mut m = RowMerge::new();
        let t = SimTime::from_secs(5);
        m.push(vec![(t, "first")]);
        m.push(vec![(t, "second")]);
        m.push(vec![(t, "third")]);
        let order: Vec<&str> = drain(&mut m).into_iter().map(|(_, v)| v).collect();
        assert_eq!(order, ["first", "second", "third"]);
    }

    #[test]
    fn within_run_order_is_preserved_at_equal_times() {
        let mut m = RowMerge::new();
        let t = SimTime::from_secs(1);
        m.push(vec![(t, 0), (t, 1), (t, 2)]);
        let order: Vec<i32> = drain(&mut m).into_iter().map(|(_, v)| v).collect();
        assert_eq!(order, [0, 1, 2]);
    }

    #[test]
    fn empty_runs_are_ignored_and_buffers_recycle() {
        let mut m: RowMerge<u8> = ColMerge::new();
        let buf = m.take_buffer();
        m.push(buf);
        assert!(m.is_empty());
        assert_eq!(m.peek(), None);
        let mut buf = m.take_buffer();
        buf.push((SimTime::from_secs(1), 7));
        m.push(buf);
        assert_eq!(m.peek(), Some(SimTime::from_secs(1)));
        assert_eq!(drain(&mut m), vec![(SimTime::from_secs(1), 7)]);
        // the exhausted run's buffer comes back with capacity
        assert!(m.take_buffer().capacity() > 0);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = RowMerge::new();
        for i in 0..100u64 {
            m.push(vec![(SimTime::from_secs(i), i)]);
        }
        assert_eq!(m.len(), 100);
        let order: Vec<u64> = drain(&mut m).into_iter().map(|(_, v)| v).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clear_recycles_everything() {
        let mut m = RowMerge::new();
        for i in 0..10u64 {
            m.push(vec![(SimTime::from_secs(i), i), (SimTime::from_secs(i + 1), i)]);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.peek(), None);
        // and the merge is still usable afterwards
        m.push(vec![(SimTime::from_secs(3), 42)]);
        assert_eq!(drain(&mut m), vec![(SimTime::from_secs(3), 42)]);
    }

    fn drain_batched<T: Clone>(m: &mut RowMerge<T>, upto: SimTime) -> (Vec<(SimTime, T)>, Vec<usize>) {
        let mut out = Vec::new();
        let mut lens = Vec::new();
        while let Some(n) = m.next_span_upto(upto, |run, start, end| {
            out.extend_from_slice(&run[start..end]);
            end - start
        }) {
            lens.push(n);
        }
        (out, lens)
    }

    #[test]
    fn batch_drain_yields_whole_run_when_uncontended() {
        let mut m = RowMerge::new();
        m.push(vec![(SimTime::from_secs(1), "a1"), (SimTime::from_secs(2), "a2"), (SimTime::from_secs(3), "a3")]);
        m.push(vec![(SimTime::from_secs(10), "b1")]);
        let (items, lens) = drain_batched(&mut m, SimTime::MAX);
        assert_eq!(items.iter().map(|&(_, v)| v).collect::<Vec<_>>(), ["a1", "a2", "a3", "b1"]);
        // run a is entirely before run b's head: one slice each
        assert_eq!(lens, [3, 1]);
    }

    #[test]
    fn batch_drain_respects_upto_bound() {
        let mut m = RowMerge::new();
        m.push(vec![(SimTime::from_secs(1), 1), (SimTime::from_secs(5), 5), (SimTime::from_secs(9), 9)]);
        let (items, _) = drain_batched(&mut m, SimTime::from_secs(5));
        assert_eq!(items.iter().map(|&(_, v)| v).collect::<Vec<_>>(), [1, 5]);
        assert_eq!(m.len(), 1);
        assert_eq!(m.peek(), Some(SimTime::from_secs(9)));
    }

    #[test]
    fn batch_drain_splits_interleaved_runs_correctly() {
        let mut m = RowMerge::new();
        m.push(vec![(SimTime::from_secs(1), "a1"), (SimTime::from_secs(4), "a2")]);
        m.push(vec![(SimTime::from_secs(2), "b1"), (SimTime::from_secs(3), "b2")]);
        let (items, _) = drain_batched(&mut m, SimTime::MAX);
        assert_eq!(items.iter().map(|&(_, v)| v).collect::<Vec<_>>(), ["a1", "b1", "b2", "a2"]);
    }

    #[test]
    fn batch_drain_gives_ties_to_earlier_run() {
        let mut m = RowMerge::new();
        let t = SimTime::from_secs(5);
        // run 0: head at t, tail past t. run 1: head at t. The tie at
        // t goes to run 0, which may emit *through* t before run 1.
        m.push(vec![(t, "a1"), (t, "a2"), (SimTime::from_secs(6), "a3")]);
        m.push(vec![(t, "b1")]);
        let (items, _) = drain_batched(&mut m, SimTime::MAX);
        assert_eq!(items.iter().map(|&(_, v)| v).collect::<Vec<_>>(), ["a1", "a2", "b1", "a3"]);
    }

    /// Batch drain must reproduce `pop_with` order exactly — same
    /// random-interleaving regime as the event-queue keystone below.
    #[test]
    fn batch_drain_matches_pop_order_under_random_interleaving() {
        let mut rng = Rng::new(0xba7c4);
        for _round in 0..20 {
            let mut batched = RowMerge::new();
            let mut popped = RowMerge::new();
            for _ in 0..rng.below(40) {
                let n = rng.below(12) as usize;
                let mut run: Vec<(SimTime, u32)> =
                    (0..n).map(|_| (SimTime::from_secs(rng.below(6)), rng.next_u32())).collect();
                run.sort_by_key(|&(t, _)| t);
                batched.push(run.clone());
                popped.push(run);
            }
            // drain in upto-bounded slices to exercise the bound too
            let mut got = Vec::new();
            for upto_s in [1u64, 3, 6] {
                let (items, _) = drain_batched(&mut batched, SimTime::from_secs(upto_s));
                got.extend(items);
            }
            let want = drain(&mut popped);
            assert_eq!(got, want);
            assert!(batched.is_empty());
        }
    }

    /// The determinism keystone: interleaved push/pop against the
    /// `EventQueue` heap must agree item for item, including time
    /// ties within and across runs.
    #[test]
    fn matches_event_queue_order_under_random_interleaving() {
        let mut rng = Rng::new(0xa11_0c8);
        for _round in 0..20 {
            let mut m = RowMerge::new();
            let mut q = EventQueue::new();
            let mut expected_pushes = 0usize;
            for _ in 0..rng.below(40) {
                // build a sorted run with heavy time collisions
                let n = rng.below(12) as usize;
                let mut run: Vec<(SimTime, u32)> =
                    (0..n).map(|_| (SimTime::from_secs(rng.below(6)), rng.next_u32())).collect();
                run.sort_by_key(|&(t, _)| t); // stable: equal times keep draw order
                for &(t, v) in &run {
                    q.schedule(t, v);
                }
                expected_pushes += run.len();
                m.push(run);
            }
            let got = drain(&mut m);
            let mut want = Vec::new();
            while let Some((t, v)) = q.pop() {
                want.push((t, v));
            }
            assert_eq!(got.len(), expected_pushes);
            assert_eq!(got, want);
        }
    }
}
