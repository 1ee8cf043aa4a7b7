//! The span port's pending packets, as the day loop hands them to the
//! probe: one time-sorted run per flow, consumed a *pass* at a time
//! (DESIGN.md §4 "Passes reproduce the heap's order").
//!
//! A pass hands [`Probe::observe_runs`](crate::Probe::observe_runs)
//! every live run's unconsumed rows below one bound, as one slice per
//! run, instead of merging all runs into global `(time, push order)`
//! order first. The flow table keeps per-flow state, so a flow's rows
//! only need to be in order among themselves — which a run's are. What
//! couples flows is the probe's business (the periodic sweep, the DNS
//! log, a five-tuple two runs share, eviction order); this module keeps
//! the runs, finds where a pass must stop for a sweep, and knows which
//! runs share a five-tuple.

use bytes::Bytes;
use satwatch_netstack::columns::UDP_ROW;
use satwatch_netstack::{Packet, PacketColumns};
use satwatch_simcore::SimTime;

/// A per-packet observer of the span port beside the probe (pcap
/// writers, tests): it sees every row, materialized, in merged order.
pub type Tap<'a> = &'a mut dyn FnMut(SimTime, &Packet);

/// Recycled run buffers kept at most: enough for about one cohort's
/// worth of runs to be built without allocating, small enough that a
/// burst of concurrent flows does not pin its high-water mark.
const POOL_CAP: usize = 64;

/// What one [`Probe::observe_runs`](crate::Probe::observe_runs) call
/// did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Passes that had rows: one per bound, plus one per sweep on the
    /// way.
    pub passes: u64,
    pub rows: u64,
    /// Rows that took a merged-order lane: DNS rows, rows of runs that
    /// share a five-tuple, rows a tap saw (a row can count twice).
    pub ordered_rows: u64,
}

/// One run the probe has not finished reading.
pub(crate) struct LiveRun {
    pub(crate) cols: PacketColumns,
    /// First unconsumed row.
    pos: usize,
    /// One past the last row of the pass being read (`pos` between
    /// passes).
    pub(crate) end: usize,
    /// `cols.ts[pos]`, or `SimTime::MAX` once exhausted: lets a pass
    /// skip a run without touching its columns.
    head: SimTime,
    /// Every five-tuple the run's rows spell.
    keys: Vec<FlowKey>,
    /// Another live run holds one of `keys`: this run's rows reach the
    /// flow table in global order with that run's.
    pub(crate) shared: bool,
    /// One past the last row that reads `cols.payload`
    /// ([`PacketColumns::arena_rows_end`]). Once `pos` passes it, no
    /// row left reads the block, and the run lets go of it.
    arena_end: usize,
}

impl LiveRun {
    /// The rows of the pass being read.
    pub(crate) fn slice(&self) -> std::ops::Range<usize> {
        self.pos..self.end
    }
}

/// The live runs, in push order, and the pool their buffers return to.
///
/// Build a run in [`spare`](Self::spare), [`push`](Self::push) it, and
/// let [`Probe::observe_runs`](crate::Probe::observe_runs) consume rows
/// below a bound; a run's buffer goes back to the pool in the pass that
/// exhausts it. [`clear`](Self::clear) drops what is left (a horizon).
///
/// A run drops its payload block in the pass that reads its last row
/// slicing the block, not when the run ends. In the day loop a flow's
/// block bytes are its handshake and DNS and its bulk rows slice the
/// shared zero buffer, so a block shared by a cohort's runs is freed
/// seconds after they start instead of when the longest of them ends.
pub struct LiveRuns {
    pub(crate) live: Vec<LiveRun>,
    pool: Vec<PacketColumns>,
    key_pool: Vec<Vec<FlowKey>>,
    /// Keys of live runs per hash bucket ([`bucket`]). A run whose keys
    /// all land in buckets no other live run occupies shares no
    /// five-tuple; only otherwise are the live runs' keys compared.
    holders: Vec<u32>,
}

impl Default for LiveRuns {
    fn default() -> LiveRuns {
        LiveRuns::new()
    }
}

impl LiveRuns {
    pub fn new() -> LiveRuns {
        LiveRuns { live: Vec::new(), pool: Vec::new(), key_pool: Vec::new(), holders: vec![0; 1 << BUCKET_BITS] }
    }

    /// Live runs (runs with rows left).
    pub fn len(&self) -> usize {
        self.live.len()
    }

    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// An empty buffer to build the next run in — recycled when the
    /// pool has one.
    pub fn spare(&mut self) -> PacketColumns {
        self.pool.pop().unwrap_or_default()
    }

    /// Add a run. Its rows must be sorted by time (equal times keep
    /// emission order); runs pushed earlier win time ties against runs
    /// pushed later.
    pub fn push(&mut self, mut cols: PacketColumns) {
        debug_assert!(cols.ts.windows(2).all(|w| w[0] <= w[1]), "run not time-sorted");
        if cols.is_empty() {
            self.recycle(cols);
            return;
        }
        let mut keys = self.key_pool.pop().unwrap_or_default();
        run_keys(&cols, &mut keys);
        let mut crowded = false;
        for k in &keys {
            let n = &mut self.holders[bucket(k)];
            *n += 1;
            crowded |= *n > 1;
        }
        let mut shared = false;
        if crowded {
            // rare: a bucket collision, or a client port reused while
            // its earlier run is live — every live run holding a key of
            // this one joins it in merged order
            for run in &mut self.live {
                if run.keys.iter().any(|k| keys.contains(k)) {
                    run.shared = true;
                    shared = true;
                }
            }
        }
        let arena_end = cols.arena_rows_end();
        if arena_end == 0 {
            cols.payload = Bytes::new();
        }
        self.live.push(LiveRun { head: cols.ts[0], cols, pos: 0, end: 0, keys, shared, arena_end });
    }

    /// Drop every unconsumed row, recycling the buffers.
    pub fn clear(&mut self) {
        for run in &mut self.live {
            run.pos = run.cols.len();
            run.end = run.pos;
        }
        self.settle();
    }

    /// Set every live run's pass slice: its rows before
    /// `min(boundary, bound)`. When some row lies in `[boundary,
    /// bound)` — the periodic sweep falls due inside this pass — the
    /// earliest such row by `(time, push order)` is the *cut*: it alone
    /// joins the pass, and its time (when the sweep fires) is returned.
    /// Rows tied with it in later runs, or later in its own, wait for
    /// the next pass, as they follow it in the merged order.
    pub(crate) fn plan(&mut self, boundary: SimTime, bound: SimTime) -> Option<SimTime> {
        let stop = boundary.min(bound);
        let mut cut: Option<(SimTime, usize)> = None;
        for (r, run) in self.live.iter_mut().enumerate() {
            // `next`: the first row at or past `stop`, inside the bound
            // only when `stop` was the boundary
            let (mut e, mut next) = (run.pos, run.head);
            if next < stop {
                let ts = &run.cols.ts;
                e += 1;
                while e < ts.len() && ts[e] < stop {
                    e += 1;
                }
                next = ts.get(e).copied().unwrap_or(SimTime::MAX);
            }
            run.end = e;
            if next < bound && cut.is_none_or(|(c, _)| next < c) {
                cut = Some((next, r));
            }
        }
        let (t, r) = cut?;
        self.live[r].end += 1;
        Some(t)
    }

    /// Consume every run's pass slice; runs left empty give their
    /// buffers back.
    pub(crate) fn settle(&mut self) {
        let LiveRuns { live, pool, key_pool, holders } = self;
        live.retain_mut(|run| {
            run.pos = run.end;
            if let Some(&t) = run.cols.ts.get(run.pos) {
                run.head = t;
                if run.pos >= run.arena_end {
                    run.cols.payload = Bytes::new();
                }
                return true;
            }
            for k in run.keys.drain(..) {
                holders[bucket(&k)] -= 1;
            }
            key_pool.push(std::mem::take(&mut run.keys));
            let mut cols = std::mem::take(&mut run.cols);
            cols.clear();
            if pool.len() < POOL_CAP {
                pool.push(cols);
            }
            false
        });
    }

    fn recycle(&mut self, mut cols: PacketColumns) {
        cols.clear();
        if self.pool.len() < POOL_CAP {
            self.pool.push(cols);
        }
    }
}

/// A row's five-tuple, direction-independent: both endpoints as
/// `addr << 16 | port`, the smaller first, and whether it is UDP. Rows
/// with one key belong to one flow-table entry.
type FlowKey = (u64, u64, bool);

/// The distinct [`FlowKey`]s of a run's rows, in first-seen order. A
/// run is one flow and usually its DNS lookup, so most rows only
/// compare equal to the key before.
fn run_keys(cols: &PacketColumns, keys: &mut Vec<FlowKey>) {
    keys.clear();
    let n = cols.len();
    let (src, dst, sport, dport, flags) =
        (&cols.src[..n], &cols.dst[..n], &cols.sport[..n], &cols.dport[..n], &cols.flags[..n]);
    for i in 0..n {
        let a = u64::from(u32::from(src[i])) << 16 | u64::from(sport[i]);
        let b = u64::from(u32::from(dst[i])) << 16 | u64::from(dport[i]);
        let key = (a.min(b), a.max(b), flags[i] == UDP_ROW);
        if keys.last() != Some(&key) && !keys.contains(&key) {
            keys.push(key);
        }
    }
}

/// Bits of a key's hash that pick its [`LiveRuns::holders`] bucket:
/// few enough for the counts to stay in cache, enough that a run
/// rarely meets another in a bucket.
const BUCKET_BITS: u32 = 14;

fn bucket(&(lo, hi, udp): &FlowKey) -> usize {
    let h = (lo ^ hi.rotate_left(29) ^ u64::from(udp)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (h >> (64 - BUCKET_BITS)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn run(rows: &[(u64, u16)]) -> PacketColumns {
        let mut cols = PacketColumns::default();
        let (c, s) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(198, 18, 0, 1));
        for &(t, port) in rows {
            cols.push_udp(SimTime::from_secs(t), c, s, port, 443, satwatch_netstack::columns::NO_ARENA, 0);
        }
        cols
    }

    /// A run of UDP rows at the given seconds, each reading 4 bytes of
    /// `block` or, `false`, the zero buffer.
    fn run_reading(block: &Bytes, rows: &[(u64, bool)]) -> PacketColumns {
        let (payload, zeros) = (block.clone(), Bytes::from_static(&[0; 4]));
        let mut cols = PacketColumns { payload, zeros, ..PacketColumns::default() };
        let (c, s) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(198, 18, 0, 1));
        for &(t, reads) in rows {
            let off = if reads { 0 } else { satwatch_netstack::columns::NO_ARENA };
            cols.push_udp(SimTime::from_secs(t), c, s, 7, 443, off, 4);
        }
        cols
    }

    /// Which live runs still hold their payload block.
    fn holding(runs: &LiveRuns) -> Vec<bool> {
        runs.live.iter().map(|r| !r.cols.payload.is_empty()).collect()
    }

    fn pass(runs: &mut LiveRuns, bound: u64) {
        assert_eq!(runs.plan(SimTime::MAX, SimTime::from_secs(bound)), None);
        runs.settle();
    }

    #[test]
    fn a_run_releases_its_block_in_the_settle_that_passes_its_last_arena_row() {
        let block = Bytes::from(vec![1, 2, 3, 4]);
        let mut runs = LiveRuns::new();
        // arena rows at 1 s and 3 s, zero-buffer rows after them
        runs.push(run_reading(&block, &[(1, true), (2, false), (3, true), (4, false), (9, false)]));
        // no row reads the block: released at push
        runs.push(run_reading(&block, &[(1, false), (5, false)]));
        assert_eq!(holding(&runs), [true, false]);
        pass(&mut runs, 2);
        assert_eq!(holding(&runs), [true, false], "row 2 still reads the block");
        pass(&mut runs, 3);
        assert_eq!(holding(&runs), [true, false], "the pass stopped short of the last arena row");
        pass(&mut runs, 4);
        assert_eq!(holding(&runs), [false, false], "its last arena row is read");
        assert_eq!(runs.len(), 2, "the runs stay live for their zero-buffer rows");
        // what is left still resolves: the zero buffer, not the block
        assert_eq!(runs.live[0].cols.payload_slice(3), [0; 4]);
        pass(&mut runs, 10);
        assert!(runs.is_empty());
    }

    #[test]
    fn a_run_with_arena_rows_to_its_end_keeps_its_block() {
        let block = Bytes::from(vec![5, 6, 7, 8]);
        let mut runs = LiveRuns::new();
        runs.push(run_reading(&block, &[(1, true), (2, true), (3, true)]));
        for bound in [2, 3] {
            pass(&mut runs, bound);
            assert_eq!(holding(&runs), [true], "a later row reads the block (bound {bound} s)");
            assert_eq!(runs.live[0].cols.payload_slice(runs.live[0].pos), [5, 6, 7, 8]);
        }
        pass(&mut runs, 4);
        assert!(runs.is_empty(), "it lets go only as it retires");
    }

    fn slices(runs: &LiveRuns) -> Vec<std::ops::Range<usize>> {
        runs.live.iter().map(LiveRun::slice).collect()
    }

    #[test]
    fn a_pass_stops_at_the_bound_and_cuts_at_the_sweep_row() {
        let mut runs = LiveRuns::new();
        runs.push(run(&[(1, 1), (5, 1), (9, 1)]));
        runs.push(run(&[(5, 2), (6, 2)]));
        // no sweep due before the bound: everything below 5 s
        assert_eq!(runs.plan(SimTime::from_secs(100), SimTime::from_secs(5)), None);
        assert_eq!(slices(&runs), [0..1, 0..0]);
        runs.settle();
        // a sweep due at 5 s: the first run's row at 5 s is the cut,
        // the second run's tied row follows it
        assert_eq!(runs.plan(SimTime::from_secs(4), SimTime::from_secs(10)), Some(SimTime::from_secs(5)));
        assert_eq!(slices(&runs), [1..2, 0..0]);
        runs.settle();
        assert_eq!(runs.plan(SimTime::from_secs(100), SimTime::MAX), None);
        assert_eq!(slices(&runs), [2..3, 0..2]);
        runs.settle();
        assert!(runs.is_empty(), "exhausted runs retire");
        assert_eq!(runs.pool.len(), 2, "their buffers are pooled");
    }

    #[test]
    fn runs_sharing_a_five_tuple_are_marked_and_released() {
        let mut runs = LiveRuns::new();
        runs.push(run(&[(1, 1), (2, 7)]));
        runs.push(run(&[(3, 2)]));
        assert!(runs.live.iter().all(|r| !r.shared));
        runs.push(run(&[(4, 7)]));
        let shared: Vec<bool> = runs.live.iter().map(|r| r.shared).collect();
        assert_eq!(shared, [true, false, true]);
        assert_eq!(runs.live[0].keys.len(), 2, "a run's every five-tuple counts");
        runs.clear();
        assert!(runs.is_empty() && runs.holders.iter().all(|&n| n == 0));
    }
}
