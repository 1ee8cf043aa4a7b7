//! The tournament merge against the reference's event heap.
//!
//! `ColMerge` is harness only (the benchmark's replica of the day loop
//! before passes), but its order is the one the pass driver and the
//! reference share: `(time, push order, row)`. An integration test
//! because the heap lives in `satwatch-oracle`, which links the
//! library build of this crate, not its unit-test build.

use satwatch_oracle::EventQueue;
use satwatch_simcore::{ColMerge, Rng, SimTime};

/// The determinism keystone: interleaved push/pop against the
/// `EventQueue` heap must agree item for item, including time ties
/// within and across runs.
#[test]
fn matches_event_queue_order_under_random_interleaving() {
    let mut rng = Rng::new(0xa11_0c8);
    for _round in 0..20 {
        let mut m: ColMerge<Vec<(SimTime, u32)>> = ColMerge::new();
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
        let got: Vec<(SimTime, u32)> = std::iter::from_fn(|| m.pop_with(|t, run, i| (t, run[i].1))).collect();
        let want: Vec<(SimTime, u32)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got.len(), expected_pushes);
        assert_eq!(got, want);
    }
}
