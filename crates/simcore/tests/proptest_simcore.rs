//! Property tests for the simulation core: time arithmetic, event
//! ordering, statistics invariants, and distribution sanity.

use proptest::prelude::*;
use satwatch_simcore::dist::{Categorical, LogNormal, Sample};
use satwatch_simcore::stats::{quantile_sorted, BoxplotSummary, Cdf, Running};
use satwatch_simcore::{EventQueue, Rng, SimDuration, SimTime};

proptest! {
    #[test]
    fn time_add_sub_inverse(base in 0u64..u64::MAX / 4, delta in 0i64..i64::MAX / 4) {
        let t = SimTime::from_nanos(base);
        let d = SimDuration::from_nanos(delta);
        let t2 = t + d;
        prop_assert_eq!(t2 - t, d);
        prop_assert_eq!(t2 + (-d), t);
    }

    #[test]
    fn duration_scaling_consistent(ms in 1i64..1_000_000, k in 1i64..1000) {
        let d = SimDuration::from_millis(ms);
        prop_assert_eq!(d * k / k, d);
        prop_assert_eq!((d * k).as_nanos(), d.as_nanos() * k);
    }

    #[test]
    fn local_hour_always_valid(secs in 0u64..(400 * 86_400), tz in -12i32..=14) {
        let h = SimTime::from_secs(secs).local_hour(tz);
        prop_assert!(h < 24);
    }

    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    #[test]
    fn event_queue_fifo_among_equal_times(n in 1usize..100) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_secs(42), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn running_matches_batch_statistics(values in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut r = Running::new();
        for &v in &values {
            r.push(v);
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((r.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert_eq!(r.min(), min);
        prop_assert_eq!(r.max(), max);
        prop_assert!(r.variance() >= -1e-9);
    }

    #[test]
    fn running_merge_associative(a in proptest::collection::vec(-1e3f64..1e3, 0..50),
                                 b in proptest::collection::vec(-1e3f64..1e3, 0..50)) {
        let mut merged = Running::new();
        for &v in a.iter().chain(&b) {
            merged.push(v);
        }
        let mut ra = Running::new();
        let mut rb = Running::new();
        for &v in &a { ra.push(v); }
        for &v in &b { rb.push(v); }
        ra.merge(&rb);
        prop_assert_eq!(ra.count(), merged.count());
        if merged.count() > 0 {
            prop_assert!((ra.mean() - merged.mean()).abs() < 1e-9);
            prop_assert!((ra.variance() - merged.variance()).abs() < 1e-6);
        }
    }

    #[test]
    fn quantiles_within_range(mut values in proptest::collection::vec(-1e6f64..1e6, 1..200),
                              q in 0.0f64..=1.0) {
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let v = quantile_sorted(&values, q);
        prop_assert!(v >= values[0] - 1e-9);
        prop_assert!(v <= values[values.len() - 1] + 1e-9);
    }

    #[test]
    fn boxplot_ordering(values in proptest::collection::vec(0f64..1e6, 2..200)) {
        let b = BoxplotSummary::from_values(&values).unwrap();
        prop_assert!(b.p5 <= b.q1 + 1e-9);
        prop_assert!(b.q1 <= b.median + 1e-9);
        prop_assert!(b.median <= b.q3 + 1e-9);
        prop_assert!(b.q3 <= b.p95 + 1e-9);
        prop_assert_eq!(b.count, values.len());
    }

    #[test]
    fn cdf_is_monotone_and_normalised(values in proptest::collection::vec(-1e4f64..1e4, 1..200)) {
        let cdf = Cdf::from_values(&values);
        let mut last_p = 0.0;
        for &(x, p) in &cdf.points {
            prop_assert!(p >= last_p);
            prop_assert!(p <= 1.0 + 1e-12);
            last_p = p;
            prop_assert!(cdf.at(x) == p || (cdf.at(x) - p).abs() < 1e-12, "self-consistency at {x}");
        }
        prop_assert!((last_p - 1.0).abs() < 1e-12);
        // ccdf complements cdf
        for &(x, _) in cdf.points.iter().take(10) {
            prop_assert!((cdf.at(x) + cdf.ccdf_at(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rng_below_always_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut rng = Rng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(n) < n);
        }
    }

    #[test]
    fn categorical_indexes_in_bounds(weights in proptest::collection::vec(0.001f64..100.0, 1..30),
                                     seed in any::<u64>()) {
        let c = Categorical::new(&weights);
        let mut rng = Rng::new(seed);
        for _ in 0..200 {
            prop_assert!(c.sample_index(&mut rng) < weights.len());
        }
    }

    #[test]
    fn lognormal_samples_positive(median in 0.001f64..1e9, sigma in 0.0f64..3.0, seed in any::<u64>()) {
        let d = LogNormal::from_median(median, sigma);
        let mut rng = Rng::new(seed);
        for _ in 0..50 {
            prop_assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn fork_label_independence(seed in any::<u64>()) {
        // two forks of the same tree with different labels never start
        // with the same 4 outputs (overwhelming probability; this is a
        // regression guard against label-hash collisions on short strings)
        let tree = satwatch_simcore::SeedTree::new(seed);
        let mut a = tree.rng("alpha");
        let mut b = tree.rng("beta");
        let va: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        prop_assert_ne!(va, vb);
    }
}
