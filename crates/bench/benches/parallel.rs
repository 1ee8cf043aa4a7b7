//! The cost of `ordered_par_map`'s scoped pool at 1/2/4/8 workers (the
//! analytics scans are its only users), plus the SipHash-vs-FxHash
//! micro-comparison that motivated the in-tree hasher.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::Ipv4Addr;

const WORKER_COUNTS: &[usize] = &[1, 2, 4, 8];

/// SipHash (std default) vs the in-tree FxHash on the probe's hottest
/// key shapes: the 5-tuple-ish NAT key and a full flow key insert/find
/// cycle. This is the delta that justified swapping the hasher in the
/// flow table, NAT, and aggregation maps.
fn hasher_comparison(c: &mut Criterion) {
    let keys: Vec<(Ipv4Addr, u16)> =
        (0..4_096u32).map(|i| (Ipv4Addr::from(0x0a00_0000 | i), (i % 60_000) as u16 + 1_024)).collect();
    let mut group = c.benchmark_group("hasher");
    group.throughput(Throughput::Elements(keys.len() as u64));
    group.bench_function("siphash_nat_key_insert_get", |b| {
        b.iter(|| {
            let mut m: HashMap<(Ipv4Addr, u16), u64> = HashMap::with_capacity(keys.len());
            for (i, k) in keys.iter().enumerate() {
                m.insert(*k, i as u64);
            }
            let mut acc = 0u64;
            for k in &keys {
                acc = acc.wrapping_add(*m.get(k).unwrap());
            }
            black_box(acc)
        })
    });
    group.bench_function("fxhash_nat_key_insert_get", |b| {
        b.iter(|| {
            let mut m = satwatch_simcore::fx_map_with_capacity::<(Ipv4Addr, u16), u64>(keys.len());
            for (i, k) in keys.iter().enumerate() {
                m.insert(*k, i as u64);
            }
            let mut acc = 0u64;
            for k in &keys {
                acc = acc.wrapping_add(*m.get(k).unwrap());
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// `ordered_par_map` overhead: a trivially small map should not pay
/// much for the scoped pool, and a compute-bound map should scale.
fn par_map_overhead(c: &mut Criterion) {
    let items: Vec<u64> = (0..64).collect();
    let mut group = c.benchmark_group("par_map");
    for &w in WORKER_COUNTS {
        group.bench_function(&format!("spin_64_items_workers_{w}"), |b| {
            b.iter(|| {
                let out = satwatch_simcore::ordered_par_map(w, &items, |_, &x| {
                    // ~10 µs of integer work per item
                    let mut acc = x;
                    for i in 0..10_000u64 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                    }
                    acc
                });
                black_box(out)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = parallel;
    config = Criterion::default();
    targets = hasher_comparison, par_map_overhead
}
criterion_main!(parallel);
