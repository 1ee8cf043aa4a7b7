//! Telemetry overhead on the end-to-end pipeline and on the raw
//! instruments.
//!
//! The subsystem's budget is <2 % wall-clock on a smoke-sized run.
//! Compare the two `pipeline` groups (telemetry enabled vs disabled):
//! the delta is the full recording cost, since the disabled path still
//! pays the branch on the `ENABLED` flag. The `instruments` group
//! prices the primitives themselves — a counter increment is one
//! relaxed `fetch_add`, a histogram record is two plus a CAS-free max
//! update.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use satwatch_scenario::{dataset_digest, run, ScenarioConfig};
use std::hint::black_box;

fn smoke_cfg() -> ScenarioConfig {
    ScenarioConfig::tiny().with_customers(8)
}

fn pipeline_with_telemetry(c: &mut Criterion) {
    satwatch_telemetry::set_enabled(true);
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("smoke_telemetry_on", |b| b.iter(|| black_box(dataset_digest(&run(smoke_cfg())))));
    group.finish();
}

fn pipeline_without_telemetry(c: &mut Criterion) {
    satwatch_telemetry::set_enabled(false);
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("smoke_telemetry_off", |b| b.iter(|| black_box(dataset_digest(&run(smoke_cfg())))));
    group.finish();
    satwatch_telemetry::set_enabled(true);
}

fn instruments(c: &mut Criterion) {
    satwatch_telemetry::set_enabled(true);
    let counter = satwatch_telemetry::counter("bench_counter_total");
    let gauge = satwatch_telemetry::gauge("bench_gauge");
    let hist = satwatch_telemetry::histogram("bench_hist_us");
    let mut group = c.benchmark_group("instruments");
    group.throughput(Throughput::Elements(1));
    group.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    group.bench_function("gauge_add_sub", |b| {
        b.iter(|| {
            gauge.add(3);
            gauge.sub(3);
        })
    });
    group.bench_function("histogram_record", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(black_box(v >> 40));
        })
    });
    group.finish();
}

criterion_group!(benches, pipeline_with_telemetry, pipeline_without_telemetry, instruments);
criterion_main!(benches);
