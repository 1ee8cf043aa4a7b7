//! Ablation benches (DESIGN.md §5): run the three what-if scenarios,
//! print the before/after comparison, and time the end-to-end
//! simulation itself (the system's headline performance number).

use criterion::{criterion_group, criterion_main, Criterion};
use satwatch_scenario::{experiments, run, ScenarioConfig};
use std::hint::black_box;
use std::sync::Once;

fn ablation_cfg() -> ScenarioConfig {
    ScenarioConfig::tiny().with_customers(200).with_seed(0xab1a)
}

fn print_ablations_once() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let base = experiments::ablation_summary(ablation_cfg());
        let no_pep = experiments::ablation_summary(ablation_cfg().without_pep());
        let af_gs = experiments::ablation_summary(ablation_cfg().with_african_ground_station());
        let op_dns = experiments::ablation_summary(ablation_cfg().with_forced_operator_dns());
        println!("\n================ Ablations (A1/A2/A3) ================");
        println!("{:<34} {:>10} {:>10} {:>10} {:>10}", "metric", "baseline", "no PEP", "African GS", "op DNS");
        println!(
            "{:<34} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            "TLS time-to-first-byte (s)", base.ttfb_s, no_pep.ttfb_s, af_gs.ttfb_s, op_dns.ttfb_s
        );
        println!(
            "{:<34} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            "African ground RTT median (ms)",
            base.african_ground_rtt_ms,
            no_pep.african_ground_rtt_ms,
            af_gs.african_ground_rtt_ms,
            op_dns.african_ground_rtt_ms
        );
        println!(
            "{:<34} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            "DNS response median (ms)",
            base.dns_median_ms,
            no_pep.dns_median_ms,
            af_gs.dns_median_ms,
            op_dns.dns_median_ms
        );
        println!(
            "{:<34} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
            "satellite RTT median (ms)",
            base.sat_rtt_median_ms,
            no_pep.sat_rtt_median_ms,
            af_gs.sat_rtt_median_ms,
            op_dns.sat_rtt_median_ms
        );
    });
}

fn ablation_pep(c: &mut Criterion) {
    print_ablations_once();
    // time a small end-to-end run without the PEP
    let cfg = ScenarioConfig::tiny().with_customers(30).without_pep();
    c.bench_function("ablation_pep_run30", |b| b.iter(|| black_box(run(cfg))));
}

fn ablation_ground_station(c: &mut Criterion) {
    print_ablations_once();
    let cfg = ScenarioConfig::tiny().with_customers(30).with_african_ground_station();
    c.bench_function("ablation_african_gs_run30", |b| b.iter(|| black_box(run(cfg))));
}

fn ablation_force_dns(c: &mut Criterion) {
    print_ablations_once();
    let cfg = ScenarioConfig::tiny().with_customers(30).with_forced_operator_dns();
    c.bench_function("ablation_force_dns_run30", |b| b.iter(|| black_box(run(cfg))));
}

fn scenario_run_baseline(c: &mut Criterion) {
    // end-to-end simulation throughput: the system's headline cost
    let cfg = ScenarioConfig::tiny().with_customers(30);
    c.bench_function("scenario_run30_baseline", |b| b.iter(|| black_box(run(cfg))));
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(10);
    targets = ablation_pep, ablation_ground_station, ablation_force_dns, scenario_run_baseline
}
criterion_main!(ablations);
