//! DNS-resolver choice vs CDN server-selection drill-down (paper
//! §6.3–6.4, Fig 10 and Tables 2/4/5).
//!
//! Shows (a) which resolvers customers in each country actually use
//! and how long resolutions take through the satellite architecture,
//! (b) how the resolver choice changes which CDN node serves the same
//! domain, and (c) what forcing the operator resolver would win.
//!
//! ```text
//! cargo run --release --example dns_cdn_study [customers]
//! ```

use satwatch::scenario::{experiments, run_streaming, ScenarioConfig};

fn main() {
    let customers: u32 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(400);
    let cfg = ScenarioConfig::tiny().with_customers(customers);

    eprintln!("baseline run ({customers} customers) …");
    let ds = run_streaming(cfg);
    let reports = experiments::paper_reports_columnar(&ds.frame, &ds.dns, &ds.enrichment, 5, 1);
    println!("{}", reports.fig10.render());

    println!("Ground RTT per (domain, resolver) — Table 2/4/5 drill-down:");
    let table = &reports.table2;
    let interesting = ["apple.com", "whatsapp.net", "googlevideo.com", "nflxvideo.net", "qq.com", "tiktokcdn.com"];
    for (d, c, r, rtt, n) in &table.rows {
        if interesting.contains(&d.as_str()) {
            println!("  {d:<18} {:<13} {:<12} {rtt:>7.1} ms  ({n} flows)", c.name(), r.name());
        }
    }

    // The §6.4 mitigation: force everyone onto the operator resolver.
    eprintln!("\nA2 ablation runs (baseline, forced operator DNS) …");
    let base = experiments::ablation_summary(cfg);
    let with = experiments::ablation_summary(cfg.with_forced_operator_dns());
    println!("\nA2 ablation: force the operator resolver");
    println!("  median DNS response:     {:>7.1} ms → {:>6.1} ms", base.dns_median_ms, with.dns_median_ms);
    println!(
        "  median African ground RTT: {:>5.1} ms → {:>6.1} ms",
        base.african_ground_rtt_ms, with.african_ground_rtt_ms
    );
}
