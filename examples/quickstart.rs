//! Quickstart: simulate a small GEO SatCom deployment for one day,
//! run the passive probe at the ground station, and print the
//! headline reports.
//!
//! ```text
//! cargo run --release --example quickstart [customers] [days] [seed]
//! ```

use satwatch::scenario::experiments::paper_reports_columnar;
use satwatch::scenario::{run_streaming, ScenarioConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let customers: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(300);
    let days: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);

    let cfg = ScenarioConfig::tiny().with_customers(customers).with_days(days).with_seed(seed);
    eprintln!("simulating {customers} customers × {days} day(s), seed {seed} …");
    let t0 = std::time::Instant::now();
    let ds = run_streaming(cfg);
    eprintln!(
        "done in {:.1?}: {} packets, {} flows, {} DNS transactions",
        t0.elapsed(),
        ds.packets,
        ds.frame.len(),
        ds.dns.len()
    );

    // one fused fold over the flow frame fills every table and figure
    let reports = paper_reports_columnar(&ds.frame, &ds.dns, &ds.enrichment, 10, 1);
    println!("{}", reports.table1.render());
    println!("{}", reports.fig2.render());
    println!("{}", reports.fig8a.render());
    println!("{}", reports.fig9.render());
    println!("{}", reports.fig10.render());

    // Satellite-RTT CDF, drawn in the terminal: C = Congo, S = Spain.
    let fig8a = &reports.fig8a;
    if let (Some((_, _, congo_peak)), Some((_, _, spain_peak))) = (
        fig8a.row(satwatch::traffic::Country::Congo).map(|(c, n, p)| (c, n, p)),
        fig8a.row(satwatch::traffic::Country::Spain).map(|(c, n, p)| (c, n, p)),
    ) {
        println!("Satellite RTT CDF at peak time (C = Congo, S = Spain), seconds:");
        print!("{}", satwatch::analytics::ascii::cdf_chart(&[('C', congo_peak), ('S', spain_peak)], 0.5, 3.0, 60, 12));
    }
}
