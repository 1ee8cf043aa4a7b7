//! Per-country usage & performance dashboard.
//!
//! Reproduces the paper's per-country story in one run: who the
//! customers are (Fig 2), what they do (Fig 4, 6, 7), and what
//! service quality they get (Fig 8a, 9, 11).
//!
//! ```text
//! cargo run --release --example country_dashboard [customers] [days]
//! ```

use satwatch::scenario::experiments::paper_reports_columnar;
use satwatch::scenario::{run_streaming, ScenarioConfig};
use satwatch::traffic::Country;

fn main() {
    let mut args = std::env::args().skip(1);
    let customers: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(400);
    let days: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1);

    eprintln!("simulating {customers} customers × {days} day(s) …");
    let ds = run_streaming(ScenarioConfig::tiny().with_customers(customers).with_days(days));
    let reports = paper_reports_columnar(&ds.frame, &ds.dns, &ds.enrichment, 10, 1);

    println!("{}", reports.fig2.render());
    println!("{}", reports.fig4.render());
    println!("{}", reports.fig6.render());
    println!("{}", reports.fig7.render());
    println!("{}", reports.fig8a.render());
    println!("{}", reports.fig8b.render());
    println!("{}", reports.fig9.render());
    println!("{}", reports.fig11.render());

    // The headline narrative, computed live (time-of-day blocks — the
    // hourly argmax is lumpy on short runs):
    let fig4 = &reports.fig4;
    if let (Some(cd), Some(es)) = (fig4.profile(Country::Congo), fig4.profile(Country::Spain)) {
        let block = |p: &[f64; 24], lo: usize, hi: usize| p[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
        println!(
            "Morning vs evening traffic (fraction of peak): Congo {:.2} vs {:.2}, Spain {:.2} vs {:.2} —              Africa leans on the morning, Europe on evening prime time.",
            block(cd, 6, 13), block(cd, 16, 23), block(es, 6, 13), block(es, 16, 23)
        );
    }
    let fig7 = &reports.fig7;
    if let (Some(cd), Some(es)) = (
        fig7.summary(Country::Congo, satwatch::traffic::Category::Chat),
        fig7.summary(Country::Spain, satwatch::traffic::Category::Chat),
    ) {
        println!(
            "Median daily chat volume: Congo {:.0} MB vs Spain {:.1} MB ({}x) — shared community access points.",
            cd.median,
            es.median,
            (cd.median / es.median) as u64
        );
    }
}
