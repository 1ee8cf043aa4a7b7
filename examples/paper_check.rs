//! Run the full paper-vs-measured verification suite: every table and
//! figure of the paper's evaluation is regenerated from a simulated
//! deployment and checked against the values the paper reports
//! (shape criteria — see DESIGN.md and EXPERIMENTS.md).
//!
//! ```text
//! cargo run --release --example paper_check [customers] [seed] [days]
//! ```

use satwatch::scenario::{paper_check, run_streaming, ScenarioConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let customers: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(500);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0x1107_2022);
    let days: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1);
    eprintln!("simulating {customers} customers × {days} day(s), seed {seed} …");
    let ds = run_streaming(ScenarioConfig::tiny().with_customers(customers).with_seed(seed).with_days(days));
    let rows = paper_check::check_all(&ds);
    print!("{}", paper_check::render(&rows));
    let failed = rows.iter().filter(|r| !r.pass).count();
    std::process::exit(if failed == 0 { 0 } else { 1 });
}
