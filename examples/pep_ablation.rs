//! PEP on/off ablation (DESIGN.md A3) and the African-ground-station
//! what-if (A1, paper §6.2).
//!
//! The split-TCP Performance Enhancing Proxy is the operator's main
//! answer to the 550 ms floor (paper §2.1). This example quantifies
//! what it buys — time-to-first-byte over TLS — and what an African
//! ground station would buy for African-origin traffic.
//!
//! ```text
//! cargo run --release --example pep_ablation [customers]
//! ```

use satwatch::scenario::{experiments, ScenarioConfig};

fn main() {
    let customers: u32 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(250);
    let cfg = ScenarioConfig::tiny().with_customers(customers);

    eprintln!("run 1/3: baseline (PEP on, single EU ground station) …");
    let base = experiments::ablation_summary(cfg);
    eprintln!("run 2/3: PEP disabled …");
    let no_pep = experiments::ablation_summary(cfg.without_pep());
    eprintln!("run 3/3: with an African ground station …");
    let af_gs = experiments::ablation_summary(cfg.with_african_ground_station());

    println!("A3 — split-TCP PEP ablation");
    println!("  mean TLS time-to-first-byte: {:.2} s (PEP) vs {:.2} s (end-to-end)", base.ttfb_s, no_pep.ttfb_s);
    println!("  → the PEP saves {:.2} s per connection setup\n", no_pep.ttfb_s - base.ttfb_s);

    println!("A1 — African ground station what-if (paper §6.2)");
    println!(
        "  median African ground RTT: {:.1} ms (via Italy) vs {:.1} ms (local ground station)",
        base.african_ground_rtt_ms, af_gs.african_ground_rtt_ms
    );
    println!(
        "  satellite RTT unchanged by routing: {:.0} ms vs {:.0} ms",
        base.sat_rtt_median_ms, af_gs.sat_rtt_median_ms
    );
}
