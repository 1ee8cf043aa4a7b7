//! Fit and export ERRANT-style emulation profiles, and compare the
//! GEO SatCom access with a Starlink-like LEO (the paper's artifact:
//! a data-driven model for the ERRANT emulator).
//!
//! ```text
//! cargo run --release --example emulator_export [customers] [out.profile]
//! ```

use satwatch::errant::{export, fit_profiles, leo, Period};
use satwatch::scenario::{run_streaming, ScenarioConfig};
use satwatch::traffic::Country;

fn main() {
    let mut args = std::env::args().skip(1);
    let customers: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(400);
    let out_path = args.next();

    eprintln!("simulating {customers} customers …");
    let ds = run_streaming(ScenarioConfig::tiny().with_customers(customers));
    let mut profiles = fit_profiles(&ds.frame, &Country::TOP6);
    profiles.push(leo::starlink_reference(Period::Night));
    profiles.push(leo::starlink_reference(Period::Peak));

    let text = export::export(&profiles);
    match out_path {
        Some(p) => {
            std::fs::write(&p, &text).expect("write profile file");
            eprintln!("wrote {} profiles to {p}", profiles.len());
        }
        None => print!("{text}"),
    }

    // GEO vs LEO headline
    let leo_night = leo::starlink_reference(Period::Night);
    if let Some(geo) = profiles.iter().find(|p| p.country == Some(Country::Spain) && p.period == Period::Night) {
        let (rtt_ratio, rate_ratio) = leo::geo_vs_leo(geo, &leo_night);
        eprintln!(
            "GEO (Spain, night) vs LEO reference: {:.0}x the RTT ({:.0} ms vs {:.0} ms), {:.1}x less downlink",
            rtt_ratio,
            geo.median_rtt_ms(),
            leo_night.median_rtt_ms(),
            rate_ratio
        );
    }
}
