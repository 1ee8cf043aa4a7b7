//! Flow-log persistence: the monitor's TSV logs must round-trip a
//! real scenario's records, and the analytics pipeline must produce
//! identical reports from reloaded logs (the paper's workflow:
//! capture at the ISP, analyse later on the Hadoop cluster).

use satwatch::analytics::FlowFrame;
use satwatch::monitor::record::{read_flows, write_flows};
use satwatch::scenario::experiments::paper_reports_columnar;
use satwatch::scenario::{run, ScenarioConfig};
use std::io::BufReader;

#[test]
fn tsv_round_trip_preserves_analysis() {
    let ds = run(ScenarioConfig::tiny().with_customers(80).with_seed(5));
    assert!(ds.flows.len() > 500);

    let mut buf = Vec::new();
    write_flows(&mut buf, &ds.flows).expect("write flow log");
    let reloaded = read_flows(BufReader::new(&buf[..])).expect("read flow log");
    assert_eq!(reloaded.len(), ds.flows.len());

    // Field-level integrity on every record.
    for (orig, back) in ds.flows.iter().zip(&reloaded) {
        assert_eq!(orig.client, back.client);
        assert_eq!(orig.server, back.server);
        assert_eq!((orig.client_port, orig.server_port), (back.client_port, back.server_port));
        assert_eq!(orig.l7, back.l7);
        assert_eq!(orig.domain, back.domain);
        assert_eq!(orig.c2s_bytes, back.c2s_bytes);
        assert_eq!(orig.s2c_bytes, back.s2c_bytes);
        assert_eq!(orig.first, back.first);
        assert_eq!(orig.s2c_data_first, back.s2c_data_first);
        match (orig.sat_rtt_ms, back.sat_rtt_ms) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 0.001),
            (None, None) => {}
            other => panic!("sat_rtt mismatch {other:?}"),
        }
    }

    // Analyses on reloaded logs match the originals: one report fold
    // over each side.
    let reports = |flows| {
        let frame = FlowFrame::from_records(flows, &ds.enrichment);
        paper_reports_columnar(&frame, &ds.dns, &ds.enrichment, 10, 1)
    };
    let (orig, back) = (reports(&ds.flows), reports(&reloaded));
    for (a, b) in orig.table1.rows.iter().zip(&back.table1.rows) {
        assert_eq!(a.0, b.0);
        assert!((a.1 - b.1).abs() < 1e-9);
    }
    for (a, b) in orig.fig9.rows.iter().zip(&back.fig9.rows) {
        assert_eq!(a.0, b.0);
        // the TSV stores RTTs with 3 decimals; medians match to ~1 µs
        assert!((a.2 - b.2).abs() < 0.01, "{} vs {}", a.2, b.2);
    }
}

#[test]
fn flow_log_is_anonymized() {
    // No flow record may leak an address from the operator's customer
    // subnet: CryptoPan runs before anything is stored (paper §2.3).
    let ds = run(ScenarioConfig::tiny().with_customers(40).with_seed(9));
    let gs = satwatch::satcom::GroundStation::italy_default();
    for f in &ds.flows {
        assert!(!gs.customer_subnet.contains(f.client), "client {} leaked from {}", f.client, gs.customer_subnet);
    }
    for d in &ds.dns {
        assert!(!gs.customer_subnet.contains(d.client));
    }
}
