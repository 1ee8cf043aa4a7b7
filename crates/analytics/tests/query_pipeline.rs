//! End-to-end pipeline tests: every stage against hand-computed
//! expectations on a synthetic frame.

use satwatch_analytics::agg::{self, Enrichment};
use satwatch_analytics::expr::{Expr, Json};
use satwatch_analytics::query::{self, run_with_stats, Agg, AggFunc, Stage};
use satwatch_analytics::{FlowFrame, Pipeline};
use satwatch_monitor::record::RttSummary;
use satwatch_monitor::{FlowRecord, L7Protocol};
use satwatch_simcore::{SimDuration, SimTime};
use satwatch_traffic::Country;
use std::net::Ipv4Addr;

/// client 0 unmapped; 1 → Congo, 2 → Spain, 3 → Nigeria.
fn enrichment() -> Enrichment {
    let mut e = Enrichment { days: 2, ..Default::default() };
    e.country_of.insert(Ipv4Addr::new(77, 0, 0, 1), Country::Congo);
    e.country_of.insert(Ipv4Addr::new(77, 0, 0, 2), Country::Spain);
    e.country_of.insert(Ipv4Addr::new(77, 0, 0, 3), Country::Nigeria);
    e.beam_of.insert(Ipv4Addr::new(77, 0, 0, 1), 0);
    e.beam_of.insert(Ipv4Addr::new(77, 0, 0, 2), 1);
    e.beams = vec![
        agg::BeamInfo { name: "cd-0".into(), country: Country::Congo, peak_utilization: 0.8 },
        agg::BeamInfo { name: "es-0".into(), country: Country::Spain, peak_utilization: 0.5 },
    ];
    e
}

fn flow(client: u8, l7: L7Protocol, down: u64, up: u64, secs: u64, domain: Option<&str>) -> FlowRecord {
    let first = SimTime::from_secs(secs);
    FlowRecord {
        client: Ipv4Addr::new(77, 0, 0, client),
        server: Ipv4Addr::new(198, 18, 0, 1),
        client_port: 40_000,
        server_port: 443,
        ip_proto: 6,
        first,
        last: first + SimDuration::from_secs(30),
        c2s_packets: 5,
        c2s_bytes: up,
        c2s_payload_bytes: up,
        s2c_packets: 10,
        s2c_bytes: down,
        s2c_payload_bytes: down,
        c2s_retrans: 0,
        s2c_retrans: 0,
        early: vec![],
        syn_seen: true,
        fin_seen: true,
        rst_seen: false,
        ground_rtt: RttSummary { samples: 2, min_ms: 10.0, avg_ms: 11.0, max_ms: 12.0, std_ms: 1.0 },
        s2c_data_first: None,
        s2c_data_last: None,
        sat_rtt_ms: None,
        l7,
        domain: domain.map(Into::into),
    }
}

/// 3 Spain flows, 2 Congo flows, 1 unmapped flow — known volumes.
fn small_frame() -> FlowFrame {
    let flows = vec![
        flow(2, L7Protocol::TlsHttps, 1_000, 100, 10, Some("video.tiktokv.com")),
        flow(2, L7Protocol::TlsHttps, 2_000, 200, 20, Some("video.tiktokv.com")),
        flow(2, L7Protocol::Quic, 4_000, 400, 3_600 * 5, Some("docs.google.com")),
        flow(1, L7Protocol::Dns, 300, 30, 40, None),
        flow(1, L7Protocol::TlsHttps, 700, 70, 50, Some("x.example")),
        flow(0, L7Protocol::OtherTcp, 10_000, 1_000, 60, None),
    ];
    FlowFrame::from_records(&flows, &enrichment())
}

#[test]
fn match_group_sort_limit_end_to_end() {
    let fr = small_frame();
    let p = Pipeline::parse(
        r#"[
            {"match": {"not": {"isnull": {"col": "country"}}}},
            {"group": {"by": ["country"], "aggs": {
                "bytes": {"sum": "bytes"},
                "flows": {"count": true}
            }}},
            {"sort": "-bytes"},
            {"limit": 1}
        ]"#,
    )
    .unwrap();
    let (t, stats) = run_with_stats(&fr, &p, 1).unwrap();
    assert_eq!(t.columns, ["country", "bytes", "flows"]);
    // Spain: 1100 + 2200 + 4400 = 7700 bytes over 3 flows
    assert_eq!(t.render_csv(), "country,bytes,flows\nES,7700,3\n");
    assert_eq!(stats.rows_scanned, 6);
    assert_eq!(stats.rows_after_pushdown, 5, "the unmapped flow is pruned by the LUT");
    assert_eq!(stats.result_rows, 1);
}

#[test]
fn project_and_arithmetic_on_group_output() {
    let fr = small_frame();
    let p = Pipeline::parse(
        r#"[
            {"group": {"by": ["country"], "aggs": {
                "down": {"sum": "bytes_down"},
                "up": {"sum": "bytes_up"}
            }}},
            {"project": {"country": "country", "ratio": {"div": [{"col": "down"}, {"col": "up"}]}}},
            {"sort": ["country"]}
        ]"#,
    )
    .unwrap();
    let t = query::run(&fr, &p).unwrap();
    assert_eq!(t.columns, ["country", "ratio"]);
    // groups sort by key: null country first, then CD, ES
    assert_eq!(t.rows.len(), 3);
    assert_eq!(t.render_csv(), "country,ratio\n,10\nCD,10\nES,10\n");
}

#[test]
fn mean_min_max_quantile_are_deterministic_across_workers() {
    let fr = small_frame();
    let p = Pipeline::parse(
        r#"[
            {"group": {"by": ["l7"], "aggs": {
                "mean_down": {"mean": "bytes_down"},
                "min_down": {"min": "bytes_down"},
                "max_down": {"max": "bytes_down"},
                "p50": {"quantile": ["bytes_down", 0.5]},
                "n": {"count": true}
            }}},
            {"sort": "l7"}
        ]"#,
    )
    .unwrap();
    let baseline = query::run(&fr, &p).unwrap();
    // spot-check one group: TCP/HTTPS bytes_down are 1000, 2000, 700
    let row =
        baseline.rows.iter().find(|r| format!("{:?}", r[0]).contains("TCP/HTTPS")).expect("TCP/HTTPS group present");
    assert_eq!(format!("{:?}", row[1]), format!("Num({:?})", 3700.0 / 3.0), "mean");
    assert_eq!(format!("{:?}", row[2]), "Int(700)", "min");
    assert_eq!(format!("{:?}", row[3]), "Int(2000)", "max");
    assert_eq!(format!("{:?}", row[4]), "Num(1000.0)", "type-7 median of [700, 1000, 2000]");
    assert_eq!(format!("{:?}", row[5]), "Int(3)", "count");
}

#[test]
fn table_phase_match_filters_group_rows() {
    let fr = small_frame();
    let p = Pipeline::parse(
        r#"[
            {"group": {"by": ["country"], "aggs": {"bytes": {"sum": "bytes"}}}},
            {"match": {"gt": [{"col": "bytes"}, 2000]}},
            {"sort": "country"}
        ]"#,
    )
    .unwrap();
    let t = query::run(&fr, &p).unwrap();
    // null-country group has 11000 bytes, ES 7700; CD (1100) drops out
    assert_eq!(t.render_csv(), "country,bytes\n,11000\nES,7700\n");
}

#[test]
fn pipeline_stage_order_errors_are_reported() {
    let fr = small_frame();
    let group = |by: &str, out: &str| Stage::Group {
        by: vec![(by.to_string(), Expr::Col(by.to_string()))],
        aggs: vec![(out.to_string(), Agg { func: AggFunc::Count, arg: None, q: 0.0 })],
    };
    let no_country = Expr::from_json(&Json::parse(r#"{"isnull": {"col": "country"}}"#).unwrap()).unwrap();
    // each shape error is refused by `parse`, before any scan, and by
    // the executor when the pipeline was built by hand
    for (src, stages) in [
        // sort before any group/project: no table to sort yet
        (r#"[{"sort": "bytes"}]"#, vec![Stage::Sort(vec![("bytes".into(), false)])]),
        // group after group: the frame is gone
        (
            r#"[
                {"group": {"by": ["l7"], "aggs": {"n": {"count": true}}}},
                {"group": {"by": ["n"], "aggs": {"m": {"count": true}}}}
            ]"#,
            vec![group("l7", "n"), group("n", "m")],
        ),
        // a pipeline that never aggregates has no table to render
        (r#"[{"match": {"isnull": {"col": "country"}}}]"#, vec![Stage::Match(no_country)]),
    ] {
        let parsed = Pipeline::parse(src).unwrap_err();
        let ran = query::run(&fr, &Pipeline { stages }).unwrap_err();
        assert_eq!(parsed, ran, "{src}");
    }
    // unknown column name: refused by `parse` against the catalog, and
    // by the executor's binding when the pipeline was built by hand
    let src = r#"[{"group": {"by": ["no_such_col"], "aggs": {"n": {"count": true}}}}]"#;
    let parsed = Pipeline::parse(src).unwrap_err();
    let ran = query::run(&fr, &Pipeline { stages: vec![group("no_such_col", "n")] }).unwrap_err();
    assert_eq!(parsed, ran);
    assert!(parsed.0.contains("bytes_down"), "the error lists the frame's columns: {parsed}");
}

#[test]
fn renderers_agree_on_shape() {
    let fr = small_frame();
    let p = Pipeline::parse(r#"[{"group": {"by": ["l7"], "aggs": {"bytes": {"sum": "bytes"}}}}]"#).unwrap();
    let t = query::run(&fr, &p).unwrap();
    let text = t.render_text();
    let csv = t.render_csv();
    let json = t.render_json();
    // one header + one line per group everywhere
    assert_eq!(text.lines().count(), 1 + t.rows.len());
    assert_eq!(csv.lines().count(), 1 + t.rows.len());
    assert!(json.starts_with(r#"{"columns":["l7","bytes"]"#), "{json}");
}
