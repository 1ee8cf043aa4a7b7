//! Golden: the four paper outputs re-expressed as DSL pipelines must
//! reproduce the engine's fused sweep byte for byte on a real scenario
//! run, over both the batch-built and the stream-built frame.
//!
//! Each `*_via_query` runs its JSON pipeline through the full DSL
//! (parse → pushdown → group-by) and adapts the `ResultTable` into the
//! typed report struct. The adapters stay exact because each
//! pipeline's aggregates are integer sums (exact in `i64`) and every
//! derived float below is computed by the same expression, in the
//! same order, as the corresponding engine finisher.

use satwatch_analytics::agg::Enrichment;
use satwatch_analytics::expr::Value;
use satwatch_analytics::query;
use satwatch_analytics::report::{Fig2, Fig3, Fig4, Table1};
use satwatch_analytics::{FlowFrame, PaperReports, Pipeline};
use satwatch_monitor::L7Protocol;
use satwatch_scenario::experiments::paper_reports_columnar;
use satwatch_scenario::{run, run_streaming, ScenarioConfig};
use satwatch_traffic::Country;

/// Table 1 — traffic share by L7 protocol.
const TABLE1_PIPELINE: &str = r#"[
    {"group": {"by": {"l7": "l7"}, "aggs": {"bytes": {"sum": "bytes"}}}}
]"#;

/// Figure 2 — traffic and customer share by country.
const FIG2_PIPELINE: &str = r#"[
    {"match": {"not": {"isnull": {"col": "country"}}}},
    {"group": {"by": {"country": "country"}, "aggs": {"bytes": {"sum": "bytes"}}}}
]"#;

/// Figure 3 — per-country protocol mix.
const FIG3_PIPELINE: &str = r#"[
    {"match": {"not": {"isnull": {"col": "country"}}}},
    {"group": {"by": {"country": "country", "l7": "l7"}, "aggs": {"bytes": {"sum": "bytes"}}}}
]"#;

/// Figure 4 — per-country diurnal profile (UTC hours).
const FIG4_PIPELINE: &str = r#"[
    {"match": {"not": {"isnull": {"col": "country"}}}},
    {"group": {"by": {"country": "country", "hour": "hour_utc"}, "aggs": {"bytes": {"sum": "bytes"}}}}
]"#;

fn as_str(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => "",
    }
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::Int(i) => *i as u64,
        _ => 0,
    }
}

/// Table 1 through the DSL; byte-identical to
/// `report_all`'s `table1`.
fn table1_via_query(fr: &FlowFrame) -> Table1 {
    let t = query::run(fr, &Pipeline::parse(TABLE1_PIPELINE).unwrap()).unwrap();
    let mut by = [0u64; L7Protocol::ALL.len()];
    let mut total = 0u64;
    for row in &t.rows {
        let p = L7Protocol::from_label(as_str(&row[0])).expect("an l7 label");
        let b = as_u64(&row[1]);
        by[p.index()] = b;
        total += b;
    }
    let rows = L7Protocol::ALL.into_iter().map(|p| (p, 100.0 * by[p.index()] as f64 / total.max(1) as f64)).collect();
    Table1 { rows }
}

/// Figure 2 through the DSL; byte-identical to
/// `report_all`'s `fig2`.
fn fig2_via_query(fr: &FlowFrame, enr: &Enrichment) -> Fig2 {
    let t = query::run(fr, &Pipeline::parse(FIG2_PIPELINE).unwrap()).unwrap();
    let mut vol = [0u64; Country::ALL.len()];
    let mut total = 0u64;
    for row in &t.rows {
        let c = Country::from_code(as_str(&row[0])).expect("a country code");
        let b = as_u64(&row[1]);
        vol[c.index()] = b;
        total += b;
    }
    let total_customers = enr.country_of.len();
    let mut rows: Vec<(Country, f64, f64, f64)> = Country::ALL
        .into_iter()
        .map(|c| {
            let v = vol[c.index()];
            let customers = enr.customers_in(c);
            let mb_per_day =
                if customers == 0 || enr.days == 0 { 0.0 } else { v as f64 / 1e6 / customers as f64 / enr.days as f64 };
            (
                c,
                100.0 * v as f64 / total.max(1) as f64,
                100.0 * customers as f64 / total_customers.max(1) as f64,
                mb_per_day,
            )
        })
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    Fig2 { rows }
}

/// Figure 3 through the DSL; byte-identical to
/// `report_all`'s `fig3`.
fn fig3_via_query(fr: &FlowFrame) -> Fig3 {
    let t = query::run(fr, &Pipeline::parse(FIG3_PIPELINE).unwrap()).unwrap();
    const N_PROTO: usize = L7Protocol::ALL.len();
    let mut vol = [[0u64; N_PROTO]; Country::ALL.len()];
    let mut seen = [false; Country::ALL.len()];
    for row in &t.rows {
        let c = Country::from_code(as_str(&row[0])).expect("a country code");
        let p = L7Protocol::from_label(as_str(&row[1])).expect("an l7 label");
        vol[c.index()][p.index()] = as_u64(&row[2]);
        seen[c.index()] = true;
    }
    let rows = Country::ALL
        .into_iter()
        .filter(|c| seen[c.index()])
        .map(|c| {
            let protos = &vol[c.index()];
            let total: u64 = protos.iter().sum();
            let shares = L7Protocol::ALL
                .into_iter()
                .map(|p| (p, 100.0 * protos[p.index()] as f64 / total.max(1) as f64))
                .collect();
            (c, shares)
        })
        .collect();
    Fig3 { rows }
}

/// Figure 4 through the DSL; byte-identical to
/// `report_all`'s `fig4`.
fn fig4_via_query(fr: &FlowFrame) -> Fig4 {
    let t = query::run(fr, &Pipeline::parse(FIG4_PIPELINE).unwrap()).unwrap();
    let mut by = [[0u64; 24]; Country::ALL.len()];
    let mut seen = [false; Country::ALL.len()];
    for row in &t.rows {
        let c = Country::from_code(as_str(&row[0])).expect("a country code");
        let h = match row[1] {
            Value::Int(h) if (0..24).contains(&h) => h as usize,
            _ => panic!("bad hour in result: {:?}", row[1]),
        };
        by[c.index()][h] = as_u64(&row[2]);
        seen[c.index()] = true;
    }
    let rows = Country::ALL
        .into_iter()
        .filter(|c| seen[c.index()])
        .map(|c| {
            let bytes = &by[c.index()];
            let max = bytes.iter().copied().max().unwrap_or(0).max(1) as f64;
            let mut prof = [0.0; 24];
            for (p, b) in prof.iter_mut().zip(bytes) {
                *p = *b as f64 / max;
            }
            (c, prof)
        })
        .collect();
    Fig4 { rows }
}

fn cfg() -> ScenarioConfig {
    ScenarioConfig::tiny().with_seed(42).with_customers(30)
}

#[test]
fn paper_pipelines_are_byte_identical_to_engine_folds() {
    let ds = run(cfg());
    let batch = FlowFrame::from_records(&ds.flows, &ds.enrichment);
    let PaperReports { table1, fig2, fig3, fig4, .. } = paper_reports_columnar(&batch, &ds.dns, &ds.enrichment, 10, 1);
    for (built, fr) in [("batch", &batch), ("stream", &run_streaming(cfg()).frame)] {
        let q1 = table1_via_query(fr);
        let q2 = fig2_via_query(fr, &ds.enrichment);
        let q3 = fig3_via_query(fr);
        let q4 = fig4_via_query(fr);
        // Debug equality pins every float bit, render equality pins
        // the user-facing bytes
        assert_eq!(format!("{table1:?}"), format!("{q1:?}"), "table1, {built} frame");
        assert_eq!(format!("{fig2:?}"), format!("{q2:?}"), "fig2, {built} frame");
        assert_eq!(format!("{fig3:?}"), format!("{q3:?}"), "fig3, {built} frame");
        assert_eq!(format!("{fig4:?}"), format!("{q4:?}"), "fig4, {built} frame");
        assert_eq!(table1.render(), q1.render(), "table1 render, {built} frame");
        assert_eq!(fig2.render(), q2.render(), "fig2 render, {built} frame");
        assert_eq!(fig3.render(), q3.render(), "fig3 render, {built} frame");
        assert_eq!(fig4.render(), q4.render(), "fig4 render, {built} frame");
    }
}

#[test]
fn pipelines_agree_between_batch_and_streamed_frames() {
    let ds = run(cfg());
    let batch = FlowFrame::from_records(&ds.flows, &ds.enrichment);
    let cds = run_streaming(cfg());
    let p = Pipeline::parse(
        r#"[
            {"match": {"all": [
                {"eq": [{"col": "country"}, "ES"]},
                {"gt": [{"col": "bytes"}, 10000]}
            ]}},
            {"group": {"by": ["l7"], "aggs": {
                "bytes": {"sum": "bytes"},
                "flows": {"count": true},
                "p90_down": {"quantile": ["down_bps", 0.9]}
            }}},
            {"sort": ["-bytes", "l7"]},
            {"limit": 10}
        ]"#,
    )
    .unwrap();
    let (t_batch, stats) = query::run_with_stats(&batch, &p, 1).unwrap();
    assert!(stats.rows_after_pushdown < stats.rows_scanned, "country LUT prunes non-Spain rows: {stats:?}");
    assert!(stats.rows_after_pushdown > 0, "Spain rows exist: {stats:?}");
    assert!(stats.result_rows <= 10);
    let t_stream = query::run(&cds.frame, &p).unwrap();
    assert_eq!(t_batch.render_text(), t_stream.render_text());
    assert_eq!(t_batch.render_csv(), t_stream.render_csv());
}
