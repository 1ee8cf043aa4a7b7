//! Golden: the four paper outputs re-expressed as DSL pipelines
//! (`query::paper`) must reproduce the engine's fused sweep byte for
//! byte on a real scenario run — at workers 1 and 4, over both
//! the batch-built and the stream-built frame.

use satwatch_analytics::query::{self, paper};
use satwatch_analytics::{FlowFrame, PaperReports, Pipeline};
use satwatch_scenario::experiments::paper_reports_columnar;
use satwatch_scenario::{run, run_streaming, ScenarioConfig};

fn cfg() -> ScenarioConfig {
    ScenarioConfig::tiny().with_seed(42).with_customers(30)
}

#[test]
fn paper_pipelines_are_byte_identical_to_engine_folds() {
    let ds = run(cfg());
    let fr = FlowFrame::from_records(&ds.flows, &ds.enrichment);
    let PaperReports { table1, fig2, fig3, fig4, .. } = paper_reports_columnar(&fr, &ds.dns, &ds.enrichment, 10, 1);
    for workers in [1usize, 4] {
        let q1 = paper::table1_via_query(&fr, workers).unwrap();
        let q2 = paper::fig2_via_query(&fr, &ds.enrichment, workers).unwrap();
        let q3 = paper::fig3_via_query(&fr, workers).unwrap();
        let q4 = paper::fig4_via_query(&fr, workers).unwrap();
        // Debug equality pins every float bit, render equality pins
        // the user-facing bytes
        assert_eq!(format!("{table1:?}"), format!("{q1:?}"), "table1 w={workers}");
        assert_eq!(format!("{fig2:?}"), format!("{q2:?}"), "fig2 w={workers}");
        assert_eq!(format!("{fig3:?}"), format!("{q3:?}"), "fig3 w={workers}");
        assert_eq!(format!("{fig4:?}"), format!("{q4:?}"), "fig4 w={workers}");
        assert_eq!(table1.render(), q1.render(), "table1 render w={workers}");
        assert_eq!(fig2.render(), q2.render(), "fig2 render w={workers}");
        assert_eq!(fig3.render(), q3.render(), "fig3 render w={workers}");
        assert_eq!(fig4.render(), q4.render(), "fig4 render w={workers}");
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
    for workers in [1usize, 4] {
        let t_stream = query::run(&cds.frame, &p, workers).unwrap();
        assert_eq!(t_batch.render_text(), t_stream.render_text(), "workers={workers}");
        assert_eq!(t_batch.render_csv(), t_stream.render_csv(), "workers={workers}");
    }
}
