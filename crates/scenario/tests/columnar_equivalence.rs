//! Golden equivalence: the columnar engine's fused `report_all` must
//! reproduce the record-based paper outputs byte for byte — batch- or
//! stream-built frame, any worker count.

use satwatch_analytics::FlowFrame;
use satwatch_scenario::experiments::{paper_reports_columnar, paper_reports_records};
use satwatch_scenario::{run, run_streaming, ScenarioConfig};

fn cfg() -> ScenarioConfig {
    ScenarioConfig::tiny().with_seed(42).with_customers(30)
}

const MIN_FLOWS: usize = 5;

#[test]
fn columnar_reports_match_record_reports_field_by_field() {
    let ds = run(cfg());
    let records = paper_reports_records(&ds.flows, &ds.dns, &ds.enrichment, MIN_FLOWS, 1);
    let fr = FlowFrame::from_records(&ds.flows, &ds.enrichment);
    assert_eq!(fr.len(), ds.flows.len());
    for workers in [1usize, 4] {
        let columnar = paper_reports_columnar(&fr, &ds.dns, &ds.enrichment, MIN_FLOWS, workers);
        // field-by-field so a regression names the figure it broke
        assert_eq!(format!("{:?}", records.table1), format!("{:?}", columnar.table1), "table1 w={workers}");
        assert_eq!(format!("{:?}", records.fig2), format!("{:?}", columnar.fig2), "fig2 w={workers}");
        assert_eq!(format!("{:?}", records.fig3), format!("{:?}", columnar.fig3), "fig3 w={workers}");
        assert_eq!(format!("{:?}", records.fig4), format!("{:?}", columnar.fig4), "fig4 w={workers}");
        assert_eq!(format!("{:?}", records.fig5), format!("{:?}", columnar.fig5), "fig5 w={workers}");
        assert_eq!(format!("{:?}", records.fig6), format!("{:?}", columnar.fig6), "fig6 w={workers}");
        assert_eq!(format!("{:?}", records.fig7), format!("{:?}", columnar.fig7), "fig7 w={workers}");
        assert_eq!(format!("{:?}", records.fig8a), format!("{:?}", columnar.fig8a), "fig8a w={workers}");
        assert_eq!(format!("{:?}", records.fig8b), format!("{:?}", columnar.fig8b), "fig8b w={workers}");
        assert_eq!(format!("{:?}", records.fig9), format!("{:?}", columnar.fig9), "fig9 w={workers}");
        assert_eq!(format!("{:?}", records.fig10), format!("{:?}", columnar.fig10), "fig10 w={workers}");
        assert_eq!(format!("{:?}", records.table2), format!("{:?}", columnar.table2), "table2 w={workers}");
        assert_eq!(format!("{:?}", records.fig11), format!("{:?}", columnar.fig11), "fig11 w={workers}");
        assert_eq!(records.render_all(), columnar.render_all(), "rendered output w={workers}");
    }
}

#[test]
fn streamed_frame_equals_batch_frame_at_any_shard_count() {
    let ds = run(cfg());
    let batch = FlowFrame::from_records(&ds.flows, &ds.enrichment);
    let baseline = paper_reports_records(&ds.flows, &ds.dns, &ds.enrichment, MIN_FLOWS, 1).render_all();
    let cds = run_streaming(cfg());
    assert_eq!(cds.packets, ds.packets);
    assert_eq!(cds.dns, ds.dns, "dns");
    // the sealed frame is the batch frame, column by column
    assert_eq!(cds.frame.len(), batch.len());
    assert_eq!(cds.frame.first, batch.first, "first");
    assert_eq!(cds.frame.client, batch.client, "client");
    assert_eq!(cds.frame.bytes_up, batch.bytes_up, "bytes_up");
    assert_eq!(cds.frame.bytes_down, batch.bytes_down, "bytes_down");
    assert_eq!(cds.frame.ground_rtt_avg, batch.ground_rtt_avg, "ground_rtt");
    assert_eq!(cds.frame.l7, batch.l7, "l7");
    assert_eq!(cds.frame.country, batch.country, "country");
    assert_eq!(cds.frame.beam, batch.beam, "beam");
    assert_eq!(cds.frame.local_hour, batch.local_hour, "local_hour");
    assert_eq!(cds.frame.service, batch.service, "service");
    assert_eq!(cds.frame.category, batch.category, "category");
    // and the reports built from it equal the record baseline
    let reports = paper_reports_columnar(&cds.frame, &cds.dns, &cds.enrichment, MIN_FLOWS, 2);
    assert_eq!(reports.render_all(), baseline, "reports");
}

#[test]
fn replicated_frame_matches_tiled_record_slice() {
    let ds = run(ScenarioConfig::tiny().with_seed(7).with_customers(12));
    let tiled: Vec<_> = ds.flows.iter().chain(ds.flows.iter()).chain(ds.flows.iter()).cloned().collect();
    let records = paper_reports_records(&tiled, &ds.dns, &ds.enrichment, MIN_FLOWS, 1);
    let fr = FlowFrame::from_records(&ds.flows, &ds.enrichment).replicate(3);
    let columnar = paper_reports_columnar(&fr, &ds.dns, &ds.enrichment, MIN_FLOWS, 3);
    assert_eq!(records.render_all(), columnar.render_all());
}
