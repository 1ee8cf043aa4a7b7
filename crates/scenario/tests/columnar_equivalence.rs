//! Golden equivalence: the columnar engine's fused `report_all` must
//! reproduce the record-based paper outputs byte for byte — batch- or
//! stream-built frame, whole or absorbed piece by piece.

use proptest::prelude::*;
use satwatch_analytics::frame::NO_SERVICE;
use satwatch_analytics::{report_all, FlowFrame, ReportCtx, ReportFold};
use satwatch_scenario::experiments::{paper_reports_columnar, paper_reports_records, FIG6_SERVICES};
use satwatch_scenario::{run, run_streaming, Dataset, ScenarioConfig};
use satwatch_simcore::SimTime;
use satwatch_traffic::Country;
use std::collections::BTreeSet;
use std::sync::OnceLock;

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
    let columnar = paper_reports_columnar(&fr, &ds.dns, &ds.enrichment, MIN_FLOWS, 1);
    // field-by-field so a regression names the figure it broke
    assert_eq!(format!("{:?}", records.table1), format!("{:?}", columnar.table1), "table1");
    assert_eq!(format!("{:?}", records.fig2), format!("{:?}", columnar.fig2), "fig2");
    assert_eq!(format!("{:?}", records.fig3), format!("{:?}", columnar.fig3), "fig3");
    assert_eq!(format!("{:?}", records.fig4), format!("{:?}", columnar.fig4), "fig4");
    assert_eq!(format!("{:?}", records.fig5), format!("{:?}", columnar.fig5), "fig5");
    assert_eq!(format!("{:?}", records.fig6), format!("{:?}", columnar.fig6), "fig6");
    assert_eq!(format!("{:?}", records.fig7), format!("{:?}", columnar.fig7), "fig7");
    assert_eq!(format!("{:?}", records.fig8a), format!("{:?}", columnar.fig8a), "fig8a");
    assert_eq!(format!("{:?}", records.fig8b), format!("{:?}", columnar.fig8b), "fig8b");
    assert_eq!(format!("{:?}", records.fig9), format!("{:?}", columnar.fig9), "fig9");
    assert_eq!(format!("{:?}", records.fig10), format!("{:?}", columnar.fig10), "fig10");
    assert_eq!(format!("{:?}", records.table2), format!("{:?}", columnar.table2), "table2");
    assert_eq!(format!("{:?}", records.fig11), format!("{:?}", columnar.fig11), "fig11");
    assert_eq!(records.render_all(), columnar.render_all(), "rendered output");
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
    let reports = paper_reports_columnar(&cds.frame, &cds.dns, &cds.enrichment, MIN_FLOWS, 1);
    assert_eq!(reports.render_all(), baseline, "reports");
}

#[test]
fn replicated_frame_matches_tiled_record_slice() {
    let ds = run(ScenarioConfig::tiny().with_seed(7).with_customers(12));
    let tiled: Vec<_> = ds.flows.iter().chain(ds.flows.iter()).chain(ds.flows.iter()).cloned().collect();
    let records = paper_reports_records(&tiled, &ds.dns, &ds.enrichment, MIN_FLOWS, 1);
    let fr = FlowFrame::from_records(&ds.flows, &ds.enrichment).replicate(3);
    let columnar = paper_reports_columnar(&fr, &ds.dns, &ds.enrichment, MIN_FLOWS, 1);
    assert_eq!(records.render_all(), columnar.render_all());
}

/// The run behind the property below and its batch reports (`Debug`
/// form, rendered form), computed once for all its cases.
fn dataset_and_batch_reports() -> &'static (Dataset, String, String) {
    static ONCE: OnceLock<(Dataset, String, String)> = OnceLock::new();
    ONCE.get_or_init(|| {
        let ds = run(cfg());
        let ctx = ReportCtx { enrichment: &ds.enrichment, countries: &Country::TOP6 };
        let whole = FlowFrame::from_records(&ds.flows, &ds.enrichment);
        let batch = report_all(&whole, &ds.dns, ctx, &FIG6_SERVICES, MIN_FLOWS);
        let (debug, rendered) = (format!("{batch:?}"), batch.render_all());
        (ds, debug, rendered)
    })
}

/// The same rows under another service numbering. A decoded segment
/// carries its own service table, so the indices in
/// `FlowFrame::service` mean something only beside that frame.
fn renumber_services(fr: &mut FlowFrame) {
    let last = fr.services.len() as u16 - 1;
    fr.services.reverse();
    for s in fr.service.iter_mut().filter(|s| **s != NO_SERVICE) {
        *s = last - *s;
    }
}

proptest! {
    /// The campaign's composition, which no other test here runs: cut
    /// the run's flows at arbitrary points into 1 to 6 frames
    /// (single-row frames included), absorb them in order, and the
    /// fold finishes to the batch sweep over the whole — every float
    /// to the last bit. It fails if a frame is absorbed out of order
    /// (Table 2's means are sums in row order) or if customer-day
    /// cells outlive their frame (every other piece has its own
    /// service numbering).
    #[test]
    fn incremental_fold_matches_batch_sweep(picks in proptest::collection::vec(any::<u64>(), 0..6)) {
        let (ds, batch_debug, batch_rendered) = dataset_and_batch_reports();
        let n = ds.flows.len();
        // a pick is a cut point and, one time in two, the next row
        // as well: a single-row frame
        let cuts: BTreeSet<usize> = picks
            .iter()
            .flat_map(|&p| {
                let cut = 1 + (p >> 1) as usize % (n - 2);
                [cut, cut + (p & 1) as usize]
            })
            .take(5)
            .collect();
        let ctx = ReportCtx { enrichment: &ds.enrichment, countries: &Country::TOP6 };
        let mut fold = ReportFold::new(ctx);
        fold.absorb_dns(&ds.dns, SimTime::MAX);
        let mut start = 0;
        for (k, end) in cuts.iter().copied().chain([n]).enumerate() {
            let mut piece = FlowFrame::from_records(&ds.flows[start..end], &ds.enrichment);
            if k % 2 == 1 {
                renumber_services(&mut piece);
            }
            fold.carry(piece);
            start = end;
        }
        let folded = fold.finish(&FIG6_SERVICES, MIN_FLOWS);
        prop_assert_eq!(&format!("{folded:?}"), batch_debug, "cuts {:?}", cuts);
        prop_assert_eq!(&folded.render_all(), batch_rendered, "cuts {:?}", cuts);
    }
}
