//! `report`'s fold is the batch report, byte for byte: `run_report`
//! folds the rows and DNS records the probe seals as the run goes, and
//! must render exactly what `report_all` renders over `run_streaming`'s
//! whole frame and DNS log — every figure, every `--csv` file (Table 2
//! at the export's own floor included) and the counts of the progress
//! line — one day or several.

use satwatch_analytics::csv::report_files;
use satwatch_analytics::{report_all, ReportCtx};
use satwatch_scenario::experiments::{paper_reports_columnar, CSV_MIN_FLOWS, FIG6_SERVICES, MIN_FLOWS};
use satwatch_scenario::{run_report, run_streaming, ScenarioConfig};
use satwatch_traffic::Country;

fn assert_fold_is_batch(cfg: ScenarioConfig) {
    let folded = run_report(cfg);
    let batch = run_streaming(cfg);
    let what = format!("seed {} × {} day(s)", cfg.seed, cfg.days);
    assert_eq!(
        (folded.packets, folded.flows, folded.dns),
        (batch.packets, batch.frame.len(), batch.dns.len()),
        "{what}: counts"
    );
    let reports = paper_reports_columnar(&batch.frame, &batch.dns, &batch.enrichment, MIN_FLOWS, 1);
    assert_eq!(folded.reports.render_all(), reports.render_all(), "{what}: rendered report");
    let ctx = ReportCtx { enrichment: &batch.enrichment, countries: &Country::TOP6 };
    let table2_csv = report_all(&batch.frame, &batch.dns, ctx, &FIG6_SERVICES, CSV_MIN_FLOWS).table2;
    assert!(table2_csv.rows.len() > reports.table2.rows.len(), "{what}: the CSV floor keeps more cells");
    let files = report_files(&folded.reports, &folded.table2_csv);
    for ((name, got), (_, want)) in files.iter().zip(report_files(&reports, &table2_csv)) {
        assert_eq!(*got, want, "{what}: {name}");
    }
}

#[test]
fn the_fold_renders_the_batch_report_and_csv_files() {
    for seed in [42, 7, 126] {
        assert_fold_is_batch(ScenarioConfig::tiny().with_customers(40).with_seed(seed));
    }
}

/// Span time steps back to midnight between days, which is what the
/// seal's midnight cap is for: the spill hour's rows must wait for the
/// next day's marks.
#[test]
fn the_fold_renders_the_batch_report_across_a_day_boundary() {
    assert_fold_is_batch(ScenarioConfig::tiny().with_customers(20).with_seed(9).with_days(2));
}
