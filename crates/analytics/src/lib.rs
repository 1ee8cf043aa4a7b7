//! # satwatch-analytics
//!
//! The post-processing pipeline (paper §3.1): data enrichment,
//! domain→service classification with the paper's Table 3 pattern
//! language, aggregated views, and typed reports for every table and
//! figure of the evaluation.
//!
//! * [`classify`] — Table 3 classifier + second-level-domain
//!   extraction (two-label TLD aware).
//! * [`agg`] — one plain pass over the record slice per figure: the
//!   reference the engine is pinned to, which no `satwatch` command
//!   runs.
//! * [`frame`] — struct-of-arrays [`FlowFrame`] with pre-resolved
//!   enrichment columns, buildable incrementally from an eviction
//!   stream.
//! * [`column`](mod@column) — the column catalog the codec, the frame and the
//!   query binding read: every frame column declared once.
//! * [`engine`] — every figure as a fold over the frame, all filled by
//!   the fused [`report_all`] single-pass sweep: production.
//! * [`expr`] / [`query`] — the aggregation-pipeline DSL: JSON-parsed
//!   `match → group → project → sort → limit` pipelines compiled
//!   against the frame with small-int predicate pushdown and a
//!   code-keyed group-by (DESIGN.md §11).
//! * [`segment`] — on-disk columnar `.swseg` segments: one sealed
//!   frame per file with per-column checksums, the campaign engine's
//!   spill format (DESIGN.md §12).
//! * [`report`] — typed report structs with text renderers.
//! * [`topdomains`] — the top-domain rankings behind the paper's
//!   manual service-list curation.
//! * [`ascii`] — terminal CDF charts and bars for the examples/CLI.
//! * [`csv`] — plot-ready long-format CSV export, one emitter per figure.
//!
//! ```
//! use satwatch_analytics::Classifier;
//! use satwatch_traffic::Category;
//!
//! let classifier = Classifier::standard();
//! let verdict = classifier.classify("rr4---sn-4g5e6nz7.googlevideo.com");
//! assert_eq!(verdict, Some(("Youtube", Category::Video)));
//! ```

pub mod agg;
pub mod ascii;
pub mod classify;
pub mod column;
pub mod csv;
pub mod engine;
pub mod expr;
pub mod frame;
pub mod query;
pub mod report;
pub mod segment;
pub mod topdomains;

pub use agg::{customer_days, read_enrichment_log, write_enrichment_log, Enrichment};
pub use classify::{second_level_domain, Classifier, ClassifyCache};
pub use engine::{report_all, PaperReports, ReportCtx, ReportFold, FOLD_ROWS};
pub use frame::{FlowFrame, FrameBuilder};
pub use query::{Pipeline, QueryStats, ResultTable};
pub use segment::{decode_segment, encode_segment, SegmentError, SegmentMeta};
pub use topdomains::{top_domains, TopDomains};
