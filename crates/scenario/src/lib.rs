//! # satwatch-scenario
//!
//! End-to-end orchestration: builds the population, the SatCom access
//! network and the internet model; replays each day's flow intents as
//! packets through the PEP/satellite path; feeds the ground-station
//! span port to the passive probe; and exposes per-experiment runners
//! for every table and figure plus the ablations.

pub mod config;
pub mod digest;
pub mod experiments;
pub mod flowsim;
pub mod paper_check;
pub mod reference;
pub mod run;

pub use config::ScenarioConfig;
pub use digest::dataset_digest;
pub use flowsim::NetModel;
pub use reference::run_reference;
pub use run::{
    build_enrichment, run, run_report, run_sealed, run_streaming, run_with_tap, ColumnarDataset, Dataset, DayRunner,
    ReportRun, SealedRun, Tap,
};
