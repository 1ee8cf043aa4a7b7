//! Byte-identity pin for the `.swseg` writer: the segment of a given
//! record set is a fixed file, whatever the in-RAM frame looks like.
//!
//! Both constants are whole-file FNV-1a 64 values captured from the
//! build whose frame still held one `Arc<str>` per row (commit
//! dc99cf0) — the goldens workload and its `replicate(8)`, the shape
//! `satbench`'s `warehouse_scan` stores. A writer that reorders the
//! dictionary, drops a column byte or moves a checksum changes them.

use satwatch_analytics::{decode_segment, encode_segment, FlowFrame};
use satwatch_scenario::digest::fnv1a;
use satwatch_scenario::{run, ScenarioConfig};

const ROWS: usize = 29_834;
const SEGMENT_FNV: u64 = 0x5095_9dd1_0d11_7895;
const SEGMENT_BYTES: usize = 2_549_888;
const SEGMENT_X8_FNV: u64 = 0xd83b_9908_518b_5362;
const SEGMENT_X8_BYTES: usize = 20_301_118;

#[test]
fn segment_bytes_of_the_goldens_workload_are_pinned() {
    let ds = run(ScenarioConfig::tiny().with_customers(40).with_days(1).with_seed(42));
    let frame = FlowFrame::from_records(&ds.flows, &ds.enrichment);
    assert_eq!(frame.len(), ROWS);
    let bytes = encode_segment(&frame);
    assert_eq!((bytes.len(), fnv1a(&bytes)), (SEGMENT_BYTES, SEGMENT_FNV), "got {:#018x}", fnv1a(&bytes));
    // a decoded frame is as good a source as a built one
    assert_eq!(encode_segment(&decode_segment(&bytes).unwrap()), bytes);
    let x8 = encode_segment(&frame.replicate(8));
    assert_eq!((x8.len(), fnv1a(&x8)), (SEGMENT_X8_BYTES, SEGMENT_X8_FNV), "got {:#018x}", fnv1a(&x8));
}
