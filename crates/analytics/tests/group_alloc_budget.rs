//! Allocation budget of a full-scan group-by, of a leading `limit`,
//! and of a segment footer that lies about its size.
//!
//! `group by country, service` keys every row by two integer codes:
//! no `Value`, no `String`, no boxed key per row. This test counts
//! heap allocations to keep it that way — what the executor allocates
//! depends on how many *groups* there are, not on how many rows it
//! scanned to find them. Likewise a `limit` ahead of any `match`
//! allocates for the rows it keeps, not for the frame it keeps them of,
//! and a segment decoder allocates for the bytes it was given, not for
//! the counts they claim.
//!
//! The counter is the device of `crates/scenario/tests/alloc_budget.rs`:
//! per thread, forwarding to `System` untouched; implementing
//! `GlobalAlloc` is the one thing here that needs `unsafe`.

use satwatch_analytics::agg::Enrichment;
use satwatch_analytics::segment::segment_meta;
use satwatch_analytics::{decode_segment, encode_segment, query, FlowFrame, FrameBuilder, Pipeline, SegmentError};
use satwatch_monitor::record::RttSummary;
use satwatch_monitor::{FlowRecord, L7Protocol};
use satwatch_simcore::{SimDuration, SimTime};
use satwatch_traffic::Country;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::thread::LocalKey;

thread_local! {
    // const-initialised and without a destructor: touching it from
    // inside the allocator cannot itself allocate or re-enter
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        ALLOCATED_BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller's obligations are passed on as they came
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        ALLOCATED_BYTES.with(|n| n.set(n.get() + new_size as u64));
        // SAFETY: as above
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How far this thread moves `counter` while `f` runs: [`ALLOCATIONS`]
/// counts its allocations (and reallocations), [`ALLOCATED_BYTES`] the
/// bytes they ask for.
fn counted<T>(counter: &'static LocalKey<Cell<u64>>, f: impl FnOnce() -> T) -> (u64, T) {
    let before = counter.with(Cell::get);
    let out = f();
    (counter.with(Cell::get) - before, out)
}

const DOMAINS: [Option<&str>; 6] = [
    None,
    Some("video.tiktokv.com"),
    Some("docs.google.com"),
    Some("rr1.googlevideo.com"),
    Some("api.spotify.com"),
    Some("x.example"),
];

/// 4 000 flows of 5 clients (one without a country) over 6 domains.
fn frame() -> FlowFrame {
    let mut enr = Enrichment { days: 1, ..Default::default() };
    for (i, c) in [Country::Congo, Country::Spain, Country::Nigeria, Country::Ireland].into_iter().enumerate() {
        enr.country_of.insert(Ipv4Addr::new(77, 0, 0, i as u8 + 1), c);
    }
    let flows: Vec<FlowRecord> = (0..4_000u64)
        .map(|i| {
            let first = SimTime::from_secs(i * 20);
            FlowRecord {
                client: Ipv4Addr::new(77, 0, 0, (i % 5) as u8),
                server: Ipv4Addr::new(198, 18, 0, 1),
                client_port: 40_000,
                server_port: 443,
                ip_proto: 6,
                first,
                last: first + SimDuration::from_secs(30),
                c2s_packets: 5,
                c2s_bytes: 100 + i,
                c2s_payload_bytes: 0,
                s2c_packets: 10,
                s2c_bytes: 1_000 + 7 * i,
                s2c_payload_bytes: 0,
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
                l7: L7Protocol::TlsHttps,
                domain: DOMAINS[(i % 7 % 6) as usize].map(Into::into),
            }
        })
        .collect();
    FlowFrame::from_records(&flows, &enr)
}

#[test]
fn a_full_scan_group_by_allocates_per_group_not_per_row() {
    let pipeline = Pipeline::parse(
        r#"[{"group": {"by": ["country", "service"], "aggs": {"bytes": {"sum": "bytes"}, "flows": {"count": true}}}},
            {"sort": "-bytes"}]"#,
    )
    .unwrap();
    let small = frame();
    let big = small.replicate(8);
    // the first query of a process registers its telemetry series
    query::run_with_stats(&small, &pipeline, 1).unwrap();
    let (a_small, t_small) = counted(&ALLOCATIONS, || query::run_with_stats(&small, &pipeline, 1).unwrap().0);
    let (a_big, t_big) = counted(&ALLOCATIONS, || query::run_with_stats(&big, &pipeline, 1).unwrap().0);
    let groups = t_small.rows.len() as u64;
    assert!(groups >= 20, "a real group-by: {groups} groups");
    assert_eq!(t_big.rows.len() as u64, groups, "tiling the rows adds no group");
    println!("{groups} groups: {a_small} allocations over {} rows, {a_big} over {}", small.len(), big.len());
    assert_eq!(a_big, a_small, "eight times the rows, not one allocation more");
    // per group: a row of the result table and the strings of its two
    // key cells; the rest (index, states, columns, sort) is amortised
    assert!(a_small <= 4 * groups + 64, "{a_small} allocations for {groups} groups");
}

/// `limit` ahead of any `match` is the frame's first `n` row ids,
/// built as such: listing every row id of the frame to truncate the
/// list costs 4 bytes per row of a frame the query never scans.
#[test]
fn a_leading_limit_allocates_for_its_rows_not_for_the_frame() {
    let project = r#"{"project": {"client": "client", "domain": "domain", "bytes": "bytes"}}"#;
    let limited = Pipeline::parse(&format!(r#"[{{"limit": 5}}, {project}]"#)).unwrap();
    let small = frame();
    let big = small.replicate(8);
    query::run(&small, &limited).unwrap();
    let (b_small, t_small) = counted(&ALLOCATED_BYTES, || query::run(&small, &limited).unwrap());
    let (b_big, t_big) = counted(&ALLOCATED_BYTES, || query::run(&big, &limited).unwrap());
    println!("limit 5: {b_small} bytes over {} rows, {b_big} over {}", small.len(), big.len());
    assert_eq!(b_big, b_small, "eight times the rows, not one byte more");
    assert!(b_small < 4 * small.len() as u64, "{b_small} bytes: less than one row id per row of the frame");
    let every_row = query::run(&small, &Pipeline::parse(&format!("[{project}]")).unwrap()).unwrap();
    assert_eq!(t_small.rows, every_row.rows[..5], "the frame's first five rows");
    assert_eq!(t_big, t_small);
}

/// A footer's service count is checked against the bytes left before
/// it sizes anything: an empty frame's 1.2 kB segment claiming 0xFFFF
/// services used to allocate 1.5 MB before it was refused.
#[test]
fn a_service_count_the_footer_cannot_hold_allocates_nothing_for_it() {
    let fr = FrameBuilder::new(Enrichment::default()).seal();
    let bytes = encode_segment(&fr);
    let footer_len = u64::from_le_bytes(bytes[bytes.len() - 16..bytes.len() - 8].try_into().unwrap()) as usize;
    let footer_start = bytes.len() - 16 - footer_len;
    // the run count and directory, then the row count and the `first`
    // range; the service count follows
    let dir: usize = segment_meta(&bytes).unwrap().columns.iter().map(|(name, ..)| 4 + name.len() + 24).sum();
    let at = footer_start + 4 + dir + 24;
    assert_eq!(u16::from_le_bytes([bytes[at], bytes[at + 1]]) as usize, fr.services.len(), "located the count");
    let mut bad = bytes;
    bad[at..at + 2].copy_from_slice(&0xFFFF_u16.to_le_bytes());
    let (allocated, decoded) = counted(&ALLOCATED_BYTES, || decode_segment(&bad).map(|fr| fr.len()));
    assert!(matches!(decoded, Err(SegmentError::Corrupt("service count exceeds the footer"))), "{decoded:?}");
    println!("{allocated} bytes allocated decoding a {}-byte segment", bad.len());
    assert!(allocated <= bad.len() as u64, "{allocated} bytes allocated for {} bytes of input", bad.len());
}
