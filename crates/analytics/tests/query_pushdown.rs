//! Property tests for the Match pushdown: on arbitrary flow sets and
//! arbitrary random predicates, the LUT-pushdown scan must select
//! exactly the rows the naive row-at-a-time oracle selects, at any
//! worker count.

use proptest::prelude::*;
use satwatch_analytics::agg::{self, Enrichment};
use satwatch_analytics::expr::{bind_frame, compile_match, ArithOp, CmpOp, Expr, Value};
use satwatch_analytics::query::{match_rows, match_rows_naive};
use satwatch_analytics::FlowFrame;
use satwatch_monitor::record::RttSummary;
use satwatch_monitor::{FlowRecord, L7Protocol};
use satwatch_simcore::{SimDuration, SimTime};
use satwatch_traffic::Country;
use std::net::Ipv4Addr;

const DOMAINS: [Option<&str>; 4] = [None, Some("video.tiktokv.com"), Some("docs.google.com"), Some("x.example")];

#[derive(Clone, Debug)]
struct FlowSpec {
    client: u8,
    l7: u8,
    down: u64,
    up: u64,
    secs: u64,
    dur_s: u64,
    domain: u8,
    sat: Option<u16>,
    ground_samples: u64,
}

fn spec_strategy() -> impl Strategy<Value = FlowSpec> {
    // vendored proptest implements Strategy for tuples up to arity 6
    (
        (0u8..4, 0u8..L7Protocol::ALL.len() as u8, 0u64..30_000_000, 0u64..1_000_000, 0u64..86_400 * 2),
        (1u64..1200, 0u8..DOMAINS.len() as u8, proptest::option::of(450u16..2000), 0u64..5),
    )
        .prop_map(|((client, l7, down, up, secs), (dur_s, domain, sat, ground_samples))| FlowSpec {
            client,
            l7,
            down,
            up,
            secs,
            dur_s,
            domain,
            sat,
            ground_samples,
        })
}

fn build(spec: &FlowSpec) -> FlowRecord {
    let first = SimTime::from_secs(spec.secs);
    FlowRecord {
        client: Ipv4Addr::new(77, 0, 0, spec.client),
        server: Ipv4Addr::new(198, 18, 0, 1),
        client_port: 40_000,
        server_port: 443,
        ip_proto: 6,
        first,
        last: first + SimDuration::from_secs(spec.dur_s as i64),
        c2s_packets: 5,
        c2s_bytes: spec.up,
        c2s_payload_bytes: spec.up,
        s2c_packets: 10,
        s2c_bytes: spec.down,
        s2c_payload_bytes: spec.down,
        c2s_retrans: 0,
        s2c_retrans: 0,
        early: vec![],
        syn_seen: true,
        fin_seen: true,
        rst_seen: false,
        ground_rtt: RttSummary { samples: spec.ground_samples, min_ms: 10.0, avg_ms: 11.0, max_ms: 12.0, std_ms: 1.0 },
        s2c_data_first: None,
        s2c_data_last: None,
        sat_rtt_ms: spec.sat.map(f64::from),
        l7: L7Protocol::ALL[spec.l7 as usize],
        domain: DOMAINS[spec.domain as usize].map(Into::into),
    }
}

fn enrichment() -> Enrichment {
    let mut e = Enrichment { days: 2, ..Default::default() };
    // client 0 stays unmapped on purpose — null country/beam rows
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

// ---------------------------------------------------------------------------
// Random predicate generator (splitmix64-driven so every proptest
// case explores a different expression shape)
// ---------------------------------------------------------------------------

struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Columns the generator references — a mix of pushable small-int
/// columns and wide columns that must stay in the residual.
const COLS: [&str; 12] = [
    "country",
    "beam",
    "category",
    "service",
    "local_hour",
    "hour_utc",
    "l7",
    "bytes",
    "bytes_down",
    "dur_s",
    "sat_rtt_ms",
    "domain",
];

fn gen_lit(g: &mut Gen) -> Expr {
    let strings = ["ES", "CD", "NG", "zz", "Tiktok", "Google", "Video", "TCP/HTTPS", "docs.google.com"];
    match g.below(5) {
        0 => Expr::Lit(Value::Null),
        1 => Expr::Lit(Value::Bool(g.below(2) == 0)),
        2 => Expr::Lit(Value::Int(g.below(40_000_000) as i64 - 500)),
        3 => Expr::Lit(Value::Num(g.below(4_000) as f64 / 2.0)),
        _ => Expr::Lit(Value::Str(strings[g.below(strings.len() as u64) as usize].into())),
    }
}

fn gen_col(g: &mut Gen) -> Expr {
    Expr::Col(COLS[g.below(COLS.len() as u64) as usize].into())
}

fn gen_cmp_op(g: &mut Gen) -> CmpOp {
    [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][g.below(6) as usize]
}

fn gen_leaf(g: &mut Gen) -> Expr {
    match g.below(4) {
        0 => Expr::Cmp(gen_cmp_op(g), Box::new(gen_col(g)), Box::new(gen_lit(g))),
        1 => Expr::IsNull(Box::new(gen_col(g))),
        2 => {
            let op = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div][g.below(4) as usize];
            let arith = Expr::Arith(op, Box::new(gen_col(g)), Box::new(gen_lit(g)));
            Expr::Cmp(gen_cmp_op(g), Box::new(arith), Box::new(gen_lit(g)))
        }
        _ => Expr::Cmp(gen_cmp_op(g), Box::new(gen_col(g)), Box::new(gen_col(g))),
    }
}

fn gen_pred(g: &mut Gen, depth: u32) -> Expr {
    if depth == 0 {
        return gen_leaf(g);
    }
    match g.below(6) {
        0 => Expr::All((0..2 + g.below(2)).map(|_| gen_pred(g, depth - 1)).collect()),
        1 => Expr::Any((0..2 + g.below(2)).map(|_| gen_pred(g, depth - 1)).collect()),
        2 => Expr::Not(Box::new(gen_pred(g, depth - 1))),
        _ => gen_leaf(g),
    }
}

proptest! {
    #[test]
    fn pushdown_selects_exactly_the_naive_rows(
        specs in proptest::collection::vec(spec_strategy(), 0..100),
        seed in any::<u64>(),
    ) {
        let flows: Vec<FlowRecord> = specs.iter().map(build).collect();
        let fr = FlowFrame::from_records(&flows, &enrichment());
        let mut g = Gen(seed);
        for _ in 0..8 {
            let pred = gen_pred(&mut g, 2);
            let pushed = match_rows(&fr, &pred).unwrap();
            let naive = match_rows_naive(&fr, &pred).unwrap();
            prop_assert_eq!(&pushed, &naive, "predicate {:?}", pred);
        }
    }
}

/// A conjunction of one small-int predicate and one wide predicate
/// splits exactly as documented: one LUT, one residual conjunct.
#[test]
fn small_int_conjuncts_become_luts() {
    let flows: Vec<FlowRecord> = (0..10)
        .map(|i| {
            build(&FlowSpec {
                client: (i % 4) as u8,
                l7: (i % L7Protocol::ALL.len() as u64) as u8,
                down: i * 1000,
                up: i,
                secs: i * 300,
                dur_s: 5,
                domain: (i % 4) as u8,
                sat: None,
                ground_samples: 0,
            })
        })
        .collect();
    let fr = FlowFrame::from_records(&flows, &enrichment());
    let pred = Expr::All(vec![
        Expr::Cmp(CmpOp::Eq, Box::new(Expr::Col("country".into())), Box::new(Expr::Lit(Value::Str("ES".into())))),
        Expr::Cmp(CmpOp::Gt, Box::new(Expr::Col("bytes".into())), Box::new(Expr::Lit(Value::Int(1000)))),
    ]);
    let compiled = compile_match(&bind_frame(&pred).unwrap(), &fr);
    assert_eq!(compiled.pushed, 1, "the country conjunct is pushed");
    assert_eq!(compiled.luts.len(), 1);
    assert!(compiled.residual.is_some(), "the bytes conjunct stays residual");

    // a disjunction cannot be split into conjuncts: nothing is pushed
    let disj = Expr::Any(vec![
        Expr::Cmp(CmpOp::Eq, Box::new(Expr::Col("country".into())), Box::new(Expr::Lit(Value::Str("ES".into())))),
        Expr::Cmp(CmpOp::Gt, Box::new(Expr::Col("bytes".into())), Box::new(Expr::Lit(Value::Int(1000)))),
    ]);
    let compiled = compile_match(&bind_frame(&disj).unwrap(), &fr);
    assert_eq!(compiled.pushed, 0);
    assert!(compiled.residual.is_some());

    // ...unless the disjunction itself reads exactly one small column
    let one_col = Expr::Any(vec![
        Expr::Cmp(CmpOp::Eq, Box::new(Expr::Col("country".into())), Box::new(Expr::Lit(Value::Str("ES".into())))),
        Expr::IsNull(Box::new(Expr::Col("country".into()))),
    ]);
    let compiled = compile_match(&bind_frame(&one_col).unwrap(), &fr);
    assert_eq!(compiled.pushed, 1);
    assert!(compiled.residual.is_none());
}
