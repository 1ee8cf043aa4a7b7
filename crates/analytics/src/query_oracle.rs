//! The row-at-a-time group-by: what [`run_group`](super) means,
//! written to be read rather than run fast, and the property test
//! that holds the code-keyed executor to it.
//!
//! One `Vec<Value>` key per row, groups found by a linear search
//! under the group equality, every aggregate argument evaluated to a
//! [`Value`] and kept, and each aggregate computed from its kept
//! values when the scan is over. No codes, no interning, no typed
//! or running accumulators — nothing the production path does to be
//! fast is in here to share a bug with.

use super::*;
use crate::column::CATALOG;
use crate::expr::{bind_frame, ArithOp, CmpOp};

struct Group {
    /// The key values of the first row that fell into the group.
    key: Vec<Value>,
    rows: u64,
    /// Per aggregate, its argument's value on every row, in row order.
    args: Vec<Vec<Value>>,
}

/// Group equality: `NaN` equals `NaN`, `-0.0` equals `0.0`, and an
/// `Int` never equals a `Num`.
fn same_key(a: &[Value], b: &[Value]) -> bool {
    a.iter().zip(b).all(|(a, b)| match (a, b) {
        (Value::Num(x), Value::Num(y)) => (x.is_nan() && y.is_nan()) || x == y,
        _ => a == b,
    })
}

fn finish(agg: &Agg, integer: bool, rows: u64, args: &[Value]) -> Value {
    let comparable = || args.iter().filter(|v| !v.is_null() && !matches!(v, Value::Num(x) if x.is_nan()));
    let floats: Vec<f64> = args.iter().filter_map(Value::as_f64).filter(|x| !x.is_nan()).collect();
    match agg.func {
        AggFunc::Count if agg.arg.is_none() => Value::Int(rows as i64),
        AggFunc::Count => Value::Int(args.iter().filter(|v| !v.is_null()).count() as i64),
        AggFunc::Sum if integer => Value::Int(args.iter().fold(0i64, |acc, v| match v {
            Value::Int(i) => acc.wrapping_add(*i),
            Value::Bool(b) => acc.wrapping_add(i64::from(*b)),
            _ => acc,
        })),
        AggFunc::Sum => Value::Num(floats.iter().fold(0.0, |a, b| a + b)),
        // the first of equal values wins, as a strict comparison keeps it
        AggFunc::Min => comparable()
            .fold(None::<&Value>, |best, v| match best {
                Some(b) if v.cmp_total(b) != Ordering::Less => Some(b),
                _ => Some(v),
            })
            .cloned()
            .unwrap_or(Value::Null),
        AggFunc::Max => comparable()
            .fold(None::<&Value>, |best, v| match best {
                Some(b) if v.cmp_total(b) != Ordering::Greater => Some(b),
                _ => Some(v),
            })
            .cloned()
            .unwrap_or(Value::Null),
        AggFunc::Mean | AggFunc::Quantile if floats.is_empty() => Value::Null,
        AggFunc::Mean => Value::Num(floats.iter().fold(0.0, |a, b| a + b) / floats.len() as f64),
        AggFunc::Quantile => Value::Num(quantile(&floats, agg.q)),
    }
}

/// Group the selected rows (`None` = every row) of `fr`, serially.
fn run_group_oracle(
    fr: &FlowFrame,
    by: &[(String, Expr)],
    aggs: &[(String, Agg)],
    sel: Option<&[u32]>,
) -> Result<ResultTable, QueryError> {
    let keys = by.iter().map(|(_, e)| bind_frame(e)).collect::<Result<Vec<_>, _>>()?;
    let args = aggs.iter().map(|(_, a)| a.arg.as_ref().map(bind_frame).transpose()).collect::<Result<Vec<_>, _>>()?;
    let rows: Vec<usize> = match sel {
        Some(sel) => sel.iter().map(|&i| i as usize).collect(),
        None => (0..fr.len()).collect(),
    };
    let mut groups: Vec<Group> = Vec::new();
    for i in rows {
        let ctx = RowCtx::Frame(fr, i);
        let key: Vec<Value> = keys.iter().map(|e| e.eval(&ctx)).collect();
        let g = groups.iter().position(|g| same_key(&g.key, &key)).unwrap_or_else(|| {
            groups.push(Group { key, rows: 0, args: vec![Vec::new(); args.len()] });
            groups.len() - 1
        });
        groups[g].rows += 1;
        for (kept, arg) in groups[g].args.iter_mut().zip(&args) {
            if let Some(e) = arg {
                kept.push(e.eval(&ctx));
            }
        }
    }
    groups.sort_by(|a, b| {
        a.key.iter().zip(&b.key).map(|(x, y)| x.cmp_total(y)).find(|o| *o != Ordering::Equal).unwrap_or(Ordering::Equal)
    });
    let columns = by.iter().map(|(n, _)| n.clone()).chain(aggs.iter().map(|(n, _)| n.clone())).collect();
    let rows = groups
        .into_iter()
        .map(|g| {
            let finished = aggs.iter().zip(&args).zip(&g.args).map(|(((_, agg), arg), kept)| {
                finish(agg, arg.as_ref().is_some_and(BoundExpr::is_integer), g.rows, kept)
            });
            g.key.iter().cloned().chain(finished).collect()
        })
        .collect();
    Ok(ResultTable { columns, rows })
}

// ---------------------------------------------------------------------------
// Random frames and random group stages
// ---------------------------------------------------------------------------

use crate::agg::Enrichment;
use proptest::prelude::*;
use proptest::TestRng;
use satwatch_monitor::record::RttSummary;
use satwatch_monitor::{FlowRecord, L7Protocol};
use satwatch_simcore::{SimDuration, SimTime};
use satwatch_traffic::Country;
use std::net::Ipv4Addr;

const DOMAINS: [Option<&str>; 5] =
    [None, Some("video.tiktokv.com"), Some("docs.google.com"), Some("x.example"), Some("rr1.googlevideo.com")];

fn record(rng: &mut TestRng) -> FlowRecord {
    let first = SimTime::from_secs(rng.below(86_400 * 3));
    FlowRecord {
        client: Ipv4Addr::new(77, 0, 0, rng.below(5) as u8),
        server: Ipv4Addr::new(198, 18, 0, 1),
        client_port: 40_000 + rng.below(20_000) as u16,
        server_port: 443,
        ip_proto: 6,
        first,
        last: first + SimDuration::from_secs(rng.below(600) as i64),
        c2s_packets: 5,
        c2s_bytes: rng.below(1_000_000),
        c2s_payload_bytes: 0,
        s2c_packets: 10,
        s2c_bytes: rng.below(30_000_000),
        s2c_payload_bytes: 0,
        c2s_retrans: 0,
        s2c_retrans: 0,
        early: vec![],
        syn_seen: true,
        fin_seen: true,
        rst_seen: false,
        ground_rtt: RttSummary {
            samples: rng.below(4),
            min_ms: 10.0,
            avg_ms: 5.0 + rng.below(40) as f64,
            max_ms: 50.0,
            std_ms: 1.0,
        },
        s2c_data_first: None,
        s2c_data_last: None,
        sat_rtt_ms: (rng.below(3) != 0).then(|| 500.0 + rng.below(200) as f64),
        l7: L7Protocol::ALL[rng.below(L7Protocol::ALL.len() as u64) as usize],
        domain: DOMAINS[rng.below(DOMAINS.len() as u64) as usize].map(Into::into),
    }
}

/// A frame with every null sentinel present (client 0 has no country
/// or beam, some flows no domain, no satellite RTT, no ground
/// samples) and, written straight into the float columns, `NaN`,
/// `-0.0`, `0.0` and infinity — values the group equality has rules
/// for and a real probe never emits.
fn frame(rng: &mut TestRng, n: usize) -> FlowFrame {
    let mut enr = Enrichment { days: 3, ..Default::default() };
    for (i, c) in [Country::Congo, Country::Spain, Country::Nigeria, Country::Ireland].into_iter().enumerate() {
        enr.country_of.insert(Ipv4Addr::new(77, 0, 0, i as u8 + 1), c);
        if i < 3 {
            enr.beam_of.insert(Ipv4Addr::new(77, 0, 0, i as u8 + 1), i as u16 * 3);
        }
    }
    let flows: Vec<FlowRecord> = (0..n).map(|_| record(rng)).collect();
    let mut fr = FlowFrame::from_records(&flows, &enr);
    const ODD: [f64; 5] = [f64::NAN, -0.0, 0.0, f64::INFINITY, 1.5];
    for i in 0..n {
        for col in [&mut fr.dur_s, &mut fr.down_bps, &mut fr.ground_rtt_avg, &mut fr.sat_rtt_ms] {
            if rng.below(3) == 0 {
                col[i] = ODD[rng.below(ODD.len() as u64) as usize];
            }
        }
    }
    fr
}

fn col(rng: &mut TestRng) -> Expr {
    let names: Vec<&str> = CATALOG.iter().filter(|c| c.queryable).map(|c| c.name).collect();
    Expr::Col(names[rng.below(names.len() as u64) as usize].to_string())
}

fn lit(rng: &mut TestRng) -> Expr {
    Expr::Lit(match rng.below(5) {
        0 => Value::Int(0),
        1 => Value::Int(rng.below(2_000) as i64 - 1_000),
        2 => Value::Num(0.5),
        3 => Value::Num(-0.0),
        _ => Value::Null,
    })
}

/// A bare column most of the time, otherwise arithmetic (which makes
/// `NaN` from `inf - inf`, `-0.0` from `-0.0 * x`, nulls from a null
/// operand) or a comparison (a boolean key).
fn expr(rng: &mut TestRng) -> Expr {
    let operand = |rng: &mut TestRng| if rng.below(2) == 0 { col(rng) } else { lit(rng) };
    match rng.below(8) {
        0 | 1 => {
            let op = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div][rng.below(4) as usize];
            Expr::Arith(op, Box::new(col(rng)), Box::new(operand(rng)))
        }
        2 => Expr::Cmp(CmpOp::Gt, Box::new(col(rng)), Box::new(operand(rng))),
        _ => col(rng),
    }
}

fn group_stage(rng: &mut TestRng) -> Stage {
    let by = (0..rng.below(4)).map(|k| (format!("k{k}"), expr(rng))).collect();
    const FUNCS: [AggFunc; 6] =
        [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max, AggFunc::Mean, AggFunc::Quantile];
    // every function once, in a random rotation, so each case covers them all
    let start = rng.below(6) as usize;
    let aggs = (0..6)
        .map(|k| {
            let func = FUNCS[(start + k) % 6];
            let arg = if func == AggFunc::Count && rng.below(2) == 0 { None } else { Some(expr(rng)) };
            (format!("a{k}"), Agg { func, arg, q: [0.0, 0.5, 0.9, 1.0][rng.below(4) as usize] })
        })
        .collect();
    Stage::Group { by, aggs }
}

fn predicate(rng: &mut TestRng) -> Expr {
    match rng.below(3) {
        0 => Expr::Not(Box::new(Expr::IsNull(Box::new(Expr::Col("country".into()))))),
        1 => Expr::Cmp(CmpOp::Gt, Box::new(Expr::Col("bytes".into())), Box::new(Expr::Lit(Value::Int(10_000_000)))),
        _ => Expr::Cmp(CmpOp::Eq, Box::new(Expr::Col("domain".into())), Box::new(Expr::Lit(Value::Str("zz".into())))),
    }
}

proptest! {
    /// The code-keyed, typed-accumulator group-by renders exactly
    /// what the row-at-a-time oracle renders — same groups, same
    /// representatives (`-0.0` vs `0.0`, which `NaN`), same float
    /// sums to the last bit, same order — over every row and over a
    /// `match`'s survivors.
    #[test]
    fn group_by_codes_equals_row_at_a_time_oracle(seed in any::<u64>(), n in 0usize..90) {
        let mut rng = TestRng::new(seed);
        let fr = frame(&mut rng, n);
        for _ in 0..4 {
            let Stage::Group { by, aggs } = group_stage(&mut rng) else { unreachable!() };
            let sel = match rng.below(2) {
                0 => None,
                _ => Some(match_rows(&fr, &predicate(&mut rng)).unwrap()),
            };
            let want = format!("{:?}", run_group_oracle(&fr, &by, &aggs, sel.as_deref()).unwrap());
            let got = format!("{:?}", run_group(&fr, &by, &aggs, sel.clone()).unwrap());
            prop_assert_eq!(&got, &want, "by {:?}, aggs {:?}, sel {:?}", by, aggs, sel);
        }
    }
}

/// One group per distinct key whatever the arity — including none at
/// all, and more key columns than any fixed-width packing would hold.
#[test]
fn group_index_handles_any_arity() {
    for arity in [0usize, 1, 2, 7] {
        let mut index = GroupIndex::new(arity);
        let key = |i: u32| (0..arity as u32).map(|s| (i >> s) & 3).collect::<Vec<u32>>();
        let mut numbers = std::collections::HashMap::new();
        for i in 0..5_000u32 {
            let (g, new) = index.find_or_insert(&key(i));
            let known = numbers.len();
            let want = *numbers.entry(key(i)).or_insert(known);
            assert_eq!((g, new), (want, want == known), "arity {arity}, row {i}");
            assert_eq!(index.key(g), key(i));
        }
        assert_eq!(index.groups, numbers.len());
    }
}
