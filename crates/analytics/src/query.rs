//! `analytics::query` — the aggregation-pipeline DSL over
//! [`FlowFrame`].
//!
//! A [`Pipeline`] is a JSON-specified sequence of stages,
//! `match → group → project → sort → limit`, compiled against the
//! frame and executed as serial passes in row order:
//!
//! * **Match** filters rows. Conjuncts over the pre-resolved
//!   small-int columns are pushed down into lookup tables
//!   ([`crate::expr::compile_match`]) so the scan touches one or two
//!   bytes per row before any wide column loads.
//! * **Group** buckets the selection by key expressions and folds
//!   aggregates (`sum`/`count`/`min`/`max`/`mean`/`quantile`) in
//!   one pass, so every aggregate sees its observations in row order
//!   (DESIGN.md §8). Output rows are sorted by group key.
//! * **Project** computes derived columns; **Sort**/**Limit** shape
//!   the final [`ResultTable`], renderable as aligned text, CSV, or
//!   JSON.
//!
//! The hand-rolled figure folds in [`crate::engine`] remain the fused
//! fast path; `scenario/tests/query_equivalence.rs` re-expresses
//! Table 1 and Figures 2–4 as pipelines and pins them byte-for-byte
//! against the engine output, proving the DSL subsumes them.

use crate::column::{Cells, Col, Column};
use crate::expr::{bind, bind_frame, compile_match, truthy, BoundExpr, ColSlot, Expr, Json, QueryError, RowCtx, Value};
use crate::frame::FlowFrame;
use satwatch_simcore::stats::quantile;
use satwatch_simcore::FxHashMap;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

struct Metrics {
    rows_scanned: &'static satwatch_telemetry::Counter,
    rows_after_pushdown: &'static satwatch_telemetry::Counter,
    result_rows: &'static satwatch_telemetry::Counter,
    match_us: &'static satwatch_telemetry::Histogram,
    group_us: &'static satwatch_telemetry::Histogram,
    project_us: &'static satwatch_telemetry::Histogram,
    sort_us: &'static satwatch_telemetry::Histogram,
    run_us: &'static satwatch_telemetry::Histogram,
}

fn metrics() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        rows_scanned: satwatch_telemetry::counter("query_rows_scanned_total"),
        rows_after_pushdown: satwatch_telemetry::counter("query_rows_after_pushdown_total"),
        result_rows: satwatch_telemetry::counter("query_result_rows_total"),
        match_us: satwatch_telemetry::histogram("query_match_us"),
        group_us: satwatch_telemetry::histogram("query_group_us"),
        project_us: satwatch_telemetry::histogram("query_project_us"),
        sort_us: satwatch_telemetry::histogram("query_sort_us"),
        run_us: satwatch_telemetry::histogram("query_run_us"),
    })
}

// ---------------------------------------------------------------------------
// Pipeline model
// ---------------------------------------------------------------------------

/// Aggregate functions available in a `group` stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Sum,
    Count,
    Min,
    Max,
    Mean,
    Quantile,
}

/// One aggregate: `sum`/`mean`/… of an argument expression. `Count`
/// with no argument counts rows; with one, counts non-null values.
/// `Quantile` carries `q` (type-7, matching
/// [`satwatch_simcore::stats::quantile`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Agg {
    pub func: AggFunc,
    pub arg: Option<Expr>,
    pub q: f64,
}

/// One pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// Keep rows where the predicate is true.
    Match(Expr),
    /// Bucket by key expressions, fold aggregates per bucket.
    Group { by: Vec<(String, Expr)>, aggs: Vec<(String, Agg)> },
    /// Compute derived columns.
    Project(Vec<(String, Expr)>),
    /// Stable sort by named output columns (`"-name"` = descending).
    Sort(Vec<(String, bool)>),
    /// Keep the first `n` rows.
    Limit(usize),
}

/// A parsed pipeline: an ordered list of stages.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    pub stages: Vec<Stage>,
}

impl Pipeline {
    /// Parse a pipeline from JSON text: either a bare stage array or
    /// `{"pipeline": [...]}`. See DESIGN.md §8 for the grammar.
    pub fn parse(src: &str) -> Result<Pipeline, QueryError> {
        let json = Json::parse(src)?;
        let stages_json = match &json {
            Json::Arr(items) => items,
            Json::Obj(_) => match json.get("pipeline") {
                Some(Json::Arr(items)) => items,
                _ => return Err(QueryError::new("expected a stage array or {\"pipeline\": [...]}")),
            },
            _ => return Err(QueryError::new("expected a stage array or {\"pipeline\": [...]}")),
        };
        let stages = stages_json.iter().map(parse_stage).collect::<Result<Vec<_>, _>>()?;
        if stages.is_empty() {
            return Err(QueryError::new("pipeline has no stages"));
        }
        check_stages(&stages)?;
        Ok(Pipeline { stages })
    }
}

const GROUP_OVER_TABLE: &str = "\"group\" over an already-grouped result is not supported";
const SORT_BEFORE_TABLE: &str = "\"sort\" needs a materialized table — add a group or project stage first";
const NO_TABLE: &str = "pipeline never materialized a table — add a group or project stage";

/// Hold a parsed pipeline, before any scan (and before `satwatch query`
/// simulates a customer), to the shape [`run_with_stats`] executes —
/// `group` and `project` make a table, `group` reads frame rows only,
/// `sort` a table only, a pipeline ends in a table — and resolve every
/// column it names, against the catalog before the table and the
/// table's columns after. Its first error is the executor's, which
/// still checks a hand-built pipeline mid-scan.
fn check_stages(stages: &[Stage]) -> Result<(), QueryError> {
    // the result table's columns, once a stage has made one
    let mut table: Option<Vec<String>> = None;
    for stage in stages {
        match (stage, &table) {
            (Stage::Group { .. }, Some(_)) => return Err(QueryError::new(GROUP_OVER_TABLE)),
            (Stage::Sort(_), None) => return Err(QueryError::new(SORT_BEFORE_TABLE)),
            (Stage::Match(e), names) => bind_stage(e, names.as_deref()).map(drop)?,
            (Stage::Group { by, aggs }, None) => {
                let args = aggs.iter().filter_map(|(_, a)| a.arg.as_ref());
                by.iter().map(|(_, e)| e).chain(args).try_for_each(|e| bind_frame(e).map(drop))?;
                table = Some(by.iter().map(|(n, _)| n).chain(aggs.iter().map(|(n, _)| n)).cloned().collect());
            }
            (Stage::Project(cols), names) => {
                cols.iter().try_for_each(|(_, e)| bind_stage(e, names.as_deref()).map(drop))?;
                table = Some(cols.iter().map(|(n, _)| n.clone()).collect());
            }
            (Stage::Sort(keys), Some(names)) => {
                keys.iter().try_for_each(|(key, _)| result_col(names, key).map(drop))?
            }
            (Stage::Limit(_), _) => {}
        }
    }
    table.map(drop).ok_or_else(|| QueryError::new(NO_TABLE))
}

/// Bind `e` against the frame catalog (`names` = `None`) or against
/// the result table's columns.
fn bind_stage(e: &Expr, names: Option<&[String]>) -> Result<BoundExpr, QueryError> {
    match names {
        None => bind_frame(e),
        Some(names) => bind(e, &|name| result_col(names, name).map(ColSlot::Table)),
    }
}

/// The index of result column `name`, or an error listing the columns
/// there are.
fn result_col(names: &[String], name: &str) -> Result<usize, QueryError> {
    names
        .iter()
        .position(|c| c == name)
        .ok_or_else(|| QueryError::new(format!("unknown result column \"{name}\" (have: {})", names.join(", "))))
}

fn parse_stage(j: &Json) -> Result<Stage, QueryError> {
    let Json::Obj(fields) = j else {
        return Err(QueryError::new("each stage must be an object with one key"));
    };
    if fields.len() != 1 {
        return Err(QueryError::new("each stage must have exactly one key"));
    }
    let (name, arg) = &fields[0];
    match name.as_str() {
        "match" => Ok(Stage::Match(Expr::from_json(arg)?)),
        "group" => parse_group(arg),
        "project" => Ok(Stage::Project(parse_named_exprs(arg, "project")?)),
        "sort" => parse_sort(arg),
        "limit" => match arg {
            Json::Int(n) if *n >= 0 => Ok(Stage::Limit(*n as usize)),
            _ => Err(QueryError::new("\"limit\" takes a non-negative integer")),
        },
        other => Err(QueryError::new(format!("unknown stage \"{other}\" (expected match/group/project/sort/limit)"))),
    }
}

/// Parse `{"name": expr, ...}`; a bare string value is shorthand for a
/// column ref, so `{"svc": "service"}` means `{"svc": {"col": "service"}}`.
fn parse_named_exprs(j: &Json, stage: &str) -> Result<Vec<(String, Expr)>, QueryError> {
    match j {
        Json::Obj(fields) => fields
            .iter()
            .map(|(name, v)| {
                let e = match v {
                    Json::Str(col) => Expr::Col(col.clone()),
                    other => Expr::from_json(other)?,
                };
                Ok((name.clone(), e))
            })
            .collect(),
        // `["service", "country"]` — name each output after the column.
        Json::Arr(items) => items
            .iter()
            .map(|v| match v {
                Json::Str(col) => Ok((col.clone(), Expr::Col(col.clone()))),
                _ => Err(QueryError::new(format!("\"{stage}\" array entries must be column name strings"))),
            })
            .collect(),
        _ => Err(QueryError::new(format!("\"{stage}\" takes an object or a column name array"))),
    }
}

fn parse_group(j: &Json) -> Result<Stage, QueryError> {
    let Json::Obj(_) = j else {
        return Err(QueryError::new("\"group\" takes {\"by\": ..., \"aggs\": ...}"));
    };
    let by = match j.get("by") {
        Some(b) => parse_named_exprs(b, "by")?,
        None => Vec::new(),
    };
    let aggs_json = j.get("aggs").ok_or_else(|| QueryError::new("\"group\" needs an \"aggs\" object"))?;
    let Json::Obj(agg_fields) = aggs_json else {
        return Err(QueryError::new("\"aggs\" must be an object of name → aggregate"));
    };
    let mut aggs = Vec::new();
    for (out, spec) in agg_fields {
        let Json::Obj(f) = spec else {
            return Err(QueryError::new(format!("aggregate \"{out}\" must be an object like {{\"sum\": ...}}")));
        };
        if f.len() != 1 {
            return Err(QueryError::new(format!("aggregate \"{out}\" must have exactly one key")));
        }
        let (func_name, arg) = &f[0];
        let agg = match func_name.as_str() {
            "count" => match arg {
                Json::Bool(true) | Json::Null => Agg { func: AggFunc::Count, arg: None, q: 0.0 },
                other => Agg { func: AggFunc::Count, arg: Some(expr_or_col(other)?), q: 0.0 },
            },
            "sum" | "min" | "max" | "mean" => {
                let func = match func_name.as_str() {
                    "sum" => AggFunc::Sum,
                    "min" => AggFunc::Min,
                    "max" => AggFunc::Max,
                    _ => AggFunc::Mean,
                };
                Agg { func, arg: Some(expr_or_col(arg)?), q: 0.0 }
            }
            "quantile" => {
                let Json::Arr(items) = arg else {
                    return Err(QueryError::new("\"quantile\" takes [expr, q]"));
                };
                if items.len() != 2 {
                    return Err(QueryError::new("\"quantile\" takes [expr, q]"));
                }
                let q = match &items[1] {
                    Json::Num(x) => *x,
                    Json::Int(i) => *i as f64,
                    _ => return Err(QueryError::new("quantile q must be a number")),
                };
                if !(0.0..=1.0).contains(&q) {
                    return Err(QueryError::new("quantile q must be in [0, 1]"));
                }
                Agg { func: AggFunc::Quantile, arg: Some(expr_or_col(&items[0])?), q }
            }
            other => {
                return Err(QueryError::new(format!(
                    "unknown aggregate \"{other}\" (expected sum/count/min/max/mean/quantile)"
                )))
            }
        };
        aggs.push((out.clone(), agg));
    }
    if aggs.is_empty() {
        return Err(QueryError::new("\"aggs\" must define at least one aggregate"));
    }
    Ok(Stage::Group { by, aggs })
}

/// A bare string in aggregate-argument position is a column ref.
fn expr_or_col(j: &Json) -> Result<Expr, QueryError> {
    match j {
        Json::Str(col) => Ok(Expr::Col(col.clone())),
        other => Expr::from_json(other),
    }
}

fn parse_sort(j: &Json) -> Result<Stage, QueryError> {
    let parse_key = |s: &str| -> (String, bool) {
        match s.strip_prefix('-') {
            Some(rest) => (rest.to_string(), true),
            None => (s.to_string(), false),
        }
    };
    match j {
        Json::Str(s) => Ok(Stage::Sort(vec![parse_key(s)])),
        Json::Arr(items) => {
            let mut keys = Vec::new();
            for it in items {
                let Json::Str(s) = it else {
                    return Err(QueryError::new("\"sort\" entries must be column names (\"-name\" for descending)"));
                };
                keys.push(parse_key(s));
            }
            if keys.is_empty() {
                return Err(QueryError::new("\"sort\" needs at least one key"));
            }
            Ok(Stage::Sort(keys))
        }
        _ => Err(QueryError::new("\"sort\" takes a column name or an array of them")),
    }
}

// ---------------------------------------------------------------------------
// Result table
// ---------------------------------------------------------------------------

/// A materialized query result: named columns, rows of [`Value`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTable {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl ResultTable {
    /// Aligned fixed-width text: numeric columns right-aligned,
    /// everything else left-aligned, nulls as `-`.
    pub fn render_text(&self) -> String {
        let cells: Vec<Vec<String>> = self.rows.iter().map(|r| r.iter().map(Value::render_text).collect()).collect();
        let right: Vec<bool> = (0..self.columns.len()).map(|c| self.rows.iter().any(|r| r[c].is_numeric())).collect();
        let widths: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(c, name)| cells.iter().map(|r| r[c].len()).chain([name.len()]).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        let mut push_row = |fields: &[String]| {
            for (c, field) in fields.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                let w = widths[c];
                if right[c] {
                    out.push_str(&format!("{field:>w$}"));
                } else if c + 1 == fields.len() {
                    out.push_str(field); // no trailing padding
                } else {
                    out.push_str(&format!("{field:<w$}"));
                }
            }
            out.push('\n');
        };
        push_row(&self.columns.to_vec());
        for row in &cells {
            push_row(row);
        }
        out
    }

    /// RFC-4180-ish CSV: header row, fields quoted when they contain
    /// a comma, quote, or newline; nulls empty.
    pub fn render_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(&self.columns.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            let line = row
                .iter()
                .map(|v| match v {
                    Value::Null => String::new(),
                    Value::Str(s) => field(s),
                    other => other.render_text(),
                })
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Compact JSON: `{"columns": [...], "rows": [[...], ...]}`.
    pub fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for ch in s.chars() {
                match ch {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        fn val(v: &Value) -> String {
            match v {
                Value::Null => "null".to_string(),
                Value::Bool(b) => b.to_string(),
                Value::Int(i) => i.to_string(),
                Value::Num(x) if x.is_finite() => format!("{x}"),
                Value::Num(_) => "null".to_string(), // NaN/inf have no JSON form
                Value::Str(s) => esc(s),
            }
        }
        let cols = self.columns.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",");
        let rows = self
            .rows
            .iter()
            .map(|r| format!("[{}]", r.iter().map(val).collect::<Vec<_>>().join(",")))
            .collect::<Vec<_>>()
            .join(",");
        format!("{{\"columns\":[{cols}],\"rows\":[{rows}]}}")
    }
}

/// Scan observability for one [`run_with_stats`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Rows entering `match` stages (frame rows for the first match).
    pub rows_scanned: u64,
    /// Rows surviving the pushed-down lookup tables, before the
    /// residual predicate runs.
    pub rows_after_pushdown: u64,
    /// Rows in the final table.
    pub result_rows: u64,
}

// ---------------------------------------------------------------------------
// Group-by machinery
// ---------------------------------------------------------------------------

/// A key value under group equality: by value bits, with NaN and
/// -0.0 canonicalized.
#[derive(Debug, Clone)]
struct KeyVal(Value);

fn canon_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else if x == 0.0 {
        0.0f64.to_bits()
    } else {
        x.to_bits()
    }
}

impl PartialEq for KeyVal {
    fn eq(&self, other: &KeyVal) -> bool {
        match (&self.0, &other.0) {
            (Value::Num(x), Value::Num(y)) => canon_bits(*x) == canon_bits(*y),
            (a, b) => a == b,
        }
    }
}

impl Eq for KeyVal {}

impl Hash for KeyVal {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match &self.0 {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            Value::Num(x) => {
                3u8.hash(state);
                canon_bits(*x).hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

/// How one `by` expression yields a `u32` code per row.
enum KeySlot<'a> {
    /// A bare code-backed column: the raw cell is the code.
    Code(Col, Cells<'a>),
    /// Any other expression: evaluated per row and interned, so the
    /// rest of the group-by sees a code column like any other.
    Interned(BoundExpr),
}

/// Intern table of one key slot: a value's code is the position, in
/// first-seen order, of the first value equal to it under group
/// equality.
#[derive(Default)]
struct Interner {
    codes: FxHashMap<KeyVal, u32>,
}

impl Interner {
    /// The code of `v`, and `v` back: the caller keeps it as the
    /// group's representative if this row turns out to open a group.
    fn intern(&mut self, v: Value) -> (u32, Value) {
        let v = KeyVal(v);
        if let Some(&code) = self.codes.get(&v) {
            return (code, v.0);
        }
        let code = self.codes.len() as u32;
        self.codes.insert(KeyVal(v.0.clone()), code);
        (code, v.0)
    }
}

/// Aggregate state. Float sums are running left folds from `0.0` in
/// row order; only `quantile` keeps its observations.
#[derive(Debug, Clone)]
enum AggState {
    SumInt(i64),
    SumFloat(f64),
    Count(u64),
    Min(Option<Value>),
    Max(Option<Value>),
    Mean { sum: f64, n: u64 },
    Collect(Vec<f64>),
}

/// What an aggregate folds per row.
#[derive(Clone)]
enum AggArg<'a> {
    /// `count` with no argument: every row.
    Rows,
    /// A bare integer column: read as `i64`, no [`Value`] in between.
    IntCol(&'static Column, Cells<'a>),
    /// Anything else, through the expression interpreter.
    Expr(BoundExpr),
}

#[derive(Clone)]
struct CompiledAgg<'a> {
    func: AggFunc,
    arg: AggArg<'a>,
    q: f64,
    int_sum: bool,
}

impl<'a> CompiledAgg<'a> {
    fn compile(a: &Agg, fr: &'a FlowFrame) -> Result<CompiledAgg<'a>, QueryError> {
        let bound = a.arg.as_ref().map(bind_frame).transpose()?;
        let int_sum = a.func == AggFunc::Sum && bound.as_ref().is_some_and(BoundExpr::is_integer);
        let arg = match bound {
            None => AggArg::Rows,
            Some(BoundExpr::Col(ColSlot::Frame(c))) if c.is_integer() => AggArg::IntCol(c.def(), c.cells(fr)),
            Some(e) => AggArg::Expr(e),
        };
        Ok(CompiledAgg { func: a.func, arg, q: a.q, int_sum })
    }

    fn new_state(&self) -> AggState {
        match self.func {
            AggFunc::Sum if self.int_sum => AggState::SumInt(0),
            AggFunc::Sum => AggState::SumFloat(0.0),
            AggFunc::Count => AggState::Count(0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Mean => AggState::Mean { sum: 0.0, n: 0 },
            AggFunc::Quantile => AggState::Collect(Vec::new()),
        }
    }

    /// Fold row `i` of `fr`. Sums and counts of a bare integer column
    /// stay in integers; everything else goes through a [`Value`].
    #[inline]
    fn absorb(&self, state: &mut AggState, fr: &FlowFrame, i: usize) {
        match (&self.arg, state) {
            (AggArg::Rows, AggState::Count(n)) => *n += 1,
            (AggArg::Rows, _) => unreachable!("only count takes no argument"),
            (AggArg::IntCol(c, cells), AggState::SumInt(acc)) => {
                *acc = acc.wrapping_add(c.int_value(cells.int(i)).unwrap_or(0))
            }
            (AggArg::IntCol(c, cells), AggState::Count(n)) => *n += u64::from(c.int_value(cells.int(i)).is_some()),
            (AggArg::IntCol(c, cells), state) => {
                absorb_value(state, c.int_value(cells.int(i)).map_or(Value::Null, Value::Int))
            }
            (AggArg::Expr(e), state) => absorb_value(state, e.eval(&RowCtx::Frame(fr, i))),
        }
    }

    fn finish(&self, state: AggState) -> Value {
        match state {
            AggState::SumInt(acc) => Value::Int(acc),
            AggState::SumFloat(sum) => Value::Num(sum),
            AggState::Count(n) => Value::Int(n as i64),
            AggState::Min(best) | AggState::Max(best) => best.unwrap_or(Value::Null),
            AggState::Mean { n: 0, .. } => Value::Null,
            AggState::Mean { sum, n } => Value::Num(sum / n as f64),
            AggState::Collect(buf) if buf.is_empty() => Value::Null,
            AggState::Collect(buf) => Value::Num(quantile(&buf, self.q)),
        }
    }
}

/// Replace `best` by `v` when there is none yet or `v` compares
/// `want` against it (strictly: the first of equal values is kept).
fn keep_best(best: &mut Option<Value>, v: Value, want: Ordering) {
    if best.as_ref().is_none_or(|b| v.cmp_total(b) == want) {
        *best = Some(v);
    }
}

/// Fold one evaluated argument into `state`.
fn absorb_value(state: &mut AggState, v: Value) {
    let comparable = !v.is_null() && !matches!(v, Value::Num(x) if x.is_nan());
    // what the float aggregates fold: a number that is not NaN
    let observed = || v.as_f64().filter(|x| !x.is_nan());
    match state {
        AggState::SumInt(acc) => match v {
            Value::Int(i) => *acc = acc.wrapping_add(i),
            Value::Bool(b) => *acc = acc.wrapping_add(i64::from(b)),
            _ => {} // Null skipped; Num unreachable (static typing)
        },
        AggState::SumFloat(sum) => {
            if let Some(x) = observed() {
                *sum += x;
            }
        }
        AggState::Mean { sum, n } => {
            if let Some(x) = observed() {
                *sum += x;
                *n += 1;
            }
        }
        AggState::Collect(buf) => buf.extend(observed()),
        AggState::Count(n) => *n += u64::from(!v.is_null()),
        AggState::Min(best) if comparable => keep_best(best, v, Ordering::Less),
        AggState::Max(best) if comparable => keep_best(best, v, Ordering::Greater),
        AggState::Min(_) | AggState::Max(_) => {}
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

enum State {
    /// Frame phase: `None` = all rows, `Some(sel)` = surviving row ids.
    Rows(Option<Vec<u32>>),
    /// Table phase, after a group or project.
    Table(ResultTable),
}

/// Run `pipeline` over `fr`.
pub fn run(fr: &FlowFrame, pipeline: &Pipeline) -> Result<ResultTable, QueryError> {
    run_with_stats(fr, pipeline, 1).map(|(t, _)| t)
}

/// Like [`run`], also returning scan statistics (rows scanned vs rows
/// surviving pushdown — the counters behind the
/// `query_rows_*_total` telemetry). `_workers` is ignored: the scans
/// run on the calling thread, and the parameter stays only because
/// `benchmark/` calls this signature (DESIGN.md §10).
pub fn run_with_stats(
    fr: &FlowFrame,
    pipeline: &Pipeline,
    _workers: usize,
) -> Result<(ResultTable, QueryStats), QueryError> {
    let m = metrics();
    let _run = satwatch_telemetry::Span::over(m.run_us);
    let mut stats = QueryStats::default();
    let mut state = State::Rows(None);

    for stage in &pipeline.stages {
        state = match (stage, state) {
            (Stage::Match(expr), State::Rows(sel)) => State::Rows(Some(run_match(fr, expr, sel, &mut stats)?)),
            (Stage::Match(expr), State::Table(t)) => State::Table(run_table_match(t, expr)?),
            (Stage::Group { by, aggs }, State::Rows(sel)) => State::Table(run_group(fr, by, aggs, sel)?),
            (Stage::Group { .. }, State::Table(_)) => return Err(QueryError::new(GROUP_OVER_TABLE)),
            (Stage::Project(cols), State::Rows(sel)) => State::Table(run_frame_project(fr, cols, sel)?),
            (Stage::Project(cols), State::Table(t)) => State::Table(run_table_project(t, cols)?),
            (Stage::Sort(keys), State::Table(mut t)) => {
                let _s = satwatch_telemetry::Span::over(m.sort_us);
                let idx = keys
                    .iter()
                    .map(|(name, desc)| result_col(&t.columns, name).map(|i| (i, *desc)))
                    .collect::<Result<Vec<_>, _>>()?;
                t.rows.sort_by(|a, b| {
                    for (i, desc) in &idx {
                        let ord = a[*i].cmp_total(&b[*i]);
                        let ord = if *desc { ord.reverse() } else { ord };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                State::Table(t)
            }
            (Stage::Sort(_), State::Rows(_)) => return Err(QueryError::new(SORT_BEFORE_TABLE)),
            (Stage::Limit(n), State::Table(mut t)) => {
                t.rows.truncate(*n);
                State::Table(t)
            }
            (Stage::Limit(n), State::Rows(Some(mut sel))) => {
                sel.truncate(*n);
                State::Rows(Some(sel))
            }
            (Stage::Limit(n), State::Rows(None)) => State::Rows(Some((0..fr.len().min(*n) as u32).collect())),
        };
    }

    match state {
        State::Table(t) => {
            stats.result_rows = t.rows.len() as u64;
            m.result_rows.add(stats.result_rows);
            Ok((t, stats))
        }
        State::Rows(_) => Err(QueryError::new(NO_TABLE)),
    }
}

/// Match over frame rows: LUT pass first (code columns only),
/// residual predicate on the survivors.
fn run_match(
    fr: &FlowFrame,
    expr: &Expr,
    sel: Option<Vec<u32>>,
    stats: &mut QueryStats,
) -> Result<Vec<u32>, QueryError> {
    let m = metrics();
    let _s = satwatch_telemetry::Span::over(m.match_us);
    let bound = bind_frame(expr)?;
    let cm = compile_match(&bound, fr);

    let scanned = sel.as_ref().map_or(fr.len(), Vec::len) as u64;
    stats.rows_scanned += scanned;
    m.rows_scanned.add(scanned);

    // Pushdown pass: only the code columns are touched.
    let mut rows: Vec<u32> = match sel {
        None => (0..fr.len() as u32).filter(|&i| cm.luts_pass(i as usize)).collect(),
        Some(mut sel) => {
            sel.retain(|&i| cm.luts_pass(i as usize));
            sel
        }
    };
    stats.rows_after_pushdown += rows.len() as u64;
    m.rows_after_pushdown.add(rows.len() as u64);

    // Residual pass: whatever could not become a LUT.
    if let Some(res) = &cm.residual {
        rows.retain(|&i| truthy(&res.eval(&RowCtx::Frame(fr, i as usize))));
    }
    Ok(rows)
}

fn run_table_match(t: ResultTable, expr: &Expr) -> Result<ResultTable, QueryError> {
    let m = metrics();
    let _s = satwatch_telemetry::Span::over(m.match_us);
    let bound = bind_stage(expr, Some(&t.columns))?;
    let rows = t.rows.into_iter().filter(|row| truthy(&bound.eval(&RowCtx::Table(row)))).collect();
    Ok(ResultTable { columns: t.columns, rows })
}

/// Open-addressing index from a fixed-arity tuple of `u32` codes to a
/// dense group number (first-seen order). The tuples live back to
/// back in one vector, so a group costs no allocation of its own, and
/// hashing and comparing a key is a few integer operations — no
/// `Hash` impl, no `memcmp` call — which is what the scan pays per
/// row.
struct GroupIndex {
    arity: usize,
    groups: usize,
    /// `arity` codes per group, in group-number order.
    keys: Vec<u32>,
    /// Group number + 1, or 0 for an empty slot; a power of two long,
    /// at most half full, probed linearly.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a slot is the hash's top bits.
    shift: u32,
}

impl GroupIndex {
    fn new(arity: usize) -> GroupIndex {
        GroupIndex { arity, groups: 0, keys: Vec::new(), slots: vec![0; 16], shift: 64 - 4 }
    }

    #[inline]
    fn home(&self, key: &[u32]) -> usize {
        let mut h = 0u64;
        for &k in key {
            h = (h.rotate_left(5) ^ u64::from(k)).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
        (h >> self.shift) as usize
    }

    #[inline]
    fn key(&self, g: usize) -> &[u32] {
        &self.keys[g * self.arity..(g + 1) * self.arity]
    }

    /// The number of the group keyed `key`, and whether this call
    /// created it.
    #[inline]
    fn find_or_insert(&mut self, key: &[u32]) -> (usize, bool) {
        debug_assert_eq!(key.len(), self.arity);
        let mask = self.slots.len() - 1;
        let mut pos = self.home(key);
        while self.slots[pos] != 0 {
            let g = self.slots[pos] as usize - 1;
            if self.key(g).iter().zip(key).all(|(a, b)| a == b) {
                return (g, false);
            }
            pos = (pos + 1) & mask;
        }
        let g = self.groups;
        self.groups += 1;
        self.keys.extend_from_slice(key);
        self.slots[pos] = g as u32 + 1;
        if self.groups * 2 > self.slots.len() {
            self.grow();
        }
        (g, true)
    }

    fn grow(&mut self) {
        self.shift -= 1;
        self.slots = vec![0; self.slots.len() * 2];
        let mask = self.slots.len() - 1;
        for g in 0..self.groups {
            let mut pos = self.home(self.key(g));
            while self.slots[pos] != 0 {
                pos = (pos + 1) & mask;
            }
            self.slots[pos] = g as u32 + 1;
        }
    }
}

/// The groups of one scan, every key a tuple of `u32` codes (one per
/// `by` slot, in order).
struct GroupTable {
    index: GroupIndex,
    /// Aggregate states, `n_aggs` per group, in group-number order.
    states: Vec<AggState>,
    /// One intern table per key slot; stays empty for a code slot.
    interned: Vec<Interner>,
    /// The interned slots' values on the row that opened each group,
    /// in group-number order: what the group renders as. (A code
    /// stands for every value equal under group equality — `0.0` and
    /// `-0.0` alike — so it cannot say which one came first *here*.)
    firsts: Vec<Value>,
}

impl GroupTable {
    fn new(n_slots: usize) -> GroupTable {
        GroupTable {
            index: GroupIndex::new(n_slots),
            states: Vec::new(),
            interned: (0..n_slots).map(|_| Interner::default()).collect(),
            firsts: Vec::new(),
        }
    }

    /// The states of the group keyed `key`, opened on first sight
    /// with `first` (drained) as its interned slots' values.
    #[inline]
    fn group(&mut self, key: &[u32], first: &mut Vec<Value>, aggs: &[CompiledAgg]) -> &mut [AggState] {
        let (g, new) = self.index.find_or_insert(key);
        if new {
            self.states.extend(aggs.iter().map(CompiledAgg::new_state));
            self.firsts.append(first);
        }
        &mut self.states[g * aggs.len()..(g + 1) * aggs.len()]
    }

    /// Fold `rows` of `fr`, in order.
    fn fold(fr: &FlowFrame, slots: &[KeySlot], aggs: &[CompiledAgg], rows: impl Iterator<Item = usize>) -> GroupTable {
        let mut table = GroupTable::new(slots.len());
        let mut key = vec![0u32; slots.len()];
        let mut first = Vec::new();
        for i in rows {
            first.clear();
            for ((slot, interner), k) in slots.iter().zip(&mut table.interned).zip(&mut key) {
                *k = match slot {
                    KeySlot::Code(_, cells) => cells.int(i) as u32,
                    KeySlot::Interned(e) => {
                        let (code, v) = interner.intern(e.eval(&RowCtx::Frame(fr, i)));
                        first.push(v);
                        code
                    }
                };
            }
            for (agg, state) in aggs.iter().zip(table.group(&key, &mut first, aggs)) {
                agg.absorb(state, fr, i);
            }
        }
        table
    }
}

/// Group the selected rows (`None` = every row) by the `by`
/// expressions and fold the aggregates.
///
/// Every group is keyed by a tuple of `u32` codes: a bare code-backed
/// column contributes its raw cell, any other expression the code its
/// value interns to. The scan therefore hashes and compares integers
/// only; [`Value`]s for the key columns are built once per *group*,
/// when the table is finished.
fn run_group(
    fr: &FlowFrame,
    by: &[(String, Expr)],
    aggs: &[(String, Agg)],
    sel: Option<Vec<u32>>,
) -> Result<ResultTable, QueryError> {
    let m = metrics();
    let _s = satwatch_telemetry::Span::over(m.group_us);
    let slots: Vec<KeySlot> = by
        .iter()
        .map(|(_, e)| {
            Ok(match bind_frame(e)? {
                BoundExpr::Col(ColSlot::Frame(c)) if c.def().codes.is_some() => KeySlot::Code(c, c.cells(fr)),
                bound => KeySlot::Interned(bound),
            })
        })
        .collect::<Result<_, QueryError>>()?;
    let compiled: Vec<CompiledAgg> =
        aggs.iter().map(|(_, a)| CompiledAgg::compile(a, fr)).collect::<Result<_, QueryError>>()?;

    // rows are visited in selection (row) order, so every aggregate
    // sees its observations in that order
    let table = match &sel {
        None => GroupTable::fold(fr, &slots, &compiled, 0..fr.len()),
        Some(sel) => GroupTable::fold(fr, &slots, &compiled, sel.iter().map(|&i| i as usize)),
    };

    // Materialise: one `Value` per key column per group, then the
    // deterministic output order — groups sorted by key under the
    // total value order.
    let GroupTable { index, states, firsts, .. } = table;
    let (mut states, mut firsts) = (states.into_iter(), firsts.into_iter());
    let mut rows: Vec<Vec<Value>> = (0..index.groups)
        .map(|g| {
            let mut row = Vec::with_capacity(slots.len() + compiled.len());
            for (&code, slot) in index.key(g).iter().zip(&slots) {
                row.push(match slot {
                    KeySlot::Code(c, _) => c.value_of_code(fr, code),
                    KeySlot::Interned(_) => firsts.next().expect("one value per interned slot per group"),
                });
            }
            row.extend(compiled.iter().zip(&mut states).map(|(agg, st)| agg.finish(st)));
            row
        })
        .collect();
    rows.sort_by(|a, b| {
        a[..slots.len()]
            .iter()
            .zip(&b[..slots.len()])
            .map(|(x, y)| x.cmp_total(y))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
    });

    let columns: Vec<String> = by.iter().map(|(n, _)| n.clone()).chain(aggs.iter().map(|(n, _)| n.clone())).collect();
    Ok(ResultTable { columns, rows })
}

fn run_frame_project(
    fr: &FlowFrame,
    cols: &[(String, Expr)],
    sel: Option<Vec<u32>>,
) -> Result<ResultTable, QueryError> {
    let m = metrics();
    let _s = satwatch_telemetry::Span::over(m.project_us);
    let exprs = cols.iter().map(|(_, e)| bind_frame(e)).collect::<Result<Vec<_>, _>>()?;
    let row = |i: usize| -> Vec<Value> {
        let ctx = RowCtx::Frame(fr, i);
        exprs.iter().map(|e| e.eval(&ctx)).collect()
    };
    let rows: Vec<Vec<Value>> = match &sel {
        None => (0..fr.len()).map(row).collect(),
        Some(sel) => sel.iter().map(|&i| row(i as usize)).collect(),
    };
    Ok(ResultTable { columns: cols.iter().map(|(n, _)| n.clone()).collect(), rows })
}

fn run_table_project(t: ResultTable, cols: &[(String, Expr)]) -> Result<ResultTable, QueryError> {
    let m = metrics();
    let _s = satwatch_telemetry::Span::over(m.project_us);
    let exprs = cols.iter().map(|(_, e)| bind_stage(e, Some(&t.columns))).collect::<Result<Vec<_>, _>>()?;
    let rows = t
        .rows
        .iter()
        .map(|row| {
            let ctx = RowCtx::Table(row);
            exprs.iter().map(|e| e.eval(&ctx)).collect()
        })
        .collect();
    Ok(ResultTable { columns: cols.iter().map(|(n, _)| n.clone()).collect(), rows })
}

/// Match rows of `fr` against a bare predicate (no full pipeline) —
/// the pushdown path. Exposed for the pushdown-vs-naive proptest.
pub fn match_rows(fr: &FlowFrame, expr: &Expr) -> Result<Vec<u32>, QueryError> {
    let mut stats = QueryStats::default();
    run_match(fr, expr, None, &mut stats)
}

/// Row-at-a-time reference filter: no pushdown. The
/// oracle the proptest checks [`match_rows`] against.
pub fn match_rows_naive(fr: &FlowFrame, expr: &Expr) -> Result<Vec<u32>, QueryError> {
    let bound = bind_frame(expr)?;
    Ok((0..fr.len()).filter(|&i| truthy(&bound.eval(&RowCtx::Frame(fr, i)))).map(|i| i as u32).collect())
}

#[cfg(test)]
#[path = "query_oracle.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(src: &str) -> Pipeline {
        Pipeline::parse(src).unwrap()
    }

    #[test]
    fn parse_rejects_malformed_pipelines() {
        assert!(Pipeline::parse("[]").is_err());
        assert!(Pipeline::parse("42").is_err());
        assert!(Pipeline::parse(r#"[{"warp": 9}]"#).is_err());
        assert!(Pipeline::parse(r#"[{"limit": -1}]"#).is_err());
        assert!(Pipeline::parse(r#"[{"group": {"by": ["x"], "aggs": {}}}]"#).is_err());
        assert!(Pipeline::parse(r#"[{"group": {"by": ["x"], "aggs": {"q": {"quantile": ["y", 2]}}}}]"#).is_err());
    }

    #[test]
    fn parse_rejects_group_over_a_table() {
        let group = r#"{"group": {"by": ["l7"], "aggs": {"n": {"count": true}}}}"#;
        for first in [group, r#"{"project": ["l7"]}"#] {
            let err = Pipeline::parse(&format!("[{first}, {group}]")).unwrap_err();
            assert_eq!(err.0, GROUP_OVER_TABLE);
        }
    }

    #[test]
    fn parse_rejects_sort_before_a_table() {
        let err =
            Pipeline::parse(r#"[{"match": {"isnull": {"col": "country"}}}, {"sort": "bytes"}, {"project": ["l7"]}]"#)
                .unwrap_err();
        assert_eq!(err.0, SORT_BEFORE_TABLE);
    }

    #[test]
    fn parse_rejects_a_pipeline_without_a_table() {
        let err = Pipeline::parse(r#"[{"match": {"isnull": {"col": "country"}}}, {"limit": 5}]"#).unwrap_err();
        assert_eq!(err.0, NO_TABLE);
    }

    /// The stages of `src`, parsed one by one and not held to anything:
    /// a pipeline as a caller could build it by hand.
    fn unchecked(src: &str) -> Pipeline {
        let Json::Arr(items) = Json::parse(src).unwrap() else { panic!("a stage array") };
        Pipeline { stages: items.iter().map(parse_stage).collect::<Result<_, _>>().unwrap() }
    }

    #[test]
    fn parse_resolves_every_column_before_any_scan() {
        let group = r#"{"group": {"by": ["l7"], "aggs": {"n": {"count": true}}}}"#;
        for (src, message) in [
            // frame phase: against the catalog
            (
                r#"[{"match": {"eq": [{"col": "nosuch"}, 1]}}, {"project": ["l7"]}]"#.to_string(),
                "unknown column \"nosuch\"",
            ),
            (r#"[{"group": {"by": ["l7"], "aggs": {"b": {"sum": "byte"}}}}]"#.to_string(), "unknown column \"byte\""),
            (
                r#"[{"project": {"x": {"add": [{"col": "dur_s"}, {"col": "first"}]}}}]"#.to_string(),
                "unknown column \"first\"",
            ),
            // table phase: against what the group or project made
            (
                format!(r#"[{group}, {{"match": {{"gt": [{{"col": "bytes"}}, 1]}}}}]"#),
                "unknown result column \"bytes\" (have: l7, n)",
            ),
            (
                format!(r#"[{group}, {{"project": ["n", "country"]}}]"#),
                "unknown result column \"country\" (have: l7, n)",
            ),
            (r#"[{"project": ["l7"]}, {"sort": "-bytes"}]"#.to_string(), "unknown result column \"bytes\" (have: l7)"),
        ] {
            let parsed = Pipeline::parse(&src).unwrap_err();
            assert!(parsed.0.starts_with(message), "{src}: {parsed}");
            // the executor, handed the same stages, stops at the same name
            assert_eq!(run(&FlowFrame::default(), &unchecked(&src)).unwrap_err(), parsed, "{src}");
        }
        // a frame-phase error lists the catalog's query names, `first` not among them
        let err = Pipeline::parse(r#"[{"project": ["nosuch"]}]"#).unwrap_err();
        assert!(err.0.contains("(frame columns: client, bytes_up, bytes_down, "), "{err}");
        assert!(!err.0.contains("first"), "{err}");
        // names the table has are fine after it, and frame names before it
        pl(&format!(
            r#"[{{"match": {{"ge": [{{"col": "local_hour"}}, 20]}}}}, {group}, {{"match": {{"gt": [{{"col": "n"}}, 1]}}}}, {{"sort": "-n"}}]"#
        ));
    }

    #[test]
    fn parse_accepts_shorthand() {
        let p = pl(r#"[
            {"match": {"eq": [{"col": "country"}, "ES"]}},
            {"group": {"by": ["service"], "aggs": {"n": {"count": true}, "b": {"sum": "bytes"}}}},
            {"sort": ["-b", "service"]},
            {"limit": 5}
        ]"#);
        assert_eq!(p.stages.len(), 4);
        match &p.stages[1] {
            Stage::Group { by, aggs } => {
                assert_eq!(by[0].0, "service");
                assert_eq!(by[0].1, Expr::Col("service".into()));
                assert_eq!(aggs.len(), 2);
            }
            other => panic!("expected group, got {other:?}"),
        }
        match &p.stages[2] {
            Stage::Sort(keys) => {
                assert_eq!(keys[0], ("b".to_string(), true));
                assert_eq!(keys[1], ("service".to_string(), false));
            }
            other => panic!("expected sort, got {other:?}"),
        }
    }

    #[test]
    fn render_text_aligns_and_csv_quotes() {
        let t = ResultTable {
            columns: vec!["name".into(), "n".into()],
            rows: vec![vec![Value::Str("a,b".into()), Value::Int(5)], vec![Value::Null, Value::Int(12345)]],
        };
        let text = t.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "name      n");
        assert_eq!(lines[1], "a,b       5");
        assert_eq!(lines[2], "-     12345");
        let csv = t.render_csv();
        assert_eq!(csv, "name,n\n\"a,b\",5\n,12345\n");
        assert_eq!(t.render_json(), r#"{"columns":["name","n"],"rows":[["a,b",5],[null,12345]]}"#);
    }
}
