//! Typed expression tree for the aggregation-pipeline DSL, plus the
//! tiny JSON reader that pipelines are written in.
//!
//! Three layers, front to back:
//!
//! * [`Json`] — a zero-dependency, order-preserving JSON value and
//!   parser. Object key order is kept (a `Vec` of pairs, not a map)
//!   because the order of `"by"` / `"project"` entries *is* the
//!   column order of the result table.
//! * [`Expr`] — the parsed expression: column refs by *name*,
//!   literals, comparisons, boolean ops, arithmetic. Produced by
//!   [`Expr::from_json`], still unresolved.
//! * [`BoundExpr`] — the compiled expression: every column name is
//!   resolved to a [`ColSlot`] (a [`FrameCol`] when compiling against
//!   a [`FlowFrame`], a result-table column index after a group or
//!   project stage). Evaluation ([`BoundExpr::eval`]) is match-on-enum,
//!   no string compares per row.
//!
//! Predicate pushdown lives here too: [`compile_match`] splits a
//! `Match` predicate into conjuncts, and every conjunct that touches
//! exactly one *code-backed* column (country, beam, category, service,
//! local-hour, hour-utc, l7, domain — the columns `FrameBuilder`
//! pre-resolved to small integers, see [`CodeCol`]) is compiled into a
//! lookup table over that column's codes. The scan then tests one or
//! two small cells per row and never touches a wide column, or a
//! string, until the surviving rows are known.

use crate::frame::{FlowFrame, NO_BEAM, NO_HOUR};
use satwatch_monitor::L7Protocol;
use satwatch_traffic::{Category, Country};
use std::cmp::Ordering;
use std::fmt;

/// Error raised while parsing or compiling a pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryError(pub String);

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query error: {}", self.0)
    }
}

impl std::error::Error for QueryError {}

impl QueryError {
    pub(crate) fn new(msg: impl Into<String>) -> QueryError {
        QueryError(msg.into())
    }
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// An order-preserving JSON value. Integers that fit `i64` parse as
/// [`Json::Int`]; everything else numeric is [`Json::Num`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse `src` as a single JSON value (trailing whitespace only).
    pub fn parse(src: &str) -> Result<Json, QueryError> {
        let mut p = JsonParser { bytes: src.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// The value under `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn err(&self, msg: &str) -> QueryError {
        QueryError::new(format!("{msg} (at byte {})", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), QueryError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, QueryError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, QueryError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, QueryError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, QueryError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not worth the code here:
                            // pipeline specs are ASCII in practice.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy a full UTF-8 scalar, not a byte.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, QueryError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("bad number"))
    }
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

/// A runtime value flowing through a pipeline: what a column ref or
/// expression evaluates to for one row.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
}

impl Value {
    /// True when this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric coercion: `Int`/`Num` as `f64`, `Bool` as 0/1, others
    /// `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Num(x) => Some(*x),
            Value::Bool(b) => Some(f64::from(*b)),
            _ => None,
        }
    }

    /// Total order over all values, used for group-key ordering and
    /// `sort` stages: Null < Bool < numbers < Str; `Int` and `Num`
    /// compare numerically (NaN greatest, `Int` before an equal `Num`
    /// to break ties deterministically).
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Num(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a @ (Value::Int(_) | Value::Num(_)), b @ (Value::Int(_) | Value::Num(_))) => {
                let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                match (x.is_nan(), y.is_nan()) {
                    (true, true) => Ordering::Equal,
                    (true, false) => Ordering::Greater,
                    (false, true) => Ordering::Less,
                    (false, false) => x.partial_cmp(&y).unwrap(),
                }
                // Tie-break Int-vs-Num so the order is total.
                .then_with(|| {
                    let vr = |v: &Value| u8::from(matches!(v, Value::Num(_)));
                    vr(a).cmp(&vr(b))
                })
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// SQL-style comparison for `eq`/`lt`/…: `None` when either side
    /// is null, NaN is involved, or the types are not comparable —
    /// every comparison operator then evaluates to `false`.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a @ (Value::Int(_) | Value::Num(_)), b @ (Value::Int(_) | Value::Num(_))) => {
                a.as_f64().unwrap().partial_cmp(&b.as_f64().unwrap())
            }
            _ => None,
        }
    }

    /// Render for the aligned-text table: `-` for null, shortest
    /// round-trip for floats.
    pub fn render_text(&self) -> String {
        match self {
            Value::Null => "-".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Num(x) => format!("{x}"),
            Value::Str(s) => s.clone(),
        }
    }

    /// True when the value is numeric (for right-alignment).
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Num(_))
    }
}

impl From<&Json> for Value {
    fn from(j: &Json) -> Value {
        match j {
            Json::Null => Value::Null,
            Json::Bool(b) => Value::Bool(*b),
            Json::Int(i) => Value::Int(*i),
            Json::Num(x) => Value::Num(*x),
            Json::Str(s) => Value::Str(s.clone()),
            // Arrays/objects cannot be literals; the pipeline parser
            // rejects them before this conversion is reachable.
            Json::Arr(_) | Json::Obj(_) => Value::Null,
        }
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn holds(self, ord: Option<Ordering>) -> bool {
        match (self, ord) {
            (_, None) => false,
            (CmpOp::Eq, Some(o)) => o == Ordering::Equal,
            (CmpOp::Ne, Some(o)) => o != Ordering::Equal,
            (CmpOp::Lt, Some(o)) => o == Ordering::Less,
            (CmpOp::Le, Some(o)) => o != Ordering::Greater,
            (CmpOp::Gt, Some(o)) => o == Ordering::Greater,
            (CmpOp::Ge, Some(o)) => o != Ordering::Less,
        }
    }
}

/// Arithmetic operators. `div` always yields a float; the others stay
/// in `i64` (wrapping) when both operands are integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// A parsed, unresolved expression: column refs are still names.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Col(String),
    Lit(Value),
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    All(Vec<Expr>),
    Any(Vec<Expr>),
    Not(Box<Expr>),
    IsNull(Box<Expr>),
    Arith(ArithOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Parse an expression from its JSON form:
    ///
    /// * `{"col": "service"}` — column reference
    /// * bare scalars (`42`, `"ES"`, `true`, `null`) — literals
    /// * `{"eq": [a, b]}` (also `ne`/`lt`/`le`/`gt`/`ge`)
    /// * `{"all": [e, …]}` / `{"any": [e, …]}` / `{"not": e}`
    /// * `{"isnull": e}`
    /// * `{"add": [a, b]}` (also `sub`/`mul`/`div`)
    pub fn from_json(j: &Json) -> Result<Expr, QueryError> {
        match j {
            Json::Null | Json::Bool(_) | Json::Int(_) | Json::Num(_) | Json::Str(_) => Ok(Expr::Lit(Value::from(j))),
            Json::Arr(_) => Err(QueryError::new("bare arrays are not expressions")),
            Json::Obj(fields) => {
                if fields.len() != 1 {
                    return Err(QueryError::new(
                        "an expression object must have exactly one key (an operator or \"col\")",
                    ));
                }
                let (op, arg) = &fields[0];
                match op.as_str() {
                    "col" => match arg {
                        Json::Str(name) => Ok(Expr::Col(name.clone())),
                        _ => Err(QueryError::new("\"col\" takes a column name string")),
                    },
                    "lit" => match arg {
                        Json::Arr(_) | Json::Obj(_) => {
                            Err(QueryError::new("\"lit\" takes a scalar"))
                        }
                        _ => Ok(Expr::Lit(Value::from(arg))),
                    },
                    "eq" | "ne" | "lt" | "le" | "gt" | "ge" => {
                        let cmp = match op.as_str() {
                            "eq" => CmpOp::Eq,
                            "ne" => CmpOp::Ne,
                            "lt" => CmpOp::Lt,
                            "le" => CmpOp::Le,
                            "gt" => CmpOp::Gt,
                            _ => CmpOp::Ge,
                        };
                        let (a, b) = two_args(op, arg)?;
                        Ok(Expr::Cmp(cmp, Box::new(a), Box::new(b)))
                    }
                    "all" | "any" => {
                        let Json::Arr(items) = arg else {
                            return Err(QueryError::new(format!("\"{op}\" takes an array")));
                        };
                        let exprs =
                            items.iter().map(Expr::from_json).collect::<Result<Vec<_>, _>>()?;
                        if exprs.is_empty() {
                            return Err(QueryError::new(format!("\"{op}\" needs at least one operand")));
                        }
                        Ok(if op == "all" { Expr::All(exprs) } else { Expr::Any(exprs) })
                    }
                    "not" => Ok(Expr::Not(Box::new(Expr::from_json(arg)?))),
                    "isnull" => Ok(Expr::IsNull(Box::new(Expr::from_json(arg)?))),
                    "add" | "sub" | "mul" | "div" => {
                        let ar = match op.as_str() {
                            "add" => ArithOp::Add,
                            "sub" => ArithOp::Sub,
                            "mul" => ArithOp::Mul,
                            _ => ArithOp::Div,
                        };
                        let (a, b) = two_args(op, arg)?;
                        Ok(Expr::Arith(ar, Box::new(a), Box::new(b)))
                    }
                    other => Err(QueryError::new(format!(
                        "unknown expression operator \"{other}\" (expected col/lit/{}/all/any/not/isnull/add/sub/mul/div)",
                        "eq/ne/lt/le/gt/ge"
                    ))),
                }
            }
        }
    }
}

fn two_args(op: &str, arg: &Json) -> Result<(Expr, Expr), QueryError> {
    let Json::Arr(items) = arg else {
        return Err(QueryError::new(format!("\"{op}\" takes a two-element array")));
    };
    if items.len() != 2 {
        return Err(QueryError::new(format!("\"{op}\" takes exactly two operands, got {}", items.len())));
    }
    Ok((Expr::from_json(&items[0])?, Expr::from_json(&items[1])?))
}

// ---------------------------------------------------------------------------
// Column catalog
// ---------------------------------------------------------------------------

/// A queryable `FlowFrame` column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameCol {
    Country,
    Beam,
    Category,
    Service,
    LocalHour,
    HourUtc,
    Day,
    L7,
    BytesUp,
    BytesDown,
    Bytes,
    GroundRttAvg,
    GroundRttSamples,
    SatRttMs,
    DownBps,
    DurS,
    Client,
    Domain,
}

/// Name → column table, also the reference list for error messages
/// and docs.
pub const FRAME_COLS: &[(&str, FrameCol)] = &[
    ("country", FrameCol::Country),
    ("beam", FrameCol::Beam),
    ("category", FrameCol::Category),
    ("service", FrameCol::Service),
    ("local_hour", FrameCol::LocalHour),
    ("hour_utc", FrameCol::HourUtc),
    ("day", FrameCol::Day),
    ("l7", FrameCol::L7),
    ("bytes_up", FrameCol::BytesUp),
    ("bytes_down", FrameCol::BytesDown),
    ("bytes", FrameCol::Bytes),
    ("ground_rtt_avg", FrameCol::GroundRttAvg),
    ("ground_rtt_samples", FrameCol::GroundRttSamples),
    ("sat_rtt_ms", FrameCol::SatRttMs),
    ("down_bps", FrameCol::DownBps),
    ("dur_s", FrameCol::DurS),
    ("client", FrameCol::Client),
    ("domain", FrameCol::Domain),
];

impl FrameCol {
    /// Resolve a column name.
    pub fn from_name(name: &str) -> Option<FrameCol> {
        FRAME_COLS.iter().find(|(n, _)| *n == name).map(|(_, c)| *c)
    }

    /// The canonical name of this column.
    pub fn name(self) -> &'static str {
        FRAME_COLS.iter().find(|(_, c)| *c == self).map(|(n, _)| *n).unwrap()
    }

    /// The value of this column for row `i`.
    pub fn value(self, fr: &FlowFrame, i: usize) -> Value {
        if let Some(cc) = self.code_col() {
            return cc.value_of_code(fr, cc.code(fr, i));
        }
        match self {
            FrameCol::BytesUp => Value::Int(fr.bytes_up[i] as i64),
            FrameCol::BytesDown => Value::Int(fr.bytes_down[i] as i64),
            FrameCol::Bytes => Value::Int(fr.flow_bytes(i) as i64),
            FrameCol::GroundRttAvg => {
                if fr.ground_rtt_samples[i] > 0 {
                    Value::Num(fr.ground_rtt_avg[i])
                } else {
                    Value::Null
                }
            }
            FrameCol::GroundRttSamples => Value::Int(fr.ground_rtt_samples[i] as i64),
            FrameCol::SatRttMs => match fr.sat_rtt_at(i) {
                Some(r) => Value::Num(r),
                None => Value::Null,
            },
            FrameCol::DownBps => Value::Num(fr.down_bps[i]),
            FrameCol::DurS => Value::Num(fr.dur_s[i]),
            FrameCol::Client => Value::Str(fr.client[i].to_string()),
            _ => unreachable!("code-backed columns are decoded above"),
        }
    }

    /// The integer in row `i` of an [`is_integer`](Self::is_integer)
    /// column (`None` = null) — what `value` would wrap in
    /// [`Value::Int`], without the wrapping. `None` for every other
    /// column.
    #[inline]
    pub fn int_at(self, fr: &FlowFrame, i: usize) -> Option<i64> {
        match self {
            FrameCol::Beam => (fr.beam[i] != NO_BEAM).then(|| i64::from(fr.beam[i])),
            FrameCol::LocalHour => (fr.local_hour[i] != NO_HOUR).then(|| i64::from(fr.local_hour[i])),
            FrameCol::HourUtc => Some(i64::from(fr.hour_utc[i])),
            FrameCol::Day => Some(i64::from(fr.day[i])),
            FrameCol::BytesUp => Some(fr.bytes_up[i] as i64),
            FrameCol::BytesDown => Some(fr.bytes_down[i] as i64),
            FrameCol::Bytes => Some(fr.flow_bytes(i) as i64),
            FrameCol::GroundRttSamples => Some(fr.ground_rtt_samples[i] as i64),
            _ => None,
        }
    }

    /// The code-backed view of this column, when it has one: the
    /// pushdown targets and the group-by's raw keys.
    pub fn code_col(self) -> Option<CodeCol> {
        match self {
            FrameCol::Country => Some(CodeCol::Country),
            FrameCol::Beam => Some(CodeCol::Beam),
            FrameCol::Category => Some(CodeCol::Category),
            FrameCol::Service => Some(CodeCol::Service),
            FrameCol::LocalHour => Some(CodeCol::LocalHour),
            FrameCol::HourUtc => Some(CodeCol::HourUtc),
            FrameCol::L7 => Some(CodeCol::L7),
            FrameCol::Day => Some(CodeCol::Day),
            FrameCol::Domain => Some(CodeCol::Domain),
            _ => None,
        }
    }

    /// True when every value of this column is `Int`, `Bool`, or
    /// `Null` — the "sum stays exact in i64" set.
    pub fn is_integer(self) -> bool {
        matches!(
            self,
            FrameCol::Beam
                | FrameCol::LocalHour
                | FrameCol::HourUtc
                | FrameCol::Day
                | FrameCol::BytesUp
                | FrameCol::BytesDown
                | FrameCol::Bytes
                | FrameCol::GroundRttSamples
        )
    }
}

/// A column whose cells are small integer *codes*: an index into a
/// fixed table (`Country::ALL`, `Category::ALL`, `L7Protocol::ALL`),
/// into one of the frame's dictionaries (`services`, `domains`), or
/// the number itself (hours, day, beam), with the column's sentinel
/// for null. A scan compares and hashes the code; the [`Value`] it
/// stands for is built once per distinct code, not once per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeCol {
    Country,
    Beam,
    Category,
    Service,
    LocalHour,
    HourUtc,
    L7,
    Day,
    Domain,
}

impl CodeCol {
    /// The raw (sentinel-encoded) cell of row `i`, widened to `u32`.
    #[inline]
    pub fn code(self, fr: &FlowFrame, i: usize) -> u32 {
        match self {
            CodeCol::Country => u32::from(fr.country[i]),
            CodeCol::Beam => u32::from(fr.beam[i]),
            CodeCol::Category => u32::from(fr.category[i]),
            CodeCol::Service => u32::from(fr.service[i]),
            CodeCol::LocalHour => u32::from(fr.local_hour[i]),
            CodeCol::HourUtc => u32::from(fr.hour_utc[i]),
            CodeCol::L7 => u32::from(fr.l7[i]),
            CodeCol::Day => fr.day[i],
            CodeCol::Domain => fr.domain[i],
        }
    }

    /// The [`Value`] a code decodes to: the column's sentinel, and any
    /// code past the end of its table, is `Null`.
    pub fn value_of_code(self, fr: &FlowFrame, code: u32) -> Value {
        let c = code as usize;
        let label = |s: Option<&str>| s.map_or(Value::Null, |s| Value::Str(s.to_string()));
        match self {
            CodeCol::Country => label(Country::ALL.get(c).map(|c| c.code())),
            CodeCol::Category => label(Category::ALL.get(c).map(|c| c.label())),
            CodeCol::L7 => label(L7Protocol::ALL.get(c).map(|p| p.label())),
            CodeCol::Service => label(fr.services.get(c).copied()),
            CodeCol::Domain => label(fr.domains.get(c).map(|d| &**d)),
            CodeCol::Beam if c == NO_BEAM as usize => Value::Null,
            CodeCol::LocalHour if c == NO_HOUR as usize => Value::Null,
            CodeCol::Beam | CodeCol::LocalHour | CodeCol::HourUtc | CodeCol::Day => Value::Int(i64::from(code)),
        }
    }

    /// How many lookup-table slots cover every code of this column in
    /// `fr`: one per non-null code plus a last, null slot that the
    /// sentinel (and anything else past the table) clamps to — see
    /// [`Lut::passes`]. The dictionary-coded columns are sized by
    /// their dictionary, `beam` by the largest beam present; `None`
    /// for `day`, whose codes are not bounded by any table.
    fn lut_slots(self, fr: &FlowFrame) -> Option<usize> {
        match self {
            CodeCol::Country | CodeCol::Category | CodeCol::L7 | CodeCol::LocalHour | CodeCol::HourUtc => Some(1 << 8),
            CodeCol::Service => Some(fr.services.len() + 1),
            CodeCol::Domain => Some(fr.domains.len() + 1),
            CodeCol::Beam => Some(fr.beam.iter().filter(|&&b| b != NO_BEAM).max().map_or(0, |&b| b as usize + 1) + 1),
            CodeCol::Day => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Bound expressions
// ---------------------------------------------------------------------------

/// Where a resolved column ref reads from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColSlot {
    /// A `FlowFrame` column (frame-phase stages).
    Frame(FrameCol),
    /// Column `i` of the current result table (table-phase stages).
    Table(usize),
}

/// A compiled expression: column names resolved, ready to evaluate.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    Col(ColSlot),
    Lit(Value),
    Cmp(CmpOp, Box<BoundExpr>, Box<BoundExpr>),
    All(Vec<BoundExpr>),
    Any(Vec<BoundExpr>),
    Not(Box<BoundExpr>),
    IsNull(Box<BoundExpr>),
    Arith(ArithOp, Box<BoundExpr>, Box<BoundExpr>),
}

/// Resolve every column name in `e` through `resolve`.
pub fn bind(e: &Expr, resolve: &dyn Fn(&str) -> Option<ColSlot>) -> Result<BoundExpr, QueryError> {
    Ok(match e {
        Expr::Col(name) => BoundExpr::Col(
            resolve(name).ok_or_else(|| QueryError::new(format!("unknown column \"{name}\" in this stage")))?,
        ),
        Expr::Lit(v) => BoundExpr::Lit(v.clone()),
        Expr::Cmp(op, a, b) => BoundExpr::Cmp(*op, Box::new(bind(a, resolve)?), Box::new(bind(b, resolve)?)),
        Expr::All(es) => BoundExpr::All(es.iter().map(|e| bind(e, resolve)).collect::<Result<_, _>>()?),
        Expr::Any(es) => BoundExpr::Any(es.iter().map(|e| bind(e, resolve)).collect::<Result<_, _>>()?),
        Expr::Not(a) => BoundExpr::Not(Box::new(bind(a, resolve)?)),
        Expr::IsNull(a) => BoundExpr::IsNull(Box::new(bind(a, resolve)?)),
        Expr::Arith(op, a, b) => BoundExpr::Arith(*op, Box::new(bind(a, resolve)?), Box::new(bind(b, resolve)?)),
    })
}

/// Bind against the frame column catalog only.
pub fn bind_frame(e: &Expr) -> Result<BoundExpr, QueryError> {
    bind(e, &|name| FrameCol::from_name(name).map(ColSlot::Frame))
}

/// The evaluation context for one row.
#[derive(Clone, Copy)]
pub enum RowCtx<'a> {
    /// Row `i` of a frame.
    Frame(&'a FlowFrame, usize),
    /// A materialized result-table row.
    Table(&'a [Value]),
    /// LUT construction: the single frame column `col` reads `value`;
    /// any other column ref reads Null (unreachable for pushed
    /// conjuncts, which reference exactly one column).
    Subst(FrameCol, &'a Value),
}

impl BoundExpr {
    /// Evaluate for one row.
    pub fn eval(&self, ctx: &RowCtx<'_>) -> Value {
        match self {
            BoundExpr::Col(slot) => match (slot, ctx) {
                (ColSlot::Frame(c), RowCtx::Frame(fr, i)) => c.value(fr, *i),
                (ColSlot::Table(i), RowCtx::Table(row)) => row.get(*i).cloned().unwrap_or(Value::Null),
                (ColSlot::Frame(c), RowCtx::Subst(target, v)) => {
                    if c == target {
                        (*v).clone()
                    } else {
                        Value::Null
                    }
                }
                _ => Value::Null,
            },
            BoundExpr::Lit(v) => v.clone(),
            BoundExpr::Cmp(op, a, b) => Value::Bool(op.holds(a.eval(ctx).compare(&b.eval(ctx)))),
            BoundExpr::All(es) => Value::Bool(es.iter().all(|e| truthy(&e.eval(ctx)))),
            BoundExpr::Any(es) => Value::Bool(es.iter().any(|e| truthy(&e.eval(ctx)))),
            BoundExpr::Not(a) => Value::Bool(!truthy(&a.eval(ctx))),
            BoundExpr::IsNull(a) => Value::Bool(a.eval(ctx).is_null()),
            BoundExpr::Arith(op, a, b) => arith(*op, a.eval(ctx), b.eval(ctx)),
        }
    }

    /// Collect the frame columns this expression reads.
    pub fn frame_cols(&self, out: &mut Vec<FrameCol>) {
        match self {
            BoundExpr::Col(ColSlot::Frame(c)) => {
                if !out.contains(c) {
                    out.push(*c);
                }
            }
            BoundExpr::Col(ColSlot::Table(_)) | BoundExpr::Lit(_) => {}
            BoundExpr::Cmp(_, a, b) | BoundExpr::Arith(_, a, b) => {
                a.frame_cols(out);
                b.frame_cols(out);
            }
            BoundExpr::All(es) | BoundExpr::Any(es) => {
                for e in es {
                    e.frame_cols(out);
                }
            }
            BoundExpr::Not(a) | BoundExpr::IsNull(a) => a.frame_cols(out),
        }
    }

    /// Conservative static typing: true when this expression can only
    /// evaluate to `Int`, `Bool`, or `Null` — which lets a `sum`
    /// aggregate accumulate in exact, order-insensitive `i64`.
    pub fn is_integer(&self) -> bool {
        match self {
            BoundExpr::Col(ColSlot::Frame(c)) => c.is_integer(),
            BoundExpr::Col(ColSlot::Table(_)) => false,
            BoundExpr::Lit(v) => matches!(v, Value::Int(_) | Value::Bool(_) | Value::Null),
            BoundExpr::Cmp(..) | BoundExpr::IsNull(_) | BoundExpr::Not(_) => true,
            BoundExpr::All(_) | BoundExpr::Any(_) => true,
            BoundExpr::Arith(ArithOp::Div, ..) => false,
            BoundExpr::Arith(_, a, b) => a.is_integer() && b.is_integer(),
        }
    }
}

/// Boolean coercion for filters: only `Bool(true)` passes.
pub fn truthy(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

fn arith(op: ArithOp, a: Value, b: Value) -> Value {
    // Booleans coerce to 0/1 so indicator sums work.
    let int_of = |v: &Value| match v {
        Value::Int(i) => Some(*i),
        Value::Bool(b) => Some(i64::from(*b)),
        _ => None,
    };
    if a.is_null() || b.is_null() {
        return Value::Null;
    }
    if op != ArithOp::Div {
        if let (Some(x), Some(y)) = (int_of(&a), int_of(&b)) {
            return Value::Int(match op {
                ArithOp::Add => x.wrapping_add(y),
                ArithOp::Sub => x.wrapping_sub(y),
                ArithOp::Mul => x.wrapping_mul(y),
                ArithOp::Div => unreachable!(),
            });
        }
    }
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => Value::Num(match op {
            ArithOp::Add => x + y,
            ArithOp::Sub => x - y,
            ArithOp::Mul => x * y,
            ArithOp::Div => x / y,
        }),
        _ => Value::Null,
    }
}

// ---------------------------------------------------------------------------
// Predicate pushdown
// ---------------------------------------------------------------------------

/// A compiled lookup table over one code column. The last slot
/// answers for null: the sentinel, like every code past the column's
/// table, clamps to it.
pub struct Lut {
    pub col: CodeCol,
    pub pass: Vec<bool>,
}

impl Lut {
    /// Does row `i` pass this table?
    #[inline]
    pub fn passes(&self, fr: &FlowFrame, i: usize) -> bool {
        self.pass[(self.col.code(fr, i) as usize).min(self.pass.len() - 1)]
    }
}

/// A `Match` predicate compiled for the frame scan: lookup-table
/// conjuncts over code columns first, then an optional residual
/// expression for whatever could not be pushed.
pub struct CompiledMatch {
    pub luts: Vec<Lut>,
    pub residual: Option<BoundExpr>,
    /// How many conjuncts were pushed into LUTs (observability).
    pub pushed: usize,
}

impl CompiledMatch {
    /// Does row `i` pass every lookup table?
    #[inline]
    pub fn luts_pass(&self, fr: &FlowFrame, i: usize) -> bool {
        self.luts.iter().all(|l| l.passes(fr, i))
    }
}

fn split_and(e: &BoundExpr, out: &mut Vec<BoundExpr>) {
    match e {
        BoundExpr::All(es) => {
            for sub in es {
                split_and(sub, out);
            }
        }
        other => out.push(other.clone()),
    }
}

/// Compile a bound `Match` predicate: flatten the top-level `all`,
/// turn every conjunct that reads exactly one code column into a
/// [`Lut`] (by evaluating the conjunct once per code the column can
/// hold in `fr`), and re-join the rest as the residual.
pub fn compile_match(expr: &BoundExpr, fr: &FlowFrame) -> CompiledMatch {
    let mut conjuncts = Vec::new();
    split_and(expr, &mut conjuncts);

    let mut luts = Vec::new();
    let mut rest = Vec::new();
    for c in conjuncts {
        let mut cols = Vec::new();
        c.frame_cols(&mut cols);
        let coded = if cols.len() == 1 { cols[0].code_col() } else { None };
        match coded.and_then(|cc| Some((cc, cc.lut_slots(fr)?))) {
            Some((cc, slots)) => {
                let target = cols[0];
                let pass = (0..slots)
                    .map(|code| {
                        let v = if code + 1 == slots { Value::Null } else { cc.value_of_code(fr, code as u32) };
                        truthy(&c.eval(&RowCtx::Subst(target, &v)))
                    })
                    .collect();
                luts.push(Lut { col: cc, pass });
            }
            None => rest.push(c),
        }
    }

    let pushed = luts.len();
    let residual = match rest.len() {
        0 => None,
        1 => Some(rest.pop().unwrap()),
        _ => Some(BoundExpr::All(rest)),
    };
    CompiledMatch { luts, residual, pushed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parses_scalars_and_nesting() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("2.5e1").unwrap(), Json::Num(25.0));
        assert_eq!(Json::parse(r#""a\n\"b\"""#).unwrap(), Json::Str("a\n\"b\"".to_string()));
        let j = Json::parse(r#"{"b": 1, "a": [2, {"c": null}]}"#).unwrap();
        let Json::Obj(fields) = &j else { panic!() };
        // Key order preserved.
        assert_eq!(fields[0].0, "b");
        assert_eq!(fields[1].0, "a");
        assert_eq!(j.get("b"), Some(&Json::Int(1)));
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn expr_parse_shapes() {
        let e = Expr::from_json(&Json::parse(r#"{"eq": [{"col": "country"}, "ES"]}"#).unwrap()).unwrap();
        assert_eq!(
            e,
            Expr::Cmp(CmpOp::Eq, Box::new(Expr::Col("country".into())), Box::new(Expr::Lit(Value::Str("ES".into()))))
        );
        assert!(Expr::from_json(&Json::parse(r#"{"frobnicate": 1}"#).unwrap()).is_err());
        assert!(Expr::from_json(&Json::parse(r#"{"eq": [1]}"#).unwrap()).is_err());
    }

    #[test]
    fn value_compare_null_and_nan_are_false() {
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::Num(f64::NAN).compare(&Value::Num(1.0)), None);
        assert_eq!(Value::Str("a".into()).compare(&Value::Int(1)), None);
        assert!(CmpOp::Ne.holds(Value::Int(1).compare(&Value::Int(2))));
        assert!(!CmpOp::Eq.holds(Value::Null.compare(&Value::Null)));
    }

    #[test]
    fn value_total_order_is_total() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(3),
            Value::Num(3.0),
            Value::Num(f64::NAN),
            Value::Str("x".into()),
        ];
        for a in &vals {
            assert_eq!(a.cmp_total(a), Ordering::Equal);
            for b in &vals {
                assert_eq!(a.cmp_total(b), b.cmp_total(a).reverse());
            }
        }
        // Int(3) sorts before Num(3.0), both before Num(NaN), all before Str.
        assert_eq!(Value::Int(3).cmp_total(&Value::Num(3.0)), Ordering::Less);
        assert_eq!(Value::Num(3.0).cmp_total(&Value::Num(f64::NAN)), Ordering::Less);
    }

    #[test]
    fn arith_int_stays_int_div_is_float() {
        assert_eq!(arith(ArithOp::Add, Value::Int(2), Value::Int(3)), Value::Int(5));
        assert_eq!(arith(ArithOp::Mul, Value::Bool(true), Value::Int(7)), Value::Int(7));
        assert_eq!(arith(ArithOp::Div, Value::Int(1), Value::Int(2)), Value::Num(0.5));
        assert_eq!(arith(ArithOp::Add, Value::Null, Value::Int(1)), Value::Null);
        assert_eq!(arith(ArithOp::Add, Value::Str("x".into()), Value::Int(1)), Value::Null);
    }
}
