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
//!   resolved to a [`ColSlot`] (a catalog [`Col`] when compiling against
//!   a [`FlowFrame`], a result-table column index after a group or
//!   project stage). Evaluation ([`BoundExpr::eval`]) is match-on-enum,
//!   no string compares per row.
//!
//! Predicate pushdown lives here too: [`compile_match`] splits a
//! `Match` predicate into conjuncts, and every conjunct that touches
//! exactly one *code-backed* column (one whose catalog entry names a
//! code table, see [`crate::column`] — the columns `FrameBuilder`
//! pre-resolved to small integers, `day` excepted) is compiled into a
//! lookup table over that column's codes. The scan then tests one or
//! two small cells per row and never touches a wide column, or a
//! string, until the surviving rows are known.

use crate::column::{Cells, Codes, Col, Column, Kind, Null, CATALOG};
use crate::frame::FlowFrame;
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
// Frame columns, as the query reads them
// ---------------------------------------------------------------------------

/// The query's view of the column catalog: every method reads the
/// column's entry, so interpreter, pushdown and group-by agree.
impl Col {
    /// Resolve a query column name.
    pub fn from_name(name: &str) -> Option<Col> {
        CATALOG.iter().find(|c| c.queryable && c.name == name).map(|c| c.id)
    }

    /// The value of this column for row `i`.
    pub fn value(self, fr: &FlowFrame, i: usize) -> Value {
        let def = self.def();
        match self.cells(fr) {
            _ if def.codes.is_some() => self.value_of_code(fr, self.code(fr, i)),
            Cells::Addr(v) => Value::Str(v[i].to_string()),
            Cells::F64(v) => match def.null {
                Null::NaN if v[i].is_nan() => Value::Null,
                Null::ZeroIn(c) if c.int_at(fr, i) == Some(0) => Value::Null,
                _ => Value::Num(v[i]),
            },
            _ => self.int_at(fr, i).map_or(Value::Null, Value::Int),
        }
    }

    /// The integer in row `i` of an [`is_integer`](Self::is_integer)
    /// column (`None` = null): what `value` wraps in [`Value::Int`].
    #[inline]
    pub fn int_at(self, fr: &FlowFrame, i: usize) -> Option<i64> {
        self.def().int_value(self.cells(fr).int(i))
    }

    /// True when every value of this column is `Int` or `Null` — the
    /// "sum stays exact in i64" set.
    pub fn is_integer(self) -> bool {
        self.def().kind == Kind::Int
    }

    /// The raw (sentinel-encoded) cell of row `i` of a code column.
    #[inline]
    pub fn code(self, fr: &FlowFrame, i: usize) -> u32 {
        self.cells(fr).int(i) as u32
    }

    /// The [`Value`] a code decodes to: the column's sentinel, and any
    /// code past the end of its table, is `Null`. A scan compares and
    /// hashes codes; this is built once per distinct code, not once
    /// per row.
    pub fn value_of_code(self, fr: &FlowFrame, code: u32) -> Value {
        let c = code as usize;
        let label = |s: Option<&str>| s.map_or(Value::Null, |s| Value::Str(s.to_string()));
        match self.def().codes.expect("a code column") {
            Codes::Country => label(Country::ALL.get(c).map(|c| c.code())),
            Codes::Category => label(Category::ALL.get(c).map(|c| c.label())),
            Codes::L7 => label(L7Protocol::ALL.get(c).map(|p| p.label())),
            Codes::Services => label(fr.services.get(c).copied()),
            Codes::Domains => label(fr.domains.get(c).map(|d| &**d)),
            Codes::Number if self.def().null == Null::Code(code) => Value::Null,
            Codes::Number => Value::Int(i64::from(code)),
        }
    }

    /// How many lookup-table slots cover every code of this column in
    /// `fr`: one per non-null code — per dictionary entry, per byte
    /// value, or per `u16` number up to the largest present — plus a
    /// last, null slot that the sentinel (and anything else past the
    /// table) clamps to, see [`Lut::passes`]. `None` for wider numbers
    /// (`day`), whose codes no table bounds.
    fn lut_slots(self, fr: &FlowFrame) -> Option<usize> {
        let null = self.def().null;
        match (self.def().codes?, self.cells(fr)) {
            (Codes::Services, _) => Some(fr.services.len() + 1),
            (Codes::Domains, _) => Some(fr.domains.len() + 1),
            (_, Cells::U8(_)) => Some(1 << 8),
            (_, Cells::U16(v)) => {
                let largest = v.iter().filter(|&&c| null != Null::Code(u32::from(c))).max();
                Some(largest.map_or(0, |&c| c as usize + 1) + 1)
            }
            _ => None,
        }
    }
}

impl Column {
    /// A row's integer `cell` as the query reads it: `None` for the
    /// column's null code.
    #[inline]
    pub fn int_value(&self, cell: u64) -> Option<i64> {
        match self.null {
            Null::Code(null) if u64::from(null) == cell => None,
            _ => Some(cell as i64),
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
    Frame(Col),
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

/// Resolve every column name in `e` through `resolve`, which says
/// why a name it cannot resolve is wrong.
pub fn bind(e: &Expr, resolve: &dyn Fn(&str) -> Result<ColSlot, QueryError>) -> Result<BoundExpr, QueryError> {
    Ok(match e {
        Expr::Col(name) => BoundExpr::Col(resolve(name)?),
        Expr::Lit(v) => BoundExpr::Lit(v.clone()),
        Expr::Cmp(op, a, b) => BoundExpr::Cmp(*op, Box::new(bind(a, resolve)?), Box::new(bind(b, resolve)?)),
        Expr::All(es) => BoundExpr::All(es.iter().map(|e| bind(e, resolve)).collect::<Result<_, _>>()?),
        Expr::Any(es) => BoundExpr::Any(es.iter().map(|e| bind(e, resolve)).collect::<Result<_, _>>()?),
        Expr::Not(a) => BoundExpr::Not(Box::new(bind(a, resolve)?)),
        Expr::IsNull(a) => BoundExpr::IsNull(Box::new(bind(a, resolve)?)),
        Expr::Arith(op, a, b) => BoundExpr::Arith(*op, Box::new(bind(a, resolve)?), Box::new(bind(b, resolve)?)),
    })
}

/// Bind against the frame column catalog only; an unknown name's error
/// lists the catalog's.
pub fn bind_frame(e: &Expr) -> Result<BoundExpr, QueryError> {
    bind(e, &|name| {
        Col::from_name(name).map(ColSlot::Frame).ok_or_else(|| {
            let names: Vec<&str> = CATALOG.iter().filter(|c| c.queryable).map(|c| c.name).collect();
            QueryError::new(format!("unknown column \"{name}\" (frame columns: {})", names.join(", ")))
        })
    })
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
    Subst(Col, &'a Value),
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
    pub fn frame_cols(&self, out: &mut Vec<Col>) {
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
pub struct Lut<'a> {
    pub col: Col,
    pub pass: Vec<bool>,
    /// The column's cells in the frame the table was compiled for.
    codes: Cells<'a>,
}

impl Lut<'_> {
    /// Does row `i` pass this table?
    #[inline]
    pub fn passes(&self, i: usize) -> bool {
        self.pass[(self.codes.int(i) as usize).min(self.pass.len() - 1)]
    }
}

/// A `Match` predicate compiled for the frame scan: lookup-table
/// conjuncts over code columns first, then an optional residual
/// expression for whatever could not be pushed.
pub struct CompiledMatch<'a> {
    pub luts: Vec<Lut<'a>>,
    pub residual: Option<BoundExpr>,
    /// How many conjuncts were pushed into LUTs (observability).
    pub pushed: usize,
}

impl CompiledMatch<'_> {
    /// Does row `i` pass every lookup table?
    #[inline]
    pub fn luts_pass(&self, i: usize) -> bool {
        self.luts.iter().all(|l| l.passes(i))
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
pub fn compile_match<'a>(expr: &BoundExpr, fr: &'a FlowFrame) -> CompiledMatch<'a> {
    let mut conjuncts = Vec::new();
    split_and(expr, &mut conjuncts);

    let mut luts = Vec::new();
    let mut rest = Vec::new();
    for c in conjuncts {
        let mut cols = Vec::new();
        c.frame_cols(&mut cols);
        match (cols.len() == 1).then(|| cols[0]).and_then(|col| Some((col, col.lut_slots(fr)?))) {
            Some((col, slots)) => {
                let pass = (0..slots)
                    .map(|code| {
                        let v = if code + 1 == slots { Value::Null } else { col.value_of_code(fr, code as u32) };
                        truthy(&c.eval(&RowCtx::Subst(col, &v)))
                    })
                    .collect();
                luts.push(Lut { col, pass, codes: col.cells(fr) });
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
