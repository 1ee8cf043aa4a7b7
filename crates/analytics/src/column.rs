//! The column catalog: every column of [`FlowFrame`] declared once, a
//! line of the `catalog!` table each, which the segment codec, the
//! frame's structural operations and the query binding walk (DESIGN.md
//! §10 "The column catalog").

use crate::frame::{FlowFrame, NO_BEAM, NO_CATEGORY, NO_COUNTRY, NO_DOMAIN, NO_HOUR, NO_SERVICE};
use satwatch_simcore::SimTime;
use std::net::Ipv4Addr;

/// The `Value` a non-null cell reads as (`Int`: a `sum` stays exact).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Int,
    Num,
    Str,
}

/// Which cell of a column reads as `Value::Null`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Null {
    Never,
    /// The cell holding this code, the column's `NO_*` sentinel (a
    /// label column also reads any code past its table as null).
    Code(u32),
    NaN,
    /// Every row whose cell in that column is 0: a mean over no samples.
    ZeroIn(Col),
}

/// What a code stands for: the number itself, an index into
/// `Country::ALL` / `Category::ALL` / `L7Protocol::ALL`, or into the
/// frame's `services` or `domains` (a segment stores the latter).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Codes {
    Number,
    Country,
    Category,
    L7,
    Services,
    Domains,
}

/// One catalog entry.
#[derive(Clone, Copy, Debug)]
pub struct Column {
    pub id: Col,
    /// What a pipeline reads the column by.
    pub name: &'static str,
    /// False for `first`, which the DSL does not expose.
    pub queryable: bool,
    pub kind: Kind,
    pub null: Null,
    /// `None` for a column whose cells are not codes.
    pub codes: Option<Codes>,
    /// Its runs' names in a segment, in file order: the column's name,
    /// or its codes' and its dictionary's; none for a derived column.
    pub runs: &'static [&'static str],
}

impl Column {
    /// An entry with every option at its default.
    const fn new(id: Col, name: &'static str, kind: Kind, runs: &'static [&'static str]) -> Column {
        Column { id, name, queryable: true, kind, null: Null::Never, codes: None, runs }
    }

    /// Bytes per row of its cells on disk: its cell type's.
    pub fn width(&self) -> usize {
        self.id.cells(&FlowFrame::EMPTY).width()
    }
}

/// A column of a frame as the typed slice it is.
#[derive(Clone, Copy, Debug)]
pub enum Cells<'a> {
    Addr(&'a [Ipv4Addr]),
    Time(&'a [SimTime]),
    U8(&'a [u8]),
    U16(&'a [u16]),
    U32(&'a [u32]),
    U64(&'a [u64]),
    F64(&'a [f64]),
    /// A derived column: the row-wise sum of two.
    Sum(&'a [u64], &'a [u64]),
}

impl Cells<'_> {
    /// Bytes per row on disk (an `f64` as its bit pattern).
    pub fn width(&self) -> usize {
        match self {
            Cells::U8(_) => 1,
            Cells::U16(_) => 2,
            Cells::Addr(_) | Cells::U32(_) => 4,
            Cells::Time(_) | Cells::U64(_) | Cells::F64(_) | Cells::Sum(..) => 8,
        }
    }

    /// Row `i` of an integer-celled column, sentinels and all. A scan
    /// takes a column's `Cells` once and this per row: one `match` on
    /// the cell type.
    #[inline]
    pub fn int(&self, i: usize) -> u64 {
        match *self {
            Cells::Time(v) => v[i].as_nanos(),
            Cells::U8(v) => u64::from(v[i]),
            Cells::U16(v) => u64::from(v[i]),
            Cells::U32(v) => u64::from(v[i]),
            Cells::U64(v) => v[i],
            Cells::Sum(a, b) => a[i] + b[i],
            Cells::Addr(_) | Cells::F64(_) => unreachable!("no integer cells"),
        }
    }
}

/// A stored column of a frame as the typed `Vec` it is.
#[derive(Debug)]
pub enum CellsMut<'a> {
    Addr(&'a mut Vec<Ipv4Addr>),
    Time(&'a mut Vec<SimTime>),
    U8(&'a mut Vec<u8>),
    U16(&'a mut Vec<u16>),
    U32(&'a mut Vec<u32>),
    U64(&'a mut Vec<u64>),
    F64(&'a mut Vec<f64>),
}

/// `$body` with `$v` bound to the typed `Vec` a [`CellsMut`] holds —
/// in the two-column form, `$w` to the same-typed `Vec` of a second
/// one: one generic body, compiled once per cell type.
macro_rules! with_vec {
    ($cells:expr, |$v:ident| $body:expr) => {
        match $cells {
            CellsMut::Addr($v) => $body,
            CellsMut::Time($v) => $body,
            CellsMut::U8($v) => $body,
            CellsMut::U16($v) => $body,
            CellsMut::U32($v) => $body,
            CellsMut::U64($v) => $body,
            CellsMut::F64($v) => $body,
        }
    };
    ($a:expr, $b:expr, |$v:ident, $w:ident| $body:expr) => {
        match ($a, $b) {
            (CellsMut::Addr($v), CellsMut::Addr($w)) => $body,
            (CellsMut::Time($v), CellsMut::Time($w)) => $body,
            (CellsMut::U8($v), CellsMut::U8($w)) => $body,
            (CellsMut::U16($v), CellsMut::U16($w)) => $body,
            (CellsMut::U32($v), CellsMut::U32($w)) => $body,
            (CellsMut::U64($v), CellsMut::U64($w)) => $body,
            (CellsMut::F64($v), CellsMut::F64($w)) => $body,
            _ => unreachable!("a column has one cell type in every frame"),
        }
    };
}
pub(crate) use with_vec;

/// The table, one stored column a line in segment file order, as
/// `Id(frame_field: Type) "name" Kind, option: value, …;` (`Type` a
/// [`Cells`] variant, the options [`Column`] fields), becomes `Col`,
/// [`CATALOG`], and the `match` arms of [`Col::cells`] / [`Col::cells_mut`]:
/// a per-row read is a match into a typed slice, no function pointer or
/// `dyn`. `FlowFrame::EMPTY` names every field: one with no line does
/// not compile.
macro_rules! catalog {
    ($($id:ident($field:ident: $cell:ident) $name:literal $kind:ident $(, $opt:ident: $val:expr)*;)*) => {
        /// A column of the frame, as a `Copy` id: `col.def()` is
        /// `CATALOG[col as usize]`.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Col {
            $($id,)*
            /// `bytes_up + bytes_down`: derived, stored nowhere.
            Bytes,
        }

        /// Every column, in segment file order.
        pub static CATALOG: &[Column] = &[
            $(Column { $($opt: $val,)* ..Column::new(Col::$id, $name, Kind::$kind, &[$name]) },)*
            Column::new(Col::Bytes, "bytes", Kind::Int, &[]),
        ];

        impl FlowFrame {
            /// A frame of no rows and no dictionaries.
            pub const EMPTY: FlowFrame = FlowFrame { $($field: Vec::new(),)* domains: Vec::new(), services: Vec::new() };
        }

        impl Col {
            /// This column's catalog entry.
            #[inline]
            pub fn def(self) -> &'static Column {
                &CATALOG[self as usize]
            }

            /// This column of `fr` as its typed slice.
            #[inline]
            pub fn cells(self, fr: &FlowFrame) -> Cells<'_> {
                match self {
                    $(Col::$id => Cells::$cell(&fr.$field),)*
                    Col::Bytes => Cells::Sum(&fr.bytes_up, &fr.bytes_down),
                }
            }

            /// This stored column of `fr` as its typed `Vec`.
            pub fn cells_mut(self, fr: &mut FlowFrame) -> CellsMut<'_> {
                match self {
                    $(Col::$id => CellsMut::$cell(&mut fr.$field),)*
                    Col::Bytes => unreachable!("a derived column has no Vec"),
                }
            }
        }
    };
}

catalog! {
    Client(client: Addr) "client" Str;
    First(first: Time) "first" Int, queryable: false;
    BytesUp(bytes_up: U64) "bytes_up" Int;
    BytesDown(bytes_down: U64) "bytes_down" Int;
    GroundRttAvg(ground_rtt_avg: F64) "ground_rtt_avg" Num, null: Null::ZeroIn(Col::GroundRttSamples);
    GroundRttSamples(ground_rtt_samples: U64) "ground_rtt_samples" Int;
    SatRttMs(sat_rtt_ms: F64) "sat_rtt_ms" Num, null: Null::NaN;
    DownBps(down_bps: F64) "down_bps" Num;
    DurS(dur_s: F64) "dur_s" Num;
    L7(l7: U8) "l7" Str, codes: Some(Codes::L7);
    Country(country: U8) "country" Str, codes: Some(Codes::Country), null: Null::Code(NO_COUNTRY as u32);
    LocalHour(local_hour: U8) "local_hour" Int, codes: Some(Codes::Number), null: Null::Code(NO_HOUR as u32);
    HourUtc(hour_utc: U8) "hour_utc" Int, codes: Some(Codes::Number);
    Day(day: U32) "day" Int, codes: Some(Codes::Number);
    Beam(beam: U16) "beam" Int, codes: Some(Codes::Number), null: Null::Code(NO_BEAM as u32);
    Service(service: U16) "service" Str, codes: Some(Codes::Services), null: Null::Code(NO_SERVICE as u32);
    Category(category: U8) "category" Str, codes: Some(Codes::Category), null: Null::Code(NO_CATEGORY as u32);
    Domain(domain: U32) "domain" Str, codes: Some(Codes::Domains), null: Null::Code(NO_DOMAIN),
        runs: &["domain_idx", "domain_dict"];
}

/// The columns the frame holds a `Vec` for (those with runs), in order.
pub fn stored() -> impl Iterator<Item = Col> {
    CATALOG.iter().filter(|c| !c.runs.is_empty()).map(|c| c.id)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::agg::Enrichment;
    use crate::expr::Value;
    use crate::frame::FrameBuilder;
    use crate::segment::{decode_segment, encode_segment};
    use satwatch_monitor::record::RttSummary;
    use satwatch_monitor::{FlowRecord, L7Protocol};
    use satwatch_simcore::SimDuration;
    use satwatch_traffic::Country;

    /// Row `i` of a column as bits: what "the same cell" means, `NaN`
    /// payloads included.
    fn bits(cells: Cells<'_>, i: usize) -> u64 {
        match cells {
            Cells::Addr(v) => u64::from(u32::from(v[i])),
            Cells::Time(v) => v[i].as_nanos(),
            Cells::U8(v) => u64::from(v[i]),
            Cells::U16(v) => u64::from(v[i]),
            Cells::U32(v) => u64::from(v[i]),
            Cells::U64(v) => v[i],
            Cells::F64(v) => v[i].to_bits(),
            Cells::Sum(a, b) => a[i] + b[i],
        }
    }

    fn rows(cells: Cells<'_>) -> usize {
        match cells {
            Cells::Addr(v) => v.len(),
            Cells::Time(v) => v.len(),
            Cells::U8(v) => v.len(),
            Cells::U16(v) => v.len(),
            Cells::U32(v) => v.len(),
            Cells::U64(v) | Cells::Sum(v, _) => v.len(),
            Cells::F64(v) => v.len(),
        }
    }

    /// Every column of `fr` holds `n` rows.
    fn assert_rows(fr: &FlowFrame, n: usize) {
        for c in CATALOG {
            assert_eq!(rows(c.id.cells(fr)), n, "{}", c.name);
        }
    }

    /// `a` and `b` hold the same rows in every stored column — bit for
    /// bit, `f64` by its pattern — and the same services table. Domain
    /// codes may differ (a dictionary's order is its frame's own); the
    /// names they stand for may not.
    pub(crate) fn assert_same_rows(a: &FlowFrame, b: &FlowFrame) {
        assert_rows(a, a.len());
        assert_rows(b, a.len());
        for c in stored().map(Col::def) {
            for i in 0..a.len() {
                if c.codes == Some(Codes::Domains) {
                    assert_eq!(c.id.value(a, i), c.id.value(b, i), "{} row {i}", c.name);
                } else {
                    assert_eq!(bits(c.id.cells(a), i), bits(c.id.cells(b), i), "{} row {i}", c.name);
                }
            }
        }
        assert_eq!(a.services, b.services);
    }

    /// A flow with a value in every column once enriched: a country, a
    /// beam, a classified domain, a satellite RTT, ground samples.
    fn flow(i: u8) -> FlowRecord {
        let first = SimTime::from_secs(3_600 * u64::from(i) + 7);
        FlowRecord {
            client: Ipv4Addr::new(77, 0, 0, i),
            server: Ipv4Addr::new(198, 18, 0, 1),
            client_port: 50_000 + u16::from(i),
            server_port: 443,
            ip_proto: 6,
            first,
            last: first + SimDuration::from_secs(9),
            c2s_packets: 5,
            c2s_bytes: 100 + u64::from(i),
            c2s_payload_bytes: 90,
            s2c_packets: 10,
            s2c_bytes: 1_000,
            s2c_payload_bytes: 900,
            c2s_retrans: 0,
            s2c_retrans: 1,
            early: vec![],
            syn_seen: true,
            fin_seen: true,
            rst_seen: false,
            ground_rtt: RttSummary { samples: 3, min_ms: 11.0, avg_ms: 12.5, max_ms: 14.0, std_ms: 1.0 },
            s2c_data_first: None,
            s2c_data_last: None,
            sat_rtt_ms: Some(601.25),
            l7: L7Protocol::TlsHttps,
            domain: Some(["video.tiktokv.com", "docs.google.com"][usize::from(i) % 2].into()),
        }
    }

    fn enrichment() -> Enrichment {
        let mut e = Enrichment { days: 1, ..Default::default() };
        for (i, country) in [(1, Country::Congo), (2, Country::Spain)] {
            e.country_of.insert(Ipv4Addr::new(77, 0, 0, i), country);
            e.beam_of.insert(Ipv4Addr::new(77, 0, 0, i), u16::from(i) + 2);
        }
        e
    }

    /// Set row `row` of `col` to the column's null; false when it has
    /// none.
    fn set_null(fr: &mut FlowFrame, col: &Column, row: usize) -> bool {
        match col.null {
            Null::Never => return false,
            Null::Code(code) => match col.id.cells_mut(fr) {
                CellsMut::U8(v) => v[row] = code as u8,
                CellsMut::U16(v) => v[row] = code as u16,
                CellsMut::U32(v) => v[row] = code,
                other => panic!("{}: a code sentinel over {other:?}", col.name),
            },
            Null::NaN => match col.id.cells_mut(fr) {
                CellsMut::F64(v) => v[row] = f64::NAN,
                other => panic!("{}: NaN over {other:?}", col.name),
            },
            Null::ZeroIn(count) => match count.cells_mut(fr) {
                CellsMut::U64(v) => v[row] = 0,
                other => panic!("{}: a zero count over {other:?}", col.name),
            },
        }
        true
    }

    #[test]
    fn catalog_ids_are_their_indexes_and_names_are_distinct() {
        for (i, c) in CATALOG.iter().enumerate() {
            assert_eq!(c.id as usize, i, "{}", c.name);
            assert_eq!(c.id.def().name, c.name);
        }
        let mut names: Vec<&str> =
            CATALOG.iter().flat_map(|c| [c.name].into_iter().chain(c.runs.iter().copied())).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATALOG.len() + 2, "each name once (`domain` adds two run names)");
    }

    /// Walks the catalog: a column added to it is held to the codec,
    /// the structural operations and the query binding with no edit
    /// here.
    #[test]
    fn every_column_round_trips_keeps_its_length_and_reads_its_null() {
        let flows = [flow(1), flow(2)];
        for col in CATALOG {
            let mut fr = FlowFrame::from_records(&flows, &enrichment());
            let has_null = set_null(&mut fr, col, 1);
            let name = col.name;
            // the codec is bit-exact
            assert_same_rows(&fr, &decode_segment(&encode_segment(&fr)).unwrap());
            // the structural operations keep every column the frame's length
            let mut tiled = fr.replicate(3);
            assert_rows(&tiled, 6);
            let copy = tiled.split_off(4);
            assert_rows(&tiled, 4);
            assert_same_rows(&copy, &fr);
            // the query binding: a value in row 0, the null in row 1
            if col.queryable {
                let v = col.id.value(&fr, 0);
                let kind = match v {
                    Value::Int(_) => Kind::Int,
                    Value::Num(_) => Kind::Num,
                    Value::Str(_) => Kind::Str,
                    other => panic!("{name}: {other:?} in a non-null cell"),
                };
                assert_eq!(kind, col.kind, "{name}");
                assert_eq!(col.id.value(&fr, 1).is_null(), has_null, "{name}");
                if col.kind == Kind::Int {
                    for i in 0..2 {
                        assert_eq!(
                            col.id.int_at(&fr, i).map_or(Value::Null, Value::Int),
                            col.id.value(&fr, i),
                            "{name}"
                        );
                    }
                }
            }
        }
        let mut b = FrameBuilder::new(enrichment());
        flows.iter().for_each(|f| b.push(f));
        b.seal_behind(None);
        assert_rows(&b.take_sealed_from(1), 1);
        assert_rows(b.sealed(), 0);
    }
}
