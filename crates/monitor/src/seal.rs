//! Watermark sealing (DESIGN.md §10): the probe's output log, and how
//! "rows in eviction order + a mark" become canonically ordered pieces
//! whose concatenation is the canonical order of the whole capture.
//!
//! A *mark* is a time no row still to come can start before. The probe
//! computes one per log at every periodic sweep ([`SealMarks`]): a live
//! flow will log with the `first` it already has, a pending query with
//! its `asked_at`, and whatever has not begun yet begins at or after
//! the sweep. Rows strictly behind the mark are therefore *final*: the
//! canonical keys lead with that timestamp, so sorting them now puts
//! them where a sort of the whole capture would. What stays resident
//! is the live tail — minutes of rows — instead of the capture.

use crate::probe::{dns_cmp, metrics, sort_flows_canonical};
use crate::record::{DnsRecord, FlowRecord};
use satwatch_simcore::SimTime;

/// The two watermarks of one sweep: no flow record still to come has
/// `first < flows`, no DNS record `ts < dns`.
///
/// The probe knows its own clock only. A caller whose clock can step
/// back (the day loop rewinds by up to an hour at every midnight) must
/// [`cap`](SealMarks::capped) the marks at the earliest time it may
/// still replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SealMarks {
    pub flows: SimTime,
    pub dns: SimTime,
}

impl SealMarks {
    /// Both marks, neither later than `t`.
    pub fn capped(self, t: SimTime) -> SealMarks {
        SealMarks { flows: self.flows.min(t), dns: self.dns.min(t) }
    }
}

/// What one seal releases: the rows of both logs that became final, in
/// canonical order, every one at or after every row of the piece
/// before.
#[derive(Debug, Default, PartialEq)]
pub struct Piece {
    pub flows: Vec<FlowRecord>,
    pub dns: Vec<DnsRecord>,
}

/// The probe's output log: the rows it has logged and nobody has taken
/// yet. Rows leave by [`seal`](Sealer::seal) or, unsorted, by
/// [`take_flows`](Sealer::take_flows); a caller uses one of the two.
#[derive(Debug, Default)]
pub struct Sealer {
    /// Evicted flows in eviction order. Sealing sorts *stably* on the
    /// canonical key, so eviction order breaks a tie as the sort of a
    /// whole capture does.
    flows: Vec<FlowRecord>,
    /// Logged DNS transactions in observation order (ties under
    /// [`dns_cmp`] keep it).
    dns: Vec<DnsRecord>,
    /// The latest marks sealed at: every row still unsealed is at or
    /// past them, and one arriving behind them was not final when
    /// they said so (the debug check).
    sealed_to: SealMarks,
}

/// Split off, in place, every row strictly behind `mark` (`None`: every
/// row); both sides keep their order. `sealed_to` is the latest mark
/// `rows` was split at before: what is still here, or still to come,
/// is at or past it, so a mark that has not moved beyond it has nothing
/// behind it — every sweep but the last while one long flow holds the
/// flow mark — and no row is touched. An empty log keeps its buffer
/// (a caller that drains the flows with `take_flows` seals only DNS).
fn take_behind<T>(rows: &mut Vec<T>, mark: Option<SimTime>, sealed_to: SimTime, ts: impl Fn(&T) -> SimTime) -> Vec<T> {
    if rows.is_empty() || mark.is_some_and(|mark| mark <= sealed_to) {
        return Vec::new();
    }
    let tail = mark.map_or_else(Vec::new, |mark| rows.extract_if(.., |r| ts(r) >= mark).collect());
    std::mem::replace(rows, tail)
}

impl Sealer {
    /// A log that starts with the unsealed rows of an earlier one (a
    /// campaign resuming from its state file).
    pub fn carrying(flows: Vec<FlowRecord>, dns: Vec<DnsRecord>) -> Sealer {
        Sealer { flows, dns, ..Sealer::default() }
    }

    /// Log a finished (anonymized) flow, in eviction order.
    pub fn log_flow(&mut self, f: FlowRecord) {
        self.flows.push(f);
    }

    /// Log a DNS transaction, in observation order.
    pub fn log_dns(&mut self, d: DnsRecord) {
        self.dns.push(d);
    }

    /// The rows no mark has passed yet, in arrival order: what a
    /// checkpoint has to carry.
    pub fn unsealed(&self) -> (&[FlowRecord], &[DnsRecord]) {
        (&self.flows, &self.dns)
    }

    /// The flows logged since the last call, in eviction order, drained
    /// in place (the log keeps its buffer) — for a consumer that
    /// restores the canonical order itself.
    pub fn take_flows(&mut self) -> std::vec::Drain<'_, FlowRecord> {
        self.flows.drain(..)
    }

    /// Release every row strictly behind `marks` (`None`: every row —
    /// the capture is over) as the next piece.
    pub fn seal(&mut self, marks: Option<SealMarks>) -> Piece {
        let mut piece = Piece {
            flows: take_behind(&mut self.flows, marks.map(|m| m.flows), self.sealed_to.flows, |f| f.first),
            dns: take_behind(&mut self.dns, marks.map(|m| m.dns), self.sealed_to.dns, |d| d.ts),
        };
        debug_assert!(
            piece.flows.iter().all(|f| f.first >= self.sealed_to.flows)
                && piece.dns.iter().all(|d| d.ts >= self.sealed_to.dns),
            "a row arrived behind a mark already sealed at ({:?}): it was not final, pieces may now overlap",
            self.sealed_to
        );
        sort_flows_canonical(&mut piece.flows);
        piece.dns.sort_by(dns_cmp);
        let m = metrics();
        m.seal_pieces.inc();
        if let Some(marks) = marks {
            self.sealed_to =
                SealMarks { flows: self.sealed_to.flows.max(marks.flows), dns: self.sealed_to.dns.max(marks.dns) };
            // the closing seal empties both logs; a final snapshot
            // shows the tail the capture ended with instead
            m.unsealed_rows.set((self.flows.len() + self.dns.len()) as i64);
        }
        piece
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::sample_flow;

    fn flow(first_s: u64, port: u16) -> FlowRecord {
        FlowRecord { first: SimTime::from_secs(first_s), client_port: port, ..sample_flow() }
    }

    fn marks(s: u64) -> Option<SealMarks> {
        Some(SealMarks { flows: SimTime::from_secs(s), dns: SimTime::from_secs(s) })
    }

    #[test]
    fn a_row_at_the_mark_stays() {
        let mut s = Sealer::default();
        for f in [flow(30, 1), flow(10, 2), flow(20, 3), flow(10, 1)] {
            s.log_flow(f);
        }
        assert_eq!(s.seal(marks(20)).flows, [flow(10, 1), flow(10, 2)], "strictly behind, canonical order");
        assert_eq!(s.unsealed().0, [flow(30, 1), flow(20, 3)], "the tail keeps eviction order");
        // an earlier mark afterwards is legal and releases nothing
        assert_eq!(s.seal(marks(15)), Piece::default());
        assert_eq!(s.seal(None).flows, [flow(20, 3), flow(30, 1)]);
        assert_eq!(s.unsealed(), (&[][..], &[][..]));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "arrived behind a mark already sealed")]
    fn a_row_behind_a_sealed_mark_is_caught_in_debug_builds() {
        let mut s = Sealer::carrying(vec![flow(10, 1)], Vec::new());
        s.seal(marks(20));
        s.log_flow(flow(19, 1));
        s.seal(None);
    }
}
