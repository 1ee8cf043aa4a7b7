//! The sealed stream across day boundaries (DESIGN.md §5): pieces
//! written through the block codec as they are sealed are the logs the
//! single-heap reference writes at the end, byte for byte — and they
//! are only because the drive loop holds every mark at the coming
//! midnight: span time steps back there when the next day starts, and
//! the probe's marks trust its clock.

use satwatch_monitor::record::{write_dns_log, write_dns_rows, write_flow_rows, write_flows};
use satwatch_monitor::{Piece, Probe, SealMarks};
use satwatch_oracle::run_reference;
use satwatch_scenario::{run, run_sealed, DayRunner, ScenarioConfig};
use satwatch_simcore::time::SECS_PER_DAY;
use satwatch_simcore::SimTime;
use std::ops::ControlFlow;

fn cfg(seed: u64, days: u64) -> ScenarioConfig {
    ScenarioConfig::tiny().with_customers(12).with_seed(seed).with_days(days)
}

#[test]
fn sealed_pieces_through_the_block_codec_are_the_reference_logs() {
    // seed 1 is the one whose first spill hour runs past the next
    // day's first DNS transactions (see the last test): without the
    // cap in the drive loop its second day trips the sealer's check
    for (seed, days) in [(42, 1..=3), (7, 1..=3), (1, 2..=2)] {
        for days in days {
            let cfg = cfg(seed, days);
            // header once, then every piece as it is sealed
            let (mut flows, mut dns, mut pieces) = (Vec::new(), Vec::new(), 0);
            write_flows(&mut flows, &[]).unwrap();
            write_dns_log(&mut dns, &[]).unwrap();
            let sealed = run_sealed(cfg, None, |piece| {
                pieces += 1;
                write_flow_rows(&mut flows, &piece.flows).unwrap();
                write_dns_rows(&mut dns, &piece.dns).unwrap();
                ControlFlow::Continue(())
            });
            let want = run_reference(cfg);
            let (mut want_flows, mut want_dns) = (Vec::new(), Vec::new());
            write_flows(&mut want_flows, &want.flows).unwrap();
            write_dns_log(&mut want_dns, &want.dns).unwrap();
            let ctx = format!("seed {seed}, {days} day(s)");
            assert!(pieces > 100 * days, "{ctx}: {pieces} pieces — sealed at the sweeps, not at the end");
            assert_eq!(sealed.packets, want.packets, "{ctx}");
            assert!(flows == want_flows, "{ctx}: flows.tsv diverges from the reference");
            assert!(dns == want_dns, "{ctx}: dns.tsv diverges from the reference");
        }
    }
}

/// The consumer ends the run: nothing is sealed after its `Break`.
#[test]
fn a_break_ends_the_sealed_run() {
    let cfg = cfg(42, 2);
    let mut pieces = 0;
    let cut = run_sealed(cfg, None, |_| {
        pieces += 1;
        if pieces == 50 {
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    });
    assert_eq!(pieces, 50);
    assert!(cut.packets > 0 && cut.packets < run(cfg).packets / 2, "stopped within the first day");
}

/// Run `cfg` a day at a time and seal once per day, at the marks of
/// the day's last sweep — minutes into the spill hour — held at that
/// day's midnight or not. Each piece comes with the marks it was
/// sealed at.
fn seal_daily(cfg: ScenarioConfig, capped: bool) -> Vec<(Option<SealMarks>, Piece)> {
    let mut runner = DayRunner::new(cfg);
    let mut probe = Probe::new(runner.probe_config());
    let mut pieces = Vec::new();
    for day in 0..cfg.days {
        runner.run_day(&mut probe, day);
        let midnight = SimTime::from_secs((day + 1) * SECS_PER_DAY);
        let marks = probe.take_marks().expect("a day has sweeps");
        let marks = if capped { marks.capped(midnight) } else { marks };
        pieces.push((Some(marks), probe.seal(marks)));
    }
    let (flows, dns) = probe.finish();
    pieces.push((None, Piece { flows, dns }));
    pieces
}

/// Span time steps back to midnight when the next day starts, and the
/// probe's marks trust its clock: taken as they are, the marks of the
/// spill hour pass rows the next day has yet to produce — here DNS
/// transactions of its first minutes (a flow mark is held back by the
/// flows still sending, all begun before midnight). Finality is the
/// sealer's whole contract, so its debug check refuses such a row.
#[test]
fn a_mark_not_held_at_midnight_passes_rows_of_the_next_day() {
    let cfg = cfg(1, 2);
    // rows released after a seal although they start behind its marks
    let behind_a_sealed_mark = |pieces: &[(Option<SealMarks>, Piece)]| -> usize {
        let later = |k: usize| pieces[k + 1..].iter().map(|(_, piece)| piece);
        (0..pieces.len())
            .filter_map(|k| Some((k, pieces[k].0?)))
            .map(|(k, marks)| {
                later(k).flat_map(|p| &p.flows).filter(|f| f.first < marks.flows).count()
                    + later(k).flat_map(|p| &p.dns).filter(|d| d.ts < marks.dns).count()
            })
            .sum()
    };

    let capped = seal_daily(cfg, true);
    assert_eq!(behind_a_sealed_mark(&capped), 0);
    let want = run(cfg);
    let (flows, dns): (Vec<_>, Vec<_>) = capped.into_iter().map(|(_, p)| (p.flows, p.dns)).unzip();
    assert_eq!(flows.concat(), want.flows);
    assert_eq!(dns.concat(), want.dns);

    // debug builds refuse the row, release builds let it through
    match (std::panic::catch_unwind(|| seal_daily(cfg, false)), cfg!(debug_assertions)) {
        (Err(panic), true) => {
            let msg = panic.downcast_ref::<String>().expect("a formatted assertion message");
            assert!(msg.contains("arrived behind a mark already sealed"), "{msg}");
        }
        (Ok(pieces), false) => assert!(behind_a_sealed_mark(&pieces) > 0),
        (Err(_), false) => panic!("only the debug check panics"),
        (Ok(_), true) => panic!("the debug check let a row behind a sealed mark through"),
    }
}
