//! Adaptive Coding and Modulation (ACM).
//!
//! DVB-S2/S2X forward links adapt the MODCOD (modulation + FEC rate)
//! to each terminal's instantaneous SNR: clear-sky terminals near the
//! beam centre run 16/32APSK at high code rates, while a terminal in a
//! rain cell or at the coverage edge drops to QPSK 1/4 — trading
//! throughput for link closure. This is the physical mechanism behind
//! two observations the paper folds into "channel quality" (§6.1,
//! §6.5): impaired terminals lose goodput, not connectivity.
//!
//! The table is a condensed DVB-S2 ladder: spectral efficiency in
//! bit/symbol as a function of the available SNR margin.

/// One MODCOD step of the ladder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModCod {
    pub name: &'static str,
    /// Minimum Es/N0 required to close the link, dB.
    pub min_snr_db: f64,
    /// Spectral efficiency, bit/symbol.
    pub efficiency: f64,
}

/// Condensed DVB-S2 MODCOD ladder (normal frames, from EN 302 307).
pub const LADDER: [ModCod; 10] = [
    ModCod { name: "QPSK 1/4", min_snr_db: -2.35, efficiency: 0.490 },
    ModCod { name: "QPSK 1/2", min_snr_db: 1.00, efficiency: 0.989 },
    ModCod { name: "QPSK 3/4", min_snr_db: 4.03, efficiency: 1.487 },
    ModCod { name: "QPSK 8/9", min_snr_db: 6.20, efficiency: 1.767 },
    ModCod { name: "8PSK 2/3", min_snr_db: 6.62, efficiency: 1.980 },
    ModCod { name: "8PSK 5/6", min_snr_db: 9.35, efficiency: 2.479 },
    ModCod { name: "16APSK 3/4", min_snr_db: 10.21, efficiency: 2.967 },
    ModCod { name: "16APSK 8/9", min_snr_db: 12.89, efficiency: 3.523 },
    ModCod { name: "32APSK 4/5", min_snr_db: 13.64, efficiency: 3.952 },
    ModCod { name: "32APSK 9/10", min_snr_db: 16.05, efficiency: 4.453 },
];

/// Clear-sky SNR a nominal terminal sees at the beam centre, dB.
pub const CLEAR_SKY_SNR_DB: f64 = 14.5;
/// SNR loss at impairment = 1 (horizon-grazing terminal in heavy
/// rain), dB. The 0..1 impairment scale maps linearly onto this.
pub const MAX_IMPAIRMENT_LOSS_DB: f64 = 18.0;

/// Pick the highest-efficiency MODCOD that closes at `snr_db`.
/// Returns `None` if even the most robust MODCOD cannot close
/// (outage).
pub fn select(snr_db: f64) -> Option<ModCod> {
    LADDER.iter().rev().find(|m| snr_db >= m.min_snr_db).copied()
}

/// Effective SNR for a terminal with a given 0..1 impairment.
pub fn snr_for_impairment(impairment: f64) -> f64 {
    CLEAR_SKY_SNR_DB - impairment.clamp(0.0, 1.0) * MAX_IMPAIRMENT_LOSS_DB
}

/// Goodput factor relative to clear sky for a terminal at the given
/// impairment: the selected MODCOD's efficiency over the clear-sky
/// MODCOD's. Outage clamps to a small floor (ARQ keeps retrying).
///
/// Each call is one terminal MODCOD selection; a change from the
/// previously selected rung counts as an ACM switch
/// (`satcom_acm_modcod_switches_total`). The counter is telemetry
/// only — it never feeds back into selection.
pub fn goodput_factor(impairment: f64) -> f64 {
    let clear = select(CLEAR_SKY_SNR_DB).expect("clear sky closes").efficiency;
    let selected = select(snr_for_impairment(impairment));
    note_selection(match selected {
        Some(m) => LADDER.iter().position(|l| l.name == m.name).expect("selected from ladder"),
        None => LADDER.len(), // outage rung
    });
    match selected {
        Some(m) => m.efficiency / clear,
        None => 0.02,
    }
}

/// Record a MODCOD selection, counting transitions from the last one.
fn note_selection(rung: usize) {
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::sync::OnceLock;
    static LAST: AtomicUsize = AtomicUsize::new(usize::MAX);
    static SWITCHES: OnceLock<&'static satwatch_telemetry::Counter> = OnceLock::new();
    let prev = LAST.swap(rung, Relaxed);
    if prev != rung && prev != usize::MAX {
        SWITCHES.get_or_init(|| satwatch_telemetry::counter("satcom_acm_modcod_switches_total")).inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_monotone() {
        for w in LADDER.windows(2) {
            assert!(w[1].min_snr_db > w[0].min_snr_db, "{} vs {}", w[0].name, w[1].name);
            assert!(w[1].efficiency > w[0].efficiency);
        }
    }

    #[test]
    fn selection_picks_highest_closing() {
        assert_eq!(select(20.0).unwrap().name, "32APSK 9/10");
        assert_eq!(select(14.0).unwrap().name, "32APSK 4/5");
        assert_eq!(select(5.0).unwrap().name, "QPSK 3/4");
        assert_eq!(select(-1.0).unwrap().name, "QPSK 1/4");
        assert_eq!(select(-10.0), None, "outage below the ladder");
    }

    #[test]
    fn goodput_degrades_with_impairment() {
        let clear = goodput_factor(0.0);
        assert!((clear - 1.0).abs() < 1e-9);
        let mut last = clear;
        for imp in [0.2, 0.4, 0.6, 0.8, 1.0] {
            let g = goodput_factor(imp);
            assert!(g <= last + 1e-12, "imp {imp}: {g} > {last}");
            assert!(g > 0.0);
            last = g;
        }
        // heavy rain at the coverage edge: an order of magnitude down
        assert!(goodput_factor(0.9) < 0.3, "{}", goodput_factor(0.9));
    }

    #[test]
    fn snr_mapping_linear() {
        assert!((snr_for_impairment(0.0) - CLEAR_SKY_SNR_DB).abs() < 1e-12);
        assert!((snr_for_impairment(1.0) - (CLEAR_SKY_SNR_DB - MAX_IMPAIRMENT_LOSS_DB)).abs() < 1e-12);
        // clamped outside 0..1
        assert_eq!(snr_for_impairment(-3.0), snr_for_impairment(0.0));
        assert_eq!(snr_for_impairment(9.0), snr_for_impairment(1.0));
    }
}
