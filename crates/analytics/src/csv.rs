//! Plot-ready CSV export for every figure.
//!
//! The text renderers in [`crate::report`] are for terminals; these
//! emitters produce the long-format CSV a plotting script (gnuplot,
//! matplotlib, vega) consumes to redraw the paper's figures. One file
//! per figure, stable column order, RFC-4180-style quoting where
//! needed.

use crate::engine::PaperReports;
use crate::report::*;
use satwatch_monitor::L7Protocol;
use std::fmt::Write as _;

fn esc(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Table 1 → `protocol,share_pct`.
pub fn table1_csv(t: &Table1) -> String {
    let mut s = String::from("protocol,share_pct\n");
    for (p, share) in &t.rows {
        let _ = writeln!(s, "{},{share:.4}", esc(p.label()));
    }
    s
}

/// Figure 2 → `country,volume_pct,customers_pct,mb_per_customer_day`.
pub fn fig2_csv(f: &Fig2) -> String {
    let mut s = String::from("country,volume_pct,customers_pct,mb_per_customer_day\n");
    for (c, vol, cust, mb) in &f.rows {
        let _ = writeln!(s, "{},{vol:.4},{cust:.4},{mb:.2}", esc(c.name()));
    }
    s
}

/// Figure 3 → `country,protocol,share_pct` (long format).
pub fn fig3_csv(f: &Fig3) -> String {
    let mut s = String::from("country,protocol,share_pct\n");
    for (c, shares) in &f.rows {
        for p in L7Protocol::ALL {
            let v = shares.iter().find(|(q, _)| *q == p).map_or(0.0, |(_, x)| *x);
            let _ = writeln!(s, "{},{},{v:.4}", esc(c.name()), esc(p.label()));
        }
    }
    s
}

/// Figure 4 → `country,utc_hour,fraction_of_peak`.
pub fn fig4_csv(f: &Fig4) -> String {
    let mut s = String::from("country,utc_hour,fraction_of_peak\n");
    for (c, prof) in &f.rows {
        for (h, v) in prof.iter().enumerate() {
            let _ = writeln!(s, "{},{h},{v:.4}", esc(c.name()));
        }
    }
    s
}

/// Figure 5 → `country,metric,x,ccdf` with the three CCDFs resampled
/// to `points` probability steps.
pub fn fig5_csv(f: &Fig5, points: usize) -> String {
    let mut s = String::from("country,metric,x,ccdf\n");
    for (c, flows, down, up) in &f.rows {
        for (name, cdf) in [("flows", flows), ("down_bytes", down), ("up_bytes", up)] {
            if cdf.count == 0 {
                continue;
            }
            for (x, p) in cdf.resample(points) {
                let _ = writeln!(s, "{},{name},{x:.1},{:.6}", esc(c.name()), 1.0 - p);
            }
        }
    }
    s
}

/// Figure 6 → `service,country,customers_pct`.
pub fn fig6_csv(f: &Fig6) -> String {
    let mut s = String::from("service,country,customers_pct\n");
    for (si, svc) in f.services.iter().enumerate() {
        for (ci, c) in f.countries.iter().enumerate() {
            let _ = writeln!(s, "{},{},{:.4}", esc(svc), esc(c.name()), f.values[si][ci]);
        }
    }
    s
}

/// Figure 7 → `country,category,p5,q1,median,q3,p95,count` (MB).
pub fn fig7_csv(f: &Fig7) -> String {
    let mut s = String::from("country,category,p5_mb,q1_mb,median_mb,q3_mb,p95_mb,count\n");
    for (c, cat, b) in &f.rows {
        let _ = writeln!(
            s,
            "{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{}",
            esc(c.name()),
            esc(cat.label()),
            b.p5,
            b.q1,
            b.median,
            b.q3,
            b.p95,
            b.count
        );
    }
    s
}

/// Figure 8a → `country,period,rtt_s,cdf` resampled.
pub fn fig8a_csv(f: &Fig8a, points: usize) -> String {
    let mut s = String::from("country,period,rtt_s,cdf\n");
    for (c, night, peak) in &f.rows {
        for (period, cdf) in [("night", night), ("peak", peak)] {
            if cdf.count == 0 {
                continue;
            }
            for (x, p) in cdf.resample(points) {
                let _ = writeln!(s, "{},{period},{x:.4},{p:.6}", esc(c.name()));
            }
        }
    }
    s
}

/// Figure 8b → `beam,country,utilization_norm,median_rtt_s,samples`.
pub fn fig8b_csv(f: &Fig8b) -> String {
    let mut s = String::from("beam,country,utilization_norm,median_rtt_s,samples\n");
    for (b, c, u, rtt, n) in &f.rows {
        let _ = writeln!(s, "{},{},{u:.4},{rtt:.4},{n}", esc(b), esc(c.name()));
    }
    s
}

/// Figure 9 → `country,ground_rtt_ms,cdf` resampled (traffic-weighted).
pub fn fig9_csv(f: &Fig9, points: usize) -> String {
    let mut s = String::from("country,ground_rtt_ms,cdf\n");
    for (c, cdf, _) in &f.rows {
        for (x, p) in cdf.resample(points) {
            let _ = writeln!(s, "{},{x:.3},{p:.6}", esc(c.name()));
        }
    }
    s
}

/// Figure 10 → `resolver,country,share_pct,median_ms` (median repeated
/// per row for convenience).
pub fn fig10_csv(f: &Fig10) -> String {
    let mut s = String::from("resolver,country,share_pct,median_ms\n");
    for (ri, r) in f.resolvers.iter().enumerate() {
        for (ci, c) in f.countries.iter().enumerate() {
            let _ = writeln!(s, "{},{},{:.4},{:.3}", esc(r.name()), esc(c.name()), f.share[ri][ci], f.median_ms[ri]);
        }
    }
    s
}

/// Table 2/4/5 → `sld,country,resolver,mean_ground_rtt_ms,flows`.
pub fn table_cdn_csv(t: &TableCdnSelection) -> String {
    let mut s = String::from("sld,country,resolver,mean_ground_rtt_ms,flows\n");
    for (d, c, r, rtt, n) in &t.rows {
        let _ = writeln!(s, "{},{},{},{rtt:.3},{n}", esc(d), esc(c.name()), esc(r.name()));
    }
    s
}

/// Every file `satwatch report --csv DIR` writes, `(name, contents)`
/// in the order it writes them. Table 2's file comes from `table2`,
/// the table at the export's own flow floor.
pub fn report_files(r: &PaperReports, table2: &TableCdnSelection) -> [(&'static str, String); 13] {
    [
        ("table1.csv", table1_csv(&r.table1)),
        ("fig2.csv", fig2_csv(&r.fig2)),
        ("fig3.csv", fig3_csv(&r.fig3)),
        ("fig4.csv", fig4_csv(&r.fig4)),
        ("fig5.csv", fig5_csv(&r.fig5, 200)),
        ("fig6.csv", fig6_csv(&r.fig6)),
        ("fig7.csv", fig7_csv(&r.fig7)),
        ("fig8a.csv", fig8a_csv(&r.fig8a, 200)),
        ("fig8b.csv", fig8b_csv(&r.fig8b)),
        ("fig9.csv", fig9_csv(&r.fig9, 200)),
        ("fig10.csv", fig10_csv(&r.fig10)),
        ("table2.csv", table_cdn_csv(table2)),
        ("fig11.csv", fig11_csv(&r.fig11, 200)),
    ]
}

/// Figure 11 → `country,mbps,ccdf` resampled over ≥10 MB flows.
pub fn fig11_csv(f: &Fig11, points: usize) -> String {
    let mut s = String::from("country,mbps,ccdf\n");
    for (c, cdf, _, _) in &f.rows {
        for (x, p) in cdf.resample(points) {
            let _ = writeln!(s, "{},{x:.3},{:.6}", esc(c.name()), 1.0 - p);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use satwatch_simcore::stats::Cdf;
    use satwatch_traffic::Country;

    #[test]
    fn table1_shape() {
        let t = Table1 { rows: vec![(L7Protocol::TlsHttps, 56.0), (L7Protocol::Quic, 19.6)] };
        let csv = table1_csv(&t);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "protocol,share_pct");
        assert_eq!(lines[1], "TCP/HTTPS,56.0000");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn fig8a_resamples_both_periods() {
        let cdf = Cdf::from_values(&[0.6, 0.7, 0.9, 2.1]);
        let f = Fig8a { rows: vec![(Country::Congo, cdf.clone(), cdf)] };
        let csv = fig8a_csv(&f, 5);
        assert!(csv.contains("Congo,night,"));
        assert!(csv.contains("Congo,peak,"));
        // header + 2 periods × 5 points
        assert_eq!(csv.lines().count(), 1 + 10);
    }

    #[test]
    fn escaping_quotes_and_commas() {
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("a,b"), "\"a,b\"");
        assert_eq!(esc("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn empty_reports_yield_header_only() {
        assert_eq!(fig2_csv(&Fig2 { rows: vec![] }).lines().count(), 1);
        assert_eq!(fig8b_csv(&Fig8b { rows: vec![] }).lines().count(), 1);
        assert_eq!(table_cdn_csv(&TableCdnSelection { rows: vec![] }).lines().count(), 1);
    }
}
