//! Typed report structures for every table and figure in the paper's
//! evaluation, with plain-text renderers that print the same rows /
//! series the paper reports.

use satwatch_monitor::L7Protocol;
use satwatch_simcore::stats::{BoxplotSummary, Cdf};
use satwatch_traffic::{Category, Country};
use std::fmt::Write as _;

/// Table 1: TCP/UDP traffic breakdown by protocol.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// (protocol, % of total volume)
    pub rows: Vec<(L7Protocol, f64)>,
}

impl Table1 {
    pub fn share(&self, p: L7Protocol) -> f64 {
        self.rows.iter().find(|(q, _)| *q == p).map_or(0.0, |(_, s)| *s)
    }

    pub fn render(&self) -> String {
        let mut s = String::from("Table 1: TCP/UDP traffic breakdown by protocol\n");
        let _ = writeln!(s, "{:<12} {:>12}", "Protocol", "Volume share");
        for (p, share) in &self.rows {
            let _ = writeln!(s, "{:<12} {:>11.1}%", p.label(), share);
        }
        s
    }
}

/// Figure 2: per-country traffic volume and customer share.
#[derive(Clone, Debug)]
pub struct Fig2 {
    /// Sorted by decreasing volume: (country, % volume, % customers,
    /// mean MB per customer per day).
    pub rows: Vec<(Country, f64, f64, f64)>,
}

impl Fig2 {
    pub fn row(&self, c: Country) -> Option<&(Country, f64, f64, f64)> {
        self.rows.iter().find(|(cc, ..)| *cc == c)
    }

    pub fn render(&self) -> String {
        let mut s = String::from("Figure 2: per-country traffic volume and customer share\n");
        let _ = writeln!(s, "{:<14} {:>9} {:>11} {:>14}", "Country", "Volume%", "Customers%", "MB/cust/day");
        for (c, vol, cust, mb) in &self.rows {
            let _ = writeln!(s, "{:<14} {:>8.1}% {:>10.1}% {:>14.0}", c.name(), vol, cust, mb);
        }
        s
    }
}

/// Figure 3: protocol share per country (top countries by volume).
#[derive(Clone, Debug)]
pub struct Fig3 {
    /// (country, [(protocol, % of that country's volume)])
    pub rows: Vec<(Country, Vec<(L7Protocol, f64)>)>,
}

impl Fig3 {
    pub fn share(&self, c: Country, p: L7Protocol) -> f64 {
        self.rows
            .iter()
            .find(|(cc, _)| *cc == c)
            .and_then(|(_, v)| v.iter().find(|(q, _)| *q == p))
            .map_or(0.0, |(_, s)| *s)
    }

    pub fn render(&self) -> String {
        let mut s = String::from("Figure 3: protocol share per country\n");
        let _ = write!(s, "{:<14}", "Country");
        for p in L7Protocol::ALL {
            let _ = write!(s, " {:>10}", p.label());
        }
        s.push('\n');
        for (c, shares) in &self.rows {
            let _ = write!(s, "{:<14}", c.name());
            for p in L7Protocol::ALL {
                let v = shares.iter().find(|(q, _)| *q == p).map_or(0.0, |(_, x)| *x);
                let _ = write!(s, " {:>9.1}%", v);
            }
            s.push('\n');
        }
        s
    }
}

/// Figure 4: hourly traffic profile per country, normalised to the
/// country's own peak hour (UTC hours).
#[derive(Clone, Debug)]
pub struct Fig4 {
    pub rows: Vec<(Country, [f64; 24])>,
}

impl Fig4 {
    pub fn profile(&self, c: Country) -> Option<&[f64; 24]> {
        self.rows.iter().find(|(cc, _)| *cc == c).map(|(_, p)| p)
    }

    pub fn render(&self) -> String {
        let mut s = String::from("Figure 4: daily traffic profile per country (fraction of peak, UTC hour)\n");
        let _ = write!(s, "{:<14}", "Country");
        for h in 0..24 {
            let _ = write!(s, " {h:>4}");
        }
        s.push('\n');
        for (c, prof) in &self.rows {
            let _ = write!(s, "{:<14}", c.name());
            for v in prof {
                let _ = write!(s, " {v:>4.2}");
            }
            s.push('\n');
        }
        s
    }
}

/// Figure 5: CCDFs of per-customer daily flows / download / upload.
#[derive(Clone, Debug)]
pub struct Fig5 {
    /// (country, flows-per-day CCDF source, down bytes, up bytes)
    pub rows: Vec<(Country, Cdf, Cdf, Cdf)>,
}

impl Fig5 {
    pub fn row(&self, c: Country) -> Option<&(Country, Cdf, Cdf, Cdf)> {
        self.rows.iter().find(|(cc, ..)| *cc == c)
    }

    /// Fraction of customer-days with more than `x` for one of the
    /// three metrics (0 = flows, 1 = down, 2 = up).
    pub fn ccdf(&self, c: Country, metric: usize, x: f64) -> f64 {
        self.row(c).map_or(0.0, |(_, f, d, u)| match metric {
            0 => f.ccdf_at(x),
            1 => d.ccdf_at(x),
            _ => u.ccdf_at(x),
        })
    }

    pub fn render(&self) -> String {
        let mut s = String::from("Figure 5: per-customer daily activity CCDF probes\n");
        let _ = writeln!(
            s,
            "{:<14} {:>12} {:>12} {:>14} {:>14} {:>12}",
            "Country", "P[fl>250]", "P[fl>2500]", "P[down>1GB]", "P[down>10GB]", "P[up>1GB]"
        );
        for (c, flows, down, up) in &self.rows {
            let _ = writeln!(
                s,
                "{:<14} {:>11.1}% {:>11.1}% {:>13.1}% {:>13.1}% {:>11.1}%",
                c.name(),
                flows.ccdf_at(250.0) * 100.0,
                flows.ccdf_at(2500.0) * 100.0,
                down.ccdf_at(1e9) * 100.0,
                down.ccdf_at(1e10) * 100.0,
                up.ccdf_at(1e9) * 100.0,
            );
        }
        s
    }
}

/// Figure 6: service popularity heatmap (% of customers per day).
#[derive(Clone, Debug)]
pub struct Fig6 {
    pub services: Vec<&'static str>,
    pub countries: Vec<Country>,
    /// `values[s][c]` = % of country `c`'s customers using service `s`.
    pub values: Vec<Vec<f64>>,
}

impl Fig6 {
    pub fn value(&self, service: &str, country: Country) -> Option<f64> {
        let si = self.services.iter().position(|s| *s == service)?;
        let ci = self.countries.iter().position(|c| *c == country)?;
        Some(self.values[si][ci])
    }

    pub fn render(&self) -> String {
        let mut s = String::from("Figure 6: service popularity (% of customers per day)\n");
        let _ = write!(s, "{:<12}", "Service");
        for c in &self.countries {
            let _ = write!(s, " {:>12}", c.name());
        }
        s.push('\n');
        for (si, svc) in self.services.iter().enumerate() {
            let _ = write!(s, "{svc:<12}");
            for v in &self.values[si] {
                let _ = write!(s, " {v:>12.2}");
            }
            s.push('\n');
        }
        s
    }
}

/// Figure 7: daily volume per customer per service category.
#[derive(Clone, Debug)]
pub struct Fig7 {
    /// (country, category, boxplot of MB/day over customer-days)
    pub rows: Vec<(Country, Category, BoxplotSummary)>,
}

impl Fig7 {
    pub fn summary(&self, c: Country, cat: Category) -> Option<&BoxplotSummary> {
        self.rows.iter().find(|(cc, k, _)| *cc == c && *k == cat).map(|(_, _, b)| b)
    }

    pub fn render(&self) -> String {
        let mut s = String::from("Figure 7: daily volume per customer per category (MB)\n");
        let _ = writeln!(
            s,
            "{:<14} {:<16} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "Country", "Category", "p5", "q1", "median", "q3", "p95"
        );
        for (c, cat, b) in &self.rows {
            let _ = writeln!(
                s,
                "{:<14} {:<16} {:>8.2} {:>8.2} {:>8.1} {:>8.1} {:>8.0}",
                c.name(),
                cat.label(),
                b.p5,
                b.q1,
                b.median,
                b.q3,
                b.p95
            );
        }
        s
    }
}

/// Figure 8a: satellite RTT distribution per country, night vs peak.
#[derive(Clone, Debug)]
pub struct Fig8a {
    /// (country, night CDF, peak CDF) of satellite RTT in seconds.
    pub rows: Vec<(Country, Cdf, Cdf)>,
}

impl Fig8a {
    pub fn row(&self, c: Country) -> Option<&(Country, Cdf, Cdf)> {
        self.rows.iter().find(|(cc, ..)| *cc == c)
    }

    pub fn render(&self) -> String {
        let mut s = String::from("Figure 8a: satellite RTT per country (seconds)\n");
        let _ = writeln!(
            s,
            "{:<14} {:>10} {:>10} {:>10} {:>12} {:>10} {:>10} {:>10} {:>12}",
            "Country",
            "night p25",
            "night med",
            "night p75",
            "night P[>2s]",
            "peak p25",
            "peak med",
            "peak p75",
            "peak P[>2s]"
        );
        for (c, night, peak) in &self.rows {
            let _ = writeln!(
                s,
                "{:<14} {:>10.2} {:>10.2} {:>10.2} {:>11.1}% {:>10.2} {:>10.2} {:>10.2} {:>11.1}%",
                c.name(),
                night.quantile(0.25),
                night.quantile(0.5),
                night.quantile(0.75),
                night.ccdf_at(2.0) * 100.0,
                peak.quantile(0.25),
                peak.quantile(0.5),
                peak.quantile(0.75),
                peak.ccdf_at(2.0) * 100.0,
            );
        }
        s
    }
}

/// Figure 8b: per-beam median satellite RTT vs normalised utilization.
#[derive(Clone, Debug)]
pub struct Fig8b {
    /// (beam name, country, normalised peak utilization, median RTT s, samples)
    pub rows: Vec<(String, Country, f64, f64, usize)>,
}

impl Fig8b {
    pub fn render(&self) -> String {
        let mut s = String::from("Figure 8b: median satellite RTT per beam vs normalised utilization (peak time)\n");
        let _ = writeln!(
            s,
            "{:<10} {:<14} {:>12} {:>12} {:>9}",
            "Beam", "Country", "Util (norm)", "Median RTT s", "Samples"
        );
        for (b, c, u, rtt, n) in &self.rows {
            let _ = writeln!(s, "{:<10} {:<14} {:>12.2} {:>12.2} {:>9}", b, c.name(), u, rtt, n);
        }
        s
    }
}

/// Figure 9: ground-segment RTT distribution per country.
#[derive(Clone, Debug)]
pub struct Fig9 {
    /// (country, CDF of per-flow average ground RTT in ms, median ms)
    pub rows: Vec<(Country, Cdf, f64)>,
}

impl Fig9 {
    pub fn row(&self, c: Country) -> Option<&(Country, Cdf, f64)> {
        self.rows.iter().find(|(cc, ..)| *cc == c)
    }

    pub fn render(&self) -> String {
        let mut s = String::from("Figure 9: ground RTT per country (ms)\n");
        let _ = writeln!(
            s,
            "{:<14} {:>8} {:>10} {:>10} {:>10} {:>12} {:>12}",
            "Country", "median", "P[<=20ms]", "P[<=40ms]", "P[<=120ms]", "P[>200ms]", "P[>300ms]"
        );
        for (c, cdf, med) in &self.rows {
            let _ = writeln!(
                s,
                "{:<14} {:>8.1} {:>9.1}% {:>9.1}% {:>9.1}% {:>11.1}% {:>11.1}%",
                c.name(),
                med,
                cdf.at(20.0) * 100.0,
                cdf.at(40.0) * 100.0,
                cdf.at(120.0) * 100.0,
                cdf.ccdf_at(200.0) * 100.0,
                cdf.ccdf_at(300.0) * 100.0,
            );
        }
        s
    }
}

/// Figure 10: DNS resolver adoption and response time.
#[derive(Clone, Debug)]
pub struct Fig10 {
    pub resolvers: Vec<satwatch_internet::ResolverId>,
    pub countries: Vec<Country>,
    /// `share[r][c]` = % of country c's DNS transactions via resolver r.
    pub share: Vec<Vec<f64>>,
    /// median response time per resolver, ms.
    pub median_ms: Vec<f64>,
}

impl Fig10 {
    pub fn share_of(&self, r: satwatch_internet::ResolverId, c: Country) -> Option<f64> {
        let ri = self.resolvers.iter().position(|x| *x == r)?;
        let ci = self.countries.iter().position(|x| *x == c)?;
        Some(self.share[ri][ci])
    }

    pub fn median_of(&self, r: satwatch_internet::ResolverId) -> Option<f64> {
        let ri = self.resolvers.iter().position(|x| *x == r)?;
        Some(self.median_ms[ri])
    }

    pub fn render(&self) -> String {
        let mut s = String::from("Figure 10: DNS resolver adoption (% of transactions) and median response time\n");
        let _ = write!(s, "{:<12}", "Resolver");
        for c in &self.countries {
            let _ = write!(s, " {:>12}", c.name());
        }
        let _ = writeln!(s, " {:>10}", "Median ms");
        for (ri, r) in self.resolvers.iter().enumerate() {
            let _ = write!(s, "{:<12}", r.name());
            for v in &self.share[ri] {
                let _ = write!(s, " {v:>12.2}");
            }
            let _ = writeln!(s, " {:>10.2}", self.median_ms[ri]);
        }
        s
    }
}

/// Table 2 / Tables 4-5: average ground RTT per (domain, resolver,
/// country).
#[derive(Clone, Debug)]
pub struct TableCdnSelection {
    /// (second-level domain, country, resolver, mean ground RTT ms, flows)
    pub rows: Vec<(String, Country, satwatch_internet::ResolverId, f64, usize)>,
}

impl TableCdnSelection {
    pub fn mean_rtt(&self, domain: &str, c: Country, r: satwatch_internet::ResolverId) -> Option<f64> {
        self.rows.iter().find(|(d, cc, rr, _, _)| d == domain && *cc == c && *rr == r).map(|(_, _, _, m, _)| *m)
    }

    pub fn render(&self) -> String {
        let mut s = String::from("Table 2/4/5: ground RTT per domain and DNS resolver (mean ms; '-' = unseen)\n");
        let _ = writeln!(s, "{:<22} {:<14} {:<12} {:>9} {:>7}", "Domain", "Country", "Resolver", "RTT ms", "Flows");
        for (d, c, r, rtt, n) in &self.rows {
            let _ = writeln!(s, "{:<22} {:<14} {:<12} {:>9.1} {:>7}", d, c.name(), r.name(), rtt, n);
        }
        s
    }
}

/// Figure 11: download throughput per country.
#[derive(Clone, Debug)]
pub struct Fig11 {
    /// (country, CCDF source of Mb/s over ≥10 MB flows,
    /// night boxplot, peak boxplot)
    pub rows: Vec<(Country, Cdf, Option<BoxplotSummary>, Option<BoxplotSummary>)>,
}

impl Fig11 {
    pub fn row(&self, c: Country) -> Option<&(Country, Cdf, Option<BoxplotSummary>, Option<BoxplotSummary>)> {
        self.rows.iter().find(|(cc, ..)| *cc == c)
    }

    pub fn render(&self) -> String {
        let mut s = String::from("Figure 11: download throughput (Mb/s, flows ≥ 10 MB)\n");
        let _ = writeln!(
            s,
            "{:<14} {:>8} {:>10} {:>10} {:>10} {:>11} {:>10}",
            "Country", "median", "P[>9Mb/s]", "P[>25Mb/s]", "P[>45Mb/s]", "night med", "peak med"
        );
        for (c, cdf, night, peak) in &self.rows {
            let _ = writeln!(
                s,
                "{:<14} {:>8.1} {:>9.1}% {:>9.1}% {:>9.1}% {:>11.1} {:>10.1}",
                c.name(),
                cdf.quantile(0.5),
                cdf.ccdf_at(9.0) * 100.0,
                cdf.ccdf_at(25.0) * 100.0,
                cdf.ccdf_at(45.0) * 100.0,
                night.map_or(f64::NAN, |b| b.median),
                peak.map_or(f64::NAN, |b| b.median),
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_render_and_lookup() {
        let t = Table1 { rows: vec![(L7Protocol::TlsHttps, 56.0), (L7Protocol::Quic, 19.6)] };
        assert_eq!(t.share(L7Protocol::TlsHttps), 56.0);
        assert_eq!(t.share(L7Protocol::Dns), 0.0);
        let r = t.render();
        assert!(r.contains("TCP/HTTPS"));
        assert!(r.contains("56.0%"));
    }

    #[test]
    fn fig6_lookup() {
        let f = Fig6 {
            services: vec!["Whatsapp"],
            countries: vec![Country::Congo, Country::Spain],
            values: vec![vec![61.2, 63.8]],
        };
        assert_eq!(f.value("Whatsapp", Country::Spain), Some(63.8));
        assert_eq!(f.value("Nope", Country::Spain), None);
        assert!(f.render().contains("Whatsapp"));
    }

    #[test]
    fn fig4_peak_hour() {
        let mut prof = [0.5f64; 24];
        prof[19] = 1.0;
        let f = Fig4 { rows: vec![(Country::Spain, prof)] };
        assert_eq!(f.profile(Country::Spain).map(|p| p[19]), Some(1.0));
        assert!(f.profile(Country::Congo).is_none());
        assert!(f.render().contains("Spain"));
    }

    #[test]
    fn renders_do_not_panic_on_empty() {
        assert!(Fig2 { rows: vec![] }.render().contains("Figure 2"));
        assert!(Fig5 { rows: vec![] }.render().contains("Figure 5"));
        assert!(TableCdnSelection { rows: vec![] }.render().contains("Table 2"));
    }
}
