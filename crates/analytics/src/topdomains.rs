//! Top-domain rankings — the tooling behind the paper's methodology
//! of "manually inspecting the list of most popular domains by volume
//! and popularity" (§3.1) when curating the Table 3 service lists.

use crate::classify::{second_level_domain, Classifier};
use crate::frame::{FlowFrame, NO_DOMAIN};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// One ranked domain.
#[derive(Clone, Debug, PartialEq)]
pub struct DomainRank {
    pub sld: String,
    pub bytes: u64,
    /// Distinct (anonymized) customers that contacted it.
    pub customers: usize,
    pub flows: usize,
    /// Classifier verdict, if any rule matches.
    pub service: Option<&'static str>,
}

/// Rankings by volume and by popularity (distinct customers).
#[derive(Clone, Debug)]
pub struct TopDomains {
    pub by_volume: Vec<DomainRank>,
    pub by_popularity: Vec<DomainRank>,
}

/// Compute top-`n` second-level domains over the flow frame.
pub fn top_domains(fr: &FlowFrame, classifier: &Classifier, n: usize) -> TopDomains {
    struct Acc {
        bytes: u64,
        customers: HashSet<Ipv4Addr>,
        flows: usize,
    }
    // a name is looked at once per dictionary entry, not once per flow
    let slds: Vec<String> = fr.domains.iter().map(|d| second_level_domain(d)).collect();
    let mut acc: HashMap<&str, Acc> = HashMap::new();
    for i in (0..fr.len()).filter(|&i| fr.domain[i] != NO_DOMAIN) {
        let sld = &*slds[fr.domain[i] as usize];
        let e = acc.entry(sld).or_insert(Acc { bytes: 0, customers: HashSet::new(), flows: 0 });
        e.bytes += fr.flow_bytes(i);
        e.customers.insert(fr.client[i]);
        e.flows += 1;
    }
    let mut ranks: Vec<DomainRank> = acc
        .into_iter()
        .map(|(sld, a)| {
            let service = classifier.classify(sld).map(|(s, _)| s).or_else(|| {
                // some SLDs only match with a subdomain prefix; retry
                // with a representative host
                classifier.classify(&format!("www.{sld}")).map(|(s, _)| s)
            });
            DomainRank { sld: sld.to_string(), bytes: a.bytes, customers: a.customers.len(), flows: a.flows, service }
        })
        .collect();
    let mut by_volume = ranks.clone();
    by_volume.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.sld.cmp(&b.sld)));
    by_volume.truncate(n);
    ranks.sort_by(|a, b| b.customers.cmp(&a.customers).then(a.sld.cmp(&b.sld)));
    ranks.truncate(n);
    TopDomains { by_volume, by_popularity: ranks }
}

/// Render both rankings as aligned text.
pub fn render(top: &TopDomains) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Top domains by volume:");
    let _ = writeln!(s, "{:<26} {:>10} {:>10} {:>8}  service", "SLD", "MB", "customers", "flows");
    for r in &top.by_volume {
        let _ = writeln!(
            s,
            "{:<26} {:>10.1} {:>10} {:>8}  {}",
            r.sld,
            r.bytes as f64 / 1e6,
            r.customers,
            r.flows,
            r.service.unwrap_or("-")
        );
    }
    let _ = writeln!(s, "\nTop domains by popularity:");
    let _ = writeln!(s, "{:<26} {:>10} {:>10} {:>8}  service", "SLD", "MB", "customers", "flows");
    for r in &top.by_popularity {
        let _ = writeln!(
            s,
            "{:<26} {:>10.1} {:>10} {:>8}  {}",
            r.sld,
            r.bytes as f64 / 1e6,
            r.customers,
            r.flows,
            r.service.unwrap_or("-")
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use satwatch_monitor::record::RttSummary;
    use satwatch_monitor::{FlowRecord, L7Protocol};
    use satwatch_simcore::SimTime;

    fn ranked(flows: &[FlowRecord], n: usize) -> TopDomains {
        top_domains(&FlowFrame::from_records(flows, &Default::default()), &Classifier::standard(), n)
    }

    fn flow(client_last: u8, domain: &str, bytes: u64) -> FlowRecord {
        FlowRecord {
            client: Ipv4Addr::new(77, 0, 0, client_last),
            server: Ipv4Addr::new(198, 18, 0, 1),
            client_port: 1,
            server_port: 443,
            ip_proto: 6,
            first: SimTime::ZERO,
            last: SimTime::from_secs(1),
            c2s_packets: 1,
            c2s_bytes: 100,
            c2s_payload_bytes: 100,
            s2c_packets: 1,
            s2c_bytes: bytes,
            s2c_payload_bytes: bytes,
            c2s_retrans: 0,
            s2c_retrans: 0,
            early: vec![],
            syn_seen: true,
            fin_seen: true,
            rst_seen: false,
            ground_rtt: RttSummary::default(),
            s2c_data_first: None,
            s2c_data_last: None,
            sat_rtt_ms: None,
            l7: L7Protocol::TlsHttps,
            domain: Some(domain.into()),
        }
    }

    #[test]
    fn rankings_differ_by_metric() {
        let flows = vec![
            // one whale customer pulls a lot from netflix
            flow(1, "ipv4-c1.oca.nflxvideo.net", 10_000_000),
            // three customers touch whatsapp lightly
            flow(1, "media-1.cdn.whatsapp.net", 1_000),
            flow(2, "media-2.cdn.whatsapp.net", 1_000),
            flow(3, "static.whatsapp.net", 1_000),
        ];
        let top = ranked(&flows, 5);
        assert_eq!(top.by_volume[0].sld, "nflxvideo.net");
        assert_eq!(top.by_volume[0].service, Some("Netflix"));
        assert_eq!(top.by_popularity[0].sld, "whatsapp.net");
        assert_eq!(top.by_popularity[0].customers, 3);
        assert_eq!(top.by_popularity[0].service, Some("Whatsapp"));
        let text = render(&top);
        assert!(text.contains("nflxvideo.net"));
        assert!(text.contains("Whatsapp"));
    }

    #[test]
    fn flows_without_domains_ignored() {
        let mut f = flow(1, "x", 10);
        f.domain = None;
        let top = ranked(&[f], 5);
        assert!(top.by_volume.is_empty());
    }

    #[test]
    fn truncates_to_n() {
        let flows: Vec<FlowRecord> = (0..20).map(|i| flow(1, &format!("www.site-{i}.test"), 100)).collect();
        let top = ranked(&flows, 3);
        assert_eq!(top.by_volume.len(), 3);
        assert_eq!(top.by_popularity.len(), 3);
    }
}
