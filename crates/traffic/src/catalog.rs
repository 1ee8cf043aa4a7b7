//! The service catalog: every web service the synthetic population
//! uses, with the domains it serves content from (paper Table 3),
//! its hosting (CDN or origin region), its transport-protocol mix,
//! and its flow-size model.
//!
//! The domains listed here are what the traffic generator puts into
//! SNI/Host fields; `satwatch-analytics`' classifier carries the
//! paper's Table 3 patterns and must map every generated domain back
//! to the right service — integration tests enforce that round trip.

use satwatch_internet::cdn::well_known as cdn;
use satwatch_internet::{Hosting, Region};
use satwatch_simcore::dist::LogNormal;
use satwatch_simcore::{FxHashMap, Rng};
use std::sync::OnceLock;

/// Service categories from §3.1/Fig 6/Fig 7, plus internal categories
/// for traffic the paper observes but does not put in the six classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    Audio,
    Chat,
    Search,
    Social,
    Video,
    Work,
    /// Generic web browsing, news, shopping…
    Web,
    /// OS/software updates (the HTTP-heavy Microsoft/Sky effect).
    Update,
    /// VPN and other non-web business protocols (Fig 3's Germany).
    Vpn,
    /// Real-time voice/video (RTP).
    Call,
    /// CPE/device background chatter (connectivity checks, NTP-ish).
    Background,
}

impl Category {
    pub fn label(self) -> &'static str {
        match self {
            Category::Audio => "Audio streaming",
            Category::Chat => "Chat",
            Category::Search => "Search engine",
            Category::Social => "Social",
            Category::Video => "Video streaming",
            Category::Work => "Work",
            Category::Web => "Web",
            Category::Update => "Update",
            Category::Vpn => "VPN",
            Category::Call => "Call",
            Category::Background => "Background",
        }
    }

    /// The six classes of the paper's Fig 6/7.
    pub const PAPER_SIX: [Category; 6] =
        [Category::Audio, Category::Chat, Category::Search, Category::Social, Category::Video, Category::Work];

    /// Every category, in declaration order. `ALL[c.index()] == c`, so
    /// a category round-trips through a small integer — the columnar
    /// analytics frame stores one byte per flow instead of the enum.
    pub const ALL: [Category; 11] = [
        Category::Audio,
        Category::Chat,
        Category::Search,
        Category::Social,
        Category::Video,
        Category::Work,
        Category::Web,
        Category::Update,
        Category::Vpn,
        Category::Call,
        Category::Background,
    ];

    /// Position of `self` in [`Category::ALL`].
    pub const fn index(self) -> usize {
        match self {
            Category::Audio => 0,
            Category::Chat => 1,
            Category::Search => 2,
            Category::Social => 3,
            Category::Video => 4,
            Category::Work => 5,
            Category::Web => 6,
            Category::Update => 7,
            Category::Vpn => 8,
            Category::Call => 9,
            Category::Background => 10,
        }
    }
}

/// Transport used by one flow of a service.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FlowProtocol {
    Tls,
    Quic,
    Http,
    OtherTcp,
    OtherUdp,
    Rtp,
}

/// Index into the catalog.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceId(pub u16);

/// Relative protocol weights for a service's flows.
#[derive(Clone, Copy, Debug)]
pub struct ProtocolMix {
    pub tls: f64,
    pub quic: f64,
    pub http: f64,
    pub other_tcp: f64,
    pub other_udp: f64,
    pub rtp: f64,
}

impl ProtocolMix {
    pub const fn tls_only() -> ProtocolMix {
        ProtocolMix { tls: 1.0, quic: 0.0, http: 0.0, other_tcp: 0.0, other_udp: 0.0, rtp: 0.0 }
    }

    pub const fn tls_quic(quic: f64) -> ProtocolMix {
        ProtocolMix { tls: 1.0 - quic, quic, http: 0.0, other_tcp: 0.0, other_udp: 0.0, rtp: 0.0 }
    }

    pub const fn http_only() -> ProtocolMix {
        ProtocolMix { tls: 0.0, quic: 0.0, http: 1.0, other_tcp: 0.0, other_udp: 0.0, rtp: 0.0 }
    }

    pub fn sample(&self, rng: &mut Rng) -> FlowProtocol {
        let total = self.tls + self.quic + self.http + self.other_tcp + self.other_udp + self.rtp;
        let mut u = rng.f64() * total;
        for (w, p) in [
            (self.tls, FlowProtocol::Tls),
            (self.quic, FlowProtocol::Quic),
            (self.http, FlowProtocol::Http),
            (self.other_tcp, FlowProtocol::OtherTcp),
            (self.other_udp, FlowProtocol::OtherUdp),
            (self.rtp, FlowProtocol::Rtp),
        ] {
            if u < w {
                return p;
            }
            u -= w;
        }
        FlowProtocol::Tls
    }
}

/// Flow-size model of a service: sizes are log-normal in bytes.
#[derive(Clone, Copy, Debug)]
pub struct FlowSizeModel {
    /// Median downloaded bytes per flow.
    pub down_median: f64,
    /// Log-space sigma of the download size.
    pub down_sigma: f64,
    /// Upload volume as a fraction of download (before noise).
    pub up_ratio: f64,
}

impl FlowSizeModel {
    pub fn sample(&self, rng: &mut Rng) -> (u64, u64) {
        use satwatch_simcore::dist::Sample;
        let down = LogNormal::from_median(self.down_median, self.down_sigma).sample(rng);
        let up_noise = rng.range_f64(0.5, 1.8);
        let up = (down * self.up_ratio * up_noise).max(200.0);
        (down.max(100.0) as u64, up as u64)
    }
}

/// One catalog entry.
#[derive(Clone, Debug)]
pub struct ServiceSpec {
    pub id: ServiceId,
    pub name: &'static str,
    pub category: Category,
    /// Domains the generator uses in SNI/Host. `{n}` is replaced by a
    /// small number (CDN node style).
    pub domains: &'static [&'static str],
    pub hosting: Hosting,
    pub protocol: ProtocolMix,
    pub flow_size: FlowSizeModel,
    /// Mean flows per active customer-day using this service (before
    /// archetype scaling).
    pub flows_per_day: f64,
}

/// How many names one `{n}` template expands to: `{n}` ∈ `0..32`.
const TEMPLATE_EXPANSIONS: usize = 32;

impl ServiceSpec {
    /// Pick a concrete domain for one flow. A `{n}` template draws its
    /// number from `0..32` and returns that name out of one table of
    /// every template's expansions, built once per process, so a flow's
    /// domain is a pointer into memory that lives as long as the
    /// process — no allocation and no lock per flow.
    pub fn sample_domain(&self, rng: &mut Rng) -> &'static str {
        let template = *rng.pick(self.domains);
        if template.contains("{n}") {
            expansions(template)[rng.below(TEMPLATE_EXPANSIONS as u64) as usize]
        } else {
            template
        }
    }
}

/// The 32 names each `{n}` template of the standard catalog expands to,
/// built once per process: 16 templates, 512 names. Templates are only
/// written in [`standard_catalog`], so the table is bounded by it.
fn expansions(template: &str) -> &'static [&'static str; TEMPLATE_EXPANSIONS] {
    static TABLE: OnceLock<FxHashMap<&'static str, [&'static str; TEMPLATE_EXPANSIONS]>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let templates = standard_catalog().into_iter().flat_map(|s| s.domains).filter(|d| d.contains("{n}"));
        templates
            .map(|&t| {
                let names = std::array::from_fn(|n| &*Box::leak(t.replace("{n}", &n.to_string()).into_boxed_str()));
                (t, names)
            })
            .collect()
    });
    table.get(template).unwrap_or_else(|| panic!("domain template {template:?} is not in the standard catalog"))
}

macro_rules! svc {
    ($id:expr, $name:expr, $cat:expr, $domains:expr, $host:expr, $proto:expr,
     down: $dm:expr, sigma: $ds:expr, up: $ur:expr, fpd: $fpd:expr) => {
        ServiceSpec {
            id: ServiceId($id),
            name: $name,
            category: $cat,
            domains: $domains,
            hosting: $host,
            protocol: $proto,
            flow_size: FlowSizeModel { down_median: $dm, down_sigma: $ds, up_ratio: $ur },
            flows_per_day: $fpd,
        }
    };
}

/// Build the standard catalog. Entry order is stable (ServiceId = index).
pub fn standard_catalog() -> Vec<ServiceSpec> {
    use Category::*;
    use Hosting::{Cdn, Origin};
    let c = vec![
        // ---- Search engines (Table 3) ----
        svc!(0, "Google", Search, &["www.google.com", "google.com", "www.google.co.uk", "google.es"],
            Cdn(cdn::GLOBAL_PEERING), ProtocolMix::tls_quic(0.55),
            down: 60e3, sigma: 1.2, up: 0.12, fpd: 28.0),
        svc!(1, "Bing", Search, &["www.bing.com"],
            Cdn(cdn::COMMERCIAL_DNS), ProtocolMix::tls_only(),
            down: 50e3, sigma: 1.1, up: 0.10, fpd: 6.0),
        svc!(2, "Yahoo", Search, &["www.yahoo.com", "s.yimg.com"],
            Cdn(cdn::COMMERCIAL_DNS), ProtocolMix::tls_only(),
            down: 70e3, sigma: 1.2, up: 0.10, fpd: 4.0),
        svc!(3, "Duckduckgo", Search, &["www.duckduckgo.com"],
            Cdn(cdn::GLOBAL_ANYCAST), ProtocolMix::tls_only(),
            down: 40e3, sigma: 1.0, up: 0.10, fpd: 3.0),
        // ---- Chat (Table 3) ----
        svc!(4, "Whatsapp", Chat, &["web.whatsapp.com", "media-{n}.cdn.whatsapp.net", "static.whatsapp.net", "mmg.whatsapp.net"],
            Cdn(cdn::SOCIAL_DNS), ProtocolMix::tls_only(),
            down: 45e3, sigma: 1.5, up: 0.75, fpd: 35.0),
        svc!(5, "Snapchat", Chat, &["app.snapchat.com", "gcp.api.snapchat.com", "media-{n}.sc-cdn.net"],
            Cdn(cdn::GLOBAL_PEERING), ProtocolMix::tls_quic(0.45),
            down: 120e3, sigma: 1.5, up: 0.45, fpd: 12.0),
        svc!(6, "Wechat", Chat, &["web.wechat.com", "open.weixin.qq.com", "short.weixin.qq.com", "mmsns.wxs.qq.com"],
            Cdn(cdn::CHINA_DNS), ProtocolMix::tls_only(),
            down: 60e3, sigma: 1.5, up: 0.70, fpd: 20.0),
        svc!(7, "Telegram", Chat, &["web.telegram.org", "core.telegram.org"],
            Cdn(cdn::GLOBAL_ANYCAST), ProtocolMix::tls_only(),
            down: 60e3, sigma: 1.5, up: 0.40, fpd: 15.0),
        svc!(8, "Skype", Chat, &["edge.skype.com", "api.skype.com", "latest-swx.cdn.skype.com"],
            Cdn(cdn::COMMERCIAL_DNS), ProtocolMix { tls: 0.8, quic: 0.0, http: 0.0, other_tcp: 0.0, other_udp: 0.1, rtp: 0.1 },
            down: 90e3, sigma: 1.5, up: 0.45, fpd: 8.0),
        // ---- Social (Table 3) ----
        svc!(9, "Facebook", Social, &["www.facebook.com", "static.xx.fbcdn.net", "scontent-{n}.xx.fbcdn.net", "edge-mqtt.facebook.com"],
            Cdn(cdn::SOCIAL_DNS), ProtocolMix::tls_quic(0.45),
            down: 180e3, sigma: 1.6, up: 0.20, fpd: 35.0),
        svc!(10, "Instagram", Social, &["www.instagram.com", "i.instagram.com", "scontent-{n}.cdninstagram.com"],
            Cdn(cdn::SOCIAL_DNS), ProtocolMix::tls_quic(0.45),
            down: 350e3, sigma: 1.6, up: 0.18, fpd: 40.0),
        svc!(11, "Tiktok", Social, &["www.tiktok.com", "api16-normal-c-useast1a.tiktokv.com", "v{n}.tiktokcdn.com", "p16-sign.tiktokcdn.com"],
            Cdn(cdn::COMMERCIAL_DNS), ProtocolMix::tls_quic(0.25),
            down: 900e3, sigma: 1.5, up: 0.08, fpd: 30.0),
        svc!(12, "Twitter", Social, &["twitter.com", "abs.twimg.com", "pbs.twimg.com"],
            Cdn(cdn::COMMERCIAL_DNS), ProtocolMix::tls_only(),
            down: 150e3, sigma: 1.5, up: 0.12, fpd: 12.0),
        svc!(13, "Linkedin", Social, &["www.linkedin.com", "static.licdn.com", "media.licdn.com"],
            Cdn(cdn::COMMERCIAL_DNS), ProtocolMix::tls_only(),
            down: 120e3, sigma: 1.4, up: 0.15, fpd: 6.0),
        // ---- Video (Table 3) ----
        svc!(14, "Youtube", Video, &["www.youtube.com", "rr{n}---sn-4g5e6nz7.googlevideo.com", "i.ytimg.com", "redirector.gvt1.com"],
            Cdn(cdn::GLOBAL_PEERING), ProtocolMix::tls_quic(0.6),
            down: 3.5e6, sigma: 1.3, up: 0.015, fpd: 20.0),
        svc!(15, "Netflix", Video, &["www.netflix.com", "api-global.netflix.com", "ipv4-c{n}-lagg0.1.oca.nflxvideo.net", "assets.nflxext.com"],
            Cdn(cdn::VIDEO_ANYCAST), ProtocolMix::tls_only(),
            down: 9e6, sigma: 1.2, up: 0.008, fpd: 12.0),
        svc!(16, "Primevideo", Video, &["www.primevideo.com", "atv-ext-eu.amazon.com", "d{n}.cloudfront-pv.pv-cdn.net"],
            Cdn(cdn::COMMERCIAL_DNS), ProtocolMix::tls_only(),
            down: 8e6, sigma: 1.2, up: 0.008, fpd: 10.0),
        svc!(17, "Sky", Video, &["www.sky.com", "cdn-{n}.skycdp.sky.com", "ottb.sky.com"],
            Origin(Region::EuropeWest), ProtocolMix { tls: 0.25, quic: 0.0, http: 0.75, other_tcp: 0.0, other_udp: 0.0, rtp: 0.0 },
            down: 12e6, sigma: 1.2, up: 0.006, fpd: 9.0),
        // ---- Audio (Table 3) ----
        svc!(18, "Spotify", Audio, &["api.spotify.com", "audio-sp-{n}.pscdn.spotify.com", "i.scdn.co"],
            Cdn(cdn::GLOBAL_ANYCAST), ProtocolMix::tls_only(),
            down: 1.2e6, sigma: 1.3, up: 0.01, fpd: 10.0),
        // ---- Work (Table 3) ----
        svc!(19, "Office365", Work, &["outlook.office365.com", "teams.microsoft.com", "companyname.sharepoint.com", "attachments.office.net"],
            Cdn(cdn::COMMERCIAL_DNS), ProtocolMix::tls_only(),
            down: 150e3, sigma: 1.7, up: 0.35, fpd: 18.0),
        svc!(20, "Gsuite", Work, &["drive.google.com", "docs.google.com", "mail.google.com", "takeout.google.com"],
            Cdn(cdn::GLOBAL_PEERING), ProtocolMix::tls_quic(0.4),
            down: 180e3, sigma: 1.7, up: 0.35, fpd: 15.0),
        svc!(21, "Dropbox", Work, &["www.dropbox.com", "content.dropboxapi.com", "dl-web.dropbox.com"],
            Cdn(cdn::COMMERCIAL_DNS), ProtocolMix::tls_only(),
            down: 400e3, sigma: 1.9, up: 0.50, fpd: 8.0),
        // ---- Supporting traffic (not in Fig 6, but in the trace) ----
        svc!(22, "MicrosoftUpdate", Update, &["download.windowsupdate.com", "tlu.dl.delivery.mp.microsoft.com", "download.microsoft.com"],
            Cdn(cdn::COMMERCIAL_DNS), ProtocolMix { tls: 0.3, quic: 0.0, http: 0.7, other_tcp: 0.0, other_udp: 0.0, rtp: 0.0 },
            down: 40e6, sigma: 1.4, up: 0.003, fpd: 2.5),
        svc!(23, "GenericWeb", Web, &["www.news-site-{n}.example.com", "shop-{n}.example.net", "cdn-{n}.website.example.org"],
            Cdn(cdn::COMMERCIAL_DNS), ProtocolMix { tls: 0.8, quic: 0.05, http: 0.15, other_tcp: 0.0, other_udp: 0.0, rtp: 0.0 },
            down: 120e3, sigma: 1.6, up: 0.10, fpd: 50.0),
        svc!(24, "BusinessVpn", Vpn, &["vpn.corp-gw-{n}.example.com"],
            Origin(Region::EuropeWest), ProtocolMix { tls: 0.1, quic: 0.0, http: 0.0, other_tcp: 0.55, other_udp: 0.35, rtp: 0.0 },
            down: 60e6, sigma: 1.3, up: 0.60, fpd: 6.0),
        svc!(25, "VoipCall", Call, &["sip.voice-provider.example.com"],
            Origin(Region::EuropeWest), ProtocolMix { tls: 0.05, quic: 0.0, http: 0.0, other_tcp: 0.0, other_udp: 0.15, rtp: 0.8 },
            down: 6e6, sigma: 0.8, up: 0.95, fpd: 3.0),
        svc!(26, "AppleInfra", Background, &["captive.apple.com", "gsp-ssl.ls.apple.com", "configuration.apple.com"],
            Cdn(cdn::COMMERCIAL_DNS), ProtocolMix { tls: 0.6, quic: 0.0, http: 0.4, other_tcp: 0.0, other_udp: 0.0, rtp: 0.0 },
            down: 8e3, sigma: 1.0, up: 0.3, fpd: 40.0),
        svc!(27, "GoogleInfra", Background, &["play.googleapis.com", "connectivitycheck.gstatic.com", "clients{n}.google.com", "mtalk.google.com"],
            Cdn(cdn::GLOBAL_PEERING), ProtocolMix::tls_quic(0.3),
            down: 10e3, sigma: 1.1, up: 0.3, fpd: 60.0),
        svc!(28, "CpeTelemetry", Background, &["telemetry.satcom-operator.example.net", "fw-update.satcom-operator.example.net"],
            Origin(Region::EuropeSouth), ProtocolMix { tls: 0.7, quic: 0.0, http: 0.1, other_tcp: 0.0, other_udp: 0.2, rtp: 0.0 },
            down: 5e3, sigma: 0.9, up: 0.5, fpd: 45.0),
        // ---- Chinese services popular in Congo (§6.2) ----
        svc!(29, "Netease", Web, &["www.netease.com", "nex.163.com"],
            Origin(Region::China), ProtocolMix::tls_only(),
            down: 90e3, sigma: 1.4, up: 0.1, fpd: 8.0),
        svc!(30, "QQ", Web, &["www.qq.com", "btrace.qq.com"],
            Origin(Region::China), ProtocolMix::tls_only(),
            down: 80e3, sigma: 1.4, up: 0.15, fpd: 8.0),
        svc!(31, "Umeng", Web, &["msg.umeng.com", "ulogs.umeng.com"],
            Origin(Region::China), ProtocolMix::tls_only(),
            down: 15e3, sigma: 1.0, up: 0.4, fpd: 10.0),
        svc!(32, "Kuaishou", Social, &["static.yximgs.com", "js{n}.a.yximgs.com"],
            Cdn(cdn::CHINA_DNS), ProtocolMix::tls_only(),
            down: 400e3, sigma: 1.5, up: 0.1, fpd: 8.0),
        svc!(33, "ScooperNews", Web, &["www.scooper.news", "img.scooper.news"],
            Cdn(cdn::GLOBAL_PEERING), ProtocolMix::tls_only(),
            down: 60e3, sigma: 1.3, up: 0.08, fpd: 10.0),
        svc!(34, "Shalltry", Web, &["api.shalltry.com", "cdn.shalltry.com"],
            Cdn(cdn::COMMERCIAL_DNS), ProtocolMix::tls_only(),
            down: 50e3, sigma: 1.3, up: 0.1, fpd: 8.0),
        // ---- African local services (the Fig 9 rightmost bumps) ----
        svc!(35, "CongoLocal", Web, &["actualite.cd", "www.radiookapi.net", "portail-kinshasa.cd"],
            Origin(Region::AfricaCentral), ProtocolMix { tls: 0.6, quic: 0.0, http: 0.4, other_tcp: 0.0, other_udp: 0.0, rtp: 0.0 },
            down: 220e3, sigma: 1.4, up: 0.08, fpd: 25.0),
        svc!(36, "NigeriaLocal", Web, &["www.punchng.com.ng", "www.gtbank.com.ng", "news.legit.ng"],
            Origin(Region::AfricaWest), ProtocolMix { tls: 0.7, quic: 0.0, http: 0.3, other_tcp: 0.0, other_udp: 0.0, rtp: 0.0 },
            down: 220e3, sigma: 1.4, up: 0.08, fpd: 25.0),
        svc!(37, "SouthAfricaLocal", Web, &["www.news24.co.za", "www.fnb.co.za", "www.gov.za"],
            Origin(Region::AfricaSouth), ProtocolMix { tls: 0.8, quic: 0.0, http: 0.2, other_tcp: 0.0, other_udp: 0.0, rtp: 0.0 },
            down: 220e3, sigma: 1.4, up: 0.08, fpd: 25.0),
    ];
    debug_assert!(c.iter().enumerate().all(|(i, s)| s.id.0 as usize == i), "ids must equal indexes");
    c
}

/// Look up a service by name (test/report convenience).
pub fn find<'a>(catalog: &'a [ServiceSpec], name: &str) -> Option<&'a ServiceSpec> {
    catalog.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_ids_match_indexes() {
        let c = standard_catalog();
        assert!(c.len() >= 30);
        for (i, s) in c.iter().enumerate() {
            assert_eq!(s.id.0 as usize, i, "{}", s.name);
            assert!(!s.domains.is_empty(), "{}", s.name);
        }
    }

    #[test]
    fn table3_services_present() {
        let c = standard_catalog();
        for name in [
            "Spotify",
            "Youtube",
            "Netflix",
            "Sky",
            "Primevideo",
            "Facebook",
            "Twitter",
            "Linkedin",
            "Instagram",
            "Tiktok",
            "Google",
            "Bing",
            "Yahoo",
            "Duckduckgo",
            "Whatsapp",
            "Telegram",
            "Snapchat",
            "Skype",
            "Wechat",
            "Office365",
            "Gsuite",
            "Dropbox",
        ] {
            assert!(find(&c, name).is_some(), "missing Table 3 service {name}");
        }
    }

    #[test]
    fn domain_templates_expand() {
        let c = standard_catalog();
        let insta = find(&c, "Instagram").unwrap();
        let mut rng = Rng::new(1);
        for _ in 0..50 {
            let d = insta.sample_domain(&mut rng);
            assert!(!d.contains("{n}"), "{d}");
            assert!(d.contains("instagram") || d.contains("cdninstagram"), "{d}");
        }
    }

    #[test]
    fn every_template_expands_to_its_32_names_once() {
        let c = standard_catalog();
        let templates: Vec<&str> =
            c.iter().flat_map(|s| s.domains.iter().copied()).filter(|d| d.contains("{n}")).collect();
        assert_eq!(templates.len(), 16);
        for t in templates {
            let names = expansions(t);
            for (n, name) in names.iter().enumerate() {
                assert_eq!(*name, t.replace("{n}", &n.to_string()));
            }
            // the same table every time: a name is never built twice
            assert!(std::ptr::eq(names, expansions(t)));
        }
    }

    #[test]
    fn protocol_mix_sampling_proportions() {
        let mix = ProtocolMix::tls_quic(0.4);
        let mut rng = Rng::new(2);
        let quic = (0..20_000).filter(|_| mix.sample(&mut rng) == FlowProtocol::Quic).count();
        assert!((quic as f64 / 20_000.0 - 0.4).abs() < 0.02);
        let http = ProtocolMix::http_only();
        for _ in 0..100 {
            assert_eq!(http.sample(&mut rng), FlowProtocol::Http);
        }
    }

    #[test]
    fn flow_sizes_positive_and_heavy_tailed() {
        let c = standard_catalog();
        let netflix = find(&c, "Netflix").unwrap();
        let mut rng = Rng::new(3);
        let mut sizes: Vec<u64> = (0..5000).map(|_| netflix.flow_size.sample(&mut rng).0).collect();
        sizes.sort_unstable();
        let median = sizes[2500];
        assert!((median as f64 / 9e6 - 1.0).abs() < 0.15, "median {median}");
        // upload is tiny for video
        let (_, up) = netflix.flow_size.sample(&mut rng);
        assert!(up < 1_000_000);
    }

    #[test]
    fn sky_is_http_heavy_and_eu_hosted() {
        let c = standard_catalog();
        let sky = find(&c, "Sky").unwrap();
        assert!(sky.protocol.http > 0.5);
        assert_eq!(sky.hosting, Hosting::Origin(Region::EuropeWest));
    }

    #[test]
    fn chinese_services_hosted_far() {
        let c = standard_catalog();
        for name in ["Netease", "QQ", "Umeng"] {
            let s = find(&c, name).unwrap();
            assert_eq!(s.hosting, Hosting::Origin(Region::China), "{name}");
        }
    }

    #[test]
    fn vpn_mostly_other_tcp() {
        let c = standard_catalog();
        let vpn = find(&c, "BusinessVpn").unwrap();
        assert!(vpn.protocol.other_tcp > 0.5);
        assert_eq!(vpn.category, Category::Vpn);
    }
}
