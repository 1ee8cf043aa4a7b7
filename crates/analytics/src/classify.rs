//! Domain → service classification (paper §3.1 / Appendix A, Table 3).
//!
//! The paper manually curates regular expressions mapping popular
//! server names to services and categories. We implement the same
//! pattern language with three primitives — anchored suffix
//! (`spotify.com$`), anchored prefix (`^www.google`), and substring
//! (`netflix`) — and transcribe Table 3, extended with entries for the
//! supplementary services our catalog generates (updates, VPN,
//! Chinese and African local services), mirroring how the authors
//! "enumerate top and local players by manually inspecting the list
//! of most popular domains".

use satwatch_monitor::Domain;
use satwatch_simcore::FxHashMap;
use satwatch_traffic::Category;
use std::sync::Arc;

/// A memoized classification verdict: the service name and category,
/// or `None` for an unclassified domain.
pub type ServiceVerdict = Option<(&'static str, Category)>;

/// Pointer-keyed memo for [`Classifier::classify_cached`]: one entry
/// per distinct interned `Domain` handle. The stored `Domain` clone
/// keeps the allocation alive for the cache's lifetime, making the
/// pointer key stable.
#[derive(Debug, Default)]
pub struct ClassifyCache {
    by_ptr: FxHashMap<usize, (Domain, ServiceVerdict)>,
}

impl ClassifyCache {
    /// Number of distinct domain handles memoized.
    pub fn len(&self) -> usize {
        self.by_ptr.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_ptr.is_empty()
    }
}

/// One matching primitive of the Table 3 pattern language.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// `foo.com$`: the domain is `foo.com` or ends with `.foo.com`
    /// (label-boundary-safe suffix).
    Suffix(&'static str),
    /// `.foo.com$`: a strict subdomain of `foo.com`.
    SubdomainSuffix(&'static str),
    /// `^www.google`: anchored prefix.
    Prefix(&'static str),
    /// bare substring, e.g. `netflix`.
    Contains(&'static str),
}

impl Pattern {
    pub fn matches(&self, domain: &str) -> bool {
        match *self {
            Pattern::Suffix(s) => {
                domain == s || (domain.ends_with(s) && domain.as_bytes()[domain.len() - s.len() - 1] == b'.')
            }
            Pattern::SubdomainSuffix(s) => {
                domain.len() > s.len() + 1
                    && domain.ends_with(s)
                    && domain.as_bytes()[domain.len() - s.len() - 1] == b'.'
            }
            Pattern::Prefix(p) => domain.starts_with(p),
            Pattern::Contains(c) => domain.contains(c),
        }
    }
}

/// A classification rule: first rule whose any-pattern matches wins.
#[derive(Clone, Debug)]
pub struct Rule {
    pub service: &'static str,
    pub category: Category,
    pub patterns: &'static [Pattern],
}

/// The classifier.
#[derive(Clone, Debug)]
pub struct Classifier {
    rules: Vec<Rule>,
}

use Pattern::{Contains, Prefix, SubdomainSuffix, Suffix};

macro_rules! rule {
    ($svc:expr, $cat:expr, [$($p:expr),* $(,)?]) => {
        Rule { service: $svc, category: $cat, patterns: &[$($p),*] }
    };
}

impl Classifier {
    /// The Table 3 rule set (+ catalog-coverage extensions).
    pub fn standard() -> Classifier {
        use Category::*;
        let rules = vec![
            // ---- Table 3, transcribed ----
            rule!(
                "Spotify",
                Audio,
                [
                    Suffix("spotify.com"),
                    SubdomainSuffix("scdn.com"),
                    SubdomainSuffix("scdn.co"),
                    Suffix("pscdn.spotify.com"),
                    Suffix("scdn.co")
                ]
            ),
            rule!(
                "Youtube",
                Video,
                [
                    Suffix("googlevideo.com"),
                    SubdomainSuffix("ytimg.com"),
                    SubdomainSuffix("youtube.com"),
                    SubdomainSuffix("gvt1.com"),
                    SubdomainSuffix("gvt2.com"),
                    SubdomainSuffix("youtube-nocookie.com"),
                    Suffix("youtube.com")
                ]
            ),
            rule!(
                "Netflix",
                Video,
                [
                    Contains("netflix"),
                    Contains("nflxext."),
                    Contains("nflximg"),
                    Contains("nflxvideo"),
                    Contains("nflxso.")
                ]
            ),
            rule!("Sky", Video, [SubdomainSuffix("sky.com"), Suffix("sky.com")]),
            rule!(
                "Primevideo",
                Video,
                [
                    Suffix("amazonvideo.com"),
                    Suffix("primevideo.com"),
                    Suffix("pv-cdn.net"),
                    Suffix("atv-ps.amazon.com"),
                    Suffix("atv-ext.amazon.com"),
                    Suffix("atv-ext-eu.amazon.com"),
                    Suffix("atv-ext-fe.amazon.com"),
                    Prefix("atv-ps-eu.amazon"),
                    Prefix("atv-ps-fe.amazon")
                ]
            ),
            rule!(
                "Facebook",
                Social,
                [
                    Suffix("facebook.com"),
                    Suffix("fbcdn.net"),
                    Suffix("facebook.net"),
                    Prefix("fbcdn"),
                    Prefix("fbstatic"),
                    Prefix("fbexternal"),
                    Suffix("fbsbx.com"),
                    Suffix("fb.com")
                ]
            ),
            rule!(
                "Twitter",
                Social,
                [
                    SubdomainSuffix("twitter.com"),
                    SubdomainSuffix("twimg.com"),
                    Suffix("twitter.com"),
                    Suffix("twitter.com.edgesuite.net"),
                    Suffix("twitter-any.s3.amazonaws.com"),
                    Suffix("twitter-blog.s3.amazonaws.com")
                ]
            ),
            rule!("Linkedin", Social, [Suffix("linkedin.com"), Suffix("licdn.com"), Suffix("lnkd.in")]),
            rule!(
                "Instagram",
                Social,
                [
                    SubdomainSuffix("instagram.com"),
                    Suffix("instagram.com"),
                    Contains("cdninstagram.com"),
                    Prefix("igcdn")
                ]
            ),
            rule!(
                "Tiktok",
                Social,
                [
                    Suffix("tiktok.com"),
                    Contains("tiktokcdn"),
                    Suffix("tiktokv.com"),
                    Contains("tiktokv.com"),
                    Contains("tiktok")
                ]
            ),
            rule!("Google", Search, [Prefix("www.google"), Prefix("google.")]),
            rule!("Bing", Search, [Contains("bing.com")]),
            rule!(
                "Yahoo",
                Search,
                [
                    SubdomainSuffix("yahoo.com"),
                    Suffix("yahoo.com"),
                    SubdomainSuffix("yahoo.net"),
                    SubdomainSuffix("yimg.com")
                ]
            ),
            rule!("Duckduckgo", Search, [Contains("duckduckgo.")]),
            rule!(
                "Whatsapp",
                Chat,
                [
                    SubdomainSuffix("whatsapp.com"),
                    SubdomainSuffix("whatsapp.net"),
                    Suffix("whatsapp.com"),
                    Suffix("whatsapp.net")
                ]
            ),
            rule!("Telegram", Chat, [SubdomainSuffix("telegram.org"), Prefix("telegram.org"), Suffix("telegram.org")]),
            rule!(
                "Snapchat",
                Chat,
                [
                    SubdomainSuffix("snapchat.com"),
                    Suffix("snapchat.com"),
                    Suffix("feelinsonice.appspot.com"),
                    Suffix("feelinsonice-hrd.appspot.com"),
                    Suffix("feelinsonice.l.google.com"),
                    Suffix("sc-cdn.net")
                ]
            ),
            rule!(
                "Skype",
                Chat,
                [
                    Suffix("skypeassets.com"),
                    SubdomainSuffix("skype.com"),
                    SubdomainSuffix("skype.net"),
                    Suffix("skype.com")
                ]
            ),
            rule!("Wechat", Chat, [Suffix("wechat.com"), Suffix("weixin.qq.com"), Suffix("wxs.qq.com")]),
            rule!(
                "Office365",
                Work,
                [
                    Suffix("sharepoint.com"),
                    Suffix("office.net"),
                    Suffix("onenote.com"),
                    Suffix("office365.com"),
                    Suffix("office.com"),
                    Prefix("teams.microsoft"),
                    Prefix("teams.office"),
                    Contains("lync"),
                    Suffix("live.com")
                ]
            ),
            rule!(
                "Gsuite",
                Work,
                [
                    Suffix("googledrive.com"),
                    SubdomainSuffix("drive.google.com"),
                    Suffix("drive.google.com"),
                    Suffix("docs.google.com"),
                    Suffix("mail.google.com"),
                    Suffix("sheets.google.com"),
                    Suffix("slides.google.com"),
                    Suffix("takeout.google.com")
                ]
            ),
            rule!("Dropbox", Work, [Contains("dropbox"), Contains("db.tt")]),
            // ---- extensions for catalog coverage (same methodology) ----
            rule!(
                "MicrosoftUpdate",
                Update,
                [
                    Contains("windowsupdate.com"),
                    Contains("delivery.mp.microsoft.com"),
                    Suffix("download.microsoft.com")
                ]
            ),
            rule!("BusinessVpn", Vpn, [Contains("vpn.corp-gw")]),
            rule!("VoipCall", Call, [Prefix("sip.voice-provider")]),
            rule!(
                "AppleInfra",
                Background,
                [Suffix("captive.apple.com"), SubdomainSuffix("ls.apple.com"), Suffix("configuration.apple.com")]
            ),
            rule!(
                "GoogleInfra",
                Background,
                [Suffix("play.googleapis.com"), Suffix("gstatic.com"), Prefix("clients"), Suffix("mtalk.google.com")]
            ),
            rule!("CpeTelemetry", Background, [Contains("satcom-operator.example.net")]),
            rule!("Netease", Web, [Contains("netease.com"), Suffix("163.com")]),
            rule!("QQ", Web, [Suffix("qq.com")]),
            rule!("Umeng", Web, [Contains("umeng.com")]),
            rule!("Kuaishou", Social, [Contains("yximgs.com")]),
            rule!("ScooperNews", Web, [Contains("scooper.news")]),
            rule!("Shalltry", Web, [Contains("shalltry.com")]),
            rule!("CongoLocal", Web, [Suffix("actualite.cd"), Suffix("radiookapi.net"), Suffix("portail-kinshasa.cd")]),
            rule!("NigeriaLocal", Web, [Suffix("punchng.com.ng"), Suffix("gtbank.com.ng"), Suffix("legit.ng")]),
            rule!("SouthAfricaLocal", Web, [Suffix("news24.co.za"), Suffix("fnb.co.za"), Suffix("gov.za")]),
            rule!("GenericWeb", Web, [Contains("example.com"), Contains("example.net"), Contains("example.org")]),
        ];
        Classifier { rules }
    }

    /// Classify a domain. First matching rule wins (rules are ordered
    /// most-specific first, as in the paper's manual curation).
    pub fn classify(&self, domain: &str) -> Option<(&'static str, Category)> {
        let d = domain.to_ascii_lowercase();
        self.rules.iter().find(|r| r.patterns.iter().any(|p| p.matches(&d))).map(|r| (r.service, r.category))
    }

    /// [`Classifier::classify`] memoized per interned domain handle.
    ///
    /// Flow records intern their SNI (`Domain = Arc<str>`), so the
    /// same backing allocation recurs for every flow to a given name;
    /// keying the memo on the `Arc` pointer skips both the lowercasing
    /// and the pattern scan on every repeat. The cache pins a clone of
    /// each `Domain` it has seen so the allocation (and therefore the
    /// pointer key) cannot be freed and reused for a different name
    /// while the cache lives. Classification is a pure function of the
    /// name, so memoization cannot change any result.
    pub fn classify_cached(&self, domain: &Domain, cache: &mut ClassifyCache) -> Option<(&'static str, Category)> {
        let key = Arc::as_ptr(domain) as *const u8 as usize;
        if let Some((_pin, verdict)) = cache.by_ptr.get(&key) {
            return *verdict;
        }
        let verdict = self.classify(domain);
        cache.by_ptr.insert(key, (domain.clone(), verdict));
        verdict
    }

    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Render the rule set as the paper's Table 3: service, category,
    /// and the pattern list in the paper's notation (`^` prefix,
    /// trailing `$` suffix, leading `.` strict subdomain).
    pub fn render_rules(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from(
            "Table 3: regular expressions used to identify services and categories
",
        );
        let _ = writeln!(s, "{:<16} {:<16} patterns", "Service", "Category");
        for r in &self.rules {
            let pats: Vec<String> = r
                .patterns
                .iter()
                .map(|p| match p {
                    Pattern::Suffix(x) => format!("{x}$"),
                    Pattern::SubdomainSuffix(x) => format!(".{x}$"),
                    Pattern::Prefix(x) => format!("^{x}"),
                    Pattern::Contains(x) => (*x).to_string(),
                })
                .collect();
            let _ = writeln!(s, "{:<16} {:<16} [{}]", r.service, r.category.label(), pats.join(", "));
        }
        s
    }
}

/// Two-label public suffixes the second-level-domain extractor knows
/// (paper footnote 6: "we handle the case of two-label top level
/// domains — e.g. co.uk").
const TWO_LABEL_TLDS: &[&str] = &[
    "co.uk",
    "org.uk",
    "ac.uk",
    "gov.uk",
    "co.za",
    "org.za",
    "gov.za",
    "com.ng",
    "org.ng",
    "gov.ng",
    "com.cd",
    "co.ke",
    "or.ke",
    "com.gh",
    "edu.gh",
    "com.cn",
    "org.cn",
    "appspot.com",
    "amazonaws.com",
];

/// Extract the second-level domain: `scontent-1.xx.fbcdn.net` →
/// `fbcdn.net`; `news.bbc.co.uk` → `bbc.co.uk`.
pub fn second_level_domain(domain: &str) -> String {
    let d = domain.trim_end_matches('.').to_ascii_lowercase();
    let labels: Vec<&str> = d.split('.').collect();
    if labels.len() <= 2 {
        return d;
    }
    let last2 = labels[labels.len() - 2..].join(".");
    if TWO_LABEL_TLDS.contains(&last2.as_str()) && labels.len() >= 3 {
        labels[labels.len() - 3..].join(".")
    } else {
        last2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_primitives() {
        assert!(Suffix("spotify.com").matches("api.spotify.com"));
        assert!(Suffix("spotify.com").matches("spotify.com"));
        assert!(!Suffix("spotify.com").matches("notspotify.com"));
        assert!(SubdomainSuffix("sky.com").matches("cdn.sky.com"));
        assert!(!SubdomainSuffix("sky.com").matches("sky.com"));
        assert!(!SubdomainSuffix("sky.com").matches("whisky.com"));
        assert!(Prefix("www.google").matches("www.google.co.uk"));
        assert!(!Prefix("www.google").matches("maps.google.com"));
        assert!(Contains("netflix").matches("api-global.netflix.com"));
    }

    #[test]
    fn table3_spot_checks() {
        let c = Classifier::standard();
        let cases = [
            ("audio-sp-7.pscdn.spotify.com", "Spotify", Category::Audio),
            ("rr4---sn-4g5e6nz7.googlevideo.com", "Youtube", Category::Video),
            ("ipv4-c012-lagg0.1.oca.nflxvideo.net", "Netflix", Category::Video),
            ("cdn-3.skycdp.sky.com", "Sky", Category::Video),
            ("atv-ext-eu.amazon.com", "Primevideo", Category::Video),
            ("scontent-9.xx.fbcdn.net", "Facebook", Category::Social),
            ("pbs.twimg.com", "Twitter", Category::Social),
            ("media.licdn.com", "Linkedin", Category::Social),
            ("scontent-7.cdninstagram.com", "Instagram", Category::Social),
            ("v5.tiktokcdn.com", "Tiktok", Category::Social),
            ("www.google.com", "Google", Category::Search),
            ("google.es", "Google", Category::Search),
            ("www.bing.com", "Bing", Category::Search),
            ("media-3.cdn.whatsapp.net", "Whatsapp", Category::Chat),
            ("web.telegram.org", "Telegram", Category::Chat),
            ("app.snapchat.com", "Snapchat", Category::Chat),
            ("short.weixin.qq.com", "Wechat", Category::Chat),
            ("companyname.sharepoint.com", "Office365", Category::Work),
            ("docs.google.com", "Gsuite", Category::Work),
            ("content.dropboxapi.com", "Dropbox", Category::Work),
        ];
        for (domain, svc, cat) in cases {
            let got = c.classify(domain);
            assert_eq!(got, Some((svc, cat)), "{domain}");
        }
    }

    #[test]
    fn unknown_domains_unclassified() {
        let c = Classifier::standard();
        assert_eq!(c.classify("random.website.xyz"), None);
        assert_eq!(c.classify(""), None);
    }

    #[test]
    fn classification_case_insensitive() {
        let c = Classifier::standard();
        assert_eq!(c.classify("WWW.GOOGLE.COM").map(|x| x.0), Some("Google"));
    }

    #[test]
    fn wechat_wins_over_qq() {
        // weixin.qq.com must classify as Wechat (Chat), not QQ (Web):
        // rule order encodes specificity.
        let c = Classifier::standard();
        assert_eq!(c.classify("short.weixin.qq.com").map(|x| x.0), Some("Wechat"));
        assert_eq!(c.classify("btrace.qq.com").map(|x| x.0), Some("QQ"));
    }

    #[test]
    fn catalog_round_trip() {
        // Every domain the generator can emit classifies back to the
        // generating service (or at least its category).
        let c = Classifier::standard();
        let catalog = satwatch_traffic::catalog::standard_catalog();
        let mut rng = satwatch_simcore::Rng::new(9);
        for svc in &catalog {
            for _ in 0..20 {
                let d = svc.sample_domain(&mut rng);
                let got = c.classify(d);
                assert!(got.is_some(), "{} generated unclassifiable {d}", svc.name);
                let (name, cat) = got.unwrap();
                assert_eq!(cat, svc.category, "{d} → {name} ({cat:?}), want {}", svc.name);
            }
        }
    }

    #[test]
    fn table3_renders_every_rule() {
        let c = Classifier::standard();
        let text = c.render_rules();
        assert!(text.contains("Table 3"));
        for r in c.rules() {
            assert!(text.contains(r.service), "{} missing", r.service);
        }
        // the paper's notation survives
        assert!(text.contains("^www.google"));
        assert!(text.contains("spotify.com$"));
        assert!(text.contains(".sky.com$"));
    }

    #[test]
    fn cached_classification_matches_uncached() {
        let c = Classifier::standard();
        let mut cache = ClassifyCache::default();
        let domains: Vec<Domain> =
            ["video.tiktokv.com", "docs.google.com", "random.website.xyz"].iter().map(|d| Domain::from(*d)).collect();
        for d in &domains {
            assert_eq!(c.classify_cached(d, &mut cache), c.classify(d));
            // hit path returns the same verdict
            assert_eq!(c.classify_cached(d, &mut cache), c.classify(d));
        }
        assert_eq!(cache.len(), 3, "one entry per distinct handle");
        // a distinct handle with equal content gets its own entry but
        // the same verdict
        let dup = Domain::from("video.tiktokv.com");
        assert_eq!(c.classify_cached(&dup, &mut cache), c.classify("video.tiktokv.com"));
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn sld_extraction() {
        assert_eq!(second_level_domain("scontent-1.xx.fbcdn.net"), "fbcdn.net");
        assert_eq!(second_level_domain("news.bbc.co.uk"), "bbc.co.uk");
        assert_eq!(second_level_domain("www.gtbank.com.ng"), "gtbank.com.ng");
        assert_eq!(second_level_domain("www.fnb.co.za"), "fnb.co.za");
        assert_eq!(second_level_domain("example.com"), "example.com");
        assert_eq!(second_level_domain("localhost"), "localhost");
        assert_eq!(second_level_domain("feelinsonice.appspot.com"), "feelinsonice.appspot.com");
    }
}
