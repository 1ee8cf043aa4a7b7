//! Per-country calibration: subscriber shares, time zones, locations,
//! archetype mixes, plan mixes, beam configurations, service adoption
//! (Fig 6) and resolver popularity (Fig 10).
//!
//! The numeric matrices below are calibration inputs taken from the
//! paper's published aggregates; the simulation re-derives them
//! end-to-end through packets + the monitor, so the whole measurement
//! path is exercised (see DESIGN.md §1).

use crate::catalog::Category;
use satwatch_internet::{Region, ResolverId};
use satwatch_satcom::geo::{places, LatLon};
use satwatch_satcom::Plan;

/// Countries in the default scenario (the paper's top-6 in detail plus
/// the rest of the top-10-ish tail).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Country {
    Congo,
    Spain,
    Nigeria,
    Ireland,
    Uk,
    SouthAfrica,
    Germany,
    France,
    Italy,
    Greece,
    Kenya,
    Ghana,
}

impl Country {
    pub const ALL: [Country; 12] = [
        Country::Congo,
        Country::Spain,
        Country::Nigeria,
        Country::Ireland,
        Country::Uk,
        Country::SouthAfrica,
        Country::Germany,
        Country::France,
        Country::Italy,
        Country::Greece,
        Country::Kenya,
        Country::Ghana,
    ];

    /// The six countries the paper analyses in depth.
    pub const TOP6: [Country; 6] =
        [Country::Congo, Country::Nigeria, Country::SouthAfrica, Country::Ireland, Country::Spain, Country::Uk];

    /// Position of `self` in [`Country::ALL`], so a country round-trips
    /// through a small integer (`ALL[c.index()] == c`). The columnar
    /// analytics frame stores one byte per flow instead of the enum.
    pub const fn index(self) -> usize {
        match self {
            Country::Congo => 0,
            Country::Spain => 1,
            Country::Nigeria => 2,
            Country::Ireland => 3,
            Country::Uk => 4,
            Country::SouthAfrica => 5,
            Country::Germany => 6,
            Country::France => 7,
            Country::Italy => 8,
            Country::Greece => 9,
            Country::Kenya => 10,
            Country::Ghana => 11,
        }
    }

    pub fn code(self) -> &'static str {
        match self {
            Country::Congo => "CD",
            Country::Spain => "ES",
            Country::Nigeria => "NG",
            Country::Ireland => "IE",
            Country::Uk => "UK",
            Country::SouthAfrica => "ZA",
            Country::Germany => "DE",
            Country::France => "FR",
            Country::Italy => "IT",
            Country::Greece => "GR",
            Country::Kenya => "KE",
            Country::Ghana => "GH",
        }
    }

    pub fn from_code(code: &str) -> Option<Country> {
        Country::ALL.into_iter().find(|c| c.code() == code)
    }

    pub fn name(self) -> &'static str {
        match self {
            Country::Congo => "Congo",
            Country::Spain => "Spain",
            Country::Nigeria => "Nigeria",
            Country::Ireland => "Ireland",
            Country::Uk => "U.K.",
            Country::SouthAfrica => "South Africa",
            Country::Germany => "Germany",
            Country::France => "France",
            Country::Italy => "Italy",
            Country::Greece => "Greece",
            Country::Kenya => "Kenya",
            Country::Ghana => "Ghana",
        }
    }

    pub fn is_african(self) -> bool {
        matches!(self, Country::Congo | Country::Nigeria | Country::SouthAfrica | Country::Kenya | Country::Ghana)
    }

    /// Share of the operator's customer base (Fig 2 red line,
    /// qualitative beyond the two quoted values: Congo 20 %, Spain 16 %).
    pub fn customer_share(self) -> f64 {
        match self {
            Country::Congo => 0.20,
            Country::Spain => 0.16,
            Country::Nigeria => 0.12,
            Country::Ireland => 0.09,
            Country::Uk => 0.08,
            Country::SouthAfrica => 0.07,
            Country::Germany => 0.06,
            Country::France => 0.06,
            Country::Italy => 0.05,
            Country::Greece => 0.04,
            Country::Kenya => 0.04,
            Country::Ghana => 0.03,
        }
    }

    /// Time-zone offset from UTC, hours (winter 2022 values).
    pub fn tz_offset(self) -> i32 {
        match self {
            Country::Congo => 1,
            Country::Spain => 1,
            Country::Nigeria => 1,
            Country::Ireland => 0,
            Country::Uk => 0,
            Country::SouthAfrica => 2,
            Country::Germany => 1,
            Country::France => 1,
            Country::Italy => 1,
            Country::Greece => 2,
            Country::Kenya => 3,
            Country::Ghana => 0,
        }
    }

    /// Representative subscriber location.
    pub fn location(self) -> LatLon {
        match self {
            Country::Congo => places::CONGO_KINSHASA,
            Country::Spain => places::SPAIN_MADRID,
            Country::Nigeria => places::NIGERIA_LAGOS,
            Country::Ireland => places::IRELAND_DUBLIN,
            Country::Uk => places::UK_LONDON,
            Country::SouthAfrica => places::SOUTH_AFRICA_JOBURG,
            Country::Germany => places::GERMANY_FRANKFURT,
            Country::France => places::FRANCE_PARIS,
            Country::Italy => places::ITALY_ROME,
            Country::Greece => places::GREECE_ATHENS,
            Country::Kenya => places::KENYA_NAIROBI,
            Country::Ghana => places::GHANA_ACCRA,
        }
    }

    /// Region a subscription geolocates to in commercial databases
    /// (drives the §6.4 DNS/CDN confusion).
    pub fn home_region(self) -> Region {
        match self {
            Country::Congo => Region::AfricaCentral,
            Country::Nigeria | Country::Ghana => Region::AfricaWest,
            Country::SouthAfrica => Region::AfricaSouth,
            Country::Kenya => Region::AfricaEast,
            Country::Italy => Region::EuropeSouth,
            Country::Spain | Country::France | Country::Greece => Region::EuropeSouth,
            Country::Uk | Country::Ireland | Country::Germany => Region::EuropeWest,
        }
    }

    /// Commercial plan mix: Europe buys faster plans (§6.5: 30/50/100
    /// popular in Europe, 10/30 in Africa).
    pub fn plan_weights(self) -> [(Plan, f64); 5] {
        if self.is_african() {
            [
                (Plan::Down10, 0.55),
                (Plan::Down20, 0.15),
                (Plan::Down30, 0.25),
                (Plan::Down50, 0.04),
                (Plan::Down100, 0.01),
            ]
        } else {
            [
                (Plan::Down10, 0.05),
                (Plan::Down20, 0.10),
                (Plan::Down30, 0.40),
                (Plan::Down50, 0.25),
                (Plan::Down100, 0.20),
            ]
        }
    }

    /// Beam configuration knobs: (number of beams, peak utilization,
    /// night utilization, PEP provisioning, extra coverage-edge
    /// impairment added to the geometric one).
    ///
    /// Calibration (§6.1): Congo's beams are congested with an
    /// under-provisioned PEP; some Nigerian beams are congested;
    /// Ireland sits at the coverage edge (impairment, not congestion);
    /// Spain/UK/South Africa are healthy.
    pub fn beam_profile(self) -> BeamProfile {
        match self {
            Country::Congo => BeamProfile {
                beams: 3,
                peak_util: 0.93,
                night_util: 0.60,
                pep_provisioning: 0.45,
                extra_impairment: 0.04,
            },
            Country::Nigeria => BeamProfile {
                beams: 3,
                peak_util: 0.80,
                night_util: 0.40,
                pep_provisioning: 0.75,
                extra_impairment: 0.0,
            },
            Country::SouthAfrica => BeamProfile {
                beams: 2,
                peak_util: 0.55,
                night_util: 0.25,
                pep_provisioning: 1.0,
                extra_impairment: 0.10,
            },
            Country::Ireland => BeamProfile {
                beams: 1,
                peak_util: 0.40,
                night_util: 0.20,
                pep_provisioning: 1.0,
                extra_impairment: 0.45,
            },
            Country::Spain => BeamProfile {
                beams: 2,
                peak_util: 0.45,
                night_util: 0.15,
                pep_provisioning: 1.0,
                extra_impairment: 0.0,
            },
            Country::Uk => BeamProfile {
                beams: 2,
                peak_util: 0.50,
                night_util: 0.20,
                pep_provisioning: 1.0,
                extra_impairment: 0.08,
            },
            Country::Kenya | Country::Ghana => BeamProfile {
                beams: 1,
                peak_util: 0.70,
                night_util: 0.35,
                pep_provisioning: 0.7,
                extra_impairment: 0.02,
            },
            _ => BeamProfile {
                beams: 1,
                peak_util: 0.45,
                night_util: 0.18,
                pep_provisioning: 1.0,
                extra_impairment: 0.02,
            },
        }
    }

    /// Resolver popularity (% of DNS volume) — Fig 10 columns for the
    /// top-6, sensible defaults for the rest.
    pub fn resolver_shares(self) -> Vec<(ResolverId, f64)> {
        use ResolverId::*;
        match self {
            Country::Congo => vec![
                (OperatorEu, 0.87),
                (Google, 85.68),
                (Cloudflare, 3.02),
                (Nigerian, 0.0),
                (OpenDns, 1.22),
                (Level3, 0.45),
                (Baidu, 0.68),
                (Dns114, 2.97),
                (Other, 5.11),
            ],
            Country::Nigeria => vec![
                (OperatorEu, 9.10),
                (Google, 50.69),
                (Cloudflare, 2.54),
                (Nigerian, 11.84),
                (OpenDns, 4.00),
                (Level3, 7.63),
                (Baidu, 0.32),
                (Dns114, 3.43),
                (Other, 10.46),
            ],
            Country::SouthAfrica => vec![
                (OperatorEu, 1.87),
                (Google, 63.47),
                (Cloudflare, 10.36),
                (Nigerian, 6.32),
                (OpenDns, 0.65),
                (Level3, 0.09),
                (Baidu, 0.22),
                (Dns114, 1.64),
                (Other, 15.38),
            ],
            Country::Ireland => vec![
                (OperatorEu, 43.75),
                (Google, 38.49),
                (Cloudflare, 2.03),
                (Nigerian, 0.0),
                (OpenDns, 0.49),
                (Level3, 0.0),
                (Baidu, 0.12),
                (Dns114, 0.05),
                (Other, 15.07),
            ],
            Country::Spain => vec![
                (OperatorEu, 28.95),
                (Google, 61.27),
                (Cloudflare, 2.05),
                (Nigerian, 0.0),
                (OpenDns, 0.72),
                (Level3, 0.0),
                (Baidu, 0.11),
                (Dns114, 0.03),
                (Other, 6.87),
            ],
            Country::Uk => vec![
                (OperatorEu, 38.10),
                (Google, 34.67),
                (Cloudflare, 6.04),
                (Nigerian, 0.0),
                (OpenDns, 6.97),
                (Level3, 0.49),
                (Baidu, 0.05),
                (Dns114, 0.01),
                (Other, 13.67),
            ],
            c if c.is_african() => {
                vec![(OperatorEu, 5.0), (Google, 70.0), (Cloudflare, 5.0), (OpenDns, 2.0), (Dns114, 2.0), (Other, 16.0)]
            }
            _ => vec![(OperatorEu, 35.0), (Google, 45.0), (Cloudflare, 4.0), (OpenDns, 2.0), (Other, 14.0)],
        }
    }

    /// Fraction of customers using each named service on a given day
    /// (Fig 6 matrix for the top-6 countries; the remaining countries
    /// reuse the nearest profile). Value in `[0, 1]`.
    pub fn service_adoption(self, service_name: &str) -> f64 {
        let col = match self {
            Country::Congo => 0,
            Country::Nigeria => 1,
            Country::SouthAfrica => 2,
            Country::Ireland => 3,
            Country::Spain => 4,
            Country::Uk => 5,
            Country::Kenya | Country::Ghana => 1, // Nigeria-like
            Country::Germany | Country::France | Country::Italy | Country::Greece => 4, // Spain-like
        };
        // Fig 6 heatmap, % of customers per day.
        let row: Option<[f64; 6]> = match service_name {
            "Google" => Some([62.96, 61.26, 64.72, 68.58, 68.30, 65.48]),
            "Whatsapp" => Some([61.22, 51.18, 62.88, 59.59, 63.82, 53.75]),
            "Snapchat" => Some([33.93, 28.90, 19.14, 38.52, 12.33, 28.50]),
            "Wechat" => Some([6.42, 3.55, 1.11, 0.49, 0.06, 0.41]),
            "Telegram" => Some([1.83, 3.17, 1.28, 0.53, 1.75, 0.29]),
            "Instagram" => Some([48.81, 41.04, 40.67, 48.53, 45.59, 40.43]),
            "Tiktok" => Some([41.56, 31.99, 36.31, 40.11, 31.89, 36.53]),
            "Netflix" => Some([17.34, 17.84, 38.91, 50.91, 39.20, 46.41]),
            "Primevideo" => Some([3.90, 3.77, 8.42, 21.30, 22.78, 28.21]),
            "Sky" => Some([15.71, 7.86, 7.26, 27.68, 6.04, 28.37]),
            "Spotify" => Some([37.78, 30.31, 33.19, 46.79, 45.20, 39.73]),
            "Dropbox" => Some([11.50, 9.22, 16.57, 10.39, 9.34, 16.81]),
            _ => None,
        };
        if let Some(r) = row {
            return r[col] / 100.0;
        }
        // services outside the Fig 6 subset
        let african = self.is_african();
        match service_name {
            "Youtube" => {
                if african {
                    0.45
                } else {
                    0.55
                }
            }
            "Facebook" => {
                if african {
                    0.60
                } else {
                    0.45
                }
            }
            "Twitter" => 0.18,
            "Linkedin" => {
                if african {
                    0.06
                } else {
                    0.12
                }
            }
            "Bing" => 0.10,
            "Yahoo" => 0.06,
            "Duckduckgo" => 0.04,
            "Skype" => 0.08,
            "Office365" => {
                if african {
                    0.12
                } else {
                    0.25
                }
            }
            "Gsuite" => 0.20,
            "MicrosoftUpdate" => {
                // drives the Fig 3 HTTP bumps in Ireland/UK together
                // with Sky
                match self {
                    Country::Ireland | Country::Uk => 0.55,
                    _ if african => 0.15,
                    _ => 0.40,
                }
            }
            "GenericWeb" => 0.85,
            "BusinessVpn" => match self {
                Country::Germany => 0.45,
                Country::Ireland | Country::Uk | Country::France | Country::Italy => 0.15,
                _ if african => 0.05,
                _ => 0.12,
            },
            "VoipCall" => 0.22,
            "AppleInfra" => {
                if african {
                    0.25
                } else {
                    0.55
                }
            }
            "GoogleInfra" => 0.90,
            "CpeTelemetry" => 1.0,
            "Netease" | "QQ" | "Umeng" => match self {
                Country::Congo => 0.06,
                Country::Nigeria | Country::SouthAfrica => 0.02,
                _ => 0.003,
            },
            "Kuaishou" => match self {
                Country::Congo => 0.05,
                _ if african => 0.02,
                _ => 0.005,
            },
            "ScooperNews" | "Shalltry" => {
                if african {
                    0.15
                } else {
                    0.005
                }
            }
            "CongoLocal" => {
                if self == Country::Congo {
                    0.35
                } else {
                    0.002
                }
            }
            "NigeriaLocal" => {
                if self == Country::Nigeria {
                    0.35
                } else {
                    0.002
                }
            }
            "SouthAfricaLocal" => {
                if self == Country::SouthAfrica {
                    0.35
                } else {
                    0.002
                }
            }
            _ => 0.05,
        }
    }

    /// Median daily volume multiplier for a category relative to the
    /// catalog's per-service defaults — the Fig 7 calibration.
    /// African chat/social volumes are orders of magnitude above
    /// Europe's because CPEs are shared.
    pub fn category_volume_factor(self, cat: Category) -> f64 {
        let african = self.is_african();
        match cat {
            Category::Chat if african => match self {
                Country::Congo => 22.0,
                Country::Nigeria => 12.0,
                _ => 8.0,
            },
            Category::Social if african => match self {
                Country::Congo => 2.0,
                Country::Nigeria => 1.5,
                _ => 1.2,
            },
            Category::Audio => {
                if african {
                    0.15
                } else {
                    2.0
                }
            }
            Category::Video if african => 0.5,
            _ => 1.0,
        }
    }
}

/// Beam configuration knobs for one country.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BeamProfile {
    pub beams: u16,
    pub peak_util: f64,
    pub night_util: f64,
    pub pep_provisioning: f64,
    /// Added to the geometric impairment (coverage-edge effects the
    /// pure elevation model cannot see).
    pub extra_impairment: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn customer_shares_sum_to_one() {
        let total: f64 = Country::ALL.iter().map(|c| c.customer_share()).sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn congo_largest_spain_second() {
        assert!(Country::Congo.customer_share() > Country::Spain.customer_share());
        for c in Country::ALL {
            assert!(c.customer_share() <= Country::Congo.customer_share());
        }
    }

    #[test]
    fn codes_round_trip() {
        for c in Country::ALL {
            assert_eq!(Country::from_code(c.code()), Some(c));
        }
        assert_eq!(Country::from_code("XX"), None);
    }

    #[test]
    fn african_classification() {
        assert!(Country::Congo.is_african());
        assert!(Country::Nigeria.is_african());
        assert!(!Country::Spain.is_african());
    }

    #[test]
    fn resolver_shares_positive_and_google_dominates_congo() {
        for c in Country::ALL {
            let shares = c.resolver_shares();
            let total: f64 = shares.iter().map(|(_, s)| s).sum();
            assert!(total > 90.0 && total <= 101.0, "{c:?}: {total}");
        }
        let congo = Country::Congo.resolver_shares();
        let google = congo.iter().find(|(r, _)| *r == ResolverId::Google).unwrap().1;
        assert!(google > 80.0);
        // operator resolver only strong in Europe
        let ie = Country::Ireland.resolver_shares();
        let op = ie.iter().find(|(r, _)| *r == ResolverId::OperatorEu).unwrap().1;
        assert!(op > 40.0);
    }

    #[test]
    fn fig6_adoption_matrix_spot_checks() {
        assert!((Country::Congo.service_adoption("Whatsapp") - 0.6122).abs() < 1e-9);
        assert!((Country::Spain.service_adoption("Snapchat") - 0.1233).abs() < 1e-9);
        assert!((Country::Uk.service_adoption("Sky") - 0.2837).abs() < 1e-9);
        assert!((Country::Ireland.service_adoption("Netflix") - 0.5091).abs() < 1e-9);
        // WeChat reveals the Chinese community in Congo
        assert!(Country::Congo.service_adoption("Wechat") > 10.0 * Country::Spain.service_adoption("Wechat"));
    }

    #[test]
    fn paid_video_more_popular_in_europe() {
        for svc in ["Netflix", "Primevideo"] {
            let congo = Country::Congo.service_adoption(svc);
            let ie = Country::Ireland.service_adoption(svc);
            assert!(ie > congo, "{svc}");
        }
        // South Africa is the African outlier with real streaming uptake
        assert!(Country::SouthAfrica.service_adoption("Netflix") > 2.0 * Country::Congo.service_adoption("Netflix"));
    }

    #[test]
    fn germany_vpn_heavy() {
        assert!(Country::Germany.service_adoption("BusinessVpn") >= 0.30);
        assert!(Country::Congo.service_adoption("BusinessVpn") <= 0.05);
    }

    #[test]
    fn beam_profiles_match_paper_findings() {
        let congo = Country::Congo.beam_profile();
        assert!(congo.peak_util > 0.9, "Congo beams congested");
        assert!(congo.pep_provisioning < 0.5, "Congo PEP under-provisioned");
        let ie = Country::Ireland.beam_profile();
        assert!(ie.peak_util < 0.5, "Ireland not congested");
        assert!(ie.extra_impairment > 0.3, "Ireland at the coverage edge");
        let es = Country::Spain.beam_profile();
        assert!(es.extra_impairment == 0.0 && es.pep_provisioning == 1.0);
    }

    #[test]
    fn chat_volume_factor_orders_of_magnitude() {
        let congo = Country::Congo.category_volume_factor(Category::Chat);
        let spain = Country::Spain.category_volume_factor(Category::Chat);
        assert!(congo / spain >= 10.0);
        assert!(congo > Country::Congo.category_volume_factor(Category::Social));
    }

    #[test]
    fn plan_weights_normalised_enough() {
        for c in Country::ALL {
            let total: f64 = c.plan_weights().iter().map(|(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-9, "{c:?}");
        }
        // Africa buys slower plans
        let af = Country::Congo.plan_weights();
        assert!(af[0].1 > 0.5, "10M dominates in Africa");
    }
}
