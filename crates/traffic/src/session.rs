//! Daily flow generation: turns a customer's profile into the list of
//! flows they will open on a given day.
//!
//! The output is an abstract [`FlowIntent`] — service, domain,
//! protocol, volumes, start time, resolver — which the scenario crate
//! turns into actual packets through the SatCom path. Keeping the
//! generator pure makes the Fig 5/6/7 calibrations testable without
//! running the network.

use crate::catalog::{Category, DomainId, FlowProtocol, ServiceId, ServiceSpec};
use crate::dnschoice::ResolverChoice;
use crate::population::Customer;
use satwatch_internet::ResolverId;
use satwatch_simcore::time::SECS_PER_DAY;
use satwatch_simcore::{Rng, SimDuration, SimTime};

/// One flow the customer will open. A day's intents all exist before
/// its first packet, so the struct is kept to 40 bytes.
#[derive(Clone, Debug)]
pub struct FlowIntent {
    /// Index of the customer in the population vector.
    pub customer_index: usize,
    /// Absolute start time.
    pub start: SimTime,
    pub service: ServiceId,
    /// The name the flow resolves and puts in SNI/Host: a catalog
    /// domain or one of its template's expansions
    /// ([`ServiceSpec::sample_domain`]), by its id in the catalog's one
    /// name table.
    pub domain: DomainId,
    pub protocol: FlowProtocol,
    pub down_bytes: u64,
    pub up_bytes: u64,
    /// Whether the client resolves the domain first (cache miss).
    pub needs_dns: bool,
    /// Resolver used for this flow's lookup.
    pub resolver: ResolverId,
}

/// Upper bound on flows a single service contributes per customer-day;
/// guards against pathological parameter combinations.
const MAX_FLOWS_PER_SERVICE_DAY: u64 = 30_000;

/// Probability a flow is preceded by a visible DNS lookup (the rest
/// hit device caches).
const DNS_LOOKUP_PROB: f64 = 0.3;

/// Generate all of one customer's flows for `day` (0-based).
pub fn generate_day(
    customer: &Customer,
    customer_index: usize,
    catalog: &[ServiceSpec],
    day: u64,
    rng: &mut Rng,
) -> Vec<FlowIntent> {
    let mut out = Vec::new();
    let day_start = SimTime::from_secs(day * SECS_PER_DAY);
    let tz = customer.country.tz_offset();
    let pool = if customer.per_flow_resolver { Some(ResolverChoice::for_country(customer.country)) } else { None };

    // --- background chatter: everyone, including idle second homes ---
    let background: Vec<&ServiceSpec> = catalog.iter().filter(|s| s.category == Category::Background).collect();
    if !background.is_empty() {
        let n = customer.archetype.background_flows_per_day(rng);
        for _ in 0..n {
            let svc = *rng.pick(&background);
            // background chatter is steady around the clock
            let t = day_start + SimDuration::from_secs(rng.below(SECS_PER_DAY) as i64);
            push_flow(&mut out, customer, customer_index, svc, t, 1.0, pool.as_ref(), rng);
        }
    }

    if customer.activity <= 0.0 {
        return sort_flows(out);
    }

    // Second homes come alive on weekends (day 5/6 of the week): the
    // family drives out and the CPE briefly behaves like a household.
    let weekend = matches!(day % 7, 5 | 6);
    let weekend_boost =
        if weekend && customer.archetype == crate::archetype::Archetype::SecondHome { 6.0 } else { 1.0 };

    // --- interactive services ---
    for svc in catalog.iter().filter(|s| s.category != Category::Background) {
        let adoption = customer.country.service_adoption(svc.name);
        if !rng.chance(adoption) {
            continue;
        }
        let factor = customer.country.category_volume_factor(svc.category);
        // The factor splits between more flows and bigger flows —
        // mostly *more* flows: African chat behind a shared AP means
        // many users exchanging media, inflating the Fig 5a flow-count
        // tail by much more than per-flow sizes grow.
        let count_scale = customer.activity * weekend_boost * factor.powf(0.7);
        let size_scale = factor.powf(0.3);
        let jitter = (-rng.f64_open().ln()).max(0.05); // day-to-day burstiness
        let n = ((svc.flows_per_day * count_scale * jitter).round() as u64).clamp(1, MAX_FLOWS_PER_SERVICE_DAY);
        for _ in 0..n {
            let local_hour = customer.diurnal.sample_hour(rng);
            let utc_hour = (local_hour as i64 - tz as i64).rem_euclid(24) as u64;
            let t = day_start + SimDuration::from_secs((utc_hour * 3600 + rng.below(3600)) as i64);
            push_flow(&mut out, customer, customer_index, svc, t, size_scale, pool.as_ref(), rng);
        }
    }

    // --- heavy-hitter days (Fig 5b/c tails) ---
    // A few customer-days are binges: bulk software downloads, video
    // marathons, cloud backups — and, in Africa, bursts of chat-media
    // uploads (the paper links upload heavy hitters to instant
    // messaging, §4). Those days put customers past 10 GB down / 1 GB up.
    let african = customer.country.is_african();
    let binge_prob = if customer.country == crate::country::Country::Congo { 0.07 } else { 0.05 };
    // light users (second homes) do not binge
    if customer.activity >= 0.3 && rng.chance(binge_prob) {
        use satwatch_simcore::dist::{LogNormal, Sample};
        let down_total = if african {
            LogNormal::from_median(6.5e9, 0.9).sample(rng)
        } else {
            LogNormal::from_median(4e9, 0.9).sample(rng)
        };
        let up_total = if african {
            LogNormal::from_median(1.2e9, 0.8).sample(rng)
        } else {
            LogNormal::from_median(0.4e9, 0.8).sample(rng)
        };
        // African binges are streaming/browsing marathons; European
        // ones skew to bulk software updates (which also keeps the
        // plain-HTTP share concentrated in Europe, Fig 3).
        let down_services: [&str; 3] = if african {
            ["GenericWeb", "Youtube", "GenericWeb"]
        } else {
            ["MicrosoftUpdate", "GenericWeb", "Youtube"]
        };
        let up_service = if african { "Whatsapp" } else { "Dropbox" };
        let n_down = rng.range_u64(8, 24) as usize;
        for i in 0..n_down {
            let name = down_services[i % down_services.len()];
            let Some(svc) = catalog.iter().find(|s| s.name == name) else { continue };
            let local_hour = customer.diurnal.sample_hour(rng);
            let utc_hour = (local_hour as i64 - tz as i64).rem_euclid(24) as u64;
            let t = day_start + SimDuration::from_secs((utc_hour * 3600 + rng.below(3600)) as i64);
            let share = down_total / n_down as f64 * rng.range_f64(0.5, 1.5);
            out.push(FlowIntent {
                customer_index,
                start: t,
                service: svc.id,
                domain: svc.sample_domain(rng),
                protocol: svc.protocol.sample(rng),
                down_bytes: share as u64,
                up_bytes: (share * 0.01) as u64 + 500,
                needs_dns: rng.chance(DNS_LOOKUP_PROB),
                resolver: customer.resolver,
            });
        }
        if let Some(svc) = catalog.iter().find(|s| s.name == up_service) {
            let n_up = rng.range_u64(5, 15) as usize;
            for _ in 0..n_up {
                let local_hour = customer.diurnal.sample_hour(rng);
                let utc_hour = (local_hour as i64 - tz as i64).rem_euclid(24) as u64;
                let t = day_start + SimDuration::from_secs((utc_hour * 3600 + rng.below(3600)) as i64);
                let share = up_total / n_up as f64 * rng.range_f64(0.5, 1.5);
                out.push(FlowIntent {
                    customer_index,
                    start: t,
                    service: svc.id,
                    domain: svc.sample_domain(rng),
                    protocol: svc.protocol.sample(rng),
                    down_bytes: (share * 0.05) as u64 + 1_000,
                    up_bytes: share as u64,
                    needs_dns: rng.chance(DNS_LOOKUP_PROB),
                    resolver: customer.resolver,
                });
            }
        }
    }
    sort_flows(out)
}

#[allow(clippy::too_many_arguments)]
fn push_flow(
    out: &mut Vec<FlowIntent>,
    customer: &Customer,
    customer_index: usize,
    svc: &ServiceSpec,
    start: SimTime,
    size_scale: f64,
    pool: Option<&ResolverChoice>,
    rng: &mut Rng,
) {
    let (down, up) = svc.flow_size.sample(rng);
    let resolver = if rng.chance(customer.operator_resolver_fallback) {
        ResolverId::OperatorEu
    } else if let Some(pool) = pool {
        pool.sample(rng)
    } else {
        customer.resolver
    };
    out.push(FlowIntent {
        customer_index,
        start,
        service: svc.id,
        domain: svc.sample_domain(rng),
        protocol: svc.protocol.sample(rng),
        down_bytes: ((down as f64) * size_scale) as u64,
        up_bytes: ((up as f64) * size_scale) as u64,
        needs_dns: rng.chance(DNS_LOOKUP_PROB),
        resolver,
    });
}

fn sort_flows(mut flows: Vec<FlowIntent>) -> Vec<FlowIntent> {
    flows.sort_by_key(|f| f.start);
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::standard_catalog;
    use crate::country::Country;
    use crate::population::build_population;
    use satwatch_simcore::SeedTree;

    fn one_day_flows(seed: u64) -> (crate::population::Population, Vec<Vec<FlowIntent>>) {
        let pop = build_population(600, &SeedTree::new(seed));
        let catalog = standard_catalog();
        let tree = SeedTree::new(seed ^ 0xabc);
        let flows: Vec<Vec<FlowIntent>> = pop
            .customers
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut rng = tree.rng_idx("day0", i as u64);
                generate_day(c, i, &catalog, 0, &mut rng)
            })
            .collect();
        (pop, flows)
    }

    #[test]
    fn flows_sorted_and_within_day() {
        let (_, all) = one_day_flows(1);
        for flows in &all {
            for w in flows.windows(2) {
                assert!(w[1].start >= w[0].start);
            }
            for f in flows {
                assert!(f.start < SimTime::from_secs(SECS_PER_DAY + 3600));
                assert!(f.down_bytes >= 100);
                assert!(f.up_bytes >= 100);
            }
        }
    }

    #[test]
    fn second_homes_are_light_users() {
        let (pop, all) = one_day_flows(2);
        let catalog = standard_catalog();
        let mut touched_interactive = 0;
        let mut homes = 0;
        for (c, flows) in pop.customers.iter().zip(&all) {
            if c.archetype == crate::archetype::Archetype::SecondHome {
                homes += 1;
                // mostly under the paper's 250-flow "active" threshold
                let n = flows.len();
                assert!(n < 450, "{n}");
                // but they still touch some interactive service most
                // days (the Fig 6 effect)
                if flows.iter().any(|f| catalog[f.service.0 as usize].category != Category::Background) {
                    touched_interactive += 1;
                }
                // and their volume stays tiny vs a household
                let vol: u64 = flows.iter().map(|f| f.down_bytes + f.up_bytes).sum();
                assert!(vol < 3_000_000_000, "{vol}");
            }
        }
        assert!(homes > 10);
        assert!(touched_interactive as f64 / homes as f64 > 0.8);
    }

    #[test]
    fn fig5a_knee_europe_vs_africa_tail() {
        let (pop, all) = one_day_flows(3);
        let counts = |country: Country| -> Vec<usize> {
            let mut v: Vec<usize> =
                pop.customers.iter().zip(&all).filter(|(c, _)| c.country == country).map(|(_, f)| f.len()).collect();
            v.sort_unstable();
            v
        };
        let es = counts(Country::Spain);
        let cd = counts(Country::Congo);
        // Europe: a large fraction below 250 flows (the idle knee)
        let es_low = es.iter().filter(|&&n| n < 250).count() as f64 / es.len() as f64;
        assert!(es_low > 0.35, "{es_low}");
        // Africa: no such knee
        let cd_low = cd.iter().filter(|&&n| n < 250).count() as f64 / cd.len() as f64;
        assert!(cd_low < 0.25, "{cd_low}");
        // African tail is several times the European tail
        let tail = |v: &[usize]| v[v.len() * 97 / 100];
        assert!(tail(&cd) > 4 * tail(&es), "cd {} vs es {}", tail(&cd), tail(&es));
    }

    #[test]
    fn fig7_chat_volumes_congo_vs_europe() {
        let (pop, all) = one_day_flows(4);
        let catalog = standard_catalog();
        let chat_volumes = |country: Country| -> Vec<f64> {
            let mut v: Vec<f64> = pop
                .customers
                .iter()
                .zip(&all)
                .filter(|(c, _)| c.country == country && c.activity > 0.0)
                .filter_map(|(_, flows)| {
                    let chat: Vec<u64> = flows
                        .iter()
                        .filter(|f| catalog[f.service.0 as usize].category == Category::Chat)
                        .map(|f| f.down_bytes + f.up_bytes)
                        .collect();
                    (!chat.is_empty()).then(|| chat.iter().sum::<u64>() as f64 / 1e6)
                })
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v
        };
        let cd = chat_volumes(Country::Congo);
        let es = chat_volumes(Country::Spain);
        assert!(!cd.is_empty() && !es.is_empty());
        let med = |v: &[f64]| v[v.len() / 2];
        // Congo chat median tens of times Europe's (paper: 250 MB vs <10 MB)
        assert!(med(&cd) > 10.0 * med(&es), "cd {} es {}", med(&cd), med(&es));
        assert!(med(&es) < 30.0, "EU chat median small, got {}", med(&es));
        // heavy AP tail beyond 1 GB
        assert!(cd[cd.len() * 95 / 100] > 1000.0, "p95 {}", cd[cd.len() * 95 / 100]);
    }

    #[test]
    fn upload_heavier_in_africa() {
        let (pop, all) = one_day_flows(5);
        let up_volume = |country: Country| -> Vec<f64> {
            let mut v: Vec<f64> = pop
                .customers
                .iter()
                .zip(&all)
                .filter(|(c, _)| c.country == country && c.activity > 0.0)
                .map(|(_, flows)| flows.iter().map(|f| f.up_bytes).sum::<u64>() as f64 / 1e9)
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v
        };
        let cd = up_volume(Country::Congo);
        let uk = up_volume(Country::Uk);
        let heavy = |v: &[f64]| v.iter().filter(|&&g| g > 1.0).count() as f64 / v.len() as f64;
        assert!(heavy(&cd) > heavy(&uk), "cd {} uk {}", heavy(&cd), heavy(&uk));
        assert!(heavy(&cd) > 0.03, "{}", heavy(&cd));
    }

    #[test]
    fn second_homes_wake_up_on_weekends() {
        let pop = build_population(600, &SeedTree::new(21));
        let catalog = standard_catalog();
        let tree = SeedTree::new(0xfeed);
        let mut weekday_flows = 0usize;
        let mut weekend_flows = 0usize;
        let mut homes = 0;
        for (i, c) in pop.customers.iter().enumerate() {
            if c.archetype != crate::archetype::Archetype::SecondHome {
                continue;
            }
            homes += 1;
            let mut rng = tree.rng_idx("wk", i as u64);
            weekday_flows += generate_day(c, i, &catalog, 2, &mut rng).len(); // Wednesday-ish
            let mut rng = tree.rng_idx("we", i as u64);
            weekend_flows += generate_day(c, i, &catalog, 5, &mut rng).len(); // Saturday
        }
        assert!(homes > 50);
        assert!(
            weekend_flows as f64 > 1.5 * weekday_flows as f64,
            "weekend {weekend_flows} vs weekday {weekday_flows}"
        );
    }

    #[test]
    fn dns_lookup_fraction_sane() {
        let (_, all) = one_day_flows(6);
        let flows: Vec<&FlowIntent> = all.iter().flatten().collect();
        let with_dns = flows.iter().filter(|f| f.needs_dns).count() as f64 / flows.len() as f64;
        assert!((with_dns - DNS_LOOKUP_PROB).abs() < 0.05, "{with_dns}");
    }

    #[test]
    fn deterministic_generation() {
        let (_, a) = one_day_flows(7);
        let (_, b) = one_day_flows(7);
        let fa: Vec<_> = a.iter().flatten().map(|f| (f.start, f.domain.name(), f.down_bytes)).collect();
        let fb: Vec<_> = b.iter().flatten().map(|f| (f.start, f.domain.name(), f.down_bytes)).collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn diurnal_shape_visible_in_start_times() {
        let (pop, all) = one_day_flows(8);
        // Spain: evening (17-21 UTC ~ 18-22 local) must far exceed night
        // count only interactive flows: background chatter is
        // deliberately uniform around the clock
        let catalog = standard_catalog();
        let mut by_hour = [0u32; 24];
        for (c, flows) in pop.customers.iter().zip(&all) {
            if c.country == Country::Spain {
                for f in flows {
                    if catalog[f.service.0 as usize].category != Category::Background {
                        by_hour[f.start.hour_of_day() as usize] += 1;
                    }
                }
            }
        }
        let evening: u32 = (17..=20).map(|h| by_hour[h]).sum();
        let night: u32 = (1..=4).map(|h| by_hour[h]).sum();
        assert!(evening > 2 * night, "evening {evening} night {night}");
    }
}
