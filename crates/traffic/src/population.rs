//! Population builder: turns the country calibration into a concrete
//! set of customers with terminals, beams, archetypes and behaviour.

use crate::archetype::Archetype;
use crate::country::Country;
use crate::diurnal::DiurnalProfile;
use crate::dnschoice::ResolverChoice;
use satwatch_internet::ResolverId;
use satwatch_satcom::beam::{Beam, BeamId};
use satwatch_satcom::geo::places;
use satwatch_satcom::{CustomerId, GroundStation, Terminal};
use satwatch_simcore::dist::Categorical;
use satwatch_simcore::{BitRate, SeedTree, SimDuration};

/// One customer: terminal + behavioural profile.
#[derive(Clone, Debug)]
pub struct Customer {
    pub terminal: Terminal,
    pub country: Country,
    pub archetype: Archetype,
    /// End users behind the CPE (0 for idle second homes).
    pub users: u32,
    pub activity: f64,
    pub diurnal: DiurnalProfile,
    pub resolver: ResolverId,
    /// Fraction of this customer's queries that still use the
    /// operator resolver (devices often mix).
    pub operator_resolver_fallback: f64,
    /// Shared CPEs (APs, cafés, business sites) host many end users
    /// with heterogeneous DNS settings: their resolver varies per flow
    /// instead of being fixed per customer.
    pub per_flow_resolver: bool,
}

/// The full population plus the beam plan.
#[derive(Clone, Debug)]
pub struct Population {
    pub customers: Vec<Customer>,
    pub beams: Vec<Beam>,
}

/// Build a population of roughly `target_customers` CPEs distributed
/// over the calibrated country shares.
pub fn build_population(target_customers: u32, seeds: &SeedTree) -> Population {
    let mut beams = Vec::new();
    let mut customers = Vec::new();
    let slot = places::SATELLITE;
    let mut next_customer: u32 = 0;
    let gs = GroundStation::italy_default();

    for country in Country::ALL {
        let mut rng = seeds.rng_idx("population", country as u64);
        let profile = country.beam_profile();
        // create this country's beams
        let first_beam = beams.len() as u16;
        let geo_impairment = slot.impairment(country.location());
        for b in 0..profile.beams {
            beams.push(Beam {
                id: BeamId(first_beam + b),
                name: format!("{}-{}", country.code().to_lowercase(), b),
                country: country.code(),
                down_capacity: BitRate::from_gbps(2),
                up_capacity: BitRate::from_mbps(600),
                peak_utilization: (profile.peak_util + rng.range_f64(-0.03, 0.03)).clamp(0.05, 0.97),
                night_utilization: (profile.night_util + rng.range_f64(-0.03, 0.03)).clamp(0.02, 0.9),
                pep_provisioning: profile.pep_provisioning,
                impairment: (geo_impairment + profile.extra_impairment).min(0.95),
            });
        }
        let n = ((target_customers as f64) * country.customer_share()).round().max(1.0) as u32;
        let arch_weights = Categorical::new(&Archetype::weights_for(country));
        let plans = country.plan_weights();
        let plan_dist = Categorical::new(&plans.map(|(_, w)| w));
        let resolver_choice = ResolverChoice::for_country(country);
        for _ in 0..n {
            let mut crng = seeds.rng_idx("customer", u64::from(next_customer));
            let archetype = Archetype::ALL[arch_weights.sample_index(&mut crng)];
            let users = archetype.sample_user_count(&mut crng);
            let beam = BeamId(first_beam + crng.below(u64::from(profile.beams)) as u16);
            let plan = plans[plan_dist.sample_index(&mut crng)].0;
            // jitter the location a little within the country
            let base = country.location();
            let loc = satwatch_satcom::LatLon::new(
                base.lat_deg + crng.range_f64(-1.5, 1.5),
                base.lon_deg + crng.range_f64(-1.5, 1.5),
            );
            let customer = CustomerId(next_customer);
            customers.push(Customer {
                terminal: Terminal {
                    customer,
                    address: gs.customer_address(next_customer),
                    country: country.code(),
                    location: loc,
                    beam,
                    plan,
                    home_rtt: SimDuration::from_millis_f64(crng.range_f64(1.5, 6.0)),
                },
                country,
                archetype,
                users,
                activity: archetype.activity_factor(users) * crng.range_f64(0.6, 1.6),
                diurnal: DiurnalProfile::new(country, archetype),
                resolver: resolver_choice.sample(&mut crng),
                operator_resolver_fallback: crng.range_f64(0.0, 0.02),
                per_flow_resolver: matches!(
                    archetype,
                    Archetype::CommunityAp | Archetype::InternetCafe | Archetype::Business
                ),
            });
            next_customer += 1;
        }
    }
    Population { customers, beams }
}

impl Population {
    pub fn beam(&self, id: BeamId) -> &Beam {
        &self.beams[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop() -> Population {
        build_population(2000, &SeedTree::new(42))
    }

    fn of(p: &Population, country: Country) -> impl Iterator<Item = &Customer> {
        p.customers.iter().filter(move |c| c.country == country)
    }

    #[test]
    fn country_shares_respected() {
        let p = pop();
        let total = p.customers.len() as f64;
        let congo = of(&p, Country::Congo).count() as f64;
        let spain = of(&p, Country::Spain).count() as f64;
        assert!((congo / total - 0.20).abs() < 0.01, "{}", congo / total);
        assert!((spain / total - 0.16).abs() < 0.01);
    }

    #[test]
    fn beams_assigned_within_country() {
        let p = pop();
        for c in &p.customers {
            let beam = p.beam(c.terminal.beam);
            assert_eq!(beam.country, c.country.code(), "beam of {:?}", c.terminal.customer);
        }
    }

    #[test]
    fn beam_ids_are_indexes() {
        let p = pop();
        for (i, b) in p.beams.iter().enumerate() {
            assert_eq!(b.id.0 as usize, i);
        }
        // Congo has 3 beams, Ireland 1
        assert_eq!(p.beams.iter().filter(|b| b.country == "CD").count(), 3);
        assert_eq!(p.beams.iter().filter(|b| b.country == "IE").count(), 1);
    }

    #[test]
    fn addresses_unique() {
        let p = pop();
        let mut seen = std::collections::HashSet::new();
        for c in &p.customers {
            assert!(seen.insert(c.terminal.address));
        }
    }

    #[test]
    fn reproducible_build() {
        let a = build_population(500, &SeedTree::new(7));
        let b = build_population(500, &SeedTree::new(7));
        assert_eq!(a.customers.len(), b.customers.len());
        for (x, y) in a.customers.iter().zip(&b.customers) {
            assert_eq!(x.terminal.address, y.terminal.address);
            assert_eq!(x.archetype, y.archetype);
            assert_eq!(x.resolver, y.resolver);
            assert!((x.activity - y.activity).abs() < 1e-12);
        }
    }

    #[test]
    fn europe_has_idle_second_homes() {
        let p = pop();
        let idle_es = of(&p, Country::Spain).filter(|c| c.archetype == Archetype::SecondHome).count() as f64;
        let es_total = of(&p, Country::Spain).count() as f64;
        assert!(idle_es / es_total > 0.35, "{}", idle_es / es_total);
        let idle_cd = of(&p, Country::Congo).filter(|c| c.archetype == Archetype::SecondHome).count() as f64;
        let cd_total = of(&p, Country::Congo).count() as f64;
        assert!(idle_cd / cd_total < 0.06);
    }

    #[test]
    fn ireland_beam_impaired_congo_congested() {
        let p = pop();
        let ie = p.beams.iter().find(|b| b.country == "IE").unwrap();
        assert!(ie.impairment > 0.4, "{}", ie.impairment);
        let cd = p.beams.iter().find(|b| b.country == "CD").unwrap();
        assert!(cd.peak_utilization > 0.88);
        assert!(cd.pep_provisioning < 0.5);
        let es = p.beams.iter().find(|b| b.country == "ES").unwrap();
        assert!(es.impairment < 0.25, "{}", es.impairment);
    }

    #[test]
    fn african_plans_slower() {
        let p = pop();
        let mean_plan = |country: Country| {
            let v: Vec<f64> = of(&p, country).map(|c| c.terminal.plan.down().as_mbps()).collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(mean_plan(Country::Congo) < 0.5 * mean_plan(Country::Uk));
    }
}
