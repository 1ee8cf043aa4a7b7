//! Scenario configuration, including the paper's what-if knobs.

/// Configuration for one end-to-end simulation run: *what* is
/// simulated, nothing about how. Every field changes the dataset, and
/// the campaign manifest's `config_hash` covers every field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScenarioConfig {
    /// Root seed: identical seeds produce bit-identical datasets.
    pub seed: u64,
    /// Number of CPEs across all countries.
    pub customers: u32,
    /// Days simulated (the paper observes Feb–Apr 2022; we scale down).
    pub days: u64,
    /// A3 ablation: disable the split-TCP PEP (connections run
    /// end-to-end over the 550 ms path).
    pub pep_enabled: bool,
    /// A1 ablation: add an African ground station so African-origin
    /// traffic to African/Chinese services avoids the Italy detour
    /// (the optimisation the operator is evaluating, §6.2).
    pub african_ground_station: bool,
    /// A2 ablation: force every customer onto the operator resolver
    /// (the §6.4 mitigation).
    pub force_operator_dns: bool,
}

impl ScenarioConfig {
    /// Tiny run for unit/integration tests (seconds).
    pub fn tiny() -> ScenarioConfig {
        ScenarioConfig {
            seed: 0xbead_cafe,
            customers: 60,
            days: 1,
            pep_enabled: true,
            african_ground_station: false,
            force_operator_dns: false,
        }
    }

    /// Small run for quick experiments.
    pub fn small() -> ScenarioConfig {
        ScenarioConfig { customers: 250, ..ScenarioConfig::tiny() }
    }

    /// The standard run used to regenerate the paper's figures.
    pub fn standard() -> ScenarioConfig {
        ScenarioConfig { customers: 700, days: 2, ..ScenarioConfig::tiny() }
    }

    pub fn with_seed(mut self, seed: u64) -> ScenarioConfig {
        self.seed = seed;
        self
    }

    pub fn with_customers(mut self, customers: u32) -> ScenarioConfig {
        self.customers = customers;
        self
    }

    pub fn with_days(mut self, days: u64) -> ScenarioConfig {
        self.days = days;
        self
    }

    pub fn without_pep(mut self) -> ScenarioConfig {
        self.pep_enabled = false;
        self
    }

    pub fn with_african_ground_station(mut self) -> ScenarioConfig {
        self.african_ground_station = true;
        self
    }

    pub fn with_forced_operator_dns(mut self) -> ScenarioConfig {
        self.force_operator_dns = true;
        self
    }

    /// No-op: the packet path is single-threaded (DESIGN.md §7). Kept
    /// because `benchmark/` calls it.
    pub fn with_threads(self, _threads: usize) -> ScenarioConfig {
        self
    }

    /// No-op, kept for the same caller as
    /// [`with_threads`](Self::with_threads): there is one inline probe.
    pub fn with_probe_shards(self, _shards: usize) -> ScenarioConfig {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = ScenarioConfig::tiny()
            .with_seed(1)
            .with_customers(10)
            .with_days(3)
            .without_pep()
            .with_african_ground_station()
            .with_forced_operator_dns();
        assert_eq!(c.seed, 1);
        assert_eq!(c.customers, 10);
        assert_eq!(c.days, 3);
        assert!(!c.pep_enabled);
        assert!(c.african_ground_station);
        assert!(c.force_operator_dns);
    }

    #[test]
    fn presets_scale() {
        assert!(ScenarioConfig::tiny().customers < ScenarioConfig::small().customers);
        assert!(ScenarioConfig::small().customers < ScenarioConfig::standard().customers);
    }
}
