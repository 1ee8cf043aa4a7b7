//! Scenario configuration, including the paper's what-if knobs.

/// Configuration for one end-to-end simulation run.
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
    /// Worker threads for the parallel stages (intent generation,
    /// analytics). `1` = serial, `0` = one per core. Any value
    /// produces bit-identical output — parallelism only changes wall
    /// time (see DESIGN.md "Parallelism & determinism").
    pub threads: usize,
    /// Probe shards: the span-port stream is partitioned by host pair
    /// across this many probe worker threads. `1` = the classic
    /// inline probe, `0` = one per core. Output is byte-identical at
    /// any shard count.
    pub probe_shards: usize,
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
            threads: 1,
            probe_shards: 1,
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

    /// Worker threads for parallel stages (`0` = one per core).
    pub fn with_threads(mut self, threads: usize) -> ScenarioConfig {
        self.threads = threads;
        self
    }

    /// Probe shard count (`0` = one per core).
    pub fn with_probe_shards(mut self, shards: usize) -> ScenarioConfig {
        self.probe_shards = shards;
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
            .with_forced_operator_dns()
            .with_threads(4)
            .with_probe_shards(2);
        assert_eq!(c.seed, 1);
        assert_eq!(c.customers, 10);
        assert_eq!(c.days, 3);
        assert!(!c.pep_enabled);
        assert!(c.african_ground_station);
        assert!(c.force_operator_dns);
        assert_eq!(c.threads, 4);
        assert_eq!(c.probe_shards, 2);
    }

    #[test]
    fn presets_default_to_serial() {
        let c = ScenarioConfig::tiny();
        assert_eq!(c.threads, 1);
        assert_eq!(c.probe_shards, 1);
    }

    #[test]
    fn presets_scale() {
        assert!(ScenarioConfig::tiny().customers < ScenarioConfig::small().customers);
        assert!(ScenarioConfig::small().customers < ScenarioConfig::standard().customers);
    }
}
