//! The four workloads: which scenarios each pass runs, and with which seeds.
//!
//! Every knob that would otherwise resolve from the host is pinned here, so
//! digests and timings do not depend on `nproc` or `IDPA_THREADS`.

use idpa_desim::FaultResponse;
use idpa_sim::experiments::{model_one, model_two};
use idpa_sim::{
    BankDurability, CostStorage, NodeLifecycle, ScenarioConfig, SettlementMode, WorkloadMode,
};

/// History-arena shard count of every workload. The simulator's default `0`
/// resolves from `IDPA_THREADS` or the host's core count; results are equal
/// at every shard count, but the storage layout and its timing are not.
pub const HISTORY_SHARDS: usize = 2;

/// Simulated minutes between checkpoints in `service_open` (two hours).
pub const CHECKPOINT_EVERY: f64 = 120.0;

/// The adversary fractions of the paper's Figs. 3–4 sweep.
pub const F_SWEEP: [f64; 10] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// Replication seeds per sweep point in `paper_sweep`.
pub const SWEEP_REPS: u64 = 5;

/// The benchmark's default `--seed`; the committed digests are for it.
pub const DEFAULT_SEED: u64 = 1;

/// One simulation run of a pass.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Stable label, used to match committed digests.
    pub label: String,
    /// The fully pinned scenario.
    pub cfg: ScenarioConfig,
    /// Checkpoint cadence in simulated minutes (`None`: run straight to the
    /// horizon, as `SimulationRun::execute` does).
    pub checkpoint_every: Option<f64>,
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figs. 3–4 sweep at §3 scale: 100 small closed runs.
    PaperSweep,
    /// One crash-safe open service run at N = 10⁴ with every layer on.
    ServiceOpen,
    /// One closed fault-matrix run at N = 2000 with neighbour maintenance
    /// and per-bundle settlement through the WAL.
    FaultClosed,
    /// The million-node lazy scenario, dominated by set-up.
    Scale1m,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::ServiceOpen,
        Workload::FaultClosed,
        Workload::Scale1m,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::ServiceOpen => "service_open",
            Workload::FaultClosed => "fault_closed",
            Workload::Scale1m => "scale_1m",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The runs of one pass, derived from the benchmark seed. The same seed
    /// always gives the same runs.
    #[must_use]
    pub fn runs(self, seed: u64) -> Vec<RunSpec> {
        match self {
            Workload::PaperSweep => paper_sweep(seed),
            Workload::ServiceOpen => vec![RunSpec {
                label: "service".into(),
                cfg: service_open(derive_seed(seed, 100)),
                checkpoint_every: Some(CHECKPOINT_EVERY),
            }],
            Workload::FaultClosed => vec![RunSpec {
                label: "fault".into(),
                cfg: fault_closed(derive_seed(seed, 200)),
                checkpoint_every: None,
            }],
            Workload::Scale1m => vec![RunSpec {
                label: "scale".into(),
                cfg: ScenarioConfig {
                    history_shards: HISTORY_SHARDS,
                    ..ScenarioConfig::scale_1m(derive_seed(seed, 300))
                },
                checkpoint_every: None,
            }],
        }
    }
}

/// SplitMix64 finaliser.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The scenario seed of `stream` under benchmark seed `seed`.
#[must_use]
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream))
}

/// Model I and Model II (lookahead 2) over the ten `f` values, each with
/// the same [`SWEEP_REPS`] replication seeds, as `experiments::fig_payoff_vs_f`
/// does.
fn paper_sweep(seed: u64) -> Vec<RunSpec> {
    let mut runs = Vec::new();
    for (model, strategy) in [("m1", model_one()), ("m2", model_two())] {
        for f in F_SWEEP {
            for rep in 0..SWEEP_REPS {
                runs.push(RunSpec {
                    label: format!("{model}/f{f:.1}/r{rep}"),
                    cfg: ScenarioConfig {
                        adversary_fraction: f,
                        good_strategy: strategy,
                        history_shards: HISTORY_SHARDS,
                        seed: derive_seed(seed, rep),
                        ..ScenarioConfig::default()
                    },
                    checkpoint_every: None,
                });
            }
        }
    }
    runs
}

/// Proportional churn at `n` nodes, as [`ScenarioConfig::scale`] sets it.
fn with_scaled_churn(mut cfg: ScenarioConfig, n: usize) -> ScenarioConfig {
    cfg = cfg.with_nodes(n);
    cfg.churn.join_rate = n as f64 / 20.0;
    cfg
}

/// The crash-safe service at N = 10⁴: open Poisson arrivals over 24
/// simulated hours, faults with adaptive response, epoch settlement
/// through the WAL with bank crashes, whitewashers and forging cliques.
#[must_use]
pub fn service_open(seed: u64) -> ScenarioConfig {
    let mut cfg = with_scaled_churn(
        ScenarioConfig {
            n_pairs: 256,
            // Unused by the open scheduler; must stay nonzero to validate.
            total_transmissions: 256,
            max_connections: 256,
            adversary_fraction: 0.2,
            node_lifecycle: NodeLifecycle::Lazy,
            cost_storage: CostStorage::Sparse,
            workload: WorkloadMode::Open,
            open_arrival_rate: 0.05,
            weights: (0.4, 0.4),
            reputation_weight: 0.2,
            settlement: SettlementMode::Epoch,
            epoch_length: 240.0,
            bank_durability: BankDurability::Wal,
            window_len: 240.0,
            window_warmup: 0.0,
            history_shards: HISTORY_SHARDS,
            seed,
            ..ScenarioConfig::default()
        },
        10_000,
    );
    cfg.churn.horizon = 24.0 * 60.0;
    cfg.fault.crash_rate = 0.03;
    cfg.fault.drop_rate = 0.05;
    cfg.fault.cheat_fraction = 0.10;
    cfg.fault.bank_crash_rate = 0.01;
    cfg.fault.response = FaultResponse::Adaptive;
    cfg.adversary.whitewash_fraction = 0.02;
    cfg.adversary.whitewash_age_discount = true;
    cfg.adversary.clique_count = 4;
    cfg.adversary.clique_forge_rate = 0.5;
    cfg.adversary.clique_cross_check = true;
    cfg
}

/// The fault-matrix path at N = 2000: closed transmissions, neighbour
/// replacement, static response, per-bundle settlement through the WAL.
#[must_use]
pub fn fault_closed(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig {
        n_pairs: 256,
        total_transmissions: 16_000,
        max_connections: 256,
        adversary_fraction: 0.2,
        neighbor_replacement_rounds: Some(3),
        settlement: SettlementMode::PerBundle,
        bank_durability: BankDurability::Wal,
        history_shards: HISTORY_SHARDS,
        seed,
        ..ScenarioConfig::default()
    }
    .with_nodes(2000);
    cfg.fault.crash_rate = 0.05;
    cfg.fault.drop_rate = 0.10;
    cfg.fault.cheat_fraction = 0.40;
    cfg.fault.bank_downtime = 0.10;
    cfg.fault.response = FaultResponse::Static;
    cfg
}

/// Whether `cfg` is a fault-free closed run, on which every scheduled
/// transmission must form a connection.
#[must_use]
pub fn is_fault_free_closed(cfg: &ScenarioConfig) -> bool {
    cfg.workload == WorkloadMode::Closed
        && !cfg.fault.is_active()
        && !cfg.adversary.is_active()
        && cfg.bank_durability == BankDurability::Off
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_validates_and_pins_shards() {
        for w in Workload::ALL {
            for spec in w.runs(DEFAULT_SEED) {
                spec.cfg.validate().expect("workload config must validate");
                assert_eq!(spec.cfg.history_shards, HISTORY_SHARDS);
            }
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn paper_sweep_has_one_hundred_runs_and_shared_seeds() {
        let runs = Workload::PaperSweep.runs(7);
        assert_eq!(runs.len(), 100);
        let seeds: std::collections::BTreeSet<u64> = runs.iter().map(|r| r.cfg.seed).collect();
        assert_eq!(seeds.len(), SWEEP_REPS as usize);
        assert!(runs.iter().all(|r| is_fault_free_closed(&r.cfg)));
    }

    #[test]
    fn seeds_change_inputs() {
        let a = Workload::ServiceOpen.runs(1);
        let b = Workload::ServiceOpen.runs(2);
        assert_ne!(a[0].cfg.seed, b[0].cfg.seed);
        assert_eq!(Workload::ServiceOpen.runs(1)[0].cfg, a[0].cfg);
    }
}
