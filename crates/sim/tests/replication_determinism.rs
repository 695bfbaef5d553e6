//! Replication fan-out determinism: mapping `SimulationRun::execute` over
//! replication seeds with [`idpa_desim::pool::parallel_map`] must be
//! bit-identical at any worker count — the pool only changes which thread
//! computes each replication, never what is computed.

use idpa_desim::pool::parallel_map;
use idpa_sim::{RunResult, ScenarioConfig, SimulationRun};

mod common;
use common::fingerprint;

const REPS: usize = 6;

fn replicate(threads: usize) -> Vec<RunResult> {
    parallel_map(threads, REPS, |rep| {
        SimulationRun::execute(ScenarioConfig::quick_test(0xD5E1 + rep as u64))
    })
}

/// One [`fingerprint`] per replication, in replication order.
fn fingerprints(results: &[RunResult]) -> Vec<u64> {
    results.iter().map(fingerprint).collect()
}

#[test]
fn replication_results_bit_identical_across_pool_sizes() {
    let baseline = fingerprints(&replicate(1));
    assert!(!baseline.is_empty());
    for threads in [2, 8] {
        assert_eq!(
            fingerprints(&replicate(threads)),
            baseline,
            "replication results diverged at {threads} worker threads"
        );
    }
}
