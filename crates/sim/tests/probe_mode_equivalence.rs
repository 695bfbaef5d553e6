//! Integration pins for `--probe-mode`: with per-node probe RNG streams, a
//! lazy run is **bit-identical** to an eager run —
//! same payoffs, same paths, same attack metrics — with and without
//! neighbor replacement, and replicated results are identical at any
//! thread count.

use idpa_sim::experiments::Options;
use idpa_sim::{ProbeMode, ScenarioConfig};

mod common;
use common::{base, fingerprint, run};

#[test]
fn lazy_run_is_bit_identical_to_eager_run() {
    for seed in [1u64, 7, 42] {
        for replacement in [None, Some(3)] {
            let eager = run(ScenarioConfig {
                probe_mode: ProbeMode::Eager,
                ..base(seed, replacement)
            });
            let lazy = run(ScenarioConfig {
                probe_mode: ProbeMode::Lazy,
                ..base(seed, replacement)
            });
            assert_eq!(
                fingerprint(&eager),
                fingerprint(&lazy),
                "seed {seed} replacement {replacement:?}: lazy diverged from eager"
            );
            assert_eq!(eager, lazy);
        }
    }
}

#[test]
fn replication_is_thread_invariant_in_both_probe_modes() {
    for mode in [ProbeMode::Eager, ProbeMode::Lazy] {
        let results: Vec<u64> = [1usize, 2, 8]
            .into_iter()
            .map(|threads| {
                let opts = Options {
                    reps: 4,
                    quick: true,
                    threads,
                    probe_mode: mode,
                    ..Options::default()
                };
                let runs = idpa_sim::experiments::replicate_base(&opts);
                runs.iter()
                    .map(fingerprint)
                    .fold(0u64, |acc, f| acc ^ f.rotate_left(17))
            })
            .collect();
        assert_eq!(results[0], results[1], "{mode:?}: 1 vs 2 threads");
        assert_eq!(results[0], results[2], "{mode:?}: 1 vs 8 threads");
    }
}
