//! Cross-shard equivalence property suite (PR 4).
//!
//! Drives the sharded [`HistoryArena`] and the flat
//! `Vec<HistoryProfile>` oracle through the same randomized schedule of
//! interleaved bundle commits — mixing full-path commits, dropped-
//! confirmation *suffix* commits (the fault layer commits only the hops
//! after the last confirmed position), and both arena write modes
//! (`exclusive` and `lock_path`) — then asserts that every selectivity
//! index the router could consult agrees **bit-for-bit** across:
//!
//! * the oracle profiles,
//! * the arena's zero-lock `exclusive()` view,
//! * the arena's shared `read()` view, and
//! * per-bundle [`BundleMirror`]s fed the same records.
//!
//! 256 seeded cases randomize node count, shard count (including counts
//! above `n_nodes`, exercising the clamp), bounded/unbounded history
//! capacity, bundle count, path shapes, and commit interleaving. A final
//! test commits disjoint bundles from concurrent threads via
//! `lock_path` and checks the result matches a sequential replay.

use idpa_core::bundle::BundleId;
use idpa_core::history::{HistoryProfile, HistoryRead, HistoryWrite};
use idpa_core::{BundleMirror, HistoryArena};
use idpa_desim::rng::Xoshiro256StarStar;
use idpa_overlay::NodeId;
use rand::RngExt;

/// One committed connection: bundle, connection index, and the hop
/// records `(node, predecessor, successor)` actually applied (already
/// suffix-trimmed when the case simulates a dropped confirmation).
struct Commit {
    bundle: usize,
    connection: u32,
    hops: Vec<(NodeId, NodeId, NodeId)>,
}

/// Samples a random hop chain and trims it to a suffix with probability
/// ~1/4, mirroring `PendingConnection::commit_suffix` semantics.
fn sample_commit(
    rng: &mut Xoshiro256StarStar,
    n_nodes: usize,
    bundle: usize,
    connection: u32,
) -> Commit {
    let len = rng.random_range(2..6usize);
    let chain: Vec<NodeId> = (0..len)
        .map(|_| NodeId(rng.random_range(0..n_nodes)))
        .collect();
    let mut hops: Vec<(NodeId, NodeId, NodeId)> = Vec::new();
    for i in 1..len.saturating_sub(1) {
        hops.push((chain[i], chain[i - 1], chain[i + 1]));
    }
    if !hops.is_empty() && rng.random_range(0..4u32) == 0 {
        let start = rng.random_range(0..=hops.len());
        hops.drain(..start);
    }
    Commit {
        bundle,
        connection,
        hops,
    }
}

fn apply<H: HistoryWrite + ?Sized>(h: &mut H, commit: &Commit) {
    for &(node, pred, succ) in &commit.hops {
        h.record_hop(
            node,
            BundleId(commit.bundle as u64),
            commit.connection,
            pred,
            succ,
        );
    }
}

/// Asserts every selectivity the router could ask for is bit-equal
/// between the oracle and a [`HistoryRead`] implementation.
fn assert_reads_agree<H: HistoryRead + ?Sized>(
    oracle: &[HistoryProfile],
    got: &H,
    n_nodes: usize,
    n_bundles: usize,
    priors_by_bundle: &[u32],
    label: &str,
) {
    for s in 0..n_nodes {
        for (b, &bundle_priors) in priors_by_bundle.iter().enumerate().take(n_bundles) {
            let bundle = BundleId(b as u64);
            for priors in [0, bundle_priors, bundle_priors + 3] {
                for v in 0..n_nodes {
                    let (s, v) = (NodeId(s), NodeId(v));
                    let want = oracle.selectivity_at(s, bundle, priors, v);
                    let have = got.selectivity_at(s, bundle, priors, v);
                    assert_eq!(
                        want.to_bits(),
                        have.to_bits(),
                        "{label}: selectivity({s:?}, {bundle:?}, {priors}, {v:?}) \
                         expected {want} got {have}"
                    );
                    let pred = NodeId(v.index().wrapping_mul(7) % n_nodes);
                    let want = oracle.selectivity_from_at(s, bundle, priors, pred, v);
                    let have = got.selectivity_from_at(s, bundle, priors, pred, v);
                    assert_eq!(
                        want.to_bits(),
                        have.to_bits(),
                        "{label}: selectivity_from({s:?}, {bundle:?}, {priors}, {pred:?}, {v:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn randomized_interleaved_commits_agree_across_all_views() {
    const CASES: u64 = 256;
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x5eed_0000 ^ case);
        let n_nodes = rng.random_range(3..24usize);
        // Deliberately allow shard counts above n_nodes: the arena clamps.
        let shards = rng.random_range(1..n_nodes + 6);
        let capacity = if rng.random_range(0..2u32) == 0 {
            None
        } else {
            Some(rng.random_range(1..5usize))
        };
        let n_bundles = rng.random_range(1..4usize);

        let mut oracle: Vec<HistoryProfile> = (0..n_nodes)
            .map(|i| match capacity {
                Some(cap) => HistoryProfile::with_capacity(NodeId(i), cap),
                None => HistoryProfile::new(NodeId(i)),
            })
            .collect();
        let mut arena = HistoryArena::with_capacity(n_nodes, shards, capacity);
        let mut mirrors: Vec<BundleMirror> = (0..n_bundles)
            .map(|b| BundleMirror::new(BundleId(b as u64), capacity))
            .collect();

        let mut next_conn = vec![0u32; n_bundles];
        let steps = rng.random_range(6..32usize);
        for _ in 0..steps {
            let b = rng.random_range(0..n_bundles);
            let conn = next_conn[b];
            next_conn[b] += 1;
            let commit = sample_commit(&mut rng, n_nodes, b, conn);

            apply(&mut oracle, &commit);
            apply(&mut mirrors[b], &commit);
            if rng.random_range(0..2u32) == 0 {
                apply(&mut arena.exclusive(), &commit);
            } else {
                let mut guards = arena.lock_path(commit.hops.iter().map(|&(n, _, _)| n));
                apply(&mut guards, &commit);
            }
        }

        let label = format!("case {case} (n={n_nodes} shards={shards} cap={capacity:?})");
        assert_reads_agree(
            &oracle,
            &arena.read(),
            n_nodes,
            n_bundles,
            &next_conn,
            &format!("{label} via read()"),
        );
        assert_reads_agree(
            &oracle,
            &arena.exclusive(),
            n_nodes,
            n_bundles,
            &next_conn,
            &format!("{label} via exclusive()"),
        );
        for (b, mirror) in mirrors.iter().enumerate() {
            // The mirror only answers for its own bundle; restrict the
            // sweep by handing it a single-bundle view of the oracle.
            let bundle = BundleId(b as u64);
            for s in 0..n_nodes {
                for v in 0..n_nodes {
                    let (s, v) = (NodeId(s), NodeId(v));
                    let priors = next_conn[b];
                    let want = oracle.selectivity_at(s, bundle, priors, v);
                    let have = mirror.selectivity_at(s, bundle, priors, v);
                    assert_eq!(
                        want.to_bits(),
                        have.to_bits(),
                        "{label}: mirror bundle {b} selectivity diverged"
                    );
                }
            }
        }

        // Stored records themselves must match, not just derived indexes.
        for (i, node_oracle) in oracle.iter().enumerate().take(n_nodes) {
            for b in 0..n_bundles {
                let bundle = BundleId(b as u64);
                assert_eq!(
                    arena.records(NodeId(i), bundle),
                    node_oracle.bundle_records(bundle).to_vec(),
                    "{label}: raw records diverged at node {i} bundle {b}"
                );
            }
        }
    }
}

#[test]
fn concurrent_disjoint_bundle_commits_match_sequential_replay() {
    const N_NODES: usize = 16;
    const N_BUNDLES: usize = 4;
    const CONNS_PER_BUNDLE: u32 = 12;

    // Pre-sample every commit deterministically so both replays see the
    // exact same records.
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xc0_ffee);
    let mut commits: Vec<Vec<Commit>> = Vec::new();
    for b in 0..N_BUNDLES {
        commits.push(
            (0..CONNS_PER_BUNDLE)
                .map(|conn| sample_commit(&mut rng, N_NODES, b, conn))
                .collect(),
        );
    }

    let sequential = {
        let mut arena = HistoryArena::new(N_NODES, 5);
        let mut view = arena.exclusive();
        for per_bundle in &commits {
            for commit in per_bundle {
                apply(&mut view, commit);
            }
        }
        arena
    };

    let threaded = HistoryArena::new(N_NODES, 5);
    std::thread::scope(|scope| {
        for per_bundle in &commits {
            let arena = &threaded;
            scope.spawn(move || {
                for commit in per_bundle {
                    let mut guards = arena.lock_path(commit.hops.iter().map(|&(n, _, _)| n));
                    apply(&mut guards, commit);
                }
            });
        }
    });

    for i in 0..N_NODES {
        for b in 0..N_BUNDLES {
            let bundle = BundleId(b as u64);
            assert_eq!(
                threaded.records(NodeId(i), bundle),
                sequential.records(NodeId(i), bundle),
                "threaded commit diverged at node {i} bundle {b}"
            );
        }
    }
}
