//! Sharded, owner-keyed storage for per-node connection history.
//!
//! [`crate::history::HistoryProfile`] keeps each node's Table 1 records in
//! one `Vec<HistoryProfile>` indexed by `NodeId` — a single exclusive
//! borrow, so connection formation for disjoint initiator sets serializes
//! even though the paper's routing decisions are purely node-local.
//! [`HistoryArena`] partitions the same state into `S` owner-keyed shards
//! (`shard_of(node) = node % S`), each behind its own lock, so formation
//! workers can commit paths touching disjoint shard sets concurrently.
//!
//! # Access modes
//!
//! * [`HistoryArena::exclusive`] — zero-lock view through `&mut self`
//!   (`Mutex::get_mut`); the drop-in replacement for the sequential
//!   event-loop runner, where the arena is pure storage partitioning.
//! * [`HistoryArena::read`] — shared view taking one short shard lock per
//!   query; never holds two locks, so it cannot participate in a cycle.
//! * [`HistoryArena::lock_path`] — a formation worker declares every node
//!   its pending path touches and receives all covering shards at once,
//!   acquired in **ascending shard order**. Every multi-shard acquisition
//!   in this module uses that same total order keyed by `NodeId`, which
//!   rules out deadlock and makes the lock schedule independent of thread
//!   interleaving.
//! * [`BundleMirror`] — a worker-private, lock-free replica of one
//!   bundle's records. Selectivity is bundle-scoped (`σ` counts only
//!   connections of the contract's own bundle) and bundle `p`'s records
//!   are written only by pair `p`'s transmissions, so a worker forming
//!   bundle `p` can serve **every** history read from its own mirror —
//!   provably value-identical to reading the shared store — and take
//!   shard locks only at commit time.
//!
//! # Determinism
//!
//! Values never depend on shard count: shards partition storage without
//! changing per-`(node, bundle)` record order, and the property suite in
//! `crates/core/tests/arena_equivalence.rs` pins bit-exact agreement with
//! the flat `Vec<HistoryProfile>` layout under randomized interleaved
//! commits (including dropped-confirmation suffix commits).

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::{Mutex, MutexGuard, PoisonError};

use idpa_overlay::NodeId;

use crate::bundle::BundleId;
use crate::history::{ConnCounter, HistoryRead, HistoryRecord, HistoryWrite};
use crate::routing::splitmix64;

/// Build-hasher for small integer keys: accumulates each `u64` word
/// through the SplitMix64 finaliser, so multi-word keys (packed tuples)
/// mix exactly and hashing costs a handful of ALU ops instead of SipHash.
/// Collisions are harmless — `Eq` on the full key decides membership.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Mix64State;

/// Hasher produced by [`Mix64State`]; accepts only whole-word writes.
#[derive(Debug)]
pub(crate) struct Mix64Hasher(u64);

impl BuildHasher for Mix64State {
    type Hasher = Mix64Hasher;

    fn build_hasher(&self) -> Mix64Hasher {
        Mix64Hasher(0)
    }
}

impl Hasher for Mix64Hasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("Mix64Hasher keys hash via write_u64 only");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = splitmix64(self.0 ^ v);
    }
}

/// One `(node, bundle)` slot: that node's records for that bundle plus the
/// incremental successor index behind `σ`. Semantics mirror the private
/// `BundleHistory` inside [`crate::history::HistoryProfile`] exactly:
/// append order is arrival order, eviction drops oldest first and unwinds
/// the index, and empty counters are removed. The position-aware
/// `(predecessor, successor)` count has no run-path reader, so it keeps no
/// index: it rescans the retained records on demand.
#[derive(Debug, Clone, Default)]
struct Cell {
    records: Vec<HistoryRecord>,
    by_succ: HashMap<u64, ConnCounter, Mix64State>,
}

impl Cell {
    fn push(&mut self, record: HistoryRecord) {
        self.by_succ
            .entry(record.successor.index() as u64)
            .or_default()
            .add(record.connection);
        self.records.push(record);
    }

    fn evict_oldest(&mut self, n: usize) {
        for old in self.records.drain(..n) {
            let succ_key = old.successor.index() as u64;
            if let Some(counter) = self.by_succ.get_mut(&succ_key) {
                counter.remove(old.connection);
                if counter.is_empty() {
                    self.by_succ.remove(&succ_key);
                }
            }
        }
    }

    /// Appends one record, enforcing the per-bundle retention bound.
    fn record(&mut self, record: HistoryRecord, capacity: Option<usize>) {
        self.push(record);
        if let Some(cap) = capacity {
            if self.records.len() > cap {
                let overflow = self.records.len() - cap;
                self.evict_oldest(overflow);
            }
        }
    }

    /// Distinct prior connections on which the owner forwarded to `v`.
    fn distinct_succ(&self, priors: u32, v: NodeId) -> usize {
        self.by_succ
            .get(&(v.index() as u64))
            .map_or(0, |c| c.distinct_below(priors))
    }

    /// Distinct prior connections `predecessor -> owner -> v`, by a scan
    /// of the retained records (the semantics of
    /// [`crate::history::HistoryProfile::selectivity_from_rescan`]).
    fn distinct_pred_succ(&self, priors: u32, predecessor: NodeId, v: NodeId) -> usize {
        let mut conns: Vec<u32> = self
            .records
            .iter()
            .filter(|r| r.connection < priors && r.predecessor == predecessor && r.successor == v)
            .map(|r| r.connection)
            .collect();
        conns.sort_unstable();
        conns.dedup();
        conns.len()
    }
}

/// Selectivity from an optional cell, matching
/// [`crate::history::HistoryProfile::selectivity`] bit-for-bit: zero
/// priors or no records for the bundle yield `0.0`.
fn cell_selectivity(cell: Option<&Cell>, priors: u32, v: NodeId) -> f64 {
    if priors == 0 {
        return 0.0;
    }
    match cell {
        Some(c) => c.distinct_succ(priors, v) as f64 / f64::from(priors),
        None => 0.0,
    }
}

/// Position-aware variant, matching
/// [`crate::history::HistoryProfile::selectivity_from`].
fn cell_selectivity_from(cell: Option<&Cell>, priors: u32, predecessor: NodeId, v: NodeId) -> f64 {
    if priors == 0 {
        return 0.0;
    }
    match cell {
        Some(c) => c.distinct_pred_succ(priors, predecessor, v) as f64 / f64::from(priors),
        None => 0.0,
    }
}

/// Number of bits in a shard's `(node, bundle)` membership filter.
const FILTER_BITS: usize = 1 << 13;

/// Hash used for the membership filter (independent of the map hash).
fn filter_slot(node: u64, bundle: u64) -> usize {
    (splitmix64(node.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ bundle) as usize) & (FILTER_BITS - 1)
}

/// One shard: the cells of every node whose index maps here, keyed by
/// `(node index, bundle id)`, plus a small never-cleared membership filter
/// that lets the common "this node has no history for this bundle yet"
/// query answer without probing the map.
#[derive(Debug, Default)]
struct Shard {
    cells: HashMap<(u64, u64), Cell, Mix64State>,
    filter: Vec<u64>,
}

impl Shard {
    fn filter_hit(&self, node: u64, bundle: u64) -> bool {
        if self.filter.is_empty() {
            return false;
        }
        let slot = filter_slot(node, bundle);
        self.filter[slot / 64] & (1 << (slot % 64)) != 0
    }

    fn cell(&self, node: NodeId, bundle: BundleId) -> Option<&Cell> {
        let (n, b) = (node.index() as u64, bundle.0);
        if !self.filter_hit(n, b) {
            return None;
        }
        self.cells.get(&(n, b))
    }

    fn cell_mut(&mut self, node: NodeId, bundle: BundleId) -> &mut Cell {
        let (n, b) = (node.index() as u64, bundle.0);
        if self.filter.is_empty() {
            self.filter = vec![0; FILTER_BITS / 64];
        }
        let slot = filter_slot(n, b);
        self.filter[slot / 64] |= 1 << (slot % 64);
        self.cells.entry((n, b)).or_default()
    }

    /// Transplants a fully-built cell into a vacant `(node, bundle)` slot.
    fn insert_cell(&mut self, node: u64, bundle: u64, cell: Cell) {
        if self.filter.is_empty() {
            self.filter = vec![0; FILTER_BITS / 64];
        }
        let slot = filter_slot(node, bundle);
        self.filter[slot / 64] |= 1 << (slot % 64);
        let prev = self.cells.insert((node, bundle), cell);
        assert!(
            prev.is_none(),
            "absorb_mirror target slot must be vacant: a bundle commits exactly once"
        );
    }
}

/// Recovers a shard from a poisoned mutex: the arena holds plain data with
/// no invariants spanning a single mutation, and a worker panic aborts the
/// whole deterministic run anyway, so the state is safe to observe.
fn unpoison<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Owner-keyed sharded history store. See the module docs for the access
/// modes and the deadlock/determinism argument.
#[derive(Debug)]
pub struct HistoryArena {
    shards: Vec<Mutex<Shard>>,
    n_nodes: usize,
    capacity_per_bundle: Option<usize>,
}

impl HistoryArena {
    /// An arena for `n_nodes` owners split over `shard_count` shards with
    /// unbounded per-bundle retention. `shard_count` is clamped to
    /// `1..=max(n_nodes, 1)` — more shards than owners buys nothing.
    #[must_use]
    pub fn new(n_nodes: usize, shard_count: usize) -> Self {
        Self::with_capacity(n_nodes, shard_count, None)
    }

    /// As [`HistoryArena::new`], retaining at most `capacity` records per
    /// `(node, bundle)` when `Some` (oldest evicted first, matching
    /// [`crate::history::HistoryProfile::with_capacity`]).
    ///
    /// # Panics
    /// If `capacity` is `Some(0)`.
    #[must_use]
    pub fn with_capacity(n_nodes: usize, shard_count: usize, capacity: Option<usize>) -> Self {
        assert!(capacity != Some(0), "capacity must be positive");
        let shards = shard_count.clamp(1, n_nodes.max(1));
        HistoryArena {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            n_nodes,
            capacity_per_bundle: capacity,
        }
    }

    /// Number of owners the arena was sized for.
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of shards actually allocated (after clamping).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-bundle retention bound, if any.
    #[must_use]
    pub fn capacity_per_bundle(&self) -> Option<usize> {
        self.capacity_per_bundle
    }

    /// Home shard of `node` — the modulo map that keys every lock-order
    /// decision in this module.
    #[must_use]
    pub fn shard_of(&self, node: NodeId) -> usize {
        node.index() % self.shards.len()
    }

    /// Zero-lock exclusive view: with `&mut self` no other borrow can
    /// exist, so every shard is reached through `Mutex::get_mut`. The view
    /// borrows the shard slice itself, so taking it allocates nothing.
    pub fn exclusive(&mut self) -> ArenaExclusive<'_> {
        ArenaExclusive {
            shards: RefCell::new(self.shards.as_mut_slice()),
            capacity: self.capacity_per_bundle,
        }
    }

    /// Shared read view; each query takes exactly one shard lock, briefly.
    #[must_use]
    pub fn read(&self) -> ArenaRead<'_> {
        ArenaRead { arena: self }
    }

    /// Locks every shard covering `nodes`, in ascending shard order, and
    /// returns a write handle over exactly that shard set. Workers whose
    /// paths touch disjoint shard sets proceed concurrently; overlapping
    /// workers serialize in the deterministic `NodeId`-keyed order.
    #[must_use]
    pub fn lock_path(&self, nodes: impl IntoIterator<Item = NodeId>) -> PathGuards<'_> {
        let mut ids: Vec<usize> = nodes.into_iter().map(|n| self.shard_of(n)).collect();
        ids.sort_unstable();
        ids.dedup();
        PathGuards {
            guards: ids
                .into_iter()
                .map(|i| (i, unpoison(self.shards[i].lock())))
                .collect(),
            shard_count: self.shards.len(),
            capacity: self.capacity_per_bundle,
        }
    }

    /// Moves every cell of a finished bundle mirror into the arena in one
    /// bulk commit, leaving the mirror empty. Covering shards are locked
    /// one at a time in **ascending shard order** (never two at once);
    /// each `(node, bundle)` cell is transplanted wholesale — records and
    /// both selectivity indexes — skipping the per-record re-indexing a
    /// replay through [`HistoryWrite`] would pay.
    ///
    /// The destination slots must be vacant: a bundle is formed by exactly
    /// one pair, so its cells are committed exactly once. The final arena
    /// state is identical to committing every record individually (the
    /// mirror maintained the same append/evict semantics along the way).
    ///
    /// # Panics
    /// If the arena already holds records for `(node, mirror.bundle())`,
    /// or (debug builds) if the retention bounds disagree.
    pub fn absorb_mirror(&self, mirror: &mut BundleMirror) {
        debug_assert_eq!(
            self.capacity_per_bundle, mirror.capacity_per_bundle,
            "mirror and arena retention bounds must match for value-identity"
        );
        let bundle = mirror.bundle.0;
        let mut cells: Vec<(usize, u64, Cell)> = mirror
            .cells
            .drain()
            .map(|(node, cell)| (node as usize % self.shards.len(), node, cell))
            .collect();
        cells.sort_unstable_by_key(|&(shard, node, _)| (shard, node));
        let mut cells = cells.into_iter().peekable();
        while let Some(&(shard_id, _, _)) = cells.peek() {
            let mut shard = unpoison(self.shards[shard_id].lock());
            while let Some((node, cell)) = cells
                .next_if(|&(s, _, _)| s == shard_id)
                .map(|(_, node, cell)| (node, cell))
            {
                shard.insert_cell(node, bundle, cell);
            }
        }
    }

    /// The records node `node` holds for `bundle`, oldest first (clones —
    /// an inspection/test helper, not a hot path).
    #[must_use]
    pub fn records(&self, node: NodeId, bundle: BundleId) -> Vec<HistoryRecord> {
        let shard = unpoison(self.shards[self.shard_of(node)].lock());
        shard
            .cell(node, bundle)
            .map(|c| c.records.clone())
            .unwrap_or_default()
    }

    /// Total records retained across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|m| {
                let shard = unpoison(m.lock());
                shard.cells.values().map(|c| c.records.len()).sum::<usize>()
            })
            .sum()
    }

    /// Whether the arena holds no records at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot export: every `(node, bundle)` cell's retained records,
    /// oldest first, sorted by `(node, bundle)` — a pure function of the
    /// arena's value, independent of shard count and hash-map order.
    ///
    /// Restore is replay: push each cell's records through
    /// [`HistoryArena::exclusive`]'s [`HistoryWrite::record_hop`] into a
    /// fresh arena with the same retention bound. Eviction already
    /// unwound the selectivity indexes to exactly the state the retained
    /// records imply, and a cell's retained count never exceeds the
    /// per-bundle capacity, so replay reproduces records, indexes and
    /// membership-filter bits identically.
    #[must_use]
    pub fn snapshot_cells(&self) -> Vec<(u64, u64, Vec<HistoryRecord>)> {
        let mut out = Vec::new();
        for m in &self.shards {
            let shard = unpoison(m.lock());
            for (&(node, bundle), cell) in &shard.cells {
                out.push((node, bundle, cell.records.clone()));
            }
        }
        out.sort_unstable_by_key(|&(node, bundle, _)| (node, bundle));
        out
    }
}

/// Exclusive no-lock view over every shard — see
/// [`HistoryArena::exclusive`]. Reads come through `&self` (the
/// [`HistoryRead`] contract), so the `&mut` shard slice sits in a
/// `RefCell`: each query borrows it for its own duration only, and
/// `Mutex::get_mut` then reaches the shard without locking.
#[derive(Debug)]
pub struct ArenaExclusive<'a> {
    shards: RefCell<&'a mut [Mutex<Shard>]>,
    capacity: Option<usize>,
}

impl ArenaExclusive<'_> {
    /// Runs `f` on `node`'s home shard.
    fn with_shard<R>(&self, node: NodeId, f: impl FnOnce(&Shard) -> R) -> R {
        let mut shards = self.shards.borrow_mut();
        let i = node.index() % shards.len();
        f(&*unpoison(shards[i].get_mut()))
    }
}

impl HistoryRead for ArenaExclusive<'_> {
    fn selectivity_at(&self, s: NodeId, bundle: BundleId, priors: u32, v: NodeId) -> f64 {
        self.with_shard(s, |shard| {
            cell_selectivity(shard.cell(s, bundle), priors, v)
        })
    }

    fn selectivity_from_at(
        &self,
        s: NodeId,
        bundle: BundleId,
        priors: u32,
        predecessor: NodeId,
        v: NodeId,
    ) -> f64 {
        self.with_shard(s, |shard| {
            cell_selectivity_from(shard.cell(s, bundle), priors, predecessor, v)
        })
    }
}

impl HistoryWrite for ArenaExclusive<'_> {
    fn record_hop(
        &mut self,
        node: NodeId,
        bundle: BundleId,
        connection: u32,
        predecessor: NodeId,
        successor: NodeId,
    ) {
        let capacity = self.capacity;
        let shards = self.shards.get_mut();
        let shard_idx = node.index() % shards.len();
        unpoison(shards[shard_idx].get_mut())
            .cell_mut(node, bundle)
            .record(
                HistoryRecord {
                    bundle,
                    connection,
                    predecessor,
                    successor,
                },
                capacity,
            );
    }
}

/// Shared read view — see [`HistoryArena::read`]. Holds at most one shard
/// lock at a time, for the duration of one query.
#[derive(Debug, Clone, Copy)]
pub struct ArenaRead<'a> {
    arena: &'a HistoryArena,
}

impl HistoryRead for ArenaRead<'_> {
    fn selectivity_at(&self, s: NodeId, bundle: BundleId, priors: u32, v: NodeId) -> f64 {
        let shard = unpoison(self.arena.shards[self.arena.shard_of(s)].lock());
        cell_selectivity(shard.cell(s, bundle), priors, v)
    }

    fn selectivity_from_at(
        &self,
        s: NodeId,
        bundle: BundleId,
        priors: u32,
        predecessor: NodeId,
        v: NodeId,
    ) -> f64 {
        let shard = unpoison(self.arena.shards[self.arena.shard_of(s)].lock());
        cell_selectivity_from(shard.cell(s, bundle), priors, predecessor, v)
    }
}

/// Write handle over the shards covering one pending path — see
/// [`HistoryArena::lock_path`]. The guard vector is ordered by ascending
/// shard id; lookups scan it linearly (paths touch at most a handful of
/// shards).
#[derive(Debug)]
pub struct PathGuards<'a> {
    guards: Vec<(usize, MutexGuard<'a, Shard>)>,
    shard_count: usize,
    capacity: Option<usize>,
}

impl HistoryWrite for PathGuards<'_> {
    fn record_hop(
        &mut self,
        node: NodeId,
        bundle: BundleId,
        connection: u32,
        predecessor: NodeId,
        successor: NodeId,
    ) {
        let target = node.index() % self.shard_count;
        let capacity = self.capacity;
        let (_, shard) = self
            .guards
            .iter_mut()
            .find(|(i, _)| *i == target)
            .expect("lock_path must cover every node the commit touches");
        shard.cell_mut(node, bundle).record(
            HistoryRecord {
                bundle,
                connection,
                predecessor,
                successor,
            },
            capacity,
        );
    }
}

/// Worker-private replica of one bundle's history — the lock-free read
/// path for parallel formation. See the module docs for why mirror reads
/// are value-identical to shared-store reads.
///
/// Reads for any *other* bundle answer `0.0`/empty — the formation worker
/// never issues them (selectivity is always queried for the contract's own
/// bundle); debug builds assert this.
#[derive(Debug)]
pub struct BundleMirror {
    bundle: BundleId,
    cells: HashMap<u64, Cell, Mix64State>,
    capacity_per_bundle: Option<usize>,
}

impl BundleMirror {
    /// An empty mirror for `bundle` with the given per-bundle retention
    /// bound (must match the shared store's bound for value-identity).
    ///
    /// # Panics
    /// If `capacity` is `Some(0)`.
    #[must_use]
    pub fn new(bundle: BundleId, capacity: Option<usize>) -> Self {
        assert!(capacity != Some(0), "capacity must be positive");
        BundleMirror {
            bundle,
            cells: HashMap::default(),
            capacity_per_bundle: capacity,
        }
    }

    /// Rebinds the mirror to a new bundle, clearing all cells — lets one
    /// worker reuse its allocation across the pairs of a work item.
    pub fn reset(&mut self, bundle: BundleId) {
        self.bundle = bundle;
        self.cells.clear();
    }

    /// The bundle this mirror replicates.
    #[must_use]
    pub fn bundle(&self) -> BundleId {
        self.bundle
    }

    /// The records the mirror holds for `node`, oldest first.
    #[must_use]
    pub fn node_records(&self, node: NodeId) -> &[HistoryRecord] {
        self.cells
            .get(&(node.index() as u64))
            .map_or(&[], |c| c.records.as_slice())
    }

    fn cell(&self, node: NodeId, bundle: BundleId) -> Option<&Cell> {
        debug_assert_eq!(
            bundle, self.bundle,
            "BundleMirror queried for a foreign bundle"
        );
        if bundle != self.bundle {
            return None;
        }
        self.cells.get(&(node.index() as u64))
    }
}

impl HistoryRead for BundleMirror {
    fn selectivity_at(&self, s: NodeId, bundle: BundleId, priors: u32, v: NodeId) -> f64 {
        cell_selectivity(self.cell(s, bundle), priors, v)
    }

    fn selectivity_from_at(
        &self,
        s: NodeId,
        bundle: BundleId,
        priors: u32,
        predecessor: NodeId,
        v: NodeId,
    ) -> f64 {
        cell_selectivity_from(self.cell(s, bundle), priors, predecessor, v)
    }
}

impl HistoryWrite for BundleMirror {
    fn record_hop(
        &mut self,
        node: NodeId,
        bundle: BundleId,
        connection: u32,
        predecessor: NodeId,
        successor: NodeId,
    ) {
        debug_assert_eq!(
            bundle, self.bundle,
            "BundleMirror committed a foreign bundle"
        );
        if bundle != self.bundle {
            return;
        }
        let capacity = self.capacity_per_bundle;
        self.cells.entry(node.index() as u64).or_default().record(
            HistoryRecord {
                bundle,
                connection,
                predecessor,
                successor,
            },
            capacity,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryProfile;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn shard_count_is_clamped() {
        assert_eq!(HistoryArena::new(5, 0).shard_count(), 1);
        assert_eq!(HistoryArena::new(5, 3).shard_count(), 3);
        assert_eq!(HistoryArena::new(5, 64).shard_count(), 5);
        assert_eq!(HistoryArena::new(0, 64).shard_count(), 1);
    }

    #[test]
    fn exclusive_matches_profile_semantics() {
        let mut profile = HistoryProfile::new(n(1));
        let mut arena = HistoryArena::new(8, 3);
        let b = BundleId(4);
        for (conn, (p, s)) in [(0, 2), (0, 3), (1, 2), (2, 5)].into_iter().enumerate() {
            profile.record(b, conn as u32, n(p), n(s));
            arena
                .exclusive()
                .record_hop(n(1), b, conn as u32, n(p), n(s));
        }
        let ex = arena.exclusive();
        for priors in 0..5u32 {
            for v in 0..6 {
                assert_eq!(
                    profile.selectivity(b, priors, n(v)).to_bits(),
                    ex.selectivity_at(n(1), b, priors, n(v)).to_bits()
                );
                assert_eq!(
                    profile.selectivity_from(b, priors, n(0), n(v)).to_bits(),
                    ex.selectivity_from_at(n(1), b, priors, n(0), n(v))
                        .to_bits()
                );
            }
        }
    }

    #[test]
    fn lock_path_and_read_agree_with_exclusive() {
        let arena = HistoryArena::new(10, 4);
        let b = BundleId(0);
        {
            let mut guards = arena.lock_path([n(3), n(7), n(2)]);
            guards.record_hop(n(3), b, 0, n(1), n(7));
            guards.record_hop(n(7), b, 0, n(3), n(2));
        }
        let r = arena.read();
        assert_eq!(r.selectivity_at(n(3), b, 1, n(7)), 1.0);
        assert_eq!(r.selectivity_at(n(7), b, 1, n(2)), 1.0);
        assert_eq!(r.selectivity_at(n(7), b, 1, n(9)), 0.0);
        assert_eq!(r.selectivity_from_at(n(7), b, 1, n(3), n(2)), 1.0);
        assert_eq!(r.selectivity_from_at(n(7), b, 1, n(1), n(2)), 0.0);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.records(n(3), b).len(), 1);
    }

    #[test]
    fn capacity_evicts_oldest_like_profile() {
        let mut profile = HistoryProfile::with_capacity(n(0), 2);
        let mut arena = HistoryArena::with_capacity(4, 2, Some(2));
        let b = BundleId(9);
        for conn in 0..5u32 {
            profile.record(b, conn, n(1), n(conn as usize % 3));
            arena
                .exclusive()
                .record_hop(n(0), b, conn, n(1), n(conn as usize % 3));
        }
        assert_eq!(arena.records(n(0), b), profile.bundle_records(b).to_vec());
        let ex = arena.exclusive();
        for priors in 0..6u32 {
            for v in 0..3 {
                assert_eq!(
                    profile.selectivity(b, priors, n(v)).to_bits(),
                    ex.selectivity_at(n(0), b, priors, n(v)).to_bits()
                );
            }
        }
    }

    #[test]
    fn absorb_mirror_matches_record_by_record_commit() {
        let replayed = {
            let mut arena = HistoryArena::with_capacity(10, 3, Some(2));
            let mut ex = arena.exclusive();
            for conn in 0..5u32 {
                ex.record_hop(n(2), BundleId(7), conn, n(1), n(conn as usize % 3));
                ex.record_hop(n(6), BundleId(7), conn, n(2), n(4));
            }
            arena
        };
        let absorbed = {
            let arena = HistoryArena::with_capacity(10, 3, Some(2));
            let mut mirror = BundleMirror::new(BundleId(7), Some(2));
            for conn in 0..5u32 {
                mirror.record_hop(n(2), BundleId(7), conn, n(1), n(conn as usize % 3));
                mirror.record_hop(n(6), BundleId(7), conn, n(2), n(4));
            }
            arena.absorb_mirror(&mut mirror);
            assert!(
                mirror.node_records(n(2)).is_empty(),
                "absorb drains the mirror"
            );
            arena
        };
        for node in 0..10 {
            assert_eq!(
                absorbed.records(n(node), BundleId(7)),
                replayed.records(n(node), BundleId(7)),
                "node {node}"
            );
        }
        let ex = absorbed;
        for priors in 0..6u32 {
            for v in 0..5 {
                assert_eq!(
                    ex.read()
                        .selectivity_at(n(2), BundleId(7), priors, n(v))
                        .to_bits(),
                    replayed
                        .read()
                        .selectivity_at(n(2), BundleId(7), priors, n(v))
                        .to_bits()
                );
            }
        }
    }

    #[test]
    fn mirror_tracks_only_its_bundle() {
        let mut mirror = BundleMirror::new(BundleId(3), None);
        mirror.record_hop(n(2), BundleId(3), 0, n(1), n(4));
        assert_eq!(mirror.selectivity_at(n(2), BundleId(3), 1, n(4)), 1.0);
        assert_eq!(mirror.node_records(n(2)).len(), 1);
        mirror.reset(BundleId(5));
        assert_eq!(mirror.selectivity_at(n(2), BundleId(5), 1, n(4)), 0.0);
        assert!(mirror.node_records(n(2)).is_empty());
    }
}
