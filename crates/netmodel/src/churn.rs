//! Churn: per-node join/leave schedules.
//!
//! §3 of the paper: "A poisson process is used to simulate the joining of
//! nodes" and "the session time of peers is modeled using a Pareto
//! distribution and the median session time is set as 60 mins". §2.1 defines
//! a peer's availability as "the ratio of the sum of its session times to
//! its lifetime, where the lifetime is from the time of the initial entry of
//! the peer node into the system to the time of its final departure".
//!
//! We pre-generate, per node, the full alternating up/down schedule over the
//! simulation horizon. Pre-generation (rather than sampling lazily during
//! the run) is what makes common-random-number comparisons across routing
//! strategies exact: the churn trace is bit-identical for every strategy.

use idpa_desim::rng::Xoshiro256StarStar;
use idpa_desim::SimTime;

use crate::dist::{Exponential, Pareto};

/// Parameters of the churn process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Number of peers (the paper uses N = 40).
    pub n_nodes: usize,
    /// Rate of the Poisson join process (nodes per minute). Successive nodes
    /// enter the system at exponential inter-arrival times with this rate.
    pub join_rate: f64,
    /// Median of the Pareto session-time distribution, minutes (paper: 60).
    pub session_median: f64,
    /// Pareto shape (tail index) of session times. Measurement studies of
    /// P2P session times report shapes between 1 and 2; default 1.5.
    pub session_shape: f64,
    /// Mean of the exponential downtime between sessions, minutes.
    pub downtime_mean: f64,
    /// End of the generated schedule, minutes.
    pub horizon: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            n_nodes: 40,
            join_rate: 2.0,
            session_median: 60.0,
            session_shape: 1.5,
            downtime_mean: 30.0,
            horizon: 24.0 * 60.0,
        }
    }
}

impl ChurnConfig {
    /// Validates parameter ranges, panicking with a descriptive message on
    /// nonsense input (zero nodes, non-positive rates, ...).
    pub fn validate(&self) {
        assert!(self.n_nodes > 0, "need at least one node");
        assert!(self.join_rate > 0.0, "join_rate must be positive");
        assert!(self.session_median > 0.0, "session_median must be positive");
        assert!(self.session_shape > 0.0, "session_shape must be positive");
        assert!(self.downtime_mean > 0.0, "downtime_mean must be positive");
        assert!(self.horizon > 0.0, "horizon must be positive");
    }
}

/// Every node's alternating up/down schedule in one flat table: the
/// sorted, disjoint `[up, down)` intervals of all nodes back to back, plus
/// per-node offsets. Node `i`'s sessions are
/// `sessions[offsets[i]..offsets[i + 1]]`.
///
/// One allocation for the whole trace (rather than one `Vec` per node)
/// keeps million-node generation at the cost of its random draws and makes
/// dropping the trace O(1). Every node's intervals are checked sorted,
/// disjoint and well-formed when the node is appended, however the table
/// is built.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionTable {
    sessions: Vec<(f64, f64)>,
    offsets: Vec<usize>,
}

impl SessionTable {
    /// An empty table with room for `n_nodes` nodes and `n_sessions`
    /// sessions in total.
    #[must_use]
    pub fn with_capacity(n_nodes: usize, n_sessions: usize) -> Self {
        let mut offsets = Vec::with_capacity(n_nodes + 1);
        offsets.push(0);
        SessionTable {
            sessions: Vec::with_capacity(n_sessions),
            offsets,
        }
    }

    /// Builds a table from explicit per-node intervals; each node's must
    /// be sorted, disjoint, and well-formed (`0 <= start < end`).
    #[must_use]
    pub fn from_nodes<I, S>(nodes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<[(f64, f64)]>,
    {
        let mut table = Self::with_capacity(0, 0);
        for sessions in nodes {
            table.push_node(sessions.as_ref());
        }
        table
    }

    /// Appends the next node's schedule (same contract as
    /// [`SessionTable::from_nodes`]).
    pub fn push_node(&mut self, sessions: &[(f64, f64)]) {
        self.sessions.extend_from_slice(sessions);
        self.close_node();
    }

    /// Ends the node whose sessions were pushed since the last offset,
    /// checking them.
    fn close_node(&mut self) {
        let start = self.offsets[self.offsets.len() - 1];
        let node = &self.sessions[start..];
        for w in node.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "sessions must be sorted and disjoint: {w:?}"
            );
        }
        for &(s, e) in node {
            assert!(s < e, "empty or inverted session ({s}, {e})");
            assert!(s >= 0.0, "negative session start {s}");
        }
        self.offsets.push(self.sessions.len());
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the table holds no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total sessions over all nodes.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Node `i`'s schedule.
    #[inline]
    #[must_use]
    pub fn node(&self, i: usize) -> NodeSchedule<'_> {
        NodeSchedule {
            sessions: &self.sessions[self.offsets[i]..self.offsets[i + 1]],
        }
    }

    /// Every node's schedule, in node order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = NodeSchedule<'_>> + '_ {
        self.offsets.windows(2).map(|w| NodeSchedule {
            sessions: &self.sessions[w[0]..w[1]],
        })
    }
}

/// One node's schedule: a borrowed view of its sorted, disjoint
/// `[up, down)` intervals in a [`SessionTable`], clamped to the horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSchedule<'a> {
    sessions: &'a [(f64, f64)],
}

impl<'a> NodeSchedule<'a> {
    /// The `[start, end)` session intervals, sorted.
    #[must_use]
    pub fn sessions(self) -> &'a [(f64, f64)] {
        self.sessions
    }

    /// Whether the node is up at time `t`.
    #[must_use]
    pub fn is_up(self, t: SimTime) -> bool {
        self.session_end_at(t).is_some()
    }

    /// End of the session containing `t`, or `None` if the node is down at
    /// `t`. Fault injection uses this to truncate a crashed forwarder's
    /// current session: the node stays down from the crash until its next
    /// scheduled join.
    #[must_use]
    pub fn session_end_at(self, t: SimTime) -> Option<f64> {
        let t = t.minutes();
        // Sessions are sorted; find the last session starting at or before t.
        match self.sessions.partition_point(|&(s, _)| s <= t) {
            0 => None,
            i => {
                let (_, end) = self.sessions[i - 1];
                (t < end).then_some(end)
            }
        }
    }

    /// The paper's availability metric: total session time divided by
    /// lifetime (first join to final departure). Zero for a node with no
    /// sessions; 1.0 for a node with a single uninterrupted session.
    #[must_use]
    pub fn availability(self) -> f64 {
        let (Some(&(first, _)), Some(&(_, last))) = (self.sessions.first(), self.sessions.last())
        else {
            return 0.0;
        };
        let lifetime = last - first;
        if lifetime <= 0.0 {
            return 0.0;
        }
        let up: f64 = self.sessions.iter().map(|&(s, e)| e - s).sum();
        up / lifetime
    }
}

/// Expected total session count of a trace under `cfg`: the reservation
/// [`ChurnModel::generate`] makes so that its one session table is
/// allocated once instead of doubling its way up.
///
/// A node that joins with `L` minutes left before the horizon opens one
/// session, then one more per completed up/down cycle. Sessions longer
/// than `L` cannot change that count, so the cycle mean is taken over the
/// session time truncated at `L`, `E[min(X, L)] + downtime_mean`, and the
/// node expects `1 + L / cycle` sessions (the elementary renewal
/// estimate). Join times are taken at their means `(i + 1) / join_rate`,
/// summed over at most 64 equal node buckets. The estimate is rounded up
/// by 1/32: a low estimate costs a doubling of the whole table, a high
/// one only a transient slack that the final shrink returns.
fn expected_sessions(cfg: &ChurnConfig, session: &Pareto) -> usize {
    let (xm, alpha) = (session.scale(), session.shape());
    let truncated_mean = |l: f64| {
        if l <= xm {
            l
        } else if (alpha - 1.0).abs() < 1e-12 {
            xm + xm * (l / xm).ln()
        } else {
            xm + xm * ((l / xm).powf(1.0 - alpha) - 1.0) / (1.0 - alpha)
        }
    };
    let n = cfg.n_nodes;
    let buckets = n.min(64);
    let mut total = 0.0;
    for b in 0..buckets {
        let (lo, hi) = (b * n / buckets, (b + 1) * n / buckets);
        let mid = (lo + hi) as f64 / 2.0 + 0.5;
        let left = cfg.horizon - mid / cfg.join_rate;
        if left > 0.0 {
            let per_node = 1.0 + left / (truncated_mean(left) + cfg.downtime_mean);
            total += (hi - lo) as f64 * per_node;
        }
    }
    (total * (1.0 + 1.0 / 32.0)).ceil() as usize
}

/// Generator for a full system churn trace.
#[derive(Debug, Clone)]
pub struct ChurnModel {
    config: ChurnConfig,
}

impl ChurnModel {
    /// Creates a churn model over validated configuration.
    #[must_use]
    pub fn new(config: ChurnConfig) -> Self {
        config.validate();
        ChurnModel { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ChurnConfig {
        &self.config
    }

    /// Generates every node's schedule into one [`SessionTable`]. Node
    /// join times form a Poisson process (exponential inter-arrivals); each
    /// node then alternates Pareto up-periods and exponential down-periods
    /// until the horizon. All draws come from `rng` in node order, so the
    /// trace is one sequential stream.
    #[must_use]
    pub fn generate(&self, rng: &mut Xoshiro256StarStar) -> SessionTable {
        let cfg = &self.config;
        let join_gap = Exponential::new(cfg.join_rate);
        let session = Pareto::from_median(cfg.session_median, cfg.session_shape);
        let downtime = Exponential::from_mean(cfg.downtime_mean);

        let mut table = SessionTable::with_capacity(cfg.n_nodes, expected_sessions(cfg, &session));
        let mut arrival = 0.0;
        for _ in 0..cfg.n_nodes {
            arrival += join_gap.sample(rng);
            let mut t = arrival;
            while t < cfg.horizon {
                let up_end = (t + session.sample(rng)).min(cfg.horizon);
                if up_end > t {
                    table.sessions.push((t, up_end));
                }
                t = up_end + downtime.sample(rng);
            }
            table.close_node();
        }
        table.sessions.shrink_to_fit();
        table
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    fn default_model() -> ChurnModel {
        ChurnModel::new(ChurnConfig::default())
    }

    #[test]
    fn session_end_at_matches_is_up() {
        let table = SessionTable::from_nodes([[(10.0, 20.0), (30.0, 45.0)]]);
        let sched = table.node(0);
        assert_eq!(sched.session_end_at(SimTime::new(5.0)), None);
        assert_eq!(sched.session_end_at(SimTime::new(10.0)), Some(20.0));
        assert_eq!(sched.session_end_at(SimTime::new(19.9)), Some(20.0));
        assert_eq!(sched.session_end_at(SimTime::new(20.0)), None);
        assert_eq!(sched.session_end_at(SimTime::new(31.0)), Some(45.0));
        for t in 0..50 {
            let t = SimTime::new(t as f64);
            assert_eq!(sched.session_end_at(t).is_some(), sched.is_up(t));
        }
    }

    #[test]
    fn generates_one_schedule_per_node() {
        let scheds = default_model().generate(&mut rng(1));
        assert_eq!(scheds.len(), 40);
        assert_eq!(scheds.iter().len(), 40);
    }

    #[test]
    fn schedules_are_sorted_disjoint_and_within_horizon() {
        let cfg = ChurnConfig::default();
        let scheds = ChurnModel::new(cfg).generate(&mut rng(2));
        for sched in scheds.iter() {
            let mut prev_end = 0.0;
            for &(s, e) in sched.sessions() {
                assert!(s < e, "degenerate session");
                assert!(s >= prev_end, "overlapping sessions");
                assert!(e <= cfg.horizon + 1e-9, "session beyond horizon");
                prev_end = e;
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = default_model().generate(&mut rng(3));
        let b = default_model().generate(&mut rng(3));
        assert_eq!(a, b);
    }

    #[test]
    fn is_up_matches_sessions() {
        let table = SessionTable::from_nodes([[(1.0, 3.0), (5.0, 8.0)]]);
        let sched = table.node(0);
        assert!(!sched.is_up(SimTime::new(0.5)));
        assert!(sched.is_up(SimTime::new(1.0)));
        assert!(sched.is_up(SimTime::new(2.9)));
        assert!(!sched.is_up(SimTime::new(3.0)));
        assert!(!sched.is_up(SimTime::new(4.0)));
        assert!(sched.is_up(SimTime::new(5.0)));
        assert!(!sched.is_up(SimTime::new(8.0)));
    }

    #[test]
    fn availability_definition_matches_paper() {
        // Sessions of length 2 and 3 over a lifetime of 7 (from 1 to 8).
        let table = SessionTable::from_nodes([[(1.0, 3.0), (5.0, 8.0)]]);
        assert!((table.node(0).availability() - 5.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn availability_of_single_session_is_one() {
        let table = SessionTable::from_nodes([[(2.0, 9.0)]]);
        assert_eq!(table.node(0).availability(), 1.0);
    }

    #[test]
    fn availability_of_empty_schedule_is_zero() {
        let table = SessionTable::from_nodes([[]]);
        assert_eq!(table.node(0).availability(), 0.0);
    }

    #[test]
    fn median_session_time_near_configured() {
        // Collect raw session lengths over many nodes; the empirical median
        // should approximate the configured 60-minute median. Sessions are
        // truncated at the horizon, which biases the median down slightly,
        // so generate with a long horizon.
        let cfg = ChurnConfig {
            n_nodes: 2000,
            horizon: 10_000.0,
            ..ChurnConfig::default()
        };
        let scheds = ChurnModel::new(cfg).generate(&mut rng(4));
        let mut lengths: Vec<f64> = scheds
            .iter()
            .flat_map(|s| s.sessions().iter().map(|&(a, b)| b - a))
            .collect();
        lengths.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = lengths[lengths.len() / 2];
        assert!(
            (median - 60.0).abs() / 60.0 < 0.1,
            "median session {median}"
        );
    }

    #[test]
    fn join_times_follow_configured_rate() {
        let cfg = ChurnConfig {
            n_nodes: 5000,
            join_rate: 2.0,
            // Every join (~2500 ± 35 minutes) lands well before the
            // horizon, which is all the test needs; a longer horizon only
            // generates sessions nobody reads.
            horizon: 5000.0,
            ..ChurnConfig::default()
        };
        let scheds = ChurnModel::new(cfg).generate(&mut rng(5));
        let last_join = scheds
            .iter()
            .filter_map(|s| s.sessions().first().map(|&(start, _)| start))
            .fold(0.0f64, f64::max);
        // 5000 arrivals at rate 2/min ≈ 2500 minutes.
        assert!((last_join - 2500.0).abs() < 200.0, "last_join={last_join}");
    }

    /// The per-node generator the flat table replaced: one `Vec` per node,
    /// the same draws in the same order.
    fn reference_generate(cfg: &ChurnConfig, rng: &mut Xoshiro256StarStar) -> Vec<Vec<(f64, f64)>> {
        let join_gap = Exponential::new(cfg.join_rate);
        let session = Pareto::from_median(cfg.session_median, cfg.session_shape);
        let downtime = Exponential::from_mean(cfg.downtime_mean);
        let mut arrival = 0.0;
        (0..cfg.n_nodes)
            .map(|_| {
                arrival += join_gap.sample(rng);
                let mut sessions = Vec::new();
                let mut t = arrival;
                while t < cfg.horizon {
                    let up_end = (t + session.sample(rng)).min(cfg.horizon);
                    if up_end > t {
                        sessions.push((t, up_end));
                    }
                    t = up_end + downtime.sample(rng);
                }
                sessions
            })
            .collect()
    }

    #[test]
    fn flat_table_matches_per_node_reference() {
        use rand::RngExt;
        let mut r = rng(77);
        for case in 0..40 {
            let shapes = [0.8, 1.0, 1.5, 2.5];
            let cfg = ChurnConfig {
                n_nodes: r.random_range(1..300),
                join_rate: r.random_range(0.05..50.0),
                session_median: r.random_range(1.0..120.0),
                session_shape: shapes[case % shapes.len()],
                downtime_mean: r.random_range(0.5..90.0),
                horizon: r.random_range(10.0..2000.0),
            };
            let seed = r.next();
            let table = ChurnModel::new(cfg).generate(&mut rng(seed));
            let reference = reference_generate(&cfg, &mut rng(seed));
            assert_eq!(table.len(), reference.len(), "case {case}");
            assert_eq!(table, SessionTable::from_nodes(&reference), "case {case}");
            for (i, sessions) in reference.iter().enumerate() {
                let node = table.node(i);
                assert_eq!(node.sessions(), sessions.as_slice(), "case {case} node {i}");
                for _ in 0..8 {
                    let t = r.random_range(0.0..cfg.horizon + 1.0);
                    // Linear-scan reference: the session holding `t`.
                    let holding = sessions.iter().find(|&&(s, e)| s <= t && t < e);
                    let at = SimTime::new(t);
                    assert_eq!(node.is_up(at), holding.is_some(), "case {case} t={t}");
                    assert_eq!(node.session_end_at(at), holding.map(|&(_, e)| e));
                }
                // Session bounds themselves: up at a start, down at an end
                // unless the next session starts there.
                for (k, &(s, e)) in sessions.iter().enumerate() {
                    assert_eq!(node.session_end_at(SimTime::new(s)), Some(e));
                    let rejoins = sessions.get(k + 1).is_some_and(|&(next, _)| next == e);
                    assert_eq!(node.is_up(SimTime::new(e)), rejoins);
                }
            }
        }
    }

    #[test]
    fn reservation_covers_large_traces_without_much_slack() {
        // The million-node shape at a smaller N: joins within 20 minutes.
        for (n, seed) in [(20_000usize, 1u64), (50_000, 2)] {
            let cfg = ChurnConfig {
                n_nodes: n,
                join_rate: n as f64 / 20.0,
                ..ChurnConfig::default()
            };
            let session = Pareto::from_median(cfg.session_median, cfg.session_shape);
            let reserved = expected_sessions(&cfg, &session);
            let actual = ChurnModel::new(cfg)
                .generate(&mut rng(seed))
                .session_count();
            assert!(reserved >= actual, "n={n}: reserved {reserved} < {actual}");
            assert!(
                (reserved as f64) < actual as f64 * 1.08,
                "n={n}: reserved {reserved} vs {actual}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "sorted and disjoint")]
    fn from_sessions_rejects_overlap() {
        let _ = SessionTable::from_nodes([[(1.0, 4.0), (3.0, 5.0)]]);
    }

    #[test]
    #[should_panic(expected = "need at least one node")]
    fn config_rejects_zero_nodes() {
        let _ = ChurnModel::new(ChurnConfig {
            n_nodes: 0,
            ..ChurnConfig::default()
        });
    }
}
