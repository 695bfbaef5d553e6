//! Adversary models (§1, §2.4, §5).
//!
//! * **Random routing**: "We model an adversary's routing strategy as
//!   random routing" — realised by [`crate::routing::RoutingStrategy::Random`],
//!   which malicious nodes use regardless of the configured good-node
//!   strategy.
//! * **Availability attack** (§5 attack 1): "malicious nodes become highly
//!   available and wait for paths to be reformed through them" —
//!   [`apply_availability_attack`] rewrites the attackers' churn schedules
//!   to permanent uptime.
//! * **Intersection attack** (§1, §2.1): a passive observer correlates the
//!   sets of *active* nodes across the recurring connections it can see;
//!   the initiator must lie in every such set, so the candidate set shrinks
//!   with each observation — [`IntersectionAttack`].

use idpa_netmodel::SessionTable;
use idpa_overlay::NodeId;

/// The trace with the schedules of `attackers` rewritten to a single
/// session spanning `[0, horizon]` — the §5 availability attack. Every
/// other node's schedule is copied unchanged.
#[must_use]
pub fn apply_availability_attack(
    schedules: &SessionTable,
    attackers: &[NodeId],
    horizon: f64,
) -> SessionTable {
    assert!(horizon > 0.0, "horizon must be positive");
    let mut pinned = vec![false; schedules.len()];
    for &a in attackers {
        pinned[a.index()] = true;
    }
    let always_up = [(0.0, horizon)];
    let mut out =
        SessionTable::with_capacity(schedules.len(), schedules.session_count() + attackers.len());
    for (sched, pinned) in schedules.iter().zip(pinned) {
        out.push_node(if pinned { &always_up } else { sched.sessions() });
    }
    out
}

/// A passive intersection attack on initiator anonymity.
///
/// Each time the adversary observes one of the target's recurring
/// connections (i.e. a malicious node sits on the path, or the attacker
/// taps the responder), it intersects its candidate-initiator set with the
/// set of nodes active at that moment. `‖candidates‖ = 1` means the
/// initiator is exposed.
///
/// The candidates are held as a strictly increasing `Vec<NodeId>`. The
/// first observation scans the universe once; every later one only
/// re-tests the surviving candidates, so an observation costs O(|C|), not
/// O(N).
#[derive(Debug, Clone, Default)]
pub struct IntersectionAttack {
    candidates: Option<Vec<NodeId>>,
    observations: u32,
}

impl IntersectionAttack {
    /// A fresh attack with no observations.
    #[must_use]
    pub fn new() -> Self {
        IntersectionAttack::default()
    }

    /// Incorporates one observation: the nodes of `universe` for which
    /// `is_active` holds while a target connection ran. (The true initiator
    /// is always active during its own connection, so it survives every
    /// intersection.)
    ///
    /// `universe` is read only by the first observation, which seeds the
    /// candidates with its active members; later observations keep the
    /// candidates still active. Callers must therefore pass the same
    /// universe every time (and a predicate that is a pure function of the
    /// node at the observed instant).
    pub fn observe(
        &mut self,
        universe: impl IntoIterator<Item = NodeId>,
        is_active: impl Fn(NodeId) -> bool,
    ) {
        self.observations += 1;
        match &mut self.candidates {
            None => {
                let mut c: Vec<NodeId> = universe.into_iter().filter(|&n| is_active(n)).collect();
                c.sort_unstable();
                c.dedup();
                self.candidates = Some(c);
            }
            Some(c) => c.retain(|&n| is_active(n)),
        }
    }

    /// Observations incorporated so far.
    #[must_use]
    pub fn observations(&self) -> u32 {
        self.observations
    }

    /// Size of the current candidate set (`usize::MAX` before any
    /// observation — every node is a candidate).
    #[must_use]
    pub fn candidate_count(&self) -> usize {
        self.candidates.as_ref().map_or(usize::MAX, Vec::len)
    }

    /// The candidate set sorted by node index, if any observation
    /// happened.
    #[must_use]
    pub fn candidates(&self) -> Option<&[NodeId]> {
        self.candidates.as_deref()
    }

    /// Whether the attack has narrowed the candidates to exactly one node.
    #[must_use]
    pub fn exposed(&self) -> bool {
        self.candidate_count() == 1
    }

    /// Snapshot export: the observation count and, if any observation
    /// happened, the candidate set sorted by node index. The
    /// `None`/`Some` distinction is preserved — `None` means "every node
    /// is a candidate" and must not collapse to an empty set.
    #[must_use]
    pub fn snapshot_state(&self) -> (u32, Option<Vec<NodeId>>) {
        (self.observations, self.candidates.clone())
    }

    /// Rebuilds an attack from an [`IntersectionAttack::snapshot_state`]
    /// export.
    ///
    /// # Errors
    ///
    /// A candidate list that is not strictly increasing by node index (a
    /// duplicate or out-of-order entry) — [`IntersectionAttack::snapshot_state`]
    /// never produces one, and accepting it would inflate
    /// [`IntersectionAttack::candidate_count`].
    pub fn from_snapshot(
        observations: u32,
        candidates: Option<Vec<NodeId>>,
    ) -> Result<Self, &'static str> {
        if let Some(c) = &candidates {
            if c.windows(2).any(|w| w[0] >= w[1]) {
                return Err("attack candidates not strictly increasing");
            }
        }
        Ok(IntersectionAttack {
            candidates,
            observations,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;
    use idpa_desim::rng::Xoshiro256StarStar;
    use idpa_desim::SimTime;
    use rand::RngExt;
    use std::collections::HashSet;

    /// Universe of the toy observations below.
    const UNIVERSE: usize = 64;

    fn observe(atk: &mut IntersectionAttack, active: &[usize]) {
        atk.observe((0..UNIVERSE).map(NodeId), |n| active.contains(&n.index()));
    }

    #[test]
    fn availability_attack_pins_attackers_up() {
        let schedules = SessionTable::from_nodes([[(0.0, 10.0)], [(5.0, 10.0)]]);
        let out = apply_availability_attack(&schedules, &[NodeId(1)], 100.0);
        assert!(out.node(1).is_up(SimTime::new(0.0)));
        assert!(out.node(1).is_up(SimTime::new(99.0)));
        assert_eq!(out.node(1).availability(), 1.0);
        // Non-attacker untouched.
        assert_eq!(out.node(0), schedules.node(0));
        assert!(!out.node(0).is_up(SimTime::new(50.0)));
    }

    #[test]
    fn intersection_shrinks_candidates() {
        let mut atk = IntersectionAttack::new();
        assert_eq!(atk.candidate_count(), usize::MAX);
        observe(&mut atk, &[0, 1, 2, 3]);
        assert_eq!(atk.candidate_count(), 4);
        observe(&mut atk, &[0, 1, 5]);
        assert_eq!(atk.candidate_count(), 2);
        observe(&mut atk, &[1, 7]);
        assert!(atk.exposed());
        assert_eq!(atk.candidates().unwrap(), &[NodeId(1)]);
        assert_eq!(atk.observations(), 3);
    }

    #[test]
    fn true_initiator_survives_every_intersection() {
        // The initiator (node 0) is in every active set by construction.
        let mut atk = IntersectionAttack::new();
        for extra in [[1, 2], [3, 4], [5, 6]] {
            observe(&mut atk, &[0, extra[0], extra[1]]);
        }
        assert!(atk.candidates().unwrap().contains(&NodeId(0)));
        assert!(atk.exposed());
    }

    #[test]
    fn fewer_observations_leave_more_anonymity() {
        // The quantitative point of minimising path reformations: each
        // observation can only shrink the candidate set.
        let observations: [&[usize]; 4] = [&[0, 1, 2, 3, 4, 5], &[0, 1, 2, 3], &[0, 2, 3], &[0, 3]];
        let mut few = IntersectionAttack::new();
        observe(&mut few, observations[0]);
        observe(&mut few, observations[1]);
        let mut many = IntersectionAttack::new();
        for o in observations {
            observe(&mut many, o);
        }
        assert!(few.candidate_count() >= many.candidate_count());
    }

    #[test]
    fn disjoint_observation_empties_candidates() {
        let mut atk = IntersectionAttack::new();
        observe(&mut atk, &[1, 2]);
        observe(&mut atk, &[3, 4]);
        assert_eq!(atk.candidate_count(), 0);
        assert!(!atk.exposed());
    }

    #[test]
    fn observe_matches_a_hash_set_intersection() {
        // Reference: the plain set intersection of every observed active
        // set, restricted to the universe. Universes are random subsets of
        // 0..64 given in random order, active sets random subsets of 0..64.
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x1a7e);
        for case in 0..300 {
            let mut universe: Vec<NodeId> = (0..UNIVERSE)
                .filter(|_| rng.random_range(0..4u32) != 0)
                .map(NodeId)
                .collect();
            for i in (1..universe.len()).rev() {
                universe.swap(i, rng.random_range(0..=i));
            }
            let density = rng.random_range(1..10u32);
            let mut atk = IntersectionAttack::new();
            let mut reference: Option<HashSet<NodeId>> = None;
            for _ in 0..rng.random_range(1..40u32) {
                let active: HashSet<NodeId> = (0..UNIVERSE)
                    .filter(|_| rng.random_range(0..10u32) < density)
                    .map(NodeId)
                    .collect();
                atk.observe(universe.iter().copied(), |n| active.contains(&n));
                reference = Some(match reference {
                    None => universe
                        .iter()
                        .copied()
                        .filter(|n| active.contains(n))
                        .collect(),
                    Some(r) => r.intersection(&active).copied().collect(),
                });
                let r = reference.as_ref().unwrap();
                let mut want: Vec<NodeId> = r.iter().copied().collect();
                want.sort_unstable();
                assert_eq!(atk.candidates().unwrap(), want.as_slice(), "case {case}");
                assert_eq!(atk.candidate_count(), r.len(), "case {case}");
                assert_eq!(atk.exposed(), r.len() == 1, "case {case}");
            }
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let mut atk = IntersectionAttack::new();
        let (obs, c) = atk.snapshot_state();
        let back = IntersectionAttack::from_snapshot(obs, c).unwrap();
        assert_eq!(back.candidate_count(), usize::MAX);
        observe(&mut atk, &[9, 3, 40]);
        let (obs, c) = atk.snapshot_state();
        let back = IntersectionAttack::from_snapshot(obs, c).unwrap();
        assert_eq!(back.observations(), 1);
        assert_eq!(back.candidates(), atk.candidates());
    }

    #[test]
    fn snapshot_rejects_duplicate_or_unsorted_candidates() {
        let ids = |v: &[usize]| Some(v.iter().copied().map(NodeId).collect::<Vec<_>>());
        assert!(IntersectionAttack::from_snapshot(2, ids(&[1, 3, 3, 7])).is_err());
        assert!(IntersectionAttack::from_snapshot(2, ids(&[1, 7, 3])).is_err());
        assert!(IntersectionAttack::from_snapshot(2, ids(&[1, 3, 7])).is_ok());
        assert!(IntersectionAttack::from_snapshot(2, ids(&[])).is_ok());
    }
}
