//! World-generation pin: a hash over everything `World::try_generate`
//! samples — every session bound (bit pattern), every adjacency list, every
//! node kind, and every pair's initiator, responder, `P_f` and transmission
//! times. The expected values were recorded before the world's storage
//! layout changed (CSR adjacency, flat session table), so any refactor of
//! world generation that shifts one draw or one bit fails here.

use idpa_overlay::NodeId;
use idpa_sim::{ScenarioConfig, World};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn world_hash(cfg: &ScenarioConfig) -> u64 {
    let w = World::try_generate(cfg).expect("pinned scenario must generate");
    let mut h = Fnv::new();
    h.eat(w.schedules.len() as u64);
    for i in 0..w.schedules.len() {
        let sessions = w.schedules.node(i).sessions();
        h.eat(sessions.len() as u64);
        for &(start, end) in sessions {
            h.eat(start.to_bits());
            h.eat(end.to_bits());
        }
    }
    h.eat(w.topology.len() as u64);
    for s in 0..w.topology.len() {
        let nbrs = w.topology.neighbors(NodeId(s));
        h.eat(nbrs.len() as u64);
        for v in nbrs {
            h.eat(v.index() as u64);
        }
    }
    for k in &w.kinds {
        h.eat(u64::from(k.is_good()));
    }
    h.eat(w.pairs.len() as u64);
    for p in &w.pairs {
        h.eat(p.initiator.index() as u64);
        h.eat(p.responder.index() as u64);
        h.eat(p.pf.to_bits());
        h.eat(p.times.len() as u64);
        for t in &p.times {
            h.eat(t.to_bits());
        }
    }
    h.0
}

/// The world-relevant shape of the run-path benchmark's `fault_closed`
/// workload (N = 2000; its fault rates do not touch world generation).
fn fault_closed_shape(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        n_pairs: 256,
        total_transmissions: 16_000,
        max_connections: 256,
        adversary_fraction: 0.2,
        neighbor_replacement_rounds: Some(3),
        seed,
        ..ScenarioConfig::default()
    }
    .with_nodes(2000)
}

#[test]
fn generated_worlds_match_the_recorded_hashes() {
    let availability_attack = ScenarioConfig {
        adversary_fraction: 0.3,
        availability_attack: true,
        ..ScenarioConfig::default()
    };
    let cases: [(&str, ScenarioConfig, u64); 4] = [
        ("default", ScenarioConfig::default(), 0x1579_b761_038c_44e2),
        (
            "fault_closed shape",
            fault_closed_shape(5),
            0xc3f9_9cf1_53c4_fd7f,
        ),
        (
            "scale(20000, 3)",
            ScenarioConfig::scale(20_000, 3),
            0xad30_fe8c_0927_ef0e,
        ),
        (
            "availability attack",
            availability_attack,
            0x9e93_256c_bb6e_87a1,
        ),
    ];
    let mut failures = Vec::new();
    for (label, cfg, expected) in cases {
        let got = world_hash(&cfg);
        if got != expected {
            failures.push(format!(
                "{label}: got {got:#018x}, expected {expected:#018x}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
