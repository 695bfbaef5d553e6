//! Output checks: a digest over every `RunResult` field and the invariants
//! each run must satisfy.
//!
//! The digest hashes a canonical list of `(field name, value)` pairs, not
//! the `Debug` text, so regrouping `RunResult`'s layout keeps it. The
//! destructuring below names every field without `..`: a new field fails
//! to compile here until it is added to the list.

use idpa_crypto::Sha256;
use idpa_sim::RunResult;

/// Canonical SHA-256 encoder over named fields.
struct Fields(Sha256);

impl Fields {
    fn field(&mut self, name: &str, tag: u8, bytes: &[u8]) {
        self.0.update(&(name.len() as u64).to_le_bytes());
        self.0.update(name.as_bytes());
        self.0.update(&[tag]);
        self.0.update(&(bytes.len() as u64).to_le_bytes());
        self.0.update(bytes);
    }

    fn u64(&mut self, name: &str, v: u64) {
        self.field(name, b'u', &v.to_le_bytes());
    }

    fn f64(&mut self, name: &str, v: f64) {
        self.field(name, b'f', &v.to_bits().to_le_bytes());
    }

    fn bool(&mut self, name: &str, v: bool) {
        self.field(name, b'b', &[u8::from(v)]);
    }

    fn f64s(&mut self, name: &str, v: &[f64]) {
        let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
        self.field(name, b'F', &bytes);
    }

    fn usizes(&mut self, name: &str, v: &[usize]) {
        let bytes: Vec<u8> = v.iter().flat_map(|&x| (x as u64).to_le_bytes()).collect();
        self.field(name, b'U', &bytes);
    }
}

/// The run's digest: the first 8 bytes of SHA-256 over every field, as
/// 16 hex digits.
#[must_use]
pub fn digest(r: &RunResult) -> String {
    let RunResult {
        good_payoffs,
        malicious_payoffs,
        node_totals,
        avg_good_payoff,
        avg_forwarder_set,
        avg_path_length,
        avg_path_quality,
        routing_efficiency,
        new_edge_fraction,
        reformation_rate,
        connections,
        attack_exposure_rate,
        avg_anonymity_degree,
        delivery_ratio,
        retries_per_message,
        reformation_latency,
        payment_shortfall,
        settlement_delay,
        flagged_cheaters,
        injected_cheaters,
        audit_discrepancies,
        peak_materialized_nodes,
        node_evictions,
        slab_bytes,
        epochs_settled,
        settlement_ops_per_epoch,
        epoch_netting_ratio,
        batch_verify_throughput,
        windowed_delivery_ratio,
        windowed_payoff_rate,
        windowed_retry_rate,
        free_riders,
        free_rider_refusals,
        free_rider_payoff,
        compliant_payoff,
        whitewash_events,
        reputation_evasion_rate,
        clique_phantom_instances,
        clique_phantom_flagged,
        clique_payout_leakage,
        bank_wal_records,
        bank_wal_bytes,
        bank_crashes,
        bank_torn_tails,
        bank_records_replayed,
        bank_monitor_checks,
        bank_monitor_violations,
        bank_ledger_digest,
        audit_chain_verified,
        interrupted,
    } = r;
    let mut h = Fields(Sha256::new());
    h.f64s("good_payoffs", good_payoffs);
    h.f64s("malicious_payoffs", malicious_payoffs);
    h.f64s("node_totals", node_totals);
    h.f64("avg_good_payoff", *avg_good_payoff);
    h.f64("avg_forwarder_set", *avg_forwarder_set);
    h.f64("avg_path_length", *avg_path_length);
    h.f64("avg_path_quality", *avg_path_quality);
    h.f64("routing_efficiency", *routing_efficiency);
    h.f64("new_edge_fraction", *new_edge_fraction);
    h.f64("reformation_rate", *reformation_rate);
    h.u64("connections", *connections);
    h.f64("attack_exposure_rate", *attack_exposure_rate);
    h.f64("avg_anonymity_degree", *avg_anonymity_degree);
    h.f64("delivery_ratio", *delivery_ratio);
    h.f64("retries_per_message", *retries_per_message);
    h.f64("reformation_latency", *reformation_latency);
    h.f64("payment_shortfall", *payment_shortfall);
    h.f64("settlement_delay", *settlement_delay);
    h.usizes("flagged_cheaters", flagged_cheaters);
    h.usizes("injected_cheaters", injected_cheaters);
    h.u64("audit_discrepancies", *audit_discrepancies);
    h.u64("peak_materialized_nodes", *peak_materialized_nodes as u64);
    h.u64("node_evictions", *node_evictions);
    h.u64("slab_bytes", *slab_bytes as u64);
    h.u64("epochs_settled", *epochs_settled);
    h.f64("settlement_ops_per_epoch", *settlement_ops_per_epoch);
    h.f64("epoch_netting_ratio", *epoch_netting_ratio);
    h.f64("batch_verify_throughput", *batch_verify_throughput);
    h.f64s("windowed_delivery_ratio", windowed_delivery_ratio);
    h.f64s("windowed_payoff_rate", windowed_payoff_rate);
    h.f64s("windowed_retry_rate", windowed_retry_rate);
    h.usizes("free_riders", free_riders);
    h.u64("free_rider_refusals", *free_rider_refusals);
    h.f64("free_rider_payoff", *free_rider_payoff);
    h.f64("compliant_payoff", *compliant_payoff);
    h.u64("whitewash_events", *whitewash_events);
    h.f64("reputation_evasion_rate", *reputation_evasion_rate);
    h.u64("clique_phantom_instances", *clique_phantom_instances);
    h.u64("clique_phantom_flagged", *clique_phantom_flagged);
    h.f64("clique_payout_leakage", *clique_payout_leakage);
    h.u64("bank_wal_records", *bank_wal_records);
    h.u64("bank_wal_bytes", *bank_wal_bytes);
    h.u64("bank_crashes", *bank_crashes);
    h.u64("bank_torn_tails", *bank_torn_tails);
    h.u64("bank_records_replayed", *bank_records_replayed);
    h.u64("bank_monitor_checks", *bank_monitor_checks);
    h.u64("bank_monitor_violations", *bank_monitor_violations);
    h.u64("bank_ledger_digest", *bank_ledger_digest);
    h.bool("audit_chain_verified", *audit_chain_verified);
    h.bool("interrupted", *interrupted);
    let full = h.0.finalize();
    full[..8].iter().map(|b| format!("{b:02x}")).collect()
}

/// The invariants every run must hold; `Err` names the first one broken.
pub fn check_invariants(
    r: &RunResult,
    fault_free_closed: bool,
    total: usize,
) -> Result<(), String> {
    if !r.audit_chain_verified {
        return Err("audit chain did not verify".into());
    }
    if r.bank_monitor_violations != 0 {
        return Err(format!(
            "{} bank invariant violations",
            r.bank_monitor_violations
        ));
    }
    if r.interrupted {
        return Err("run was interrupted".into());
    }
    if fault_free_closed && r.connections != total as u64 {
        return Err(format!(
            "fault-free closed run formed {} of {total} connections",
            r.connections
        ));
    }
    Ok(())
}

/// The digests committed for [`crate::workload::DEFAULT_SEED`]: one
/// `workload label digest` line per run.
const COMMITTED: &str = include_str!("../digests.txt");

/// The committed digest of run `label` of `workload`, if there is one.
#[must_use]
pub fn committed(workload: &str, label: &str) -> Option<&'static str> {
    COMMITTED.lines().find_map(|line| {
        let mut it = line.split_whitespace();
        (it.next() == Some(workload) && it.next() == Some(label))
            .then(|| it.next())
            .flatten()
    })
}
