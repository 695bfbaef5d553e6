//! The §5 settlement pipeline: one accumulator, two flush policies.
//!
//! The runner checks each completed connection's evidence exactly once, as
//! its confirmation returns ([`idpa_payment::PathValidator::check`]), and
//! folds the report into [`Settlement`]: per-pair attested and payable
//! totals, the union of flagged cheaters, and a pending window of payouts.
//! The `--settlement` mode only decides when that window is flushed:
//! per-bundle flushes after every connection; epoch flushes at every
//! [`Ev::EpochSettle`](crate::runner::Ev::EpochSettle) boundary and once
//! at the end of the run. A flush is where the bank sees the window: the
//! durable bank (when on) commits it, and the epoch policy counts the
//! bank-facing operations it collapses into. The totals never depend on
//! when flushes happen, so payoffs, shortfall, flags and discrepancies are
//! mode-invariant by construction; only the delay model and the epoch
//! counters differ.

use std::collections::{BTreeMap, BTreeSet};

use idpa_desim::FaultPlan;
use idpa_payment::ValidationReport;

use crate::durability::{BankDurabilityState, DurabilityOutcome, CLEARING_BATCH};
use crate::scenario::SettlementMode;

/// The settlement accumulator (lives in the fault runtime).
pub(crate) struct Settlement {
    /// The flush policy.
    policy: SettlementMode,
    /// Epoch length in minutes (the epoch policy's delay model).
    epoch_length: f64,
    /// Per-pair time of the last completed connection (`< 0` = none).
    pub(crate) last_completion: Vec<f64>,
    /// Per-pair manifest-attested forwarding instances.
    pub(crate) expected: Vec<u64>,
    /// Per-pair receipt-backed (payable) instances.
    pub(crate) validated: Vec<u64>,
    /// Union of flagged forwarders.
    pub(crate) flagged: BTreeSet<usize>,
    /// Phantom instances withheld by the cross-confirmation check.
    pub(crate) phantom_flagged: u64,
    /// Pending window: connections completed since the last flush.
    pub(crate) pending_connections: u64,
    /// Pending window: payable instances per node since the last flush.
    pub(crate) pending_paid: BTreeMap<u64, u64>,
    /// Epoch flushes that settled at least one connection.
    pub(crate) epochs_settled: u64,
    /// Netted payout operations: one per account paid per epoch, however
    /// many receipts it earned in the window.
    pub(crate) payout_ops: u64,
    /// Batched deposit calls: one per window of up to [`CLEARING_BATCH`]
    /// individually verified deposits.
    pub(crate) batch_ops: u64,
    /// Receipts cleared through epoch flushes.
    pub(crate) receipts_netted: u64,
    /// The durable bank (`Some` only under `--bank-durability wal`): every
    /// flush commits the window to its WAL-backed ledger.
    pub(crate) bank: Option<BankDurabilityState>,
}

/// What [`Settlement::finish`] hands to the run result. The default is the
/// fault-free run's: nothing attested, nothing flagged, no bank.
#[derive(Debug, Default)]
pub(crate) struct SettlementSummary {
    pub(crate) payment_shortfall: f64,
    pub(crate) settlement_delay: f64,
    pub(crate) flagged_cheaters: Vec<usize>,
    /// Pairs whose payable instances fall short of the attested ones.
    pub(crate) audit_discrepancies: u64,
    pub(crate) phantom_flagged: u64,
    pub(crate) epochs_settled: u64,
    pub(crate) settlement_ops_per_epoch: f64,
    pub(crate) epoch_netting_ratio: f64,
    pub(crate) batch_verify_throughput: f64,
    pub(crate) bank: Option<DurabilityOutcome>,
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Settlement {
    /// An empty accumulator for `n_pairs` bundles.
    pub(crate) fn new(
        policy: SettlementMode,
        epoch_length: f64,
        n_pairs: usize,
        bank: Option<BankDurabilityState>,
    ) -> Self {
        Settlement {
            policy,
            epoch_length,
            last_completion: vec![-1.0; n_pairs],
            expected: vec![0; n_pairs],
            validated: vec![0; n_pairs],
            flagged: BTreeSet::new(),
            phantom_flagged: 0,
            pending_connections: 0,
            pending_paid: BTreeMap::new(),
            epochs_settled: 0,
            payout_ops: 0,
            batch_ops: 0,
            receipts_netted: 0,
            bank,
        }
    }

    /// Folds one completed connection's checked evidence into the totals
    /// and the pending window; the per-bundle policy flushes it at once.
    pub(crate) fn record(
        &mut self,
        pair: usize,
        now: f64,
        report: &ValidationReport,
        plan: &FaultPlan,
    ) {
        self.last_completion[pair] = now;
        self.expected[pair] += report.expected_instances;
        self.validated[pair] += report.validated_instances;
        self.phantom_flagged += report.phantom_instances;
        self.flagged
            .extend(report.flagged.iter().map(|a| a.0 as usize));
        for (a, c) in &report.paid_counts {
            *self.pending_paid.entry(a.0).or_insert(0) += c;
        }
        self.pending_connections += 1;
        if self.policy == SettlementMode::PerBundle {
            self.flush(plan);
        }
    }

    /// Settles the pending window: the durable bank commits it as one
    /// flush, and the epoch policy counts the bank-facing operations it
    /// collapses into (one netted payout per paid account, one batched
    /// deposit call per [`CLEARING_BATCH`] receipts). A no-op when no
    /// connection completed since the last flush.
    pub(crate) fn flush(&mut self, plan: &FaultPlan) {
        if self.pending_connections == 0 {
            return;
        }
        self.pending_connections = 0;
        let paid = std::mem::take(&mut self.pending_paid);
        let receipts: u64 = paid.values().sum();
        if self.policy == SettlementMode::Epoch {
            self.epochs_settled += 1;
            self.receipts_netted += receipts;
            self.payout_ops += paid.len() as u64;
            self.batch_ops += receipts.div_ceil(CLEARING_BATCH);
        }
        if let Some(bank) = self.bank.as_mut() {
            bank.settle(&paid, receipts, plan);
        }
    }

    /// The end of the run: flushes the tail window, closes the durable
    /// bank (whose audit chain must verify) and reads the aggregates.
    ///
    /// The delay model is the policy's: per-bundle funds wait for the
    /// bank to come back up after a pair's last completion; epoch funds
    /// leave at the first boundary at or after it, further delayed by any
    /// outage covering that boundary — an outage stalls an epoch, not a
    /// bundle.
    pub(crate) fn finish(&mut self, plan: &FaultPlan) -> SettlementSummary {
        self.flush(plan);
        let bank = self.bank.as_mut().map(BankDurabilityState::finalize);
        if let Some(out) = &bank {
            assert!(
                out.audit_ok,
                "durable bank audit hash chain failed verification"
            );
        }
        let expected: u64 = self.expected.iter().sum();
        let validated: u64 = self.validated.iter().sum();
        let payment_shortfall = if expected == 0 {
            0.0
        } else {
            1.0 - validated as f64 / expected as f64
        };
        let audit_discrepancies = self
            .expected
            .iter()
            .zip(&self.validated)
            .filter(|(e, v)| v < e)
            .count() as u64;
        let delays: Vec<f64> = self
            .last_completion
            .iter()
            .filter(|&&t| t >= 0.0)
            .map(|&t| match self.policy {
                SettlementMode::PerBundle => plan.next_bank_up(t) - t,
                SettlementMode::Epoch => {
                    let boundary = (t / self.epoch_length).ceil() * self.epoch_length;
                    plan.next_bank_up(boundary) - t
                }
            })
            .collect();
        let settlement_delay = if delays.is_empty() {
            0.0
        } else {
            delays.iter().sum::<f64>() / delays.len() as f64
        };
        SettlementSummary {
            payment_shortfall,
            settlement_delay,
            flagged_cheaters: self.flagged.iter().copied().collect(),
            audit_discrepancies,
            phantom_flagged: self.phantom_flagged,
            epochs_settled: self.epochs_settled,
            settlement_ops_per_epoch: ratio(self.payout_ops + self.batch_ops, self.epochs_settled),
            epoch_netting_ratio: ratio(self.receipts_netted, self.payout_ops),
            batch_verify_throughput: ratio(self.receipts_netted, self.batch_ops),
            bank,
        }
    }
}
