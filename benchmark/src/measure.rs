//! Passes over a workload, the checks on every run, and the metrics
//! computed from them.

use std::time::{Duration, Instant};

use idpa_sim::SimError;

use crate::digest::{check_invariants, committed, digest};
use crate::drive::{drive, restore_and_finish, RunOutput};
use crate::trace::{totals, Layer, LayerTotals, Tracer};
use crate::workload::{is_fault_free_closed, RunSpec, Workload, DEFAULT_SEED};
use crate::ALLOC;

/// Exact counts a pass's results report, for attribution.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResultCounts {
    /// Connections formed, summed over runs.
    pub connections: u64,
    /// WAL records committed, summed over runs.
    pub wal_records: u64,
    /// WAL bytes committed, summed over runs.
    pub wal_bytes: u64,
    /// Settlement epochs, summed over runs.
    pub epochs_settled: u64,
    /// Largest peak of materialized per-node probe cells over runs.
    pub peak_materialized_nodes: u64,
    /// Lazy-lifecycle evictions, summed over runs.
    pub node_evictions: u64,
    /// Largest modelled slab footprint over runs, in bytes.
    pub slab_bytes: u64,
}

/// One pass: every run of the workload once.
#[derive(Debug)]
pub struct PassRecord {
    /// Set-up host time summed over runs.
    pub setup_ns: u64,
    /// Host time of each run.
    pub run_ns: Vec<u64>,
    /// Peak live heap during the pass above the live heap at its start.
    pub peak_heap_bytes: usize,
    /// Events handled, summed over runs.
    pub events: u64,
    /// Size of every checkpoint encoded in the pass.
    pub checkpoint_bytes: Vec<usize>,
    /// Counts from the results.
    pub counts: ResultCounts,
    /// The spans, for a traced pass.
    pub tracer: Option<Tracer>,
}

impl PassRecord {
    /// Host time of the pass: set-up, event loop, checkpoints and finish
    /// of every run, without the checks between runs.
    #[must_use]
    pub fn pass_ns(&self) -> u64 {
        self.run_ns.iter().sum()
    }
}

/// Checks every run and counts the ones that fail.
#[derive(Debug)]
pub struct Checker {
    workload: Workload,
    seed: u64,
    reference: Vec<Option<String>>,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs whose digest or invariant check failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checker {
    /// A checker for `workload` at benchmark seed `seed`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Self {
        Checker {
            workload,
            seed,
            reference: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Checks run `index` of a pass. Its digest must equal the first
    /// pass's (so traced and untraced passes agree) and, at the default
    /// seed, the committed one; its invariants must hold.
    pub fn check(&mut self, index: usize, spec: &RunSpec, out: &Result<RunOutput, SimError>) {
        self.attempted += 1;
        if let Err(reason) = self.verdict(index, spec, out) {
            self.failed += 1;
            self.failures.push(format!("{}: {reason}", spec.label));
        }
    }

    fn verdict(
        &mut self,
        index: usize,
        spec: &RunSpec,
        out: &Result<RunOutput, SimError>,
    ) -> Result<(), String> {
        let out = out.as_ref().map_err(|e| format!("run failed: {e}"))?;
        check_invariants(
            &out.result,
            is_fault_free_closed(&spec.cfg),
            spec.cfg.total_transmissions,
        )?;
        self.check_digest(index, spec, &digest(&out.result))
    }

    /// Compares a digest with the first pass's and the committed one.
    pub fn check_digest(&mut self, index: usize, spec: &RunSpec, d: &str) -> Result<(), String> {
        if self.reference.len() <= index {
            self.reference.resize(index + 1, None);
        }
        match &self.reference[index] {
            Some(first) if first != d => {
                return Err(format!("digest {d} differs from the first pass's {first}"));
            }
            Some(_) => {}
            None => self.reference[index] = Some(d.to_string()),
        }
        if self.seed == DEFAULT_SEED {
            match committed(self.workload.name(), &spec.label) {
                Some(c) if c == d => {}
                Some(c) => return Err(format!("digest {d} differs from the committed {c}")),
                None => return Err("no committed digest".into()),
            }
        }
        Ok(())
    }

    /// Counts one extra checked operation that failed for `reason`.
    pub fn fail(&mut self, label: &str, reason: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(format!("{label}: {reason}"));
    }

    /// Counts one extra checked operation that passed.
    pub fn pass(&mut self) {
        self.attempted += 1;
    }
}

/// Runs every spec once. With `tracer`, records spans into it and keeps
/// the tracer in the record; with `keep_last_checkpoint`, also returns the
/// last checkpoint of the last run that took one.
pub fn run_pass(
    specs: &[RunSpec],
    mut tracer: Option<Tracer>,
    keep_last_checkpoint: bool,
    checker: &mut Checker,
) -> (PassRecord, Option<(usize, Vec<u8>)>) {
    let mut record = PassRecord {
        setup_ns: 0,
        run_ns: Vec::with_capacity(specs.len()),
        peak_heap_bytes: 0,
        events: 0,
        checkpoint_bytes: Vec::new(),
        counts: ResultCounts::default(),
        tracer: None,
    };
    let mut last = None;
    if let Some(t) = tracer.as_mut() {
        t.enter(Layer::Pass);
    }
    let base = ALLOC.current_bytes();
    ALLOC.reset_peak();
    for (i, spec) in specs.iter().enumerate() {
        let out = drive(spec, tracer.as_mut(), keep_last_checkpoint);
        checker.check(i, spec, &out);
        let Ok(out) = out else { continue };
        record.setup_ns += out.setup_ns;
        record.run_ns.push(out.total_ns);
        record.events += out.events;
        record.checkpoint_bytes.extend(&out.checkpoint_bytes);
        let r = &out.result;
        let c = &mut record.counts;
        c.connections += r.connections;
        c.wal_records += r.bank_wal_records;
        c.wal_bytes += r.bank_wal_bytes;
        c.epochs_settled += r.epochs_settled;
        c.peak_materialized_nodes = c
            .peak_materialized_nodes
            .max(r.peak_materialized_nodes as u64);
        c.node_evictions += r.node_evictions;
        c.slab_bytes = c.slab_bytes.max(r.slab_bytes as u64);
        if let Some((_, bytes)) = out.last_checkpoint {
            last = Some((i, bytes));
        }
    }
    record.peak_heap_bytes = ALLOC.peak_bytes().saturating_sub(base);
    if let Some(t) = tracer.as_mut() {
        t.exit();
    }
    record.tracer = tracer;
    (record, last)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count or other context for the human-readable report.
    pub note: String,
}

impl Metric {
    fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        }
    }
}

/// Median of `v` (mean of the middle two for even lengths); 0 when empty.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `v` (0 when empty).
#[must_use]
pub fn quantile(v: &[u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Samples beyond the `q`-quantile of `n` samples.
fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

const NS_PER_S: f64 = 1e9;
const MIB: f64 = 1024.0 * 1024.0;

/// Each run's best host time over the passes, in run order.
#[must_use]
pub fn best_run_ns(passes: &[PassRecord]) -> Vec<u64> {
    let runs = passes.iter().map(|p| p.run_ns.len()).min().unwrap_or(0);
    (0..runs)
        .map(|i| passes.iter().map(|p| p.run_ns[i]).min().unwrap_or(0))
        .collect()
}

/// The end-to-end metrics of untraced passes. Timings take each run's
/// best time over the passes, which slow spells of a shared host shorter
/// than the measurement do not move; set-up time and heap are medians
/// over passes.
#[must_use]
pub fn end_to_end(passes: &[PassRecord]) -> Vec<Metric> {
    let n = passes.len();
    let setup: Vec<f64> = passes
        .iter()
        .map(|p| p.setup_ns as f64 / NS_PER_S)
        .collect();
    let best = best_run_ns(passes);
    let best_s = best.iter().sum::<u64>() as f64 / NS_PER_S;
    let connections = passes.first().map_or(0, |p| p.counts.connections);
    let heap: Vec<f64> = passes
        .iter()
        .map(|p| p.peak_heap_bytes as f64 / MIB)
        .collect();
    let ms = |ns: u64| ns as f64 / 1e6;
    let per_run = |q: f64| {
        format!(
            "{} runs, {} beyond; each run's best of {n} passes",
            best.len(),
            beyond(best.len(), q)
        )
    };
    vec![
        Metric::new(
            "setup_s",
            median(&setup),
            "s",
            format!("median of {n} passes"),
        ),
        Metric::new(
            "conn_per_s",
            connections as f64 / best_s,
            "1/s",
            format!("{connections} connections per pass; best of {n} passes per run"),
        ),
        Metric::new("run_p50_ms", ms(quantile(&best, 0.5)), "ms", per_run(0.5)),
        Metric::new("run_p90_ms", ms(quantile(&best, 0.9)), "ms", per_run(0.9)),
        Metric::new(
            "peak_heap_mib",
            median(&heap),
            "MiB",
            format!("median of {n} passes"),
        ),
    ]
}

/// The per-layer metrics the JSON result line carries, as listed in
/// `BENCHMARK.json`: those that are measured, not structurally zero, on
/// every workload listed there. The rest (handler kinds that fire on one
/// workload only, snapshot timings) are printed in the report and kept in
/// the span file.
pub const JSON_LAYER_METRICS: [&str; 20] = [
    "world.generate_s",
    "runner.new_s",
    "runner.finish_s",
    "desim.events",
    "desim.calendar_s",
    "desim.ns_per_event",
    "handle.transmit.count",
    "handle.transmit.busy_s",
    "handle.transmit.p50_us",
    "handle.transmit.p99_us",
    "handle.retry.count",
    "handle.maintain.count",
    "runner.attempts_per_conn",
    "payment.wal_records",
    "payment.wal_bytes",
    "overlay.peak_materialized_nodes",
    "overlay.node_evictions",
    "runner.slab_bytes",
    "trace.overhead_pct",
    "trace.accounted_pct",
];

/// The per-layer metrics of traced passes, with the untraced passes they
/// alternated with as the overhead baseline. `restore_ns` is the time of
/// one `snapshot::restore`, when the workload checkpoints.
#[must_use]
pub fn per_layer(
    untraced: &[PassRecord],
    traced: &[PassRecord],
    restore_ns: Option<u64>,
) -> Vec<Metric> {
    let t: Vec<LayerTotals> = traced
        .iter()
        .filter_map(|p| p.tracer.as_ref().map(|tr| totals(tr.spans())))
        .collect();
    let n = t.len();
    let best = t
        .iter()
        .min_by_key(|x| x.run_ns)
        .expect("at least one traced pass");
    let self_s = |l: Layer| best.self_ns[l.index()] as f64 / NS_PER_S;
    let pooled = |l: Layer| -> Vec<u64> {
        t.iter()
            .flat_map(|x| x.durations[l.index()].iter().copied())
            .collect()
    };
    let passes = format!("fastest of {n} traced passes");
    let mut m = vec![
        Metric::new(
            "world.generate_s",
            self_s(Layer::World),
            "s",
            passes.clone(),
        ),
        Metric::new("runner.new_s", self_s(Layer::New), "s", passes.clone()),
        Metric::new(
            "runner.finish_s",
            self_s(Layer::Finish),
            "s",
            passes.clone(),
        ),
    ];
    let events: u64 = Layer::HANDLERS.iter().map(|l| best.count[l.index()]).sum();
    let calendar_s = self_s(Layer::Desim);
    m.push(Metric::new(
        "desim.events",
        events as f64,
        "count",
        "per pass",
    ));
    m.push(Metric::new(
        "desim.calendar_s",
        calendar_s,
        "s",
        passes.clone(),
    ));
    m.push(Metric::new(
        "desim.ns_per_event",
        if events == 0 {
            0.0
        } else {
            calendar_s * NS_PER_S / events as f64
        },
        "ns",
        passes.clone(),
    ));
    for l in Layer::HANDLERS {
        let count = best.count[l.index()];
        m.push(Metric::new(
            format!("{}.count", l.name()),
            count as f64,
            "count",
            "per pass",
        ));
        if l == Layer::Probe {
            continue;
        }
        m.push(Metric::new(
            format!("{}.busy_s", l.name()),
            self_s(l),
            "s",
            passes.clone(),
        ));
        if l == Layer::EpochSettle {
            continue;
        }
        let d = pooled(l);
        for (q, label) in [(0.5, "p50_us"), (0.99, "p99_us")] {
            let ok = beyond(d.len(), q) >= 10;
            let value = if ok {
                quantile(&d, q) as f64 / 1e3
            } else {
                0.0
            };
            let note = if ok {
                format!("{} events, {} beyond", d.len(), beyond(d.len(), q))
            } else {
                format!("n/a: {} events, fewer than 10 beyond", d.len())
            };
            m.push(Metric::new(
                format!("{}.{label}", l.name()),
                value,
                "us",
                note,
            ));
        }
    }
    let enc = pooled(Layer::Encode);
    let ms = |ns: u64| ns as f64 / 1e6;
    m.push(Metric::new(
        "snapshot.encodes",
        best.count[Layer::Encode.index()] as f64,
        "count",
        "per pass",
    ));
    m.push(Metric::new(
        "snapshot.encode_p50_ms",
        ms(quantile(&enc, 0.5)),
        "ms",
        format!("{} encodes", enc.len()),
    ));
    m.push(Metric::new(
        "snapshot.encode_max_ms",
        ms(enc.iter().copied().max().unwrap_or(0)),
        "ms",
        format!("{} encodes", enc.len()),
    ));
    let snap_bytes = traced
        .iter()
        .flat_map(|p| p.checkpoint_bytes.iter().copied())
        .max()
        .unwrap_or(0);
    m.push(Metric::new(
        "snapshot.bytes",
        snap_bytes as f64,
        "B",
        "largest checkpoint",
    ));
    m.push(Metric::new(
        "snapshot.restore_ms",
        restore_ns.map_or(0.0, ms),
        "ms",
        if restore_ns.is_some() {
            "one restore of the last checkpoint"
        } else {
            "n/a: no checkpoints"
        },
    ));
    let c = traced[0].counts;
    let attempts: u64 = [Layer::Transmit, Layer::Arrival, Layer::Retry]
        .iter()
        .map(|l| best.count[l.index()])
        .sum();
    m.push(Metric::new(
        "runner.attempts_per_conn",
        if c.connections == 0 {
            0.0
        } else {
            attempts as f64 / c.connections as f64
        },
        "ratio",
        format!(
            "{attempts} handled attempts / {} connections",
            c.connections
        ),
    ));
    m.push(Metric::new(
        "payment.wal_records",
        c.wal_records as f64,
        "count",
        "per pass",
    ));
    m.push(Metric::new(
        "payment.wal_bytes",
        c.wal_bytes as f64,
        "B",
        "per pass",
    ));
    m.push(Metric::new(
        "payment.epochs_settled",
        c.epochs_settled as f64,
        "count",
        "per pass",
    ));
    m.push(Metric::new(
        "overlay.peak_materialized_nodes",
        c.peak_materialized_nodes as f64,
        "count",
        "largest over runs",
    ));
    m.push(Metric::new(
        "overlay.node_evictions",
        c.node_evictions as f64,
        "count",
        "per pass",
    ));
    m.push(Metric::new(
        "runner.slab_bytes",
        c.slab_bytes as f64,
        "B",
        "largest over runs",
    ));

    let untraced_s = untraced.iter().map(PassRecord::pass_ns).min().unwrap_or(0) as f64 / NS_PER_S;
    let traced_s = best.run_ns as f64 / NS_PER_S;
    let layered_s = Layer::ALL
        .iter()
        .filter(|l| !matches!(l, Layer::Pass | Layer::Run))
        .map(|l| best.self_ns[l.index()])
        .sum::<u64>() as f64
        / NS_PER_S;
    m.push(Metric::new(
        "trace.overhead_pct",
        (traced_s / untraced_s - 1.0) * 100.0,
        "%",
        format!("fastest traced pass {traced_s:.4} s vs fastest untraced {untraced_s:.4} s"),
    ));
    m.push(Metric::new(
        "trace.accounted_pct",
        layered_s / untraced_s * 100.0,
        "%",
        "fastest traced pass: layer self times incl. calendar over fastest untraced pass",
    ));
    // Where the fastest traced pass's time went, layer by layer; `run` is
    // the glue between the calls, `desim` the calendar.
    for l in Layer::ALL {
        if l != Layer::Pass && best.count[l.index()] > 0 {
            m.push(Metric::new(
                format!("share.{}", l.name()),
                best.self_ns[l.index()] as f64 / best.run_ns as f64 * 100.0,
                "%",
                "self time over the fastest traced pass",
            ));
        }
    }
    m
}

/// Everything one invocation measured for one workload.
#[derive(Debug)]
pub struct Outcome {
    /// End-to-end metrics of the untraced passes.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, when traced.
    pub per_layer: Vec<Metric>,
    /// The checks.
    pub checker: Checker,
    /// The spans of the fastest traced pass, which the per-layer times
    /// come from.
    pub trace: Option<Tracer>,
    /// Host seconds of each pass, in the order run.
    pub pass_s: Vec<f64>,
}

/// Runs passes of `workload` for `seconds` seconds: untraced ones, or with
/// `traced`, alternating untraced and traced ones. A traced invocation of
/// a checkpointing workload also restores the last checkpoint of its first
/// traced pass and checks that it finishes to the same digest.
#[must_use]
pub fn measure(workload: Workload, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let specs = workload.runs(seed);
    let mut checker = Checker::new(workload, seed);
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut timed = Vec::new();
    let mut restore_ns = None;
    let mut pass_s = Vec::new();
    loop {
        let (record, _) = run_pass(&specs, None, false, &mut checker);
        pass_s.push(record.pass_ns() as f64 / NS_PER_S);
        if traced {
            let capacity =
                record.events as usize + 6 * specs.len() + 2 * record.checkpoint_bytes.len() + 2;
            let want_checkpoint =
                timed.is_empty() && specs.iter().any(|s| s.checkpoint_every.is_some());
            let (t, last) = run_pass(
                &specs,
                Some(Tracer::with_capacity(capacity)),
                want_checkpoint,
                &mut checker,
            );
            pass_s.push(t.pass_ns() as f64 / NS_PER_S);
            timed.push(t);
            if let Some((i, bytes)) = last {
                restore_ns = check_restore(&specs[i], i, &bytes, &mut checker);
            }
        }
        plain.push(record);
        if start.elapsed() >= budget {
            break;
        }
    }
    let per_layer = if traced {
        per_layer(&plain, &timed, restore_ns)
    } else {
        Vec::new()
    };
    let trace = timed
        .into_iter()
        .min_by_key(PassRecord::pass_ns)
        .and_then(|p| p.tracer);
    Outcome {
        end_to_end: end_to_end(&plain),
        per_layer,
        checker,
        trace,
        pass_s,
    }
}

/// Restores a checkpoint, finishes the run, and checks its digest against
/// the uninterrupted run's. Returns the restore time when it succeeded.
fn check_restore(spec: &RunSpec, index: usize, bytes: &[u8], checker: &mut Checker) -> Option<u64> {
    let label = format!("{} (restored)", spec.label);
    match restore_and_finish(spec, bytes) {
        Ok((ns, result)) => match checker.check_digest(index, spec, &digest(&result)) {
            Ok(()) => {
                checker.pass();
                Some(ns)
            }
            Err(reason) => {
                checker.fail(&label, reason);
                None
            }
        },
        Err(e) => {
            checker.fail(&label, format!("restore failed: {e}"));
            None
        }
    }
}
