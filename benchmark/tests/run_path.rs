//! The benchmark drives the simulator exactly as its own entry points do:
//! tracing changes nothing, the checkpoint loop matches `run_service`, and
//! an encoded checkpoint resumes to the same result.

use idpa_runbench::digest::{check_invariants, digest};
use idpa_runbench::drive::{drive, restore_and_finish};
use idpa_runbench::trace::{totals, Layer, Tracer};
use idpa_runbench::workload::{fault_closed, service_open, RunSpec, CHECKPOINT_EVERY};
use idpa_sim::{run_service, ScenarioConfig, ServiceOptions, SimulationRun};

/// `service_open` shrunk to 300 nodes and 24 pairs: every handler kind
/// except `Maintain` and `Probe` still fires.
fn small_service(seed: u64) -> RunSpec {
    let mut cfg = service_open(seed).with_nodes(300);
    cfg.churn.join_rate = 15.0;
    cfg.n_pairs = 24;
    cfg.total_transmissions = 24;
    RunSpec {
        label: "small-service".into(),
        cfg,
        checkpoint_every: Some(CHECKPOINT_EVERY),
    }
}

/// `fault_closed` shrunk to 200 nodes: `Transmit`, `Retry` and `Maintain`.
fn small_fault(seed: u64) -> RunSpec {
    let mut cfg = fault_closed(seed).with_nodes(200);
    cfg.n_pairs = 32;
    cfg.total_transmissions = 640;
    RunSpec {
        label: "small-fault".into(),
        cfg,
        checkpoint_every: None,
    }
}

fn small_paper(seed: u64) -> RunSpec {
    RunSpec {
        label: "small-paper".into(),
        cfg: ScenarioConfig {
            adversary_fraction: 0.3,
            history_shards: 2,
            ..ScenarioConfig::quick_test(seed)
        },
        checkpoint_every: None,
    }
}

#[test]
fn traced_equals_untraced_equals_execute() {
    for spec in [small_paper(3), small_fault(4), small_service(5)] {
        let plain = drive(&spec, None, false).expect("untraced run");
        let mut tracer = Tracer::with_capacity(1 << 16);
        let traced = drive(&spec, Some(&mut tracer), false).expect("traced run");
        let execute = SimulationRun::execute(spec.cfg);
        assert_eq!(plain.result, execute, "{}: untraced != execute", spec.label);
        assert_eq!(traced.result, execute, "{}: traced != execute", spec.label);
        assert_eq!(digest(&plain.result), digest(&traced.result));

        // One handler span per handled event, and one run span.
        let t = totals(tracer.spans());
        let handled: u64 = Layer::HANDLERS.iter().map(|l| t.count[l.index()]).sum();
        assert_eq!(handled, traced.events, "{}", spec.label);
        assert_eq!(t.count[Layer::Run.index()], 1);
        assert_eq!(t.count[Layer::World.index()], 1);
        assert_eq!(t.count[Layer::Finish.index()], 1);
    }
}

#[test]
fn small_workloads_fire_their_handler_kinds() {
    let mut tracer = Tracer::with_capacity(1 << 16);
    drive(&small_service(6), Some(&mut tracer), false).expect("service run");
    let t = totals(tracer.spans());
    for l in [
        Layer::Arrival,
        Layer::Retry,
        Layer::EpochSettle,
        Layer::Whitewash,
        Layer::Encode,
    ] {
        assert!(t.count[l.index()] > 0, "{} never fired", l.name());
    }
    let mut tracer = Tracer::with_capacity(1 << 16);
    drive(&small_fault(7), Some(&mut tracer), false).expect("fault run");
    let t = totals(tracer.spans());
    for l in [Layer::Transmit, Layer::Retry, Layer::Maintain] {
        assert!(t.count[l.index()] > 0, "{} never fired", l.name());
    }
}

#[test]
fn checkpoint_loop_matches_run_service() {
    let spec = small_service(8);
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("runbench-service.snap");
    let opts = ServiceOptions {
        snapshot_every: spec.checkpoint_every,
        snapshot_path: Some(path.clone()),
        ..ServiceOptions::default()
    };
    let service = run_service(spec.cfg, &opts).expect("run_service");
    let ours = drive(&spec, None, false).expect("benchmark run");
    assert_eq!(ours.result, service);
    // 24 simulated hours at a 2-hour cadence: boundaries at 2 h … 22 h.
    assert_eq!(ours.checkpoint_bytes.len(), 11);
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoint_restores_and_resumes_to_the_same_digest() {
    let spec = small_service(9);
    let out = drive(&spec, None, true).expect("benchmark run");
    let (at, bytes) = out.last_checkpoint.expect("a checkpoint was kept");
    assert_eq!(at, 22.0 * 60.0);
    let (_, resumed) = restore_and_finish(&spec, &bytes).expect("restore");
    assert_eq!(digest(&resumed), digest(&out.result));
}

#[test]
fn small_closed_runs_hold_their_invariants() {
    for spec in [small_paper(10), small_fault(11)] {
        let out = drive(&spec, None, false).expect("run");
        check_invariants(
            &out.result,
            spec.label == "small-paper",
            spec.cfg.total_transmissions,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", spec.label));
    }
}

/// Fails on the current simulator: when one epoch settles more than 1024
/// receipts, its clearing deposits are split into chunks whose serials
/// differ only past the 8-byte prefix the audit log keeps, so the bank
/// monitor reports them as double deposits.
#[test]
#[ignore = "known simulator defect: epoch clearing deposits share an audit serial prefix"]
fn service_open_holds_its_invariants() {
    let spec = &idpa_runbench::workload::Workload::ServiceOpen.runs(1)[0];
    let out = drive(spec, None, false).expect("run");
    check_invariants(&out.result, false, spec.cfg.total_transmissions).expect("invariants");
}

#[test]
fn digest_covers_every_field() {
    let base = SimulationRun::execute(small_paper(13).cfg);
    let d = digest(&base);
    let mut r = base.clone();
    r.interrupted = true;
    assert_ne!(digest(&r), d);
    let mut r = base.clone();
    r.windowed_retry_rate.push(0.0);
    assert_ne!(digest(&r), d);
    let mut r = base.clone();
    r.bank_ledger_digest ^= 1;
    assert_ne!(digest(&r), d);
    let mut r = base;
    r.avg_good_payoff = f64::from_bits(r.avg_good_payoff.to_bits() ^ 1);
    assert_ne!(digest(&r), d);
}
