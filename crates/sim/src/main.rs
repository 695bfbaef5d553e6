//! `idpa-sim` — regenerate the paper's tables and figures.
//!
//! ```text
//! idpa-sim [EXPERIMENT ...] [--reps N] [--threads N] [--out DIR] [--list] [SCENARIO FLAGS]
//! idpa-sim service [--seed N] [--workload closed|open] [--open-arrival-rate R]
//!                  [--window-len MIN] [--window-warmup MIN] [--snapshot-every MIN]
//!                  [--snapshot-path P] [--resume P] [--max-wall-secs S] [SCENARIO FLAGS]
//! idpa-sim trace-export [SEED]
//! ```
//!
//! With no experiment names, runs everything in the registry. Markdown
//! goes to stdout; per-experiment CSVs to the output directory.
//!
//! `idpa-sim service [FLAGS]` runs one scenario as a crash-safe service
//! instead: open or closed workload, periodic checkpoints, deterministic
//! resume and graceful wall-clock shutdown.
//!
//! Both subcommands read the scenario flags (`--quick`, the mode flags and
//! every `--fault-*` and `--adversary-*` flag) from one table, [`SHARED`],
//! into [`Options`], build the scenario with [`Options::base_config`] and
//! validate it once with [`ScenarioConfig::validate`]. `--help` lists them.

use std::path::PathBuf;
use std::process::ExitCode;
use std::slice::Iter;

use idpa_sim::experiments::{registry, Experiment, Options};
use idpa_sim::{
    run_service, BankDurability, FaultResponse, NodeLifecycle, ProbeMode, ScenarioConfig,
    ServiceOptions, SettlementMode, WorkloadMode,
};

/// One command-line flag: its name, value placeholder, help text and how
/// it writes its value into the parse target `T`.
struct Flag<T> {
    /// The flag as typed, e.g. `--fault-drop`.
    name: &'static str,
    /// Placeholder of the value in help output; empty for a switch.
    arg: &'static str,
    /// Help text; each `\n` continues on an indented line.
    help: &'static str,
    /// Parses the value (`""` for a switch) into the target. The error
    /// names what the flag needs, e.g. "a finite number".
    set: fn(&mut T, &str) -> Result<(), String>,
}

/// Stores a parsed value, or passes the parse error on.
fn put<V>(slot: &mut V, value: Result<V, String>) -> Result<(), String> {
    *slot = value?;
    Ok(())
}

fn finite(v: &str) -> Result<f64, String> {
    v.parse::<f64>()
        .ok()
        .filter(|x| x.is_finite())
        .ok_or_else(|| "a finite number".into())
}

fn int<V: std::str::FromStr>(v: &str) -> Result<V, String> {
    v.parse().map_err(|_| "a non-negative integer".into())
}

fn path(v: &str) -> Result<PathBuf, String> {
    if v.is_empty() {
        Err("a path".into())
    } else {
        Ok(v.into())
    }
}

/// The mode named `v` among `modes`.
fn mode<M: Copy>(v: &str, modes: &[(&str, M)]) -> Result<M, String> {
    modes
        .iter()
        .find(|(n, _)| *n == v)
        .map(|&(_, m)| m)
        .ok_or_else(|| {
            let names: Vec<String> = modes.iter().map(|(n, _)| format!("'{n}'")).collect();
            names.join(" or ")
        })
}

/// The scenario flags both subcommands accept.
#[rustfmt::skip]
const SHARED: &[Flag<Options>] = &[
    Flag { name: "--quick", arg: "", help: "quick-test scale (20 nodes, 20 pairs, 200 transmissions)",
        set: |o, _| { o.quick = true; Ok(()) } },
    Flag { name: "--probe-mode", arg: "MODE", help: "'lazy' (probe state materializes on demand, the\n\
            default) or 'eager' (every node probes every tick);\nbit-identical results",
        set: |o, v| put(&mut o.probe_mode, mode(v, &[("eager", ProbeMode::Eager), ("lazy", ProbeMode::Lazy)])) },
    Flag { name: "--node-lifecycle", arg: "MODE", help: "'eager' (all N nodes allocated up front, the\n\
            default) or 'lazy' (state materializes on first touch,\nevicts when idle; bit-identical results, bounded\nmemory)",
        set: |o, v| put(&mut o.node_lifecycle, mode(v, &[("eager", NodeLifecycle::Eager), ("lazy", NodeLifecycle::Lazy)])) },
    Flag { name: "--history-shards", arg: "N", help: "history-arena shard count (0 = one per worker\nthread; results identical at any N)",
        set: |o, v| put(&mut o.history_shards, int(v)) },
    Flag { name: "--settlement", arg: "MODE", help: "'per-bundle' (each bundle settles alone, the\n\
            default) or 'epoch' (payouts netted and deposits\nbatched at epoch boundaries; identical economics,\n\
            amortized bank load). Takes effect only with the\nevidence layer on (a --fault-* rate, an\n\
            --adversary-* strategy or --bank-durability wal);\notherwise a warned no-op",
        set: |o, v| put(&mut o.settlement, mode(v, &[("per-bundle", SettlementMode::PerBundle), ("epoch", SettlementMode::Epoch)])) },
    Flag { name: "--epoch-length", arg: "MIN", help: "epoch length for '--settlement epoch'",
        set: |o, v| put(&mut o.epoch_length, finite(v)) },
    Flag { name: "--bank-durability", arg: "MODE", help: "'off' (the default) or 'wal' (write-ahead ledger\n\
            log, torn-write crash recovery, warm failover\nreplica and the runtime invariant monitor)",
        set: |o, v| put(&mut o.bank_durability, mode(v, &[("off", BankDurability::Off), ("wal", BankDurability::Wal)])) },
    Flag { name: "--fault-crash", arg: "P", help: "per-hop forwarder crash probability",
        set: |o, v| put(&mut o.fault.crash_rate, finite(v)) },
    Flag { name: "--fault-drop", arg: "P", help: "per-edge message drop probability",
        set: |o, v| put(&mut o.fault.drop_rate, finite(v)) },
    Flag { name: "--fault-delay", arg: "P", help: "per-edge extra-delay probability",
        set: |o, v| put(&mut o.fault.delay_rate, finite(v)) },
    Flag { name: "--fault-delay-mean", arg: "MIN", help: "mean of the injected edge delay",
        set: |o, v| put(&mut o.fault.delay_mean, finite(v)) },
    Flag { name: "--fault-cheat", arg: "F", help: "fraction of nodes that cheat on confirmations",
        set: |o, v| put(&mut o.fault.cheat_fraction, finite(v)) },
    Flag { name: "--fault-cheat-corrupt-share", arg: "S", help: "share of cheats that corrupt (vs drop) receipts",
        set: |o, v| put(&mut o.fault.cheat_corrupt_share, finite(v)) },
    Flag { name: "--fault-bank-downtime", arg: "F", help: "long-run fraction of time the bank is down",
        set: |o, v| put(&mut o.fault.bank_downtime, finite(v)) },
    Flag { name: "--fault-bank-outage-mean", arg: "MIN", help: "mean length of one bank outage",
        set: |o, v| put(&mut o.fault.bank_outage_mean, finite(v)) },
    Flag { name: "--fault-bank-crash", arg: "P", help: "per-flush bank crash probability (kills the\n\
            primary mid-epoch; needs --bank-durability wal,\nthe warm replica takes over)",
        set: |o, v| put(&mut o.fault.bank_crash_rate, finite(v)) },
    Flag { name: "--fault-bank-crash-torn", arg: "F", help: "share of bank crashes that tear the final WAL\n\
            record (partial write, discarded by recovery)",
        set: |o, v| put(&mut o.fault.bank_crash_torn_share, finite(v)) },
    Flag { name: "--fault-retries", arg: "N", help: "max retransmission attempts per message",
        set: |o, v| put(&mut o.fault.max_retries, int(v)) },
    Flag { name: "--fault-timeout", arg: "MIN", help: "base retry timeout (exponential backoff)",
        set: |o, v| put(&mut o.fault.retry_timeout, finite(v)) },
    Flag { name: "--fault-response", arg: "MODE", help: "'static' (baseline retry protocol) or 'adaptive'\n\
            (reputation-driven suppression, probe invalidation,\nescalated reformation)",
        set: |o, v| put(&mut o.fault.response, mode(v, &[("static", FaultResponse::Static), ("adaptive", FaultResponse::Adaptive)])) },
    Flag { name: "--reputation-weight", arg: "W", help: "w_r of the adaptive quality model\n\
            q = w_s*sigma + w_a*alpha + w_r*rho, with w_s = w_a =\n(1 - w_r)/2 (0 = the paper's two-term model)",
        set: |o, v| put(&mut o.reputation_weight, finite(v)) },
    Flag { name: "--adversary-free-riders", arg: "F", help: "fraction of nodes that ghost forwarding duty",
        set: |o, v| put(&mut o.adversary.free_rider_fraction, finite(v)) },
    Flag { name: "--adversary-whitewash", arg: "F", help: "fraction of nodes that shed their identity",
        set: |o, v| put(&mut o.adversary.whitewash_fraction, finite(v)) },
    Flag { name: "--adversary-whitewash-interval", arg: "MIN", help: "mean minutes between rejoins",
        set: |o, v| put(&mut o.adversary.whitewash_interval, finite(v)) },
    Flag { name: "--adversary-cliques", arg: "N", help: "number of colluding cliques",
        set: |o, v| put(&mut o.adversary.clique_count, int(v)) },
    Flag { name: "--adversary-clique-size", arg: "K", help: "members per clique (>= 2)",
        set: |o, v| put(&mut o.adversary.clique_size, int(v)) },
    Flag { name: "--adversary-forge-rate", arg: "P", help: "per-connection phantom-forge probability",
        set: |o, v| put(&mut o.adversary.clique_forge_rate, finite(v)) },
    Flag { name: "--adversary-age-discount", arg: "", help: "defense: identity-age reputation discount",
        set: |o, _| { o.adversary.whitewash_age_discount = true; Ok(()) } },
    Flag { name: "--adversary-maturity", arg: "MIN", help: "minutes to full weight under the discount",
        set: |o, v| put(&mut o.adversary.reputation_maturity, finite(v)) },
    Flag { name: "--adversary-cross-check", arg: "", help: "defense: initiator cross-confirmation of manifest\nhops vs observed forwarders",
        set: |o, _| { o.adversary.clique_cross_check = true; Ok(()) } },
];

/// The experiment runner's own flags (besides `--list` and `--help`).
#[rustfmt::skip]
const EXPERIMENT: &[Flag<Options>] = &[
    Flag { name: "--reps", arg: "N", help: "replications per sweep point",
        set: |o, v| put(&mut o.reps, int(v)) },
    Flag { name: "--threads", arg: "N", help: "worker threads (0 = auto; results identical at any N)",
        set: |o, v| put(&mut o.threads, int(v)) },
    Flag { name: "--out", arg: "DIR", help: "directory for per-experiment CSVs",
        set: |o, v| put(&mut o.out_dir, path(v)) },
];

/// The parsed command line of `idpa-sim service`.
struct Service {
    /// The scenario flags.
    opts: Options,
    seed: u64,
    workload: WorkloadMode,
    open_arrival_rate: f64,
    window_len: f64,
    window_warmup: f64,
    svc: ServiceOptions,
}

impl Default for Service {
    fn default() -> Self {
        let cfg = ScenarioConfig::default();
        Service {
            // `IDPA_SVC_SMOKE=1` forces the quick tier — the verify.sh
            // service smoke stage sets it so CI can't accidentally launch a
            // paper-scale service run.
            opts: Options {
                quick: std::env::var("IDPA_SVC_SMOKE").is_ok_and(|v| v == "1"),
                ..Options::default()
            },
            seed: cfg.seed,
            workload: cfg.workload,
            open_arrival_rate: cfg.open_arrival_rate,
            window_len: cfg.window_len,
            window_warmup: cfg.window_warmup,
            svc: ServiceOptions::default(),
        }
    }
}

impl Service {
    /// The scenario the experiments would run at this seed, with the
    /// service-only flags applied on top.
    fn config(&self) -> ScenarioConfig {
        ScenarioConfig {
            workload: self.workload,
            open_arrival_rate: self.open_arrival_rate,
            window_len: self.window_len,
            window_warmup: self.window_warmup,
            ..self.opts.base_config(self.seed)
        }
    }
}

/// The service's own flags (besides `--help`).
#[rustfmt::skip]
const SERVICE: &[Flag<Service>] = &[
    Flag { name: "--seed", arg: "N", help: "master seed",
        set: |s, v| put(&mut s.seed, int(v)) },
    Flag { name: "--workload", arg: "MODE", help: "'closed' (the paper's fixed 2000-transmission\n\
            schedule, the default) or 'open' (Poisson\nconnection-request arrivals per pair)",
        set: |s, v| put(&mut s.workload, mode(v, &[("closed", WorkloadMode::Closed), ("open", WorkloadMode::Open)])) },
    Flag { name: "--open-arrival-rate", arg: "R", help: "per-pair arrival rate, requests per minute",
        set: |s, v| put(&mut s.open_arrival_rate, finite(v)) },
    Flag { name: "--window-len", arg: "MIN", help: "steady-state metric window length (0 = off)",
        set: |s, v| put(&mut s.window_len, finite(v)) },
    Flag { name: "--window-warmup", arg: "MIN", help: "start-up transient trimmed before window 0",
        set: |s, v| put(&mut s.window_warmup, finite(v)) },
    Flag { name: "--snapshot-every", arg: "MIN", help: "checkpoint every MIN simulated minutes",
        set: |s, v| { s.svc.snapshot_every = Some(finite(v)?); Ok(()) } },
    Flag { name: "--snapshot-path", arg: "P", help: "checkpoint file (written atomically)",
        set: |s, v| { s.svc.snapshot_path = Some(path(v)?); Ok(()) } },
    Flag { name: "--resume", arg: "P", help: "resume from a checkpoint (same scenario flags!)",
        set: |s, v| { s.svc.resume = Some(path(v)?); Ok(()) } },
    Flag { name: "--max-wall-secs", arg: "S", help: "graceful shutdown: stop, checkpoint, report\npartial aggregates with interrupted=true",
        set: |s, v| { s.svc.max_wall_secs = Some(int(v)?); Ok(()) } },
];

/// Applies `arg` if `table` has it, taking its value (if any) from `rest`.
/// Returns whether `table` had it.
fn apply<T>(
    table: &[Flag<T>],
    target: &mut T,
    arg: &str,
    rest: &mut Iter<String>,
) -> Result<bool, String> {
    let Some(flag) = table.iter().find(|f| f.name == arg) else {
        return Ok(false);
    };
    let value = if flag.arg.is_empty() {
        ""
    } else {
        rest.next().map_or("", String::as_str)
    };
    (flag.set)(target, value).map_err(|needs| format!("{arg} needs {needs}"))?;
    Ok(true)
}

/// One help line per flag of `table`.
fn help<T>(table: &[Flag<T>]) -> String {
    const COLUMN: usize = 32;
    let mut out = String::new();
    for f in table {
        let lhs = format!("{} {}", f.name, f.arg);
        let pad = if lhs.len() + 2 < COLUMN {
            COLUMN - lhs.len()
        } else {
            2
        };
        let text = f.help.replace('\n', &format!("\n  {:COLUMN$}", ""));
        out += &format!("  {lhs}{:pad$}{text}\n", "");
    }
    out
}

const SHARED_NOTE: &str =
    "Every --fault-* and --adversary-* rate defaults to 0 = off; any nonzero \
                           rate\nactivates the deterministic fault or adversary plan.";

/// Parses the experiment runner's command line. `Ok(None)`: `--help` or
/// `--list` already printed what was asked for.
fn parse_experiments(args: &[String]) -> Result<Option<(Options, Vec<String>)>, String> {
    let mut opts = Options::default();
    let mut selected = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--list" => {
                for (name, _) in registry() {
                    println!("{name}");
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                println!(
                    "usage: idpa-sim [EXPERIMENT ...] [FLAGS]\n\n{}  --list{:26}list the experiments\n\n\
                     scenario flags (shared with `idpa-sim service`):\n{}\n{SHARED_NOTE}",
                    help(EXPERIMENT),
                    "",
                    help(SHARED)
                );
                return Ok(None);
            }
            name if !name.starts_with('-') => selected.push(name.to_string()),
            other => {
                if !(apply(SHARED, &mut opts, other, &mut rest)?
                    || apply(EXPERIMENT, &mut opts, other, &mut rest)?)
                {
                    return Err(format!("unknown flag: {other}"));
                }
            }
        }
    }
    Ok(Some((opts, selected)))
}

/// Parses `idpa-sim service`'s command line. `Ok(None)`: `--help` already
/// printed the usage.
fn parse_service(args: &[String]) -> Result<Option<Service>, String> {
    let mut service = Service::default();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if arg == "--help" || arg == "-h" {
            println!(
                "usage: idpa-sim service [FLAGS]\n\n{}\n\
                 scenario flags (shared with the experiment runner):\n{}\n{SHARED_NOTE}",
                help(SERVICE),
                help(SHARED)
            );
            return Ok(None);
        }
        if !(apply(SERVICE, &mut service, arg, &mut rest)?
            || apply(SHARED, &mut service.opts, arg, &mut rest)?)
        {
            return Err(format!("unknown service flag: {arg}"));
        }
    }
    Ok(Some(service))
}

/// Validates the scenario the flags describe, and warns when `--settlement
/// epoch` has no evidence to settle.
fn check(cfg: &ScenarioConfig) -> Result<(), String> {
    cfg.validate().map_err(|e| e.to_string())?;
    // Warn rather than fail: a run without the evidence layer is a
    // legitimate baseline in fingerprint comparisons.
    if cfg.settlement == SettlementMode::Epoch && !cfg.evidence_layer_active() {
        eprintln!(
            "warning: --settlement epoch has no effect without the evidence layer \
             (enable a --fault-* rate, an --adversary-* strategy or --bank-durability \
             wal); settlement metrics will be zero"
        );
    }
    Ok(())
}

/// `idpa-sim service`: run one scenario as a crash-safe service.
fn service_main(args: &[String]) -> Result<(), String> {
    let Some(service) = parse_service(args)? else {
        return Ok(());
    };
    let cfg = service.config();
    check(&cfg)?;

    let started = std::time::Instant::now();
    let result = run_service(cfg, &service.svc).map_err(|e| format!("service run failed: {e}"))?;

    println!("# idpa-sim service run (seed = {})\n", service.seed);
    println!("- simulated connections: {}", result.connections);
    println!("- delivery ratio: {:.4}", result.delivery_ratio);
    println!("- avg good payoff: {:.3}", result.avg_good_payoff);
    println!("- payment shortfall: {:.6}", result.payment_shortfall);
    println!("- flagged cheaters: {:?}", result.flagged_cheaters);
    println!("- audit discrepancies: {}", result.audit_discrepancies);
    println!("- interrupted: {}", result.interrupted);
    println!("- audit chain verified: {}", result.audit_chain_verified);
    if result.bank_wal_records > 0 {
        println!(
            "- bank WAL: {} records / {} bytes, {} crashes ({} torn), {} records replayed",
            result.bank_wal_records,
            result.bank_wal_bytes,
            result.bank_crashes,
            result.bank_torn_tails,
            result.bank_records_replayed
        );
        println!(
            "- bank invariants: {} checks, {} violations, ledger digest {:#018x}",
            result.bank_monitor_checks, result.bank_monitor_violations, result.bank_ledger_digest
        );
    }
    if !result.windowed_delivery_ratio.is_empty() {
        println!("\nwindow,delivery_ratio,payoff_rate,retry_rate");
        for (i, ((d, p), r)) in result
            .windowed_delivery_ratio
            .iter()
            .zip(&result.windowed_payoff_rate)
            .zip(&result.windowed_retry_rate)
            .enumerate()
        {
            println!("{i},{d:.6},{p:.6},{r:.6}");
        }
    }
    eprintln!("[service run done in {:.1?}]", started.elapsed());
    Ok(())
}

/// The experiment runner: run the selected experiments (all by default).
fn experiments_main(args: &[String]) -> Result<(), String> {
    let Some((opts, selected)) = parse_experiments(args)? else {
        return Ok(());
    };
    check(&opts.base_config(1))?;

    let reg = registry();
    let to_run: Vec<&(&str, Experiment)> = if selected.is_empty() {
        reg.iter().collect()
    } else {
        selected
            .iter()
            .map(|name| {
                reg.iter()
                    .find(|(n, _)| n == name)
                    .ok_or_else(|| format!("unknown experiment '{name}'; try --list"))
            })
            .collect::<Result<_, _>>()?
    };

    println!(
        "# idpa-sim results (reps = {}, {} scale)\n",
        opts.reps,
        if opts.quick { "quick" } else { "paper" }
    );
    for (name, run) in to_run {
        eprintln!("[running {name} ...]");
        let started = std::time::Instant::now();
        let output = run(&opts);
        eprintln!("[{name} done in {:.1?}]", started.elapsed());
        println!("{output}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        // Trace tooling: `idpa-sim trace-export [SEED]` dumps the synthetic
        // churn trace of the paper-scale scenario as CSV (stdout), in the
        // format `idpa_netmodel::trace` re-imports for measured-trace replay.
        Some("trace-export") => {
            let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1);
            let cfg = ScenarioConfig {
                seed,
                ..ScenarioConfig::default()
            };
            let world = idpa_sim::World::generate(&cfg);
            print!("{}", idpa_netmodel::trace::to_csv(&world.schedules));
            Ok(())
        }
        Some("service") => service_main(&args[1..]),
        _ => experiments_main(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    /// A non-default value for every shared flag that takes one.
    fn sample(flag: &str) -> &'static str {
        match flag {
            "--probe-mode" => "eager",
            "--node-lifecycle" => "lazy",
            "--history-shards" | "--adversary-cliques" => "3",
            "--fault-retries" => "5",
            "--settlement" => "epoch",
            "--bank-durability" => "wal",
            "--fault-response" => "adaptive",
            "--adversary-clique-size" => "4",
            "--epoch-length"
            | "--fault-delay-mean"
            | "--fault-bank-outage-mean"
            | "--fault-timeout"
            | "--adversary-whitewash-interval"
            | "--adversary-maturity" => "37.5",
            other
                if other.starts_with("--fault-")
                    || other.starts_with("--adversary-")
                    || other == "--reputation-weight" =>
            {
                "0.2"
            }
            other => panic!("no sample value for {other}"),
        }
    }

    fn experiment_config(list: &[&str]) -> ScenarioConfig {
        let (opts, _) = parse_experiments(&args(list))
            .expect("experiment flags parse")
            .expect("no --help");
        opts.base_config(1)
    }

    fn service_config(list: &[&str]) -> ScenarioConfig {
        let mut full = vec!["--seed", "1"];
        full.extend_from_slice(list);
        parse_service(&args(&full))
            .expect("service flags parse")
            .expect("no --help")
            .config()
    }

    #[test]
    fn every_shared_flag_gives_the_same_scenario_through_both_subcommands() {
        // Both paths must start from the same scenario...
        let base = experiment_config(&[]);
        assert_eq!(service_config(&[]), base);
        for flag in SHARED {
            let list: Vec<&str> = if flag.arg.is_empty() {
                vec![flag.name]
            } else {
                vec![flag.name, sample(flag.name)]
            };
            let exp = experiment_config(&list);
            // ...and every flag must move it, identically in both.
            assert_ne!(exp, base, "{} changed nothing", flag.name);
            assert_eq!(service_config(&list), exp, "{} differs", flag.name);
        }
    }

    #[test]
    fn reputation_weight_validates_in_both_subcommands() {
        let list = ["--quick", "--reputation-weight", "0.2"];
        for cfg in [experiment_config(&list), service_config(&list)] {
            assert_eq!(cfg.weights, (0.4, 0.4));
            assert_eq!(cfg.reputation_weight, 0.2);
            check(&cfg).expect("--reputation-weight 0.2 is a valid scenario");
        }
    }

    #[test]
    fn invalid_flag_combinations_fail_validation() {
        let crash = experiment_config(&["--fault-bank-crash", "0.5"]);
        assert!(check(&crash).unwrap_err().contains("--bank-durability wal"));
        let weight = service_config(&["--reputation-weight", "1.5"]);
        assert!(check(&weight).unwrap_err().contains("sum to 1"));
    }

    #[test]
    fn malformed_values_and_unknown_flags_are_errors() {
        let err = |r: Result<(), String>| r.expect_err("must fail");
        assert_eq!(
            err(parse_experiments(&args(&["--fault-drop", "x"])).map(|_| ())),
            "--fault-drop needs a finite number"
        );
        assert_eq!(
            err(parse_service(&args(&["--probe-mode", "fast"])).map(|_| ())),
            "--probe-mode needs 'eager' or 'lazy'"
        );
        assert_eq!(
            err(parse_service(&args(&["--resume"])).map(|_| ())),
            "--resume needs a path"
        );
        assert_eq!(
            err(parse_experiments(&args(&["--bogus"])).map(|_| ())),
            "unknown flag: --bogus"
        );
        assert_eq!(
            err(parse_service(&args(&["--reps", "3"])).map(|_| ())),
            "unknown service flag: --reps"
        );
    }
}
