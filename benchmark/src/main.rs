//! Command line of the run-path benchmark.
//!
//! ```text
//! idpa-runbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! idpa-runbench --workload <name|all> [--seed N] --print-digests
//! ```
//!
//! Prints every metric by name and unit, then, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1`. A traced invocation also writes the spans of its
//! fastest traced pass to `.bench_trace/<workload>-seed<N>.tsv`.

use std::path::PathBuf;
use std::process::ExitCode;

use idpa_runbench::digest::digest;
use idpa_runbench::drive::drive;
use idpa_runbench::measure::{measure, Metric, Outcome, JSON_LAYER_METRICS};
use idpa_runbench::trace::write_trace_file;
use idpa_runbench::workload::{Workload, DEFAULT_SEED};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        print_digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-digests" {
            args.print_digests = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?];
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err(
            "--workload is required (paper_sweep, service_open, fault_closed, scale_1m or all)"
                .into(),
        );
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A JSON number with all its digits (non-finite values cannot be JSON).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_metrics(section: &str, metrics: &[Metric]) {
    println!("## {section}");
    for m in metrics {
        println!(
            "{:<36} {:>18} {:<6} ({})",
            m.name,
            json_number(m.value),
            m.unit,
            m.note
        );
    }
}

fn result_json(outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let c = &outcome.checker;
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.failed == 0 && c.attempted > 0,
        c.attempted,
        c.failed,
        body.join(", ")
    )
}

fn print_digests(workload: Workload, seed: u64) -> Result<(), String> {
    for spec in workload.runs(seed) {
        let out = drive(&spec, None, false).map_err(|e| format!("{}: {e}", spec.label))?;
        println!("{} {} {}", workload.name(), spec.label, digest(&out.result));
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    if args.print_digests {
        for &w in &args.workloads {
            print_digests(w, args.seed)?;
        }
        return Ok(());
    }
    for &w in &args.workloads {
        println!(
            "# workload={} seed={} seconds={} trace={} nproc={} rustc=\"{}\"",
            w.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            nproc(),
            env!("RUNBENCH_RUSTC")
        );
        let outcome = measure(w, args.seed, args.seconds, args.trace);
        for f in &outcome.checker.failures {
            eprintln!("check failed: {f}");
        }
        for (i, p) in outcome.pass_s.iter().enumerate() {
            println!("# pass {i}: {p:.4} s");
        }
        let c = &outcome.checker;
        let ops_failed = if c.attempted == 0 {
            1.0
        } else {
            c.failed as f64 / c.attempted as f64
        };
        print_metrics("end-to-end (untraced passes)", &outcome.end_to_end);
        println!(
            "{:<36} {:>18} {:<6} ({} of {} checked runs failed)",
            "ops_failed",
            json_number(ops_failed),
            "ratio",
            c.failed,
            c.attempted
        );
        if args.trace {
            print_metrics("per-layer (traced passes)", &outcome.per_layer);
            let path =
                PathBuf::from(".bench_trace").join(format!("{}-seed{}.tsv", w.name(), args.seed));
            write_trace_file(&path, outcome.trace.as_ref().expect("a traced pass ran"))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("# spans written to {}", path.display());
        }
        let metrics: Vec<Metric> = if args.trace {
            outcome
                .per_layer
                .iter()
                .filter(|m| JSON_LAYER_METRICS.contains(&m.name.as_str()))
                .cloned()
                .collect()
        } else {
            outcome.end_to_end.clone()
        };
        println!("{}", result_json(&outcome, &metrics));
    }
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("idpa-runbench: {e}");
            ExitCode::from(2)
        }
    }
}
