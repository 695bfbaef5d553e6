//! One run through the simulator's real run path, traced or not.
//!
//! The calls are those of `SimulationRun::execute` and `run_service`:
//! `World::try_generate` → `SimulationRun::new` + `schedule_all` →
//! `Engine::run` to each checkpoint boundary → `snapshot::encode` there →
//! `SimulationRun::finish`. The checkpoint loop mirrors `run_service`'s,
//! minus the file write and the wall-clock deadline.

use std::hint::black_box;
use std::time::Instant;

use idpa_desim::{Engine, SimTime, StopReason};
use idpa_sim::{snapshot, RunResult, SimError, SimulationRun, World};

use crate::trace::{span, Layer, Timed, Tracer};
use crate::workload::RunSpec;

/// What one run produced and how long its parts took.
#[derive(Debug)]
pub struct RunOutput {
    /// The simulated outcome.
    pub result: RunResult,
    /// Host nanoseconds from the configuration to the first event: world
    /// generation, `SimulationRun::new` and `schedule_all`.
    pub setup_ns: u64,
    /// Host nanoseconds of the whole run, set-up to `finish`.
    pub total_ns: u64,
    /// Events the engine handled.
    pub events: u64,
    /// Size of each encoded checkpoint, in bytes.
    pub checkpoint_bytes: Vec<usize>,
    /// The last checkpoint and its simulated time, when asked to keep it.
    pub last_checkpoint: Option<(f64, Vec<u8>)>,
}

/// The smallest multiple of `every` strictly after `now`: `run_service`'s
/// checkpoint boundary rule.
#[must_use]
pub fn next_boundary(now: f64, every: f64) -> f64 {
    let mut k = (now / every).floor() + 1.0;
    while k * every <= now {
        k += 1.0;
    }
    k * every
}

/// Drives `spec` to its horizon. With a tracer, every layer call and every
/// handled event is recorded as a span; the simulated trajectory is the
/// same either way.
pub fn drive(
    spec: &RunSpec,
    tracer: Option<&mut Tracer>,
    keep_last_checkpoint: bool,
) -> Result<RunOutput, SimError> {
    let mut tracer = tracer;
    span(&mut tracer, Layer::Run, |tr| {
        drive_run(spec, tr, keep_last_checkpoint)
    })
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

fn drive_run(
    spec: &RunSpec,
    tr: &mut Option<&mut Tracer>,
    keep_last_checkpoint: bool,
) -> Result<RunOutput, SimError> {
    let start = Instant::now();
    let cfg = spec.cfg;
    let world = span(tr, Layer::World, |_| World::try_generate(&cfg))?;
    let (mut run, mut engine) = span(tr, Layer::New, |_| {
        let run = SimulationRun::new(cfg, world);
        let mut engine = Engine::new();
        run.schedule_all(&mut engine);
        (run, engine)
    });
    let setup_ns = elapsed_ns(start);

    let horizon = cfg.churn.horizon;
    let mut next = spec
        .checkpoint_every
        .map(|every| next_boundary(engine.now().minutes(), every));
    let mut checkpoint_bytes = Vec::new();
    let mut last_checkpoint = None;
    loop {
        let target = match next {
            Some(t) if t < horizon => t,
            _ => horizon,
        };
        let stop = span(tr, Layer::Desim, |tr| match tr {
            Some(t) => engine.run(
                &mut Timed {
                    run: &mut run,
                    tracer: t,
                },
                Some(SimTime::new(target)),
            ),
            None => engine.run(&mut run, Some(SimTime::new(target))),
        });
        if stop != StopReason::Horizon || target >= horizon {
            break;
        }
        let bytes = span(tr, Layer::Encode, |_| snapshot::encode(&run, &engine));
        checkpoint_bytes.push(bytes.len());
        if keep_last_checkpoint {
            last_checkpoint = Some((target, bytes));
        } else {
            drop(black_box(bytes));
        }
        next = spec
            .checkpoint_every
            .map(|every| next_boundary(target, every));
    }
    let events = engine.events_handled();
    let result = span(tr, Layer::Finish, |_| {
        let result = run.finish();
        drop(engine);
        result
    });
    Ok(RunOutput {
        result,
        setup_ns,
        total_ns: elapsed_ns(start),
        events,
        checkpoint_bytes,
        last_checkpoint,
    })
}

/// Restores `checkpoint` and runs it to the horizon. Returns the host
/// nanoseconds `snapshot::restore` took and the finished result.
pub fn restore_and_finish(spec: &RunSpec, checkpoint: &[u8]) -> Result<(u64, RunResult), SimError> {
    let start = Instant::now();
    let (mut run, mut engine) = snapshot::restore(&spec.cfg, checkpoint)?;
    let restore_ns = elapsed_ns(start);
    engine.run(&mut run, Some(SimTime::new(spec.cfg.churn.horizon)));
    Ok((restore_ns, run.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_match_run_service() {
        assert_eq!(next_boundary(0.0, 120.0), 120.0);
        assert_eq!(next_boundary(119.9, 120.0), 120.0);
        assert_eq!(next_boundary(120.0, 120.0), 240.0);
    }
}
