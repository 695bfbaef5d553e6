//! In-memory spans for the traced pass, and the `Process` adapter that
//! times every handled event by its `Ev` kind.
//!
//! A span has a layer, a parent, and start and end offsets in nanoseconds.
//! Spans are only recorded from the benchmark's own code, around the public
//! calls a run makes into each layer; nothing inside the simulator is
//! instrumented. A layer's self time is its spans' duration minus the time
//! their child spans cover.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use idpa_desim::engine::Control;
use idpa_desim::{Engine, Process};
use idpa_sim::runner::Ev;
use idpa_sim::SimulationRun;

/// What a span covers, named after the modules its call reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One pass of a workload (benchmark glue between runs).
    Pass,
    /// One run (glue between the calls below).
    Run,
    /// `World::try_generate`.
    World,
    /// `SimulationRun::new` plus `schedule_all`.
    New,
    /// One `Engine::run` segment; its self time is the calendar's.
    Desim,
    /// `Ev::Probe`.
    Probe,
    /// `Ev::Maintain`.
    Maintain,
    /// `Ev::Transmit`.
    Transmit,
    /// `Ev::Retry`.
    Retry,
    /// `Ev::EpochSettle`.
    EpochSettle,
    /// `Ev::Arrival`.
    Arrival,
    /// `Ev::Whitewash`.
    Whitewash,
    /// `snapshot::encode` at a checkpoint boundary.
    Encode,
    /// `SimulationRun::finish`.
    Finish,
}

/// Number of [`Layer`] variants.
pub const N_LAYERS: usize = 14;

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; N_LAYERS] = [
        Layer::Pass,
        Layer::Run,
        Layer::World,
        Layer::New,
        Layer::Desim,
        Layer::Probe,
        Layer::Maintain,
        Layer::Transmit,
        Layer::Retry,
        Layer::EpochSettle,
        Layer::Arrival,
        Layer::Whitewash,
        Layer::Encode,
        Layer::Finish,
    ];

    /// The event-handler layers.
    pub const HANDLERS: [Layer; 7] = [
        Layer::Transmit,
        Layer::Arrival,
        Layer::Retry,
        Layer::Maintain,
        Layer::Probe,
        Layer::EpochSettle,
        Layer::Whitewash,
    ];

    /// Index into per-layer arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The layer's name in span files and metric names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Pass => "pass",
            Layer::Run => "run",
            Layer::World => "world",
            Layer::New => "runner.new",
            Layer::Desim => "desim",
            Layer::Probe => "handle.probe",
            Layer::Maintain => "handle.maintain",
            Layer::Transmit => "handle.transmit",
            Layer::Retry => "handle.retry",
            Layer::EpochSettle => "handle.epoch_settle",
            Layer::Arrival => "handle.arrival",
            Layer::Whitewash => "handle.whitewash",
            Layer::Encode => "snapshot.encode",
            Layer::Finish => "runner.finish",
        }
    }

    /// The handler layer of an event.
    #[must_use]
    pub fn of_event(ev: &Ev) -> Layer {
        match ev {
            Ev::Probe => Layer::Probe,
            Ev::Maintain(_) => Layer::Maintain,
            Ev::Transmit { .. } => Layer::Transmit,
            Ev::Retry { .. } => Layer::Retry,
            Ev::EpochSettle => Layer::EpochSettle,
            Ev::Arrival { .. } => Layer::Arrival,
            Ev::Whitewash(_) => Layer::Whitewash,
        }
    }
}

/// Parent id of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span covers.
    pub layer: Layer,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An append-only span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, so recording does not
    /// reallocate mid-pass.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn parent(&self) -> u32 {
        self.open.last().copied().unwrap_or(NO_PARENT)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, layer: Layer) {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            layer,
            parent: self.parent(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = self.now();
    }

    /// The recorded spans, in creation order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines
    /// `id parent layer start_ns end_ns` (parent `-` at top level).
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Runs `f` inside a span of `layer` when tracing, or just runs it.
pub fn span<T>(
    tracer: &mut Option<&mut Tracer>,
    layer: Layer,
    f: impl FnOnce(&mut Option<&mut Tracer>) -> T,
) -> T {
    if let Some(t) = tracer.as_deref_mut() {
        t.enter(layer);
    }
    let out = f(tracer);
    if let Some(t) = tracer.as_deref_mut() {
        t.exit();
    }
    out
}

/// Writes one pass's spans to `path`.
pub fn write_trace_file(path: &Path, tracer: &Tracer) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "id\tparent\tlayer\tstart_ns\tend_ns")?;
    tracer.write_tsv(&mut out)?;
    out.flush()
}

/// The `Process` adapter of the traced pass: hands every event to the
/// wrapped run unchanged and records one span per `handle` call, tagged
/// with the event's kind.
pub struct Timed<'a> {
    /// The run being driven.
    pub run: &'a mut SimulationRun,
    /// Where handler spans go.
    pub tracer: &'a mut Tracer,
}

impl Process for Timed<'_> {
    type Event = Ev;

    fn handle(&mut self, engine: &mut Engine<Ev>, event: Ev) -> Control {
        let layer = Layer::of_event(&event);
        let parent = self.tracer.parent();
        let start_ns = self.tracer.now();
        let control = self.run.handle(engine, event);
        let end_ns = self.tracer.now();
        self.tracer.spans.push(Span {
            layer,
            parent,
            start_ns,
            end_ns,
        });
        control
    }
}

/// Per-layer totals of one traced pass.
#[derive(Debug, Clone)]
pub struct LayerTotals {
    /// Self time per layer, in nanoseconds.
    pub self_ns: [u64; N_LAYERS],
    /// Spans per layer.
    pub count: [u64; N_LAYERS],
    /// Duration of each handler and encode span, per layer, in
    /// nanoseconds (empty for other layers).
    pub durations: Vec<Vec<u64>>,
    /// Summed duration of the run spans: the pass's wall time without the
    /// benchmark's checks between runs.
    pub run_ns: u64,
}

/// Sums self time and counts by layer over one pass's spans.
#[must_use]
pub fn totals(spans: &[Span]) -> LayerTotals {
    let mut child_ns = vec![0u64; spans.len()];
    let mut run_ns = 0;
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.duration_ns();
        }
        if s.layer == Layer::Run {
            run_ns += s.duration_ns();
        }
    }
    let mut t = LayerTotals {
        self_ns: [0; N_LAYERS],
        count: [0; N_LAYERS],
        durations: vec![Vec::new(); N_LAYERS],
        run_ns,
    };
    for (s, child) in spans.iter().zip(&child_ns) {
        let i = s.layer.index();
        t.self_ns[i] += s.duration_ns().saturating_sub(*child);
        t.count[i] += 1;
        if Layer::HANDLERS.contains(&s.layer) || s.layer == Layer::Encode {
            t.durations[i].push(s.duration_ns());
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_indices_follow_all() {
        for (i, l) in Layer::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                layer: Layer::Run,
                parent: NO_PARENT,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                layer: Layer::Desim,
                parent: 0,
                start_ns: 10,
                end_ns: 90,
            },
            Span {
                layer: Layer::Transmit,
                parent: 1,
                start_ns: 20,
                end_ns: 50,
            },
            Span {
                layer: Layer::Transmit,
                parent: 1,
                start_ns: 50,
                end_ns: 70,
            },
        ];
        let t = totals(&spans);
        assert_eq!(t.run_ns, 100);
        assert_eq!(t.self_ns[Layer::Run.index()], 20);
        assert_eq!(t.self_ns[Layer::Desim.index()], 30);
        assert_eq!(t.self_ns[Layer::Transmit.index()], 50);
        assert_eq!(t.count[Layer::Transmit.index()], 2);
        assert_eq!(t.durations[Layer::Transmit.index()], vec![30, 20]);
    }

    #[test]
    fn nested_spans_link_to_parents() {
        let mut t = Tracer::with_capacity(4);
        let mut opt = Some(&mut t);
        span(&mut opt, Layer::Run, |tr| {
            span(tr, Layer::World, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
