//! The run-path benchmark of the simulator.
//!
//! Four workloads drive `idpa_sim` through the calls a real run makes (see
//! [`drive`]). Untraced passes give the end-to-end metrics; traced passes
//! wrap the run in a `Process` adapter that times each handled event by
//! kind, plus spans around every other public call, and give the per-layer
//! metrics. Every run is checked: invariants, a digest over every
//! `RunResult` field, and equality of digests across passes.

#![forbid(unsafe_code)]

pub mod digest;
pub mod drive;
pub mod measure;
pub mod trace;
pub mod workload;

use idpa_bench::alloc_counter::CountingAllocator;

/// Counts live and peak heap bytes for the `peak_heap_mib` metric.
#[global_allocator]
pub static ALLOC: CountingAllocator = CountingAllocator::new();
