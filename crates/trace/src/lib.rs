//! Structured tracing and metrics for the PINS solver stack.
//!
//! The paper's evaluation (Table 4, §4) is a per-benchmark breakdown of
//! where time goes — symbolic execution, SMT reduction, SAT, `pickOne` —
//! and CEGIS-style loops are notoriously dominated by a handful of
//! pathological solver calls. This crate is the observability layer that
//! makes those claims measurable in the reproduction:
//!
//! * **[`MetricsRegistry`]** — a thread-safe registry of named atomic
//!   counters and duration accumulators. One registry per synthesis run is
//!   the single source of truth for every statistic the stack reports;
//!   the typed `SessionStats` / `PinsStats` structs are snapshots read from
//!   its cells. Counter handles are cheap `Arc<AtomicU64>` clones, so every
//!   holder of a handle, on any thread, bumps the *same* cell the reader
//!   sees — each event is counted once, with no after-the-fact merging.
//! * **[`span`]** — RAII spans with monotonic timing and per-thread span
//!   stacks, so events emitted from worker threads are attributed to the
//!   worker's own open span rather than whatever the main thread is doing.
//! * **[`Recorder`]** — a thread-safe structured-event sink. Events go to
//!   a JSONL stream (`--trace-out`) or an in-memory ring buffer. Exactly
//!   one recorder can be [`install`]ed process-wide at a time.
//!
//! # Overhead discipline
//!
//! Tracing must cost nothing when off. Every emission point first checks a
//! single process-wide `AtomicBool` ([`is_enabled`]); when it reads
//! `false`, [`span::span`] returns an inert guard and [`count`] returns
//! immediately — **no allocation, no lock, one relaxed atomic load**. The
//! `overhead.rs` integration test pins this down with a counting
//! allocator. Registry counters are independent of the recorder: they are
//! plain relaxed atomic adds and stay on even when event recording is off
//! (they are how `PinsStats` is built).
//!
//! # Example
//!
//! ```
//! use pins_trace::{Recorder, MetricsRegistry, span};
//!
//! let recorder = Recorder::ring(1024);
//! let _guard = pins_trace::install(recorder.clone());
//!
//! let registry = MetricsRegistry::new();
//! let queries = registry.counter("smt.queries");
//! {
//!     let mut s = span("smt.query");
//!     s.record_u64("conflicts", 3);
//!     queries.inc();
//! } // span end event emitted here, with the duration
//!
//! drop(_guard); // uninstalls the recorder, appending a trace.summary point
//! let events = recorder.events();
//! assert_eq!(events.len(), 3); // start + end + trace.summary
//! assert_eq!(registry.get("smt.queries"), 1);
//! ```

pub mod hist;
pub mod json;
pub mod metrics;
pub mod provenance;
pub mod recorder;
pub mod span;

#[cfg(test)]
mod tests;

pub use hist::{HistSnapshot, Histogram};
pub use metrics::{Counter, MetricsRegistry};
pub use provenance::{Phase, PhaseGuard, ProvenanceCtx, PHASES};
pub use recorder::{
    count, install, is_enabled, point, uninstall, Event, EventKind, FieldValue, InstallGuard,
    Recorder,
};
pub use span::{span, Span};
