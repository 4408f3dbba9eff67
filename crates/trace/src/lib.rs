//! Structured run tracing for every machine substrate.
//!
//! The paper's machine model is an accounting discipline: every run of a
//! deterministic TM, a list machine, or a tape algorithm reports a
//! [`ResourceUsage`](st_core::ResourceUsage) — scans, internal space,
//! steps, cells. This crate makes that accounting *auditable*. Substrates
//! emit a stream of [`TraceEvent`]s (head reversals, memory traffic,
//! injected faults, retries, phase boundaries) through a [`Tracer`]
//! handle, and [`replay`](crate::replay::replay) re-derives the usage
//! record from the events alone. [`audit`](crate::replay::audit) then
//! compares the substrate's own claim against the replayed one
//! bit-for-bit: a passing audit means two independent accountants agree
//! on the run.
//!
//! Design points:
//!
//! * **Disabled is free.** The default tracer is a `None` sink;
//!   [`Tracer::emit`] takes a closure, so a disabled emission is one
//!   branch and the event is never constructed.
//! * **Cumulative vs delta.** Events that carry running totals
//!   (reversals, head moves, extents) can be re-emitted as checkpoints
//!   at any time; delta events (step batches, memory traffic) stream
//!   live. See [`event`] for the full taxonomy.
//! * **One run tracer.** The Turing-machine and list-machine runs both
//!   trace through [`RunTracer`]: one `RunBegin`, reversal deltas,
//!   `StepBatch` events of [`run`]'s fixed batch size, then the final
//!   extents and `RunUsage` checkpoint.
//! * **One tracer rule.** A tracer is an argument. Each machine, run or
//!   journal takes its [`Tracer`] when it is built, and every event goes
//!   to the tracer of whatever owns the tapes. Nothing is ambient: no
//!   thread-local decides where a run emits, so the same call traces the
//!   same way on every thread.
//!
//! ```
//! use st_trace::{replay, Tracer, TraceEvent};
//!
//! // A substrate takes its tracer as an argument...
//! fn run(steps: u64, tracer: &Tracer) {
//!     tracer.emit(|| TraceEvent::StepBatch { steps });
//! }
//!
//! let (tracer, buffer) = Tracer::in_memory();
//! run(42, &tracer);
//! // ...so an untraced call says so where it is made.
//! run(7, &Tracer::disabled());
//! assert_eq!(replay(&buffer.snapshot()).steps, 42);
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod replay;
pub mod run;
pub mod sink;
pub mod tracer;

pub use event::{read_jsonl, read_jsonl_lossy, to_jsonl, FaultKind, TraceEvent};
pub use replay::{audit, replay, Aggregator, AuditReport, CheckResult, SegmentAudit};
pub use run::RunTracer;
pub use sink::{JsonlSink, MemorySink, TraceBuffer};
pub use tracer::{Sink, Tracer};
