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
//! * **One tracer rule.** A tracer is chosen once, when a machine, run
//!   or journal is built, and every event goes to the tracer of
//!   whatever owns the tapes. [`scoped`] installs a tracer for the
//!   current thread so deep call chains (experiment registries,
//!   algorithm helpers) can build their machines on it via [`current`]
//!   without signature changes; nothing reads [`current`] when it
//!   emits, so a scope never captures events of a machine built
//!   outside it.
//!
//! ```
//! use st_trace::{replay, scoped, Tracer, TraceEvent};
//!
//! let (tracer, buffer) = Tracer::in_memory();
//! scoped(tracer, || {
//!     // A run built inside the scope takes its tracer once...
//!     let owner = st_trace::current();
//!     // ...and emits on it from then on.
//!     owner.emit(|| TraceEvent::StepBatch { steps: 42 });
//! });
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

use std::cell::RefCell;

thread_local! {
    static CURRENT: RefCell<Tracer> = RefCell::new(Tracer::disabled());
}

/// The tracer installed for this thread by [`scoped`] (disabled when
/// outside any scope).
#[must_use]
pub fn current() -> Tracer {
    CURRENT.with(|t| t.borrow().clone())
}

/// Run `f` with `tracer` installed as this thread's [`current`] tracer.
///
/// The previous tracer is restored when `f` returns *or panics*, so a
/// failing experiment cannot leak its tracer into the next one. Scopes
/// nest; the innermost wins.
pub fn scoped<R>(tracer: Tracer, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Tracer>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(prev) = self.0.take() {
                CURRENT.with(|t| *t.borrow_mut() = prev);
            }
        }
    }
    let prev = CURRENT.with(|t| std::mem::replace(&mut *t.borrow_mut(), tracer));
    let _restore = Restore(Some(prev));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_is_disabled_outside_any_scope() {
        assert!(!current().is_enabled());
    }

    #[test]
    fn scoped_installs_and_restores() {
        let (tracer, buf) = Tracer::in_memory();
        scoped(tracer, || {
            assert!(current().is_enabled());
            current().emit(|| TraceEvent::StepBatch { steps: 1 });
        });
        assert!(!current().is_enabled());
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn scopes_nest_innermost_wins() {
        let (outer, outer_buf) = Tracer::in_memory();
        let (inner, inner_buf) = Tracer::in_memory();
        scoped(outer, || {
            scoped(inner, || {
                current().emit(|| TraceEvent::StepBatch { steps: 2 });
            });
            current().emit(|| TraceEvent::StepBatch { steps: 3 });
        });
        assert_eq!(inner_buf.len(), 1);
        assert_eq!(outer_buf.len(), 1);
    }

    #[test]
    fn scoped_restores_after_a_panic() {
        let (tracer, _buf) = Tracer::in_memory();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scoped(tracer, || panic!("boom"));
        }));
        assert!(result.is_err());
        assert!(!current().is_enabled());
    }
}
