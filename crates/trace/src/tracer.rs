//! The [`Tracer`] handle and the [`Sink`] trait.
//!
//! A `Tracer` is what substrates hold: cheap to clone (an `Option<Arc>`),
//! and cheap when disabled — [`Tracer::emit`] takes a closure, so a
//! disabled tracer costs one `Option` check and never constructs the
//! event. All clones of one tracer feed the same sink behind a mutex;
//! event order within one thread is the emission order.

use crate::event::TraceEvent;
use crate::sink::{JsonlSink, MemorySink, TraceBuffer};
use st_core::pool::lock;
use st_core::StError;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Where events go. Implementations are single-threaded behind the
/// tracer's mutex; `record` receives events in emission order.
pub trait Sink {
    /// Consume one event.
    fn record(&mut self, ev: TraceEvent);
    /// Flush buffered output (files); default no-op.
    fn flush(&mut self) {}
}

/// A cloneable handle to a trace sink; disabled by default.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<Mutex<Box<dyn Sink + Send>>>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tracer({})",
            if self.sink.is_some() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

impl Tracer {
    /// The no-op tracer: every emission is a single `Option` check.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer { sink: None }
    }

    /// A tracer over a custom sink.
    #[must_use]
    pub fn from_sink(sink: Box<dyn Sink + Send>) -> Self {
        Tracer {
            sink: Some(Arc::new(Mutex::new(sink))),
        }
    }

    /// A tracer recording every event in memory; the returned
    /// [`TraceBuffer`] reads them back.
    #[must_use]
    pub fn in_memory() -> (Self, TraceBuffer) {
        let sink = MemorySink::new();
        let buffer = sink.buffer();
        (Tracer::from_sink(Box::new(sink)), buffer)
    }

    /// A tracer appending one JSON line per event to `path` (truncates an
    /// existing file).
    pub fn jsonl(path: &std::path::Path) -> Result<Self, StError> {
        Ok(Tracer::from_sink(Box::new(JsonlSink::create(path)?)))
    }

    /// `true` iff events go anywhere.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emit one event. `make` runs only when the tracer is enabled, so
    /// event construction (string formatting, clones) is free on the
    /// disabled path.
    #[inline]
    pub fn emit<F: FnOnce() -> TraceEvent>(&self, make: F) {
        if let Some(sink) = &self.sink {
            lock(sink).record(make());
        }
    }

    /// Flush the sink (meaningful for file sinks).
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            lock(sink).flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_runs_the_closure() {
        let t = Tracer::disabled();
        let mut ran = false;
        t.emit(|| {
            ran = true;
            TraceEvent::StepBatch { steps: 1 }
        });
        assert!(!ran);
        assert!(!t.is_enabled());
    }

    #[test]
    fn clones_share_the_sink() {
        let (t, buf) = Tracer::in_memory();
        let t2 = t.clone();
        t.emit(|| TraceEvent::StepBatch { steps: 1 });
        t2.emit(|| TraceEvent::StepBatch { steps: 2 });
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn tracer_handles_cross_threads_soundly() {
        // The parallel report runner hands each worker its own tracer
        // handle: Tracer must be Send + Sync (Arc over a std
        // mutex over a Send sink), and concurrent emissions must all
        // reach the sink.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tracer>();

        let (t, buf) = Tracer::in_memory();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        t.emit(|| TraceEvent::StepBatch { steps: 1 });
                    }
                });
            }
        });
        assert_eq!(buf.len(), 400);
    }

    #[test]
    fn debug_formats_enabledness_not_contents() {
        assert_eq!(format!("{:?}", Tracer::disabled()), "Tracer(disabled)");
        let (t, _buf) = Tracer::in_memory();
        assert_eq!(format!("{t:?}"), "Tracer(enabled)");
    }
}
