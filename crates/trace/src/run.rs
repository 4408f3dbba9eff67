//! [`RunTracer`]: the step-batching trace of one machine run.
//!
//! The Turing machines (`st_tm::run`) and the list machines
//! (`st_lm::run`) trace a run the same way, and this type is that one
//! way. A run opens with `RunBegin` and one `TapeRegistered` per
//! external tape. After each step it emits a `Reversal` for every tape
//! whose total changed and, every `STEP_BATCH` (1024) steps, one
//! `StepBatch`. It closes with the pending `StepBatch`, an optional
//! `MemPeak`, one `TapeExtent` per tape and the run's `RunUsage`.
//! Replaying that stream gives back the run's own [`ResourceUsage`].
//!
//! Every method is a no-op on a disabled tracer, and the extents and
//! usage are passed lazily, so an untraced run never computes them.

use crate::event::TraceEvent;
use crate::tracer::Tracer;
use st_core::ResourceUsage;

/// Steps per [`TraceEvent::StepBatch`] flush: long runs trace in
/// constant-size batches instead of one event per step.
const STEP_BATCH: u64 = 1024;

/// The trace state of one run: its tracer, the last reversal total
/// emitted per tape (so only direction changes produce events) and the
/// steps already flushed.
#[derive(Debug)]
pub struct RunTracer {
    tracer: Tracer,
    last_revs: Vec<u64>,
    flushed_steps: u64,
}

impl RunTracer {
    /// Open a run on `tracer`: `RunBegin` for `substrate`, then `tapes`
    /// tapes registered as `{tape_prefix}{i}`.
    #[must_use]
    pub fn begin(
        tracer: Tracer,
        substrate: &str,
        tape_prefix: &str,
        tapes: usize,
        input_len: usize,
    ) -> Self {
        tracer.emit(|| TraceEvent::RunBegin {
            substrate: substrate.to_string(),
            input_len,
        });
        for tape in 0..tapes {
            tracer.emit(|| TraceEvent::TapeRegistered {
                tape,
                name: format!("{tape_prefix}{tape}"),
            });
        }
        RunTracer {
            tracer,
            last_revs: vec![0; tapes],
            flushed_steps: 0,
        }
    }

    /// After a step: `steps` taken so far, `reversals` the per-tape
    /// totals, read only when the tracer is enabled.
    pub fn step(&mut self, steps: u64, reversals: impl IntoIterator<Item = u64>) {
        if !self.tracer.is_enabled() {
            return;
        }
        for ((tape, last), total) in self.last_revs.iter_mut().enumerate().zip(reversals) {
            if total != *last {
                *last = total;
                self.tracer.emit(|| TraceEvent::Reversal { tape, total });
            }
        }
        if steps - self.flushed_steps >= STEP_BATCH {
            self.flush(steps);
        }
    }

    /// Close the run after `steps` steps: the pending `StepBatch`, then
    /// `MemPeak` if `mem_peak` is given, one `TapeExtent` per entry of
    /// `extents`, and `RunUsage` with `usage()`.
    pub fn finish(
        &mut self,
        steps: u64,
        mem_peak: Option<u64>,
        extents: impl IntoIterator<Item = u64>,
        usage: impl FnOnce() -> ResourceUsage,
    ) {
        if !self.tracer.is_enabled() {
            return;
        }
        if steps > self.flushed_steps {
            self.flush(steps);
        }
        if let Some(bits) = mem_peak {
            self.tracer.emit(|| TraceEvent::MemPeak { bits });
        }
        for (tape, cells) in extents.into_iter().enumerate() {
            self.tracer.emit(|| TraceEvent::TapeExtent { tape, cells });
        }
        self.tracer.emit(|| TraceEvent::RunUsage { usage: usage() });
    }

    fn flush(&mut self, steps: u64) {
        let batch = steps - self.flushed_steps;
        self.flushed_steps = steps;
        self.tracer.emit(|| TraceEvent::StepBatch { steps: batch });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disabled_run_tracer_reads_neither_extents_nor_usage() {
        let mut run = RunTracer::begin(Tracer::disabled(), "tm", "ext", 1, 3);
        run.step(1, std::iter::once(1).inspect(|_| panic!("reversals read")));
        run.finish(
            1,
            Some(0),
            std::iter::once(1).inspect(|_| panic!("extents read")),
            || panic!("usage computed"),
        );
    }
}
