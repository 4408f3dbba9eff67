//! A bundle of external tapes plus an internal-memory meter.
//!
//! [`TapeMachine`] is the execution context of the algorithm layer: it
//! owns `t` tapes, shares one [`MemoryMeter`], and reports the run's
//! [`ResourceUsage`] in the Definition-1 sense. It offers split mutable
//! borrows (`pair_mut`, `trio_mut`) because merge phases drive several
//! heads simultaneously.

use crate::fault::{Corrupt, FaultPlan, FaultStats};
use crate::meter::MemoryMeter;
use crate::tape::Tape;
use st_core::{ResourceUsage, StError};
use st_trace::{TraceEvent, Tracer};

/// A machine context: `t` external tapes and an internal-memory meter.
#[derive(Debug, Clone)]
pub struct TapeMachine<S> {
    tapes: Vec<Tape<S>>,
    meter: MemoryMeter,
    input_len: usize,
    tracer: Tracer,
}

impl<S: Clone> TapeMachine<S> {
    /// A machine whose tape 0 (the input tape) is pre-loaded with `input`.
    /// `input_len` is the Definition-1 input size `N` — for symbol-level
    /// algorithms it equals `input.len()`, for record-level algorithms the
    /// caller passes the underlying symbol count.
    ///
    /// Every event of the machine's tapes and meter goes to `tracer`;
    /// pass [`Tracer::disabled`] for an untraced run.
    #[must_use]
    pub fn with_input(input: Vec<S>, input_len: usize, tracer: Tracer) -> Self {
        let mut m = Self::new(input_len, tracer);
        m.push_tape(Tape::from_items("input", input));
        m
    }

    /// An empty machine (no tapes yet) tracing on `tracer`, like
    /// [`TapeMachine::with_input`].
    #[must_use]
    pub fn new(input_len: usize, tracer: Tracer) -> Self {
        tracer.emit(|| TraceEvent::RunBegin {
            substrate: "tape".to_string(),
            input_len,
        });
        TapeMachine {
            tapes: Vec::new(),
            meter: MemoryMeter::with_tracer(tracer.clone()),
            input_len,
            tracer,
        }
    }

    fn push_tape(&mut self, mut tape: Tape<S>) -> usize {
        let id = self.tapes.len();
        tape.set_tracer(self.tracer.clone(), id);
        let name = tape.name().to_string();
        self.tracer
            .emit(|| TraceEvent::TapeRegistered { tape: id, name });
        self.tapes.push(tape);
        id
    }

    /// Append a fresh empty tape; returns its index.
    pub fn add_tape(&mut self, name: impl Into<String>) -> usize {
        self.push_tape(Tape::new(name))
    }

    /// Append a pre-loaded tape; returns its index.
    pub fn add_tape_with(&mut self, name: impl Into<String>, items: Vec<S>) -> usize {
        self.push_tape(Tape::from_items(name, items))
    }

    /// Immutable access to tape `i`.
    #[must_use]
    pub fn tape(&self, i: usize) -> &Tape<S> {
        &self.tapes[i]
    }

    /// Mutable access to tape `i`.
    pub fn tape_mut(&mut self, i: usize) -> &mut Tape<S> {
        &mut self.tapes[i]
    }

    /// Distinct mutable borrows of tapes `i` and `j`. Panics if `i == j`.
    pub fn pair_mut(&mut self, i: usize, j: usize) -> (&mut Tape<S>, &mut Tape<S>) {
        assert_ne!(i, j, "pair_mut requires distinct tapes");
        if i < j {
            let (a, b) = self.tapes.split_at_mut(j);
            (&mut a[i], &mut b[0])
        } else {
            let (a, b) = self.tapes.split_at_mut(i);
            (&mut b[0], &mut a[j])
        }
    }

    /// Distinct mutable borrows of three tapes. Panics unless all indices
    /// differ.
    pub fn trio_mut(
        &mut self,
        i: usize,
        j: usize,
        k: usize,
    ) -> (&mut Tape<S>, &mut Tape<S>, &mut Tape<S>) {
        assert!(
            i != j && j != k && i != k,
            "trio_mut requires distinct tapes"
        );
        // Sort indices, split twice, then map back.
        let mut order = [(i, 0usize), (j, 1), (k, 2)];
        order.sort_unstable();
        let (lo, rest) = self.tapes.split_at_mut(order[1].0);
        let (mid, hi) = rest.split_at_mut(order[2].0 - order[1].0);
        let a = &mut lo[order[0].0];
        let b = &mut mid[0];
        let c = &mut hi[0];
        let mut out: [Option<&mut Tape<S>>; 3] = [None, None, None];
        out[order[0].1] = Some(a);
        out[order[1].1] = Some(b);
        out[order[2].1] = Some(c);
        let [x, y, z] = out;
        (x.unwrap(), y.unwrap(), z.unwrap())
    }

    /// The shared internal-memory meter.
    #[must_use]
    pub fn meter(&self) -> &MemoryMeter {
        &self.meter
    }

    /// The declared input size `N`.
    #[must_use]
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Declare (or correct) the Definition-1 input size `N` after the
    /// fact. Streaming callers build the machine before the input has
    /// arrived — `RunBegin` then carries `0` — and call this once the
    /// stream is finished, emitting a [`TraceEvent::InputSize`] so a
    /// replay audit sees the same `N` the machine reports.
    pub fn set_input_len(&mut self, input_len: usize) {
        self.input_len = input_len;
        self.tracer.emit(|| TraceEvent::InputSize { input_len });
    }

    /// The machine's tracer, as passed to its constructor.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Gather the run's resource usage: per-tape reversal counts, tape
    /// count, internal-memory high-water mark, and external cells used.
    ///
    /// When a tracer is attached this also emits a checkpoint — the
    /// cumulative [`TraceEvent::HeadMoves`] and [`TraceEvent::TapeExtent`]
    /// of every tape followed by a [`TraceEvent::RunUsage`] carrying this
    /// record — so a replay audit can compare the machine's accounting
    /// against the event stream at this exact instant.
    #[must_use]
    pub fn usage(&self) -> ResourceUsage {
        let usage = ResourceUsage {
            input_len: self.input_len,
            reversals_per_tape: self.tapes.iter().map(Tape::reversals).collect(),
            external_tapes: self.tapes.len(),
            internal_space: self.meter.high_water_bits(),
            steps: self.tapes.iter().map(Tape::moves).sum(),
            external_cells: self.tapes.iter().map(|t| t.len() as u64).sum(),
        };
        if self.tracer.is_enabled() {
            for (i, t) in self.tapes.iter().enumerate() {
                let total = t.moves();
                self.tracer
                    .emit(|| TraceEvent::HeadMoves { tape: i, total });
                let cells = t.len() as u64;
                self.tracer
                    .emit(|| TraceEvent::TapeExtent { tape: i, cells });
            }
            let claimed = usage.clone();
            self.tracer.emit(|| TraceEvent::RunUsage { usage: claimed });
        }
        usage
    }

    /// Attach `plan` to tape `i` using the cell type's [`Corrupt`] impl.
    /// Faults are opt-in per tape; every other tape keeps clean semantics.
    pub fn enable_faults(&mut self, i: usize, plan: &FaultPlan)
    where
        S: Corrupt,
    {
        self.tapes[i].enable_faults(plan);
    }

    /// Attach `plan` to tape `i` with an explicit corruption function.
    pub fn enable_faults_with(&mut self, i: usize, plan: &FaultPlan, corrupt: fn(&S, u64) -> S) {
        self.tapes[i].enable_faults_with(plan, corrupt);
    }

    /// Attach `plan` to every tape **except** the listed ones — the
    /// resilience idiom: the input/master tape is the paper's given input
    /// (assumed intact), while working and scratch tapes take faults.
    pub fn enable_faults_except(&mut self, plan: &FaultPlan, protected: &[usize])
    where
        S: Corrupt,
    {
        for i in 0..self.tapes.len() {
            if !protected.contains(&i) {
                self.tapes[i].enable_faults(plan);
            }
        }
    }

    /// Injection counters summed over all tapes (zero if no tape has a
    /// plan attached).
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.tapes
            .iter()
            .filter_map(Tape::fault_stats)
            .fold(FaultStats::default(), |acc, s| acc.merged(&s))
    }

    /// Enforce a tape budget up front: error if the machine already has
    /// more than `t` tapes.
    pub fn require_tapes_at_most(&self, t: usize) -> Result<(), StError> {
        if self.tapes.len() > t {
            return Err(StError::ResourceExceeded {
                what: "external tapes".into(),
                limit: t as u64,
                observed: self.tapes.len() as u64,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_gathers_per_tape_reversals() {
        let mut m: TapeMachine<u8> = TapeMachine::with_input(vec![1, 2, 3], 3, Tracer::disabled());
        m.add_tape("scratch");
        while m.tape_mut(0).read_fwd().is_some() {}
        m.tape_mut(0).rewind();
        m.tape_mut(1).write_fwd(9).unwrap();
        let u = m.usage();
        assert_eq!(u.reversals_per_tape, vec![1, 0]);
        assert_eq!(u.external_tapes, 2);
        assert_eq!(u.scans(), 2);
        assert_eq!(u.external_cells, 4);
    }

    #[test]
    fn pair_mut_gives_disjoint_tapes_either_order() {
        let mut m: TapeMachine<u8> = TapeMachine::new(0, Tracer::disabled());
        m.add_tape_with("a", vec![1]);
        m.add_tape_with("b", vec![2]);
        {
            let (a, b) = m.pair_mut(0, 1);
            assert_eq!(a.peek(), Some(&1));
            assert_eq!(b.peek(), Some(&2));
        }
        {
            let (b, a) = m.pair_mut(1, 0);
            assert_eq!(b.peek(), Some(&2));
            assert_eq!(a.peek(), Some(&1));
        }
    }

    #[test]
    fn trio_mut_gives_three_disjoint_tapes_any_order() {
        let mut m: TapeMachine<u8> = TapeMachine::new(0, Tracer::disabled());
        m.add_tape_with("a", vec![1]);
        m.add_tape_with("b", vec![2]);
        m.add_tape_with("c", vec![3]);
        for (i, j, k) in [(0, 1, 2), (2, 0, 1), (1, 2, 0), (2, 1, 0)] {
            let (x, y, z) = m.trio_mut(i, j, k);
            assert_eq!(*x.peek().unwrap() as usize, i + 1);
            assert_eq!(*y.peek().unwrap() as usize, j + 1);
            assert_eq!(*z.peek().unwrap() as usize, k + 1);
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn pair_mut_rejects_aliasing() {
        let mut m: TapeMachine<u8> = TapeMachine::new(0, Tracer::disabled());
        m.add_tape("a");
        let _ = m.pair_mut(0, 0);
    }

    #[test]
    fn tape_budget_enforcement() {
        let mut m: TapeMachine<u8> = TapeMachine::new(0, Tracer::disabled());
        m.add_tape("a");
        m.add_tape("b");
        assert!(m.require_tapes_at_most(2).is_ok());
        assert!(m.require_tapes_at_most(1).is_err());
    }

    #[test]
    fn meter_feeds_usage() {
        let m: TapeMachine<u8> = TapeMachine::new(10, Tracer::disabled());
        let _c = m.meter().charge(77);
        assert_eq!(m.usage().internal_space, 77);
    }

    #[test]
    fn traced_run_replays_to_the_machine_usage() {
        let (tracer, buf) = st_trace::Tracer::in_memory();
        let mut m: TapeMachine<u8> = TapeMachine::with_input(vec![1, 2, 3], 3, tracer);
        m.add_tape("scratch");
        while m.tape_mut(0).read_fwd().is_some() {}
        m.tape_mut(0).rewind();
        m.tape_mut(1).write_fwd(9).unwrap();
        let _c = m.meter().charge(12);
        let usage = m.usage();
        assert_eq!(st_trace::replay(&buf.snapshot()), usage);
        let report = st_trace::audit(&buf.snapshot());
        assert!(report.ok(), "{report}");
        assert_eq!(report.checks(), 1);
    }

    #[test]
    fn machine_state_is_send_for_worker_threads() {
        // One experiment = one TapeMachine owned by one worker thread of
        // the parallel harness: the whole machine (tapes, meter, tracer)
        // must be Send so it can be built and dropped on that worker.
        fn assert_send<T: Send>() {}
        assert_send::<TapeMachine<u8>>();
        assert_send::<Tape<u8>>();
    }
}
