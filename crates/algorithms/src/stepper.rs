//! Resumable incremental deciders: the serving-layer driver API.
//!
//! A batch decider owns the thread until it answers; a *stepper*
//! separates the three tempos of a streaming service:
//!
//! * [`Stepper::feed`] — input bytes arrive (possibly one at a time);
//! * [`Stepper::finish`] — the stream ends; parameters are fixed;
//! * [`Stepper::step`] — bounded batches of tape work, yielding between
//!   batches so one worker thread can multiplex many sessions.
//!
//! Every stepper meters into the same `TapeMachine`/`MemoryMeter`/
//! st-trace stack as its batch counterpart, and the batch deciders in
//! [`crate::fingerprint`] and [`crate::sortcheck`] are now thin drivers
//! over these steppers with an unlimited budget — so *incremental ==
//! batch* holds by construction for the tape operations, and the
//! property tests in `tests/stepper_parity.rs` pin it for the verdict
//! and the full [`st_core::ResourceUsage`] record.
//!
//! [`Stepper::feed_owned`] takes the input as an owned buffer: the
//! fingerprint stepper lands it as its input tape
//! ([`Tape::write_vec_fwd`]) and the sort-route stepper adopts it as its
//! buffer, so neither copies the word. [`Stepper::feed_instance`] takes
//! an instance that is already parsed, and the batch deciders hand over
//! theirs this way. The fingerprint stepper lands its encoding with the
//! same `write_vec_fwd` and takes `m` and `n` from the lists, so it
//! does not read the word back; the sort-route stepper keeps the
//! default, [`Stepper::feed_owned`] of the encoding. Results, usage and
//! traces are those of [`Stepper::feed`] on the encoded word.
//!
//! [`FingerprintStepper`] does no residue arithmetic of its own. Its
//! ingest of fed bytes validates each chunk with one branch-free fold
//! and counts `m` and `n` from `#` to `#`, with the word scanners of
//! [`st_problems::instance`] (eight bytes per step); its
//! backward scan hands `read_slice_bwd` slices to
//! [`crate::fingerprint::ResidueFold`], the word-parallel kernel that
//! `st-mpc`'s fingerprint worker drives as well. The kernel's state is
//! the charged registers plus constants of `p₁`, `p₂` and `x`, with no
//! table of powers: such a table would be internal memory the
//! meter does not see (see the [`crate::fingerprint`] module docs).

use crate::fingerprint::{sample_params, unexpected_symbol, FingerprintParams, ResidueFold};
use crate::sortcheck::DeciderRun;
use rand::Rng;
use st_core::StError;
use st_extmem::block::{Lockstep, DEFAULT_BLOCK};
use st_extmem::meter::bits_for;
use st_extmem::step::{SortStepper, StepBudget, StepProgress};
use st_extmem::{MemoryCharge, Tape, TapeMachine};
use st_problems::instance::{find_hash, first_invalid};
use st_problems::{BitStr, Instance};
use st_trace::{TraceEvent, Tracer};
use std::task::Poll;

/// What one bounded [`Stepper::step`] call achieved.
#[derive(Debug)]
pub enum StepOutcome {
    /// The decider is waiting for more input ([`Stepper::feed`] /
    /// [`Stepper::finish`]); no budget was consumed.
    NeedInput,
    /// The budget ran out mid-computation; step again to resume.
    Yielded,
    /// The verdict, with the full resource accounting of the run.
    Done(DeciderRun),
}

/// The incremental decider interface the service multiplexes over.
pub trait Stepper {
    /// Append input bytes. Returns `Poll::Ready(verdict)` only when the
    /// decider has already completed (feeding a finished stepper's
    /// result back is allowed; feeding *new* bytes after
    /// [`Stepper::finish`] is an error).
    fn feed(&mut self, bytes: &[u8]) -> Result<Poll<DeciderRun>, StError>;

    /// [`Stepper::feed`] of an owned buffer, with the same result, usage
    /// and trace. A stepper may keep the buffer instead of copying it:
    /// the batch deciders hand over a whole encoded word this way.
    fn feed_owned(&mut self, bytes: Vec<u8>) -> Result<Poll<DeciderRun>, StError> {
        self.feed(&bytes)
    }

    /// [`Stepper::feed_owned`] of `inst`'s encoded word, with the same
    /// result, usage and trace. A stepper that has been fed nothing may
    /// use the parsed lists instead of reading the word back: the batch
    /// deciders hand over their instance this way.
    fn feed_instance(&mut self, inst: &Instance) -> Result<Poll<DeciderRun>, StError> {
        self.feed_owned(inst.encode_bytes())
    }

    /// Declare the end of the input stream.
    fn finish(&mut self) -> Result<(), StError>;

    /// Run at most `budget` micro-operations of tape work.
    fn step(&mut self, budget: &mut StepBudget) -> Result<StepOutcome, StError>;
}

/// Drive a stepper to completion with an unlimited budget (the batch
/// entry point; the input must already be finished).
pub fn drive_to_verdict<S: Stepper + ?Sized>(stepper: &mut S) -> Result<DeciderRun, StError> {
    loop {
        match stepper.step(&mut StepBudget::unlimited())? {
            StepOutcome::Done(v) => return Ok(v),
            StepOutcome::NeedInput => {
                return Err(StError::Machine(
                    "stepper needs more input; call finish() before driving".into(),
                ))
            }
            StepOutcome::Yielded => {}
        }
    }
}

// ---------------------------------------------------------------------
// Theorem 8(a) fingerprint, incrementally.
// ---------------------------------------------------------------------

enum FpState {
    /// Scan 1, streaming: each fed symbol is written forward onto the
    /// input tape while the `m`/`n` counters accumulate — by the time
    /// the stream ends the first scan has already happened.
    Ingest {
        m2: u64,
        n_max: u64,
        cur: u64,
    },
    /// Scan 2: the backward accumulation of `Σ x^{eᵢ}` per half.
    Backward(ResidueFold),
    Done(DeciderRun),
}

/// The Theorem 8(a) fingerprint decider as a stepper.
///
/// The forward scan is free: it happens *during* [`Stepper::feed`], one
/// tape write per symbol, so `step` only ever works on the backward
/// scan. The machine opens with `RunBegin N=0` (the stream length is
/// unknown) and declares the true `N` via a `TraceEvent::InputSize`
/// at [`Stepper::finish`] — replay audits see the same `N` the machine
/// reports.
pub struct FingerprintStepper<R: Rng> {
    machine: TapeMachine<u8>,
    rng: R,
    params: Option<FingerprintParams>,
    final_residues: Option<(u64, u64)>,
    state: FpState,
    backward_block: usize,
}

/// Default slice length of the backward block scan: big enough to
/// amortize per-call overhead, small enough that one slice is a few
/// cache lines of tape symbols.
pub const DEFAULT_BACKWARD_BLOCK: usize = 512;

impl<R: Rng> FingerprintStepper<R> {
    /// An untraced stepper drawing randomness from `rng`.
    #[must_use]
    pub fn new(rng: R) -> Self {
        Self::new_traced(rng, Tracer::disabled())
    }

    /// [`FingerprintStepper::new`] with its machine tracing on `tracer`.
    #[must_use]
    pub fn new_traced(rng: R, tracer: Tracer) -> Self {
        let mut machine = TapeMachine::new(0, tracer);
        machine.add_tape("input");
        FingerprintStepper {
            machine,
            rng,
            params: None,
            final_residues: None,
            state: FpState::Ingest {
                m2: 0,
                n_max: 0,
                cur: 0,
            },
            backward_block: DEFAULT_BACKWARD_BLOCK,
        }
    }

    /// Override the backward-scan slice length (`1` = one symbol per
    /// slice, the per-cell scan). Any value yields bit-for-bit the same
    /// verdict, usage, trace stream, *and* budget consumption — the
    /// parity tests pin this — so the knob exists for those tests and
    /// for benchmarks.
    pub fn set_backward_block(&mut self, block: usize) {
        assert!(block > 0, "block length must be positive");
        self.backward_block = block;
    }

    /// The sampled parameters; `None` until [`Stepper::finish`].
    #[must_use]
    pub fn params(&self) -> Option<FingerprintParams> {
        self.params
    }

    /// The final fingerprint sums `(sum_first, sum_second) mod p₂`;
    /// `None` until the verdict is reached. A degenerate run (prime
    /// sampling failed) reports `(0, 0)`.
    #[must_use]
    pub fn residues(&self) -> Option<(u64, u64)> {
        self.final_residues
    }

    fn feed_impl(&mut self, bytes: &[u8]) -> Result<Poll<DeciderRun>, StError> {
        let Some(valid) = self.count(bytes) else {
            return self.fed_late();
        };
        // The per-cell loop wrote exactly the valid prefix before
        // erroring, so one slice write accounts identically.
        self.machine.tape_mut(0).write_slice_fwd(&bytes[..valid])?;
        fed(&bytes[valid..])
    }

    /// [`Self::feed_impl`] of an owned buffer: its valid prefix lands
    /// with [`Tape::write_vec_fwd`], so on the still-empty tape the
    /// buffer becomes the tape.
    fn feed_owned_impl(&mut self, mut bytes: Vec<u8>) -> Result<Poll<DeciderRun>, StError> {
        let Some(valid) = self.count(&bytes) else {
            return self.fed_late();
        };
        let answer = fed(&bytes[valid..]);
        bytes.truncate(valid);
        self.machine.tape_mut(0).write_vec_fwd(bytes)?;
        answer
    }

    /// [`Stepper::feed_instance`]: on a stepper fed nothing yet, the
    /// encoded word lands as [`Self::feed_owned_impl`] lands it, and the
    /// counters come from the lists. An instance encodes to a valid word
    /// by construction, so no byte is validated or counted.
    fn feed_instance_impl(&mut self, inst: &Instance) -> Result<Poll<DeciderRun>, StError> {
        let FpState::Ingest { m2, n_max, cur } = &mut self.state else {
            return self.fed_late();
        };
        if !self.machine.tape(0).is_empty() {
            return self.feed_owned_impl(inst.encode_bytes());
        }
        *m2 = (inst.xs.len() + inst.ys.len()) as u64;
        *n_max = inst
            .xs
            .iter()
            .chain(&inst.ys)
            .map(BitStr::len)
            .max()
            .unwrap_or(0) as u64;
        *cur = 0;
        self.machine
            .tape_mut(0)
            .write_vec_fwd(inst.encode_bytes())?;
        Ok(Poll::Pending)
    }

    /// Scan 1 over a fed chunk: validate it in one fold and count `m`
    /// and `n` over its valid prefix, from `#` to `#`. Returns the prefix
    /// length; `None` once the stream is finished.
    fn count(&mut self, bytes: &[u8]) -> Option<usize> {
        let FpState::Ingest { m2, n_max, cur } = &mut self.state else {
            return None;
        };
        let valid = first_invalid(bytes).unwrap_or(bytes.len());
        let mut rest = &bytes[..valid];
        while let Some(h) = find_hash(rest) {
            *m2 += 1;
            *n_max = (*n_max).max(*cur + h as u64);
            *cur = 0;
            rest = &rest[h + 1..];
        }
        *cur += rest.len() as u64;
        Some(valid)
    }

    /// The answer to a feed after [`Stepper::finish`].
    fn fed_late(&self) -> Result<Poll<DeciderRun>, StError> {
        match &self.state {
            FpState::Done(v) => Ok(Poll::Ready(v.clone())),
            _ => Err(StError::Machine(
                "fingerprint stepper fed after finish".into(),
            )),
        }
    }

    fn finish_impl(&mut self) -> Result<(), StError> {
        let (m2, n_max) = match &self.state {
            FpState::Ingest { m2, n_max, .. } => (*m2, *n_max),
            _ => {
                return Err(StError::Machine(
                    "fingerprint stepper finished twice".into(),
                ))
            }
        };
        let n_input = self.machine.tape(0).len();
        self.machine.set_input_len(n_input);
        let meter = self.machine.meter().clone();
        // The scan-1 registers: three counters of ≤ log N bits each.
        meter.charge_static(3 * bits_for(n_input.max(2) as u64));
        let m = m2 / 2;

        // Randomness (internal memory only) — `sample_params` is the one
        // shared parameter-selection sequence (batch, stepper, mpc).
        let params = sample_params(m, n_max, &mut self.rng)?;
        if m > 0 {
            // p₁, p₂, x, e, pow2, S, S′ — seven registers of O(log k) bits.
            meter.charge_static(7 * bits_for(6 * params.k));
        }
        self.params = Some(params);
        if params.degenerate() {
            // Sampling failure must never reject a yes-instance.
            self.final_residues = Some((0, 0));
            let usage = self.machine.usage();
            self.state = FpState::Done(DeciderRun {
                accepted: true,
                usage,
            });
            return Ok(());
        }

        // Turn around onto the final '#': the run's single reversal.
        let tape = self.machine.tape_mut(0);
        if !tape.at_start() {
            tape.move_left()?;
        }
        self.state = FpState::Backward(ResidueFold::new(params, m));
        Ok(())
    }

    /// Backward-scan micro-operations in bulk: read up to `count`
    /// symbols as one slice (one symbol under a fault plan) and hand it to
    /// the [`ResidueFold`] kernel, whose word-parallel fold equals the
    /// per-bit recurrence exactly — so residues, verdict, usage and
    /// budget consumption are bit-for-bit those of one `read_bwd` per
    /// symbol. Returns the micro-operations performed: the symbols read,
    /// or 1 for the free `None` read that ends an empty tape's scan.
    ///
    /// `count` must not exceed the unread symbols (the caller caps it).
    fn advance_backward(&mut self, count: usize) -> Result<usize, StError> {
        let FpState::Backward(fold) = &mut self.state else {
            return Ok(0);
        };
        let tape = self.machine.tape_mut(0);
        let head_before = tape.head();
        let tape_empty = tape.is_empty();
        let chunk = tape.read_slice_bwd(count);
        // `finished` iff the slice reached cell 0 (or the tape is empty
        // and the single free `None` read ends the scan).
        let finished = chunk.len() > head_before || tape_empty;
        let used = chunk.len().max(usize::from(tape_empty));
        fold.fold(chunk)?;
        if finished {
            let (sum_first, sum_second) = fold.finish();
            self.final_residues = Some((sum_first, sum_second));
            let usage = self.machine.usage();
            self.state = FpState::Done(DeciderRun {
                accepted: sum_first == sum_second,
                usage,
            });
        }
        Ok(used)
    }
}

/// The answer to an ingesting feed whose chunk ends with `bad` after its
/// valid prefix: the first bad symbol's error, or pending.
fn fed(bad: &[u8]) -> Result<Poll<DeciderRun>, StError> {
    match bad.first() {
        Some(&b) => Err(unexpected_symbol(b)),
        None => Ok(Poll::Pending),
    }
}

impl<R: Rng> Stepper for FingerprintStepper<R> {
    fn feed(&mut self, bytes: &[u8]) -> Result<Poll<DeciderRun>, StError> {
        self.feed_impl(bytes)
    }

    fn feed_owned(&mut self, bytes: Vec<u8>) -> Result<Poll<DeciderRun>, StError> {
        self.feed_owned_impl(bytes)
    }

    fn feed_instance(&mut self, inst: &Instance) -> Result<Poll<DeciderRun>, StError> {
        self.feed_instance_impl(inst)
    }

    fn finish(&mut self) -> Result<(), StError> {
        self.finish_impl()
    }

    fn step(&mut self, budget: &mut StepBudget) -> Result<StepOutcome, StError> {
        loop {
            match &self.state {
                FpState::Ingest { .. } => return Ok(StepOutcome::NeedInput),
                FpState::Done(v) => return Ok(StepOutcome::Done(v.clone())),
                FpState::Backward(_) => {
                    // Unread symbols left in the scan: everything at or
                    // left of the head (plus the single free `None` read
                    // that ends an empty tape's scan).
                    let tape = self.machine.tape(0);
                    let unread = if tape.is_empty() { 1 } else { tape.head() + 1 };
                    let want = unread.min(self.backward_block) as u64;
                    let max = budget.remaining().min(want);
                    if max == 0 {
                        return Ok(StepOutcome::Yielded);
                    }
                    let used = self.advance_backward(max as usize)?;
                    budget.take_up_to(used as u64);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Corollary 7 sort-route deciders, incrementally.
// ---------------------------------------------------------------------

/// Which sort-route decider a [`SortRouteStepper`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortRoute {
    /// MULTISET-EQUALITY: sort both lists, compare cell-for-cell.
    Multiset,
    /// CHECK-SORT: sort the first list, compare with the second and
    /// verify the second is ascending in the same scan.
    CheckSort,
    /// SET-EQUALITY: sort both lists, compare deduplicated streams.
    SetEquality,
}

impl SortRoute {
    /// Stable identifier (protocol / script wire name).
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            SortRoute::Multiset => "sort-multiset",
            SortRoute::CheckSort => "check-sort",
            SortRoute::SetEquality => "set-eq",
        }
    }

    /// Parse a wire name (inverse of [`SortRoute::id`]).
    #[must_use]
    pub fn from_id(s: &str) -> Option<Self> {
        Some(match s {
            "sort-multiset" => SortRoute::Multiset,
            "check-sort" => SortRoute::CheckSort,
            "set-eq" => SortRoute::SetEquality,
            _ => return None,
        })
    }
}

/// Sub-state of the final compare scan.
enum CompareState {
    /// Scan preamble not yet run (rewinds, memory charge, scan event).
    Init,
    /// Mid the lockstep scan: `tapes_equal` (MULTISET-EQUALITY) or
    /// `compare_sorted` (CHECK-SORT).
    Lockstep {
        scan: Lockstep<BitStr>,
        charge: Option<MemoryCharge>,
    },
    /// Mid the dedup compare (SET-EQUALITY).
    SetEq {
        equal: bool,
        cur_a: Option<BitStr>,
        cur_b: Option<BitStr>,
        pos: SetEqPos,
        charge: Option<MemoryCharge>,
    },
}

/// Where the SET-EQUALITY dedup loop is between yields.
enum SetEqPos {
    /// At a fresh frontier pair.
    Head,
    /// Skipping duplicates of the frontier value on the first tape.
    SkipA(BitStr),
    /// Skipping duplicates of the frontier value on the second tape.
    SkipB(BitStr),
}

/// Read past the records equal to `x` at the head of `t`, in slices, at
/// one budget unit per record read — the per-cell loop's price. Returns
/// the first read that is not `x` (a differing record, or `None` at the
/// end of the tape), or `None` when the budget ran out first.
fn skip_run(t: &mut Tape<BitStr>, x: &BitStr, budget: &mut StepBudget) -> Option<Option<BitStr>> {
    loop {
        let max = budget.remaining().min(DEFAULT_BLOCK as u64) as usize;
        if max == 0 {
            return None;
        }
        let s = t.peek_slice(max);
        if s.is_empty() {
            budget.take();
            return Some(None);
        }
        match s.iter().position(|v| v != x) {
            Some(k) => {
                let next = s[k].clone();
                t.advance_fwd(k + 1);
                budget.take_up_to(k as u64 + 1);
                return Some(Some(next));
            }
            None => {
                let n = s.len();
                t.advance_fwd(n);
                budget.take_up_to(n as u64);
            }
        }
    }
}

enum RoutePhase {
    Sort1(SortStepper<BitStr>),
    Sort2(SortStepper<BitStr>),
    Compare(CompareState),
}

struct Running {
    machine: TapeMachine<BitStr>,
    phase: RoutePhase,
}

enum RouteState {
    Buffering(Vec<u8>),
    Running(Box<Running>),
    Done(DeciderRun),
}

/// What one [`Running::advance`] call achieved.
enum Advance {
    Yielded,
    Continue,
    Finished(DeciderRun),
}

/// A Corollary 7 sort-route decider as a stepper.
///
/// The input word buffers during [`Stepper::feed`] (the sort machines
/// are record-level: their tapes hold parsed values, not symbols) and
/// parses at [`Stepper::finish`]; from there every sort pass and the
/// final compare scan run under the step budget via the
/// [`st_extmem::step::SortStepper`] and the resumable block compare
/// kernels of [`st_extmem::block`].
pub struct SortRouteStepper {
    route: SortRoute,
    tracer: Tracer,
    state: RouteState,
}

impl SortRouteStepper {
    /// An untraced stepper for `route`.
    #[must_use]
    pub fn new(route: SortRoute) -> Self {
        Self::new_traced(route, Tracer::disabled())
    }

    /// [`SortRouteStepper::new`] with its machine tracing on `tracer`.
    #[must_use]
    pub fn new_traced(route: SortRoute, tracer: Tracer) -> Self {
        SortRouteStepper {
            route,
            tracer,
            state: RouteState::Buffering(Vec::new()),
        }
    }

    /// The route this stepper decides.
    #[must_use]
    pub fn route(&self) -> SortRoute {
        self.route
    }

    fn feed_impl(&mut self, bytes: &[u8]) -> Result<Poll<DeciderRun>, StError> {
        match &mut self.state {
            RouteState::Buffering(buf) => {
                buf.extend_from_slice(bytes);
                Ok(Poll::Pending)
            }
            RouteState::Running(_) => Err(StError::Machine(
                "sort-route stepper fed after finish".into(),
            )),
            RouteState::Done(v) => Ok(Poll::Ready(v.clone())),
        }
    }

    fn finish_impl(&mut self) -> Result<(), StError> {
        let RouteState::Buffering(buf) = &self.state else {
            return Err(StError::Machine("sort-route stepper finished twice".into()));
        };
        let inst = Instance::parse_bytes(buf)?;
        // The batch machine layout: tape 0 = first list, tape 1 =
        // second list, tapes 2–3 = merge scratch.
        let n = inst.size();
        let mut machine = TapeMachine::with_input(inst.xs, n, self.tracer.clone());
        machine.add_tape_with("second", inst.ys);
        machine.add_tape("scratch1");
        machine.add_tape("scratch2");
        self.state = RouteState::Running(Box::new(Running {
            machine,
            phase: RoutePhase::Sort1(SortStepper::new(0, 2, 3)),
        }));
        Ok(())
    }
}

impl Running {
    /// Advance by one bounded unit of work: a sort-stepper batch, a
    /// compare-scan batch, or a phase transition.
    fn advance(&mut self, route: SortRoute, budget: &mut StepBudget) -> Result<Advance, StError> {
        match &mut self.phase {
            RoutePhase::Sort1(stepper) => match stepper.step(&mut self.machine, budget)? {
                StepProgress::Yielded => Ok(Advance::Yielded),
                StepProgress::Done => {
                    self.phase = match route {
                        SortRoute::Multiset | SortRoute::SetEquality => {
                            RoutePhase::Sort2(SortStepper::new(1, 2, 3))
                        }
                        SortRoute::CheckSort => RoutePhase::Compare(CompareState::Init),
                    };
                    Ok(Advance::Continue)
                }
            },
            RoutePhase::Sort2(stepper) => match stepper.step(&mut self.machine, budget)? {
                StepProgress::Yielded => Ok(Advance::Yielded),
                StepProgress::Done => {
                    self.phase = RoutePhase::Compare(CompareState::Init);
                    Ok(Advance::Continue)
                }
            },
            RoutePhase::Compare(_) => self.advance_compare(route, budget),
        }
    }

    /// Advance the final compare scan within the budget: the batch
    /// deciders' scan sequences, one unit for the preamble and then the
    /// per-cell price of each read.
    fn advance_compare(
        &mut self,
        route: SortRoute,
        budget: &mut StepBudget,
    ) -> Result<Advance, StError> {
        let RoutePhase::Compare(state) = &mut self.phase else {
            return Ok(Advance::Continue);
        };
        match state {
            CompareState::Init => {
                if !budget.take() {
                    return Ok(Advance::Yielded);
                }
                let meter = self.machine.meter().clone();
                let tracer = self.machine.tracer().clone();
                match route {
                    SortRoute::Multiset => {
                        // The `tapes_equal` preamble.
                        tracer.emit(|| TraceEvent::ScanStart {
                            op: "tapes_equal".to_string(),
                        });
                        let (a, b) = self.machine.pair_mut(0, 1);
                        a.rewind();
                        b.rewind();
                        *state = CompareState::Lockstep {
                            scan: Lockstep::new(DEFAULT_BLOCK),
                            charge: Some(meter.charge(2)),
                        };
                    }
                    SortRoute::CheckSort => {
                        // The `compare_sorted(second, first)` preamble:
                        // the *second* list is the one checked for
                        // sortedness, so it rewinds first.
                        tracer.emit(|| TraceEvent::ScanStart {
                            op: "compare_sorted".to_string(),
                        });
                        let (b, a) = self.machine.pair_mut(1, 0);
                        b.rewind();
                        a.rewind();
                        *state = CompareState::Lockstep {
                            scan: Lockstep::new(DEFAULT_BLOCK),
                            charge: Some(meter.charge(3)),
                        };
                    }
                    SortRoute::SetEquality => {
                        // The dedup compare is inline (no scan event):
                        // rewinds, frontier charge, initial reads.
                        let n = self.machine.input_len();
                        let (a, b) = self.machine.pair_mut(0, 1);
                        a.rewind();
                        b.rewind();
                        let charge = meter.charge(2 + bits_for(n.max(2) as u64));
                        let cur_a = a.read_fwd();
                        let cur_b = b.read_fwd();
                        *state = CompareState::SetEq {
                            equal: true,
                            cur_a,
                            cur_b,
                            pos: SetEqPos::Head,
                            charge: Some(charge),
                        };
                    }
                }
                Ok(Advance::Continue)
            }
            CompareState::Lockstep { scan, charge } => {
                let (accepted, op) = if route == SortRoute::CheckSort {
                    let (b, a) = self.machine.pair_mut(1, 0);
                    let Some((equal, sorted)) = scan.step_sorted(b, a, budget) else {
                        return Ok(Advance::Yielded);
                    };
                    (equal && sorted, "compare_sorted")
                } else {
                    let (a, b) = self.machine.pair_mut(0, 1);
                    let Some(equal) = scan.step_equal(a, b, budget) else {
                        return Ok(Advance::Yielded);
                    };
                    (equal, "tapes_equal")
                };
                self.machine
                    .tracer()
                    .emit(|| TraceEvent::ScanEnd { op: op.to_string() });
                drop(charge.take());
                let usage = self.machine.usage();
                Ok(Advance::Finished(DeciderRun { accepted, usage }))
            }
            CompareState::SetEq {
                equal,
                cur_a,
                cur_b,
                pos,
                charge,
            } => loop {
                let (a, b) = self.machine.pair_mut(0, 1);
                match std::mem::replace(pos, SetEqPos::Head) {
                    SetEqPos::Head => {
                        if !budget.take() {
                            return Ok(Advance::Yielded);
                        }
                        match (cur_a.as_ref(), cur_b.as_ref()) {
                            (Some(x), Some(y)) if x == y => {
                                *pos = SetEqPos::SkipA(x.clone());
                                continue;
                            }
                            (Some(_), Some(_)) => *equal = false,
                            (a, b) => *equal &= a.is_none() && b.is_none(),
                        }
                        let accepted = *equal;
                        // Batch order: usage first, frontier charge
                        // released at function exit.
                        let usage = self.machine.usage();
                        drop(charge.take());
                        return Ok(Advance::Finished(DeciderRun { accepted, usage }));
                    }
                    SetEqPos::SkipA(x) => match skip_run(a, &x, budget) {
                        Some(next) => {
                            *cur_a = next;
                            *pos = SetEqPos::SkipB(x);
                        }
                        None => {
                            *pos = SetEqPos::SkipA(x);
                            return Ok(Advance::Yielded);
                        }
                    },
                    SetEqPos::SkipB(x) => match skip_run(b, &x, budget) {
                        Some(next) => *cur_b = next,
                        None => {
                            *pos = SetEqPos::SkipB(x);
                            return Ok(Advance::Yielded);
                        }
                    },
                }
            },
        }
    }
}

impl Stepper for SortRouteStepper {
    fn feed(&mut self, bytes: &[u8]) -> Result<Poll<DeciderRun>, StError> {
        self.feed_impl(bytes)
    }

    fn feed_owned(&mut self, bytes: Vec<u8>) -> Result<Poll<DeciderRun>, StError> {
        match &mut self.state {
            // Nothing buffered yet: adopt the buffer instead of copying.
            RouteState::Buffering(buf) if buf.is_empty() => {
                *buf = bytes;
                Ok(Poll::Pending)
            }
            _ => self.feed_impl(&bytes),
        }
    }

    fn finish(&mut self) -> Result<(), StError> {
        self.finish_impl()
    }

    fn step(&mut self, budget: &mut StepBudget) -> Result<StepOutcome, StError> {
        loop {
            match &mut self.state {
                RouteState::Buffering(_) => return Ok(StepOutcome::NeedInput),
                RouteState::Done(v) => return Ok(StepOutcome::Done(v.clone())),
                RouteState::Running(run) => match run.advance(self.route, budget)? {
                    Advance::Yielded => return Ok(StepOutcome::Yielded),
                    Advance::Continue => {}
                    Advance::Finished(v) => self.state = RouteState::Done(v),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use st_problems::generate;

    #[test]
    fn fingerprint_stepper_needs_input_then_yields_then_finishes() {
        let mut rng = StdRng::seed_from_u64(9);
        let inst = generate::yes_multiset(8, 6, &mut rng);
        let word = inst.encode();
        let mut stepper = FingerprintStepper::new(StdRng::seed_from_u64(1));
        assert!(matches!(
            stepper.step(&mut StepBudget::new(8)).unwrap(),
            StepOutcome::NeedInput
        ));
        for chunk in word.as_bytes().chunks(3) {
            assert!(stepper.feed(chunk).unwrap().is_pending());
        }
        stepper.finish().unwrap();
        let mut yields = 0;
        let verdict = loop {
            match stepper.step(&mut StepBudget::new(4)).unwrap() {
                StepOutcome::Done(v) => break v,
                StepOutcome::Yielded => yields += 1,
                StepOutcome::NeedInput => unreachable!("finished stream"),
            }
        };
        assert!(verdict.accepted);
        assert!(
            yields > 0,
            "a backward scan of {} symbols must yield",
            word.len()
        );
        assert_eq!(verdict.usage.scans(), 2);
        assert_eq!(verdict.usage.external_tapes, 1);
        // Feeding a finished stepper returns the cached verdict.
        assert!(stepper.feed(&[]).unwrap().is_ready());
        // Feeding fresh bytes after finish is an error.
        let mut mid = FingerprintStepper::new(StdRng::seed_from_u64(2));
        let _ = mid.feed(b"0#0#").unwrap();
        mid.finish().unwrap();
        assert!(mid.feed(b"1").is_err());
    }

    #[test]
    fn backward_block_scan_is_bit_for_bit_the_cell_scan() {
        // The word-parallel block backward scan must be observationally
        // identical to the per-cell scan: verdict, ResourceUsage, trace
        // stream, and even the yield points under a tiny budget.
        let mut rng = StdRng::seed_from_u64(77);
        let insts = vec![
            generate::yes_multiset(13, 9, &mut rng),
            generate::no_multiset_one_bit(13, 9, &mut rng),
            generate::random_instance(5, 17, &mut rng),
            st_problems::Instance::parse("").unwrap(),
            st_problems::Instance::parse("0101#0101#").unwrap(),
        ];
        for inst in insts {
            let word = inst.encode();
            let mut runs = Vec::new();
            for block in [1usize, 2, 3, 7, 8, 64, 512] {
                let (tracer, buf) = Tracer::in_memory();
                let mut st = FingerprintStepper::new_traced(StdRng::seed_from_u64(1234), tracer);
                st.set_backward_block(block);
                let _ = st.feed(word.as_bytes()).unwrap();
                st.finish().unwrap();
                let mut yields = 0u64;
                let verdict = loop {
                    match st.step(&mut StepBudget::new(5)).unwrap() {
                        StepOutcome::Done(v) => break v,
                        StepOutcome::Yielded => yields += 1,
                        StepOutcome::NeedInput => unreachable!("finished stream"),
                    }
                };
                runs.push((
                    block,
                    verdict.accepted,
                    verdict.usage,
                    yields,
                    buf.snapshot(),
                ));
            }
            let (_, accepted0, usage0, yields0, trace0) = &runs[0];
            for (block, accepted, usage, yields, trace) in &runs[1..] {
                assert_eq!(accepted, accepted0, "verdict, block={block} word={word}");
                assert_eq!(usage, usage0, "usage, block={block} word={word}");
                assert_eq!(yields, yields0, "yield points, block={block} word={word}");
                assert_eq!(trace, trace0, "trace stream, block={block} word={word}");
            }
        }
    }

    #[test]
    fn fingerprint_stepper_rejects_bad_symbols_at_feed_time() {
        let mut stepper = FingerprintStepper::new(StdRng::seed_from_u64(3));
        assert!(stepper.feed(b"01x").is_err());
    }

    #[test]
    fn sort_route_ids_round_trip() {
        for route in [
            SortRoute::Multiset,
            SortRoute::CheckSort,
            SortRoute::SetEquality,
        ] {
            assert_eq!(SortRoute::from_id(route.id()), Some(route));
        }
        assert_eq!(SortRoute::from_id("bogo-sort"), None);
    }

    #[test]
    fn sort_route_stepper_matches_reference_predicates() {
        use st_problems::predicates;
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..10 {
            let inst = generate::random_instance(6, 4, &mut rng);
            for (route, expect) in [
                (SortRoute::Multiset, predicates::is_multiset_equal(&inst)),
                (SortRoute::CheckSort, predicates::is_check_sorted(&inst)),
                (SortRoute::SetEquality, predicates::is_set_equal(&inst)),
            ] {
                let mut stepper = SortRouteStepper::new(route);
                let _ = stepper.feed(inst.encode().as_bytes()).unwrap();
                stepper.finish().unwrap();
                let verdict = drive_to_verdict(&mut stepper).unwrap();
                assert_eq!(verdict.accepted, expect, "{:?} {}", route, inst.encode());
            }
        }
    }

    #[test]
    fn sort_route_stepper_yields_under_tiny_budgets() {
        let mut rng = StdRng::seed_from_u64(18);
        let inst = generate::yes_multiset(16, 8, &mut rng);
        let mut stepper = SortRouteStepper::new(SortRoute::Multiset);
        let _ = stepper.feed(inst.encode().as_bytes()).unwrap();
        stepper.finish().unwrap();
        let mut yields = 0u64;
        let verdict = loop {
            match stepper.step(&mut StepBudget::new(7)).unwrap() {
                StepOutcome::Done(v) => break v,
                StepOutcome::Yielded => yields += 1,
                StepOutcome::NeedInput => unreachable!(),
            }
        };
        assert!(verdict.accepted);
        assert!(yields > 10, "a 16-record sort must take many 7-op batches");
    }

    #[test]
    fn finish_rejects_parameters_past_the_bertrand_bound() {
        // m = 2¹⁹ one-bit pairs: a 2 MB word whose 6k overflows u64.
        let word = b"1#".repeat(1 << 20);
        let mut stepper = FingerprintStepper::new(StdRng::seed_from_u64(5));
        let _ = stepper.feed(&word).unwrap();
        match stepper.finish() {
            Err(StError::Precondition(msg)) => assert!(msg.contains("6k"), "{msg}"),
            other => panic!("{other:?}"),
        }
        assert!(stepper.params().is_none());
    }

    #[test]
    fn invalid_words_fail_at_finish() {
        let mut stepper = SortRouteStepper::new(SortRoute::Multiset);
        let _ = stepper.feed(b"0#1#0#").unwrap(); // odd number of blocks
        assert!(stepper.finish().is_err());
    }

    #[test]
    fn steppers_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<FingerprintStepper<StdRng>>();
        assert_send::<SortRouteStepper>();
        assert_send::<Box<dyn Stepper + Send>>();
    }
}
