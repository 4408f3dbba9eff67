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

use crate::fingerprint::{sample_params, FingerprintParams};
use crate::sortcheck::DeciderRun;
use rand::Rng;
use st_core::math::{add_mod, mul_mod, pow_mod};
use st_core::StError;
use st_extmem::meter::bits_for;
use st_extmem::step::{SortStepper, StepBudget, StepProgress};
use st_extmem::{MemoryCharge, TapeMachine};
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

/// The tracer a compare scan emits to: the ambient scope when one is
/// installed, else the machine's own — the [`st_extmem::scan`]
/// resolution, re-stated here because every tape of the stepper's
/// machine carries the machine tracer.
fn ambient_or(machine_tracer: &Tracer) -> Tracer {
    let ambient = st_trace::current();
    if ambient.is_enabled() {
        ambient
    } else {
        machine_tracer.clone()
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
    Backward {
        m: u64,
        sum_second: u64,
        sum_first: u64,
        e: u64,
        pow2: u64,
        seen_hashes: u64,
    },
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
    /// A stepper drawing randomness from `rng`, tracing to the ambient
    /// scope (if any).
    #[must_use]
    pub fn new(rng: R) -> Self {
        Self::new_traced(rng, st_trace::current())
    }

    /// [`FingerprintStepper::new`] with an explicit tracer — sessions
    /// run on worker threads where the ambient thread-local scope does
    /// not travel.
    #[must_use]
    pub fn new_traced(rng: R, tracer: Tracer) -> Self {
        let mut machine = TapeMachine::new_traced(0, tracer);
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

    /// Override the backward-scan slice length (`1` = the per-cell
    /// path). Any value yields bit-for-bit the same verdict, usage,
    /// trace stream, *and* budget consumption — the parity tests pin
    /// this — so the knob exists for those tests and for benchmarks.
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
        match &mut self.state {
            FpState::Ingest { m2, n_max, cur } => {
                // Validate and count in one pass over the chunk, then
                // land the whole valid prefix on the tape as one slice
                // write — the per-cell loop wrote exactly that prefix
                // before erroring, so accounting is unchanged.
                let mut bad: Option<u8> = None;
                let mut valid = bytes.len();
                for (i, &sym) in bytes.iter().enumerate() {
                    match sym {
                        b'#' => {
                            *m2 += 1;
                            *n_max = (*n_max).max(*cur);
                            *cur = 0;
                        }
                        b'0' | b'1' => *cur += 1,
                        other => {
                            bad = Some(other);
                            valid = i;
                            break;
                        }
                    }
                }
                let tape = self.machine.tape_mut(0);
                tape.write_slice_fwd(&bytes[..valid])?;
                if let Some(other) = bad {
                    return Err(StError::InvalidInstance(format!(
                        "unexpected tape symbol {:?}",
                        other as char
                    )));
                }
                Ok(Poll::Pending)
            }
            FpState::Backward { .. } => Err(StError::Machine(
                "fingerprint stepper fed after finish".into(),
            )),
            FpState::Done(v) => Ok(Poll::Ready(v.clone())),
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
        self.state = FpState::Backward {
            m,
            sum_second: 0,
            sum_first: 0,
            e: 0,
            pow2: 1,
            seen_hashes: 0,
        };
        Ok(())
    }

    /// One backward-scan micro-operation (one `read_bwd`).
    fn advance_backward(&mut self) -> Result<(), StError> {
        let params = self
            .params
            .ok_or_else(|| StError::Machine("backward scan without parameters".into()))?;
        let FpState::Backward {
            m,
            sum_second,
            sum_first,
            e,
            pow2,
            seen_hashes,
        } = &mut self.state
        else {
            return Ok(());
        };
        let flush = |seen: u64, e: u64, sum_second: &mut u64, sum_first: &mut u64, m: u64| {
            let term = pow_mod(params.x, e, params.p2);
            if seen <= m {
                *sum_second = add_mod(*sum_second, term, params.p2);
            } else {
                *sum_first = add_mod(*sum_first, term, params.p2);
            }
        };
        let tape = self.machine.tape_mut(0);
        let pos_before = tape.head();
        let finished;
        match tape.read_bwd() {
            Some(b'#') => {
                // Terminator of some value; if this is not the very
                // first symbol read, the accumulated value is complete.
                if *seen_hashes > 0 {
                    flush(*seen_hashes, *e, sum_second, sum_first, *m);
                }
                *seen_hashes += 1;
                *e = 0;
                *pow2 = 1;
                finished = pos_before == 0;
            }
            Some(bit @ (b'0' | b'1')) => {
                if bit == b'1' {
                    *e = add_mod(*e, *pow2, params.p1);
                }
                *pow2 = mul_mod(*pow2, 2, params.p1);
                finished = pos_before == 0;
            }
            Some(other) => {
                return Err(StError::InvalidInstance(format!(
                    "unexpected tape symbol {:?}",
                    other as char
                )))
            }
            None => finished = true,
        }
        if finished {
            // The leftmost value has no preceding '#'; flush it.
            if *seen_hashes > 0 {
                flush(*seen_hashes, *e, sum_second, sum_first, *m);
            }
            let accepted = *sum_first == *sum_second;
            self.final_residues = Some((*sum_first, *sum_second));
            let usage = self.machine.usage();
            self.state = FpState::Done(DeciderRun { accepted, usage });
        }
        Ok(())
    }

    /// Backward-scan micro-operations in bulk: read `count` symbols as
    /// one zero-copy slice and fold them into the residue accumulators
    /// with **word-parallel** arithmetic — up to 8 bits of a value are
    /// absorbed per modular multiply (`e += (Σ bitⱼ·2ʲ)·pow2 mod p₁;
    /// pow2 ·= 2ᵗᵃᵏᵉ`), which distributes over the per-bit recurrence
    /// exactly, so residues, verdict, usage and budget consumption are
    /// bit-for-bit those of `count` calls to
    /// [`advance_backward`](Self::advance_backward).
    ///
    /// `count` must not exceed the unread symbols (the caller caps it).
    fn advance_backward_block(&mut self, count: usize) -> Result<(), StError> {
        let params = self
            .params
            .ok_or_else(|| StError::Machine("backward scan without parameters".into()))?;
        let FpState::Backward {
            m,
            sum_second,
            sum_first,
            e,
            pow2,
            seen_hashes,
        } = &mut self.state
        else {
            return Ok(());
        };
        let flush = |seen: u64, e: u64, sum_second: &mut u64, sum_first: &mut u64, m: u64| {
            let term = pow_mod(params.x, e, params.p2);
            if seen <= m {
                *sum_second = add_mod(*sum_second, term, params.p2);
            } else {
                *sum_first = add_mod(*sum_first, term, params.p2);
            }
        };
        let tape = self.machine.tape_mut(0);
        let head_before = tape.head();
        let tape_empty = tape.is_empty();
        let chunk = tape.read_slice_bwd(count);
        // Scan order is from the head leftward: the slice reversed.
        // `finished` iff the slice reached cell 0 (or the tape is empty
        // and the single free `None` read ends the scan).
        let finished = chunk.len() > head_before || tape_empty;
        // One vectorizable validation sweep up front keeps the hot bit
        // loop below branch-free. (Unreachable through the public API:
        // `feed` already rejects anything outside the tape alphabet.)
        if let Some(&bad) = chunk.iter().find(|&&b| b != b'#' && b != b'0' && b != b'1') {
            return Err(StError::InvalidInstance(format!(
                "unexpected tape symbol {:?}",
                bad as char
            )));
        }
        let mut idx = chunk.len();
        while idx > 0 {
            if chunk[idx - 1] == b'#' {
                if *seen_hashes > 0 {
                    flush(*seen_hashes, *e, sum_second, sum_first, *m);
                }
                *seen_hashes += 1;
                *e = 0;
                *pow2 = 1;
                idx -= 1;
            } else {
                // The maximal run of bit symbols ending at idx, absorbed
                // 63 backward-read bits per modular step (the most that
                // keeps v = Σ bitⱼ·2ʲ inside u64). Folding the group
                // left-to-right puts backward-read bit j (j = 0 at the
                // run's right end) at weight 2^j, matching the per-cell
                // accumulation bit for bit.
                let start = chunk[..idx]
                    .iter()
                    .rposition(|&b| b == b'#')
                    .map_or(0, |p| p + 1);
                let run = &chunk[start..idx];
                let mut i = run.len();
                while i > 0 {
                    let take = i.min(63);
                    let mut v = 0u64;
                    for &b in &run[i - take..i] {
                        v = (v << 1) | u64::from(b & 1);
                    }
                    *e = add_mod(*e, mul_mod(v % params.p1, *pow2, params.p1), params.p1);
                    *pow2 = mul_mod(*pow2, (1u64 << take) % params.p1, params.p1);
                    i -= take;
                }
                idx = start;
            }
        }
        if finished {
            // The leftmost value has no preceding '#'; flush it.
            if *seen_hashes > 0 {
                flush(*seen_hashes, *e, sum_second, sum_first, *m);
            }
            let accepted = *sum_first == *sum_second;
            self.final_residues = Some((*sum_first, *sum_second));
            let usage = self.machine.usage();
            self.state = FpState::Done(DeciderRun { accepted, usage });
        }
        Ok(())
    }
}

impl<R: Rng> Stepper for FingerprintStepper<R> {
    fn feed(&mut self, bytes: &[u8]) -> Result<Poll<DeciderRun>, StError> {
        self.feed_impl(bytes)
    }

    fn finish(&mut self) -> Result<(), StError> {
        self.finish_impl()
    }

    fn step(&mut self, budget: &mut StepBudget) -> Result<StepOutcome, StError> {
        loop {
            match &self.state {
                FpState::Ingest { .. } => return Ok(StepOutcome::NeedInput),
                FpState::Done(v) => return Ok(StepOutcome::Done(v.clone())),
                FpState::Backward { .. } => {
                    // The zero-copy slice read cannot roll per-cell
                    // fault dice; faulted tapes take the per-cell path
                    // so fault semantics stay exact.
                    if self.backward_block == 1 || self.machine.tape(0).faults_enabled() {
                        if !budget.take() {
                            return Ok(StepOutcome::Yielded);
                        }
                        self.advance_backward()?;
                    } else {
                        // Unread symbols left in the scan: everything at
                        // or left of the head (plus the single free
                        // `None` read that ends an empty tape's scan).
                        let tape = self.machine.tape(0);
                        let unread = if tape.is_empty() { 1 } else { tape.head() + 1 };
                        let want = unread.min(self.backward_block) as u64;
                        let got = budget.take_up_to(want);
                        if got == 0 {
                            return Ok(StepOutcome::Yielded);
                        }
                        self.advance_backward_block(got as usize)?;
                    }
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
    /// Mid `tapes_equal` (MULTISET-EQUALITY).
    Equal { charge: Option<MemoryCharge> },
    /// Mid `compare_sorted` (CHECK-SORT).
    Sorted {
        equal: bool,
        sorted: bool,
        prev: Option<BitStr>,
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
/// [`st_extmem::step::SortStepper`] and a resumable replica of the
/// batch compare scans.
pub struct SortRouteStepper {
    route: SortRoute,
    tracer: Tracer,
    state: RouteState,
}

impl SortRouteStepper {
    /// A stepper for `route`, tracing to the ambient scope (if any).
    #[must_use]
    pub fn new(route: SortRoute) -> Self {
        Self::new_traced(route, st_trace::current())
    }

    /// [`SortRouteStepper::new`] with an explicit tracer.
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
        let mut machine = TapeMachine::with_input_traced(inst.xs, n, self.tracer.clone());
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
    /// compare-scan micro-operation, or a phase transition.
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
            RoutePhase::Compare(_) => {
                if !budget.take() {
                    return Ok(Advance::Yielded);
                }
                self.advance_compare(route)
            }
        }
    }

    /// One micro-operation of the final compare scan, replicating the
    /// batch deciders' scan sequences operation for operation.
    fn advance_compare(&mut self, route: SortRoute) -> Result<Advance, StError> {
        let RoutePhase::Compare(state) = &mut self.phase else {
            return Ok(Advance::Continue);
        };
        match state {
            CompareState::Init => {
                let meter = self.machine.meter().clone();
                match route {
                    SortRoute::Multiset => {
                        // `scan::tapes_equal` preamble.
                        let tracer = ambient_or(self.machine.tracer());
                        tracer.emit(|| TraceEvent::ScanStart {
                            op: "tapes_equal".to_string(),
                        });
                        let (a, b) = self.machine.pair_mut(0, 1);
                        a.rewind();
                        b.rewind();
                        let charge = meter.charge(2);
                        *state = CompareState::Equal {
                            charge: Some(charge),
                        };
                    }
                    SortRoute::CheckSort => {
                        // `scan::compare_sorted(second, first)` preamble:
                        // the *second* list is the one checked for
                        // sortedness, so it rewinds first.
                        let tracer = ambient_or(self.machine.tracer());
                        tracer.emit(|| TraceEvent::ScanStart {
                            op: "compare_sorted".to_string(),
                        });
                        let (b, a) = self.machine.pair_mut(1, 0);
                        b.rewind();
                        a.rewind();
                        let charge = meter.charge(3);
                        *state = CompareState::Sorted {
                            equal: true,
                            sorted: true,
                            prev: None,
                            charge: Some(charge),
                        };
                    }
                    SortRoute::SetEquality => {
                        // The batch dedup compare is inline (no scan
                        // event): rewinds, frontier charge, initial
                        // reads.
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
            CompareState::Equal { charge } => {
                let (a, b) = self.machine.pair_mut(0, 1);
                let equal = match (a.read_fwd(), b.read_fwd()) {
                    (None, None) => Some(true),
                    (Some(x), Some(y)) if x == y => None,
                    _ => Some(false),
                };
                if let Some(equal) = equal {
                    let tracer = ambient_or(self.machine.tracer());
                    tracer.emit(|| TraceEvent::ScanEnd {
                        op: "tapes_equal".to_string(),
                    });
                    drop(charge.take());
                    let usage = self.machine.usage();
                    return Ok(Advance::Finished(DeciderRun {
                        accepted: equal,
                        usage,
                    }));
                }
                Ok(Advance::Continue)
            }
            CompareState::Sorted {
                equal,
                sorted,
                prev,
                charge,
            } => {
                let (b, a) = self.machine.pair_mut(1, 0);
                let finished = match (b.read_fwd(), a.read_fwd()) {
                    (None, None) => true,
                    (Some(x), Some(y)) => {
                        if x != y {
                            *equal = false;
                        }
                        if let Some(p) = prev {
                            if *p > x {
                                *sorted = false;
                            }
                        }
                        *prev = Some(x);
                        false
                    }
                    _ => {
                        *equal = false;
                        true
                    }
                };
                if finished {
                    let accepted = *equal && *sorted;
                    let tracer = ambient_or(self.machine.tracer());
                    tracer.emit(|| TraceEvent::ScanEnd {
                        op: "compare_sorted".to_string(),
                    });
                    drop(charge.take());
                    let usage = self.machine.usage();
                    return Ok(Advance::Finished(DeciderRun { accepted, usage }));
                }
                Ok(Advance::Continue)
            }
            CompareState::SetEq {
                equal,
                cur_a,
                cur_b,
                pos,
                charge,
            } => {
                let (a, b) = self.machine.pair_mut(0, 1);
                let finished = match pos {
                    SetEqPos::Head => match (cur_a.as_ref(), cur_b.as_ref()) {
                        (Some(x), Some(y)) => {
                            if x != y {
                                *equal = false;
                                true
                            } else {
                                let x = x.clone();
                                *pos = SetEqPos::SkipA(x);
                                false
                            }
                        }
                        _ => {
                            if *equal && (cur_a.is_some() || cur_b.is_some()) {
                                *equal = false;
                            }
                            true
                        }
                    },
                    SetEqPos::SkipA(x) => {
                        let x = x.clone();
                        *cur_a = a.read_fwd();
                        if cur_a.as_ref() != Some(&x) {
                            *pos = SetEqPos::SkipB(x);
                        }
                        false
                    }
                    SetEqPos::SkipB(x) => {
                        let x = x.clone();
                        *cur_b = b.read_fwd();
                        if cur_b.as_ref() != Some(&x) {
                            *pos = SetEqPos::Head;
                        }
                        false
                    }
                };
                if finished {
                    let accepted = *equal;
                    // Batch order: usage first, frontier charge released
                    // at function exit.
                    let usage = self.machine.usage();
                    drop(charge.take());
                    return Ok(Advance::Finished(DeciderRun { accepted, usage }));
                }
                Ok(Advance::Continue)
            }
        }
    }
}

impl Stepper for SortRouteStepper {
    fn feed(&mut self, bytes: &[u8]) -> Result<Poll<DeciderRun>, StError> {
        self.feed_impl(bytes)
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
