//! Execution: configurations, stepping, deterministic and sampled runs.
//!
//! A [`Config`] is the paper's `(q, p₁..p_{t+u}, w₁..w_{t+u})`
//! (Definition 23), carried here as per-tape [`TmTape`]s which track their
//! own reversal/space accounting. [`run_deterministic`] executes machines
//! with unique successors; [`run_sampled`] resolves nondeterminism with a
//! caller-supplied random source (uniform over `Next_T(γ)` — the
//! randomized semantics of Section 2). Both are one private run loop
//! that differs only in how it picks the next step, and the loop traces
//! through the shared [`RunTracer`] (substrate `tm`, tapes `ext{i}`).
//! [`enumerate_runs`] and [`accepts_nondeterministically`] walk the run
//! tree with the same halting rule.

use crate::machine::{Tm, Transition};
use crate::tape::TmTape;
use crate::{State, Sym};
use rand::Rng;
use st_core::{ResourceUsage, StError};
use st_trace::{RunTracer, Tracer};
use std::ops::ControlFlow;

/// A machine configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Current state.
    pub state: State,
    /// All tapes (first `t` external, rest internal).
    pub tapes: Vec<TmTape>,
    /// Steps taken so far.
    pub steps: u64,
}

impl Config {
    /// The initial configuration for `input` on tape 0 (Definition 23).
    #[must_use]
    pub fn initial(tm: &Tm, input: Vec<Sym>) -> Self {
        let mut tapes = Vec::with_capacity(tm.tapes());
        tapes.push(TmTape::with_content(input));
        for _ in 1..tm.tapes() {
            tapes.push(TmTape::new());
        }
        Config {
            state: 0,
            tapes,
            steps: 0,
        }
    }

    /// Symbols under all heads.
    #[must_use]
    pub fn reads(&self) -> Vec<Sym> {
        self.tapes.iter().map(TmTape::read).collect()
    }

    /// Apply one transition in place.
    pub fn apply(&mut self, t: &Transition) -> Result<(), StError> {
        for (tape, &w) in self.tapes.iter_mut().zip(&t.writes) {
            tape.write(w);
        }
        for (tape, &m) in self.tapes.iter_mut().zip(&t.moves) {
            tape.shift(m.dir())?;
        }
        self.state = t.next;
        self.steps += 1;
        Ok(())
    }

    /// Resource usage in the Definition-1 partition: the first
    /// `tm.external_tapes` tapes contribute reversals, the rest space.
    #[must_use]
    pub fn usage(&self, tm: &Tm, input_len: usize) -> ResourceUsage {
        let t = tm.external_tapes;
        ResourceUsage {
            input_len,
            reversals_per_tape: self.tapes[..t].iter().map(TmTape::reversals).collect(),
            external_tapes: t,
            internal_space: self.tapes[t..].iter().map(|x| x.space() as u64).sum(),
            steps: self.steps,
            external_cells: self.tapes[..t].iter().map(|x| x.space() as u64).sum(),
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Halted in an accepting state.
    Accept,
    /// Halted in a rejecting (final, non-accepting) state.
    Reject,
    /// Jammed: non-final state with no applicable transition. Treated as
    /// rejection (the machine fails to accept).
    Jam,
    /// Exceeded the step budget (would indicate a non-finite run, which
    /// Definition 1 forbids — always a bug or an over-tight budget).
    StepLimit,
}

/// The result of executing one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Resource usage of the run.
    pub usage: ResourceUsage,
    /// The final configuration (output inspection, Las-Vegas outputs).
    pub final_config: Config,
}

impl RunResult {
    /// Did the run accept?
    #[must_use]
    pub fn accepted(&self) -> bool {
        self.outcome == RunOutcome::Accept
    }

    /// The result of a run that halted in `cfg` with `outcome`.
    fn halted(tm: &Tm, cfg: Config, input_len: usize, outcome: RunOutcome) -> Self {
        RunResult {
            outcome,
            usage: cfg.usage(tm, input_len),
            final_config: cfg,
        }
    }
}

/// Why `cfg` halts, or else its successor set `Next_T(γ)`, never empty.
fn next_step(tm: &Tm, cfg: &Config, max_steps: u64) -> ControlFlow<RunOutcome, Vec<Transition>> {
    if tm.is_final(cfg.state) {
        return ControlFlow::Break(if tm.is_accepting(cfg.state) {
            RunOutcome::Accept
        } else {
            RunOutcome::Reject
        });
    }
    if cfg.steps >= max_steps {
        return ControlFlow::Break(RunOutcome::StepLimit);
    }
    let succ = tm.successors(cfg.state, &cfg.reads());
    if succ.is_empty() {
        ControlFlow::Break(RunOutcome::Jam)
    } else {
        ControlFlow::Continue(succ)
    }
}

/// The one run loop: from the initial configuration, take the successor
/// that `pick(state, |Next_T(γ)|)` names until the run halts. Traces on
/// `tracer`.
fn run_with(
    tm: &Tm,
    input: Vec<Sym>,
    max_steps: u64,
    tracer: &Tracer,
    mut pick: impl FnMut(State, usize) -> Result<usize, StError>,
) -> Result<RunResult, StError> {
    let input_len = input.len();
    let t = tm.external_tapes;
    let mut cfg = Config::initial(tm, input);
    let mut trace = RunTracer::begin(tracer.clone(), "tm", "ext", t, input_len);
    let outcome = loop {
        let succ = match next_step(tm, &cfg, max_steps) {
            ControlFlow::Continue(succ) => succ,
            ControlFlow::Break(outcome) => break outcome,
        };
        let i = pick(cfg.state, succ.len())?;
        cfg.apply(&succ[i])?;
        trace.step(cfg.steps, cfg.tapes[..t].iter().map(TmTape::reversals));
    };
    let result = RunResult::halted(tm, cfg, input_len, outcome);
    let cfg = &result.final_config;
    // The TM substrate has no incremental meter; one peak observation
    // carries the internal-tape space sum into the replay.
    trace.finish(
        cfg.steps,
        Some(result.usage.internal_space),
        cfg.tapes[..t].iter().map(|x| x.space() as u64),
        || result.usage.clone(),
    );
    Ok(result)
}

/// Execute a deterministic machine, tracing on `tracer`. Errors if a
/// configuration ever has more than one successor.
pub fn run_deterministic(
    tm: &Tm,
    input: Vec<Sym>,
    max_steps: u64,
    tracer: &Tracer,
) -> Result<RunResult, StError> {
    run_with(tm, input, max_steps, tracer, |state, n| {
        if n == 1 {
            Ok(0)
        } else {
            Err(StError::Machine(format!(
                "machine '{}' is not deterministic: {n} successors in state {state}",
                tm.name
            )))
        }
    })
}

/// Execute one randomized run, resolving each step by a uniform choice
/// over the successor set (the `Pr(γ →_T γ′) = 1/|Next|` semantics of
/// Section 2). A step with one successor still draws from `rng`. Traces
/// on `tracer`.
pub fn run_sampled<R: Rng>(
    tm: &Tm,
    input: Vec<Sym>,
    max_steps: u64,
    rng: &mut R,
    tracer: &Tracer,
) -> Result<RunResult, StError> {
    run_with(tm, input, max_steps, tracer, |_, n| Ok(rng.gen_range(0..n)))
}

/// Enumerate **all** runs of a (small) nondeterministic machine, calling
/// `visit` with each halted run's result and its probability under the
/// uniform-choice semantics. Runs hitting `max_steps` are reported with
/// [`RunOutcome::StepLimit`].
pub fn enumerate_runs(
    tm: &Tm,
    input: Vec<Sym>,
    max_steps: u64,
    visit: &mut dyn FnMut(&RunResult, f64),
) -> Result<(), StError> {
    let input_len = input.len();
    let mut stack: Vec<(Config, f64)> = vec![(Config::initial(tm, input), 1.0)];
    while let Some((cfg, p)) = stack.pop() {
        match next_step(tm, &cfg, max_steps) {
            ControlFlow::Break(outcome) => {
                visit(&RunResult::halted(tm, cfg, input_len, outcome), p)
            }
            ControlFlow::Continue(succ) => {
                let share = p / succ.len() as f64;
                for t in succ {
                    let mut next = cfg.clone();
                    next.apply(&t)?;
                    stack.push((next, share));
                }
            }
        }
    }
    Ok(())
}

/// The NST acceptance condition (Definition 2): does **some** run of the
/// nondeterministic machine accept? Implemented as a DFS over the run
/// tree with a step cutoff; returns an error if the cutoff was reached on
/// an unresolved branch while no accepting run was found (the answer
/// would be indeterminate).
pub fn accepts_nondeterministically(
    tm: &Tm,
    input: Vec<Sym>,
    max_steps: u64,
) -> Result<bool, StError> {
    let mut stack = vec![Config::initial(tm, input)];
    let mut truncated = false;
    while let Some(cfg) = stack.pop() {
        match next_step(tm, &cfg, max_steps) {
            ControlFlow::Break(RunOutcome::Accept) => return Ok(true),
            ControlFlow::Break(RunOutcome::StepLimit) => truncated = true,
            ControlFlow::Break(_) => {}
            ControlFlow::Continue(succ) => {
                for t in succ {
                    let mut next = cfg.clone();
                    next.apply(&t)?;
                    stack.push(next);
                }
            }
        }
    }
    if truncated {
        return Err(StError::Machine(
            "nondeterministic search hit the step cutoff with no accepting run found".into(),
        ));
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;

    #[test]
    fn nst_acceptance_of_the_guess_machine() {
        // The guess-bit machine has an accepting run iff the input starts
        // with '0' or '1' (one of the two guesses matches).
        let tm = library::guess_bit_machine();
        assert!(accepts_nondeterministically(&tm, library::encode("0"), 100).unwrap());
        assert!(accepts_nondeterministically(&tm, library::encode("1"), 100).unwrap());
        assert!(!accepts_nondeterministically(&tm, library::encode("#"), 100).unwrap());
    }

    #[test]
    fn nst_acceptance_matches_deterministic_acceptance() {
        let tm = library::strings_equal_machine();
        for (w, expect) in [("01#01", true), ("01#00", false), ("#", true)] {
            assert_eq!(
                accepts_nondeterministically(&tm, library::encode(w), 1 << 16).unwrap(),
                expect,
                "{w}"
            );
        }
    }

    #[test]
    fn nst_search_reports_indeterminate_cutoffs() {
        let tm = library::diverging_machine();
        assert!(accepts_nondeterministically(&tm, library::encode("0"), 10).is_err());
    }

    #[test]
    fn nst_acceptance_of_randomized_machines_is_existential() {
        // Proposition 5: RST ⊆ NST — the coin-prefixed machine accepts
        // nondeterministically exactly the yes-instances (some run, the
        // heads run, accepts).
        let tm = library::randomized_strings_equal_machine();
        assert!(accepts_nondeterministically(&tm, library::encode("010#010"), 1 << 16).unwrap());
        assert!(!accepts_nondeterministically(&tm, library::encode("010#011"), 1 << 16).unwrap());
    }
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn traced_deterministic_run_replays_to_the_reported_usage() {
        let tm = library::strings_equal_machine();
        let (tracer, buf) = st_trace::Tracer::in_memory();
        let result =
            run_deterministic(&tm, library::encode("0110#0110"), 1 << 16, &tracer).unwrap();
        let events = buf.snapshot();
        assert_eq!(st_trace::replay(&events), result.usage);
        let report = st_trace::audit(&events);
        assert!(report.ok(), "{report}");
        assert_eq!(report.checks(), 1);
    }

    #[test]
    fn parity_machine_accepts_even_number_of_ones() {
        let tm = library::parity_machine();
        // Alphabet: 1 = '0', 2 = '1'.
        let r = run_deterministic(&tm, vec![2, 1, 2], 1000, &Tracer::disabled()).unwrap();
        assert!(r.accepted(), "two ones = even");
        let r = run_deterministic(&tm, vec![2, 1, 1], 1000, &Tracer::disabled()).unwrap();
        assert!(!r.accepted(), "one one = odd");
        let r = run_deterministic(&tm, vec![], 1000, &Tracer::disabled()).unwrap();
        assert!(r.accepted(), "zero ones = even");
    }

    #[test]
    fn parity_machine_uses_one_scan_and_constant_space() {
        let tm = library::parity_machine();
        let input: Vec<Sym> = (0..200).map(|i| 1 + (i % 2) as Sym).collect();
        let r = run_deterministic(&tm, input, 100_000, &Tracer::disabled()).unwrap();
        assert_eq!(r.usage.scans(), 1, "single forward scan");
        assert!(r.usage.internal_space <= 1);
    }

    #[test]
    fn coin_flip_machine_has_probability_one_half() {
        let tm = library::coin_flip_machine();
        let mut p_acc = 0.0;
        enumerate_runs(&tm, vec![1], 100, &mut |r, p| {
            if r.accepted() {
                p_acc += p;
            }
        })
        .unwrap();
        assert!((p_acc - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sampled_runs_match_enumeration_statistically() {
        let tm = library::coin_flip_machine();
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 2000;
        let mut acc = 0;
        for _ in 0..trials {
            if run_sampled(&tm, vec![1], 100, &mut rng, &Tracer::disabled())
                .unwrap()
                .accepted()
            {
                acc += 1;
            }
        }
        let p = acc as f64 / trials as f64;
        assert!((p - 0.5).abs() < 0.05, "sampled acceptance {p}");
    }

    #[test]
    fn jam_is_rejection() {
        let tm = library::parity_machine();
        // Symbol 3 ('#') has no transition from the scanning state of the
        // parity machine; the machine jams.
        let r = run_deterministic(&tm, vec![3], 100, &Tracer::disabled()).unwrap();
        assert_eq!(r.outcome, RunOutcome::Jam);
        assert!(!r.accepted());
    }

    #[test]
    fn step_limit_reported() {
        let tm = library::diverging_machine();
        let r = run_deterministic(&tm, vec![1, 1, 1], 10, &Tracer::disabled()).unwrap();
        assert_eq!(r.outcome, RunOutcome::StepLimit);
    }
}
