//! Configurations and the exact step semantics of Definition 24.
//!
//! The delicate parts, implemented verbatim from Appendix B:
//!
//! * the written string `y = a⟨x₁⟩…⟨x_t⟩⟨c⟩` goes onto **every** list —
//!   overwriting the current cell where the head leaves it (`move = true`)
//!   and inserted *behind* the head (relative to its old direction)
//!   where it does not;
//! * the "no falling off" adjustment `e → e′` at list ends;
//! * a step where no `fᵢ` fires changes only the state;
//! * the head-position arithmetic accounts for the index shift caused by
//!   insertion (`(+1,false) → pᵢ+1` keeps the head on the same physical
//!   cell; a direction change parks the head on the freshly written cell).
//!
//! Cells carry identity tags so the `moves(ρ)` classification of
//! Definition 27 ("stayed on the same list cell") is exact.
//!
//! [`run_with_choices`] (a fixed choice sequence) and [`run_sampled`]
//! (uniform choices) are one private run loop that differs only in its
//! choice source; it traces through the shared `st_trace::RunTracer`
//! (substrate `listmachine`, lists `list{i}`).

use crate::machine::{Movement, Nlm};
use crate::{Choice, LmState, Tok, Val};
use rand::Rng;
use st_core::{ResourceUsage, StError};
use st_trace::{RunTracer, Tracer};

/// A list cell: an identity tag plus its content string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Unique identity within one run (for move classification).
    pub id: u64,
    /// The content string over the machine alphabet.
    pub toks: Vec<Tok>,
}

/// The local view `lv(γ) = (a, d, y)` of Definition 27: state, head
/// directions, and the contents of the cells under the heads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LocalView {
    /// Current state.
    pub state: LmState,
    /// Head directions.
    pub dirs: Vec<i8>,
    /// Contents of the cells under the heads.
    pub head_cells: Vec<Vec<Tok>>,
}

/// A machine configuration `(a, p, d, X)` (Definition 24(a)).
#[derive(Debug, Clone)]
pub struct LmConfig {
    /// Current state `a`.
    pub state: LmState,
    /// Head positions (0-based cell indices).
    pub heads: Vec<usize>,
    /// Head directions `d ∈ {−1,+1}ᵗ`.
    pub dirs: Vec<i8>,
    /// The lists `X`.
    pub lists: Vec<Vec<Cell>>,
    next_cell_id: u64,
    reversals: Vec<u64>,
}

impl LmConfig {
    /// The initial configuration for `input` (Definition 24(b)): list 1
    /// holds `(⟨v₁⟩,…,⟨v_m⟩)`, all other lists the single cell `⟨⟩`.
    #[must_use]
    pub fn initial(nlm: &Nlm, input: &[Val]) -> Self {
        let mut next_cell_id = 0u64;
        let mut fresh = |toks: Vec<Tok>| {
            let c = Cell {
                id: next_cell_id,
                toks,
            };
            next_cell_id += 1;
            c
        };
        let mut lists = Vec::with_capacity(nlm.t);
        let first: Vec<Cell> = if input.is_empty() {
            vec![fresh(vec![Tok::Open, Tok::Close])]
        } else {
            input
                .iter()
                .enumerate()
                .map(|(pos, &val)| fresh(vec![Tok::Open, Tok::Input { pos, val }, Tok::Close]))
                .collect()
        };
        lists.push(first);
        for _ in 1..nlm.t {
            lists.push(vec![fresh(vec![Tok::Open, Tok::Close])]);
        }
        LmConfig {
            state: nlm.start,
            heads: vec![0; nlm.t],
            dirs: vec![1; nlm.t],
            lists,
            next_cell_id,
            reversals: vec![0; nlm.t],
        }
    }

    /// The current local view.
    #[must_use]
    pub fn local_view(&self) -> LocalView {
        LocalView {
            state: self.state,
            dirs: self.dirs.clone(),
            head_cells: self
                .lists
                .iter()
                .zip(&self.heads)
                .map(|(list, &p)| list[p].toks.clone())
                .collect(),
        }
    }

    /// Head reversal counts so far, per list.
    #[must_use]
    pub fn reversals(&self) -> &[u64] {
        &self.reversals
    }

    /// Execute one step with choice `c`; returns the per-list move
    /// classification of Definition 27 (`0` stayed, `±1` moved).
    pub fn step(&mut self, nlm: &Nlm, c: Choice) -> Result<Vec<i8>, StError> {
        let t = nlm.t;
        let head_cells: Vec<&[Tok]> = self
            .lists
            .iter()
            .zip(&self.heads)
            .map(|(list, &p)| list[p].toks.as_slice())
            .collect();
        let (b, moves) = nlm.delta.apply(self.state, &head_cells, c);
        if moves.len() != t {
            return Err(StError::Machine(format!(
                "NLM '{}' returned {} movements for {t} lists",
                nlm.name,
                moves.len()
            )));
        }
        // e → e′: prevent falling off either end (Definition 24(c)).
        let eprime: Vec<Movement> = moves
            .iter()
            .enumerate()
            .map(|(i, &e)| {
                let p = self.heads[i];
                let last = self.lists[i].len() - 1;
                if p == 0 && e == Movement::LEFT {
                    Movement::STAY_L
                } else if p == last && e == Movement::RIGHT {
                    Movement::STAY_R
                } else {
                    e
                }
            })
            .collect();
        let f: Vec<bool> = eprime
            .iter()
            .enumerate()
            .map(|(i, e)| e.move_ || e.head_direction != self.dirs[i])
            .collect();

        if f.iter().all(|&x| !x) {
            // Only the state changes.
            self.state = b;
            return Ok(vec![0; t]);
        }

        // y := a ⟨x₁⟩ … ⟨x_t⟩ ⟨c⟩
        let mut y =
            Vec::with_capacity(1 + head_cells.iter().map(|h| h.len() + 2).sum::<usize>() + 3);
        y.push(Tok::State(self.state));
        for h in &head_cells {
            y.push(Tok::Open);
            y.extend_from_slice(h);
            y.push(Tok::Close);
        }
        y.push(Tok::Open);
        y.push(Tok::Choice(c));
        y.push(Tok::Close);

        let mut move_class = vec![0i8; t];
        for i in 0..t {
            let p = self.heads[i];
            let e = eprime[i];
            let y_cell = Cell {
                id: self.next_cell_id,
                toks: y.clone(),
            };
            self.next_cell_id += 1;
            if e.move_ {
                // Overwrite the current cell with y, then step off it.
                self.lists[i][p] = y_cell;
            } else if self.dirs[i] == 1 {
                // Insert y before the current cell.
                self.lists[i].insert(p, y_cell);
            } else {
                // Insert y after the current cell.
                self.lists[i].insert(p + 1, y_cell);
            }
            // New head position (Definition 24(c)).
            let p_new = match (e.head_direction, e.move_) {
                (1, true) => p + 1,
                (-1, true) => p - 1,
                (1, false) => p + 1,
                (-1, false) => p,
                _ => unreachable!("directions are ±1"),
            };
            self.heads[i] = p_new;
            if f[i] {
                move_class[i] = e.head_direction;
            }
            if e.head_direction != self.dirs[i] {
                self.reversals[i] += 1;
            }
            self.dirs[i] = e.head_direction;
        }
        self.state = b;
        Ok(move_class)
    }
}

/// How an NLM run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LmOutcome {
    /// Halted in an accepting state.
    Accept,
    /// Halted in a rejecting final state.
    Reject,
    /// Hit the step guard (an `(r,t)`-bounded machine must halt; this
    /// flags a machine bug or an insufficient guard).
    StepLimit,
}

/// A recorded run: everything Definitions 27/28 need.
#[derive(Debug, Clone)]
pub struct LmRun {
    /// How the run ended.
    pub outcome: LmOutcome,
    /// Local views of every configuration `ρ₁,…,ρ_ℓ`.
    pub views: Vec<LocalView>,
    /// Per-step move classification (`moves(ρ)` of Definition 27).
    pub moves: Vec<Vec<i8>>,
    /// The choices consumed, in order.
    pub choices: Vec<Choice>,
    /// Head-reversal counts per list.
    pub reversals: Vec<u64>,
    /// The final configuration.
    pub final_config: LmConfig,
}

impl LmRun {
    /// Did the run accept?
    #[must_use]
    pub fn accepted(&self) -> bool {
        self.outcome == LmOutcome::Accept
    }

    /// Run length `ℓ` (number of configurations).
    #[must_use]
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// `true` iff the run has no configurations (never happens for a
    /// completed run; present for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// The scan count `1 + Σ_τ rev(ρ, τ)` of the `(r,t)`-boundedness
    /// definition.
    #[must_use]
    pub fn scans(&self) -> u64 {
        1 + self.reversals.iter().sum::<u64>()
    }

    /// Convert to the workspace-wide resource record (`input_len` is the
    /// number of input values `m`; NLMs have no internal memory).
    #[must_use]
    pub fn usage(&self, m: usize) -> ResourceUsage {
        ResourceUsage {
            input_len: m,
            reversals_per_tape: self.reversals.clone(),
            external_tapes: self.reversals.len(),
            internal_space: 0,
            steps: self.moves.len() as u64,
            external_cells: self.final_config.lists.iter().map(|l| l.len() as u64).sum(),
        }
    }
}

/// The outcome of a run that stopped in `state`, if `state` is final.
fn halted(nlm: &Nlm, state: LmState) -> Option<LmOutcome> {
    (nlm.is_final)(state).then(|| {
        if (nlm.is_accepting)(state) {
            LmOutcome::Accept
        } else {
            LmOutcome::Reject
        }
    })
}

/// The one run loop: step from the initial configuration, drawing the
/// choice of step `i` from `choose(i)`, until a final state or
/// `max_steps`. Traces on `tracer` the stream that replays to exactly
/// [`LmRun::usage`]; NLMs have no internal memory, so it carries no
/// memory events.
fn run_with(
    nlm: &Nlm,
    input: &[Val],
    max_steps: usize,
    tracer: &Tracer,
    mut choose: impl FnMut(usize) -> Result<Choice, StError>,
) -> Result<LmRun, StError> {
    let mut cfg = LmConfig::initial(nlm, input);
    let mut trace = RunTracer::begin(tracer.clone(), "listmachine", "list", nlm.t, input.len());
    let mut views = vec![cfg.local_view()];
    let mut moves = Vec::new();
    let mut used = Vec::new();
    for step_idx in 0..max_steps {
        if (nlm.is_final)(cfg.state) {
            break;
        }
        let c = choose(step_idx)?;
        let mv = cfg.step(nlm, c)?;
        used.push(c);
        moves.push(mv);
        views.push(cfg.local_view());
        trace.step(moves.len() as u64, cfg.reversals().iter().copied());
    }
    let run = LmRun {
        outcome: halted(nlm, cfg.state).unwrap_or(LmOutcome::StepLimit),
        views,
        moves,
        choices: used,
        reversals: cfg.reversals().to_vec(),
        final_config: cfg,
    };
    trace.finish(
        run.moves.len() as u64,
        None,
        run.final_config.lists.iter().map(|l| l.len() as u64),
        || run.usage(input.len()),
    );
    Ok(run)
}

/// Run `nlm` on `input`, drawing choices from the fixed sequence
/// `choices` (the `ρ_M(v, c)` of Definition 15), tracing on `tracer`.
/// Errors if the machine consumes more choices than provided.
pub fn run_with_choices(
    nlm: &Nlm,
    input: &[Val],
    choices: &[Choice],
    max_steps: usize,
    tracer: &Tracer,
) -> Result<LmRun, StError> {
    run_with(nlm, input, max_steps, tracer, |step_idx| {
        choices.get(step_idx).copied().ok_or_else(|| {
            StError::Machine(format!(
                "NLM '{}' exhausted its choice sequence after {step_idx} steps",
                nlm.name
            ))
        })
    })
}

/// Run `nlm` on `input` with uniformly random choices (the randomized
/// semantics of Section 5), recording the consumed choice sequence.
/// Traces on `tracer`.
pub fn run_sampled<R: Rng>(
    nlm: &Nlm,
    input: &[Val],
    rng: &mut R,
    max_steps: usize,
    tracer: &Tracer,
) -> Result<LmRun, StError> {
    run_with(nlm, input, max_steps, tracer, |_| {
        Ok(rng.gen_range(0..nlm.num_choices))
    })
}

/// Exact outcome probabilities by enumerating the choice tree (the
/// Lemma 25 semantics: each step's choice is uniform over `C`, so a run
/// contributes `∏ 1/|C|` per consumed choice).
///
/// Exponential in the number of choice-consuming steps, so intended for
/// small machines; `max_explored` caps the enumeration and the function
/// errors when exceeded. Returns `(Pr[accept], Pr[reject])`.
pub fn exact_acceptance_lm(
    nlm: &Nlm,
    input: &[Val],
    max_steps: usize,
    max_explored: usize,
) -> Result<(f64, f64), StError> {
    let mut p_accept = 0.0;
    let mut p_reject = 0.0;
    let mut explored = 0usize;
    // DFS over (config, steps-so-far, probability).
    let mut stack: Vec<(LmConfig, usize, f64)> = vec![(LmConfig::initial(nlm, input), 0, 1.0)];
    while let Some((cfg, steps, p)) = stack.pop() {
        explored += 1;
        if explored > max_explored {
            return Err(StError::ResourceExceeded {
                what: "NLM probability enumeration".into(),
                limit: max_explored as u64,
                observed: explored as u64,
            });
        }
        match halted(nlm, cfg.state) {
            Some(LmOutcome::Accept) => p_accept += p,
            Some(_) => p_reject += p,
            None if steps >= max_steps => {
                return Err(StError::Machine(
                    "NLM probability enumeration hit the step cap on a non-final branch".into(),
                ))
            }
            None => {
                let share = p / f64::from(nlm.num_choices);
                for c in 0..nlm.num_choices {
                    let mut next = cfg.clone();
                    next.step(nlm, c)?;
                    stack.push((next, steps + 1, share));
                }
            }
        }
    }
    Ok((p_accept, p_reject))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;

    #[test]
    fn exact_probabilities_of_the_coin_machine() {
        let nlm = library::coin_machine();
        let (acc, rej) = exact_acceptance_lm(&nlm, &[1], 10, 10_000).unwrap();
        assert!((acc - 0.5).abs() < 1e-12);
        assert!((rej - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exact_probabilities_of_the_coin_matcher() {
        // Yes-instance: Pr(accept) = 1/2 exactly (coin heads leads to the
        // deterministic accepting matcher; tails rejects).
        let m = 4usize;
        let phi = st_problems::perm::phi(m);
        let nlm = library::coin_prefixed_matcher(m, phi.clone());
        let ys: Vec<Val> = (0..m as u64).map(|j| 10 + j).collect();
        let xs: Vec<Val> = (0..m).map(|i| ys[phi[i]]).collect();
        let input: Vec<Val> = xs.into_iter().chain(ys).collect();
        let (acc, rej) = exact_acceptance_lm(&nlm, &input, 1 << 12, 1 << 16).unwrap();
        assert!((acc - 0.5).abs() < 1e-12, "acc = {acc}");
        assert!((rej - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exact_probabilities_sum_to_one_for_deterministic_machines() {
        let nlm = library::sweep_right_machine(2, 4);
        let (acc, rej) = exact_acceptance_lm(&nlm, &[1, 2, 3, 4], 64, 1 << 12).unwrap();
        assert_eq!(acc, 1.0);
        assert_eq!(rej, 0.0);
    }

    #[test]
    fn enumeration_cap_is_enforced() {
        let nlm = library::coin_prefixed_matcher(8, st_problems::perm::phi(8));
        let input: Vec<Val> = (0..16).collect();
        assert!(exact_acceptance_lm(&nlm, &input, 1 << 12, 4).is_err());
    }

    #[test]
    fn initial_configuration_matches_definition_24b() {
        let nlm = library::sweep_right_machine(2, 3);
        let cfg = LmConfig::initial(&nlm, &[10, 20, 30]);
        assert_eq!(cfg.lists[0].len(), 3);
        assert_eq!(
            cfg.lists[0][1].toks,
            vec![Tok::Open, Tok::Input { pos: 1, val: 20 }, Tok::Close]
        );
        assert_eq!(cfg.lists[1].len(), 1);
        assert_eq!(cfg.lists[1][0].toks, vec![Tok::Open, Tok::Close]);
        assert_eq!(cfg.dirs, vec![1, 1]);
        assert_eq!(cfg.heads, vec![0, 0]);
    }

    #[test]
    fn sweep_right_visits_every_cell_without_reversals() {
        let nlm = library::sweep_right_machine(2, 4);
        let run = run_with_choices(
            &nlm,
            &[1, 2, 3, 4],
            &[0; 64],
            64,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        assert!(run.accepted());
        assert_eq!(run.reversals, vec![0, 0]);
        assert_eq!(run.scans(), 1);
    }

    #[test]
    fn writes_happen_on_every_list() {
        // After the sweep machine's first moving step, list 2 must have
        // gained a cell containing the y-string (state + head cells +
        // choice).
        let nlm = library::sweep_right_machine(2, 2);
        let mut cfg = LmConfig::initial(&nlm, &[7, 8]);
        cfg.step(&nlm, 0).unwrap();
        // List 1: head moved off cell 0, which was overwritten with y.
        assert!(cfg.lists[0][0].toks.contains(&Tok::State(0)));
        assert!(cfg.lists[0][0]
            .toks
            .contains(&Tok::Input { pos: 0, val: 7 }));
        assert!(cfg.lists[0][0].toks.contains(&Tok::Choice(0)));
        // List 2: head stays (d=+1, move=false did not fire? it moved
        // RIGHT? sweep machine keeps list-2 head still) — y inserted
        // before the head cell.
        assert_eq!(cfg.lists[1].len(), 2, "insertion must extend list 2");
    }

    #[test]
    fn falling_off_the_right_end_is_prevented() {
        // The sweep machine tries to move right at the last cell; e → e′
        // converts that to (+1,false), which (d unchanged) still fires f
        // only if… move=false and direction same → f=0? No: at the last
        // cell the machine transitions to a final state; here we force an
        // extra RIGHT step manually.
        let nlm = library::sweep_right_machine(1, 2);
        let mut cfg = LmConfig::initial(&nlm, &[1, 2]);
        cfg.step(&nlm, 0).unwrap();
        assert_eq!(cfg.heads[0], 1);
        // Manually step again with a RIGHT movement at the last cell via
        // the machine (it still wants to move right until it sees the
        // final marker state).
        let before_len = cfg.lists[0].len();
        cfg.step(&nlm, 0).unwrap();
        // e′ = STAY_R with d=+1 → f=0 → nothing written, head unmoved.
        assert_eq!(cfg.heads[0], 1);
        assert_eq!(cfg.lists[0].len(), before_len);
    }

    #[test]
    fn direction_change_counts_one_reversal_and_parks_on_fresh_cell() {
        let nlm = library::zigzag_machine(1, 3, 1);
        let run = run_with_choices(
            &nlm,
            &[5, 6, 7],
            &[0; 256],
            256,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        assert!(run.accepted());
        assert_eq!(run.reversals, vec![2], "one full zigzag = 2 reversals");
        assert_eq!(run.scans(), 3);
    }

    #[test]
    fn choice_exhaustion_is_an_error() {
        let nlm = library::sweep_right_machine(1, 5);
        let err = run_with_choices(
            &nlm,
            &[1, 2, 3, 4, 5],
            &[0; 2],
            64,
            &st_trace::Tracer::disabled(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn step_limit_reported() {
        let nlm = library::sweep_right_machine(1, 5);
        let run = run_with_choices(
            &nlm,
            &[1, 2, 3, 4, 5],
            &[0; 3],
            3,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(run.outcome, LmOutcome::StepLimit);
    }

    #[test]
    fn traced_lm_run_replays_to_the_reported_usage() {
        let nlm = library::zigzag_machine(1, 4, 2);
        let input: Vec<Val> = vec![5, 6, 7, 8];
        let (tracer, buf) = st_trace::Tracer::in_memory();
        let run = run_with_choices(&nlm, &input, &[0; 1 << 12], 1 << 12, &tracer).unwrap();
        assert!(run.accepted());
        let events = buf.snapshot();
        assert_eq!(st_trace::replay(&events), run.usage(input.len()));
        let report = st_trace::audit(&events);
        assert!(report.ok(), "{report}");
        assert_eq!(report.checks(), 1);
    }

    #[test]
    fn pure_state_steps_record_zero_moves() {
        let nlm = library::countdown_machine(3);
        let run =
            run_with_choices(&nlm, &[1], &[0; 16], 16, &st_trace::Tracer::disabled()).unwrap();
        assert!(run.accepted());
        assert!(run.moves.iter().all(|mv| mv.iter().all(|&x| x == 0)));
        assert_eq!(run.reversals, vec![0]);
        // Definition 24(c): nothing is ever written.
        assert_eq!(run.final_config.lists[0].len(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::library::script_machine;
    use crate::machine::Movement;
    use proptest::prelude::*;

    fn arb_movement() -> impl Strategy<Value = Movement> {
        prop_oneof![
            Just(Movement::RIGHT),
            Just(Movement::LEFT),
            Just(Movement::STAY_R),
            Just(Movement::STAY_L),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn random_scripts_respect_definition_24_invariants(
            t in 1usize..4,
            m in 1usize..6,
            raw in proptest::collection::vec(proptest::collection::vec(arb_movement(), 1..4), 0..18),
        ) {
            // Normalize script arity to t lists.
            let script: Vec<Vec<Movement>> = raw
                .into_iter()
                .map(|mut mv| {
                    mv.resize(t, Movement::STAY_R);
                    mv
                })
                .collect();
            let steps = script.len();
            let nlm = script_machine("prop", t, m, script);
            let input: Vec<Val> = (0..m as u64).collect();
            let run = run_with_choices(&nlm, &input, &vec![0; steps + 2], steps + 2, &st_trace::Tracer::disabled()).unwrap();
            // Scripts always terminate in ACCEPT.
            prop_assert!(run.accepted());
            prop_assert_eq!(run.moves.len(), steps);
            // Reversal accounting: recompute direction changes from the
            // recorded views and compare.
            for tau in 0..t {
                let mut revs = 0u64;
                for w in run.views.windows(2) {
                    if w[1].dirs[tau] != w[0].dirs[tau] {
                        revs += 1;
                    }
                }
                prop_assert_eq!(revs, run.reversals[tau], "list {}", tau);
            }
            // Lists only grow (insertions) or stay (overwrites): the
            // final total length is at least the initial m + (t-1).
            let total: usize = run.final_config.lists.iter().map(Vec::len).sum();
            prop_assert!(total >= m + t - 1);
            // Per Definition 24 the input list cells at positions the
            // head never left keep their original content — cell count
            // of list 1 is at least m (insertions never remove).
            prop_assert!(run.final_config.lists[0].len() >= m);
        }

        #[test]
        fn moves_classification_is_zero_iff_same_cell(
            m in 2usize..6,
            cycles in 0usize..3,
        ) {
            let nlm = crate::library::zigzag_machine(1, m, cycles);
            let input: Vec<Val> = (0..m as u64).collect();
            let run = run_with_choices(&nlm, &input, &vec![0; 1 << 12], 1 << 12, &st_trace::Tracer::disabled()).unwrap();
            prop_assert!(run.accepted());
            // moves(ρ) ≠ 0 exactly when a head changed cells; the zigzag
            // machine moves its head on every scripted step except turns
            // — and turns also land on a fresh cell, so every step moves.
            for mv in &run.moves {
                prop_assert_eq!(mv.len(), 1);
            }
        }
    }
}
