//! Lemma 16: simulating `(r,s,t)`-bounded Turing machines by
//! `(r,t)`-bounded list machines.
//!
//! The construction of Appendix C, computed lazily:
//!
//! * list cells represent dynamically evolving **blocks** of the TM's
//!   external tapes; each NLM step simulates the TM until an external
//!   head crosses its block boundary (Case 1), changes direction
//!   (Case 2) or halts (Case 3);
//! * the NLM's **abstract state** holds exactly what the paper's does:
//!   the TM state, the internal tapes (content + heads), and per
//!   external tape the head position, direction and current block
//!   boundaries;
//! * the string `y = a⟨x₁⟩…⟨x_t⟩⟨c⟩` the NLM semantics writes at every
//!   moving step is interpreted by the paper's `tape-config` functions;
//!   we realize them as a memo keyed by the written string (which is
//!   unique per step because the abstract state embeds a step counter —
//!   within the Lemma 16 state-count budget, whose `ℓ^{3t}` factor
//!   already admits step-indexed states):
//!   for the event tape the string means the exited / kept block with
//!   up-to-date content; for every other tape it means the block part
//!   *behind* that tape's head, which is exactly the region that may
//!   have been modified since the cell's own string was written;
//! * on entering a cell, the block is the cell's meaning **trimmed** to
//!   the entry side, which compensates for stale split-off regions.
//!
//! Randomness: the NLM choice of one step resolves every TM branch point
//! inside that step via `c mod |Next|` (Definition 17). This is exact
//! whenever at most one branching TM step occurs per block phase —
//! true for the library's randomized machines; general NTMs would need
//! the paper's `C = (C_T)^ℓ` product, which is represented but not
//! enumerable. The simulation theorem's measurable content —
//! acceptance-probability equality and `(r,t)`-boundedness — is verified
//! by the E10 experiments and the tests below.

use crate::machine::{Movement, Nlm};
use crate::{Choice, LmState, Tok, Val};
use st_core::StError;
use st_tm::{Sym, Tm, TmTape, BLANK};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// "Unbounded" right block edge (blank tail of a tape).
const HI_INF: usize = usize::MAX / 2;

/// The meaning of a cell for one external tape: a block `[lo, hi]` of
/// tape cells with its content at meaning-time (missing positions are
/// blank).
#[derive(Debug, Clone)]
struct BlockMeaning {
    lo: usize,
    hi: usize,
    syms: BTreeMap<usize, Sym>,
}

/// Per-external-tape head bookkeeping inside an abstract state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ExtHead {
    pos: usize,
    dir: i8,
    /// Current block bounds; `None` = take from the cell's meaning
    /// (just entered, trim at the entry side).
    lo: Option<usize>,
    hi: Option<usize>,
}

/// The paper's abstract state: TM state + internal memory + external
/// head/block bookkeeping (+ a step counter making written strings
/// unique, within the `ℓ^{3t}` state-budget factor).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct AbsState {
    step: u64,
    q: st_tm::State,
    internal: Vec<TmTape>,
    ext: Vec<ExtHead>,
    /// Outcome marker once the TM halted: `Some(accepted)`.
    halted: Option<bool>,
}

struct SimCore {
    tm: Tm,
    m: usize,
    n: usize,
    max_tm_steps: u64,
    states: Vec<AbsState>,
    memo: HashMap<Vec<Tok>, Vec<BlockMeaning>>,
    /// Set on simulation errors inside the transition function (which
    /// cannot return `Result`); surfaced by [`TmSimulation::take_error`].
    error: Option<String>,
}

impl SimCore {
    fn intern(&mut self, s: AbsState) -> LmState {
        self.states.push(s);
        (self.states.len() - 1) as LmState
    }

    /// Decode a cell's meaning for external tape `j`.
    fn decode(&self, j: usize, cell: &[Tok]) -> Result<BlockMeaning, String> {
        match cell {
            [Tok::Open, Tok::Close] => Ok(BlockMeaning {
                lo: 0,
                hi: HI_INF,
                syms: BTreeMap::new(),
            }),
            [Tok::Open, Tok::Input { pos, val }, Tok::Close] => {
                if j != 0 {
                    return Err(format!("input cell decoded on tape {j}"));
                }
                let lo = pos * (self.n + 1);
                let hi = if *pos + 1 == self.m {
                    HI_INF
                } else {
                    lo + self.n
                };
                let mut syms = BTreeMap::new();
                for b in 0..self.n {
                    // MSB first; SYM_0 = 1, SYM_1 = 2 (st-tm convention).
                    let bit = (val >> (self.n - 1 - b)) & 1;
                    syms.insert(lo + b, 1 + bit as Sym);
                }
                syms.insert(lo + self.n, st_tm::library::SYM_HASH);
                Ok(BlockMeaning { lo, hi, syms })
            }
            _ => self
                .memo
                .get(cell)
                .map(|v| v[j].clone())
                .ok_or_else(|| "cell string has no recorded meaning".to_string()),
        }
    }
}

/// A Lemma 16 simulation: wraps the produced [`Nlm`] together with
/// access to the shared core (state table, error channel).
pub struct TmSimulation {
    /// The simulating list machine.
    pub nlm: Nlm,
    core: Rc<RefCell<SimCore>>,
}

impl TmSimulation {
    /// Number of distinct abstract states materialized so far — the
    /// quantity Lemma 16's Equation (2) bounds.
    #[must_use]
    pub fn states_materialized(&self) -> usize {
        self.core.borrow().states.len()
    }

    /// Take any pending simulation error (the NLM transition function
    /// cannot return `Result`; fatal inconsistencies are parked here and
    /// the machine is steered into a rejecting halt).
    pub fn take_error(&self) -> Option<String> {
        self.core.borrow_mut().error.take()
    }
}

/// Build the Lemma 16 NLM for `tm` on inputs of `m` values of `n`
/// symbols each (the word `v₁#…v_m#`). `num_choices` is the NLM's `|C|`
/// (pass the TM's maximal branching degree; 1 for deterministic TMs).
pub fn simulate_tm(
    tm: &Tm,
    m: usize,
    n: usize,
    num_choices: u32,
    max_tm_steps: u64,
) -> Result<TmSimulation, StError> {
    if tm.external_tapes == 0 {
        return Err(StError::Machine(
            "TM must have at least one external tape".into(),
        ));
    }
    let t = tm.external_tapes;
    let start_abs = AbsState {
        step: 0,
        q: 0,
        internal: vec![TmTape::new(); tm.internal_tapes],
        ext: (0..t)
            .map(|_| ExtHead {
                pos: 0,
                dir: 1,
                lo: Some(0),
                hi: None,
            })
            .collect(),
        halted: None,
    };
    let core = Rc::new(RefCell::new(SimCore {
        tm: tm.clone(),
        m,
        n,
        max_tm_steps,
        states: vec![start_abs],
        memo: HashMap::new(),
        error: None,
    }));

    let c_final = Rc::clone(&core);
    let is_final = move |s: LmState| -> bool {
        c_final
            .borrow()
            .states
            .get(s as usize)
            .is_none_or(|a| a.halted.is_some())
    };
    let c_acc = Rc::clone(&core);
    let is_accepting = move |s: LmState| -> bool {
        c_acc
            .borrow()
            .states
            .get(s as usize)
            .and_then(|a| a.halted)
            .unwrap_or(false)
    };
    let c_delta = Rc::clone(&core);
    let delta =
        move |state: LmState, heads: &[&[Tok]], choice: Choice| -> (LmState, Vec<Movement>) {
            step_simulation(&c_delta, state, heads, choice)
        };

    let nlm = Nlm {
        name: format!("lemma16({})", tm.name),
        t,
        m,
        num_choices: num_choices.max(1),
        start: 0,
        is_final: Box::new(is_final),
        is_accepting: Box::new(is_accepting),
        delta: Box::new(delta),
    };
    Ok(TmSimulation { nlm, core })
}

/// One NLM step = run the TM until an external-head event.
#[allow(clippy::too_many_lines)]
fn step_simulation(
    core: &Rc<RefCell<SimCore>>,
    state_id: LmState,
    heads: &[&[Tok]],
    choice: Choice,
) -> (LmState, Vec<Movement>) {
    let mut core_ref = core.borrow_mut();
    let core = &mut *core_ref;
    let abs = core.states[state_id as usize].clone();
    let t = core.tm.external_tapes;

    let fail = |core: &mut SimCore, msg: String, dirs: Vec<i8>| -> (LmState, Vec<Movement>) {
        core.error = Some(msg);
        let halt = AbsState {
            halted: Some(false),
            ..core.states[0].clone()
        };
        core.states.push(halt);
        let id = (core.states.len() - 1) as LmState;
        (
            id,
            dirs.iter()
                .map(|&d| Movement {
                    head_direction: d,
                    move_: false,
                })
                .collect(),
        )
    };
    let dirs: Vec<i8> = abs.ext.iter().map(|e| e.dir).collect();

    // ---- Materialize the current blocks. ------------------------------
    let mut blocks: Vec<BlockMeaning> = Vec::with_capacity(t);
    for (j, head_cell) in heads.iter().enumerate().take(t) {
        let mng = match core.decode(j, head_cell) {
            Ok(x) => x,
            Err(e) => return fail(core, format!("decode tape {j}: {e}"), dirs),
        };
        let lo = abs.ext[j].lo.unwrap_or(mng.lo).max(mng.lo);
        let hi = abs.ext[j].hi.unwrap_or(mng.hi).min(mng.hi);
        if abs.ext[j].pos < lo || abs.ext[j].pos > hi {
            return fail(
                core,
                format!(
                    "tape {j}: head {} outside block [{lo},{hi}]",
                    abs.ext[j].pos
                ),
                dirs,
            );
        }
        if lo > hi {
            return fail(core, format!("tape {j}: empty block [{lo},{hi}]"), dirs);
        }
        let syms: BTreeMap<usize, Sym> = mng.syms.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        blocks.push(BlockMeaning { lo, hi, syms });
    }

    // ---- Simulate the TM until an event. ------------------------------
    let mut q = abs.q;
    let mut internal = abs.internal.clone();
    let mut ext_pos: Vec<usize> = abs.ext.iter().map(|e| e.pos).collect();
    let mut ext_dir: Vec<i8> = abs.ext.iter().map(|e| e.dir).collect();
    let mut tm_steps = 0u64;

    #[derive(Debug)]
    enum Event {
        Crossed { tape: usize, new_dir: i8 },
        Reversed { tape: usize, new_dir: i8 },
        Halted { accepted: bool },
    }

    let event = loop {
        if core.tm.is_final(q) {
            break Event::Halted {
                accepted: core.tm.is_accepting(q),
            };
        }
        if tm_steps >= core.max_tm_steps {
            return fail(
                core,
                "TM step budget exceeded inside one NLM step".into(),
                dirs,
            );
        }
        // Read symbols under all heads.
        let mut syms: Vec<Sym> = Vec::with_capacity(t + internal.len());
        for (block, &pos) in blocks.iter().zip(&ext_pos) {
            syms.push(*block.syms.get(&pos).unwrap_or(&BLANK));
        }
        for tape in &internal {
            syms.push(tape.read());
        }
        let succ = core.tm.successors(q, &syms);
        if succ.is_empty() {
            break Event::Halted { accepted: false }; // jam = reject
        }
        let pick = (choice as usize) % succ.len();
        let tr = succ[pick].clone();
        // Writes.
        for j in 0..t {
            blocks[j].syms.insert(ext_pos[j], tr.writes[j]);
        }
        for (k, tape) in internal.iter_mut().enumerate() {
            tape.write(tr.writes[t + k]);
        }
        // Moves (normalized: at most one non-N).
        q = tr.next;
        tm_steps += 1;
        let mut evt: Option<Event> = None;
        for j in 0..t {
            let d = tr.moves[j].dir();
            if d == 0 {
                continue;
            }
            if d == -1 && ext_pos[j] == 0 {
                return fail(core, format!("tape {j}: TM head fell off left end"), dirs);
            }
            let target = if d == 1 {
                ext_pos[j] + 1
            } else {
                ext_pos[j] - 1
            };
            if target < blocks[j].lo || target > blocks[j].hi {
                ext_pos[j] = target;
                evt = Some(Event::Crossed {
                    tape: j,
                    new_dir: d,
                });
            } else if d != ext_dir[j] {
                ext_pos[j] = target;
                evt = Some(Event::Reversed {
                    tape: j,
                    new_dir: d,
                });
            } else {
                ext_pos[j] = target;
            }
            ext_dir[j] = d;
        }
        for (k, tape) in internal.iter_mut().enumerate() {
            let d = tr.moves[t + k].dir();
            if d != 0 && tape.shift(d).is_err() {
                return fail(core, "internal head fell off left end".into(), dirs);
            }
        }
        if let Some(e) = evt {
            break e;
        }
    };

    // ---- Build y's meanings and the successor abstract state. ---------
    // y exactly as the NLM runtime will write it.
    let mut y: Vec<Tok> = Vec::new();
    y.push(Tok::State(state_id));
    for h in heads {
        y.push(Tok::Open);
        y.extend_from_slice(h);
        y.push(Tok::Close);
    }
    y.push(Tok::Open);
    y.push(Tok::Choice(choice));
    y.push(Tok::Close);

    let mut movements: Vec<Movement> = (0..t)
        .map(|j| Movement {
            head_direction: abs.ext[j].dir,
            move_: false,
        })
        .collect();
    let mut new_ext: Vec<ExtHead> = (0..t)
        .map(|j| ExtHead {
            pos: ext_pos[j],
            dir: ext_dir[j],
            lo: Some(blocks[j].lo),
            hi: Some(blocks[j].hi),
        })
        .collect();
    let mut meanings: Vec<BlockMeaning> = Vec::with_capacity(t);
    let mut write_y = true;

    match event {
        Event::Halted { accepted } => {
            // Case 3: no movement fires; only the state changes.
            write_y = false;
            let next = AbsState {
                step: abs.step + 1,
                q,
                internal,
                ext: new_ext,
                halted: Some(accepted),
            };
            let id = core.intern(next);
            // No meanings recorded: nothing will be written (all f = 0).
            let _ = meanings;
            let _ = write_y;
            return (id, movements);
        }
        Event::Crossed { tape: j0, new_dir } => {
            for j in 0..t {
                if j == j0 {
                    // The exited block, fully updated.
                    meanings.push(blocks[j].clone());
                    // Entering an unknown neighbor: bounds from its cell,
                    // trimmed at the entry side.
                    new_ext[j] = ExtHead {
                        pos: ext_pos[j],
                        dir: new_dir,
                        lo: if new_dir == 1 { Some(ext_pos[j]) } else { None },
                        hi: if new_dir == 1 { None } else { Some(ext_pos[j]) },
                    };
                    movements[j] = Movement {
                        head_direction: new_dir,
                        move_: true,
                    };
                } else {
                    split_behind(
                        &blocks[j],
                        ext_dir[j],
                        ext_pos[j],
                        &mut meanings,
                        &mut new_ext[j],
                    );
                }
            }
        }
        Event::Reversed { tape: j0, new_dir } => {
            for j in 0..t {
                if j == j0 {
                    // Kept block: the side the head now re-traverses.
                    let (lo, hi) = if new_dir == -1 {
                        (blocks[j].lo, ext_pos[j] + 1)
                    } else {
                        (ext_pos[j].saturating_sub(1), blocks[j].hi)
                    };
                    let hi = hi.min(blocks[j].hi);
                    let lo = lo.max(blocks[j].lo);
                    let syms = blocks[j]
                        .syms
                        .range(lo..=hi)
                        .map(|(&k, &v)| (k, v))
                        .collect();
                    meanings.push(BlockMeaning { lo, hi, syms });
                    new_ext[j] = ExtHead {
                        pos: ext_pos[j],
                        dir: new_dir,
                        lo: Some(lo),
                        hi: Some(hi),
                    };
                    movements[j] = Movement {
                        head_direction: new_dir,
                        move_: false,
                    };
                } else {
                    split_behind(
                        &blocks[j],
                        ext_dir[j],
                        ext_pos[j],
                        &mut meanings,
                        &mut new_ext[j],
                    );
                }
            }
        }
    }

    if write_y {
        core.memo.insert(y, meanings);
    }
    let next = AbsState {
        step: abs.step + 1,
        q,
        internal,
        ext: new_ext,
        halted: None,
    };
    let id = core.intern(next);
    (id, movements)
}

/// Split tape `j`'s block at its (non-event) head: the part *behind* the
/// head becomes the written cell's meaning, the rest stays the current
/// block.
fn split_behind(
    block: &BlockMeaning,
    dir: i8,
    pos: usize,
    meanings: &mut Vec<BlockMeaning>,
    ext: &mut ExtHead,
) {
    if dir == 1 {
        // Behind = [lo, pos−1], kept = [pos, hi].
        let syms = if pos <= block.lo {
            BTreeMap::new()
        } else {
            block
                .syms
                .range(block.lo..=pos - 1)
                .map(|(&k, &v)| (k, v))
                .collect()
        };
        let hi_b = if pos <= block.lo { block.lo } else { pos - 1 };
        meanings.push(BlockMeaning {
            lo: block.lo,
            hi: hi_b,
            syms,
        });
        *ext = ExtHead {
            pos,
            dir,
            lo: Some(pos),
            hi: Some(block.hi),
        };
    } else {
        // Behind = [pos+1, hi], kept = [lo, pos].
        let syms = if pos >= block.hi {
            BTreeMap::new()
        } else {
            block
                .syms
                .range(pos + 1..=block.hi)
                .map(|(&k, &v)| (k, v))
                .collect()
        };
        let lo_b = if pos >= block.hi { block.hi } else { pos + 1 };
        meanings.push(BlockMeaning {
            lo: lo_b,
            hi: block.hi,
            syms,
        });
        *ext = ExtHead {
            pos,
            dir,
            lo: Some(block.lo),
            hi: Some(pos),
        };
    }
}

/// Encode `m` values of `n` bits as the TM input word `v₁#…v_m#` in
/// st-tm symbols.
#[must_use]
pub fn tm_input_word(values: &[Val], n: usize) -> Vec<Sym> {
    let mut out = Vec::with_capacity(values.len() * (n + 1));
    for &v in values {
        for b in 0..n {
            let bit = (v >> (n - 1 - b)) & 1;
            out.push(1 + bit as Sym);
        }
        out.push(st_tm::library::SYM_HASH);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_sampled, run_with_choices};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use st_tm::library as tmlib;
    use st_tm::run::run_deterministic;

    fn check_deterministic_agreement(tm: &Tm, m: usize, n: usize, values: &[Val]) {
        let sim = simulate_tm(tm, m, n, 1, 1 << 20).unwrap();
        let lm_run = run_with_choices(
            &sim.nlm,
            values,
            &vec![0; 1 << 14],
            1 << 14,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        if let Some(e) = sim.take_error() {
            panic!("simulation error: {e}");
        }
        let word = tm_input_word(values, n);
        let tm_run = run_deterministic(tm, word, 1 << 20, &st_trace::Tracer::disabled()).unwrap();
        assert_eq!(
            lm_run.accepted(),
            tm_run.accepted(),
            "TM and NLM disagree on {values:?} (NLM: {:?}, TM: {:?})",
            lm_run.outcome,
            tm_run.outcome
        );
        // (r,t)-boundedness transfer: the NLM performs no more reversals
        // than the TM's external heads.
        assert!(
            lm_run.reversals.iter().sum::<u64>() <= tm_run.usage.total_reversals(),
            "NLM reversals {:?} exceed TM reversals {:?}",
            lm_run.reversals,
            tm_run.usage.reversals_per_tape
        );
    }

    #[test]
    fn simulates_strings_equal_on_equal_inputs() {
        let tm = tmlib::strings_equal_machine();
        check_deterministic_agreement(&tm, 2, 4, &[0b0101, 0b0101]);
        check_deterministic_agreement(&tm, 2, 4, &[0b1111, 0b1111]);
        check_deterministic_agreement(&tm, 2, 1, &[0, 0]);
    }

    #[test]
    fn simulates_strings_equal_on_unequal_inputs() {
        let tm = tmlib::strings_equal_machine();
        check_deterministic_agreement(&tm, 2, 4, &[0b0101, 0b0100]);
        check_deterministic_agreement(&tm, 2, 4, &[0b0000, 0b1111]);
        check_deterministic_agreement(&tm, 2, 1, &[0, 1]);
    }

    #[test]
    fn simulates_strings_equal_exhaustively_at_n3() {
        let tm = tmlib::strings_equal_machine();
        for a in 0..8u64 {
            for b in 0..8u64 {
                check_deterministic_agreement(&tm, 2, 3, &[a, b]);
            }
        }
    }

    #[test]
    fn simulates_the_copy_machine() {
        let tm = tmlib::copy_machine();
        check_deterministic_agreement(&tm, 2, 3, &[0b101, 0b010]);
        check_deterministic_agreement(&tm, 1, 4, &[0b1001]);
    }

    #[test]
    fn simulates_ping_pong_reversals_faithfully() {
        for cycles in [1u16, 2, 3] {
            let tm = tmlib::ping_pong_machine(cycles);
            let values = [0b1010u64];
            let sim = simulate_tm(&tm, 1, 4, 1, 1 << 20).unwrap();
            let lm_run = run_with_choices(
                &sim.nlm,
                &values,
                &vec![0; 1 << 14],
                1 << 14,
                &st_trace::Tracer::disabled(),
            )
            .unwrap();
            assert!(sim.take_error().is_none());
            assert!(lm_run.accepted());
            let word = tm_input_word(&values, 4);
            let tm_run =
                run_deterministic(&tm, word, 1 << 20, &st_trace::Tracer::disabled()).unwrap();
            assert_eq!(tm_run.usage.total_reversals(), 2 * u64::from(cycles));
            assert!(
                lm_run.reversals.iter().sum::<u64>() <= 2 * u64::from(cycles),
                "cycles={cycles}: NLM {:?}",
                lm_run.reversals
            );
        }
    }

    #[test]
    fn randomized_machine_probabilities_transfer() {
        // The (½,0)-RTM for string equality: the NLM must accept equal
        // inputs with probability ≈ ½ and unequal ones never.
        let tm = tmlib::randomized_strings_equal_machine();
        let sim = simulate_tm(&tm, 2, 3, 2, 1 << 20).unwrap();
        let mut rng = StdRng::seed_from_u64(200);
        let mut acc = 0u32;
        let trials = 600;
        for _ in 0..trials {
            let run = run_sampled(
                &sim.nlm,
                &[0b101, 0b101],
                &mut rng,
                1 << 14,
                &st_trace::Tracer::disabled(),
            )
            .unwrap();
            assert!(sim.take_error().is_none());
            if run.accepted() {
                acc += 1;
            }
        }
        let p = f64::from(acc) / f64::from(trials);
        assert!((p - 0.5).abs() < 0.07, "yes-instance acceptance {p}");
        for _ in 0..100 {
            let run = run_sampled(
                &sim.nlm,
                &[0b101, 0b100],
                &mut rng,
                1 << 14,
                &st_trace::Tracer::disabled(),
            )
            .unwrap();
            assert!(!run.accepted(), "false positive in the simulated RTM");
        }
    }

    #[test]
    fn state_count_stays_within_the_lemma16_budget() {
        let tm = tmlib::strings_equal_machine();
        let n = 6usize;
        let sim = simulate_tm(&tm, 2, n, 1, 1 << 20).unwrap();
        let _ = run_with_choices(
            &sim.nlm,
            &[0b101010, 0b101010],
            &vec![0; 1 << 14],
            1 << 14,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        let states = sim.states_materialized() as f64;
        // Equation (2) with d generous: log₂|A| ≤ d·t²·r·s + 3t·log(m(n+1)).
        let (log_main, additive) =
            st_core::theorems::lemma16_state_bound(2, n as u64, 3, 4, 2, 8.0);
        assert!(
            states.log2() <= log_main + additive,
            "states {} vs bound 2^{}",
            states,
            log_main + additive
        );
    }

    #[test]
    fn input_word_encoding_matches_tm_convention() {
        assert_eq!(tm_input_word(&[0b10], 2), vec![2, 1, 3]);
        assert_eq!(tm_input_word(&[0, 1], 1), vec![1, 3, 2, 3]);
        assert_eq!(tm_input_word(&[], 4), Vec::<Sym>::new());
    }
}
