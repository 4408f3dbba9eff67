//! Concrete NLMs.
//!
//! Most machines here are **script machines**: deterministic NLMs whose
//! head movements follow a precomputed, data-independent script (the
//! state is the script index). Script machines are exactly the "honest"
//! bounded-scan algorithms the lower bound is about: they may compare
//! whatever their local views make visible and reject on a witnessed
//! mismatch, but their information flow is fixed — which is what the
//! Lemma 21 adversary exploits.

use crate::machine::{Movement, Nlm};
use crate::{Choice, LmState, Tok, Val};

/// The accepting halt state of library machines.
pub const ACCEPT: LmState = u32::MAX;
/// The rejecting halt state of library machines.
pub const REJECT: LmState = u32::MAX - 1;

fn final_pred(s: LmState) -> bool {
    s == ACCEPT || s == REJECT
}

fn accepting_pred(s: LmState) -> bool {
    s == ACCEPT
}

/// A deterministic machine that executes `script` (one movement vector
/// per step) and then accepts. States are script indices.
#[must_use]
pub fn script_machine(
    name: impl Into<String>,
    t: usize,
    m: usize,
    script: Vec<Vec<Movement>>,
) -> Nlm {
    let len = script.len() as LmState;
    Nlm {
        name: name.into(),
        t,
        m,
        num_choices: 1,
        start: if len == 0 { ACCEPT } else { 0 },
        is_final: Box::new(final_pred),
        is_accepting: Box::new(accepting_pred),
        delta: Box::new(move |state: LmState, _heads: &[&[Tok]], _c: Choice| {
            let next = if state + 1 >= len { ACCEPT } else { state + 1 };
            (next, script[state as usize].clone())
        }),
    }
}

/// Head 1 sweeps right over the `m` input cells (all other heads hold
/// still), then accepts. One scan, zero reversals.
#[must_use]
pub fn sweep_right_machine(t: usize, m: usize) -> Nlm {
    let mut script = Vec::new();
    for _ in 0..m.saturating_sub(1) {
        let mut mv = vec![Movement::STAY_R; t];
        mv[0] = Movement::RIGHT;
        script.push(mv);
    }
    // One last attempted RIGHT at the right end (clipped to a no-op by
    // the e → e′ rule) so the machine "reads to the end" like a TM scan.
    let mut mv = vec![Movement::STAY_R; t];
    mv[0] = Movement::RIGHT;
    script.push(mv);
    script_machine(format!("sweep-right-{t}x{m}"), t, m, script)
}

/// A machine that makes `k` pure-state steps (movement `(+1,false)` with
/// unchanged direction — nothing fires, nothing is written) and accepts.
#[must_use]
pub fn countdown_machine(k: usize) -> Nlm {
    script_machine(
        format!("countdown-{k}"),
        1,
        1,
        vec![vec![Movement::STAY_R]; k],
    )
}

/// Head 1 zigzags over its list: an initial rightward sweep, then
/// `cycles` × (turn, sweep left, turn, sweep right). Exactly `2·cycles`
/// reversals.
#[must_use]
pub fn zigzag_machine(t: usize, m: usize, cycles: usize) -> Nlm {
    let mut script: Vec<Vec<Movement>> = Vec::new();
    let push = |mv0: Movement, script: &mut Vec<Vec<Movement>>| {
        let mut mv = vec![Movement::STAY_R; t];
        mv[0] = mv0;
        script.push(mv);
    };
    // Virtual tracking of list 1's geometry. Every step in which any head
    // moves inserts y into the *other* lists; on list 1 itself: move=true
    // overwrites (length unchanged), a turn inserts one cell.
    let mut pos = 0usize;
    let mut len = m.max(1);
    // Initial sweep right.
    while pos < len - 1 {
        push(Movement::RIGHT, &mut script);
        pos += 1;
    }
    for _ in 0..cycles {
        // Turn left: y inserted before pos (d=+1), head parks on it.
        push(Movement::STAY_L, &mut script);
        len += 1;
        // Sweep left to the start.
        while pos > 0 {
            push(Movement::LEFT, &mut script);
            pos -= 1;
        }
        // Turn right: y inserted after pos (d=−1), head parks on it.
        push(Movement::STAY_R, &mut script);
        len += 1;
        pos += 1;
        // Sweep right to the end.
        while pos < len - 1 {
            push(Movement::RIGHT, &mut script);
            pos += 1;
        }
    }
    script_machine(format!("zigzag-{t}x{m}x{cycles}"), t, m, script)
}

/// A one-choice coin machine: `|C| = 2`; choice 0 accepts, choice 1
/// rejects. `Pr(accept) = ½` on every input.
#[must_use]
pub fn coin_machine() -> Nlm {
    Nlm {
        name: "lm-coin".into(),
        t: 1,
        m: 1,
        num_choices: 2,
        start: 0,
        is_final: Box::new(final_pred),
        is_accepting: Box::new(accepting_pred),
        delta: Box::new(|_state: LmState, _heads: &[&[Tok]], c: Choice| {
            (if c == 0 { ACCEPT } else { REJECT }, vec![Movement::STAY_R])
        }),
    }
}

/// A machine that accepts every input immediately. The degenerate
/// "solver" whose fooling input the adversary finds instantly.
#[must_use]
pub fn always_accept_machine(t: usize, m: usize) -> Nlm {
    script_machine(format!("always-accept-{t}x{m}"), t, m, Vec::new())
}

/// Extract all `(position, value)` input tokens visible in a set of head
/// cells.
fn visible_inputs(heads: &[&[Tok]]) -> Vec<(usize, Val)> {
    let mut out = Vec::new();
    for cell in heads {
        for t in *cell {
            if let Tok::Input { pos, val } = *t {
                out.push((pos, val));
            }
        }
    }
    out
}

/// The **one-scan matcher**: an honest deterministic CHECK-φ attempt on
/// `2m` inputs (`x` at positions `0..m`, `y` at `m..2m`) within
/// `t = 2` lists and one head reversal.
///
/// Phase 1 copies the `x` cells into list 2's write history (head 1
/// sweeps right, head 2 holds); phase 2 turns head 2 around (the single
/// reversal); phase 3 moves both heads in lockstep, so each `y` cell is
/// co-visible with one buffered `x` cell (alignment `i ↦ m + (m−i)`).
/// Whenever a co-visible pair is a φ-pair with different values the
/// machine rejects; at the end it accepts.
///
/// It therefore accepts **every** yes-instance, and rejects a
/// no-instance iff its witnessing pair happens to lie on the scripted
/// alignment — the machine Lemma 21 dooms.
#[must_use]
pub fn one_scan_matcher(m: usize, phi: Vec<usize>) -> Nlm {
    assert_eq!(phi.len(), m, "φ must be a permutation of 0..m");
    // Script over 2 lists.
    let mut script: Vec<Vec<Movement>> = Vec::new();
    // Phase 1: m steps — head 1 right, head 2 holds.
    for _ in 0..m {
        script.push(vec![Movement::RIGHT, Movement::STAY_R]);
    }
    // Phase 2: turn head 2 (head 1 holds).
    script.push(vec![Movement::STAY_R, Movement::STAY_L]);
    // Phase 3: m steps in lockstep.
    for _ in 0..m {
        script.push(vec![Movement::RIGHT, Movement::LEFT]);
    }
    let len = script.len() as LmState;
    Nlm {
        name: format!("one-scan-matcher-{m}"),
        t: 2,
        m: 2 * m,
        num_choices: 1,
        start: 0,
        is_final: Box::new(final_pred),
        is_accepting: Box::new(accepting_pred),
        delta: Box::new(move |state: LmState, heads: &[&[Tok]], _c: Choice| {
            // Inspect the local view for a witnessed φ-mismatch.
            let vis = visible_inputs(heads);
            for &(p, vp) in &vis {
                if p >= m {
                    continue;
                }
                for &(q, vq) in &vis {
                    if q >= m && phi[p] == q - m && vp != vq {
                        return (REJECT, vec![Movement::STAY_R, Movement::STAY_R]);
                    }
                }
            }
            let next = if state + 1 >= len { ACCEPT } else { state + 1 };
            (next, script[state as usize].clone())
        }),
    }
}

/// The **multi-pass matcher**: after the copy phase, the two heads
/// ping-pong in opposite directions for `passes` sweeps, so each sweep
/// realizes one monotone alignment between the `y` region of list 1 and
/// the copied-`x` history on list 2 (backward alignments on odd sweeps,
/// forward on even). Reversals: `2·passes − 1`, i.e. `2·passes` scans —
/// the `r`-parameterized family the Merge Lemma (Lemma 38) budgets as
/// `t^{2r}·sortedness(φ)` compared pairs.
#[must_use]
pub fn multi_pass_matcher(m: usize, phi: Vec<usize>, passes: usize) -> Nlm {
    assert_eq!(phi.len(), m);
    assert!(passes >= 1);
    let mut script: Vec<Vec<Movement>> = Vec::new();
    // Phase 1: copy the x cells into list 2's write history.
    for _ in 0..m {
        script.push(vec![Movement::RIGHT, Movement::STAY_R]);
    }
    // Turn head 2 (its first reversal).
    script.push(vec![Movement::STAY_R, Movement::STAY_L]);
    // Geometry after the turn (see run.rs semantics):
    let mut len0 = 2 * m + 1;
    let mut pos0 = m + 1;
    let mut len1 = m + 2;
    let mut pos1 = m;
    for p in 0..passes {
        if p % 2 == 0 {
            // Backward alignment: head 1 right over the y region, head 2
            // left over the copied history.
            let steps = (len0 - 1 - pos0).min(pos1);
            for _ in 0..steps {
                script.push(vec![Movement::RIGHT, Movement::LEFT]);
                pos0 += 1;
                pos1 -= 1;
            }
            if p + 1 == passes {
                break;
            }
            // Turn both heads.
            script.push(vec![Movement::STAY_L, Movement::STAY_R]);
            len0 += 1; // y inserted before head 1's cell (d=+1)
            len1 += 1; // y inserted after head 2's cell (d=−1)
            pos1 += 1;
        } else {
            // Forward alignment.
            let steps = pos0.min(len1 - 1 - pos1);
            for _ in 0..steps {
                script.push(vec![Movement::LEFT, Movement::RIGHT]);
                pos0 -= 1;
                pos1 += 1;
            }
            if p + 1 == passes {
                break;
            }
            script.push(vec![Movement::STAY_R, Movement::STAY_L]);
            len0 += 1;
            pos0 += 1;
            len1 += 1;
        }
    }
    let len = script.len() as LmState;
    Nlm {
        name: format!("multi-pass-matcher-{m}x{passes}"),
        t: 2,
        m: 2 * m,
        num_choices: 1,
        start: 0,
        is_final: Box::new(final_pred),
        is_accepting: Box::new(accepting_pred),
        delta: Box::new(move |state: LmState, heads: &[&[Tok]], _c: Choice| {
            let vis = visible_inputs(heads);
            for &(p, vp) in &vis {
                if p >= m {
                    continue;
                }
                for &(q, vq) in &vis {
                    if q >= m && phi[p] == q - m && vp != vq {
                        return (REJECT, vec![Movement::STAY_R, Movement::STAY_R]);
                    }
                }
            }
            let next = if state + 1 >= len { ACCEPT } else { state + 1 };
            (next, script[state as usize].clone())
        }),
    }
}

/// The one-scan matcher behind a fair coin (the Lemma 26 exercise
/// machine): the first step consumes a nondeterministic choice — tails
/// (`c = 1`) rejects immediately, heads (`c = 0`) runs the deterministic
/// matcher. On CHECK-φ yes-instances `Pr(accept) = ½` exactly; on
/// no-instances it accepts at most when the matcher would.
#[must_use]
pub fn coin_prefixed_matcher(m: usize, phi: Vec<usize>) -> Nlm {
    let inner = one_scan_matcher(m, phi);
    let inner_start = inner.start;
    let delta_inner = inner.delta;
    // Inner states are script indices (< REJECT); state u32::MAX − 2 is
    // the fresh coin state so it cannot collide.
    const COIN: LmState = u32::MAX - 2;
    Nlm {
        name: format!("coin-matcher-{m}"),
        t: 2,
        m: 2 * m,
        num_choices: 2,
        start: COIN,
        is_final: Box::new(final_pred),
        is_accepting: Box::new(accepting_pred),
        delta: Box::new(move |state: LmState, heads: &[&[Tok]], c: Choice| {
            if state == COIN {
                if c == 1 {
                    return (REJECT, vec![Movement::STAY_R, Movement::STAY_R]);
                }
                return (inner_start, vec![Movement::STAY_R, Movement::STAY_R]);
            }
            delta_inner.apply(state, heads, c)
        }),
    }
}

/// A full-information matcher for *small* m: head 1 zigzags `passes`
/// times over the input while head 2 records, giving richer (but still
/// bounded) information flow. Used by the skeleton-count experiments to
/// populate machines with more reversals.
#[must_use]
pub fn zigzag_matcher(m: usize, phi: Vec<usize>, passes: usize) -> Nlm {
    assert_eq!(phi.len(), m);
    let inner = zigzag_machine(2, 2 * m, passes);
    let name = format!("zigzag-matcher-{m}x{passes}");
    let delta_script = inner.delta;
    Nlm {
        name,
        t: 2,
        m: 2 * m,
        num_choices: 1,
        start: 0,
        is_final: Box::new(final_pred),
        is_accepting: Box::new(accepting_pred),
        delta: Box::new(move |state: LmState, heads: &[&[Tok]], c: Choice| {
            let vis = visible_inputs(heads);
            for &(p, vp) in &vis {
                if p >= m {
                    continue;
                }
                for &(q, vq) in &vis {
                    if q >= m && phi[p] == q - m && vp != vq {
                        return (REJECT, vec![Movement::STAY_R, Movement::STAY_R]);
                    }
                }
            }
            delta_script.apply(state, heads, c)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_sampled, run_with_choices};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn always_accept_accepts_immediately() {
        let nlm = always_accept_machine(2, 4);
        let run = run_with_choices(
            &nlm,
            &[1, 2, 3, 4],
            &[0; 4],
            4,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        assert!(run.accepted());
        assert_eq!(run.len(), 1);
    }

    #[test]
    fn coin_machine_is_a_fair_coin() {
        let nlm = coin_machine();
        let mut rng = StdRng::seed_from_u64(90);
        let mut acc = 0;
        for _ in 0..2000 {
            if run_sampled(&nlm, &[1], &mut rng, 10, &st_trace::Tracer::disabled())
                .unwrap()
                .accepted()
            {
                acc += 1;
            }
        }
        let p = acc as f64 / 2000.0;
        assert!((p - 0.5).abs() < 0.05, "p = {p}");
        // And the two fixed-choice runs are deterministic:
        assert!(
            run_with_choices(&nlm, &[1], &[0], 10, &st_trace::Tracer::disabled())
                .unwrap()
                .accepted()
        );
        assert!(
            !run_with_choices(&nlm, &[1], &[1], 10, &st_trace::Tracer::disabled())
                .unwrap()
                .accepted()
        );
    }

    #[test]
    fn zigzag_reversal_budget_is_exact() {
        for cycles in [0usize, 1, 2, 3] {
            let nlm = zigzag_machine(1, 4, cycles);
            let run = run_with_choices(
                &nlm,
                &[1, 2, 3, 4],
                &[0; 4096],
                4096,
                &st_trace::Tracer::disabled(),
            )
            .unwrap();
            assert!(run.accepted());
            assert_eq!(
                run.reversals,
                vec![2 * cycles as u64],
                "cycles = {cycles}: {:?}",
                run.reversals
            );
        }
    }

    #[test]
    fn one_scan_matcher_accepts_yes_instances() {
        let m = 8;
        let phi: Vec<usize> = st_problems::perm::phi(m);
        let nlm = one_scan_matcher(m, phi.clone());
        // x_i = y_{φ(i)}: build ys then xs.
        let ys: Vec<Val> = (0..m as u64).map(|j| 100 + j).collect();
        let xs: Vec<Val> = (0..m).map(|i| ys[phi[i]]).collect();
        let input: Vec<Val> = xs.into_iter().chain(ys).collect();
        let run = run_with_choices(
            &nlm,
            &input,
            &[0; 8192],
            8192,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        assert!(run.accepted());
        assert!(run.scans() <= 2, "scans = {}", run.scans());
    }

    #[test]
    fn one_scan_matcher_rejects_witnessed_mismatches() {
        // With φ = reversal-alignment the matcher sees the φ-pairs for
        // i ≥ 1; corrupt one of those and it must reject.
        let m = 4;
        let phi: Vec<usize> = (0..m).map(|i| (m - i) % m).collect(); // matches the scripted alignment for i ≥ 1
        let nlm = one_scan_matcher(m, phi.clone());
        let ys: Vec<Val> = (0..m as u64).map(|j| 50 + j).collect();
        let mut xs: Vec<Val> = (0..m).map(|i| ys[phi[i]]).collect();
        xs[2] = 999; // pair (2, m+φ(2)) is on the alignment
        let input: Vec<Val> = xs.into_iter().chain(ys).collect();
        let run = run_with_choices(
            &nlm,
            &input,
            &[0; 8192],
            8192,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        assert!(!run.accepted());
    }

    #[test]
    fn one_scan_matcher_misses_off_alignment_mismatches() {
        // With φ = identity, almost no φ-pair is on the alignment; a
        // corrupted pair off the alignment is accepted — the machine is
        // *unsound*, as Theorem 6 says any such machine must be.
        let m = 4;
        let phi: Vec<usize> = (0..m).collect();
        let nlm = one_scan_matcher(m, phi.clone());
        let ys: Vec<Val> = (0..m as u64).map(|j| 50 + j).collect();
        let mut xs: Vec<Val> = (0..m).map(|i| ys[phi[i]]).collect();
        xs[0] = 999; // (0, m+0): x_0 is never co-visible with y cells
        let input: Vec<Val> = xs.into_iter().chain(ys).collect();
        let run = run_with_choices(
            &nlm,
            &input,
            &[0; 8192],
            8192,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        assert!(
            run.accepted(),
            "no-instance accepted: the lower bound in action"
        );
    }

    #[test]
    fn multi_pass_matcher_accepts_yes_and_scans_scale_with_passes() {
        let m = 8usize;
        let phi = st_problems::perm::phi(m);
        let ys: Vec<Val> = (0..m as u64).map(|j| 300 + j).collect();
        let xs: Vec<Val> = (0..m).map(|i| ys[phi[i]]).collect();
        let input: Vec<Val> = xs.into_iter().chain(ys).collect();
        for passes in [1usize, 2, 3, 4] {
            let nlm = multi_pass_matcher(m, phi.clone(), passes);
            let run = crate::run::run_with_choices(
                &nlm,
                &input,
                &[0; 1 << 14],
                1 << 14,
                &st_trace::Tracer::disabled(),
            )
            .unwrap();
            assert!(run.accepted(), "passes = {passes}");
            assert_eq!(
                run.scans(),
                2 * passes as u64,
                "passes = {passes}: {:?}",
                run.reversals
            );
        }
    }

    #[test]
    fn multi_pass_compares_at_least_as_much_as_one_pass() {
        use crate::skeleton::{compared_pairs, skeleton_of};
        let m = 8usize;
        let phi = st_problems::perm::phi(m);
        let ys: Vec<Val> = (0..m as u64).map(|j| 300 + j).collect();
        let xs: Vec<Val> = (0..m).map(|i| ys[phi[i]]).collect();
        let input: Vec<Val> = xs.into_iter().chain(ys).collect();
        let mut prev = 0usize;
        for passes in [1usize, 2, 3] {
            let nlm = multi_pass_matcher(m, phi.clone(), passes);
            let run = crate::run::run_with_choices(
                &nlm,
                &input,
                &[0; 1 << 14],
                1 << 14,
                &st_trace::Tracer::disabled(),
            )
            .unwrap();
            let count = compared_pairs(&skeleton_of(&run)).len();
            assert!(count >= prev, "passes = {passes}: {count} < {prev}");
            prev = count;
        }
        assert!(prev > 0);
    }

    #[test]
    fn multi_pass_matcher_is_still_defeated_by_the_adversary() {
        use crate::adversary::{find_fooling_input, WordFamily};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // Two passes of monotone alignments still miss some φ-pair at
        // m = 32 (bit-reversal sortedness ≈ 2√m = 11 ≪ m).
        let m = 32usize;
        let fam = WordFamily::new(m, 16).unwrap();
        let nlm = multi_pass_matcher(m, st_problems::perm::phi(m), 2);
        let mut rng = StdRng::seed_from_u64(7);
        let res =
            find_fooling_input(&nlm, &fam, &mut rng, 12, &st_trace::Tracer::disabled()).unwrap();
        assert!(res.run_u.accepted());
        assert!(!fam.holds(&res.u));
    }

    #[test]
    fn zigzag_matcher_catches_more_pairs_with_more_passes() {
        let m = 4;
        let phi = st_problems::perm::phi(m);
        let input: Vec<Val> = (0..2 * m as u64).collect();
        let nlm1 = zigzag_matcher(m, phi.clone(), 1);
        let nlm3 = zigzag_matcher(m, phi.clone(), 3);
        let r1 = run_with_choices(
            &nlm1,
            &input,
            &[0; 65536],
            65536,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        let r3 = run_with_choices(
            &nlm3,
            &input,
            &[0; 65536],
            65536,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        let s1 = crate::skeleton::skeleton_of(&r1);
        let s3 = crate::skeleton::skeleton_of(&r3);
        let c1 = crate::skeleton::compared_pairs(&s1).len();
        let c3 = crate::skeleton::compared_pairs(&s3).len();
        assert!(
            c3 >= c1,
            "more passes should not compare fewer pairs ({c1} vs {c3})"
        );
    }
}
