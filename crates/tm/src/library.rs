//! A shelf of concrete machines.
//!
//! These are the executable witnesses used throughout the workspace:
//! resource-accounting tests, the Lemma 3 run-length experiments, the
//! Lemma 18 probability characterization, and the Lemma 16 TM→NLM
//! simulation experiments (which need real `(r,s,t)`-bounded machines on
//! inputs of the paper's `v₁#…v_m#` shape).
//!
//! Alphabet convention (shared with `st-problems`): `0` = blank `□`,
//! [`SYM_0`] = '0', [`SYM_1`] = '1', [`SYM_HASH`] = '#', [`MARK`] = a
//! private left-end marker.

use crate::machine::{Move, Pat, Tm, TmBuilder, Wr};
use crate::{State, Sym};

/// Tape symbol for the bit '0'.
pub const SYM_0: Sym = 1;
/// Tape symbol for the bit '1'.
pub const SYM_1: Sym = 2;
/// Tape symbol for the separator '#'.
pub const SYM_HASH: Sym = 3;
/// Private left-end marker used by machines that rewind a work tape.
pub const MARK: Sym = 9;

/// Encode an ASCII `{0,1,#}` string into tape symbols.
#[must_use]
pub fn encode(s: &str) -> Vec<Sym> {
    s.chars()
        .map(|c| match c {
            '0' => SYM_0,
            '1' => SYM_1,
            '#' => SYM_HASH,
            _ => panic!("encode: unsupported character {c:?}"),
        })
        .collect()
}

/// A deterministic 1-external-tape machine accepting words over
/// `{'0','1'}` with an **even** number of '1's. One forward scan, O(1)
/// internal space (its single internal tape is never used).
#[must_use]
pub fn parity_machine() -> Tm {
    let mut b = TmBuilder::new("parity", 1, 1);
    let odd = b.state();
    let acc = b.state();
    let rej = b.state();
    b.finalize(acc, true);
    b.finalize(rej, false);
    let n = || vec![Move::N, Move::N];
    let r0 = || vec![Move::R, Move::N];
    let keep = || vec![Wr::Keep, Wr::Keep];
    // even (start) state 0
    b.rule(0, vec![Pat::Is(SYM_0), Pat::Any], 0, keep(), r0())
        .unwrap();
    b.rule(0, vec![Pat::Is(SYM_1), Pat::Any], odd, keep(), r0())
        .unwrap();
    b.rule(0, vec![Pat::Is(0), Pat::Any], acc, keep(), n())
        .unwrap();
    // odd
    b.rule(odd, vec![Pat::Is(SYM_0), Pat::Any], odd, keep(), r0())
        .unwrap();
    b.rule(odd, vec![Pat::Is(SYM_1), Pat::Any], 0, keep(), r0())
        .unwrap();
    b.rule(odd, vec![Pat::Is(0), Pat::Any], rej, keep(), n())
        .unwrap();
    b.build()
}

/// A machine that flips one fair coin: from the start configuration it has
/// exactly two successors, an accepting and a rejecting halt.
/// `Pr(accept) = ½` on every input.
#[must_use]
pub fn coin_flip_machine() -> Tm {
    let mut b = TmBuilder::new("coin-flip", 1, 0);
    let acc = b.state();
    let rej = b.state();
    b.finalize(acc, true);
    b.finalize(rej, false);
    // Two exact transitions on every symbol we care about; use a rule pair
    // with Any so the machine works on all inputs.
    b.rule(0, vec![Pat::Any], acc, vec![Wr::Keep], vec![Move::N])
        .unwrap();
    b.rule(0, vec![Pat::Any], rej, vec![Wr::Keep], vec![Move::N])
        .unwrap();
    b.build()
}

/// A machine that never halts: it walks right forever. Exists to exercise
/// the step-limit machinery (a Definition-1 machine must *not* look like
/// this; the run executor reports `StepLimit`).
#[must_use]
pub fn diverging_machine() -> Tm {
    let mut b = TmBuilder::new("diverging", 1, 0);
    b.rule(0, vec![Pat::Any], 0, vec![Wr::Keep], vec![Move::R])
        .unwrap();
    b.build()
}

/// A machine performing exactly `2·cycles` head reversals on its single
/// external tape, then accepting. Bounces between a left-end marker and
/// the blank just past the input. Used by the Lemma 3 experiments to
/// realize a prescribed reversal count.
#[must_use]
pub fn ping_pong_machine(cycles: u16) -> Tm {
    let mut b = TmBuilder::new(format!("ping-pong-{cycles}"), 1, 0);
    let acc = b.state();
    b.finalize(acc, true);
    if cycles == 0 {
        b.rule(0, vec![Pat::Any], acc, vec![Wr::Keep], vec![Move::N])
            .unwrap();
        return b.build();
    }
    // State 0 marks cell 0 and enters the first rightward sweep.
    let mut right: Vec<State> = Vec::new();
    let mut left: Vec<State> = Vec::new();
    for _ in 0..cycles {
        right.push(b.state());
        left.push(b.state());
    }
    b.rule(
        0,
        vec![Pat::Any],
        right[0],
        vec![Wr::Put(MARK)],
        vec![Move::R],
    )
    .unwrap();
    for j in 0..cycles as usize {
        // Sweep right until blank…
        b.rule(
            right[j],
            vec![Pat::Not(0)],
            right[j],
            vec![Wr::Keep],
            vec![Move::R],
        )
        .unwrap();
        // …then turn (reversal #2j+1) and sweep left until the marker…
        b.rule(
            right[j],
            vec![Pat::Is(0)],
            left[j],
            vec![Wr::Keep],
            vec![Move::L],
        )
        .unwrap();
        b.rule(
            left[j],
            vec![Pat::Not(MARK)],
            left[j],
            vec![Wr::Keep],
            vec![Move::L],
        )
        .unwrap();
        // …then turn again (reversal #2j+2).
        let next: State = if j + 1 < cycles as usize {
            right[j + 1]
        } else {
            acc
        };
        b.rule(
            left[j],
            vec![Pat::Is(MARK)],
            next,
            vec![Wr::Keep],
            vec![Move::R],
        )
        .unwrap();
    }
    b.build()
}

/// A deterministic 2-external-tape machine copying its input onto tape 1,
/// then accepting. One scan of each tape (normalized: heads alternate).
#[must_use]
pub fn copy_machine() -> Tm {
    let mut b = TmBuilder::new("copy", 2, 0);
    let step2 = b.state();
    let acc = b.state();
    b.finalize(acc, true);
    for x in [SYM_0, SYM_1, SYM_HASH] {
        // Write the symbol on tape 1 and advance tape 1…
        b.rule(
            0,
            vec![Pat::Is(x), Pat::Any],
            step2,
            vec![Wr::Keep, Wr::Put(x)],
            vec![Move::N, Move::R],
        )
        .unwrap();
    }
    // …then advance tape 0.
    b.rule(
        step2,
        vec![Pat::Any, Pat::Any],
        0,
        vec![Wr::Keep, Wr::Keep],
        vec![Move::R, Move::N],
    )
    .unwrap();
    b.rule(
        0,
        vec![Pat::Is(0), Pat::Any],
        acc,
        vec![Wr::Keep, Wr::Keep],
        vec![Move::N, Move::N],
    )
    .unwrap();
    b.build()
}

/// Internal: build the string-equality machine, optionally prefixed by a
/// fair coin flip (tails → immediate reject).
fn strings_equal_inner(with_coin: bool) -> Tm {
    let mut b = TmBuilder::new(
        if with_coin {
            "rand-strings-equal"
        } else {
            "strings-equal"
        },
        2,
        0,
    );
    let acc = b.state();
    let rej = b.state();
    b.finalize(acc, true);
    b.finalize(rej, false);
    let mark = b.state(); // after optional coin: mark tape 1
    let copy_a = b.state(); // copy v: write on tape 1
    let copy_b = b.state(); // copy v: advance tape 0
    let rew = b.state(); // rewind tape 1 to the marker
    let cmp_a = b.state(); // compare: check symbols, advance tape 0
    let cmp_b = b.state(); // compare: advance tape 1
    let keep = || vec![Wr::Keep, Wr::Keep];
    let n = || vec![Move::N, Move::N];
    let r0 = || vec![Move::R, Move::N];
    let r1 = || vec![Move::N, Move::R];
    let l1 = || vec![Move::N, Move::L];

    if with_coin {
        b.rule(0, vec![Pat::Any, Pat::Any], mark, keep(), n())
            .unwrap();
        b.rule(0, vec![Pat::Any, Pat::Any], rej, keep(), n())
            .unwrap();
    } else {
        b.rule(0, vec![Pat::Any, Pat::Any], mark, keep(), n())
            .unwrap();
    }
    // Mark the left end of tape 1.
    b.rule(
        mark,
        vec![Pat::Any, Pat::Any],
        copy_a,
        vec![Wr::Keep, Wr::Put(MARK)],
        r1(),
    )
    .unwrap();
    // Copy v (bits before the first '#') onto tape 1.
    for x in [SYM_0, SYM_1] {
        b.rule(
            copy_a,
            vec![Pat::Is(x), Pat::Any],
            copy_b,
            vec![Wr::Keep, Wr::Put(x)],
            r1(),
        )
        .unwrap();
    }
    b.rule(copy_b, vec![Pat::Any, Pat::Any], copy_a, keep(), r0())
        .unwrap();
    // On '#': advance past it and start rewinding tape 1.
    b.rule(copy_a, vec![Pat::Is(SYM_HASH), Pat::Any], rew, keep(), r0())
        .unwrap();
    // Malformed input (blank before '#'): reject.
    b.rule(copy_a, vec![Pat::Is(0), Pat::Any], rej, keep(), n())
        .unwrap();
    // Rewind tape 1 to the marker, then step right onto v's first symbol.
    b.rule(rew, vec![Pat::Any, Pat::Not(MARK)], rew, keep(), l1())
        .unwrap();
    b.rule(rew, vec![Pat::Any, Pat::Is(MARK)], cmp_a, keep(), r1())
        .unwrap();
    // Compare w (after '#') with the copy of v.
    for x in [SYM_0, SYM_1] {
        b.rule(cmp_a, vec![Pat::Is(x), Pat::Is(x)], cmp_b, keep(), r0())
            .unwrap();
        // Mismatched bit:
        let other = if x == SYM_0 { SYM_1 } else { SYM_0 };
        b.rule(cmp_a, vec![Pat::Is(x), Pat::Is(other)], rej, keep(), n())
            .unwrap();
        // Length mismatches:
        b.rule(cmp_a, vec![Pat::Is(x), Pat::Is(0)], rej, keep(), n())
            .unwrap();
        b.rule(cmp_a, vec![Pat::Is(0), Pat::Is(x)], rej, keep(), n())
            .unwrap();
    }
    b.rule(cmp_b, vec![Pat::Any, Pat::Any], cmp_a, keep(), r1())
        .unwrap();
    // w runs into a '#' while v still has bits: lengths differ.
    for x in [SYM_0, SYM_1] {
        b.rule(cmp_a, vec![Pat::Is(SYM_HASH), Pat::Is(x)], rej, keep(), n())
            .unwrap();
    }
    // Both exhausted (tape 0 on trailing '#' or blank, tape 1 on blank).
    b.rule(cmp_a, vec![Pat::Is(SYM_HASH), Pat::Is(0)], acc, keep(), n())
        .unwrap();
    b.rule(cmp_a, vec![Pat::Is(0), Pat::Is(0)], acc, keep(), n())
        .unwrap();
    b.build()
}

/// A deterministic `(3, O(1), 2)`-style machine deciding whether the two
/// `{0,1}` strings of an input `v#w` (or `v#w#`) are equal: copies `v` to
/// tape 1, rewinds it, compares. Tape 0: one scan; tape 1: two reversals.
#[must_use]
pub fn strings_equal_machine() -> Tm {
    strings_equal_inner(false)
}

/// The randomized variant: a fair coin is flipped first; tails rejects
/// immediately. A `(½,0)`-RTM for string equality:
/// `Pr(accept | v = w) = ½`, `Pr(accept | v ≠ w) = 0`. The Lemma 16
/// simulation experiment's primary target.
#[must_use]
pub fn randomized_strings_equal_machine() -> Tm {
    strings_equal_inner(true)
}

/// A nondeterministic machine that guesses a bit and accepts iff the
/// guess equals the input's first symbol. Exactly two equiprobable runs →
/// `Pr(accept) = ½` on any input starting with '0' or '1'. Exercises the
/// Lemma 18 run/probability characterization.
#[must_use]
pub fn guess_bit_machine() -> Tm {
    let mut b = TmBuilder::new("guess-bit", 1, 0);
    let acc = b.state();
    let rej = b.state();
    b.finalize(acc, true);
    b.finalize(rej, false);
    let g0 = b.state();
    let g1 = b.state();
    b.rule(0, vec![Pat::Any], g0, vec![Wr::Keep], vec![Move::N])
        .unwrap();
    b.rule(0, vec![Pat::Any], g1, vec![Wr::Keep], vec![Move::N])
        .unwrap();
    b.rule(g0, vec![Pat::Is(SYM_0)], acc, vec![Wr::Keep], vec![Move::N])
        .unwrap();
    b.rule(
        g0,
        vec![Pat::Not(SYM_0)],
        rej,
        vec![Wr::Keep],
        vec![Move::N],
    )
    .unwrap();
    b.rule(g1, vec![Pat::Is(SYM_1)], acc, vec![Wr::Keep], vec![Move::N])
        .unwrap();
    b.rule(
        g1,
        vec![Pat::Not(SYM_1)],
        rej,
        vec![Wr::Keep],
        vec![Move::N],
    )
    .unwrap();
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{enumerate_runs, run_deterministic};

    #[test]
    fn encode_maps_symbols() {
        assert_eq!(encode("01#"), vec![SYM_0, SYM_1, SYM_HASH]);
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn encode_rejects_garbage() {
        let _ = encode("0x1");
    }

    #[test]
    fn copy_machine_copies() {
        let tm = copy_machine();
        let r = run_deterministic(&tm, encode("0110#1"), 10_000, &st_trace::Tracer::disabled())
            .unwrap();
        assert!(r.accepted());
        assert_eq!(
            r.final_config.tapes[1].content(),
            encode("0110#1").as_slice()
        );
        // One scan per tape.
        assert_eq!(r.usage.scans(), 1);
    }

    #[test]
    fn strings_equal_accepts_equal_pairs() {
        let tm = strings_equal_machine();
        for (input, expect) in [
            ("0101#0101", true),
            ("0101#0101#", true),
            ("0101#0100", false),
            ("01#011", false),
            ("011#01", false),
            ("#", true), // two empty strings
            ("1#0", false),
        ] {
            let r = run_deterministic(&tm, encode(input), 100_000, &st_trace::Tracer::disabled())
                .unwrap();
            assert_eq!(r.accepted(), expect, "input {input:?} → {:?}", r.outcome);
        }
    }

    #[test]
    fn strings_equal_is_three_scan_bounded() {
        let v = "0110100101110010";
        let input = format!("{v}#{v}");
        let tm = strings_equal_machine();
        let r =
            run_deterministic(&tm, encode(&input), 100_000, &st_trace::Tracer::disabled()).unwrap();
        assert!(r.accepted());
        // Tape 0: forward only. Tape 1: forward, back, forward.
        assert_eq!(r.usage.reversals_per_tape, vec![0, 2]);
        assert_eq!(r.usage.scans(), 3);
        assert_eq!(r.usage.internal_space, 0);
    }

    #[test]
    fn randomized_strings_equal_is_half_zero_rtm() {
        let tm = randomized_strings_equal_machine();
        let mut p_yes = 0.0;
        enumerate_runs(&tm, encode("010#010"), 100_000, &mut |r, p| {
            if r.accepted() {
                p_yes += p;
            }
        })
        .unwrap();
        assert!(
            (p_yes - 0.5).abs() < 1e-12,
            "yes-instance accepted w.p. {p_yes}"
        );
        let mut p_no = 0.0;
        enumerate_runs(&tm, encode("010#011"), 100_000, &mut |r, p| {
            if r.accepted() {
                p_no += p;
            }
        })
        .unwrap();
        assert_eq!(p_no, 0.0, "no false positives allowed");
    }

    #[test]
    fn ping_pong_realizes_prescribed_reversals() {
        for cycles in [0u16, 1, 2, 5, 9] {
            let tm = ping_pong_machine(cycles);
            let r = run_deterministic(
                &tm,
                encode("0110"),
                1_000_000,
                &st_trace::Tracer::disabled(),
            )
            .unwrap();
            assert!(r.accepted());
            assert_eq!(
                r.usage.total_reversals(),
                2 * u64::from(cycles),
                "cycles = {cycles}"
            );
        }
    }

    #[test]
    fn guess_bit_probability_is_half() {
        let tm = guess_bit_machine();
        for input in ["0", "1"] {
            let mut p = 0.0;
            enumerate_runs(&tm, encode(input), 100, &mut |r, pr| {
                if r.accepted() {
                    p += pr;
                }
            })
            .unwrap();
            assert!((p - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn diverging_machine_hits_step_limit() {
        let tm = diverging_machine();
        let r = run_deterministic(&tm, encode("0"), 50, &st_trace::Tracer::disabled()).unwrap();
        assert_eq!(r.outcome, crate::run::RunOutcome::StepLimit);
    }
}
