//! Greedy minimization of disagreeing words.
//!
//! The shrinker only ever commits a candidate that *still disagrees*
//! under the same case seed, so the result is a locally minimal repro:
//! no record pair, trailing bit, set 1-bit (structured words), or
//! character chunk (raw words) can be removed without losing the
//! disagreement. Greedy per-record passes are enough here — instances
//! are small and the deciders cheap — and keep the repro byte-stable
//! across runs, which the corpus format depends on.

use crate::oracle::{compare, Agreement, Oracle};
use st_bench::runner::hush_panics;
use st_problems::{BitStr, Instance};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Does `word` still disagree (or panic a decider) under `seed`?
#[must_use]
pub fn still_disagrees(oracle: &Oracle, word: &str, seed: u64) -> bool {
    let _quiet = hush_panics();
    match catch_unwind(AssertUnwindSafe(|| compare(oracle, word, seed))) {
        Ok(c) => matches!(c.agreement, Agreement::Disagree { .. }),
        // A panicking decider counts as a disagreement — shrink toward
        // the smallest word that still triggers it.
        Err(_) => true,
    }
}

/// Minimize `word` while it keeps disagreeing under `seed`. Words that
/// parse as an [`Instance`] shrink structurally (drop pairs, truncate
/// records, zero bits); anything else shrinks by greedy chunk removal.
#[must_use]
pub fn shrink_word(oracle: &Oracle, word: &str, seed: u64) -> String {
    if !still_disagrees(oracle, word, seed) {
        // Flaky under re-execution (e.g. a panic that depended on
        // ambient state): report the original word untouched.
        return word.to_string();
    }
    match Instance::parse(word) {
        Ok(inst) => shrink_instance(oracle, &inst, seed),
        Err(_) => shrink_text(oracle, word, seed),
    }
}

fn encode(xs: &[BitStr], ys: &[BitStr]) -> Option<String> {
    Instance::new(xs.to_vec(), ys.to_vec())
        .ok()
        .map(|i| i.encode())
}

fn try_commit(
    oracle: &Oracle,
    seed: u64,
    xs: &mut Vec<BitStr>,
    ys: &mut Vec<BitStr>,
    cand_xs: Vec<BitStr>,
    cand_ys: Vec<BitStr>,
) -> bool {
    let Some(word) = encode(&cand_xs, &cand_ys) else {
        return false;
    };
    if still_disagrees(oracle, &word, seed) {
        *xs = cand_xs;
        *ys = cand_ys;
        true
    } else {
        false
    }
}

fn shrink_instance(oracle: &Oracle, inst: &Instance, seed: u64) -> String {
    let mut xs = inst.xs.clone();
    let mut ys = inst.ys.clone();
    loop {
        let mut changed = false;
        // Pass 1: drop one record from each list, at *any* alignment —
        // when the second list is a permutation of the first, matching
        // records rarely share an index, and dropping only positional
        // pairs gets stuck at a local minimum.
        'drop_pairs: loop {
            let m = xs.len();
            for i in (0..m).rev() {
                for j in (0..m).rev() {
                    let mut cx = xs.clone();
                    let mut cy = ys.clone();
                    cx.remove(i);
                    cy.remove(j);
                    if try_commit(oracle, seed, &mut xs, &mut ys, cx, cy) {
                        changed = true;
                        continue 'drop_pairs;
                    }
                }
            }
            break;
        }
        // Pass 2: truncate trailing bits off individual records.
        for side in 0..2 {
            let len = if side == 0 { xs.len() } else { ys.len() };
            for i in 0..len {
                loop {
                    let rec = if side == 0 { &xs[i] } else { &ys[i] };
                    if rec.is_empty() {
                        break;
                    }
                    let shorter = rec.slice(0, rec.len() - 1);
                    let mut cx = xs.clone();
                    let mut cy = ys.clone();
                    if side == 0 {
                        cx[i] = shorter;
                    } else {
                        cy[i] = shorter;
                    }
                    if !try_commit(oracle, seed, &mut xs, &mut ys, cx, cy) {
                        break;
                    }
                    changed = true;
                }
            }
        }
        // Pass 3: clear set bits (drives record values toward 0…0).
        for side in 0..2 {
            let len = if side == 0 { xs.len() } else { ys.len() };
            for i in 0..len {
                let nbits = if side == 0 { xs[i].len() } else { ys[i].len() };
                for b in 0..nbits {
                    let rec = if side == 0 { &xs[i] } else { &ys[i] };
                    if rec.bit(b) == 0 {
                        continue;
                    }
                    let mut cx = xs.clone();
                    let mut cy = ys.clone();
                    if side == 0 {
                        cx[i].flip_bit(b);
                    } else {
                        cy[i].flip_bit(b);
                    }
                    changed |= try_commit(oracle, seed, &mut xs, &mut ys, cx, cy);
                }
            }
        }
        if !changed {
            break;
        }
    }
    encode(&xs, &ys).unwrap_or_else(|| inst.encode())
}

/// ddmin-style chunk removal for words with no instance structure.
fn shrink_text(oracle: &Oracle, word: &str, seed: u64) -> String {
    let mut chars: Vec<char> = word.chars().collect();
    let mut chunk = chars.len().div_ceil(2).max(1);
    while chunk >= 1 {
        let mut start = 0;
        let mut removed_any = false;
        while start < chars.len() {
            let end = (start + chunk).min(chars.len());
            let candidate: String = chars[..start].iter().chain(&chars[end..]).collect();
            if still_disagrees(oracle, &candidate, seed) {
                chars = candidate.chars().collect();
                removed_any = true;
                // Re-test the same start: the next chunk slid into place.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !removed_any {
            break;
        }
        chunk = if removed_any { chunk } else { chunk / 2 }.max(1);
    }
    chars.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{predicate_multiset, sort_multiset, ErrorModel};
    use st_core::StError;
    use st_trace::Tracer;

    /// Off-by-one sort decider: never compares the smallest record pair.
    fn broken_sort(word: &str, _seed: u64, _: &Tracer) -> Result<Option<bool>, StError> {
        let Ok(inst) = Instance::parse(word) else {
            return Ok(None);
        };
        let mut xs = inst.xs.clone();
        let mut ys = inst.ys.clone();
        xs.sort();
        ys.sort();
        Ok(Some(xs.iter().skip(1).eq(ys.iter().skip(1))))
    }

    fn broken_oracle() -> Oracle {
        Oracle {
            id: "scratch-broken-sort",
            title: "deliberately planted off-by-one",
            guards: "none — shrinker self-test",
            left: "broken_sort",
            right: "predicates::is_multiset_equal",
            model: ErrorModel::Exact,
            left_run: broken_sort,
            right_run: predicate_multiset,
        }
    }

    #[test]
    fn shrinks_a_structured_disagreement_to_a_minimal_pair() {
        let oracle = broken_oracle();
        // A fat disagreeing instance: only the smallest pair differs.
        let word = "0#110#101#1#110#101#";
        assert!(still_disagrees(&oracle, word, 7));
        let shrunk = shrink_word(&oracle, word, 7);
        assert!(still_disagrees(&oracle, &shrunk, 7));
        let inst = Instance::parse(&shrunk).unwrap();
        assert_eq!(inst.m(), 1, "irrelevant pairs survived: {shrunk:?}");
        let bits = inst.xs[0].len() + inst.ys[0].len();
        assert!(bits <= 1, "bits survived shrinking: {shrunk:?}");
    }

    #[test]
    fn shrinking_never_loses_the_disagreement_mid_way() {
        let oracle = broken_oracle();
        for seed in 0..5u64 {
            let word = crate::generator::generate_word(
                crate::generator::Generator::NoMultisetOneBit,
                seed,
                3,
            );
            if still_disagrees(&oracle, &word, seed) {
                let shrunk = shrink_word(&oracle, &word, seed);
                assert!(still_disagrees(&oracle, &shrunk, seed));
                assert!(shrunk.len() <= word.len());
            }
        }
    }

    #[test]
    fn text_shrinking_minimizes_raw_words() {
        // Against a decider that disagrees whenever the word contains a
        // 'λ', the minimal repro is exactly "λ".
        fn hates_lambda(word: &str, _seed: u64, _: &Tracer) -> Result<Option<bool>, StError> {
            Ok(Some(!word.contains('λ')))
        }
        fn yes(_w: &str, _s: u64, _: &Tracer) -> Result<Option<bool>, StError> {
            Ok(Some(true))
        }
        let oracle = Oracle {
            id: "scratch-lambda",
            title: "text shrink probe",
            guards: "none",
            left: "hates_lambda",
            right: "const true",
            model: ErrorModel::Exact,
            left_run: hates_lambda,
            right_run: yes,
        };
        let shrunk = shrink_word(&oracle, "ab λ 01## (r:sλx)", 0);
        assert_eq!(shrunk, "λ");
    }

    #[test]
    fn agreeing_words_are_returned_untouched() {
        let oracle = Oracle {
            id: "scratch-agree",
            title: "no-op",
            guards: "none",
            left: "sort",
            right: "pred",
            model: ErrorModel::Exact,
            left_run: sort_multiset,
            right_run: predicate_multiset,
        };
        assert_eq!(shrink_word(&oracle, "01#10#10#01#", 3), "01#10#10#01#");
    }
}
