//! Index strings, skeletons (Definition 28), and compared positions
//! (Definition 33).
//!
//! The **skeleton** of a run abstracts values away: every input token is
//! replaced by its input *position*, every nondeterministic choice by a
//! wildcard. Given the skeleton, the concrete input values and the choice
//! sequence, the run can be reconstructed (Remark 29) — so the number of
//! distinct skeletons bounds how much a machine's control flow can depend
//! on the data, which is the engine of the Lemma 21 counting argument.
//!
//! Two input positions are **compared** in a run if they ever occur
//! together in a recorded local view (Definition 33). Lemma 38 (via the
//! Merge Lemma) bounds how many pairs `(i, m+φ(i))` can be compared by
//! `t^{2r}·sortedness(φ)`.

use crate::run::{LmRun, LocalView};
use crate::{LmState, Tok};
use std::collections::BTreeSet;

/// A skeleton token: an input token with its value erased to its
/// position, a wildcarded choice, or a verbatim alphabet symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SkelTok {
    /// `ind(vᵢ) = i` — an input position.
    Ind(usize),
    /// A wildcarded nondeterministic choice (`?`).
    Wild,
    /// A machine state occurring inside a cell string.
    State(LmState),
    /// `⟨`.
    Open,
    /// `⟩`.
    Close,
}

/// `ind(·)` on one token.
#[must_use]
pub fn ind_tok(t: &Tok) -> SkelTok {
    match *t {
        Tok::Input { pos, .. } => SkelTok::Ind(pos),
        Tok::Choice(_) => SkelTok::Wild,
        Tok::State(a) => SkelTok::State(a),
        Tok::Open => SkelTok::Open,
        Tok::Close => SkelTok::Close,
    }
}

/// `ind(·)` on a cell string.
#[must_use]
pub fn ind_string(toks: &[Tok]) -> Vec<SkelTok> {
    toks.iter().map(ind_tok).collect()
}

/// The skeleton of a local view: `skel(lv(γ)) = (a, d, ind(y))`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SkelView {
    /// State.
    pub state: LmState,
    /// Head directions.
    pub dirs: Vec<i8>,
    /// Index strings of the head cells.
    pub cells: Vec<Vec<SkelTok>>,
}

/// `skel(lv(γ))`.
#[must_use]
pub fn skel_view(view: &LocalView) -> SkelView {
    SkelView {
        state: view.state,
        dirs: view.dirs.clone(),
        cells: view.head_cells.iter().map(|c| ind_string(c)).collect(),
    }
}

/// The skeleton of a run (Definition 28(d)): the first view's skeleton,
/// then — for each step — either the successor view's skeleton (if some
/// head moved) or a wildcard, together with `moves(ρ)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Skeleton {
    /// `s₁, …, s_ℓ`: `None` encodes the `?` entries.
    pub entries: Vec<Option<SkelView>>,
    /// `moves(ρ)`.
    pub moves: Vec<Vec<i8>>,
}

/// Extract the skeleton of a recorded run.
#[must_use]
pub fn skeleton_of(run: &LmRun) -> Skeleton {
    let mut entries = Vec::with_capacity(run.views.len());
    entries.push(Some(skel_view(&run.views[0])));
    for (i, mv) in run.moves.iter().enumerate() {
        if mv.iter().any(|&x| x != 0) {
            entries.push(Some(skel_view(&run.views[i + 1])));
        } else {
            entries.push(None);
        }
    }
    Skeleton {
        entries,
        moves: run.moves.clone(),
    }
}

/// Input positions occurring in a view's index strings.
#[must_use]
pub fn positions_in_view(view: &SkelView) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    for cell in &view.cells {
        for t in cell {
            if let SkelTok::Ind(p) = t {
                out.insert(*p);
            }
        }
    }
    out
}

/// All pairs `(i, i′)` with `i < i′` compared in the skeleton
/// (Definition 33: both occur in some recorded `s_j`).
#[must_use]
pub fn compared_pairs(skel: &Skeleton) -> BTreeSet<(usize, usize)> {
    let mut out = BTreeSet::new();
    for entry in skel.entries.iter().flatten() {
        let ps: Vec<usize> = positions_in_view(entry).into_iter().collect();
        for (a, &i) in ps.iter().enumerate() {
            for &j in &ps[a + 1..] {
                out.insert((i, j));
            }
        }
    }
    out
}

/// Remark 29, operationally: the skeleton plus the concrete input values
/// plus the choices determine the entire run. [`substitute_values`]
/// rewrites a recorded local view's input tokens with another input's
/// values; if two runs share a skeleton and a choice sequence, then
/// substituting run A's views with run B's input values must reproduce
/// run B's views **exactly** — verified by the tests and used implicitly
/// by the Lemma 34 splice.
#[must_use]
pub fn substitute_values(view: &LocalView, values: &[crate::Val]) -> LocalView {
    LocalView {
        state: view.state,
        dirs: view.dirs.clone(),
        head_cells: view
            .head_cells
            .iter()
            .map(|cell| {
                cell.iter()
                    .map(|t| match *t {
                        Tok::Input { pos, .. } => Tok::Input {
                            pos,
                            val: values[pos],
                        },
                        other => other,
                    })
                    .collect()
            })
            .collect(),
    }
}

/// The Lemma 38 quantity: how many indices `i ∈ {0,…,m−1}` have the pair
/// `(i, m+φ(i))` compared in the skeleton.
#[must_use]
pub fn phi_pairs_compared(skel: &Skeleton, phi: &[usize]) -> usize {
    let m = phi.len();
    let pairs = compared_pairs(skel);
    (0..m).filter(|&i| pairs.contains(&(i, m + phi[i]))).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use crate::run::run_with_choices;

    #[test]
    fn ind_erases_values_but_keeps_positions() {
        let toks = vec![
            Tok::Open,
            Tok::Input { pos: 3, val: 99 },
            Tok::Close,
            Tok::Choice(1),
            Tok::State(7),
        ];
        assert_eq!(
            ind_string(&toks),
            vec![
                SkelTok::Open,
                SkelTok::Ind(3),
                SkelTok::Close,
                SkelTok::Wild,
                SkelTok::State(7)
            ]
        );
    }

    #[test]
    fn skeleton_is_input_value_independent() {
        // Remark 29's flip side: two inputs inducing the same control flow
        // yield the same skeleton even with different values.
        let nlm = library::sweep_right_machine(2, 4);
        let r1 = run_with_choices(
            &nlm,
            &[1, 2, 3, 4],
            &[0; 64],
            64,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        let r2 = run_with_choices(
            &nlm,
            &[9, 8, 7, 6],
            &[0; 64],
            64,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(skeleton_of(&r1), skeleton_of(&r2));
    }

    #[test]
    fn skeleton_distinguishes_different_control_flow() {
        let a = library::sweep_right_machine(1, 3);
        let b = library::zigzag_machine(1, 3, 1);
        let ra = run_with_choices(
            &a,
            &[1, 2, 3],
            &[0; 256],
            256,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        let rb = run_with_choices(
            &b,
            &[1, 2, 3],
            &[0; 256],
            256,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        assert_ne!(skeleton_of(&ra), skeleton_of(&rb));
    }

    #[test]
    fn stationary_steps_are_wildcards() {
        let nlm = library::countdown_machine(3);
        let run =
            run_with_choices(&nlm, &[1], &[0; 16], 16, &st_trace::Tracer::disabled()).unwrap();
        let skel = skeleton_of(&run);
        assert!(skel.entries[0].is_some(), "s₁ is always recorded");
        assert!(skel.entries[1..].iter().all(Option::is_none));
    }

    #[test]
    fn compared_pairs_on_the_matcher() {
        // The one-scan matcher's backward sweep aligns x-position i with
        // y-position 2m−i (for i ≥ 1) and x₀ with the last y cell: the
        // measured comparison structure of its single reversal.
        let m = 4;
        let phi: Vec<usize> = (0..m).collect();
        let nlm = library::one_scan_matcher(m, phi);
        // A yes-instance so the run completes (identity φ: xs = ys).
        let xs: Vec<u64> = (0..m as u64).map(|i| 100 + i).collect();
        let input: Vec<u64> = xs.iter().chain(xs.iter()).copied().collect();
        let run = run_with_choices(
            &nlm,
            &input,
            &[0; 1024],
            1024,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        assert!(run.accepted());
        let pairs = compared_pairs(&skeleton_of(&run));
        let expect: std::collections::BTreeSet<(usize, usize)> = (1..m)
            .map(|i| (i, 2 * m - i))
            .chain(std::iter::once((0, 2 * m - 1)))
            .collect();
        assert_eq!(pairs, expect);
    }

    #[test]
    fn phi_pairs_compared_counts_only_matching_pairs() {
        // With φ = i ↦ m−i (mod m), the matcher's natural alignment hits
        // φ on almost all indices; with φ = identity it hits at most one.
        let m = 8usize;
        let reversal: Vec<usize> = (0..m).map(|i| (m - i) % m).collect();
        let identity: Vec<usize> = (0..m).collect();

        let nlm_rev = library::one_scan_matcher(m, reversal.clone());
        let ys: Vec<u64> = (0..m as u64).map(|j| 50 + j).collect();
        let xs: Vec<u64> = (0..m).map(|i| ys[reversal[i]]).collect();
        let input: Vec<u64> = xs.into_iter().chain(ys).collect();
        let run = run_with_choices(
            &nlm_rev,
            &input,
            &[0; 4096],
            4096,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        assert!(run.accepted());
        let hits_rev = phi_pairs_compared(&skeleton_of(&run), &reversal);

        let nlm_id = library::one_scan_matcher(m, identity.clone());
        let xs: Vec<u64> = (0..m as u64).map(|i| 100 + i).collect();
        let input: Vec<u64> = xs.iter().chain(xs.iter()).copied().collect();
        let run = run_with_choices(
            &nlm_id,
            &input,
            &[0; 4096],
            4096,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        assert!(run.accepted());
        let hits_id = phi_pairs_compared(&skeleton_of(&run), &identity);

        assert!(
            hits_rev >= m - 1,
            "reversal alignment should hit ~all pairs, got {hits_rev}"
        );
        assert!(
            hits_id <= 1,
            "identity alignment should hit ≤1 pair, got {hits_id}"
        );
    }

    #[test]
    fn remark29_runs_are_determined_by_skeleton_values_and_choices() {
        // Two yes-instances of the matcher share control flow (same
        // skeleton, same — trivial — choices); substituting values in one
        // run's views must reproduce the other run's views exactly.
        let m = 6usize;
        let phi: Vec<usize> = (0..m).collect();
        let nlm = library::one_scan_matcher(m, phi);
        let xs1: Vec<u64> = (0..m as u64).map(|i| 100 + i).collect();
        let xs2: Vec<u64> = (0..m as u64).map(|i| 900 + 7 * i).collect();
        let in1: Vec<u64> = xs1.iter().chain(xs1.iter()).copied().collect();
        let in2: Vec<u64> = xs2.iter().chain(xs2.iter()).copied().collect();
        let r1 =
            run_with_choices(&nlm, &in1, &[0; 4096], 4096, &st_trace::Tracer::disabled()).unwrap();
        let r2 =
            run_with_choices(&nlm, &in2, &[0; 4096], 4096, &st_trace::Tracer::disabled()).unwrap();
        assert_eq!(skeleton_of(&r1), skeleton_of(&r2), "shared control flow");
        assert_eq!(r1.views.len(), r2.views.len());
        for (v1, v2) in r1.views.iter().zip(&r2.views) {
            assert_eq!(&super::substitute_values(v1, &in2), v2);
        }
    }

    #[test]
    fn lemma38_bound_holds_on_script_machines() {
        use st_problems::perm::{phi as phi_m, sortedness};
        let m = 16usize;
        let phi = phi_m(m);
        let nlm = library::one_scan_matcher(m, phi.clone());
        let input: Vec<u64> = (0..2 * m as u64).collect();
        let run = run_with_choices(
            &nlm,
            &input,
            &[0; 8192],
            8192,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        let t = 2u64;
        let r = run.scans() as u32; // r ≥ 1 + reversals, generous
        let hits = phi_pairs_compared(&skeleton_of(&run), &phi) as f64;
        let bound = (t as f64).powi(2 * r as i32) * sortedness(&phi) as f64;
        assert!(hits <= bound, "Lemma 38 violated: {hits} > {bound}");
    }
}
