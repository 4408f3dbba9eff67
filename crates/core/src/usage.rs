//! The common resource-usage record and the `(r,s,t)`-boundedness check.
//!
//! Definition 1 of the paper: a machine is `(r,s,t)`-bounded if on inputs
//! of length `N` every run is finite, performs fewer than `r(N)` sequential
//! scans of the external tapes (`1 + Σᵢ rev(ρ,i) ≤ r(N)`), and uses at most
//! `s(N)` cells across the internal-memory tapes. Every substrate in this
//! workspace — the TM simulator, the list machines, the tape algorithms,
//! the query engines — reports a [`ResourceUsage`] after a run, and
//! [`ResourceUsage::check`] verdicts it against a class's bounds.

use crate::bounds::{Bound, TapeCount};
use std::fmt;

/// Resources consumed by one run (or one algorithm execution).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Input size `N` (number of symbols of the input word).
    pub input_len: usize,
    /// Head-direction changes per external tape, `rev(ρ, i)` for
    /// `i = 1..t`. The *scan count* of Definition 1 is
    /// `1 + Σ reversals_per_tape`.
    pub reversals_per_tape: Vec<u64>,
    /// Number of external-memory tapes the machine declares (`t`). May be
    /// larger than `reversals_per_tape.len()` if some tapes were unused.
    pub external_tapes: usize,
    /// High-water mark of total cells used across internal-memory tapes
    /// (`Σ space(ρ, i)` over internal tapes) — the `s` of Definition 1.
    pub internal_space: u64,
    /// Total machine steps (for Lemma 3 experiments). `0` when the
    /// substrate does not count steps (e.g. the algorithm layer).
    pub steps: u64,
    /// Total cells touched on external tapes (for Lemma 3 experiments).
    pub external_cells: u64,
}

impl ResourceUsage {
    /// A fresh, empty record for an input of length `n` on `t` external
    /// tapes.
    #[must_use]
    pub fn new(n: usize, t: usize) -> Self {
        ResourceUsage {
            input_len: n,
            reversals_per_tape: vec![0; t],
            external_tapes: t,
            internal_space: 0,
            steps: 0,
            external_cells: 0,
        }
    }

    /// Total head reversals over all external tapes, `Σᵢ rev(ρ, i)`.
    #[must_use]
    pub fn total_reversals(&self) -> u64 {
        self.reversals_per_tape.iter().sum()
    }

    /// The scan count of Definition 1: `1 + Σᵢ rev(ρ, i)`.
    ///
    /// The paper adds 1 so that `r(N)` bounds the number of *sequential
    /// scans* rather than direction changes.
    #[must_use]
    pub fn scans(&self) -> u64 {
        1 + self.total_reversals()
    }

    /// Merge another usage record into this one (summing reversals
    /// per-tape, steps, and external cells; taking the max of space
    /// high-water marks). Used when an algorithm is composed of phases
    /// measured separately.
    pub fn absorb(&mut self, other: &ResourceUsage) {
        if other.reversals_per_tape.len() > self.reversals_per_tape.len() {
            self.reversals_per_tape
                .resize(other.reversals_per_tape.len(), 0);
        }
        for (a, b) in self
            .reversals_per_tape
            .iter_mut()
            .zip(&other.reversals_per_tape)
        {
            *a += *b;
        }
        self.external_tapes = self.external_tapes.max(other.external_tapes);
        self.internal_space = self.internal_space.max(other.internal_space);
        self.steps += other.steps;
        self.external_cells += other.external_cells;
        if self.input_len == 0 {
            self.input_len = other.input_len;
        }
    }

    /// Check this usage against `(r, s, t)` bounds, producing a
    /// [`BoundCheck`] verdict listing every violation.
    #[must_use]
    pub fn check(&self, r: &Bound, s: &Bound, t: TapeCount) -> BoundCheck {
        let mut violations = Vec::new();
        let r_limit = r.eval(self.input_len);
        let s_limit = s.eval(self.input_len);
        if self.scans() > r_limit {
            violations.push(Violation::Scans {
                limit: r_limit,
                observed: self.scans(),
            });
        }
        if self.internal_space > s_limit {
            violations.push(Violation::InternalSpace {
                limit: s_limit,
                observed: self.internal_space,
            });
        }
        if !t.admits(self.external_tapes) {
            violations.push(Violation::Tapes {
                spec: t,
                observed: self.external_tapes,
            });
        }
        BoundCheck {
            usage: self.clone(),
            violations,
        }
    }
}

impl fmt::Display for ResourceUsage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "N={}, scans={} (reversals {:?}), internal={} cells, t={}, steps={}, ext-cells={}",
            self.input_len,
            self.scans(),
            self.reversals_per_tape,
            self.internal_space,
            self.external_tapes,
            self.steps,
            self.external_cells,
        )
    }
}

/// One violated budget in a bound check.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The scan budget `r(N)` was exceeded.
    Scans {
        /// `r(N)`.
        limit: u64,
        /// Observed `1 + Σ rev`.
        observed: u64,
    },
    /// The internal-memory budget `s(N)` was exceeded.
    InternalSpace {
        /// `s(N)`.
        limit: u64,
        /// Observed high-water mark.
        observed: u64,
    },
    /// Too many external tapes.
    Tapes {
        /// The specification.
        spec: TapeCount,
        /// Observed tape count.
        observed: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Scans { limit, observed } => {
                write!(f, "scan budget exceeded: r(N)={limit}, used {observed}")
            }
            Violation::InternalSpace { limit, observed } => {
                write!(f, "internal memory exceeded: s(N)={limit}, used {observed}")
            }
            Violation::Tapes { spec, observed } => {
                write!(f, "tape budget exceeded: t={spec}, used {observed}")
            }
        }
    }
}

/// The outcome of checking a run against `(r, s, t)` bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundCheck {
    /// The usage record checked.
    pub usage: ResourceUsage,
    /// All violated budgets; empty iff the run was within bounds.
    pub violations: Vec<Violation>,
}

impl BoundCheck {
    /// `true` iff the run respected every budget.
    #[must_use]
    pub fn within_bounds(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(n: usize, revs: &[u64], space: u64) -> ResourceUsage {
        ResourceUsage {
            input_len: n,
            reversals_per_tape: revs.to_vec(),
            external_tapes: revs.len(),
            internal_space: space,
            steps: 0,
            external_cells: 0,
        }
    }

    #[test]
    fn scan_count_adds_one_per_definition_1() {
        let u = usage(100, &[2, 3], 0);
        assert_eq!(u.total_reversals(), 5);
        assert_eq!(u.scans(), 6);
    }

    #[test]
    fn check_passes_within_budget() {
        let u = usage(1024, &[4, 5], 8);
        // r(N) = log N = 10 scans, s(N) = log N = 10 cells, any t.
        let c = u.check(
            &Bound::Log { mul: 1.0, add: 0.0 },
            &Bound::Log { mul: 1.0, add: 0.0 },
            TapeCount::AnyConstant,
        );
        assert!(c.within_bounds(), "violations: {:?}", c.violations);
    }

    #[test]
    fn check_reports_every_violation() {
        let u = usage(1024, &[20, 20], 1000);
        let c = u.check(&Bound::Const(3), &Bound::Const(2), TapeCount::Exactly(1));
        assert_eq!(c.violations.len(), 3);
        assert!(!c.within_bounds());
        let msgs: Vec<String> = c.violations.iter().map(|v| v.to_string()).collect();
        assert!(msgs[0].contains("scan budget"));
        assert!(msgs[1].contains("internal memory"));
        assert!(msgs[2].contains("tape budget"));
    }

    #[test]
    fn absorb_sums_reversals_and_maxes_space() {
        let mut a = usage(100, &[1, 2], 5);
        let b = usage(100, &[3, 4, 5], 3);
        a.absorb(&b);
        assert_eq!(a.reversals_per_tape, vec![4, 6, 5]);
        assert_eq!(a.internal_space, 5);
        assert_eq!(a.external_tapes, 3);
    }

    #[test]
    fn absorb_sums_external_cells_and_steps() {
        // Cells written in phase 1 do not vanish when phase 2 runs:
        // sequential phases must SUM their external footprints, exactly
        // like steps (regression: absorb used to take the max).
        let mut a = usage(100, &[1], 5);
        a.steps = 10;
        a.external_cells = 100;
        let mut b = usage(100, &[1], 3);
        b.steps = 7;
        b.external_cells = 40;
        a.absorb(&b);
        assert_eq!(a.steps, 17);
        assert_eq!(a.external_cells, 140);
    }

    #[test]
    fn display_mentions_scans_and_space() {
        let u = usage(64, &[1], 7);
        let s = u.to_string();
        assert!(s.contains("scans=2"));
        assert!(s.contains("internal=7"));
    }
}
