//! The complexity classes of Definitions 2 and 4 as checkable values.
//!
//! A [`ClassSpec`] bundles a [`MachineMode`] (deterministic, randomized
//! with one-sided error, nondeterministic, Las Vegas) with `(r, s, t)`
//! bounds. It can render itself in the paper's notation
//! (`RST(o(log N), O(⁴√N/log N), O(1))`-style) and check whether a
//! recorded run — resource usage plus acceptance-probability evidence —
//! witnesses membership of a problem instance family in the class.

use crate::bounds::{Bound, TapeCount};
use crate::usage::{BoundCheck, ResourceUsage};
use std::fmt;

/// Which side of a randomized machine's answers may err (Definition 4 and
/// the discussion of `co-RST`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorSide {
    /// `(½,0)`-RTM: no false positives; yes-instances accepted with
    /// probability ≥ ½. This is the `RST` error model.
    NoFalsePositives,
    /// The complementary model of `co-RST`: no false negatives;
    /// no-instances rejected with probability ≥ ½.
    NoFalseNegatives,
}

impl ErrorSide {
    /// Given exact acceptance probabilities on a yes- and a no-instance,
    /// does this error model hold?
    #[must_use]
    pub fn admits(&self, p_accept_yes: f64, p_accept_no: f64) -> bool {
        match self {
            ErrorSide::NoFalsePositives => p_accept_yes >= 0.5 && p_accept_no == 0.0,
            ErrorSide::NoFalseNegatives => p_accept_yes == 1.0 && p_accept_no <= 0.5,
        }
    }
}

/// The machine model underlying a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineMode {
    /// Deterministic — the `ST(·,·,·)` classes.
    Deterministic,
    /// Randomized with one-sided error — `RST` / `co-RST` depending on the
    /// [`ErrorSide`].
    Randomized(ErrorSide),
    /// Nondeterministic — the `NST(·,·,·)` classes.
    Nondeterministic,
    /// Las Vegas function computation — `LasVegas-RST`: always either the
    /// correct output or "I don't know", the latter with probability ≤ ½.
    LasVegas,
}

impl fmt::Display for MachineMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineMode::Deterministic => write!(f, "ST"),
            MachineMode::Randomized(ErrorSide::NoFalsePositives) => write!(f, "RST"),
            MachineMode::Randomized(ErrorSide::NoFalseNegatives) => write!(f, "co-RST"),
            MachineMode::Nondeterministic => write!(f, "NST"),
            MachineMode::LasVegas => write!(f, "LasVegas-RST"),
        }
    }
}

/// A fully specified complexity class, e.g. `RST(2, O(log N), 1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// Machine model.
    pub mode: MachineMode,
    /// Scan budget `r(N)`.
    pub r: Bound,
    /// Internal-memory budget `s(N)`.
    pub s: Bound,
    /// External tape budget `t`.
    pub t: TapeCount,
}

impl ClassSpec {
    /// `ST(r, s, t)`.
    #[must_use]
    pub fn st(r: Bound, s: Bound, t: TapeCount) -> Self {
        ClassSpec {
            mode: MachineMode::Deterministic,
            r,
            s,
            t,
        }
    }

    /// `RST(r, s, t)` — no false positives.
    #[must_use]
    pub fn rst(r: Bound, s: Bound, t: TapeCount) -> Self {
        ClassSpec {
            mode: MachineMode::Randomized(ErrorSide::NoFalsePositives),
            r,
            s,
            t,
        }
    }

    /// `co-RST(r, s, t)` — no false negatives.
    #[must_use]
    pub fn co_rst(r: Bound, s: Bound, t: TapeCount) -> Self {
        ClassSpec {
            mode: MachineMode::Randomized(ErrorSide::NoFalseNegatives),
            r,
            s,
            t,
        }
    }

    /// `NST(r, s, t)`.
    #[must_use]
    pub fn nst(r: Bound, s: Bound, t: TapeCount) -> Self {
        ClassSpec {
            mode: MachineMode::Nondeterministic,
            r,
            s,
            t,
        }
    }

    /// `LasVegas-RST(r, s, t)`.
    #[must_use]
    pub fn las_vegas_rst(r: Bound, s: Bound, t: TapeCount) -> Self {
        ClassSpec {
            mode: MachineMode::LasVegas,
            r,
            s,
            t,
        }
    }

    /// The class of Theorem 8(a): `co-RST(2, O(log N), 1)`.
    #[must_use]
    pub fn theorem8a() -> Self {
        // The multiplier absorbs the constant number of O(log k) registers
        // (k = m³·n·loġ(m³n) is polynomial in N, so log k = O(log N)).
        ClassSpec::co_rst(
            Bound::Const(2),
            Bound::Log {
                mul: 64.0,
                add: 64.0,
            },
            TapeCount::Exactly(1),
        )
    }

    /// The class of Theorem 8(b): `NST(3, O(log N), 2)`.
    #[must_use]
    pub fn theorem8b() -> Self {
        ClassSpec::nst(
            Bound::Const(3),
            Bound::Log {
                mul: 64.0,
                add: 64.0,
            },
            TapeCount::Exactly(2),
        )
    }

    /// The upper-bound class of Corollary 7: `ST(O(log N), O(1), 2)`.
    ///
    /// The multiplier on `log N` absorbs the constant of the Chen–Yap merge
    /// sort (`≈ 8` scans per doubling pass in our 2-tape implementation).
    #[must_use]
    pub fn corollary7_upper() -> Self {
        ClassSpec::st(
            Bound::Log {
                mul: 16.0,
                add: 32.0,
            },
            Bound::Const(64),
            TapeCount::Exactly(2),
        )
    }

    /// The excluded class of Theorem 6:
    /// `RST(o(log N), O(⁴√N / log N), O(1))`, instantiated with an `r` that
    /// is genuinely sub-logarithmic (a constant) for concrete checking.
    #[must_use]
    pub fn theorem6_excluded(r_const: u64) -> Self {
        ClassSpec::rst(
            Bound::Const(r_const),
            Bound::FourthRootOverLog { mul: 1.0 },
            TapeCount::AnyConstant,
        )
    }

    /// Check a run's resource usage against this class's `(r,s,t)` bounds.
    #[must_use]
    pub fn check_usage(&self, usage: &ResourceUsage) -> BoundCheck {
        usage.check(&self.r, &self.s, self.t)
    }

    /// Does the hypothesis of Theorem 6 hold for this class's bounds —
    /// `r ∈ o(log N)` and `s ∈ o(⁴√N / r)` (equivalently
    /// `r·s ∈ o(⁴√N)`)? If so, SET-EQUALITY, MULTISET-EQUALITY and
    /// CHECK-SORT are *not* in the class.
    #[must_use]
    pub fn theorem6_applies(&self) -> bool {
        self.r.is_sub_logarithmic() && self.r.product_is_sub_fourth_root(&self.s)
    }
}

impl fmt::Display for ClassSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}, {}, {})", self.mode, self.r, self.s, self.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_notation() {
        let c = ClassSpec::theorem8a();
        assert!(c.to_string().starts_with("co-RST(2, "));
        let c = ClassSpec::theorem8b();
        assert!(c.to_string().starts_with("NST(3, "));
        let c = ClassSpec::st(Bound::ONE, Bound::ONE, TapeCount::Exactly(2));
        assert_eq!(c.to_string(), "ST(O(1), O(1), 2)");
    }

    #[test]
    fn error_side_semantics() {
        // RST: no false positives.
        let rst = ErrorSide::NoFalsePositives;
        assert!(rst.admits(0.5, 0.0));
        assert!(rst.admits(1.0, 0.0));
        assert!(
            !rst.admits(0.4, 0.0),
            "yes-instances must be accepted w.p. >= 1/2"
        );
        assert!(!rst.admits(1.0, 0.01), "no false positives allowed");
        // co-RST: no false negatives.
        let co = ErrorSide::NoFalseNegatives;
        assert!(co.admits(1.0, 0.5));
        assert!(co.admits(1.0, 0.0));
        assert!(
            !co.admits(0.99, 0.0),
            "yes-instances must always be accepted"
        );
        assert!(
            !co.admits(1.0, 0.6),
            "no-instances must be rejected w.p. >= 1/2"
        );
    }

    #[test]
    fn theorem6_hypothesis_on_classes() {
        assert!(ClassSpec::theorem6_excluded(4).theorem6_applies());
        // The Corollary 7 upper-bound class does NOT satisfy the Theorem 6
        // hypothesis (r = Θ(log N)) — that is exactly the tightness.
        assert!(!ClassSpec::corollary7_upper().theorem6_applies());
        // Theorem 8(a)'s class has r = 2 and s = O(log N): hypothesis holds
        // as far as (r, s) go — the separation is in the error side.
        assert!(ClassSpec::theorem8a().r.is_sub_logarithmic());
    }

    #[test]
    fn check_usage_delegates_to_bounds() {
        let c = ClassSpec::theorem8a();
        let mut u = ResourceUsage::new(1 << 16, 1);
        u.reversals_per_tape = vec![1]; // 2 scans
        u.internal_space = 40;
        assert!(c.check_usage(&u).within_bounds());
        u.reversals_per_tape = vec![5]; // 6 scans > 2
        assert!(!c.check_usage(&u).within_bounds());
    }
}
