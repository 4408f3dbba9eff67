//! Resource-bound functions `r(N)` and `s(N)` of Definition 1.
//!
//! The paper's classes are parameterized by functions `r, s : N → N` (the
//! scan budget and the internal-memory budget) and a tape count `t`. A
//! [`Bound`] is a symbolic representation of such a function: it can be
//! *evaluated* at a concrete input size `N`, *displayed* in the paper's
//! notation, and *classified* asymptotically (is it `o(log N)`? is
//! `r·s ∈ o(N^{1/4})`? — the hypotheses of Theorem 6).

use std::fmt;

/// A symbolic resource-bound function of the input size `N`.
///
/// All variants evaluate to a nonnegative number of "units" (head
/// reversals, tape cells). Evaluation uses `f64` internally — budgets in
/// the paper are tiny compared to `f64`'s integer range — and rounds *up*
/// (a machine is allowed `⌈bound(N)⌉` units, matching the paper's
/// convention that `O(·)` absorbs constant slack).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The constant function `N ↦ c`. Written `O(1)` when displayed with
    /// `c = 1`, else `c`.
    Const(u64),
    /// `N ↦ a·log₂ N + b`. The paper's `O(log N)`.
    Log {
        /// Multiplier `a`.
        mul: f64,
        /// Additive term `b`.
        add: f64,
    },
    /// `N ↦ a·(log₂ N)²`. Used by ablation experiments.
    LogSquared {
        /// Multiplier `a`.
        mul: f64,
    },
    /// `N ↦ a·N^{1/4} / log₂ N`. The paper's internal-memory ceiling
    /// `O(⁴√N / log N)` in Theorem 6.
    FourthRootOverLog {
        /// Multiplier `a`.
        mul: f64,
    },
    /// `N ↦ a·N^{1/5} / log₂ N` — the weaker ceiling of the earlier
    /// PODS'05 sorting bound, kept for the Corollary 10 comparison.
    FifthRootOverLog {
        /// Multiplier `a`.
        mul: f64,
    },
    /// `N ↦ a·√N`.
    Sqrt {
        /// Multiplier `a`.
        mul: f64,
    },
    /// `N ↦ a·N`. Unbounded-for-our-purposes; used for baselines that keep
    /// everything in internal memory.
    Linear {
        /// Multiplier `a`.
        mul: f64,
    },
}

impl Bound {
    /// The paper's `O(1)`.
    pub const ONE: Bound = Bound::Const(1);

    /// Evaluate the bound at input size `N`, rounding up, never below 1
    /// (every machine gets at least one scan / one cell).
    ///
    /// `log₂` terms treat `N < 2` as `N = 2` so tiny inputs do not produce
    /// zero or negative budgets.
    #[must_use]
    pub fn eval(&self, n: usize) -> u64 {
        let nf = n.max(2) as f64;
        let lg = nf.log2();
        let raw = match *self {
            Bound::Const(c) => c as f64,
            Bound::Log { mul, add } => mul * lg + add,
            Bound::LogSquared { mul } => mul * lg * lg,
            Bound::FourthRootOverLog { mul } => mul * nf.powf(0.25) / lg,
            Bound::FifthRootOverLog { mul } => mul * nf.powf(0.2) / lg,
            Bound::Sqrt { mul } => mul * nf.sqrt(),
            Bound::Linear { mul } => mul * nf,
        };
        if raw.is_nan() || raw < 1.0 {
            1.0 as u64
        } else {
            raw.ceil() as u64
        }
    }

    /// Is this bound `o(log N)` (strictly sub-logarithmic)?
    ///
    /// This is the hypothesis on `r` in Theorem 6. Constants are `o(log N)`;
    /// logarithmic and larger bounds are not.
    #[must_use]
    pub fn is_sub_logarithmic(&self) -> bool {
        matches!(self, Bound::Const(_))
    }

    /// Is the product of this bound (as `r`) and `other` (as `s`) in
    /// `o(N^{1/4})`? This is the combined hypothesis of Theorem 6 as used
    /// in the proof of Lemma 22 (Equation (4): `r·s = o(⁴√N)`).
    #[must_use]
    pub fn product_is_sub_fourth_root(&self, other: &Bound) -> bool {
        use Bound::*;
        let degree = |b: &Bound| -> f64 {
            // polynomial degree in N, with log factors counted as 0+ε = 0.
            match b {
                Const(_) | Log { .. } | LogSquared { .. } => 0.0,
                FourthRootOverLog { .. } => 0.25,
                FifthRootOverLog { .. } => 0.2,
                Sqrt { .. } => 0.5,
                Linear { .. } => 1.0,
            }
        };
        let d = degree(self) + degree(other);
        if d < 0.25 {
            return true;
        }
        if d > 0.25 {
            return false;
        }
        // Degree exactly 1/4: sub-fourth-root iff at least one 1/log factor
        // survives, i.e. the pair is (Const or Log, FourthRootOverLog) in
        // some order. Log·(N^{1/4}/log N) = N^{1/4} which is NOT o(N^{1/4}).
        matches!(
            (self, other),
            (Const(_), FourthRootOverLog { .. }) | (FourthRootOverLog { .. }, Const(_))
        )
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Bound::Const(1) => write!(f, "O(1)"),
            Bound::Const(c) => write!(f, "{c}"),
            Bound::Log { mul, add: 0.0 } => write!(f, "{mul}·log N"),
            Bound::Log { mul, add } => write!(f, "{mul}·log N + {add}"),
            Bound::LogSquared { mul } => write!(f, "{mul}·log² N"),
            Bound::FourthRootOverLog { mul } => write!(f, "{mul}·N^(1/4)/log N"),
            Bound::FifthRootOverLog { mul } => write!(f, "{mul}·N^(1/5)/log N"),
            Bound::Sqrt { mul } => write!(f, "{mul}·√N"),
            Bound::Linear { mul } => write!(f, "{mul}·N"),
        }
    }
}

/// The number `t` of external-memory tapes in a class specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapeCount {
    /// Exactly `t` external tapes, as in `ST(r, s, t)`.
    Exactly(usize),
    /// Any constant number of tapes, the paper's `ST(r, s, O(1))`.
    AnyConstant,
}

impl TapeCount {
    /// Does a machine with `t` external tapes fit this specification?
    #[must_use]
    pub fn admits(&self, t: usize) -> bool {
        match *self {
            TapeCount::Exactly(k) => t <= k,
            TapeCount::AnyConstant => true,
        }
    }
}

impl fmt::Display for TapeCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TapeCount::Exactly(k) => write!(f, "{k}"),
            TapeCount::AnyConstant => write!(f, "O(1)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_bound_evaluates_flat() {
        let b = Bound::Const(3);
        assert_eq!(b.eval(2), 3);
        assert_eq!(b.eval(1 << 20), 3);
    }

    #[test]
    fn log_bound_grows_logarithmically() {
        let b = Bound::Log { mul: 1.0, add: 0.0 };
        assert_eq!(b.eval(1024), 10);
        assert_eq!(b.eval(1 << 20), 20);
        // Doubling N adds exactly mul to the (pre-ceil) value.
        assert!(b.eval(1 << 21) - b.eval(1 << 20) <= 1);
    }

    #[test]
    fn eval_never_returns_zero() {
        for b in [
            Bound::Const(0),
            Bound::Log { mul: 0.1, add: 0.0 },
            Bound::FourthRootOverLog { mul: 0.01 },
        ] {
            assert!(b.eval(2) >= 1, "{b} evaluated to zero at N=2");
        }
    }

    #[test]
    fn fourth_root_over_log_shape() {
        let b = Bound::FourthRootOverLog { mul: 1.0 };
        // N = 2^20: N^{1/4} = 32, log N = 20 → 1.6 → ceil 2.
        assert_eq!(b.eval(1 << 20), 2);
        // N = 2^40: N^{1/4} = 1024, log N = 40 → 25.6 → 26.
        assert_eq!(b.eval(1usize << 40), 26);
    }

    #[test]
    fn theorem6_hypothesis_classifier() {
        let r_const = Bound::Const(5);
        let r_log = Bound::Log { mul: 1.0, add: 0.0 };
        let s_ceiling = Bound::FourthRootOverLog { mul: 1.0 };
        assert!(r_const.is_sub_logarithmic());
        assert!(!r_log.is_sub_logarithmic());
        // r = O(1), s = O(N^{1/4}/log N): r·s = o(N^{1/4}) holds.
        assert!(r_const.product_is_sub_fourth_root(&s_ceiling));
        // r = log N, s = N^{1/4}/log N: r·s = N^{1/4}, NOT o(N^{1/4}).
        assert!(!r_log.product_is_sub_fourth_root(&s_ceiling));
        // r = O(1), s = O(log N): trivially fine.
        assert!(r_const.product_is_sub_fourth_root(&Bound::Log { mul: 3.0, add: 0.0 }));
        // r = O(1), s = √N: degree 1/2 > 1/4 → fails.
        assert!(!r_const.product_is_sub_fourth_root(&Bound::Sqrt { mul: 1.0 }));
    }

    #[test]
    fn tape_count_admits() {
        assert!(TapeCount::Exactly(2).admits(2));
        assert!(TapeCount::Exactly(2).admits(1));
        assert!(!TapeCount::Exactly(2).admits(3));
        assert!(TapeCount::AnyConstant.admits(17));
    }

    #[test]
    fn display_notation_matches_paper() {
        assert_eq!(Bound::ONE.to_string(), "O(1)");
        assert_eq!(Bound::Log { mul: 1.0, add: 0.0 }.to_string(), "1·log N");
        assert_eq!(
            Bound::FourthRootOverLog { mul: 1.0 }.to_string(),
            "1·N^(1/4)/log N"
        );
        assert_eq!(TapeCount::AnyConstant.to_string(), "O(1)");
    }
}
