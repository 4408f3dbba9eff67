//! # st-core — the formal framework of the ST(r,s,t) model
//!
//! This crate encodes the *definitions* of Grohe, Hernich and Schweikardt,
//! "Randomized Computations on Large Data Sets: Tight Lower Bounds"
//! (PODS 2006):
//!
//! * [`bounds`] — resource-bound functions `r(N)`, `s(N)` (Definition 1) as
//!   first-class values with symbolic asymptotics and numeric evaluation;
//! * [`classes`] — the complexity classes `ST`, `NST`, `RST`, `co-RST` and
//!   `LasVegas-RST` (Definitions 2 and 4) as checkable specifications;
//! * [`usage`] — the common resource-usage record every machine substrate
//!   in the workspace (Turing machines, list machines, tape algorithms)
//!   reports in, together with the `(r,s,t)`-boundedness check;
//! * [`comm`] — the communication-cost record of the distributed (MPC)
//!   evaluation layer: rounds, messages, bytes-on-the-wire, and per-round
//!   load, the wire-side siblings of the reversal/space budgets;
//! * [`frame`] — the one `[u32 LE len][body]` codec under the serve
//!   protocol and the MPC exchange wire and journal: size cap, torn-frame
//!   errors, a lenient drain, one write per frame;
//! * [`pool`] — the shared work-stealing `pool_map` primitive under the
//!   experiment runner, the conformance fuzzer, and the MPC supersteps;
//! * [`theorems`] — the parameter calculators of the paper's quantitative
//!   lemmas (Lemma 3 run-length bound, Lemma 16 state-count bound,
//!   Lemma 21/22 preconditions, Lemma 32 skeleton-count bound);
//! * [`math`] — shared integer/number-theory helpers (ceil-log2, integer
//!   roots, deterministic Miller–Rabin for `u64`, log-linear regression
//!   used by the experiment harness to verify Θ(log N) shapes);
//! * [`verdict`] — the [`Verdict`]/[`RetryBudget`] vocabulary of the
//!   resilient algorithms: a fault-aware run either verifies its answer
//!   or reports an explicit `Unverified` once its retry budget is spent;
//! * [`bill`] — resource bills and tenant budgets for the serving layer:
//!   the lower bounds priced as an admission-control currency
//!   ([`ResourceBill`], [`BillingKey`], [`BudgetLedger`]).
//!
//! Everything downstream (the tape substrate, the TM and list-machine
//! simulators, the algorithms, the query engines and the benchmark
//! harness) speaks in these types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bill;
pub mod bounds;
pub mod classes;
pub mod comm;
pub mod error;
pub mod frame;
pub mod math;
pub mod pool;
pub mod theorems;
pub mod usage;
pub mod verdict;

pub use bill::{BillingKey, BudgetLedger, ResourceBill, SignedBill, TenantBudget};
pub use bounds::{Bound, TapeCount};
pub use classes::{ClassSpec, ErrorSide, MachineMode};
pub use comm::CommUsage;
pub use error::StError;
pub use pool::pool_map;
pub use usage::{BoundCheck, ResourceUsage, Violation};
pub use verdict::{RetryBudget, Verdict};

/// Convenient glob-import surface: `use st_core::prelude::*;`.
pub mod prelude {
    pub use crate::bill::{BillingKey, BudgetLedger, ResourceBill, SignedBill, TenantBudget};
    pub use crate::bounds::{Bound, TapeCount};
    pub use crate::classes::{ClassSpec, ErrorSide, MachineMode};
    pub use crate::comm::CommUsage;
    pub use crate::error::StError;
    pub use crate::pool::pool_map;
    pub use crate::usage::{BoundCheck, ResourceUsage, Violation};
    pub use crate::verdict::{RetryBudget, Verdict};
}
