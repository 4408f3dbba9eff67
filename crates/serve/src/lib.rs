//! # st-serve — a multi-tenant streaming decision service
//!
//! The deciders in `st-algo` answer one question per process: feed a
//! whole word, get a verdict and a [`st_core::ResourceUsage`]. This
//! crate turns the resumable [`st_algo::Stepper`] API into a *service*:
//! thousands of concurrent sessions, each fed incrementally, each
//! metered in the paper's own currency (head reversals and internal
//! bits), and each billed with a MAC-signed [`st_core::ResourceBill`]
//! on completion.
//!
//! The twist that makes this more than plumbing: **admission control is
//! the lower bound made operational**. A tenant's budget is a
//! [`st_core::TenantBudget`] in reversals and bits; before a session
//! runs, [`admission::reserve`] computes the worst-case cost of the
//! requested decider on the declared instance shape straight from the
//! theorems (Corollary 7's `O(log m)` merge passes, Theorem 8(a)'s
//! constant-reversal fingerprint). A tenant whose remaining budget
//! cannot cover the reservation is rejected *before* any tape moves,
//! with a signed bill quoting the bound — exactly the refusal the
//! paper's lower bounds justify.
//!
//! Modules:
//!
//! - [`session`] — one resumable decider run behind an in-memory
//!   tracer; verdicts replay-audit bit-for-bit like batch runs.
//! - [`admission`] — reservations from the paper's bounds, rejection
//!   bills, the tenant ledger glue.
//! - [`protocol`] — the request/response wire format, framed by
//!   [`st_core::frame`], usable over any `Read + Write` transport.
//! - [`service`] — the deterministic script runner (admission →
//!   parallel stepping → settlement), the online [`service::Service`]
//!   request handler and its TCP accept loop.
//! - [`script`] — the script format: tenants, sessions, literal words
//!   or seeded traffic families (Zipf, bursty, …).
//!
//! Determinism contract: for a given script and seed, the transcript of
//! [`service::run_script`] is byte-identical whatever `--jobs` is. The
//! admission phase and the settlement phase are serial in script order;
//! the parallel phase computes per-session results that do not depend
//! on scheduling; wall-clock latencies are recorded for soak metrics
//! but never enter the transcript.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod protocol;
pub mod script;
pub mod service;
pub mod session;

pub use admission::{declared_input_len, rejection_bill, reserve, sort_pass_bound};
pub use protocol::{read_frame, read_frame_lenient, write_frame, FrameRead, Request, Response};
pub use script::{Script, SessionSpec, TenantSpec, TrafficFamily, WordSpec};
pub use service::{
    configure_accepted, handle_stream, run_script, serve_listener, ScriptRun, ServeOptions,
    Service, ServiceLimits, SessionResult,
};
pub use session::{DeciderKind, Session, SessionAudit};
