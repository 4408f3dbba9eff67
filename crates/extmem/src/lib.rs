//! # st-extmem — the instrumented external-memory substrate
//!
//! The paper's model charges two resources: **head reversals on external
//! tapes** (equivalently sequential scans; a random access costs at most
//! two reversals) and **internal memory size**. This crate provides the
//! single source of truth for that accounting:
//!
//! * [`tape::Tape`] — a one-sided external tape of cells with a head,
//!   exact direction-change counting, and bulk `rewind`/`seek_end`
//!   operations that charge exactly one reversal each (a bulk move is one
//!   sustained sweep of the head);
//! * [`meter::MemoryMeter`] — an internal-memory meter measuring the
//!   high-water mark of live internal bits, with RAII charging;
//! * [`machine::TapeMachine`] — a bundle of tapes plus a meter that
//!   reports a [`st_core::ResourceUsage`] after a run;
//! * [`block`] — the scan combinators (copy, parallel compare,
//!   distribute, merge) and the resumable merge-pass kernels, with
//!   per-combinator reversal costs documented: records move in slices
//!   (`Tape::{peek_slice, read_slice_fwd, write_slice_fwd}`) while
//!   verdicts, `ResourceUsage` and the trace stream stay bit-for-bit
//!   those of one cell per call — the only production scan path;
//! * [`sort`] — reversal-bounded external merge sort (the engine behind
//!   Corollary 7, Corollary 10 and Theorem 11): a 3-tape balanced merge
//!   with `Θ(log N)` reversals;
//! * [`step`] — bounded-step resumable execution: [`step::StepBudget`]
//!   and the [`step::SortStepper`] state machine over the block kernels
//!   (the one sort engine: [`sort::merge_sort`] drives it unbounded),
//!   which lets a serving layer interleave thousands of in-flight sorts
//!   on few threads while keeping the batch accounting bit-for-bit;
//! * [`fault`] — opt-in, seed-deterministic fault injection (bit rot,
//!   transient reads, stuck/torn writes) applied inside [`tape::Tape`],
//!   so the resilient upper-bound algorithms of `st-algo` can be attacked
//!   and measured without touching the reversal accounting — and without
//!   any caller branching on it;
//! * [`scan`] — the cell-at-a-time reference the block kernels are
//!   pinned to by the parity tests; no production code calls it;
//! * [`durable`] — a write-ahead journal of checksummed frames, each
//!   record frame one block of records, whose commit frames are atomic
//!   recovery points, plus deterministic crash injection ("kill after
//!   the k-th journaled byte") — the layer where state outlives the
//!   process.
//!
//! ## Fidelity note (documented substitution)
//!
//! Chen & Yap (Lemma 7 in the paper's citation \[7\]) sort with **O(1)**
//! internal memory on 2 tapes. Our merge sort buffers a constant number of
//! *records* internally, i.e. `O(record-length)` bits. For the SHORT
//! problem versions (records of length `O(log m)`) this is the paper's own
//! `ST(O(log N), O(log N), 3)` merge-sort bound; for long records it is a
//! documented substitution. The quantity the theorems bound — the
//! **number of head reversals** — is counted faithfully in either case.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod disk;
pub mod durable;
pub mod fault;
pub mod machine;
pub mod meter;
pub mod scan;
pub mod sort;
pub mod step;
pub mod tape;

pub use durable::{DurableRecord, Recovery, Wal};
pub use fault::{Corrupt, FaultPlan, FaultStats};
pub use machine::TapeMachine;
pub use meter::{MemoryCharge, MemoryMeter};
pub use step::{SortStepper, StepBudget, StepProgress};
pub use tape::{Dir, Tape};
