//! Durable, file-backed tapes: persistence and crash recovery for the
//! external-memory substrate.
//!
//! The paper's machine model charges for head reversals because tapes
//! model *disks* — persistent media whose sequential scans are cheap and
//! whose state outlives the process. Until this module, every tape in
//! `st-extmem` lived in RAM: faults could corrupt a cell (PR 1), but a
//! run could never lose the process mid-scan the way a real
//! external-memory computation can. This module closes that gap in three
//! layers:
//!
//! * [`frame`] — the on-disk block format: length-framed, CRC-checksummed
//!   frames that self-validate, so a torn tail is detected, never
//!   misread.
//! * [`wal`] — the write-ahead journal. Commit frames are atomic recovery
//!   points at scan boundaries; opening a journal rolls back to the last
//!   commit. Deterministic crash injection ("kill after the k-th
//!   journaled byte") lives here.
//! * [`tape`] — [`DurableBlockTape`]: an in-memory
//!   [`Tape`](crate::tape::Tape) (unchanged reversal accounting) that
//!   journals its writes a block per frame and whose committed contents
//!   are rebuilt byte-identically on reopen.
//!
//! The crash/recovery workload on top — a checkpointable external merge
//! sort that resumes from the last committed pass — lives in
//! `st-algo::durable_sort`; experiments in `st-bench::exp_durable`; the
//! crash-at-every-offset differential oracle in `st-conformance`.

pub mod codec;
pub mod frame;
pub mod tape;
pub mod wal;

pub use codec::{decode_block, encode_block};
pub use frame::{decode_frames, encode_frame, DurableRecord, Frame, FrameTag};
pub use tape::DurableBlockTape;
pub use wal::{Recovery, Wal};
