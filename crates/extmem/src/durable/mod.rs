//! Durable journals: persistence and crash recovery for the
//! external-memory substrate.
//!
//! The paper's machine model charges for head reversals because tapes
//! model *disks* — persistent media whose sequential scans are cheap and
//! whose state outlives the process. Every tape in `st-extmem` lives in
//! RAM; this module gives a run a journal, so it can lose the process
//! mid-scan the way a real external-memory computation can and resume
//! from the last recovery point. It has three parts:
//!
//! * [`frame`] — the on-disk frame format: length-framed, CRC-checksummed
//!   frames that self-validate, so a torn tail is detected, never
//!   misread.
//! * [`codec`] — the block codec: one frame payload packs a slice of
//!   records (`count · (len, bytes)*`), so a block of records costs one
//!   frame header and one write.
//! * [`wal`] — the write-ahead journal. Commit frames are atomic recovery
//!   points at scan boundaries; opening a journal rolls back to the last
//!   commit. Deterministic crash injection ("kill after the k-th
//!   journaled byte") lives here.
//!
//! The crash/recovery workload on top — a checkpointable external merge
//! sort that resumes from the last committed pass — lives in
//! `st-algo::durable_sort`; experiments in `st-bench::exp_durable`; the
//! crash-at-every-offset differential oracle in `st-conformance`.

pub mod codec;
pub mod frame;
pub mod wal;

pub use codec::{decode_block, encode_block};
pub use frame::{decode_frames, encode_frame, DurableRecord, Frame, FrameTag};
pub use wal::{Recovery, Wal};
