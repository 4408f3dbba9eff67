//! A file-backed tape: the in-memory [`Tape`] plus a write-ahead
//! journal, so state outlives the process.
//!
//! [`DurableBlockTape`] keeps the paper's accounting model untouched —
//! reversals and head movements are still the in-memory tape's counters
//! — and adds one persistence discipline on top:
//!
//! * writes are staged and journaled a block at a time, each block as
//!   one checksummed frame;
//! * [`begin_overwrite`](DurableBlockTape::begin_overwrite) journals a
//!   reset marker and clears the tape, starting a fresh checkpoint scope;
//! * [`checkpoint`](DurableBlockTape::checkpoint) flushes, then journals
//!   a commit frame — the atomic recovery point at a scan boundary.
//!
//! [`DurableBlockTape::open`] reopens the journal, rolls back any torn or
//! uncommitted tail, decodes the committed blocks, and rebuilds the tape
//! exactly as it stood at the last checkpoint. Crash injection is
//! inherited from the journal: a planned kill fires at a block flush and
//! surfaces as [`StError::Crashed`].

use super::codec::{decode_block, encode_block};
use super::frame::DurableRecord;
use super::wal::{Recovery, Wal};
use crate::tape::Tape;
use st_core::StError;
use std::path::Path;

/// A durable tape that journals **blocks** of records instead of one
/// frame per cell.
///
/// Same WAL, same recovery protocol (`Reset · Record* · Commit` scopes,
/// roll back to the last commit), but each `Record` frame carries a
/// [`encode_block`]-packed batch of up to `block` records. The
/// [frame](super::frame) overhead — header plus CRC pass — is paid once
/// per block rather than once per cell, which is what makes journaled
/// runs at out-of-core N affordable.
///
/// Buffering discipline:
///
/// * [`write_fwd`](DurableBlockTape::write_fwd) /
///   [`write_slice_fwd`](DurableBlockTape::write_slice_fwd) apply to the
///   in-memory tape immediately (reads see them) and stage the records;
///   a full block is journaled as one frame.
/// * [`flush`](DurableBlockTape::flush) journals any partial block;
///   [`checkpoint`](DurableBlockTape::checkpoint) flushes, then commits.
/// * A planned crash therefore fires at a *block* journaling boundary,
///   not mid-cell — the same per-block granularity `StepBatch@1024`
///   uses for step accounting.
#[derive(Debug)]
pub struct DurableBlockTape<S> {
    tape: Tape<S>,
    wal: Wal,
    pending: Vec<S>,
    block: usize,
}

impl<S: DurableRecord + Clone> DurableBlockTape<S> {
    /// Create a fresh block-journaled tape at `path` (truncating any
    /// previous journal), staging up to `block` records per frame.
    pub fn create(
        name: impl Into<String>,
        path: &Path,
        block: usize,
        crash_at: Option<u64>,
    ) -> Result<Self, StError> {
        assert!(block > 0, "block length must be positive");
        Ok(DurableBlockTape {
            tape: Tape::new(name),
            wal: Wal::create(path, crash_at)?,
            pending: Vec::with_capacity(block),
            block,
        })
    }

    /// Reopen a block journal, recover to the last checkpoint, and
    /// rebuild the committed contents (head rewound to the start).
    pub fn open(
        name: impl Into<String>,
        path: &Path,
        block: usize,
        crash_at: Option<u64>,
    ) -> Result<(Self, Recovery), StError> {
        assert!(block > 0, "block length must be positive");
        let (wal, recovery) = Wal::open(path, crash_at)?;
        let mut items = Vec::new();
        for payload in &recovery.records {
            items.extend(decode_block::<S>(payload)?);
        }
        Ok((
            DurableBlockTape {
                tape: Tape::from_items(name, items),
                wal,
                pending: Vec::with_capacity(block),
                block,
            },
            recovery,
        ))
    }

    /// The in-memory tape (head mechanics, reversal accounting).
    #[must_use]
    pub fn tape(&self) -> &Tape<S> {
        &self.tape
    }

    /// Mutable access for *reading* scans; writes must go through
    /// [`DurableBlockTape::write_fwd`] so they reach the journal.
    pub fn tape_mut(&mut self) -> &mut Tape<S> {
        &mut self.tape
    }

    /// The underlying journal.
    #[must_use]
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Records staged but not yet journaled.
    #[must_use]
    pub fn pending_records(&self) -> usize {
        self.pending.len()
    }

    /// Write one record: applied to the tape now, journaled when the
    /// staged block fills (or on [`flush`](DurableBlockTape::flush)).
    pub fn write_fwd(&mut self, s: S) -> Result<(), StError> {
        self.pending.push(s.clone());
        self.tape.write_fwd(s)?;
        if self.pending.len() >= self.block {
            self.flush()?;
        }
        Ok(())
    }

    /// Write a batch of records through the zero-copy tape path,
    /// journaling every filled block.
    pub fn write_slice_fwd(&mut self, items: &[S]) -> Result<(), StError> {
        self.tape.write_slice_fwd(items)?;
        let mut rest = items;
        while !rest.is_empty() {
            let room = self.block - self.pending.len();
            let take = room.min(rest.len());
            self.pending.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.pending.len() >= self.block {
                self.flush()?;
            }
        }
        Ok(())
    }

    /// Journal any staged records as one block frame.
    pub fn flush(&mut self) -> Result<(), StError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let payload = encode_block(&self.pending)?;
        self.wal.append_record(&payload)?;
        self.pending.clear();
        Ok(())
    }

    /// Start overwriting from the left end: journals a reset marker,
    /// discards staged records, and clears the in-memory tape.
    pub fn begin_overwrite(&mut self) -> Result<(), StError> {
        self.pending.clear();
        self.wal.append_reset()?;
        self.tape.reset_for_overwrite();
        Ok(())
    }

    /// Flush staged records, then commit everything journaled so far as
    /// an atomic recovery point.
    pub fn checkpoint(&mut self, meta: &[u8]) -> Result<(), StError> {
        self.flush()?;
        self.wal.commit(meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("st_durable_tape_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn block_tape_commits_survive_reopen_and_partial_blocks_flush() {
        let path = tmp("block_survive.wal");
        let mut bt: DurableBlockTape<u64> = DurableBlockTape::create("b", &path, 4, None).unwrap();
        for v in 0..10u64 {
            bt.write_fwd(v).unwrap();
        }
        // 10 records at block=4: two full blocks journaled, two staged.
        assert_eq!(bt.pending_records(), 2);
        bt.checkpoint(b"ten").unwrap();
        assert_eq!(bt.pending_records(), 0);
        bt.write_fwd(99).unwrap(); // staged, never committed
        drop(bt);

        let (bt, rec) = DurableBlockTape::<u64>::open("b", &path, 4, None).unwrap();
        assert_eq!(bt.tape().data(), &(0..10).collect::<Vec<u64>>()[..]);
        assert_eq!(rec.last_commit.as_deref(), Some(&b"ten"[..]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn block_tape_overwrite_and_slice_writes_recover_like_cell_tapes() {
        let path = tmp("block_overwrite.wal");
        let mut bt: DurableBlockTape<u64> = DurableBlockTape::create("b", &path, 3, None).unwrap();
        bt.write_slice_fwd(&[1, 2, 3, 4, 5, 6, 7]).unwrap();
        bt.checkpoint(b"v1").unwrap();

        // Overwrite without committing: recovery still sees v1.
        bt.begin_overwrite().unwrap();
        bt.write_slice_fwd(&[40, 41]).unwrap();
        drop(bt);
        let (bt, rec) = DurableBlockTape::<u64>::open("b", &path, 3, None).unwrap();
        assert_eq!(bt.tape().data(), &[1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(rec.last_commit.as_deref(), Some(&b"v1"[..]));
        drop(bt);

        // Committed overwrite replaces the contents.
        let (mut bt, _) = DurableBlockTape::<u64>::open("b", &path, 3, None).unwrap();
        bt.begin_overwrite().unwrap();
        bt.write_slice_fwd(&[40, 41]).unwrap();
        bt.checkpoint(b"v2").unwrap();
        drop(bt);
        let (bt, rec) = DurableBlockTape::<u64>::open("b", &path, 3, None).unwrap();
        assert_eq!(bt.tape().data(), &[40, 41]);
        assert_eq!(rec.last_commit.as_deref(), Some(&b"v2"[..]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn block_journal_amortizes_frame_overhead() {
        // The point of the block tape: N records cost ~N/block frame
        // headers instead of the N a frame-per-cell journal would pay.
        let path = tmp("amortize_block.wal");
        let mut bt: DurableBlockTape<u64> =
            DurableBlockTape::create("b", &path, 256, None).unwrap();
        for v in 0..2048u64 {
            bt.write_fwd(v).unwrap();
        }
        bt.checkpoint(b"done").unwrap();
        assert_eq!(bt.tape().data(), &(0..2048).collect::<Vec<u64>>()[..]);
        // Per u64 record a cell journal pays a 9-byte frame header + 8
        // payload bytes; the block journal pays a 4-byte length + 8
        // payload bytes (frame headers amortized over 256 records), so
        // the ratio approaches 12/17 ≈ 0.71.
        let header = super::super::frame::HEADER_LEN as u64;
        let cell_journal = 2048 * (header + 8) + header + 4;
        assert!(
            bt.wal().len() * 4 < cell_journal * 3,
            "block journal {} should amortize well below cell journal {cell_journal}",
            bt.wal().len()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn block_tape_planned_crash_fires_at_a_flush_boundary() {
        let path = tmp("block_crash.wal");
        let mut bt: DurableBlockTape<u64> = DurableBlockTape::create("b", &path, 4, None).unwrap();
        bt.write_slice_fwd(&[1, 2, 3, 4]).unwrap();
        bt.checkpoint(b"cp").unwrap();
        let committed = bt.wal().len();
        drop(bt);

        // Plant the kill a few bytes into the next journaled block: the
        // staged writes succeed, the flush crashes.
        let (mut bt, _) =
            DurableBlockTape::<u64>::open("b", &path, 4, Some(committed + 5)).unwrap();
        for v in [5u64, 6, 7] {
            bt.write_fwd(v).unwrap();
        }
        let err = bt.flush().unwrap_err();
        assert!(matches!(err, StError::Crashed(_)));
        drop(bt);

        let (bt, rec) = DurableBlockTape::<u64>::open("b", &path, 4, None).unwrap();
        assert_eq!(bt.tape().data(), &[1, 2, 3, 4]);
        assert_eq!(rec.discarded_bytes, 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reversal_accounting_lives_on_the_inner_tape() {
        let path = tmp("accounting.wal");
        let mut bt: DurableBlockTape<u64> = DurableBlockTape::create("b", &path, 2, None).unwrap();
        for v in 0..4u64 {
            bt.write_fwd(v).unwrap();
        }
        bt.tape_mut().rewind();
        assert_eq!(bt.tape().reversals(), 1);
        assert!(bt.tape().moves() >= 4);
        std::fs::remove_file(&path).ok();
    }
}
