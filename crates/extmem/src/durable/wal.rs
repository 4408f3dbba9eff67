//! The write-ahead journal: commit records as atomic recovery points.
//!
//! A [`Wal`] is an append-only file of [frames](crate::durable::frame).
//! The protocol is write-ahead: a caller journals each block of a scan
//! *before* writing it to its in-memory copy (the durable sort journals
//! every [`encode_block`](crate::durable::encode_block) slice of its data
//! tape ahead of the mirror write), and marks scan boundaries with a
//! commit frame. The journal's invariants:
//!
//! 1. **Append-only between opens.** Frames are only ever added at the
//!    tail; recovery is the only operation that shortens the file.
//! 2. **Commit = recovery point.** On [`Wal::open`], everything after
//!    the last whole commit frame — torn frames (CRC/length failures)
//!    *and* whole-but-uncommitted record frames — is truncated away.
//!    State reconstruction replays only committed frames, so a crash
//!    between commits rewinds to the previous scan boundary, never to a
//!    half-applied scan.
//! 3. **Reset scopes a replay.** A `Reset` frame drops all earlier
//!    records from the reconstruction (the tape was cleared for
//!    overwrite); a checkpoint is therefore `Reset · Record* · Commit`
//!    (the durable sort writes one `Record` per block of cells).
//!
//! Crash injection lives here too, because "the k-th journaled byte" is
//! the natural deterministic coordinate for power loss: a write that
//! would carry the file past the planned offset persists *exactly* the
//! prefix up to that byte, emits [`TraceEvent::CrashInjected`], and
//! returns [`StError::Crashed`]. The torn tail this leaves behind is
//! real — the next [`Wal::open`] must do real recovery work on it.

use super::frame::{decode_frames, encode_frame, Frame, FrameTag};
use st_core::StError;
use st_trace::{TraceEvent, Tracer};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// What [`Wal::open`] reconstructed from the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Committed record payloads, in order, respecting `Reset` scoping
    /// (records before the last committed `Reset` are dropped).
    pub records: Vec<Vec<u8>>,
    /// Metadata payload of the last commit frame (`None` on a journal
    /// with no commit yet).
    pub last_commit: Option<Vec<u8>>,
    /// Journal bytes that survived recovery (the committed prefix).
    pub committed_bytes: u64,
    /// Torn/uncommitted trailing bytes truncated away.
    pub discarded_bytes: u64,
}

impl Recovery {
    /// `true` iff the journal had nothing committed (fresh or fully
    /// rolled back).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.last_commit.is_none()
    }
}

/// An append-only, checksummed write-ahead journal with deterministic
/// crash injection.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    /// Bytes written to the file (flushed, not fsynced).
    len: u64,
    /// Length of the prefix ending at the last commit frame.
    committed_len: u64,
    /// Planned crash point: kill after this absolute journal byte.
    crash_at: Option<u64>,
    /// Set once the crash fired; every later write refuses.
    crashed: bool,
    /// Where this journal's `Recovery` and `CrashInjected` events go:
    /// the tracer passed to [`Wal::create`] or [`Wal::open`].
    tracer: Tracer,
}

impl Wal {
    /// Create a fresh journal at `path` (truncating any previous file)
    /// whose events go to `tracer`.
    pub fn create(path: &Path, crash_at: Option<u64>, tracer: Tracer) -> Result<Self, StError> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| StError::Io(format!("create journal {}: {e}", path.display())))?;
        Ok(Wal {
            path: path.to_path_buf(),
            file,
            len: 0,
            committed_len: 0,
            crash_at,
            crashed: false,
            tracer,
        })
    }

    /// Open an existing journal, roll back to the last commit, and
    /// return the handle plus what survived.
    ///
    /// Emits [`TraceEvent::Recovery`] on `tracer`, which the handle then
    /// keeps, whenever a journal is reopened.
    pub fn open(
        path: &Path,
        crash_at: Option<u64>,
        tracer: Tracer,
    ) -> Result<(Self, Recovery), StError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| StError::Io(format!("open journal {}: {e}", path.display())))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)
            .map_err(|e| StError::Io(format!("read journal {}: {e}", path.display())))?;

        let (mut frames, valid_len) = decode_frames(&buf);
        // Recovery point: the end of the last whole commit frame.
        let mut committed_len = 0usize;
        let mut committed_frames = 0usize;
        let mut pos = 0usize;
        for (i, frame) in frames.iter().enumerate() {
            pos += super::frame::HEADER_LEN + frame.payload.len();
            if frame.tag == FrameTag::Commit {
                committed_len = pos;
                committed_frames = i + 1;
            }
        }
        debug_assert!(committed_len <= valid_len);

        frames.truncate(committed_frames);
        let (records, last_commit) = replay_committed(frames);
        let recovery = Recovery {
            records,
            last_commit,
            committed_bytes: committed_len as u64,
            discarded_bytes: (buf.len() - committed_len) as u64,
        };

        if committed_len < buf.len() {
            file.set_len(committed_len as u64)
                .map_err(|e| StError::Io(format!("truncate journal {}: {e}", path.display())))?;
        }
        file.seek(SeekFrom::Start(committed_len as u64))
            .map_err(|e| StError::Io(format!("seek journal {}: {e}", path.display())))?;

        tracer.emit(|| TraceEvent::Recovery {
            committed: recovery.committed_bytes,
            discarded: recovery.discarded_bytes,
        });

        Ok((
            Wal {
                path: path.to_path_buf(),
                file,
                len: committed_len as u64,
                committed_len: committed_len as u64,
                crash_at,
                crashed: false,
                tracer,
            },
            recovery,
        ))
    }

    /// The journal file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total journal bytes written (committed or not).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` iff no frame was ever journaled (or all were rolled back).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Length of the committed prefix — the recovery point.
    #[must_use]
    pub fn committed_len(&self) -> u64 {
        self.committed_len
    }

    /// The tracer this journal emits on, fixed at create/open.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// `true` once the planned crash fired; the handle is then poisoned.
    #[must_use]
    pub fn has_crashed(&self) -> bool {
        self.crashed
    }

    /// Journal one record payload (write-ahead: call this *before*
    /// applying the mutation in memory).
    pub fn append_record(&mut self, payload: &[u8]) -> Result<(), StError> {
        self.append(FrameTag::Record, payload)
    }

    /// Journal a reset marker: the tape was cleared for overwrite and
    /// records before this point no longer describe its state.
    pub fn append_reset(&mut self) -> Result<(), StError> {
        self.append(FrameTag::Reset, &[])
    }

    /// Journal a commit frame, making everything before it a recovery
    /// point. `meta` is caller metadata returned verbatim on recovery
    /// (e.g. the merge pass the checkpoint belongs to).
    pub fn commit(&mut self, meta: &[u8]) -> Result<(), StError> {
        self.append(FrameTag::Commit, meta)?;
        self.committed_len = self.len;
        Ok(())
    }

    fn append(&mut self, tag: FrameTag, payload: &[u8]) -> Result<(), StError> {
        if self.crashed {
            return Err(StError::Crashed(format!(
                "journal {} already crashed",
                self.path.display()
            )));
        }
        let mut bytes = Vec::with_capacity(super::frame::HEADER_LEN + payload.len());
        encode_frame(tag, payload, &mut bytes)?;

        // Does this write carry the file past the planned crash point?
        if let Some(k) = self.crash_at {
            let end = self.len + bytes.len() as u64;
            if end > k {
                // Persist exactly the prefix up to byte k, then die. The
                // saturating_sub guards k below the current length
                // (possible when a resumed run reuses an absolute offset
                // already consumed by an earlier incarnation). In this
                // branch `end > k`, so the gap is strictly less than
                // `bytes.len()` and always fits a `usize` — even a
                // 32-bit one. `map_or` keeps the clamp lossless instead
                // of the old `unwrap_or(usize::MAX)` sentinel, which
                // silently conflated "u64 too wide" with "keep it all".
                let gap = k.saturating_sub(self.len);
                debug_assert!(gap < bytes.len() as u64);
                let keep = usize::try_from(gap).map_or(bytes.len(), |g| g.min(bytes.len()));
                self.write_all(&bytes[..keep])?;
                self.len += keep as u64;
                self.crashed = true;
                self.tracer
                    .emit(|| TraceEvent::CrashInjected { at_byte: k });
                return Err(StError::Crashed(format!(
                    "after byte {k} of {}",
                    self.path.display()
                )));
            }
        }

        self.write_all(&bytes)?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), StError> {
        self.file
            .write_all(bytes)
            .map_err(|e| StError::Io(format!("write journal {}: {e}", self.path.display())))?;
        self.file
            .flush()
            .map_err(|e| StError::Io(format!("flush journal {}: {e}", self.path.display())))
    }
}

/// Replay committed frames into the record payloads they imply and the
/// last commit's metadata: records accumulate, a `Reset` clears, a
/// `Commit` replaces the metadata. Payloads move out of the frames.
fn replay_committed(frames: Vec<Frame>) -> (Vec<Vec<u8>>, Option<Vec<u8>>) {
    let mut records: Vec<Vec<u8>> = Vec::new();
    let mut last_commit = None;
    for frame in frames {
        match frame.tag {
            FrameTag::Record => records.push(frame.payload),
            FrameTag::Reset => records.clear(),
            FrameTag::Commit => last_commit = Some(frame.payload),
        }
    }
    (records, last_commit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("st_wal_tests_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn records_survive_a_commit_and_reopen() {
        let path = tmp("basic.wal");
        let mut wal = Wal::create(&path, None, Tracer::disabled()).unwrap();
        wal.append_record(b"alpha").unwrap();
        wal.append_record(b"beta").unwrap();
        wal.commit(b"cp1").unwrap();
        drop(wal);

        let (wal, rec) = Wal::open(&path, None, Tracer::disabled()).unwrap();
        assert_eq!(rec.records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert_eq!(rec.last_commit.as_deref(), Some(&b"cp1"[..]));
        assert_eq!(rec.discarded_bytes, 0);
        assert_eq!(wal.len(), rec.committed_bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_clamp_persists_exactly_k_bytes_at_the_frame_boundary() {
        // Pin the recovery-point clamp: killing inside the second frame
        // must persist exactly `k` bytes — no more (torn tail leaks) and
        // no less (committed data loss) — including the k == frame-start
        // boundary where the kept prefix of the dying write is empty.
        let frame_len = (super::super::frame::HEADER_LEN + 5) as u64;
        for k in [frame_len, frame_len + 1, 2 * frame_len - 1] {
            let path = tmp(&format!("clamp_{k}.wal"));
            let mut wal = Wal::create(&path, Some(k), Tracer::disabled()).unwrap();
            wal.append_record(b"aaaaa").unwrap();
            assert_eq!(wal.len(), frame_len);
            let err = wal.append_record(b"bbbbb").unwrap_err();
            assert!(matches!(err, StError::Crashed(_)));
            assert!(wal.has_crashed());
            assert_eq!(wal.len(), k, "persisted prefix must stop at byte {k}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), k);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn uncommitted_tail_is_rolled_back_on_open() {
        let path = tmp("rollback.wal");
        let mut wal = Wal::create(&path, None, Tracer::disabled()).unwrap();
        wal.append_record(b"kept").unwrap();
        wal.commit(b"cp").unwrap();
        let committed = wal.len();
        wal.append_record(b"lost-1").unwrap();
        wal.append_record(b"lost-2").unwrap();
        let full = wal.len();
        drop(wal);

        let (wal, rec) = Wal::open(&path, None, Tracer::disabled()).unwrap();
        assert_eq!(rec.records, vec![b"kept".to_vec()]);
        assert_eq!(rec.committed_bytes, committed);
        assert_eq!(rec.discarded_bytes, full - committed);
        assert_eq!(wal.len(), committed);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_scopes_the_replay_to_the_latest_checkpoint() {
        let path = tmp("reset.wal");
        let mut wal = Wal::create(&path, None, Tracer::disabled()).unwrap();
        wal.append_record(b"old").unwrap();
        wal.commit(b"cp1").unwrap();
        wal.append_reset().unwrap();
        wal.append_record(b"new").unwrap();
        wal.commit(b"cp2").unwrap();
        drop(wal);

        let (_, rec) = Wal::open(&path, None, Tracer::disabled()).unwrap();
        assert_eq!(rec.records, vec![b"new".to_vec()]);
        assert_eq!(rec.last_commit.as_deref(), Some(&b"cp2"[..]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_cuts_the_file_at_exactly_the_planned_byte() {
        let path = tmp("crash.wal");
        let mut wal = Wal::create(&path, None, Tracer::disabled()).unwrap();
        wal.append_record(b"payload-zero").unwrap();
        wal.commit(b"").unwrap();
        let committed = wal.len();
        drop(wal);

        // Crash 3 bytes into whatever comes after the commit.
        let k = committed + 3;
        let (mut wal, _) = Wal::open(&path, Some(k), Tracer::disabled()).unwrap();
        let err = wal.append_record(b"doomed").unwrap_err();
        assert!(matches!(err, StError::Crashed(_)), "got {err}");
        assert!(wal.has_crashed());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), k);
        // The poisoned handle refuses further writes.
        assert!(matches!(
            wal.append_record(b"more"),
            Err(StError::Crashed(_))
        ));
        drop(wal);

        // Reopen: the torn 3 bytes are discarded, the commit survives.
        let (_, rec) = Wal::open(&path, None, Tracer::disabled()).unwrap();
        assert_eq!(rec.records, vec![b"payload-zero".to_vec()]);
        assert_eq!(rec.committed_bytes, committed);
        assert_eq!(rec.discarded_bytes, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_point_already_behind_the_cursor_fires_immediately() {
        let path = tmp("crash_behind.wal");
        let mut wal = Wal::create(&path, None, Tracer::disabled()).unwrap();
        wal.append_record(b"x").unwrap();
        wal.commit(b"").unwrap();
        let committed = wal.len();
        drop(wal);

        // k below the committed length: the next write must crash without
        // extending the file at all (saturating_sub keeps 0 new bytes).
        let (mut wal, _) =
            Wal::open(&path, Some(committed.saturating_sub(1)), Tracer::disabled()).unwrap();
        assert!(matches!(wal.append_record(b"y"), Err(StError::Crashed(_))));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_point_beyond_the_run_never_fires() {
        let path = tmp("crash_far.wal");
        let mut wal = Wal::create(&path, Some(1 << 40), Tracer::disabled()).unwrap();
        wal.append_record(b"fine").unwrap();
        wal.commit(b"").unwrap();
        assert!(!wal.has_crashed());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovery_emits_a_trace_event() {
        let path = tmp("traced.wal");
        let mut wal = Wal::create(&path, None, Tracer::disabled()).unwrap();
        wal.append_record(b"r").unwrap();
        wal.commit(b"").unwrap();
        wal.append_record(b"torn").unwrap();
        drop(wal);

        let (tracer, buf) = Tracer::in_memory();
        let (_, rec) = Wal::open(&path, None, tracer).unwrap();
        assert!(rec.discarded_bytes > 0);
        let events = buf.snapshot();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Recovery { discarded, .. } if *discarded > 0)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_crash_emits_on_the_tracer_taken_at_create() {
        // The journal keeps the tracer it was built with: a crash that
        // fires on a later write lands in that trace.
        let path = tmp("crash_traced.wal");
        let (tracer, buf) = Tracer::in_memory();
        let mut wal = Wal::create(&path, Some(3), tracer).unwrap();
        assert!(matches!(wal.append_record(b"x"), Err(StError::Crashed(_))));
        assert_eq!(
            buf.snapshot(),
            vec![TraceEvent::CrashInjected { at_byte: 3 }]
        );
        std::fs::remove_file(&path).ok();
    }
}
