//! Concrete sinks: full in-memory and JSONL file.
//!
//! | sink | retention | cost/event | use |
//! |------|-----------|-----------|-----|
//! | [`MemorySink`] | everything | push | tests, replay audits, worker and session traces |
//! | [`JsonlSink`] | file | format + buffered write | experiment dumps, `trace-inspect` |

use crate::event::TraceEvent;
use crate::tracer::Sink;
use st_core::pool::lock;
use st_core::StError;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Shared read handle to the events captured by a [`MemorySink`].
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl TraceBuffer {
    /// Copy out the captured events in emission order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        lock(&self.events).clone()
    }

    /// Number of events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.events).len()
    }

    /// `true` iff nothing was captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        lock(&self.events).is_empty()
    }
}

/// Retains every event in memory.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl MemorySink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A read handle usable after the sink moves into a tracer.
    #[must_use]
    pub fn buffer(&self) -> TraceBuffer {
        TraceBuffer {
            events: Arc::clone(&self.events),
        }
    }
}

impl Sink for MemorySink {
    fn record(&mut self, ev: TraceEvent) {
        lock(&self.events).push(ev);
    }
}

/// Streams events to a file, one JSON line each.
///
/// The stream lands in a hidden `.tmp` sibling first and is moved onto
/// the requested path on the first [`flush`](Sink::flush) (or on drop).
/// `rename` keeps the open descriptor valid on POSIX, so writing simply
/// continues through the same file after the move — the visible path
/// therefore never holds a torn artifact from a run that died before
/// its first flush; a crash later can at worst truncate the *final*
/// line, which [`crate::event::read_jsonl_lossy`] tolerates.
#[derive(Debug)]
pub struct JsonlSink {
    writer: std::io::BufWriter<std::fs::File>,
    /// `Some((tmp, final))` until the rename happened.
    pending: Option<(std::path::PathBuf, std::path::PathBuf)>,
    /// One line's rendering, reused for every event.
    line: String,
}

impl JsonlSink {
    /// Stream events into `path` (atomically published; see type docs).
    pub fn create(path: &std::path::Path) -> Result<Self, StError> {
        let file_name = path.file_name().ok_or_else(|| {
            StError::Io(format!(
                "create trace {}: path has no file name",
                path.display()
            ))
        })?;
        let mut tmp_name = std::ffi::OsString::from(".");
        tmp_name.push(file_name);
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        let file = std::fs::File::create(&tmp)
            .map_err(|e| StError::Io(format!("create trace {}: {e}", tmp.display())))?;
        Ok(JsonlSink {
            writer: std::io::BufWriter::new(file),
            pending: Some((tmp, path.to_path_buf())),
            line: String::new(),
        })
    }

    /// Move the `.tmp` file onto the final path (first call wins; a
    /// failed rename is retried on the next flush).
    fn publish(&mut self) {
        if let Some((tmp, path)) = self.pending.take() {
            if std::fs::rename(&tmp, &path).is_err() {
                self.pending = Some((tmp, path));
            }
        }
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, ev: TraceEvent) {
        // A full disk mid-trace must not abort the traced computation;
        // the audit will catch the truncated file.
        self.line.clear();
        ev.write_json_line(&mut self.line);
        self.line.push('\n');
        let _ = self.writer.write_all(self.line.as_bytes());
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
        self.publish();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.writer.flush();
        self.publish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(n: u64) -> TraceEvent {
        TraceEvent::StepBatch { steps: n }
    }

    #[test]
    fn memory_sink_keeps_everything_in_order() {
        let mut s = MemorySink::new();
        let buf = s.buffer();
        for i in 0..5 {
            s.record(step(i));
        }
        let got = buf.snapshot();
        assert_eq!(got.len(), 5);
        assert_eq!(got[0], step(0));
        assert_eq!(got[4], step(4));
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join("st_trace_sink_test.jsonl");
        {
            let mut s = JsonlSink::create(&path).unwrap();
            s.record(step(3));
            s.record(TraceEvent::Reversal { tape: 1, total: 2 });
        }
        let events = crate::event::read_jsonl(&path).unwrap();
        assert_eq!(
            events,
            vec![step(3), TraceEvent::Reversal { tape: 1, total: 2 }]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jsonl_sink_publishes_on_first_flush_not_before() {
        let dir = std::env::temp_dir().join(format!("st_trace_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");

        let mut s = JsonlSink::create(&path).unwrap();
        s.record(step(1));
        // Before any flush: only the hidden temporary exists.
        assert!(!path.exists(), "final path must not exist pre-flush");
        s.flush();
        assert!(path.exists(), "flush must publish the file");
        // Writing continues through the renamed descriptor.
        s.record(step(2));
        drop(s);
        let events = crate::event::read_jsonl(&path).unwrap();
        assert_eq!(events, vec![step(1), step(2)]);
        // No .tmp leftover.
        assert!(std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .all(|e| !e.file_name().to_string_lossy().ends_with(".tmp")));
        std::fs::remove_dir_all(&dir).ok();
    }
}
