//! The trace event model.
//!
//! Every substrate emits the same small vocabulary of events, chosen so
//! that a trace is simultaneously (a) a human-readable timeline of *when*
//! each reversal, memory peak, fault and retry happened, and (b) enough
//! information for [`crate::replay`] to re-derive the run's
//! [`ResourceUsage`] without consulting the substrate again.
//!
//! Counter-carrying events come in two flavors, and replay treats them
//! differently:
//!
//! * **cumulative** — [`TraceEvent::Reversal`] and
//!   [`TraceEvent::HeadMoves`] carry the tape's *running total*; replay
//!   keeps the last value seen per tape. Cumulative encoding lets a
//!   substrate emit a consistent checkpoint from `&self` at any time
//!   (repeated `usage()` calls each produce a valid checkpoint).
//! * **delta** — [`TraceEvent::StepBatch`] and the memory events carry
//!   increments; replay folds them. Step batches keep long machine runs
//!   from emitting one event per step.
//!
//! Each event serializes to one hand-rolled JSON line (the container has
//! no JSON dependency; see [`crate::json`]) and parses back exactly.

use crate::json;
use st_core::{ResourceUsage, StError};

/// Which kind of fault the injection layer fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Medium rot on read: the cell is corrupted and stored back.
    BitFlip,
    /// Transient read glitch: the returned value is corrupted, the cell
    /// untouched.
    TransientRead,
    /// A write silently dropped; the old cell value kept.
    StuckWrite,
    /// A write landing corrupted.
    TornWrite,
}

impl FaultKind {
    /// Stable wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::BitFlip => "bit_flip",
            FaultKind::TransientRead => "transient_read",
            FaultKind::StuckWrite => "stuck_write",
            FaultKind::TornWrite => "torn_write",
        }
    }

    /// Parse a wire name (inverse of [`FaultKind::as_str`]).
    #[must_use]
    pub fn parse_wire(s: &str) -> Option<Self> {
        Some(match s {
            "bit_flip" => FaultKind::BitFlip,
            "transient_read" => FaultKind::TransientRead,
            "stuck_write" => FaultKind::StuckWrite,
            "torn_write" => FaultKind::TornWrite,
            _ => return None,
        })
    }

    /// Index into a fixed-size per-kind counter array.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            FaultKind::BitFlip => 0,
            FaultKind::TransientRead => 1,
            FaultKind::StuckWrite => 2,
            FaultKind::TornWrite => 3,
        }
    }
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A substrate started a run; resets replay state (segment marker).
    RunBegin {
        /// `"tape"`, `"tm"` or `"listmachine"`.
        substrate: String,
        /// Definition-1 input size `N` (list machines: `m`).
        input_len: usize,
    },
    /// A late declaration (or correction) of the Definition-1 input
    /// size `N`. Streaming substrates open their run before the input
    /// has arrived — `RunBegin` then necessarily carries `0` — and emit
    /// this once the stream is finished and `N` is known. Replay
    /// overwrites the segment's `input_len` with the latest value.
    InputSize {
        /// Definition-1 input size `N`.
        input_len: usize,
    },
    /// An external tape/list joined the machine.
    TapeRegistered {
        /// Tape index within the run.
        tape: usize,
        /// Diagnostic name.
        name: String,
    },
    /// A named phase (e.g. one merge pass) opened.
    PhaseBegin {
        /// Phase label.
        name: String,
    },
    /// A named phase closed.
    PhaseEnd {
        /// Phase label.
        name: String,
    },
    /// A scan combinator started.
    ScanStart {
        /// Combinator name.
        op: String,
    },
    /// A scan combinator finished.
    ScanEnd {
        /// Combinator name.
        op: String,
    },
    /// A head reversed direction; carries the tape's cumulative total.
    Reversal {
        /// Tape index.
        tape: usize,
        /// `rev(ρ, i)` so far — cumulative, replay keeps the last value.
        total: u64,
    },
    /// Cumulative head movements of one tape (checkpoint event).
    HeadMoves {
        /// Tape index.
        tape: usize,
        /// Total movements so far — cumulative.
        total: u64,
    },
    /// A batch of machine steps (delta; replay sums).
    StepBatch {
        /// Steps in this batch.
        steps: u64,
    },
    /// Internal memory charged (delta; replay adds to the live level).
    MemCharge {
        /// Bits charged.
        bits: u64,
    },
    /// Internal memory released (delta; replay subtracts).
    MemRelease {
        /// Bits released.
        bits: u64,
    },
    /// A transient peak observation: `bits` were momentarily live on top
    /// of the current level.
    MemPeak {
        /// Bits of the transient peak.
        bits: u64,
    },
    /// The fault layer injected a fault.
    Fault {
        /// Tape index.
        tape: usize,
        /// Which fault fired.
        kind: FaultKind,
    },
    /// A resilient algorithm failed verification and retried.
    Retry {
        /// Attempt number that failed (1-based).
        attempt: u64,
        /// Why verification failed.
        reason: String,
    },
    /// Final cell extent of one tape (last value wins; replay sums the
    /// per-tape extents into `external_cells`).
    TapeExtent {
        /// Tape index.
        tape: usize,
        /// Cells holding data.
        cells: u64,
    },
    /// Checkpoint: the substrate's own accounting at this instant. The
    /// replay audit compares its re-derived usage against this record.
    RunUsage {
        /// The substrate-reported usage.
        usage: ResourceUsage,
    },
    /// The fault layer cut the write-ahead journal at a planned byte
    /// offset — the in-process stand-in for losing power mid-write.
    CrashInjected {
        /// Absolute journal byte offset the cut landed after.
        at_byte: u64,
    },
    /// A durable substrate reopened its journal and rolled back to the
    /// last commit record.
    Recovery {
        /// Journal bytes that survived (up to and including the last
        /// commit frame).
        committed: u64,
        /// Torn trailing bytes discarded by the rollback.
        discarded: u64,
    },
}

impl TraceEvent {
    /// Serialize to one JSON line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut line = String::new();
        self.write_json_line(&mut line);
        line
    }

    /// Append this event's JSON line (no trailing newline) to `out`.
    pub fn write_json_line(&self, out: &mut String) {
        let mut w = json::ObjWriter::new(out);
        match self {
            TraceEvent::RunBegin {
                substrate,
                input_len,
            } => {
                w.str_field("ev", "run_begin");
                w.str_field("substrate", substrate);
                w.num_field("input_len", *input_len as u64);
            }
            TraceEvent::InputSize { input_len } => {
                w.str_field("ev", "input_size");
                w.num_field("input_len", *input_len as u64);
            }
            TraceEvent::TapeRegistered { tape, name } => {
                w.str_field("ev", "tape_reg");
                w.num_field("tape", *tape as u64);
                w.str_field("name", name);
            }
            TraceEvent::PhaseBegin { name } => {
                w.str_field("ev", "phase_begin");
                w.str_field("name", name);
            }
            TraceEvent::PhaseEnd { name } => {
                w.str_field("ev", "phase_end");
                w.str_field("name", name);
            }
            TraceEvent::ScanStart { op } => {
                w.str_field("ev", "scan_start");
                w.str_field("op", op);
            }
            TraceEvent::ScanEnd { op } => {
                w.str_field("ev", "scan_end");
                w.str_field("op", op);
            }
            TraceEvent::Reversal { tape, total } => {
                w.str_field("ev", "reversal");
                w.num_field("tape", *tape as u64);
                w.num_field("total", *total);
            }
            TraceEvent::HeadMoves { tape, total } => {
                w.str_field("ev", "head_moves");
                w.num_field("tape", *tape as u64);
                w.num_field("total", *total);
            }
            TraceEvent::StepBatch { steps } => {
                w.str_field("ev", "step_batch");
                w.num_field("steps", *steps);
            }
            TraceEvent::MemCharge { bits } => {
                w.str_field("ev", "mem_charge");
                w.num_field("bits", *bits);
            }
            TraceEvent::MemRelease { bits } => {
                w.str_field("ev", "mem_release");
                w.num_field("bits", *bits);
            }
            TraceEvent::MemPeak { bits } => {
                w.str_field("ev", "mem_peak");
                w.num_field("bits", *bits);
            }
            TraceEvent::Fault { tape, kind } => {
                w.str_field("ev", "fault");
                w.num_field("tape", *tape as u64);
                w.str_field("kind", kind.as_str());
            }
            TraceEvent::Retry { attempt, reason } => {
                w.str_field("ev", "retry");
                w.num_field("attempt", *attempt);
                w.str_field("reason", reason);
            }
            TraceEvent::TapeExtent { tape, cells } => {
                w.str_field("ev", "tape_extent");
                w.num_field("tape", *tape as u64);
                w.num_field("cells", *cells);
            }
            TraceEvent::RunUsage { usage } => {
                w.str_field("ev", "run_usage");
                w.num_field("input_len", usage.input_len as u64);
                w.arr_field("revs", &usage.reversals_per_tape);
                w.num_field("tapes", usage.external_tapes as u64);
                w.num_field("internal", usage.internal_space);
                w.num_field("steps", usage.steps);
                w.num_field("cells", usage.external_cells);
            }
            TraceEvent::CrashInjected { at_byte } => {
                w.str_field("ev", "crash");
                w.num_field("at_byte", *at_byte);
            }
            TraceEvent::Recovery {
                committed,
                discarded,
            } => {
                w.str_field("ev", "recovery");
                w.num_field("committed", *committed);
                w.num_field("discarded", *discarded);
            }
        }
        w.finish();
    }

    /// Parse one JSON line produced by [`TraceEvent::to_json_line`].
    pub fn from_json_line(line: &str) -> Result<Self, StError> {
        let obj = json::parse_object(line)?;
        let ev = obj.str("ev")?;
        let bad = |what: &str| StError::Machine(format!("trace event '{ev}': {what}"));
        Ok(match ev {
            "run_begin" => TraceEvent::RunBegin {
                substrate: obj.str("substrate")?.to_string(),
                input_len: obj.num("input_len")? as usize,
            },
            "input_size" => TraceEvent::InputSize {
                input_len: obj.num("input_len")? as usize,
            },
            "tape_reg" => TraceEvent::TapeRegistered {
                tape: obj.num("tape")? as usize,
                name: obj.str("name")?.to_string(),
            },
            "phase_begin" => TraceEvent::PhaseBegin {
                name: obj.str("name")?.to_string(),
            },
            "phase_end" => TraceEvent::PhaseEnd {
                name: obj.str("name")?.to_string(),
            },
            "scan_start" => TraceEvent::ScanStart {
                op: obj.str("op")?.to_string(),
            },
            "scan_end" => TraceEvent::ScanEnd {
                op: obj.str("op")?.to_string(),
            },
            "reversal" => TraceEvent::Reversal {
                tape: obj.num("tape")? as usize,
                total: obj.num("total")?,
            },
            "head_moves" => TraceEvent::HeadMoves {
                tape: obj.num("tape")? as usize,
                total: obj.num("total")?,
            },
            "step_batch" => TraceEvent::StepBatch {
                steps: obj.num("steps")?,
            },
            "mem_charge" => TraceEvent::MemCharge {
                bits: obj.num("bits")?,
            },
            "mem_release" => TraceEvent::MemRelease {
                bits: obj.num("bits")?,
            },
            "mem_peak" => TraceEvent::MemPeak {
                bits: obj.num("bits")?,
            },
            "fault" => TraceEvent::Fault {
                tape: obj.num("tape")? as usize,
                kind: FaultKind::parse_wire(obj.str("kind")?)
                    .ok_or_else(|| bad("unknown fault kind"))?,
            },
            "retry" => TraceEvent::Retry {
                attempt: obj.num("attempt")?,
                reason: obj.str("reason")?.to_string(),
            },
            "tape_extent" => TraceEvent::TapeExtent {
                tape: obj.num("tape")? as usize,
                cells: obj.num("cells")?,
            },
            "run_usage" => TraceEvent::RunUsage {
                usage: ResourceUsage {
                    input_len: obj.num("input_len")? as usize,
                    reversals_per_tape: obj.arr("revs")?.to_vec(),
                    external_tapes: obj.num("tapes")? as usize,
                    internal_space: obj.num("internal")?,
                    steps: obj.num("steps")?,
                    external_cells: obj.num("cells")?,
                },
            },
            "crash" => TraceEvent::CrashInjected {
                at_byte: obj.num("at_byte")?,
            },
            "recovery" => TraceEvent::Recovery {
                committed: obj.num("committed")?,
                discarded: obj.num("discarded")?,
            },
            other => {
                return Err(StError::Machine(format!(
                    "unknown trace event kind '{other}'"
                )))
            }
        })
    }
}

/// Render `events` as JSONL into one buffer: one line per event, each
/// ending in a newline (empty for no events). The buffer is returned
/// without spare capacity: it grows by doubling from a few bytes, so
/// untrimmed it would hold up to twice its text for as long as the
/// caller keeps it (an MPC run keeps one per worker).
#[must_use]
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        ev.write_json_line(&mut out);
        out.push('\n');
    }
    out.shrink_to_fit();
    out
}

/// Read a whole JSONL trace file into events (blank lines skipped).
pub fn read_jsonl(path: &std::path::Path) -> Result<Vec<TraceEvent>, StError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| StError::Io(format!("read {}: {e}", path.display())))?;
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events
            .push(TraceEvent::from_json_line(line).map_err(|e| {
                StError::Machine(format!("{}:{}: {e}", path.display(), lineno + 1))
            })?);
    }
    Ok(events)
}

/// Read a JSONL trace file, tolerating a torn *final* line.
///
/// A process killed mid-write (the crash-injection harness, or a real
/// crash) leaves a trace whose last line is a partial JSON object. That
/// artifact is still worth inspecting, so this reader parses every whole
/// line and, if only the final non-empty line fails, returns the events
/// plus a warning instead of an error. A malformed line *before* the end
/// still errors — that is corruption, not truncation.
pub fn read_jsonl_lossy(
    path: &std::path::Path,
) -> Result<(Vec<TraceEvent>, Option<String>), StError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| StError::Io(format!("read {}: {e}", path.display())))?;
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let mut events = Vec::new();
    for (i, (lineno, line)) in lines.iter().enumerate() {
        match TraceEvent::from_json_line(line) {
            Ok(ev) => events.push(ev),
            Err(e) if i + 1 == lines.len() => {
                return Ok((
                    events,
                    Some(format!(
                        "{}:{}: truncated final line dropped ({e})",
                        path.display(),
                        lineno + 1
                    )),
                ));
            }
            Err(e) => {
                return Err(StError::Machine(format!(
                    "{}:{}: {e}",
                    path.display(),
                    lineno + 1
                )))
            }
        }
    }
    Ok((events, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ev: TraceEvent) {
        let line = ev.to_json_line();
        let back = TraceEvent::from_json_line(&line).unwrap();
        assert_eq!(ev, back, "line was: {line}");
    }

    #[test]
    fn every_event_kind_roundtrips_through_json() {
        roundtrip(TraceEvent::RunBegin {
            substrate: "tape".into(),
            input_len: 48,
        });
        roundtrip(TraceEvent::InputSize { input_len: 96 });
        roundtrip(TraceEvent::TapeRegistered {
            tape: 2,
            name: "scratch \"quoted\"\n".into(),
        });
        roundtrip(TraceEvent::PhaseBegin {
            name: "merge pass run_len=4".into(),
        });
        roundtrip(TraceEvent::PhaseEnd {
            name: "merge pass run_len=4".into(),
        });
        roundtrip(TraceEvent::ScanStart {
            op: "copy_tape".into(),
        });
        roundtrip(TraceEvent::ScanEnd {
            op: "copy_tape".into(),
        });
        roundtrip(TraceEvent::Reversal { tape: 1, total: 9 });
        roundtrip(TraceEvent::HeadMoves {
            tape: 0,
            total: 1234,
        });
        roundtrip(TraceEvent::StepBatch { steps: 1024 });
        roundtrip(TraceEvent::MemCharge { bits: 64 });
        roundtrip(TraceEvent::MemRelease { bits: 64 });
        roundtrip(TraceEvent::MemPeak { bits: 100 });
        roundtrip(TraceEvent::Fault {
            tape: 3,
            kind: FaultKind::TornWrite,
        });
        roundtrip(TraceEvent::Retry {
            attempt: 2,
            reason: "fingerprint differs\tfrom master".into(),
        });
        roundtrip(TraceEvent::TapeExtent { tape: 0, cells: 48 });
        roundtrip(TraceEvent::CrashInjected { at_byte: 7777 });
        roundtrip(TraceEvent::Recovery {
            committed: 1024,
            discarded: 13,
        });
        roundtrip(TraceEvent::RunUsage {
            usage: ResourceUsage {
                input_len: 10,
                reversals_per_tape: vec![1, 2, 3],
                external_tapes: 3,
                internal_space: 7,
                steps: 99,
                external_cells: 30,
            },
        });
    }

    /// One event of every variant, its names holding a quote, a
    /// backslash, a newline, a tab, a carriage return, another control
    /// character and non-ASCII text.
    fn one_of_each() -> Vec<TraceEvent> {
        let name = "q\"b\\c\n\t\r\u{1}λ→x";
        vec![
            TraceEvent::RunBegin {
                substrate: name.into(),
                input_len: 48,
            },
            TraceEvent::InputSize { input_len: 96 },
            TraceEvent::TapeRegistered {
                tape: 2,
                name: name.into(),
            },
            TraceEvent::PhaseBegin { name: name.into() },
            TraceEvent::PhaseEnd { name: name.into() },
            TraceEvent::ScanStart { op: name.into() },
            TraceEvent::ScanEnd { op: name.into() },
            TraceEvent::Reversal { tape: 1, total: 9 },
            TraceEvent::HeadMoves {
                tape: 0,
                total: u64::MAX,
            },
            TraceEvent::StepBatch { steps: 0 },
            TraceEvent::MemCharge { bits: 64 },
            TraceEvent::MemRelease { bits: 64 },
            TraceEvent::MemPeak { bits: 100 },
            TraceEvent::Fault {
                tape: 3,
                kind: FaultKind::BitFlip,
            },
            TraceEvent::Retry {
                attempt: 2,
                reason: name.into(),
            },
            TraceEvent::TapeExtent { tape: 0, cells: 48 },
            TraceEvent::RunUsage {
                usage: ResourceUsage {
                    input_len: 10,
                    reversals_per_tape: vec![1, 0, u64::MAX],
                    external_tapes: 3,
                    internal_space: 7,
                    steps: 99,
                    external_cells: 30,
                },
            },
            TraceEvent::CrashInjected { at_byte: 7777 },
            TraceEvent::Recovery {
                committed: 1024,
                discarded: 13,
            },
        ]
    }

    #[test]
    fn appended_lines_equal_owned_lines_and_parse_back() {
        let events = one_of_each();
        let mut jsonl = String::new();
        for ev in &events {
            let mut out = String::from("kept|");
            ev.write_json_line(&mut out);
            let line = ev.to_json_line();
            assert_eq!(out, format!("kept|{line}"), "{ev:?}");
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(TraceEvent::from_json_line(&line).unwrap(), *ev, "{line}");
            jsonl.push_str(&line);
            jsonl.push('\n');
        }
        assert_eq!(to_jsonl(&events), jsonl);
        assert_eq!(to_jsonl(&[]), "");
        let back: Vec<TraceEvent> = jsonl
            .lines()
            .map(|l| TraceEvent::from_json_line(l).unwrap())
            .collect();
        assert_eq!(back, events);
    }

    #[test]
    fn names_are_escaped_on_the_wire() {
        let line = TraceEvent::PhaseBegin {
            name: "q\"b\\c\n\t\r\u{1}λ".into(),
        }
        .to_json_line();
        assert_eq!(
            line,
            r#"{"ev":"phase_begin","name":"q\"b\\c\n\t\r\u0001λ"}"#
        );
    }

    #[test]
    fn fault_kind_names_are_stable() {
        for kind in [
            FaultKind::BitFlip,
            FaultKind::TransientRead,
            FaultKind::StuckWrite,
            FaultKind::TornWrite,
        ] {
            assert_eq!(FaultKind::parse_wire(kind.as_str()), Some(kind));
        }
        assert_eq!(FaultKind::parse_wire("cosmic_ray"), None);
    }

    #[test]
    fn unknown_event_kind_is_an_error() {
        assert!(TraceEvent::from_json_line(r#"{"ev":"warp_drive"}"#).is_err());
    }

    #[test]
    fn missing_field_is_an_error() {
        assert!(TraceEvent::from_json_line(r#"{"ev":"reversal","tape":1}"#).is_err());
    }

    #[test]
    fn lossy_reader_tolerates_only_a_torn_final_line() {
        let dir = std::env::temp_dir().join(format!("st_trace_lossy_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Torn final line: events before it survive, a warning names it.
        let torn = dir.join("torn.jsonl");
        let good = TraceEvent::StepBatch { steps: 5 }.to_json_line();
        std::fs::write(&torn, format!("{good}\n{good}\n{{\"ev\":\"step_ba")).unwrap();
        let (events, warning) = read_jsonl_lossy(&torn).unwrap();
        assert_eq!(events.len(), 2);
        let warning = warning.expect("torn tail must warn");
        assert!(warning.contains("torn.jsonl:3"), "warning was: {warning}");
        // The strict reader still refuses the same file.
        assert!(read_jsonl(&torn).is_err());

        // A clean file yields no warning.
        let clean = dir.join("clean.jsonl");
        std::fs::write(&clean, format!("{good}\n")).unwrap();
        let (events, warning) = read_jsonl_lossy(&clean).unwrap();
        assert_eq!(events.len(), 1);
        assert!(warning.is_none());

        // Corruption in the *middle* is still a hard error.
        let mid = dir.join("mid.jsonl");
        std::fs::write(&mid, format!("{good}\nnot json\n{good}\n")).unwrap();
        assert!(read_jsonl_lossy(&mid).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }
}
