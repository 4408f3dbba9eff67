//! Checkpointable external merge sort over a durable journal: a run
//! crashed mid-merge-pass resumes from the last committed pass.
//!
//! The paper's merge sort ([`st_extmem::sort::merge_sort`]) doubles the
//! run length once per pass; every pass boundary is a scan boundary and
//! therefore a natural recovery point. This module makes those points
//! *durable*: after each pass the data tape is checkpointed into a
//! write-ahead journal (`Reset · Block* · Commit`: each block is one
//! `Record` frame holding up to [`DEFAULT_BLOCK`] records, see
//! [`st_extmem::durable`]), with the commit metadata carrying the next
//! pass's run length. A crash anywhere — mid-distribute, mid-merge, or
//! mid-checkpoint — rolls back to the previous commit on reopen, and the
//! resumed incarnation replays from exactly that pass.
//!
//! Accounting is honest across the crash: every incarnation (including
//! ones that died) reports its machine's [`ResourceUsage`], and the
//! harness [`absorb`](ResourceUsage::absorb)s them, so recovered replays
//! are *charged* — the recovery-overhead curve in `st-bench` measures
//! precisely this surcharge. The persistence cost itself is also honest:
//! each checkpoint streams the data tape onto a mirror tape **inside**
//! the machine (tape 3), so the extra scan's reversals and head moves
//! land in the same audited usage record as the sort proper.
//!
//! Determinism guarantee (pinned by the conformance oracle and the
//! crash-at-every-offset root test): for *any* planned crash points, the
//! recovered sort's output is byte-identical to the uninterrupted run's.

use st_core::{ResourceUsage, StError};
use st_extmem::block::{distribute_runs, merge_runs, DEFAULT_BLOCK};
use st_extmem::durable::{decode_block, encode_block, DurableRecord, Recovery, Wal};
use st_extmem::TapeMachine;
use st_trace::{TraceEvent, Tracer};
use std::path::Path;

/// The result of a durable sort driven through a crash schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableSortRun<S> {
    /// The sorted records.
    pub sorted: Vec<S>,
    /// Resource usage summed over every incarnation, crashed ones
    /// included (recovered replays are charged).
    pub usage: ResourceUsage,
    /// Machine incarnations run (1 = no crash ever fired).
    pub incarnations: u64,
    /// Planned crashes that actually fired.
    pub crashes: u64,
    /// Journal recoveries performed (reopens of a non-fresh journal).
    pub recoveries: u64,
    /// Committed journal bytes at the end of the run.
    pub journal_bytes: u64,
}

/// Sort `items` durably, journaling checkpoints to `journal`, with no
/// planned crashes. Equivalent to `sort_with_crashes(journal, items,
/// input_len, &[], tracer)`.
pub fn durable_sort<S: Clone + Ord + DurableRecord>(
    journal: &Path,
    items: Vec<S>,
    input_len: usize,
    tracer: &Tracer,
) -> Result<DurableSortRun<S>, StError> {
    sort_with_crashes(journal, items, input_len, &[], tracer)
}

/// Sort `items` durably while a crash storm kills the run at each
/// planned journal byte offset in `crash_points`, in order.
///
/// Each incarnation consumes one crash point: the journal is cut at
/// exactly that absolute byte (the torn tail is left on disk), the
/// incarnation dies with [`StError::Crashed`], and the next incarnation
/// reopens the journal, rolls back to the last commit, and resumes from
/// the pass recorded in the commit metadata. Once the schedule is
/// exhausted the final incarnation runs to completion — so the function
/// terminates for *any* schedule, even one whose offsets are already
/// behind the committed prefix. Such a stale offset still consumes its
/// slot, but fires only at the incarnation's first journal write: at
/// once when nothing was committed yet, else at the checkpoint after
/// one merge pass (whose work is done and charged but lost), or never
/// when the recovered checkpoint is already fully sorted.
///
/// Every incarnation's journal and machine trace on `tracer`.
pub fn sort_with_crashes<S: Clone + Ord + DurableRecord>(
    journal: &Path,
    items: Vec<S>,
    input_len: usize,
    crash_points: &[u64],
    tracer: &Tracer,
) -> Result<DurableSortRun<S>, StError> {
    let mut schedule = crash_points.iter().copied();
    let mut usage = ResourceUsage::default();
    let mut incarnations = 0u64;
    let mut crashes = 0u64;
    let mut recoveries = 0u64;

    loop {
        let crash_at = schedule.next();
        let fresh = incarnations == 0;
        incarnations += 1;

        // First incarnation starts a fresh journal; every later one
        // recovers from what the crash left behind.
        let (mut wal, start) = if fresh {
            (Wal::create(journal, crash_at, tracer.clone())?, None)
        } else {
            let (wal, recovery) = Wal::open(journal, crash_at, tracer.clone())?;
            recoveries += 1;
            (wal, Some(recovery))
        };

        // `resumed`: the journal's last commit holds this data and run
        // length.
        let (data, run_len, resumed) = match &start {
            // Nothing committed yet (crash before the first checkpoint):
            // restart from the original input.
            None => (items.clone(), 1usize, false),
            Some(r) if r.is_empty() => (items.clone(), 1usize, false),
            Some(r) => (decode_checkpoint(r)?, checkpoint_run_len(r)?, true),
        };

        if !fresh {
            let attempt = incarnations;
            let resumed_at = run_len;
            wal.tracer().emit(|| TraceEvent::Retry {
                attempt,
                reason: format!("crash recovery: resumed at run_len={resumed_at}"),
            });
        }

        match sort_incarnation(&mut wal, data, input_len, run_len, resumed) {
            Ok((sorted, inc_usage)) => {
                usage.absorb(&inc_usage);
                return Ok(DurableSortRun {
                    sorted,
                    usage,
                    incarnations,
                    crashes,
                    recoveries,
                    journal_bytes: wal.committed_len(),
                });
            }
            Err((StError::Crashed(_), inc_usage)) => {
                crashes += 1;
                usage.absorb(&inc_usage);
                // Loop: the next incarnation recovers and resumes.
            }
            Err((e, _)) => return Err(e),
        }
    }
}

/// One machine incarnation: run merge passes from `run_len` upward,
/// checkpointing the data tape after every pass. A `resumed`
/// incarnation starts from the journal's last commit; any other one
/// first checkpoints its starting state. On error the usage of the
/// work done so far still comes back, so crashed incarnations are
/// charged.
#[allow(clippy::type_complexity)]
fn sort_incarnation<S: Clone + Ord + DurableRecord>(
    wal: &mut Wal,
    data: Vec<S>,
    input_len: usize,
    mut run_len: usize,
    resumed: bool,
) -> Result<(Vec<S>, ResourceUsage), (StError, ResourceUsage)> {
    let m = data.len();
    let mut machine = TapeMachine::with_input(data, input_len, wal.tracer().clone());
    let s1 = machine.add_tape("scratch1");
    let s2 = machine.add_tape("scratch2");
    let mirror = machine.add_tape("durable-mirror");
    let meter = machine.meter().clone();
    let tracer = machine.tracer().clone();

    let mut step = || -> Result<Vec<S>, StError> {
        // A crash in this incarnation's first pass must roll back to its
        // starting state: checkpoint it unless the journal's last commit
        // already holds it.
        if !resumed {
            checkpoint(wal, &mut machine, 0, mirror, run_len)?;
        }
        while run_len < m {
            tracer.emit(|| TraceEvent::PhaseBegin {
                name: format!("durable merge pass run_len={run_len}"),
            });
            {
                let (d, a, b) = machine.trio_mut(0, s1, s2);
                distribute_runs(d, a, b, run_len, &meter)?;
            }
            {
                let (a, b, d) = machine.trio_mut(s1, s2, 0);
                merge_runs(a, b, d, run_len, &meter, DEFAULT_BLOCK)?;
            }
            tracer.emit(|| TraceEvent::PhaseEnd {
                name: format!("durable merge pass run_len={run_len}"),
            });
            run_len = run_len.saturating_mul(2);
            checkpoint(wal, &mut machine, 0, mirror, run_len)?;
        }
        Ok(machine.tape(0).snapshot())
    };

    match step() {
        Ok(sorted) => Ok((sorted, machine.usage())),
        Err(e) => Err((e, machine.usage())),
    }
}

/// Persist the data tape as one atomic checkpoint: journal a reset,
/// then the tape in slices of [`DEFAULT_BLOCK`] records, each one
/// [`encode_block`] frame journaled ahead of its mirror write, then a
/// commit whose metadata records `next_run_len`. The mirror scan is a
/// real scan — its reversals and moves are part of the machine's usage.
fn checkpoint<S: Clone + DurableRecord>(
    wal: &mut Wal,
    machine: &mut TapeMachine<S>,
    data_idx: usize,
    mirror_idx: usize,
    next_run_len: usize,
) -> Result<(), StError> {
    wal.append_reset()?;
    {
        let (data, mirror) = machine.pair_mut(data_idx, mirror_idx);
        data.rewind();
        mirror.reset_for_overwrite();
        loop {
            let block = data.read_slice_fwd(DEFAULT_BLOCK);
            if block.is_empty() {
                break;
            }
            wal.append_record(&encode_block(block)?)?;
            mirror.write_slice_fwd(block)?;
        }
        data.rewind();
    }
    wal.commit(&(next_run_len as u64).to_le_bytes())
}

/// Decode a recovered checkpoint's blocks into the data-tape contents.
fn decode_checkpoint<S: DurableRecord>(recovery: &Recovery) -> Result<Vec<S>, StError> {
    let mut items = Vec::new();
    for block in &recovery.records {
        items.extend(decode_block::<S>(block)?);
    }
    Ok(items)
}

/// The run length stored in a recovered commit's metadata.
fn checkpoint_run_len(recovery: &Recovery) -> Result<usize, StError> {
    let meta = recovery
        .last_commit
        .as_deref()
        .ok_or_else(|| StError::Machine("checkpoint recovery without a commit".into()))?;
    let bytes: [u8; 8] = meta.try_into().map_err(|_| {
        StError::Machine(format!(
            "checkpoint commit metadata has {} byte(s), expected 8",
            meta.len()
        ))
    })?;
    Ok(u64::from_le_bytes(bytes) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("st_durable_sort_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn reversed(n: i64) -> Vec<i64> {
        (0..n).rev().collect()
    }

    #[test]
    fn crash_free_durable_sort_matches_std_sort() {
        let path = tmp("crash_free.wal");
        let items = vec![5i64, 3, 9, 1, 1, 8, 0, 2];
        let mut expect = items.clone();
        expect.sort();
        let run = durable_sort(&path, items, 8, &Tracer::disabled()).unwrap();
        assert_eq!(run.sorted, expect);
        assert_eq!(run.incarnations, 1);
        assert_eq!(run.crashes, 0);
        assert_eq!(run.recoveries, 0);
        assert!(run.journal_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn single_crash_recovers_to_the_identical_output() {
        let path_a = tmp("single_a.wal");
        let path_b = tmp("single_b.wal");
        let items = reversed(32);
        let baseline = durable_sort(&path_a, items.clone(), 32, &Tracer::disabled()).unwrap();

        // Crash roughly mid-journal.
        let k = baseline.journal_bytes / 2;
        let crashed = sort_with_crashes(&path_b, items, 32, &[k], &Tracer::disabled()).unwrap();
        assert_eq!(crashed.sorted, baseline.sorted);
        assert_eq!(crashed.crashes, 1);
        assert_eq!(crashed.recoveries, 1);
        assert_eq!(crashed.incarnations, 2);
        // The recovered run paid for the replay: strictly more steps.
        assert!(crashed.usage.steps > baseline.usage.steps);
        std::fs::remove_file(&path_a).ok();
        std::fs::remove_file(&path_b).ok();
    }

    #[test]
    fn crash_storm_still_sorts() {
        let path_a = tmp("storm_a.wal");
        let path_b = tmp("storm_b.wal");
        let items: Vec<i64> = (0..48).map(|i| (i * 31) % 17).collect();
        let baseline = durable_sort(&path_a, items.clone(), 48, &Tracer::disabled()).unwrap();

        // Seven crashes spread over the journal, not in order of size —
        // including one at byte 0 (dies before anything persists) and
        // one far beyond the journal (never fires).
        let total = baseline.journal_bytes;
        let storm = [
            total / 3,
            0,
            total / 2,
            total - 1,
            10,
            total / 4,
            total * 10,
        ];
        let run = sort_with_crashes(&path_b, items, 48, &storm, &Tracer::disabled()).unwrap();
        assert_eq!(run.sorted, baseline.sorted);
        assert!(run.crashes >= 5, "only {} crashes fired", run.crashes);
        assert_eq!(run.incarnations, run.crashes + 1);
        assert_eq!(run.recoveries, run.incarnations - 1);
        std::fs::remove_file(&path_a).ok();
        std::fs::remove_file(&path_b).ok();
    }

    #[test]
    fn empty_and_singleton_inputs_survive_crashes() {
        for (i, items) in [vec![], vec![7i64]].into_iter().enumerate() {
            let path = tmp(&format!("tiny_{i}.wal"));
            let expect = items.clone();
            let run = sort_with_crashes(&path, items, 1, &[3], &Tracer::disabled()).unwrap();
            assert_eq!(run.sorted, expect);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn recovered_run_emits_retry_and_recovery_events() {
        let path = tmp("events.wal");
        let items = reversed(16);
        let (tracer, buf) = st_trace::Tracer::in_memory();
        sort_with_crashes(&path, items, 16, &[60], &tracer).unwrap();
        let events = buf.snapshot();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::CrashInjected { at_byte: 60 })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Recovery { .. })));
        assert!(events.iter().any(
            |e| matches!(e, TraceEvent::Retry { reason, .. } if reason.contains("crash recovery"))
        ));
        // Every incarnation's claimed usage must survive the replay audit.
        let report = st_trace::audit(&events);
        assert!(report.ok(), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reversal_budget_holds_per_incarnation() {
        // A crash-free durable sort pays the merge-sort budget plus one
        // checkpoint scan (2 reversals on data, ~1 on mirror) per pass:
        // comfortably within 16·⌈log₂ m⌉ + 16.
        for logm in 1..=8 {
            let m = 1usize << logm;
            let path = tmp(&format!("budget_{logm}.wal"));
            let run = durable_sort(&path, reversed(m as i64), m, &Tracer::disabled()).unwrap();
            assert!(
                run.usage.total_reversals() <= 16 * logm as u64 + 16,
                "m=2^{logm}: {} reversals exceed 16·log m + 16",
                run.usage.total_reversals()
            );
            std::fs::remove_file(&path).ok();
        }
    }
}
