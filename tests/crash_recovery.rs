//! Integration: the durable journal, crash injection, and mid-run recovery.
//!
//! The contract under test is the durable layer's acceptance criterion:
//! kill the journaled merge sort at **every** byte offset of its
//! write-ahead journal and the recovered run must produce output
//! byte-identical to the uninterrupted one — and the trace emitted
//! across all incarnations must replay to exactly the measured
//! (absorbed) resource usage.

use st_algo::{durable_sort, sort_with_crashes, DurableSortRun};
use st_core::ResourceUsage;
use st_extmem::block::DEFAULT_BLOCK;
use st_extmem::durable::frame::HEADER_LEN;
use st_extmem::durable::{decode_frames, FrameTag};
use st_trace::Tracer;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("st_crash_recovery_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn workload(m: i64) -> Vec<i64> {
    (0..m).map(|i| (i * 37 + 5) % m).collect()
}

#[test]
fn crash_at_every_journal_byte_recovers_byte_identically() {
    let dir = tmp_dir("sweep");
    let m = 24usize;
    let items = workload(m as i64);
    let mut expect = items.clone();
    expect.sort();

    let baseline =
        durable_sort(&dir.join("base.wal"), items.clone(), m, &Tracer::disabled()).unwrap();
    assert_eq!(baseline.sorted, expect, "the uninterrupted run must sort");
    assert!(baseline.journal_bytes > 0);

    // Exhaustive: one run per journal byte, killed at exactly that byte.
    let path = dir.join("crash.wal");
    for k in 0..baseline.journal_bytes {
        let run = sort_with_crashes(&path, items.clone(), m, &[k], &Tracer::disabled()).unwrap();
        assert_eq!(
            run.sorted, baseline.sorted,
            "crash at journal byte {k} recovered to a different output"
        );
        assert_eq!(run.crashes, 1, "the planned crash at byte {k} must fire");
        assert_eq!(run.recoveries, 1);
        assert_eq!(run.incarnations, 2);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Sort `items` through the crash `storm` under an in-memory tracer and
/// audit the trace: every incarnation's claimed usage must survive the
/// replay, and the absorbed per-segment replays must equal the run's
/// summed bill — recovered replays are charged, not forgotten. Returns
/// the run and the trace's aggregate.
fn audited_storm(
    path: &std::path::Path,
    items: &[i64],
    storm: &[u64],
) -> (DurableSortRun<i64>, st_trace::Aggregator) {
    let (tracer, buf) = st_trace::Tracer::in_memory();
    let run = sort_with_crashes(path, items.to_vec(), items.len(), storm, &tracer).unwrap();
    let events = buf.snapshot();
    let report = st_trace::audit(&events);
    assert!(report.ok(), "storm {storm:?}: {report}");
    let mut replayed = ResourceUsage::default();
    for seg in &report.segments {
        replayed.absorb(&seg.metrics.usage());
    }
    assert_eq!(
        replayed, run.usage,
        "storm {storm:?}: replayed usage must equal the measured (absorbed) usage"
    );
    let mut agg = st_trace::Aggregator::new();
    for ev in &events {
        agg.push(ev);
    }
    (run, agg)
}

#[test]
fn recovered_run_trace_replays_to_the_measured_usage() {
    let dir = tmp_dir("replay");
    let m = 32usize;
    let items = workload(m as i64);

    let probe = durable_sort(
        &dir.join("probe.wal"),
        items.clone(),
        m,
        &Tracer::disabled(),
    )
    .unwrap();
    let storm = [probe.journal_bytes / 4, probe.journal_bytes / 2];

    let (run, agg) = audited_storm(&dir.join("storm.wal"), &items, &storm);
    let mut expect = items;
    expect.sort();
    assert_eq!(run.sorted, expect);
    assert_eq!(run.crashes, 2);

    // The crash/recovery counters fold into the aggregate too.
    assert_eq!(agg.crashes(), run.crashes);
    assert_eq!(agg.recoveries(), run.recoveries);
    assert!(
        agg.discarded_bytes() > 0,
        "a mid-pass kill leaves torn bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crashes_inside_every_frame_of_a_multi_block_checkpoint_recover() {
    // Two full blocks and a partial tail: each checkpoint of the data
    // tape is `Reset · Record · Record · Record · Commit`, with the last
    // record a 3-cell block.
    let dir = tmp_dir("multi_block");
    let m = 2 * DEFAULT_BLOCK + 3;
    let items = workload(m as i64);
    let base_path = dir.join("base.wal");
    let baseline = durable_sort(&base_path, items.clone(), m, &Tracer::disabled()).unwrap();
    let mut expect = items.clone();
    expect.sort();
    assert_eq!(baseline.sorted, expect);

    // Walk the fault-free journal into checkpoints of (start, tag,
    // payload length) frames.
    let journal = std::fs::read(&base_path).unwrap();
    let (frames, used) = decode_frames(&journal);
    assert_eq!(used as u64, baseline.journal_bytes);
    let mut checkpoints: Vec<Vec<(u64, FrameTag, usize)>> = Vec::new();
    let mut pos = 0u64;
    for frame in &frames {
        if frame.tag == FrameTag::Reset {
            checkpoints.push(Vec::new());
        }
        let cp = checkpoints
            .last_mut()
            .expect("a checkpoint opens with a reset");
        cp.push((pos, frame.tag, frame.payload.len()));
        pos += (HEADER_LEN + frame.payload.len()) as u64;
    }
    let block_payload = |cells: usize| 4 + cells * (4 + 8);
    for cp in &checkpoints {
        let shape: Vec<_> = cp.iter().map(|&(_, tag, len)| (tag, len)).collect();
        assert_eq!(
            shape,
            [
                (FrameTag::Reset, 0),
                (FrameTag::Record, block_payload(DEFAULT_BLOCK)),
                (FrameTag::Record, block_payload(DEFAULT_BLOCK)),
                (FrameTag::Record, block_payload(3)),
                (FrameTag::Commit, 8),
            ]
        );
    }

    // One mid-sort checkpoint; a crash inside any of its frames rolls
    // back to the commit that ends the checkpoint before it.
    let mid = checkpoints.len() / 2;
    let (resume_at, _, _) = checkpoints[mid][0];
    let path = dir.join("crash.wal");
    for &(start, tag, len) in &checkpoints[mid][1..] {
        let k = start + ((HEADER_LEN + len) / 2) as u64;
        let (run, agg) = audited_storm(&path, &items, &[k]);
        assert_eq!(run.sorted, expect, "crash at byte {k} changed the output");
        assert_eq!((run.crashes, run.incarnations), (1, 2), "crash at byte {k}");
        assert_eq!(
            agg.discarded_bytes(),
            k - resume_at,
            "{tag:?} frame at {start}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_smoke_through_the_bench_registry() {
    // The registry's durable experiments are the user-facing entry point;
    // they must reproduce under the parallel runner exactly like the CI
    // smoke (`report e21 e22 --jobs 2`).
    let selected: Vec<_> = st_bench::all_experiments()
        .into_iter()
        .filter(|e| e.id == "e21" || e.id == "e22")
        .collect();
    assert_eq!(selected.len(), 2);
    let outcome = st_bench::runner::run_experiments(
        &selected,
        &st_bench::runner::RunOptions {
            jobs: 2,
            trace_dir: None,
            timing: st_bench::runner::TimingMode::default(),
        },
    )
    .unwrap();
    assert_eq!(outcome.failures(), 0, "{:?}", outcome.reports);
}
