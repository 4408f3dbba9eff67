//! The observable behavior of the tape substrate's entry points, pinned
//! to the numbers the cell-at-a-time substrate produced before the block
//! kernels became the only scan path: the Corollary 7 deciders' verdicts
//! and `ResourceUsage`, the fault-resilient sort under a seeded fault
//! plan (output, usage, fault statistics and a digest of its JSONL
//! trace), and a durable sort that crashes once (output and committed
//! journal bytes).

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_algo::resilient::resilient_sort;
use st_algo::sortcheck::{
    decide_check_sort, decide_multiset_equality, decide_set_equality, DeciderRun,
};
use st_algo::{durable_sort, sort_with_crashes};
use st_core::{ResourceUsage, RetryBudget, StError, Verdict};
use st_extmem::{FaultPlan, FaultStats};
use st_problems::{generate, BitStr, Instance};
use st_trace::Tracer;

/// FNV-1a over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn instances() -> Vec<Instance> {
    vec![
        Instance::parse("").unwrap(),
        Instance::parse("0#0#1#0#1#1#").unwrap(),
        generate::yes_multiset(40, 9, &mut StdRng::seed_from_u64(1501)),
        generate::no_multiset_one_bit(40, 9, &mut StdRng::seed_from_u64(1502)),
        generate::random_instance(33, 3, &mut StdRng::seed_from_u64(1503)),
        generate::yes_checksort(48, 7, &mut StdRng::seed_from_u64(1504)),
        generate::no_checksort_sorted_but_wrong(48, 7, &mut StdRng::seed_from_u64(1505)),
        generate::yes_set_distinct(300, 12, &mut StdRng::seed_from_u64(1506)),
        generate::yes_multiset(2000, 10, &mut StdRng::seed_from_u64(1507)),
    ]
}

type Decider = fn(&Instance) -> Result<DeciderRun, StError>;
const MS: Decider = decide_multiset_equality;
const CS: Decider = decide_check_sort;
const SE: Decider = decide_set_equality;

/// (instance, decider, accepted, N, reversals per tape, internal bits,
/// steps, external cells) on the 4-tape sort-route machine.
type Pin = (usize, Decider, bool, usize, [u64; 4], u64, u64, u64);

#[test]
fn deciders_keep_their_verdicts_and_usage() {
    #[rustfmt::skip]
    let pinned: [Pin; 27] = [
        (0, MS, true, 0, [0, 0, 0, 0], 2, 0, 0),
        (0, CS, true, 0, [0, 0, 0, 0], 3, 0, 0),
        (0, SE, true, 0, [0, 0, 0, 0], 4, 0, 0),
        (1, MS, false, 12, [8, 8, 14, 14], 6, 97, 9),
        (1, CS, false, 12, [8, 0, 6, 6], 6, 51, 9),
        (1, SE, true, 12, [8, 8, 14, 14], 6, 99, 9),
        (2, MS, true, 800, [24, 24, 46, 46], 14, 3880, 120),
        (2, CS, false, 800, [24, 0, 22, 22], 14, 1960, 120),
        (2, SE, true, 800, [24, 24, 46, 46], 14, 3880, 120),
        (3, MS, false, 800, [24, 24, 46, 46], 14, 3858, 120),
        (3, CS, false, 800, [24, 0, 22, 22], 14, 1960, 120),
        (3, SE, false, 800, [24, 24, 46, 46], 14, 3858, 120),
        (4, MS, false, 264, [24, 24, 46, 46], 14, 3141, 99),
        (4, CS, false, 264, [24, 0, 22, 22], 14, 1617, 99),
        (4, SE, true, 264, [24, 24, 46, 46], 14, 3201, 99),
        (5, MS, true, 768, [24, 24, 46, 46], 14, 4656, 144),
        (5, CS, true, 768, [24, 0, 22, 22], 14, 2352, 144),
        (5, SE, true, 768, [24, 24, 46, 46], 14, 4656, 144),
        (6, MS, false, 768, [24, 24, 46, 46], 14, 4586, 144),
        (6, CS, false, 768, [24, 0, 22, 22], 14, 2352, 144),
        (6, SE, false, 768, [24, 24, 46, 46], 14, 4586, 144),
        (7, MS, true, 7800, [36, 36, 70, 70], 20, 43500, 900),
        (7, CS, false, 7800, [36, 0, 34, 34], 20, 21900, 900),
        (7, SE, true, 7800, [36, 36, 70, 70], 20, 43500, 900),
        (8, MS, true, 44000, [44, 44, 86, 86], 24, 354000, 6000),
        (8, CS, false, 44000, [44, 0, 42, 42], 24, 178000, 6000),
        (8, SE, true, 44000, [44, 44, 86, 86], 24, 354000, 6000),
    ];
    let insts = instances();
    for (i, decide, accepted, input_len, revs, space, steps, cells) in pinned {
        let run = decide(&insts[i]).unwrap();
        assert_eq!(run.accepted, accepted, "instance {i}");
        assert_eq!(
            run.usage,
            ResourceUsage {
                input_len,
                reversals_per_tape: revs.to_vec(),
                external_tapes: 4,
                internal_space: space,
                steps,
                external_cells: cells,
            },
            "instance {i}"
        );
    }
}

#[test]
fn resilient_sort_under_faults_keeps_its_output_usage_and_trace() {
    let items: Vec<BitStr> = (0..12u128)
        .map(|i| BitStr::from_value((i * 37 + 11) % 53, 6).unwrap())
        .collect();
    let (tracer, buf) = st_trace::Tracer::in_memory();
    let run = resilient_sort(
        &items,
        items.len() * 7,
        &FaultPlan::uniform(100, 0.08),
        RetryBudget::default(),
        &mut StdRng::seed_from_u64(42),
        &tracer,
    )
    .unwrap();
    assert_eq!(
        run.verdict,
        Verdict::Unverified {
            attempts: 3,
            reason: "working tape not sorted after merge sort".into(),
        }
    );
    assert_eq!(run.attempts, 3);
    assert_eq!(
        run.usage,
        ResourceUsage {
            input_len: 84,
            reversals_per_tape: vec![4, 58, 46, 46],
            external_tapes: 4,
            internal_space: 10,
            steps: 1296,
            external_cells: 36,
        }
    );
    assert_eq!(
        run.faults,
        FaultStats {
            reads: 303,
            writes: 324,
            bit_flips: 19,
            transient_reads: 29,
            stuck_writes: 0,
            torn_writes: 49,
        }
    );
    let events = buf.snapshot();
    let jsonl = st_trace::to_jsonl(&events);
    assert_eq!(
        (events.len(), fnv(jsonl.as_bytes())),
        (406, 0xfb5d_538a_74f7_61db)
    );
}

#[test]
fn durable_sort_with_one_crash_keeps_its_output_and_journal() {
    let dir = std::env::temp_dir().join(format!("st_one_scan_path_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let items: Vec<i64> = (0..40).map(|i| (i * 37 + 5) % 40).collect();
    let base = durable_sort(
        &dir.join("base.wal"),
        items.clone(),
        40,
        &Tracer::disabled(),
    )
    .unwrap();
    assert_eq!(base.journal_bytes, 3633);
    let run = sort_with_crashes(
        &dir.join("crash.wal"),
        items,
        40,
        &[3633 / 3],
        &Tracer::disabled(),
    )
    .unwrap();
    assert_eq!(run.sorted, (0..40).collect::<Vec<i64>>());
    // The resumed incarnation starts from the recovered commit and
    // journals only what the crash cut off: the journal ends byte for
    // byte as the crash-free one.
    assert_eq!((run.crashes, run.journal_bytes), (1, 3633));
    assert_eq!(
        std::fs::read(dir.join("crash.wal")).unwrap(),
        std::fs::read(dir.join("base.wal")).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}
