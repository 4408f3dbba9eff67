//! The block kernels against the cell-at-a-time reference, clean and
//! under fault plans.
//!
//! `st_extmem::block` is the only production scan path; `st_extmem::scan`
//! is the per-cell specification it must reproduce. Every combinator and
//! `sort::merge_sort` runs here at block lengths (or step budgets)
//! {1, 2, 3, 7, 64, 4096}, on a clean medium and under
//! `FaultPlan::uniform(seed, 0.1)` and `FaultPlan::uniform(seed, 0.3)`
//! for three seeds, and must match the reference on the result, every
//! tape's content, head, moves and reversals, the per-tape fault
//! statistics, the meter's high-water mark, and the full trace stream —
//! including where each `Fault` event falls.
//!
//! The sort passes move records per slice across runs (a distribute
//! call splits one slice into run pieces; a merge call merges across run
//! pairs). The run-batching sweeps hold them to the reference for every
//! record count up to 40 and for 1 000 and 1 025, so that tail runs are
//! short, exact or missing: merges and distributes at block lengths
//! {1, 2, 3, 7, 4096}, and the stepped sort at budgets
//! {1, 2, 3, 5, 64, unlimited}, whose yield count must be the one the
//! per-cell price gives. `Tape::write_vec_fwd` is held to
//! `Tape::write_slice_fwd` on empty, full and half-read tapes.

use st_core::StError;
use st_extmem::step::{SortStepper, StepBudget};
use st_extmem::{block, scan, sort, FaultPlan, FaultStats, MemoryMeter, Tape, TapeMachine};
use st_trace::{TraceEvent, Tracer};

const BLOCKS: [usize; 6] = [1, 2, 3, 7, 64, 4096];

/// No plan, then both rates for three seeds.
fn plans() -> Vec<Option<FaultPlan>> {
    let mut plans = vec![None];
    for seed in [5u64, 17, 101] {
        for rate in [0.1, 0.3] {
            plans.push(Some(FaultPlan::uniform(seed, rate)));
        }
    }
    plans
}

/// What one tape exposes after a run.
type TapeView = (Vec<i64>, usize, u64, u64, Option<FaultStats>);

/// Everything observable about a run over loose tapes.
#[derive(Debug, PartialEq)]
struct Observed<R> {
    result: R,
    tapes: Vec<TapeView>,
    high_water: u64,
    trace: Vec<TraceEvent>,
}

/// Run `f` over tapes holding `inputs`, every tape and the meter tracing
/// into one stream, all tapes under `plan`.
fn observe<R>(
    inputs: &[Vec<i64>],
    plan: Option<&FaultPlan>,
    f: impl FnOnce(&mut [Tape<i64>], &MemoryMeter) -> R,
) -> Observed<R> {
    let (tracer, buf) = Tracer::in_memory();
    let meter = MemoryMeter::with_tracer(tracer.clone());
    let mut tapes: Vec<Tape<i64>> = inputs
        .iter()
        .enumerate()
        .map(|(i, items)| {
            let mut t = Tape::from_items(format!("t{i}"), items.clone());
            t.set_tracer(tracer.clone(), i);
            // Park the head past the data, as a previous pass leaves it,
            // so the combinator's rewind and first read each turn the
            // head around and emit a `Reversal`.
            t.seek_end();
            if let Some(plan) = plan {
                t.enable_faults(plan);
            }
            t
        })
        .collect();
    let result = f(&mut tapes, &meter);
    Observed {
        result,
        tapes: tapes
            .iter()
            .map(|t| {
                (
                    t.snapshot(),
                    t.head(),
                    t.moves(),
                    t.reversals(),
                    t.fault_stats(),
                )
            })
            .collect(),
        high_water: meter.high_water_bits(),
        trace: buf.snapshot(),
    }
}

fn values(n: usize, salt: i64) -> Vec<i64> {
    (0..n as i64).map(|i| (i * 7919 + salt) % 97).collect()
}

/// Every `(inputs, plan, block)` combination: the reference and the
/// kernel must agree, and some faulted run must actually inject faults.
/// Both sides get the block length, for combinators whose slice length
/// is a parameter the reference shares (the distribute run length).
fn assert_parity<R: PartialEq + std::fmt::Debug>(
    what: &str,
    cases: &[Vec<Vec<i64>>],
    cell: impl Fn(&mut [Tape<i64>], &MemoryMeter, usize) -> R,
    blocked: impl Fn(&mut [Tape<i64>], &MemoryMeter, usize) -> R,
) {
    assert_parity_at(what, &BLOCKS, cases, cell, blocked);
}

/// [`assert_parity`] over the block lengths `blocks`.
fn assert_parity_at<R: PartialEq + std::fmt::Debug>(
    what: &str,
    blocks: &[usize],
    cases: &[Vec<Vec<i64>>],
    cell: impl Fn(&mut [Tape<i64>], &MemoryMeter, usize) -> R,
    blocked: impl Fn(&mut [Tape<i64>], &MemoryMeter, usize) -> R,
) {
    let mut injected = 0;
    for inputs in cases {
        for plan in plans() {
            for &blk in blocks {
                let want = observe(inputs, plan.as_ref(), |t, m| cell(t, m, blk));
                injected += want
                    .tapes
                    .iter()
                    .filter_map(|t| t.4)
                    .map(|s| s.total_injected())
                    .sum::<u64>();
                let got = observe(inputs, plan.as_ref(), |t, m| blocked(t, m, blk));
                assert_eq!(
                    got, want,
                    "{what}: block {blk}, plan {plan:?}, inputs {inputs:?}"
                );
            }
        }
    }
    assert!(injected > 0, "{what}: the fault plans never fired");
}

fn pair_cases() -> Vec<Vec<Vec<i64>>> {
    let sorted: Vec<i64> = (0..40).map(|i| i / 3).collect();
    let mut flipped = sorted.clone();
    flipped[17] = 99;
    vec![
        vec![vec![], vec![]],
        vec![vec![4], vec![]],
        vec![vec![], vec![4]],
        vec![sorted.clone(), sorted.clone()],
        vec![sorted.clone(), flipped.clone()],
        vec![flipped.clone(), sorted.clone()],
        vec![sorted[..39].to_vec(), sorted.clone()],
        vec![sorted.clone(), sorted[..30].to_vec()],
        vec![values(45, 3), values(45, 3)],
    ]
}

#[test]
fn copy_tape_matches_the_reference() {
    let cases = vec![
        vec![vec![], values(3, 1)],
        vec![values(1, 0), vec![]],
        vec![values(70, 2), values(9, 5)],
    ];
    assert_parity(
        "copy_tape",
        &cases,
        |t, m, _| {
            let [src, dst] = t else { unreachable!() };
            scan::copy_tape(src, dst, m).map_err(|e| e.to_string())
        },
        |t, m, blk| {
            let [src, dst] = t else { unreachable!() };
            block::copy_tape(src, dst, m, blk).map_err(|e| e.to_string())
        },
    );
}

#[test]
fn tapes_equal_matches_the_reference() {
    assert_parity(
        "tapes_equal",
        &pair_cases(),
        |t, m, _| {
            let [a, b] = t else { unreachable!() };
            scan::tapes_equal(a, b, m)
        },
        |t, m, blk| {
            let [a, b] = t else { unreachable!() };
            block::tapes_equal(a, b, m, blk)
        },
    );
}

#[test]
fn compare_sorted_matches_the_reference() {
    assert_parity(
        "compare_sorted",
        &pair_cases(),
        |t, m, _| {
            let [a, b] = t else { unreachable!() };
            scan::compare_sorted(a, b, m)
        },
        |t, m, blk| {
            let [a, b] = t else { unreachable!() };
            block::compare_sorted(a, b, m, blk)
        },
    );
}

#[test]
fn distribute_runs_matches_the_reference() {
    // `distribute_runs` moves whole runs as slices, so its slice length
    // is the run length: sweep that.
    let cases = vec![
        vec![vec![], vec![], vec![]],
        vec![values(1, 0), values(2, 1), vec![]],
        vec![values(75, 4), values(5, 2), values(30, 3)],
    ];
    assert_parity(
        "distribute_runs",
        &cases,
        |t, m, run_len| {
            let [src, o1, o2] = t else { unreachable!() };
            scan::distribute_runs(src, o1, o2, run_len, m).map_err(|e| e.to_string())
        },
        |t, m, run_len| {
            let [src, o1, o2] = t else { unreachable!() };
            block::distribute_runs(src, o1, o2, run_len, m).map_err(|e| e.to_string())
        },
    );
}

#[test]
fn merge_runs_matches_the_reference() {
    // Runs need not be sorted: the merge only compares fronts, so parity
    // must hold on arbitrary content too.
    let cases = vec![
        vec![vec![], vec![], values(4, 0)],
        vec![values(5, 1), vec![], vec![]],
        vec![vec![], values(5, 1), vec![]],
        vec![values(33, 2), values(29, 7), values(3, 0)],
        vec![(0..24).collect(), (0..24).rev().collect(), vec![]],
        vec![vec![3; 20], vec![3; 13], vec![]],
        // Ties against a pending opening record of either input: `in1`
        // must win them.
        vec![
            vec![1; 24],
            [0].into_iter().chain([1; 24]).collect(),
            vec![],
        ],
        vec![
            [0].into_iter().chain([1; 24]).collect(),
            vec![1; 24],
            vec![],
        ],
    ];
    for run_len in [1usize, 2, 5, 16, 64] {
        assert_parity(
            "merge_runs",
            &cases,
            |t, m, _| {
                let [in1, in2, out] = t else { unreachable!() };
                scan::merge_runs(in1, in2, out, run_len, m).map_err(|e| e.to_string())
            },
            |t, m, blk| {
                let [in1, in2, out] = t else { unreachable!() };
                block::merge_runs(in1, in2, out, run_len, m, blk).map_err(|e| e.to_string())
            },
        );
    }
}

/// The reference sort: the balanced merge sort's passes, spelled out
/// with the per-cell scans.
fn reference_sort(machine: &mut TapeMachine<i64>) -> Result<(), StError> {
    let m = machine.tape(0).len();
    let meter = machine.meter().clone();
    let mut run_len = 1usize;
    while run_len < m {
        machine.tracer().emit(|| TraceEvent::PhaseBegin {
            name: format!("merge pass run_len={run_len}"),
        });
        let (data, s1, s2) = machine.trio_mut(0, 1, 2);
        scan::distribute_runs(data, s1, s2, run_len, &meter)?;
        let (s1, s2, data) = machine.trio_mut(1, 2, 0);
        scan::merge_runs(s1, s2, data, run_len, &meter)?;
        machine.tracer().emit(|| TraceEvent::PhaseEnd {
            name: format!("merge pass run_len={run_len}"),
        });
        run_len *= 2;
    }
    Ok(())
}

type SortObserved = (
    Result<(), String>,
    Vec<Vec<i64>>,
    st_core::ResourceUsage,
    Vec<Option<FaultStats>>,
    Vec<TraceEvent>,
);

fn observe_sort(
    items: &[i64],
    plan: Option<&FaultPlan>,
    sort: impl FnOnce(&mut TapeMachine<i64>) -> Result<(), StError>,
) -> SortObserved {
    let (tracer, buf) = Tracer::in_memory();
    let mut machine = TapeMachine::with_input(items.to_vec(), items.len().max(1), tracer);
    machine.add_tape("scratch1");
    machine.add_tape("scratch2");
    if let Some(plan) = plan {
        for i in 0..3 {
            machine.enable_faults(i, plan);
        }
    }
    let result = sort(&mut machine).map_err(|e| e.to_string());
    let usage = machine.usage();
    (
        result,
        (0..3).map(|i| machine.tape(i).snapshot()).collect(),
        usage,
        (0..3).map(|i| machine.tape(i).fault_stats()).collect(),
        buf.snapshot(),
    )
}

#[test]
fn merge_sort_matches_the_reference_at_every_budget() {
    let inputs = [
        vec![],
        vec![7],
        vec![2, 1],
        values(23, 0),
        (0..40).rev().collect(),
        vec![5; 17],
    ];
    let mut injected = 0;
    for items in &inputs {
        for plan in plans() {
            let want = observe_sort(items, plan.as_ref(), reference_sort);
            injected += want
                .3
                .iter()
                .flatten()
                .map(FaultStats::total_injected)
                .sum::<u64>();
            let batch = observe_sort(items, plan.as_ref(), |m| sort::merge_sort(m, 0, 1, 2));
            assert_eq!(batch, want, "batch sort, plan {plan:?}, items {items:?}");
            for budget in BLOCKS {
                let stepped = observe_sort(items, plan.as_ref(), |m| {
                    let mut stepper = SortStepper::new(0, 1, 2);
                    while !stepper
                        .step(m, &mut StepBudget::new(budget as u64))?
                        .is_done()
                    {}
                    Ok(())
                });
                assert_eq!(
                    stepped, want,
                    "budget {budget}, plan {plan:?}, items {items:?}"
                );
            }
        }
    }
    assert!(injected > 0, "the fault plans never fired");
}

/// A record ordered by `key` alone, so equal keys from different inputs
/// tie while `from` still tells them apart in the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tagged {
    key: u8,
    from: u8,
}

impl PartialOrd for Tagged {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tagged {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

#[test]
fn merge_ties_go_to_the_first_input_like_the_reference() {
    let tagged = |from: u8, keys: &[u8]| -> Vec<Tagged> {
        keys.iter().map(|&key| Tagged { key, from }).collect()
    };
    let ones: Vec<u8> = std::iter::once(0).chain([1; 24]).collect();
    let cases = [
        (tagged(1, &[1; 24]), tagged(2, &ones)),
        (tagged(1, &ones), tagged(2, &[1; 24])),
        (tagged(1, &[0, 2, 2, 3, 3]), tagged(2, &[1, 2, 3, 3, 3])),
    ];
    for (xs, ys) in cases {
        for run_len in [1usize, 3, 8, 64] {
            let meter = MemoryMeter::new();
            // `None` merges with the reference, `Some(block)` with the kernel.
            let merged = |blk: Option<usize>| {
                let mut a = Tape::from_items("a", xs.clone());
                let mut b = Tape::from_items("b", ys.clone());
                let mut out = Tape::new("out");
                match blk {
                    None => scan::merge_runs(&mut a, &mut b, &mut out, run_len, &meter),
                    Some(blk) => block::merge_runs(&mut a, &mut b, &mut out, run_len, &meter, blk),
                }
                .unwrap();
                out.snapshot()
            };
            let want = merged(None);
            for blk in BLOCKS {
                let got = merged(Some(blk));
                assert_eq!(got, want, "run_len {run_len}, block {blk}");
            }
        }
    }
}

/// Record counts for the run-batching sweeps: every count up to 40, so
/// the tail run of each pass is short, exact or missing in turn, and two
/// larger ones (a power-of-two-free 1 000 and 2¹⁰ + 1, whose last pass
/// merges one full run with a single record).
fn batching_counts() -> Vec<usize> {
    (0..=40).chain([1000, 1025]).collect()
}

/// The block lengths of the run-batching sweeps.
const BATCH_BLOCKS: [usize; 5] = [1, 2, 3, 7, 4096];

/// The layout a distribute pass leaves: runs of `run_len` records of
/// `items`, alternately on the first and the second tape.
fn distributed(items: &[i64], run_len: usize) -> [Vec<i64>; 2] {
    let mut outs = [Vec::new(), Vec::new()];
    for (k, run) in items.chunks(run_len).enumerate() {
        outs[k % 2].extend_from_slice(run);
    }
    outs
}

#[test]
fn batched_merges_match_the_reference_on_every_tail() {
    for run_len in [1usize, 2, 3, 5] {
        let cases: Vec<Vec<Vec<i64>>> = batching_counts()
            .into_iter()
            .map(|m| {
                let [in1, in2] = distributed(&values(m, m as i64), run_len);
                vec![in1, in2, vec![]]
            })
            .collect();
        assert_parity_at(
            &format!("merge_runs run_len={run_len}"),
            &BATCH_BLOCKS,
            &cases,
            |t, m, _| {
                let [in1, in2, out] = t else { unreachable!() };
                scan::merge_runs(in1, in2, out, run_len, m).map_err(|e| e.to_string())
            },
            |t, m, blk| {
                let [in1, in2, out] = t else { unreachable!() };
                block::merge_runs(in1, in2, out, run_len, m, blk).map_err(|e| e.to_string())
            },
        );
    }
}

#[test]
fn batched_distributes_match_the_reference_on_every_tail() {
    // The run length takes the block lengths' values, as in
    // `distribute_runs_matches_the_reference`.
    let cases: Vec<Vec<Vec<i64>>> = batching_counts()
        .into_iter()
        .map(|m| vec![values(m, 1), values(3, 2), vec![]])
        .collect();
    assert_parity_at(
        "distribute_runs",
        &BATCH_BLOCKS,
        &cases,
        |t, m, run_len| {
            let [src, o1, o2] = t else { unreachable!() };
            scan::distribute_runs(src, o1, o2, run_len, m).map_err(|e| e.to_string())
        },
        |t, m, run_len| {
            let [src, o1, o2] = t else { unreachable!() };
            block::distribute_runs(src, o1, o2, run_len, m).map_err(|e| e.to_string())
        },
    );
}

/// The stepped sort's budget units at the per-cell price: per pass one
/// unit to open it, one per record distributed plus one for the read
/// that finds the end, one per record merged plus one per run pair
/// (the last one ends the pass); and one unit that finds the sort done.
fn sort_units(m: usize) -> u64 {
    let mut units = 1;
    let mut run_len = 1;
    while m > 1 && run_len < m {
        let pairs = m.div_ceil(2 * run_len);
        units += 1 + (m + 1) + (m + pairs);
        run_len *= 2;
    }
    units as u64
}

#[test]
fn batched_sort_passes_match_the_reference_at_every_budget() {
    let mut injected = 0;
    for m in batching_counts() {
        let items = values(m, 7 * m as i64);
        let units = sort_units(m);
        for plan in plans() {
            let want = observe_sort(&items, plan.as_ref(), reference_sort);
            injected += want
                .3
                .iter()
                .flatten()
                .map(FaultStats::total_injected)
                .sum::<u64>();
            for budget in [1u64, 2, 3, 5, 64, u64::MAX] {
                let mut yields = 0u64;
                let got = observe_sort(&items, plan.as_ref(), |machine| {
                    let mut stepper = SortStepper::new(0, 1, 2);
                    while !stepper
                        .step(machine, &mut StepBudget::new(budget))?
                        .is_done()
                    {
                        yields += 1;
                    }
                    Ok(())
                });
                let at = format!("m {m}, budget {budget}, plan {plan:?}");
                assert_eq!(got, want, "{at}");
                assert_eq!(yields, units.div_ceil(budget) - 1, "yields, {at}");
            }
        }
    }
    assert!(injected > 0, "the fault plans never fired");
}

/// One tape in a given state for the owned-write parity: `init` cells,
/// the head swept to `head` (rewinding an empty tape first when `head`
/// is `None`, so the write turns the head around), under `plan`.
fn write_target(
    init: &[i64],
    head: Option<usize>,
    plan: Option<&FaultPlan>,
) -> (Tape<i64>, st_trace::TraceBuffer) {
    let (tracer, buf) = Tracer::in_memory();
    let mut t = Tape::from_items("w", init.to_vec());
    t.set_tracer(tracer, 0);
    match head {
        Some(pos) => {
            t.seek_end();
            t.seek(pos).unwrap();
        }
        None => {
            t.seek_end();
            t.reset_for_overwrite();
        }
    }
    if let Some(plan) = plan {
        t.enable_faults(plan);
    }
    (t, buf)
}

#[test]
fn owned_writes_match_slice_writes() {
    // An empty tape (fresh, or rewound so the write reverses), a full
    // tape with the head at 0, mid-tape and at the end.
    let states: [(Vec<i64>, Option<usize>); 6] = [
        (vec![], Some(0)),
        (values(6, 3), None),
        (values(9, 4), Some(0)),
        (values(9, 4), Some(4)),
        (values(9, 4), Some(9)),
        (values(1, 5), Some(1)),
    ];
    let mut injected = 0;
    for plan in plans() {
        for (init, head) in &states {
            for items in [vec![], values(1, 8), values(70, 9)] {
                let (mut slice, slice_buf) = write_target(init, *head, plan.as_ref());
                let (mut owned, owned_buf) = write_target(init, *head, plan.as_ref());
                slice.write_slice_fwd(&items).unwrap();
                owned.write_vec_fwd(items.clone()).unwrap();
                let view = |t: &Tape<i64>| {
                    (
                        t.snapshot(),
                        t.head(),
                        t.moves(),
                        t.reversals(),
                        t.fault_stats(),
                    )
                };
                let at = format!(
                    "plan {plan:?}, init {init:?}, head {head:?}, {} items",
                    items.len()
                );
                assert_eq!(view(&owned), view(&slice), "{at}");
                assert_eq!(owned_buf.snapshot(), slice_buf.snapshot(), "trace, {at}");
                injected += slice.fault_stats().map_or(0, |f| f.total_injected());
            }
        }
    }
    assert!(injected > 0, "the fault plans never fired");
}
