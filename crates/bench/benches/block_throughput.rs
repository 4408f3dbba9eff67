//! Block-substrate throughput: records/s and bytes/s for the three
//! hot workloads — a copy scan, the balanced 3-tape merge sort, and the
//! Theorem 8(a) backward fingerprint scan — block-oriented vs the
//! cell-at-a-time reference (`st_extmem::scan` passes; one-symbol slices
//! for the fingerprint). A fourth row runs the same merge sort over
//! 32-bit `BitStr` records, the cells every sorting decider moves; it
//! reports throughput and is outside the ≥5× gate.
//!
//! The vendored criterion stub prints wall times but emits no JSON, so
//! this harness measures its own medians (`std::time::Instant`, odd
//! sample count) and merges them into the repository's
//! `BENCH_report.json` via `st_bench::report::{merge_json, atomic_write}`
//! under the id `bt1`.
//!
//! `ST_BENCH_SMOKE=1` shrinks the workload for CI (the ≥5× speedup gate
//! is only asserted at full scale — per-record overhead dominates less
//! as N grows, and the acceptance bar is stated at ≥10⁷ records).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use st_algo::stepper::{drive_to_verdict, FingerprintStepper, Stepper};
use st_bench::report::{atomic_write, merge_json, Report};
use st_extmem::meter::MemoryMeter;
use st_extmem::tape::Tape;
use st_extmem::{block, scan, sort, TapeMachine};
use st_problems::{generate, BitStr};
use st_trace::Tracer;
use std::time::Instant;

const BLOCK: usize = 4096;
const SAMPLES: usize = 5;

fn smoke() -> bool {
    std::env::var("ST_BENCH_SMOKE").is_ok_and(|v| v != "0")
}

/// Median wall time of `SAMPLES` runs of `f`, in seconds.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[SAMPLES / 2]
}

struct Workload {
    name: &'static str,
    records: usize,
    bytes: usize,
    cell_s: f64,
    block_s: f64,
}

impl Workload {
    fn speedup(&self) -> f64 {
        self.cell_s / self.block_s
    }
    fn row(&self) -> Vec<String> {
        let recs = self.records as f64 / self.block_s;
        let bytes = self.bytes as f64 / self.block_s;
        vec![
            self.name.to_string(),
            self.records.to_string(),
            format!("{:.3}", self.cell_s),
            format!("{:.3}", self.block_s),
            format!("{:.1}x", self.speedup()),
            format!("{:.2e}", recs),
            format!("{:.2e}", bytes),
        ]
    }
}

fn bench_copy(n: usize) -> Workload {
    let meter = MemoryMeter::new();
    let mut src: Tape<i64> = Tape::new("src");
    src.write_slice_fwd(&(0..n as i64).collect::<Vec<_>>())
        .unwrap();
    let mut dst: Tape<i64> = Tape::new("dst");
    let cell_s = median_secs(|| scan::copy_tape(&mut src, &mut dst, &meter).unwrap());
    let block_s = median_secs(|| block::copy_tape(&mut src, &mut dst, &meter, BLOCK).unwrap());
    assert_eq!(dst.len(), n);
    Workload {
        name: "scan (copy)",
        records: n,
        bytes: n * 8,
        cell_s,
        block_s,
    }
}

/// The balanced merge sort's passes spelled out with the per-cell
/// reference scans: the "cell" column of the sort rows.
fn cell_merge_sort<S: Clone + Ord>(machine: &mut TapeMachine<S>) {
    let m = machine.tape(0).len();
    let meter = machine.meter().clone();
    let mut run_len = 1usize;
    while run_len < m {
        let (data, s1, s2) = machine.trio_mut(0, 1, 2);
        scan::distribute_runs(data, s1, s2, run_len, &meter).unwrap();
        let (s1, s2, data) = machine.trio_mut(1, 2, 0);
        scan::merge_runs(s1, s2, data, run_len, &meter).unwrap();
        run_len *= 2;
    }
}

/// Time the full 3-tape merge sort of `data`, per cell and per block.
/// Merge sort is oblivious — the pass structure is identical whatever
/// the input order — so any fixed input is representative.
fn sort_times<S: Clone + Ord>(data: &[S]) -> (f64, f64) {
    let mk = || {
        let mut machine = TapeMachine::with_input(data.to_vec(), data.len(), Tracer::disabled());
        machine.add_tape("scratch1");
        machine.add_tape("scratch2");
        machine
    };
    let cell_s = median_secs(|| cell_merge_sort(&mut mk()));
    let block_s = median_secs(|| {
        let mut machine = mk();
        sort::merge_sort(&mut machine, 0, 1, 2).unwrap();
        assert!(machine.tape(0).snapshot().windows(2).all(|w| w[0] <= w[1]));
    });
    (cell_s, block_s)
}

fn bench_merge_sort(n: usize) -> Workload {
    // The merge passes' real consumer is the balanced 3-tape merge sort,
    // so the workload is the full sort: every pass pays a distribute and
    // a merge sweep, per cell on one side and per block on the other.
    let data: Vec<i64> = (0..n as i64).rev().collect();
    let (cell_s, block_s) = sort_times(&data);
    Workload {
        name: "merge sort",
        records: n,
        bytes: n * 8,
        cell_s,
        block_s,
    }
}

fn bench_record_sort(n: usize) -> Workload {
    // Uniform 32-bit records, as in the CHECK-SORT and Q′ instances.
    let bits = 32usize;
    let mut rng = StdRng::seed_from_u64(32);
    let data: Vec<BitStr> = (0..n)
        .map(|_| BitStr::from_value(u128::from(rng.gen::<u32>()), bits).unwrap())
        .collect();
    let (cell_s, block_s) = sort_times(&data);
    Workload {
        name: "merge sort (BitStr n=32)",
        records: n,
        bytes: n * bits / 8,
        cell_s,
        block_s,
    }
}

fn bench_fingerprint(target_n: usize) -> Workload {
    // N = 2m(n+1) input symbols; pick m to land near the target. Long
    // records keep the residue accumulation (the part the block path
    // word-parallelizes) dominant over the per-record x^e flush, which
    // is identical work on both paths.
    let bits = 511usize;
    let m = (target_n / (2 * (bits + 1))).next_power_of_two();
    let mut rng = StdRng::seed_from_u64(81);
    let inst = generate::yes_multiset(m, bits, &mut rng);
    let encoded = inst.encode();
    let n = encoded.len();
    // Time the backward residue scan only: ingestion (`feed`) is the
    // same bulk `write_slice_fwd` for both paths, so including it would
    // dilute the accumulator comparison the gate is about.
    let run = |backward_block: usize| {
        let mut times: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let mut fp = FingerprintStepper::new(StdRng::seed_from_u64(7));
                fp.set_backward_block(backward_block);
                let _ = fp.feed(encoded.as_bytes()).unwrap();
                fp.finish().unwrap();
                let t = Instant::now();
                let v = drive_to_verdict(&mut fp).unwrap();
                let dt = t.elapsed().as_secs_f64();
                assert!(v.accepted);
                dt
            })
            .collect();
        times.sort_by(f64::total_cmp);
        times[SAMPLES / 2]
    };
    let cell_s = run(1);
    let block_s = run(st_algo::stepper::DEFAULT_BACKWARD_BLOCK);
    Workload {
        name: "fingerprint",
        records: n,
        bytes: n,
        cell_s,
        block_s,
    }
}

fn main() {
    let smoke = smoke();
    let n: usize = if smoke { 100_000 } else { 10_000_000 };
    let workloads = [bench_copy(n), bench_merge_sort(n), bench_fingerprint(n)];
    let record_sort = bench_record_sort(if smoke { 100_000 } else { 1_000_000 });

    let mut r = Report::new(
        "bt1",
        "Block substrate throughput (records/s, bytes/s)",
        "Block-oriented copy scan, merge sort and fingerprint run ≥5× the \
         cell-at-a-time records/s at ≥10⁷ records, with identical accounting",
        &[
            "workload",
            "records",
            "cell median s",
            "block median s",
            "speedup",
            "records/s (block)",
            "bytes/s (block)",
        ],
    );
    let mut all_ok = true;
    for w in &workloads {
        println!(
            "{:<12} n={:>9}  cell {:.3}s  block {:.3}s  {:.1}x",
            w.name,
            w.records,
            w.cell_s,
            w.block_s,
            w.speedup()
        );
        if !smoke {
            all_ok &= w.speedup() >= 5.0;
        }
        r.row(w.row());
    }
    println!(
        "{:<12} n={:>9}  cell {:.3}s  block {:.3}s  {:.1}x (outside the gate)",
        record_sort.name,
        record_sort.records,
        record_sort.cell_s,
        record_sort.block_s,
        record_sort.speedup()
    );
    r.row(record_sort.row());
    let worst = workloads
        .iter()
        .map(Workload::speedup)
        .fold(f64::INFINITY, f64::min);
    r.verdict(
        all_ok,
        format!(
            "worst speedup {worst:.1}x at n = {n}{}",
            if smoke {
                " (smoke scale; ≥5× gate asserted at full scale only)"
            } else {
                ""
            }
        ),
    );

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_report.json");
    let doc = std::fs::read_to_string(&path).unwrap_or_else(|_| "{}\n".to_string());
    let merged = merge_json(&doc, &[r]).expect("merge bt1 into BENCH_report.json");
    atomic_write(&path, merged.as_bytes()).expect("write BENCH_report.json");
    println!("merged bt1 into {}", path.display());
    assert!(all_ok, "block path must be ≥5× the cell path at full scale");
}
