//! CHECK-SORT on the cluster: local sorts, then a `⌈log₂p⌉`-round
//! binary merge tree.
//!
//! Every worker sorts its contiguous `xs` shard with the block external
//! merge sort, then the shards climb a merge tree: in round `r` the
//! workers at odd multiples of `2^{r-1}` ship their sorted run (and
//! their untouched `ys` chunk) to the even neighbour `2^{r-1}` below,
//! which absorbs it. After `⌈log₂p⌉` rounds worker 0 holds the fully
//! sorted first list and the second list reassembled in index order,
//! and one `compare_sorted` scan yields the Corollary 7 verdict
//! `equal ∧ sorted`.
//!
//! The round count is the measured object of experiment e25: it is
//! exactly `⌈log₂p⌉` — **0** at `p = 1` (no exchange at all), growing
//! logarithmically — against the fingerprint's flat 1. This is the
//! reversal→round correspondence for the sort family: the single-tape
//! sort spends `Θ(log N)` reversals; the cluster spends `Θ(log p)`
//! rounds.
//!
//! A boundary-key handoff keeps the merges cheap when shards arrive
//! already globally ordered: the receiver compares its last key against
//! the incoming first key and concatenates instead of merging when the
//! runs do not interleave.

use crate::engine::{Cluster, MpcOptions, MpcRun, Worker};
use crate::partition::range_shard;
use crate::wire::{Envelope, Payload};
use st_core::{ResourceUsage, StError};
use st_extmem::block::{self, DEFAULT_BLOCK};
use st_extmem::sort;
use st_extmem::TapeMachine;
use st_problems::{BitStr, Instance};
use st_trace::Tracer;

/// Tape layout of one CHECK-SORT worker (mirrors the single-tape
/// decider's 4-tape machine).
const DATA: usize = 0;
const SECOND: usize = 1;
const SCRATCH1: usize = 2;
const SCRATCH2: usize = 3;

/// One worker's state: a 4-tape machine holding its `xs` shard (being
/// sorted), its `ys` chunk, and two merge scratch tapes.
struct CsWorker {
    machine: TapeMachine<BitStr>,
}

impl Worker for CsWorker {
    fn usage(&self) -> ResourceUsage {
        self.machine.usage()
    }
}

/// Local phase: sort this worker's shard in place.
fn local_sort(state: &mut CsWorker) -> Result<(), StError> {
    sort::merge_sort(&mut state.machine, DATA, SCRATCH1, SCRATCH2)
}

/// The sender side of merge-tree round `step`: workers at odd multiples
/// of `step` ship their sorted run and `ys` chunk to the even neighbour
/// `step` below. Both messages go even when empty, so the message count
/// stays a pure function of `p`.
fn send_for_step(w: usize, step: usize, p: usize, state: &CsWorker) -> Vec<Envelope> {
    let span = step * 2;
    if step >= p || w % span != step {
        return Vec::new();
    }
    let dst = (w - step) as u32;
    vec![
        Envelope {
            from: w as u32,
            to: dst,
            payload: Payload::Records {
                tape: 0,
                records: state.machine.tape(DATA).snapshot(),
            },
        },
        Envelope {
            from: w as u32,
            to: dst,
            payload: Payload::Records {
                tape: 1,
                records: state.machine.tape(SECOND).snapshot(),
            },
        },
    ]
}

/// Absorb a partner's sorted run and `ys` chunk (one merge-tree round,
/// receiver side). The `ys` chunk appends at the end — the receiver's
/// indices precede the partner's, so concatenation preserves the
/// original index order. The `xs` run concatenates when the boundary
/// keys already agree, and otherwise merges through the scratch tapes.
fn absorb(state: &mut CsWorker, inbox: Vec<Envelope>) -> Result<(), StError> {
    if inbox.is_empty() {
        return Ok(());
    }
    let mut xs_in: Vec<BitStr> = Vec::new();
    let mut ys_in: Vec<BitStr> = Vec::new();
    for env in inbox {
        match env.payload {
            Payload::Records { tape: 0, records } => xs_in.extend(records),
            Payload::Records { tape: 1, records } => ys_in.extend(records),
            _ => return Err(StError::Machine("unexpected payload in merge round".into())),
        }
    }
    if !ys_in.is_empty() {
        let second = state.machine.tape_mut(SECOND);
        second.seek_end();
        second.write_slice_fwd(&ys_in)?;
    }
    if xs_in.is_empty() {
        return Ok(());
    }
    let a_len = state.machine.tape(DATA).len();
    if a_len == 0 {
        let data = state.machine.tape_mut(DATA);
        data.reset_for_overwrite();
        data.write_slice_fwd(&xs_in)?;
        return Ok(());
    }
    // Boundary-key handoff: runs that do not interleave concatenate.
    let my_last = &state.machine.tape(DATA).data()[a_len - 1];
    if *my_last <= xs_in[0] {
        let data = state.machine.tape_mut(DATA);
        data.seek_end();
        data.write_slice_fwd(&xs_in)?;
        return Ok(());
    }
    let meter = state.machine.meter().clone();
    let run_len = a_len.max(xs_in.len());
    {
        let s1 = state.machine.tape_mut(SCRATCH1);
        s1.reset_for_overwrite();
        s1.write_slice_fwd(&xs_in)?;
    }
    {
        let (data, s1, s2) = state.machine.trio_mut(DATA, SCRATCH1, SCRATCH2);
        block::merge_runs(data, s1, s2, run_len, &meter, DEFAULT_BLOCK)?;
    }
    {
        let (s2, data) = state.machine.pair_mut(SCRATCH2, DATA);
        block::copy_tape(s2, data, &meter, DEFAULT_BLOCK)?;
    }
    state.machine.tape_mut(SCRATCH1).reset_for_overwrite();
    state.machine.tape_mut(SCRATCH2).reset_for_overwrite();
    Ok(())
}

/// Decide CHECK-SORT on a `p`-worker cluster.
///
/// Communication shape: exactly `⌈log₂p⌉` rounds (0 at `p = 1`), with
/// 2 messages per sender per round (the sorted run and the `ys` chunk,
/// shipped even when empty so the message count is a pure function of
/// `p`).
pub fn decide_check_sort(inst: &Instance, opts: &MpcOptions) -> Result<MpcRun, StError> {
    let p = opts.workers.max(1);

    // Serial plan: contiguous index shards of both lists.
    let shards: Vec<Vec<Envelope>> = (0..p)
        .map(|w| {
            crate::wire::shard_envelopes(
                w,
                &range_shard(&inst.xs, w, p),
                &range_shard(&inst.ys, w, p),
            )
        })
        .collect();
    let input_len = inst.size();
    let mut cluster = Cluster::new(opts, shards, move |_w, shard| {
        let (xs, ys) = crate::wire::split_shard(shard).map_err(StError::Machine)?;
        let (tracer, buf) = Tracer::in_memory();
        let mut machine = TapeMachine::with_input(xs, input_len, tracer);
        machine.add_tape_with("second", ys);
        machine.add_tape("scratch1");
        machine.add_tape("scratch2");
        Ok((CsWorker { machine }, buf))
    })?;

    // Parallel execute: every worker sorts its shard locally and stages
    // the first merge-tree round's messages.
    cluster.compute(move |w, state, _inbox| {
        local_sort(state)?;
        Ok(send_for_step(w, 1, p, state))
    })?;

    // Merge tree: ⌈log₂p⌉ exchange rounds (none at p = 1), each
    // followed by a parallel absorb step that also stages the next
    // round's messages.
    let mut step = 1usize;
    while step < p {
        let span = step * 2;
        cluster.exchange()?;
        cluster.compute(move |w, state, inbox| {
            absorb(state, inbox)?;
            Ok(send_for_step(w, span, p, state))
        })?;
        step = span;
    }

    // Serial combine: worker 0 holds sorted(xs) and the reassembled ys;
    // one compare scan gives the Corollary 7 verdict.
    let accepted = {
        let root = &mut cluster.state_mut(0).machine;
        let meter = root.meter().clone();
        let (second, first) = root.pair_mut(SECOND, DATA);
        let (equal, sorted) = block::compare_sorted(second, first, &meter, DEFAULT_BLOCK);
        equal && sorted
    };

    Ok(cluster.finish(accepted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use st_problems::generate;

    #[test]
    fn rounds_grow_as_ceil_log2_p() {
        let mut rng = StdRng::seed_from_u64(3);
        let inst = generate::yes_checksort(20, 8, &mut rng);
        for (p, want) in [(1usize, 0u64), (2, 1), (3, 2), (4, 2), (8, 3), (16, 4)] {
            let run = decide_check_sort(&inst, &MpcOptions::with_workers(p)).unwrap();
            assert!(run.accepted, "p={p}");
            assert_eq!(run.comm.rounds, want, "p={p}");
        }
    }

    #[test]
    fn matches_single_tape_verdict() {
        let mut rng = StdRng::seed_from_u64(9);
        for trial in 0..12 {
            let inst = match trial % 3 {
                0 => generate::yes_checksort(11, 7, &mut rng),
                1 => generate::no_checksort_sorted_but_wrong(11, 7, &mut rng),
                _ => generate::random_instance(11, 7, &mut rng),
            };
            let single = st_algo::sortcheck::decide_check_sort(&inst).unwrap();
            for p in [1usize, 2, 3, 7, 16] {
                let dist = decide_check_sort(&inst, &MpcOptions::with_workers(p)).unwrap();
                assert_eq!(dist.accepted, single.accepted, "p={p} trial={trial}");
            }
        }
    }

    #[test]
    fn unsorted_second_list_rejects() {
        // ys is the right multiset but out of order — must reject.
        let inst = Instance::parse("00#01#01#00#").unwrap();
        for p in [1usize, 2, 4] {
            let run = decide_check_sort(&inst, &MpcOptions::with_workers(p)).unwrap();
            assert!(!run.accepted, "p={p}");
        }
    }

    #[test]
    fn message_count_is_a_pure_function_of_p() {
        let mut rng = StdRng::seed_from_u64(17);
        let small = generate::yes_checksort(3, 4, &mut rng);
        let large = generate::yes_checksort(40, 8, &mut rng);
        for p in [2usize, 4, 8, 16] {
            let a = decide_check_sort(&small, &MpcOptions::with_workers(p)).unwrap();
            let b = decide_check_sort(&large, &MpcOptions::with_workers(p)).unwrap();
            assert_eq!(a.comm.messages, b.comm.messages, "p={p}");
            assert_eq!(a.comm.messages, 2 * (p as u64 - 1), "p={p}");
        }
    }

    #[test]
    fn artifacts_are_identical_across_jobs() {
        let mut rng = StdRng::seed_from_u64(21);
        let inst = generate::yes_checksort(24, 8, &mut rng);
        let mut opts = MpcOptions::with_workers(8);
        opts.jobs = 1;
        let serial = decide_check_sort(&inst, &opts).unwrap();
        opts.jobs = 4;
        let parallel = decide_check_sort(&inst, &opts).unwrap();
        assert_eq!(serial.accepted, parallel.accepted);
        assert_eq!(serial.comm, parallel.comm);
        assert_eq!(serial.per_worker, parallel.per_worker);
        assert_eq!(serial.traces, parallel.traces);
    }

    #[test]
    fn more_workers_never_lose_records() {
        // A no-instance that differs only in the last record must stay
        // rejected for every p (a dropped boundary record would flip it).
        let inst = Instance::parse("00#01#10#00#01#11#").unwrap();
        for p in [1usize, 2, 3, 5, 8, 16] {
            let run = decide_check_sort(&inst, &MpcOptions::with_workers(p)).unwrap();
            assert!(!run.accepted, "p={p}");
        }
    }
}
