//! Q′ on the cluster: the Theorem 11(b) symmetric-difference query as a
//! two-round hash-join shuffle.
//!
//! `Q′ = (R₁ − R₂) ∪ (R₂ − R₁)` is empty iff the two sets are equal, so
//! evaluating it decides SET-EQUALITY. Distributed, it is the textbook
//! hash join: round 1 routes every tuple to [`hash_partition`] of its
//! *value*, co-locating all copies of a value on one worker; each worker
//! then sorts and deduplicates its two local fragments and counts its
//! piece of the symmetric difference; round 2 gathers the per-worker
//! counts at worker 0. Value co-location makes the local counts
//! compose: `|Q′| = Σ_w |Q′_w|`, so the verdict `|Q′| = 0` is exact for
//! every `p`.
//!
//! Communication shape: **2 rounds for every worker count** (shuffle +
//! gather) — the relational entry in e24's flat family, next to the
//! fingerprint's 1. Every (sender, receiver, relation) envelope ships
//! even when empty, so the message count `2p² + p` is a pure function
//! of `p`; only the byte volume tracks the data.

use crate::engine::{Cluster, MpcOptions, MpcRun, Worker};
use crate::partition::{hash_partition, range_shard};
use crate::wire::{Envelope, Payload};
use st_core::{ResourceUsage, StError};
use st_extmem::sort;
use st_extmem::tape::Tape;
use st_extmem::TapeMachine;
use st_problems::{BitStr, Instance};
use st_trace::Tracer;

/// Fixed shuffle seed: the router must be identical on every worker and
/// across runs, so it is a constant of the protocol, not sampled.
const SHUFFLE_SEED: u64 = 0x51ed_c0de;

/// Tape layout of one Q′ worker.
const R1: usize = 0;
const R2: usize = 1;
const SCRATCH1: usize = 2;
const SCRATCH2: usize = 3;

/// An [`MpcRun`] plus the global symmetric-difference cardinality.
#[derive(Debug, Clone)]
pub struct MpcQueryRun {
    /// The distributed run record; `accepted` iff `|Q′| = 0`.
    pub run: MpcRun,
    /// `|Q′|` — the number of distinct values in exactly one set.
    pub symdiff: u64,
}

/// One worker's state: its initial contiguous shard of both relations
/// (`xs`/`ys`, what the shuffle routes away), the fragments received
/// from the shuffle (`r1_in`/`r2_in`), and `count`, its local `|Q′_w|`
/// after the local phase.
struct QWorker {
    machine: TapeMachine<BitStr>,
    xs: Vec<BitStr>,
    ys: Vec<BitStr>,
    r1_in: Vec<BitStr>,
    r2_in: Vec<BitStr>,
    count: u64,
}

impl Worker for QWorker {
    fn usage(&self) -> ResourceUsage {
        self.machine.usage()
    }
}

/// Pop the next value from a sorted tape, consuming any duplicates —
/// the metered dedup stream of the local symmetric-difference walk.
fn next_unique(t: &mut Tape<BitStr>) -> Option<BitStr> {
    let cur = t.read_fwd()?;
    while t.peek() == Some(&cur) {
        let _ = t.read_fwd();
    }
    Some(cur)
}

/// Local phase after the shuffle: land both fragments on tape, sort
/// them, and count the local symmetric difference over the deduplicated
/// streams in one parallel scan.
fn local_symdiff(state: &mut QWorker) -> Result<(), StError> {
    let r1 = std::mem::take(&mut state.r1_in);
    let r2 = std::mem::take(&mut state.r2_in);
    state.machine.tape_mut(R1).write_slice_fwd(&r1)?;
    state.machine.tape_mut(R2).write_slice_fwd(&r2)?;
    sort::merge_sort(&mut state.machine, R1, SCRATCH1, SCRATCH2)?;
    sort::merge_sort(&mut state.machine, R2, SCRATCH1, SCRATCH2)?;
    let (a, b) = state.machine.pair_mut(R1, R2);
    a.rewind();
    b.rewind();
    let mut count = 0u64;
    let mut va = next_unique(a);
    let mut vb = next_unique(b);
    loop {
        match (&va, &vb) {
            (None, None) => break,
            (Some(_), None) => {
                count += 1;
                va = next_unique(a);
            }
            (None, Some(_)) => {
                count += 1;
                vb = next_unique(b);
            }
            (Some(x), Some(y)) => {
                if x == y {
                    va = next_unique(a);
                    vb = next_unique(b);
                } else if x < y {
                    count += 1;
                    va = next_unique(a);
                } else {
                    count += 1;
                    vb = next_unique(b);
                }
            }
        }
    }
    state.count = count;
    Ok(())
}

/// Evaluate Q′ over the instance's two lists (as sets) on a `p`-worker
/// cluster; accept iff the symmetric difference is empty.
pub fn evaluate_sym_diff(inst: &Instance, opts: &MpcOptions) -> Result<MpcQueryRun, StError> {
    let p = opts.workers.max(1);

    // Serial plan: each worker starts with its contiguous index shard
    // of both relations.
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
        let mut machine = TapeMachine::new(input_len, tracer);
        machine.add_tape("r1");
        machine.add_tape("r2");
        machine.add_tape("scratch1");
        machine.add_tape("scratch2");
        Ok((
            QWorker {
                machine,
                xs,
                ys,
                r1_in: Vec::new(),
                r2_in: Vec::new(),
                count: 0,
            },
            buf,
        ))
    })?;

    // Round 1 — the shuffle: route every tuple to the hash owner of its
    // value. Both relation envelopes ship to every destination, empty
    // or not, so the message count is a pure function of p.
    cluster.compute(move |w, state, _inbox| {
        let mut routed: Vec<(Vec<BitStr>, Vec<BitStr>)> = vec![(Vec::new(), Vec::new()); p];
        for v in &state.xs {
            routed[hash_partition(SHUFFLE_SEED, v, p)].0.push(v.clone());
        }
        for v in &state.ys {
            routed[hash_partition(SHUFFLE_SEED, v, p)].1.push(v.clone());
        }
        Ok(routed
            .into_iter()
            .enumerate()
            .flat_map(|(dst, (r1, r2))| {
                [
                    Envelope {
                        from: w as u32,
                        to: dst as u32,
                        payload: Payload::Records {
                            tape: 0,
                            records: r1,
                        },
                    },
                    Envelope {
                        from: w as u32,
                        to: dst as u32,
                        payload: Payload::Records {
                            tape: 1,
                            records: r2,
                        },
                    },
                ]
            })
            .collect())
    })?;
    cluster.exchange()?;

    // Parallel execute: ingest the shuffled fragments, run the local
    // sort + dedup symmetric-difference count, and stage the gather.
    cluster.compute(move |w, state, inbox| {
        for env in inbox {
            match env.payload {
                Payload::Records { tape: 0, records } => state.r1_in.extend(records),
                Payload::Records { tape: 1, records } => state.r2_in.extend(records),
                _ => return Err(StError::Machine("unexpected payload in shuffle".into())),
            }
        }
        local_symdiff(state)?;
        Ok(vec![Envelope {
            from: w as u32,
            to: 0,
            payload: Payload::Count(state.count),
        }])
    })?;
    cluster.exchange()?;

    // Round 2 lands at worker 0: combine the counts serially.
    let mut total = 0u64;
    for env in cluster.take_inbox(0) {
        let Payload::Count(c) = env.payload else {
            return Err(StError::Machine("unexpected payload in gather".into()));
        };
        total += c;
    }

    Ok(MpcQueryRun {
        run: cluster.finish(total == 0),
        symdiff: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use st_problems::generate;
    use st_query::relalg::{evaluate, instance_database, sym_diff_query};

    #[test]
    fn two_rounds_and_pure_message_count_for_every_p() {
        let mut rng = StdRng::seed_from_u64(4);
        let inst = generate::yes_set_distinct(10, 7, &mut rng);
        for p in [1usize, 2, 4, 8, 16] {
            let run = evaluate_sym_diff(&inst, &MpcOptions::with_workers(p)).unwrap();
            assert!(run.run.accepted, "p={p}");
            assert_eq!(run.run.comm.rounds, 2, "p={p}");
            let p = p as u64;
            assert_eq!(run.run.comm.messages, 2 * p * p + p, "p={p}");
        }
    }

    #[test]
    fn symdiff_matches_the_relational_evaluator() {
        let mut rng = StdRng::seed_from_u64(6);
        for trial in 0..12 {
            let inst = match trial % 3 {
                0 => generate::yes_set_distinct(8, 6, &mut rng),
                1 => generate::no_multiset_one_bit(8, 6, &mut rng),
                _ => generate::random_instance(8, 6, &mut rng),
            };
            let (reference, _) = evaluate(
                &sym_diff_query("R1", "R2"),
                &instance_database(&inst),
                &Tracer::disabled(),
            )
            .unwrap();
            for p in [1usize, 3, 8] {
                let run = evaluate_sym_diff(&inst, &MpcOptions::with_workers(p)).unwrap();
                assert_eq!(run.symdiff, reference.len() as u64, "p={p} trial={trial}");
                assert_eq!(
                    run.run.accepted,
                    reference.is_empty(),
                    "p={p} trial={trial}"
                );
            }
        }
    }

    #[test]
    fn duplicates_within_a_list_do_not_count() {
        // As *sets* {0,1} == {1,0,0}: Q′ is empty despite the multiset gap.
        let inst = Instance::parse("0#1#1#0#0#1#").unwrap_or_else(|_| {
            // odd total list lengths are legal for SET-EQUALITY instances
            Instance::new(
                vec![BitStr::parse("0").unwrap(), BitStr::parse("1").unwrap()],
                vec![
                    BitStr::parse("1").unwrap(),
                    BitStr::parse("0").unwrap(),
                    BitStr::parse("0").unwrap(),
                ],
            )
            .unwrap()
        });
        for p in [1usize, 2, 5] {
            let run = evaluate_sym_diff(&inst, &MpcOptions::with_workers(p)).unwrap();
            assert!(run.run.accepted, "p={p}");
            assert_eq!(run.symdiff, 0, "p={p}");
        }
    }

    #[test]
    fn artifacts_are_identical_across_jobs() {
        let mut rng = StdRng::seed_from_u64(8);
        let inst = generate::random_instance(12, 7, &mut rng);
        let mut opts = MpcOptions::with_workers(8);
        opts.jobs = 1;
        let serial = evaluate_sym_diff(&inst, &opts).unwrap();
        opts.jobs = 4;
        let parallel = evaluate_sym_diff(&inst, &opts).unwrap();
        assert_eq!(serial.run.accepted, parallel.run.accepted);
        assert_eq!(serial.run.comm, parallel.run.comm);
        assert_eq!(serial.run.per_worker, parallel.run.per_worker);
        assert_eq!(serial.run.traces, parallel.run.traces);
        assert_eq!(serial.symdiff, parallel.symdiff);
    }
}
