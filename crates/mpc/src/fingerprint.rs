//! MULTISET-EQ on the cluster: the one-round commutative fingerprint.
//!
//! Theorem 8(a)'s fingerprint is a sum `Σ x^{eᵢ} mod p₂` per half — a
//! commutative monoid — so it shards perfectly: each worker absorbs its
//! contiguous chunk of records into partial sums with the *same*
//! parameters the single-tape decider would sample from the same seed,
//! and one gather round combines the partials at worker 0. This is the
//! reversal→round correspondence at its sharpest: the single-tape run
//! needs 1 reversal (2 scans); the cluster needs exactly **1
//! communication round, for every worker count** — the distributed flat
//! line e24 measures.
//!
//! Bit-identical parity with [`st_algo::fingerprint`] is pinned by
//! construction: parameters come from the shared
//! [`st_algo::sample_params`] (same RNG call sequence), each value's
//! term `x^{v mod p₁} mod p₂` is position-independent, and modular
//! addition is commutative — so the combined `(Σ first, Σ second)`
//! equals the single-tape residues for every `p`, and the property
//! tests hold it there. The fold itself is not a copy: each worker feeds
//! its backward-scan slices to [`st_algo::fingerprint::ResidueFold`],
//! the kernel the single-tape stepper drives.

use crate::engine::{Cluster, MpcOptions, MpcRun, Worker};
use crate::partition::range_shard;
use crate::wire::{Envelope, Payload};
use rand::Rng;
use st_algo::fingerprint::{sample_params, ResidueFold};
use st_algo::stepper::DEFAULT_BACKWARD_BLOCK;
use st_algo::FingerprintParams;
use st_core::math::add_mod;
use st_core::{ResourceUsage, StError};
use st_extmem::meter::bits_for;
use st_extmem::TapeMachine;
use st_problems::instance::write_values;
use st_problems::{BitStr, Instance};
use st_trace::Tracer;

/// An [`MpcRun`] plus the fingerprint's parameters and combined
/// residues.
#[derive(Debug, Clone)]
pub struct MpcFingerprintRun {
    /// The distributed run record.
    pub run: MpcRun,
    /// The sampled parameters (same RNG sequence as the single-tape
    /// decider, so same seed → same tuple).
    pub params: FingerprintParams,
    /// The combined `(Σ x^{eᵢ}, Σ x^{e′ᵢ}) mod p₂` — bit-identical to
    /// [`st_algo::FingerprintRun::residues`] for the same seed.
    pub residues: (u64, u64),
}

/// One worker's state: its shard encoded on a single tape, the count of
/// second-half values in the shard, and its partial sums.
struct FpWorker {
    machine: TapeMachine<u8>,
    /// The shard's encoded word, until [`local_partial`] lands it.
    word: Vec<u8>,
    ys_count: u64,
    sums: (u64, u64),
}

impl Worker for FpWorker {
    fn usage(&self) -> ResourceUsage {
        self.machine.usage()
    }
}

/// The worker-local compute: one forward write scan landing the shard
/// on the tape, one backward scan folding each value into the partial
/// sums — the Theorem 8(a) scan structure at shard scale, fully metered
/// on the worker's machine.
fn local_partial(w: &mut FpWorker, params: FingerprintParams) -> Result<(), StError> {
    // The word becomes the tape; the factory rebuilds it on recovery.
    let n = w.word.len();
    w.machine
        .tape_mut(0)
        .write_vec_fwd(std::mem::take(&mut w.word))?;
    w.machine.set_input_len(n);
    let meter = w.machine.meter().clone();
    // The same registers the single-tape stepper charges: three scan-1
    // counters, then the seven O(log k) arithmetic registers.
    meter.charge_static(3 * bits_for(n.max(2) as u64));
    meter.charge_static(7 * bits_for(6 * params.k));

    // The backward scan: slices leftward into the shared kernel, one
    // sustained sweep billed exactly as per-cell reads would be.
    let mut fold = ResidueFold::new(params, w.ys_count);
    let tape = w.machine.tape_mut(0);
    if !tape.at_start() {
        tape.move_left()?;
    }
    loop {
        let head_before = tape.head();
        let chunk = tape.read_slice_bwd(DEFAULT_BACKWARD_BLOCK);
        // Done once a slice reaches cell 0 (an empty tape reads nothing).
        let finished = chunk.len() > head_before || chunk.is_empty();
        fold.fold(chunk)?;
        if finished {
            break;
        }
    }
    w.sums = fold.finish();
    Ok(())
}

/// Decide MULTISET-EQUALITY on a `p`-worker cluster with randomness from
/// `rng` (consumed exactly as the single-tape decider consumes it).
///
/// Communication shape: **1 round, `p` messages** (the residue gather,
/// worker 0's loopback included), for every `p`.
pub fn decide_multiset_equality<R: Rng>(
    inst: &Instance,
    rng: &mut R,
    opts: &MpcOptions,
) -> Result<MpcFingerprintRun, StError> {
    let p = opts.workers.max(1);
    // Serial plan: sample parameters exactly as the single-tape decider,
    // then shard the two lists into contiguous index chunks.
    let m = inst.m() as u64;
    let n_max = inst
        .xs
        .iter()
        .chain(inst.ys.iter())
        .map(BitStr::len)
        .max()
        .unwrap_or(0) as u64;
    let params = sample_params(m, n_max, rng)?;

    let shards: Vec<Vec<Envelope>> = (0..p)
        .map(|w| {
            crate::wire::shard_envelopes(
                w,
                &range_shard(&inst.xs, w, p),
                &range_shard(&inst.ys, w, p),
            )
        })
        .collect();

    // The factory rebuilds a worker from its journaled shard — called
    // once per worker now and again on every crash recovery, so the
    // construction path and the recovery path cannot drift apart.
    let mut cluster = Cluster::new(opts, shards, |_w, shard| {
        let (xs, ys) = crate::wire::split_shard(shard).map_err(StError::Machine)?;
        let (tracer, buf) = Tracer::in_memory();
        let mut machine = TapeMachine::new(0, tracer);
        machine.add_tape("input");
        // The shard's tape word: first-half then second-half values.
        let mut word = Vec::new();
        write_values(&mut word, xs.iter().chain(&ys));
        Ok((
            FpWorker {
                machine,
                word,
                ys_count: ys.len() as u64,
                sums: (0, 0),
            },
            buf,
        ))
    })?;

    // Parallel execute: every worker folds its shard into partial sums
    // and stages its residue message for the gather. A degenerate
    // parameter tuple (prime sampling failed) skips the arithmetic —
    // the verdict must be an unconditional accept — but the gather
    // round still runs, so the round count stays a constant 1.
    let degenerate = params.degenerate();
    cluster.compute(move |w, state, _inbox| {
        if !degenerate {
            local_partial(state, params)?;
        }
        Ok(vec![Envelope {
            from: w as u32,
            to: 0,
            payload: Payload::Residues {
                sum_first: state.sums.0,
                sum_second: state.sums.1,
            },
        }])
    })?;
    cluster.exchange()?;

    // Serial combine at worker 0.
    let (mut sum_first, mut sum_second) = (0u64, 0u64);
    if !degenerate {
        for env in cluster.take_inbox(0) {
            let Payload::Residues {
                sum_first: a,
                sum_second: b,
            } = env.payload
            else {
                return Err(StError::Machine("unexpected payload in gather".into()));
            };
            sum_first = add_mod(sum_first, a, params.p2);
            sum_second = add_mod(sum_second, b, params.p2);
        }
    }
    let accepted = degenerate || sum_first == sum_second;

    Ok(MpcFingerprintRun {
        run: cluster.finish(accepted),
        params,
        residues: (sum_first, sum_second),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use st_problems::generate;

    #[test]
    fn one_round_p_messages_for_every_worker_count() {
        let mut rng = StdRng::seed_from_u64(5);
        let inst = generate::yes_multiset(12, 8, &mut rng);
        for p in [1usize, 2, 4, 8, 16] {
            let run = decide_multiset_equality(
                &inst,
                &mut StdRng::seed_from_u64(99),
                &MpcOptions::with_workers(p),
            )
            .unwrap();
            assert!(run.run.accepted);
            assert_eq!(run.run.comm.rounds, 1, "p={p}");
            assert_eq!(run.run.comm.messages, p as u64, "p={p}");
            assert_eq!(run.run.per_worker.len(), p);
        }
    }

    #[test]
    fn matches_single_tape_verdict_and_residues() {
        let mut gen_rng = StdRng::seed_from_u64(7);
        for trial in 0..20 {
            let inst = if trial % 2 == 0 {
                generate::yes_multiset(9, 7, &mut gen_rng)
            } else {
                generate::no_multiset_one_bit(9, 7, &mut gen_rng)
            };
            let seed = 1000 + trial;
            let single = st_algo::fingerprint::decide_multiset_equality(
                &inst,
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap();
            for p in [1usize, 3, 8] {
                let dist = decide_multiset_equality(
                    &inst,
                    &mut StdRng::seed_from_u64(seed),
                    &MpcOptions::with_workers(p),
                )
                .unwrap();
                assert_eq!(dist.params, single.params, "p={p} trial={trial}");
                assert_eq!(dist.residues, single.residues, "p={p} trial={trial}");
                assert_eq!(dist.run.accepted, single.accepted, "p={p} trial={trial}");
            }
        }
    }

    #[test]
    fn parameters_past_the_bertrand_bound_are_a_precondition_error() {
        // m = 2¹⁹ one-bit pairs: 6k overflows u64, so no p₂ is sampled.
        let inst = Instance::parse_bytes(&b"0#".repeat(1 << 20)).unwrap();
        match decide_multiset_equality(
            &inst,
            &mut StdRng::seed_from_u64(1),
            &MpcOptions::with_workers(4),
        ) {
            Err(StError::Precondition(msg)) => assert!(msg.contains("6k"), "{msg}"),
            other => panic!("{:?}", other.map(|run| run.params)),
        }
    }

    #[test]
    fn empty_instance_accepts_in_one_round() {
        let inst = Instance::parse("").unwrap();
        let run = decide_multiset_equality(
            &inst,
            &mut StdRng::seed_from_u64(1),
            &MpcOptions::with_workers(4),
        )
        .unwrap();
        assert!(run.run.accepted);
        assert_eq!(run.run.comm.rounds, 1);
        assert_eq!(run.residues, (0, 0));
    }

    #[test]
    fn every_worker_runs_two_scans_on_a_balanced_shard() {
        let mut rng = StdRng::seed_from_u64(11);
        let inst = generate::yes_multiset(16, 8, &mut rng);
        let run = decide_multiset_equality(
            &inst,
            &mut StdRng::seed_from_u64(2),
            &MpcOptions::with_workers(4),
        )
        .unwrap();
        for (w, usage) in run.run.per_worker.iter().enumerate() {
            assert_eq!(usage.scans(), 2, "worker {w}: {usage}");
            assert_eq!(usage.external_tapes, 1, "worker {w}");
        }
    }

    #[test]
    fn artifacts_are_identical_across_jobs() {
        let mut rng = StdRng::seed_from_u64(13);
        let inst = generate::no_multiset_one_bit(14, 9, &mut rng);
        let mut opts = MpcOptions::with_workers(8);
        opts.jobs = 1;
        let serial = decide_multiset_equality(&inst, &mut StdRng::seed_from_u64(3), &opts).unwrap();
        opts.jobs = 4;
        let parallel =
            decide_multiset_equality(&inst, &mut StdRng::seed_from_u64(3), &opts).unwrap();
        assert_eq!(serial.run.accepted, parallel.run.accepted);
        assert_eq!(serial.run.comm, parallel.run.comm);
        assert_eq!(serial.run.per_worker, parallel.run.per_worker);
        assert_eq!(serial.run.traces, parallel.run.traces);
        assert_eq!(serial.residues, parallel.residues);
    }
}
