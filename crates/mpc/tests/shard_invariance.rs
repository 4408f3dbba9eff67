//! The shard-count invariance battery: the cluster is an *evaluation
//! strategy*, not a different algorithm. For arbitrary instances and
//! every worker count, each distributed decider must land on exactly
//! the verdict (and, for the fingerprint, exactly the residues) of its
//! single-tape twin — and no artifact may depend on `--jobs`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use st_mpc::{decide_check_sort, decide_multiset_equality, evaluate_sym_diff, MpcOptions};
use st_problems::{predicates, BitStr, Instance};

const WORKER_SWEEP: [usize; 5] = [1, 2, 3, 7, 16];

fn arb_instance(max_m: usize, max_n: usize) -> impl Strategy<Value = Instance> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0u8..2, 0..=max_n),
            proptest::collection::vec(0u8..2, 0..=max_n),
        ),
        0..=max_m,
    )
    .prop_map(|pairs| {
        let to_bs = |bits: &[u8]| {
            BitStr::parse(
                &bits
                    .iter()
                    .map(|b| char::from(b'0' + b))
                    .collect::<String>(),
            )
            .unwrap()
        };
        let xs = pairs.iter().map(|(a, _)| to_bs(a)).collect();
        let ys = pairs.iter().map(|(_, b)| to_bs(b)).collect();
        Instance::new(xs, ys).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fingerprint_verdict_and_residues_are_shard_invariant(
        inst in arb_instance(10, 6),
        seed in 0u64..1 << 32,
    ) {
        let single = st_algo::fingerprint::decide_multiset_equality(
            &inst,
            &mut StdRng::seed_from_u64(seed),
        ).unwrap();
        for p in WORKER_SWEEP {
            let dist = decide_multiset_equality(
                &inst,
                &mut StdRng::seed_from_u64(seed),
                &MpcOptions::with_workers(p),
            ).unwrap();
            prop_assert_eq!(&dist.params, &single.params, "p={} word={}", p, inst.encode());
            prop_assert_eq!(dist.residues, single.residues, "p={} word={}", p, inst.encode());
            prop_assert_eq!(dist.run.accepted, single.accepted, "p={} word={}", p, inst.encode());
            prop_assert_eq!(dist.run.comm.rounds, 1, "p={}", p);
            prop_assert_eq!(dist.run.per_worker.len(), p.max(1));
        }
    }

    #[test]
    fn check_sort_verdict_is_shard_invariant_and_exact(
        inst in arb_instance(10, 6),
    ) {
        let single = st_algo::sortcheck::decide_check_sort(&inst).unwrap();
        prop_assert_eq!(single.accepted, predicates::is_check_sorted(&inst));
        for p in WORKER_SWEEP {
            let dist = decide_check_sort(&inst, &MpcOptions::with_workers(p)).unwrap();
            prop_assert_eq!(dist.accepted, single.accepted, "p={} word={}", p, inst.encode());
            let want = (p.max(1) as u64).next_power_of_two().trailing_zeros() as u64;
            prop_assert_eq!(dist.comm.rounds, want, "p={}", p);
        }
    }

    #[test]
    fn sym_diff_verdict_is_shard_invariant_and_exact(
        inst in arb_instance(8, 5),
    ) {
        let want = predicates::is_set_equal(&inst);
        for p in WORKER_SWEEP {
            let dist = evaluate_sym_diff(&inst, &MpcOptions::with_workers(p)).unwrap();
            prop_assert_eq!(dist.run.accepted, want, "p={} word={}", p, inst.encode());
            prop_assert_eq!(dist.run.comm.rounds, 2, "p={}", p);
        }
    }

    #[test]
    fn artifacts_are_byte_identical_across_jobs(
        inst in arb_instance(8, 5),
        seed in 0u64..1 << 32,
    ) {
        let mut serial_opts = MpcOptions::with_workers(8);
        serial_opts.jobs = 1;
        let mut parallel_opts = MpcOptions::with_workers(8);
        parallel_opts.jobs = 4;

        let fp_s = decide_multiset_equality(&inst, &mut StdRng::seed_from_u64(seed), &serial_opts).unwrap();
        let fp_p = decide_multiset_equality(&inst, &mut StdRng::seed_from_u64(seed), &parallel_opts).unwrap();
        prop_assert_eq!(fp_s.residues, fp_p.residues);
        prop_assert_eq!(fp_s.run.comm, fp_p.run.comm);
        prop_assert_eq!(fp_s.run.per_worker, fp_p.run.per_worker);
        prop_assert_eq!(fp_s.run.traces, fp_p.run.traces);

        let cs_s = decide_check_sort(&inst, &serial_opts).unwrap();
        let cs_p = decide_check_sort(&inst, &parallel_opts).unwrap();
        prop_assert_eq!(cs_s.accepted, cs_p.accepted);
        prop_assert_eq!(cs_s.comm, cs_p.comm);
        prop_assert_eq!(cs_s.per_worker, cs_p.per_worker);
        prop_assert_eq!(cs_s.traces, cs_p.traces);

        let q_s = evaluate_sym_diff(&inst, &serial_opts).unwrap();
        let q_p = evaluate_sym_diff(&inst, &parallel_opts).unwrap();
        prop_assert_eq!(q_s.symdiff, q_p.symdiff);
        prop_assert_eq!(q_s.run.comm, q_p.run.comm);
        prop_assert_eq!(q_s.run.per_worker, q_p.run.per_worker);
        prop_assert_eq!(q_s.run.traces, q_p.run.traces);
    }

    #[test]
    fn wire_bytes_are_monotone_in_record_volume_for_the_shuffle(
        inst in arb_instance(8, 5),
    ) {
        // Growing the instance by one record can only add bytes to the
        // Q′ shuffle at fixed p: metering is volume-faithful.
        let p = 4;
        let base = evaluate_sym_diff(&inst, &MpcOptions::with_workers(p)).unwrap();
        let mut xs = inst.xs.clone();
        let mut ys = inst.ys.clone();
        xs.push(BitStr::parse("10101").unwrap());
        ys.push(BitStr::parse("01010").unwrap());
        let bigger_inst = Instance::new(xs, ys).unwrap();
        let bigger = evaluate_sym_diff(&bigger_inst, &MpcOptions::with_workers(p)).unwrap();
        prop_assert!(
            bigger.run.comm.bytes_on_wire > base.run.comm.bytes_on_wire,
            "bytes {} !> {}",
            bigger.run.comm.bytes_on_wire,
            base.run.comm.bytes_on_wire
        );
    }
}
