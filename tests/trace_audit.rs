//! Integration: the `st-trace` subsystem audits every machine substrate.
//!
//! The contract under test is the tentpole acceptance criterion: for a
//! traced run on any substrate, *replaying* the emitted event stream
//! through [`st_trace::replay`] must reproduce the substrate's own
//! [`ResourceUsage`] record bit-for-bit — the tracer is a second,
//! independent auditor of the paper's resource accounting, not a
//! best-effort log.

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_algo::resilient::resilient_sort;
use st_core::RetryBudget;
use st_extmem::{sort, FaultPlan, TapeMachine};
use st_problems::BitStr;
use st_trace::{audit, replay, Tracer};

fn bitstr_workload(count: u64, bits: usize, seed: u64) -> Vec<BitStr> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| BitStr::from_value(u128::from(rng.gen_range(0..(1u64 << bits))), bits).unwrap())
        .collect()
}

#[test]
fn merge_sort_trace_replays_bit_for_bit() {
    let items = bitstr_workload(48, 8, 11);
    let (tracer, buf) = Tracer::in_memory();
    let (usage, sorted) = {
        let mut machine: TapeMachine<BitStr> =
            TapeMachine::with_input(items.clone(), items.len(), tracer.clone());
        let s1 = machine.add_tape("scratch1");
        let s2 = machine.add_tape("scratch2");
        sort::merge_sort(&mut machine, 0, s1, s2).unwrap();
        (machine.usage(), machine.tape(0).snapshot())
    };
    let mut expect = items;
    expect.sort();
    assert_eq!(sorted, expect, "the traced sort must still sort");

    let events = buf.snapshot();
    assert_eq!(
        replay(&events),
        usage,
        "replay must equal the machine's own bill"
    );
    let report = audit(&events);
    assert!(report.ok(), "{report}");
    assert_eq!(report.checks(), 1);

    // The sort's merge passes are visible as phases in the aggregate.
    let agg = {
        let mut a = st_trace::Aggregator::new();
        for ev in &events {
            a.push(ev);
        }
        a
    };
    assert!(
        agg.phases().iter().any(|p| p.name.contains("merge pass")),
        "phases: {:?}",
        agg.phases()
    );
    assert!(agg.scans().iter().any(|s| s.started > 0));
}

#[test]
fn resilient_pipeline_trace_replays_and_records_retries() {
    let items = bitstr_workload(40, 8, 2);
    let (tracer, buf) = Tracer::in_memory();
    let plan = FaultPlan::uniform(100, 0.08);
    let mut rng = StdRng::seed_from_u64(42);
    let run = resilient_sort(
        &items,
        items.len(),
        &plan,
        RetryBudget::new(4),
        &mut rng,
        &tracer,
    )
    .unwrap();

    let events = buf.snapshot();
    assert_eq!(
        replay(&events),
        run.usage,
        "the cumulative bill across every attempt must replay exactly"
    );
    let report = audit(&events);
    assert!(report.ok(), "{report}");

    let mut agg = st_trace::Aggregator::new();
    for ev in &events {
        agg.push(ev);
    }
    // The fault layer's injections reach the trace.
    assert_eq!(
        agg.total_faults(),
        run.faults.total_injected(),
        "every injected fault must appear in the trace"
    );
    // Failed attempts are visible as retry events with reasons.
    if run.attempts > 1 {
        assert!(
            agg.retries() > 0,
            "attempts={} yet no Retry events",
            run.attempts
        );
        assert!(!agg.retry_reasons().is_empty());
    }
}

#[test]
fn tm_library_machine_trace_replays_bit_for_bit() {
    let tm = st_tm::library::strings_equal_machine();
    let (tracer, buf) = Tracer::in_memory();
    let result =
        st_tm::run::run_deterministic(&tm, st_tm::library::encode("10011#10011"), 1 << 16, &tracer)
            .unwrap();
    let events = buf.snapshot();
    assert_eq!(replay(&events), result.usage);
    let report = audit(&events);
    assert!(report.ok(), "{report}");
}

#[test]
fn list_machine_trace_replays_bit_for_bit() {
    let nlm = st_lm::library::zigzag_machine(1, 5, 2);
    let input: Vec<u64> = vec![3, 1, 4, 1, 5];
    let (tracer, buf) = Tracer::in_memory();
    let run = st_lm::run::run_with_choices(&nlm, &input, &[0; 1 << 12], 1 << 12, &tracer).unwrap();
    assert!(run.accepted());
    let events = buf.snapshot();
    assert_eq!(replay(&events), run.usage(input.len()));
    let report = audit(&events);
    assert!(report.ok(), "{report}");
}

#[test]
fn one_stream_audits_many_substrates_as_separate_segments() {
    // A single tracer watching runs on three different substrates must
    // keep their accounting separate (each RunBegin opens a segment) and
    // every per-segment checkpoint must still match.
    let (tracer, buf) = Tracer::in_memory();
    let items = bitstr_workload(16, 6, 7);
    let mut machine: TapeMachine<BitStr> = TapeMachine::with_input(items, 16, tracer.clone());
    let s1 = machine.add_tape("s1");
    let s2 = machine.add_tape("s2");
    sort::merge_sort(&mut machine, 0, s1, s2).unwrap();
    let _ = machine.usage();

    let tm = st_tm::library::parity_machine();
    st_tm::run::run_deterministic(&tm, vec![2, 1, 2], 1000, &tracer).unwrap();

    let nlm = st_lm::library::sweep_right_machine(2, 4);
    st_lm::run::run_with_choices(&nlm, &[1, 2, 3, 4], &[0; 64], 64, &tracer).unwrap();
    let events = buf.snapshot();
    let report = audit(&events);
    assert!(report.ok(), "{report}");
    assert_eq!(report.segments.len(), 3, "{report}");
    let substrates: Vec<&str> = report
        .segments
        .iter()
        .map(|s| s.substrate.as_str())
        .collect();
    assert_eq!(substrates, vec!["tape", "tm", "listmachine"]);
}

#[test]
fn jsonl_round_trip_preserves_the_audit() {
    // The file sink and the in-memory sink must tell the same story:
    // write a traced run to JSONL, read it back, audit it.
    let dir = std::env::temp_dir().join("st_trace_audit_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.jsonl");
    let tracer = Tracer::jsonl(&path).unwrap();
    let usage = {
        let items = bitstr_workload(24, 6, 3);
        let mut machine: TapeMachine<BitStr> = TapeMachine::with_input(items, 24, tracer.clone());
        let s1 = machine.add_tape("s1");
        let s2 = machine.add_tape("s2");
        sort::merge_sort(&mut machine, 0, s1, s2).unwrap();
        machine.usage()
    };
    tracer.flush();
    let events = st_trace::read_jsonl(&path).unwrap();
    assert_eq!(replay(&events), usage);
    let report = audit(&events);
    assert!(report.ok(), "{report}");
    std::fs::remove_file(&path).ok();
}

/// The JSONL bytes of a traced run, pinned as `(event count, FNV-1a)`.
fn jsonl_pin(events: &[st_trace::TraceEvent]) -> (usize, u64) {
    use st_core::rng::{fnv1a, FNV_OFFSET};
    let jsonl = st_trace::to_jsonl(events);
    (events.len(), fnv1a(FNV_OFFSET, jsonl.as_bytes()))
}

/// A `v#v` input with `|v| = len`, long enough that the strings-equal
/// machine flushes a `StepBatch` mid-run.
fn long_equal_word(len: usize) -> String {
    let v: String = (0..len)
        .map(|i| if i % 3 == 0 { '1' } else { '0' })
        .collect();
    format!("{v}#{v}")
}

#[test]
fn tm_deterministic_run_keeps_its_trace_bytes() {
    let tm = st_tm::library::strings_equal_machine();
    let (tracer, buf) = Tracer::in_memory();
    let result = st_tm::run::run_deterministic(
        &tm,
        st_tm::library::encode(&long_equal_word(400)),
        1 << 16,
        &tracer,
    )
    .unwrap();
    assert!(result.accepted());
    assert!(result.usage.steps > 1024, "{}", result.usage.steps);
    let events = buf.snapshot();
    assert_eq!(replay(&events), result.usage);
    assert_eq!(jsonl_pin(&events), (11, 0x1d9d_4087_b5c0_d030));
}

#[test]
fn tm_sampled_run_keeps_its_trace_bytes_and_draws() {
    use rand::Rng;
    // After its coin, the randomized machine takes only one-successor
    // steps; each still draws from the RNG.
    let tm = st_tm::library::randomized_strings_equal_machine();
    let mut rng = StdRng::seed_from_u64(3);
    let (tracer, buf) = Tracer::in_memory();
    let result = st_tm::run::run_sampled(
        &tm,
        st_tm::library::encode("0110#0110"),
        1 << 16,
        &mut rng,
        &tracer,
    )
    .unwrap();
    let events = buf.snapshot();
    assert_eq!(replay(&events), result.usage);
    assert_eq!(
        (result.outcome, jsonl_pin(&events), rng.gen::<u64>()),
        (
            st_tm::run::RunOutcome::Accept,
            (10, 0xfbc6_51be_e4d6_74c6),
            0xb1f6_240d_0f58_8371
        )
    );
}

#[test]
fn lm_run_with_choices_keeps_its_trace_bytes() {
    let nlm = st_lm::library::zigzag_machine(2, 40, 12);
    let input: Vec<u64> = (0..40).map(|i| i * 7 % 11).collect();
    let (tracer, buf) = Tracer::in_memory();
    let run = st_lm::run::run_with_choices(&nlm, &input, &[0; 1 << 12], 1 << 12, &tracer).unwrap();
    assert!(run.accepted());
    assert!(run.moves.len() > 1024, "{}", run.moves.len());
    let events = buf.snapshot();
    assert_eq!(replay(&events), run.usage(input.len()));
    assert_eq!(jsonl_pin(&events), (32, 0xf1fa_d6c7_6884_b8ce));
}

#[test]
fn lm_sampled_run_keeps_its_trace_bytes_and_draws() {
    use rand::Rng;
    let m = 4;
    let phi = st_problems::perm::phi(m);
    let nlm = st_lm::library::coin_prefixed_matcher(m, phi.clone());
    let ys: Vec<u64> = (0..m as u64).map(|j| 10 + j).collect();
    let input: Vec<u64> = (0..m).map(|i| ys[phi[i]]).chain(ys.clone()).collect();
    let mut rng = StdRng::seed_from_u64(3);
    let (tracer, buf) = Tracer::in_memory();
    let run = st_lm::run::run_sampled(&nlm, &input, &mut rng, 1 << 12, &tracer).unwrap();
    let events = buf.snapshot();
    assert_eq!(replay(&events), run.usage(input.len()));
    assert_eq!(
        (
            run.outcome,
            run.choices.len(),
            jsonl_pin(&events),
            rng.gen::<u64>()
        ),
        (
            st_lm::run::LmOutcome::Accept,
            10,
            (8, 0xb737_b9b3_681c_5b53),
            0xb7a6_7c4e_65f0_1c5c
        )
    );
}
