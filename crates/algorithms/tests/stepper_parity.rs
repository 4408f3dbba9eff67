//! Incremental == batch, pinned as a property.
//!
//! The service-layer promise is that chopping the input stream into
//! arbitrary chunks and running the decider under arbitrary step budgets
//! changes *nothing observable*: same verdict, same
//! [`st_core::ResourceUsage`] record, bit for bit. The batch entry
//! points drive the same steppers, so these tests are the contract that
//! keeps that refactor honest.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use st_algo::fingerprint::decide_multiset_equality as batch_fingerprint;
use st_algo::sortcheck::{self, DeciderRun};
use st_algo::stepper::{
    drive_to_verdict, FingerprintStepper, SortRoute, SortRouteStepper, StepOutcome, Stepper,
};
use st_core::StError;
use st_extmem::step::StepBudget;
use st_problems::{generate, Instance};

/// Split `word` into chunks at the given cut points (derived from a
/// proptest-chosen seed), covering byte-at-a-time, whole-word and ragged
/// middles.
fn chunks_of(word: &[u8], pattern: u64) -> Vec<Vec<u8>> {
    if word.is_empty() {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut state = pattern | 1;
    while start < word.len() {
        // A deterministic pseudo-random chunk length in 1..=7.
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let len = ((state >> 33) % 7 + 1) as usize;
        let end = (start + len).min(word.len());
        out.push(word[start..end].to_vec());
        start = end;
    }
    out
}

/// Drive `stepper` with the given feeding chunks and a fixed step
/// budget per call.
fn run_incremental<S: Stepper>(
    mut stepper: S,
    chunks: &[Vec<u8>],
    budget: u64,
) -> Result<DeciderRun, StError> {
    for chunk in chunks {
        assert!(stepper.feed(chunk)?.is_pending());
    }
    // Stepping before finish reports NeedInput and consumes nothing.
    assert!(matches!(
        stepper.step(&mut StepBudget::new(budget))?,
        StepOutcome::NeedInput
    ));
    stepper.finish()?;
    loop {
        match stepper.step(&mut StepBudget::new(budget))? {
            StepOutcome::Done(v) => return Ok(v),
            StepOutcome::Yielded => {}
            StepOutcome::NeedInput => unreachable!("stream already finished"),
        }
    }
}

fn sort_batch(inst: &Instance, route: SortRoute) -> DeciderRun {
    match route {
        SortRoute::Multiset => sortcheck::decide_multiset_equality(inst),
        SortRoute::CheckSort => sortcheck::decide_check_sort(inst),
        SortRoute::SetEquality => sortcheck::decide_set_equality(inst),
    }
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sort_routes_incremental_equals_batch(
        seed in 0u64..100_000,
        m in 0usize..12,
        n in 0usize..8,
        chunk_pattern in any::<u64>(),
        budget in 1u64..64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = generate::random_instance(m, n, &mut rng);
        let word = inst.encode();
        for route in [SortRoute::Multiset, SortRoute::CheckSort, SortRoute::SetEquality] {
            let batch = sort_batch(&inst, route);
            let inc = run_incremental(
                SortRouteStepper::new(route),
                &chunks_of(word.as_bytes(), chunk_pattern),
                budget,
            ).unwrap();
            prop_assert_eq!(inc.accepted, batch.accepted, "{:?} verdict", route);
            prop_assert_eq!(&inc.usage, &batch.usage, "{:?} usage", route);
        }
    }

    #[test]
    fn fingerprint_incremental_equals_batch(
        seed in 0u64..100_000,
        m in 0usize..12,
        n in 0usize..10,
        chunk_pattern in any::<u64>(),
        budget in 1u64..64,
    ) {
        let mut inst_rng = StdRng::seed_from_u64(seed);
        let inst = generate::random_instance(m, n, &mut inst_rng);
        let word = inst.encode();
        // Same decider randomness on both sides: the sampled parameters,
        // and therefore the verdict, must coincide exactly.
        let batch = batch_fingerprint(&inst, &mut StdRng::seed_from_u64(seed ^ 0xfeed)).unwrap();
        let mut stepper = FingerprintStepper::new(StdRng::seed_from_u64(seed ^ 0xfeed));
        for chunk in chunks_of(word.as_bytes(), chunk_pattern) {
            prop_assert!(stepper.feed(&chunk).unwrap().is_pending());
        }
        stepper.finish().unwrap();
        let inc = loop {
            match stepper.step(&mut StepBudget::new(budget)).unwrap() {
                StepOutcome::Done(v) => break v,
                StepOutcome::Yielded => {}
                StepOutcome::NeedInput => unreachable!(),
            }
        };
        prop_assert_eq!(inc.accepted, batch.accepted);
        prop_assert_eq!(&inc.usage, &batch.usage);
        prop_assert_eq!(
            stepper.params().unwrap(),
            batch.params,
            "parameter sampling must consume the same randomness"
        );
    }
}

#[test]
fn byte_at_a_time_with_unit_budget_matches_batch() {
    let mut rng = StdRng::seed_from_u64(99);
    let inst = generate::yes_multiset(10, 6, &mut rng);
    let word = inst.encode();
    for route in [
        SortRoute::Multiset,
        SortRoute::CheckSort,
        SortRoute::SetEquality,
    ] {
        let batch = sort_batch(&inst, route);
        let ones: Vec<Vec<u8>> = word.as_bytes().iter().map(|b| vec![*b]).collect();
        let inc = run_incremental(SortRouteStepper::new(route), &ones, 1).unwrap();
        assert_eq!(inc.accepted, batch.accepted);
        assert_eq!(inc.usage, batch.usage, "{route:?}");
    }
}

#[test]
fn one_shot_feed_matches_batch_on_the_empty_instance() {
    let inst = Instance::parse("").unwrap();
    for route in [
        SortRoute::Multiset,
        SortRoute::CheckSort,
        SortRoute::SetEquality,
    ] {
        let batch = sort_batch(&inst, route);
        let mut stepper = SortRouteStepper::new(route);
        stepper.finish().unwrap();
        let inc = drive_to_verdict(&mut stepper).unwrap();
        assert_eq!(inc.accepted, batch.accepted);
        assert_eq!(inc.usage, batch.usage);
    }
    let batch = batch_fingerprint(&inst, &mut StdRng::seed_from_u64(7)).unwrap();
    let mut stepper = FingerprintStepper::new(StdRng::seed_from_u64(7));
    stepper.finish().unwrap();
    let inc = drive_to_verdict(&mut stepper).unwrap();
    assert!(inc.accepted && batch.accepted);
    assert_eq!(inc.usage, batch.usage);
}

/// Seeded instances for the budget sweep, from trivial to a 2000-record
/// sort whose run outlasts a 65 536-unit budget.
fn sweep_instances() -> Vec<Instance> {
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

/// Yields at per-call budgets 1, 2, 3, 7, 64, 4096 and 65 536, as the
/// cell-at-a-time steppers gave them: one unit per record moved and one
/// per scan boundary, whatever slice the kernels move.
#[rustfmt::skip]
const PINNED_YIELDS: [(usize, SortRoute, [u64; 7]); 27] = [
    (0, SortRoute::Multiset, [3, 1, 1, 0, 0, 0, 0]),
    (0, SortRoute::CheckSort, [2, 1, 0, 0, 0, 0, 0]),
    (0, SortRoute::SetEquality, [3, 1, 1, 0, 0, 0, 0]),
    (1, SortRoute::Multiset, [42, 21, 14, 6, 0, 0, 0]),
    (1, SortRoute::CheckSort, [24, 12, 8, 3, 0, 0, 0]),
    (1, SortRoute::SetEquality, [49, 24, 16, 7, 0, 0, 0]),
    (2, SortRoute::Multiset, [1109, 554, 369, 158, 17, 0, 0]),
    (2, SortRoute::CheckSort, [575, 287, 191, 82, 8, 0, 0]),
    (2, SortRoute::SetEquality, [1188, 594, 396, 169, 18, 0, 0]),
    (3, SortRoute::Multiset, [1097, 548, 365, 156, 17, 0, 0]),
    (3, SortRoute::CheckSort, [575, 287, 191, 82, 8, 0, 0]),
    (3, SortRoute::SetEquality, [1151, 575, 383, 164, 17, 0, 0]),
    (4, SortRoute::Multiset, [895, 447, 298, 127, 13, 0, 0]),
    (4, SortRoute::CheckSort, [480, 240, 160, 68, 7, 0, 0]),
    (4, SortRoute::SetEquality, [967, 483, 322, 138, 15, 0, 0]),
    (5, SortRoute::Multiset, [1323, 661, 441, 189, 20, 0, 0]),
    (5, SortRoute::CheckSort, [686, 343, 228, 98, 10, 0, 0]),
    (5, SortRoute::SetEquality, [1413, 706, 471, 201, 22, 0, 0]),
    (6, SortRoute::Multiset, [1287, 643, 429, 183, 20, 0, 0]),
    (6, SortRoute::CheckSort, [686, 343, 228, 98, 10, 0, 0]),
    (6, SortRoute::SetEquality, [1309, 654, 436, 187, 20, 0, 0]),
    (7, SortRoute::Multiset, [11745, 5872, 3915, 1677, 183, 2, 0]),
    (7, SortRoute::CheckSort, [6023, 3011, 2007, 860, 94, 1, 0]),
    (7, SortRoute::SetEquality, [12345, 6172, 4115, 1763, 192, 3, 0]),
    (8, SortRoute::Multiset, [94049, 47024, 31349, 13435, 1469, 22, 1]),
    (8, SortRoute::CheckSort, [48025, 24012, 16008, 6860, 750, 11, 0]),
    (8, SortRoute::SetEquality, [96949, 48474, 32316, 13849, 1514, 23, 1]),
];

/// Run `route` on `inst` with `budget` units per step call (`None` =
/// unlimited), tracing into a fresh buffer: the verdict, the number of
/// yields, and the trace.
fn traced_run(
    inst: &Instance,
    route: SortRoute,
    budget: Option<u64>,
) -> (DeciderRun, u64, Vec<st_trace::TraceEvent>) {
    traced_run_fed(inst, route, budget, false)
}

/// [`traced_run`], the word fed as a slice or (`owned`) as the owned
/// buffer the batch deciders hand over.
fn traced_run_fed(
    inst: &Instance,
    route: SortRoute,
    budget: Option<u64>,
    owned: bool,
) -> (DeciderRun, u64, Vec<st_trace::TraceEvent>) {
    let (tracer, buf) = st_trace::Tracer::in_memory();
    let mut stepper = SortRouteStepper::new_traced(route, tracer);
    let word = inst.encode_bytes();
    let _ = if owned {
        stepper.feed_owned(word).unwrap()
    } else {
        stepper.feed(&word).unwrap()
    };
    stepper.finish().unwrap();
    let mut yields = 0u64;
    let run = loop {
        let mut b = budget.map_or_else(StepBudget::unlimited, StepBudget::new);
        match stepper.step(&mut b).unwrap() {
            StepOutcome::Done(v) => break v,
            StepOutcome::Yielded => yields += 1,
            StepOutcome::NeedInput => unreachable!("stream already finished"),
        }
    };
    (run, yields, buf.snapshot())
}

#[test]
fn every_budget_gives_the_same_run_and_the_pinned_yields() {
    let insts = sweep_instances();
    for (i, route, pinned) in PINNED_YIELDS {
        let (want, unlimited_yields, want_trace) = traced_run(&insts[i], route, None);
        assert_eq!(unlimited_yields, 0, "an unlimited budget never yields");
        // The batch deciders' row: their owned feed gives the same run.
        let (owned, _, owned_trace) = traced_run_fed(&insts[i], route, None, true);
        let at = format!("instance {i}, {route:?}, owned feed");
        assert_eq!(owned.accepted, want.accepted, "verdict, {at}");
        assert_eq!(owned.usage, want.usage, "usage, {at}");
        assert_eq!(owned_trace, want_trace, "trace, {at}");
        let batch = sort_batch(&insts[i], route);
        assert_eq!(batch.accepted, want.accepted, "batch verdict, {at}");
        assert_eq!(batch.usage, want.usage, "batch usage, {at}");
        let budgets = [1u64, 2, 3, 7, 64, 4096, 65536];
        for (budget, pinned_yields) in budgets.into_iter().zip(pinned) {
            let (got, yields, trace) = traced_run(&insts[i], route, Some(budget));
            let at = format!("instance {i}, {route:?}, budget {budget}");
            assert_eq!(got.accepted, want.accepted, "verdict, {at}");
            assert_eq!(got.usage, want.usage, "usage, {at}");
            assert_eq!(trace, want_trace, "trace, {at}");
            assert_eq!(yields, pinned_yields, "yields, {at}");
        }
    }
}

/// How a word reaches a stepper: one slice, one owned buffer, or a
/// slice prefix followed by the rest as an owned buffer (the owned
/// write then lands on a non-empty tape or buffer).
#[derive(Debug, Clone, Copy)]
enum Feed {
    Slice,
    Owned,
    PrefixThenOwned(usize),
}

impl Feed {
    fn all(word_len: usize) -> Vec<Feed> {
        let mut feeds = vec![Feed::Slice, Feed::Owned];
        for cut in [1, word_len / 2, word_len.saturating_sub(1)] {
            feeds.push(Feed::PrefixThenOwned(cut.min(word_len)));
        }
        feeds
    }

    /// Feed `word`; the first error's text, if any.
    fn run<S: Stepper>(self, stepper: &mut S, word: &[u8]) -> Option<String> {
        let fed = match self {
            Feed::Slice => stepper.feed(word).map(|_| ()),
            Feed::Owned => stepper.feed_owned(word.to_vec()).map(|_| ()),
            Feed::PrefixThenOwned(cut) => stepper
                .feed(&word[..cut])
                .and_then(|_| stepper.feed_owned(word[cut..].to_vec()))
                .map(|_| ()),
        };
        fed.err().map(|e| e.to_string())
    }
}

/// Everything a fingerprint run exposes after `feed`: the feed error,
/// the finish result, verdict, usage, parameters, residues and trace.
type FingerprintObserved = (
    Option<String>,
    Result<(bool, st_core::ResourceUsage), String>,
    Option<st_algo::fingerprint::FingerprintParams>,
    Option<(u64, u64)>,
    Vec<st_trace::TraceEvent>,
);

fn observe_fingerprint(word: &[u8], feed: Feed, budget: u64) -> FingerprintObserved {
    let (tracer, buf) = st_trace::Tracer::in_memory();
    let mut stepper = FingerprintStepper::new_traced(StdRng::seed_from_u64(41), tracer);
    let fed = feed.run(&mut stepper, word);
    // Finish and drive even after a bad symbol: the scan then runs over
    // the valid prefix the feed left on the tape, so its usage and
    // residues pin that prefix.
    let run = stepper.finish().and_then(|()| loop {
        match stepper.step(&mut StepBudget::new(budget))? {
            StepOutcome::Done(v) => break Ok((v.accepted, v.usage)),
            StepOutcome::Yielded => {}
            StepOutcome::NeedInput => unreachable!("stream already finished"),
        }
    });
    (
        fed,
        run.map_err(|e| e.to_string()),
        stepper.params(),
        stepper.residues(),
        buf.snapshot(),
    )
}

/// A valid word, and copies with a bad symbol early, mid-word and last.
fn owned_feed_words() -> Vec<Vec<u8>> {
    let mut words = vec![Vec::new(), b"#".to_vec(), b"0101#0101#".to_vec()];
    for (m, n, seed) in [(7usize, 9usize, 1601u64), (40, 17, 1602)] {
        let word = generate::random_instance(m, n, &mut StdRng::seed_from_u64(seed)).encode_bytes();
        for at in [0, word.len() / 2, word.len() - 1] {
            for bad in [b'x', b' ', 0xff] {
                let mut w = word.clone();
                w[at] = bad;
                words.push(w);
            }
        }
        words.push(word);
    }
    words
}

#[test]
fn fingerprint_owned_feed_matches_the_slice_feed() {
    for word in owned_feed_words() {
        let want = observe_fingerprint(&word, Feed::Slice, 5);
        for feed in Feed::all(word.len()) {
            for budget in [5u64, u64::MAX] {
                let got = observe_fingerprint(&word, feed, budget);
                assert_eq!(
                    got,
                    want,
                    "{feed:?}, budget {budget}, word {:?}",
                    String::from_utf8_lossy(&word)
                );
            }
        }
    }
}

#[test]
fn sort_route_owned_feed_matches_the_slice_feed() {
    let observe = |route: SortRoute, word: &[u8], feed: Feed| {
        let (tracer, buf) = st_trace::Tracer::in_memory();
        let mut stepper = SortRouteStepper::new_traced(route, tracer);
        let fed = feed.run(&mut stepper, word);
        let run = stepper
            .finish()
            .and_then(|()| drive_to_verdict(&mut stepper))
            .map(|v| (v.accepted, v.usage))
            .map_err(|e| e.to_string());
        (fed, run, buf.snapshot())
    };
    for word in owned_feed_words() {
        for route in [
            SortRoute::Multiset,
            SortRoute::CheckSort,
            SortRoute::SetEquality,
        ] {
            let want = observe(route, &word, Feed::Slice);
            for feed in Feed::all(word.len()) {
                assert_eq!(
                    observe(route, &word, feed),
                    want,
                    "{route:?}, {feed:?}, word {:?}",
                    String::from_utf8_lossy(&word)
                );
            }
        }
    }
}
