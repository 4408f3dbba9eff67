//! Cross-crate contracts of the streaming decision service: transcript
//! byte-identity whatever the worker count, replay-audited incremental
//! sessions billing exactly what their batch twins measure, and the
//! admission gate refusing over-budget tenants with the paper's own
//! bound on the bill.

use st_core::{BillingKey, TenantBudget};
use st_serve::{
    run_script, DeciderKind, Script, ServeOptions, SessionSpec, TenantSpec, TrafficFamily, WordSpec,
};

fn opts(jobs: usize) -> ServeOptions {
    ServeOptions {
        jobs,
        master_seed: 11,
        ..ServeOptions::default()
    }
}

#[test]
fn scripted_transcripts_are_byte_identical_across_jobs() {
    let script = Script::demo(24);
    let serial = run_script(&script, &opts(1)).unwrap();
    let wide = run_script(&script, &opts(4)).unwrap();
    assert_eq!(serial.transcript, wide.transcript);
    let auto = run_script(&script, &opts(0)).unwrap();
    assert_eq!(serial.transcript, auto.transcript);
    assert!(serial.clean(), "transcript:\n{}", serial.transcript);
    assert!(serial.admitted > 0);
    assert!(serial.rejected > 0, "the demo must exercise rejection");

    // The script round-trips through its text form and replays to the
    // same transcript — a script file is a complete workload identity.
    let reparsed = Script::parse(&script.render()).unwrap();
    let replayed = run_script(&reparsed, &opts(2)).unwrap();
    assert_eq!(replayed.transcript, serial.transcript);
}

#[test]
fn incremental_sessions_bill_exactly_what_batch_deciders_measure() {
    let script = Script::demo(16);
    let run = run_script(&script, &opts(3)).unwrap();
    for result in run.results.iter().filter(|r| r.admitted) {
        assert_eq!(result.audit_ok, Some(true), "s={}", result.index);
        let bill = &result.bill.as_ref().unwrap().bill;
        let spec = &script.sessions[result.index as usize];
        let word = spec.resolve_word(11, result.index);
        let inst = st_problems::Instance::parse(&word).unwrap();
        // Deterministic routes must bill the batch decider's usage to
        // the reversal and bit; the randomized fingerprint is pinned by
        // its own parity proptests instead.
        let batch = match result.kind {
            DeciderKind::Sort(st_algo::SortRoute::Multiset) => {
                st_algo::sortcheck::decide_multiset_equality(&inst).unwrap()
            }
            DeciderKind::Sort(st_algo::SortRoute::CheckSort) => {
                st_algo::sortcheck::decide_check_sort(&inst).unwrap()
            }
            DeciderKind::Sort(st_algo::SortRoute::SetEquality) => {
                st_algo::sortcheck::decide_set_equality(&inst).unwrap()
            }
            DeciderKind::Fingerprint => continue,
        };
        assert_eq!(
            bill.reversals,
            batch.usage.total_reversals(),
            "s={}",
            result.index
        );
        assert_eq!(
            bill.internal_bits, batch.usage.internal_space,
            "s={}",
            result.index
        );
        assert_eq!(result.accepted, Some(batch.accepted), "s={}", result.index);
    }
}

#[test]
fn over_budget_tenants_get_the_corollary7_bound_as_a_signed_quote() {
    let m = 32u64;
    let script = Script {
        tenants: vec![TenantSpec {
            name: "pinch".into(),
            budget: TenantBudget {
                reversals: 40,
                internal_bits: 4096,
            },
        }],
        sessions: vec![SessionSpec {
            tenant: "pinch".into(),
            kind: DeciderKind::Sort(st_algo::SortRoute::Multiset),
            m,
            n: 5,
            word: WordSpec::Family(TrafficFamily::Zipf),
            chunk: 4,
        }],
    };
    let o = opts(1);
    let run = run_script(&script, &o).unwrap();
    assert_eq!(run.rejected, 1);
    let signed = run.results[0].bill.as_ref().unwrap();
    // 2 merge sorts at 12·⌈log₂ m⌉ + 12 reversals each, plus the
    // constant compare scan: the lower-bound shape, quoted on refusal.
    let pass = 12 * u64::from(m.ilog2()) + 12;
    assert_eq!(signed.bill.reversals, 2 * pass + 8);
    assert_eq!(signed.bill.accepted, None);
    assert!(BillingKey::new(o.billing_key).verify(signed));
}
