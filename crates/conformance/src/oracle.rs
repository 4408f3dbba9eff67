//! The oracle registry and the one-sided-error-aware comparator.
//!
//! An oracle pairs two **independently implemented** deciders of the
//! same predicate. On every fuzzed word both sides run from decoupled
//! seed streams and the comparator classifies the outcome:
//!
//! * [`Agreement::Agree`] — identical verdicts, or a randomized false
//!   positive inside its declared one-sided bound;
//! * [`Agreement::Abstain`] — the pair does not apply (unparseable
//!   word, precondition unmet, resilient decider exhausted its budget);
//! * [`Agreement::Disagree`] — a genuine conformance violation: strict
//!   verdict mismatch, a false *negative* from a co-RST decider, a false
//!   positive that survives amplification, or a decider error on a word
//!   the other side handled.
//!
//! One-sided error, concretely: the Theorem 8(a) fingerprint may accept
//! a no-instance with probability ≤ ½, so `left = yes, right = no` is
//! *not* a failure — the comparator re-runs the left side under
//! [`ErrorModel::LeftOneSidedFalsePositive::trials`] independent seeds
//! and only a clean sweep of false accepts (probability ≤ 2⁻ᵗ) counts as
//! a disagreement. A false negative (`left = no, right = yes`) is always
//! a failure: completeness is deterministic.

use crate::prng;
use rand::rngs::StdRng;
use rand::SeedableRng;
use st_algo::SortRoute;
use st_core::{RetryBudget, StError, Verdict};
use st_extmem::fault::FaultPlan;
use st_problems::{predicates, Instance};
use st_trace::Tracer;

/// One side of an oracle: decide the word, or abstain (`Ok(None)`) when
/// the pair does not apply. The `seed` is this side's private stream —
/// implementations must derive all randomness from it — and every
/// machine, run and journal the side builds traces on the tracer.
pub type Decider = fn(&str, u64, &Tracer) -> Result<Option<bool>, StError>;

/// How the comparator treats verdict mismatches.
#[derive(Debug, Clone, Copy)]
pub enum ErrorModel {
    /// Both sides are deterministic (or Las Vegas): verdicts must match.
    Exact,
    /// The left side is a co-RST-style randomized decider: false
    /// positives within the decider's *proved* bound are tolerated and
    /// re-tried under amplification; false negatives never are.
    LeftOneSidedFalsePositive {
        /// Instance-specific upper bound on the left side's
        /// false-positive probability, or `None` where the guarantee is
        /// vacuous (the comparator abstains there instead of flagging).
        /// Theorem 8(a)'s `⅓ + O(1/m)` is meaningless at `m = 1`: with
        /// `k = m³·n·loġ(m³n) = 2` the "random prime `p₁ ≤ k`" is always
        /// 2, so values differing by 2 collide in every trial.
        ceiling: fn(&str) -> Option<f64>,
    },
}

/// Amplified failure target: a persistent false positive is declared a
/// disagreement only once its probability under the ceiling drops below
/// `2⁻²⁰`.
const AMPLIFY_TARGET_LOG2: f64 = 20.0;

/// Cap on amplification trials; ceilings demanding more abstain.
const AMPLIFY_MAX_TRIALS: u32 = 256;

/// Trials needed so `ceilingᵗ ≤ 2⁻²⁰`, or `None` when that exceeds the
/// cap (the pair cannot distinguish "bad luck" from "bug" here).
fn amplify_trials(ceiling: f64) -> Option<u32> {
    if !(0.0..1.0).contains(&ceiling) {
        return if ceiling < 0.0 { Some(1) } else { None };
    }
    if ceiling == 0.0 {
        return Some(1);
    }
    let t = (AMPLIFY_TARGET_LOG2 / -ceiling.log2()).ceil();
    (t <= f64::from(AMPLIFY_MAX_TRIALS)).then_some((t as u32).max(1))
}

/// A registry entry: two deciders of one predicate plus the comparator
/// policy and the paper claim the pair guards.
#[derive(Debug, Clone, Copy)]
pub struct Oracle {
    /// Stable id (appears in repro files and reports).
    pub id: &'static str,
    /// Human description of the pairing.
    pub title: &'static str,
    /// The paper claim this pair continuously exercises.
    pub guards: &'static str,
    /// Name of the left decider.
    pub left: &'static str,
    /// Name of the right decider.
    pub right: &'static str,
    /// Mismatch policy.
    pub model: ErrorModel,
    /// The left decider.
    pub left_run: Decider,
    /// The right decider.
    pub right_run: Decider,
}

/// The comparator's classification of one word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Agreement {
    /// Verdicts agree (possibly after amplification).
    Agree,
    /// The pair does not apply to this word.
    Abstain {
        /// Why (which side abstained).
        reason: String,
    },
    /// A conformance violation.
    Disagree {
        /// What went wrong, with both verdicts.
        detail: String,
    },
}

/// Both raw verdicts plus the classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comparison {
    /// Left verdict (`None` = abstained or errored).
    pub left: Option<bool>,
    /// Right verdict (`None` = abstained or errored).
    pub right: Option<bool>,
    /// The comparator's call.
    pub agreement: Agreement,
}

/// Run both sides of `oracle` on `word` under the case seed and classify
/// the outcome. Deterministic: both sides and the amplification trials
/// draw from seed streams derived purely from `(seed, side, trial)`.
#[must_use]
pub fn compare(oracle: &Oracle, word: &str, seed: u64) -> Comparison {
    let untraced = Tracer::disabled();
    compare_traced(oracle, word, seed, &untraced, &untraced)
}

/// [`compare`], with each side tracing on its own tracer so a
/// disagreement ships with a JSONL trace of both runs.
pub fn compare_traced(
    oracle: &Oracle,
    word: &str,
    seed: u64,
    left_tracer: &Tracer,
    right_tracer: &Tracer,
) -> Comparison {
    let c = compare_inner(oracle, word, seed, left_tracer, right_tracer);
    left_tracer.flush();
    right_tracer.flush();
    c
}

fn compare_inner(
    oracle: &Oracle,
    word: &str,
    seed: u64,
    left_tracer: &Tracer,
    right_tracer: &Tracer,
) -> Comparison {
    let left_seed = prng::derive_seed(seed, "left", 0);
    let right_seed = prng::derive_seed(seed, "right", 0);
    let left = (oracle.left_run)(word, left_seed, left_tracer);
    let right = (oracle.right_run)(word, right_seed, right_tracer);
    let (left, right) = match (left, right) {
        // A decider error on a word the registry fed it is itself a
        // conformance violation — the parse layer already filtered
        // malformed words into clean abstentions.
        (Err(e), r) => {
            return Comparison {
                left: None,
                right: r.ok().flatten(),
                agreement: Agreement::Disagree {
                    detail: format!("left ({}) errored: {e}", oracle.left),
                },
            }
        }
        (l, Err(e)) => {
            return Comparison {
                left: l.ok().flatten(),
                right: None,
                agreement: Agreement::Disagree {
                    detail: format!("right ({}) errored: {e}", oracle.right),
                },
            }
        }
        (Ok(l), Ok(r)) => (l, r),
    };
    let (Some(l), Some(r)) = (left, right) else {
        let side = if left.is_none() {
            oracle.left
        } else {
            oracle.right
        };
        return Comparison {
            left,
            right,
            agreement: Agreement::Abstain {
                reason: format!("{side} does not apply"),
            },
        };
    };
    let agreement = match oracle.model {
        ErrorModel::Exact if l == r => Agreement::Agree,
        ErrorModel::Exact => Agreement::Disagree {
            detail: format!(
                "{} said {l}, {} said {r}",
                oracle.left, oracle.right
            ),
        },
        ErrorModel::LeftOneSidedFalsePositive { .. } if l == r => Agreement::Agree,
        ErrorModel::LeftOneSidedFalsePositive { .. } if !l => Agreement::Disagree {
            detail: format!(
                "false negative: {} rejected an instance {} accepts — completeness is deterministic",
                oracle.left, oracle.right
            ),
        },
        ErrorModel::LeftOneSidedFalsePositive { ceiling } => {
            // l = yes, r = no: allowed within the declared bound. Amplify
            // until the all-accept probability is below 2⁻²⁰ — or abstain
            // where the bound is vacuous.
            let Some(eps) = ceiling(word).filter(|e| *e < 0.99) else {
                return Comparison {
                    left: Some(l),
                    right: Some(r),
                    agreement: Agreement::Abstain {
                        reason: format!(
                            "{}'s one-sided error bound is vacuous on this instance",
                            oracle.left
                        ),
                    },
                };
            };
            let Some(trials) = amplify_trials(eps) else {
                return Comparison {
                    left: Some(l),
                    right: Some(r),
                    agreement: Agreement::Abstain {
                        reason: format!(
                            "amplifying past ceiling {eps:.3} would exceed {AMPLIFY_MAX_TRIALS} trials"
                        ),
                    },
                };
            };
            let mut accepts = 0u32;
            for t in 0..trials {
                let trial_seed = prng::derive_seed(seed, "amplify", u64::from(t));
                match (oracle.left_run)(word, trial_seed, left_tracer) {
                    Ok(Some(true)) => accepts += 1,
                    Ok(_) => {}
                    Err(e) => {
                        return Comparison {
                            left: Some(l),
                            right: Some(r),
                            agreement: Agreement::Disagree {
                                detail: format!(
                                    "left ({}) errored during amplification: {e}",
                                    oracle.left
                                ),
                            },
                        }
                    }
                }
            }
            if accepts == trials {
                Agreement::Disagree {
                    detail: format!(
                        "{} accepted a {}-rejected instance in all {trials} amplification \
                         trials — beyond its one-sided bound of {eps:.3}",
                        oracle.left, oracle.right
                    ),
                }
            } else {
                Agreement::Agree
            }
        }
    };
    Comparison {
        left: Some(l),
        right: Some(r),
        agreement,
    }
}

// ---------------------------------------------------------------------
// The deciders.
// ---------------------------------------------------------------------

fn parse_inst(word: &str) -> Option<Instance> {
    Instance::parse(word).ok()
}

/// Theorem 8(a) is stated for uniform instances (`vᵢ ∈ {0,1}ⁿ`): the
/// fingerprint hashes record *values*, so `01` and `001` collide by
/// design. On ragged instances it would decide a different predicate
/// than the string-multiset sort decider — abstain there.
fn is_uniform(inst: &Instance) -> bool {
    let mut lens = inst
        .xs
        .iter()
        .chain(inst.ys.iter())
        .map(st_problems::BitStr::len);
    match lens.next() {
        None => true,
        Some(n) => lens.all(|l| l == n),
    }
}

/// Primes `≤ x`: exact count for tiny `x`, the standard `π(x) > x/ln x`
/// lower bound (valid for `x ≥ 17`) above — an *under*estimate, so the
/// resulting ceiling only ever errs toward abstaining.
fn primes_at_most(x: u64) -> f64 {
    if x < 17 {
        return (2..=x).filter(|&c| st_core::math::is_prime(c)).count() as f64;
    }
    let xf = x as f64;
    xf / xf.ln()
}

/// Instance-specific false-positive ceiling for the Theorem 8(a)
/// fingerprint: `⅓` from polynomial identity testing over `F_{p₂}` plus
/// a union bound of `m²·n` residue-collision primes out of `π(k)`
/// candidates. `None` when that exceeds ~1 (tiny instances: for `m = 1,
/// n = 2` the only admissible prime is 2, and the decider is blind to
/// differences that are multiples of 2).
pub(crate) fn theorem8a_fp_ceiling(word: &str) -> Option<f64> {
    let inst = parse_inst(word)?;
    if !is_uniform(&inst) {
        return None;
    }
    let m = inst.m() as u64;
    if m == 0 {
        return Some(0.0);
    }
    let n = inst.xs[0].len().max(1) as u64;
    let k = st_core::theorems::theorem8a_k(m, n).ok()?;
    let pi = primes_at_most(k);
    if pi < 1.0 {
        return None;
    }
    let eps = 1.0 / 3.0 + (m * m * n) as f64 / pi;
    (eps < 0.99).then_some(eps)
}

/// Ceiling for the resilient decider: a wrong `Verified(true)` needs its
/// master fingerprint to false-accept in one of the (up to 4) attempts,
/// so `1 − (1 − ε)⁴` with ε from [`theorem8a_fp_ceiling`].
pub(crate) fn resilient_fp_ceiling(word: &str) -> Option<f64> {
    let eps = theorem8a_fp_ceiling(word)?;
    let eps4 = 1.0 - (1.0 - eps).powi(4);
    (eps4 < 0.99).then_some(eps4)
}

pub(crate) fn fingerprint_multiset(
    word: &str,
    seed: u64,
    tracer: &Tracer,
) -> Result<Option<bool>, StError> {
    let Some(inst) = parse_inst(word) else {
        return Ok(None);
    };
    if !is_uniform(&inst) {
        return Ok(None);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    Ok(Some(
        st_algo::fingerprint::run_fingerprint(&inst, &mut rng, tracer)?.accepted,
    ))
}

pub(crate) fn sort_multiset(
    word: &str,
    _seed: u64,
    tracer: &Tracer,
) -> Result<Option<bool>, StError> {
    let Some(inst) = parse_inst(word) else {
        return Ok(None);
    };
    Ok(Some(
        st_algo::sortcheck::run_sort_route(&inst, SortRoute::Multiset, tracer)?.accepted,
    ))
}

pub(crate) fn sort_set(word: &str, _seed: u64, tracer: &Tracer) -> Result<Option<bool>, StError> {
    let Some(inst) = parse_inst(word) else {
        return Ok(None);
    };
    Ok(Some(
        st_algo::sortcheck::run_sort_route(&inst, SortRoute::SetEquality, tracer)?.accepted,
    ))
}

pub(crate) fn sort_checksort(
    word: &str,
    _seed: u64,
    tracer: &Tracer,
) -> Result<Option<bool>, StError> {
    let Some(inst) = parse_inst(word) else {
        return Ok(None);
    };
    Ok(Some(
        st_algo::sortcheck::run_sort_route(&inst, SortRoute::CheckSort, tracer)?.accepted,
    ))
}

pub(crate) fn predicate_multiset(
    word: &str,
    _seed: u64,
    _: &Tracer,
) -> Result<Option<bool>, StError> {
    Ok(parse_inst(word).map(|i| predicates::is_multiset_equal(&i)))
}

pub(crate) fn predicate_set(word: &str, _seed: u64, _: &Tracer) -> Result<Option<bool>, StError> {
    Ok(parse_inst(word).map(|i| predicates::is_set_equal(&i)))
}

pub(crate) fn predicate_checksort(
    word: &str,
    _seed: u64,
    _: &Tracer,
) -> Result<Option<bool>, StError> {
    Ok(parse_inst(word).map(|i| predicates::is_check_sorted(&i)))
}

/// The TM ↔ NLM pair decides string equality of the instance's *first*
/// pair. It applies when both strings share a length `1 ≤ n ≤ 16` (the
/// machines take a uniform width; padding would change the predicate).
fn tm_pair_params(word: &str) -> Option<(u64, u64, usize)> {
    let inst = parse_inst(word)?;
    let (x, y) = (inst.xs.first()?, inst.ys.first()?);
    let n = x.len();
    if n == 0 || n > 16 || y.len() != n {
        return None;
    }
    let a = x.to_value().ok()? as u64;
    let b = y.to_value().ok()? as u64;
    Some((a, b, n))
}

pub(crate) fn tm_strings_equal(
    word: &str,
    _seed: u64,
    tracer: &Tracer,
) -> Result<Option<bool>, StError> {
    let Some((a, b, n)) = tm_pair_params(word) else {
        return Ok(None);
    };
    let tm = st_tm::library::strings_equal_machine();
    let input = st_lm::simulate::tm_input_word(&[a, b], n);
    let run = st_tm::run::run_deterministic(&tm, input, 1 << 20, tracer)?;
    Ok(Some(run.accepted()))
}

pub(crate) fn nlm_strings_equal(
    word: &str,
    _seed: u64,
    tracer: &Tracer,
) -> Result<Option<bool>, StError> {
    let Some((a, b, n)) = tm_pair_params(word) else {
        return Ok(None);
    };
    let tm = st_tm::library::strings_equal_machine();
    let sim = st_lm::simulate::simulate_tm(&tm, 2, n, 1, 1 << 20)?;
    let choices = vec![0; 1 << 13];
    let run = st_lm::run::run_with_choices(&sim.nlm, &[a, b], &choices, 1 << 13, tracer)?;
    if let Some(err) = sim.take_error() {
        return Err(StError::Machine(format!("Lemma 16 simulation: {err}")));
    }
    Ok(Some(run.accepted()))
}

pub(crate) fn relalg_sym_diff(
    word: &str,
    _seed: u64,
    tracer: &Tracer,
) -> Result<Option<bool>, StError> {
    let Some(inst) = parse_inst(word) else {
        return Ok(None);
    };
    let q = st_query::relalg::sym_diff_query("R1", "R2");
    let db = st_query::relalg::instance_database(&inst);
    let (result, _usage) = st_query::relalg::evaluate(&q, &db, tracer)?;
    Ok(Some(result.is_empty()))
}

pub(crate) fn xpath_two_runs(word: &str, _seed: u64, _: &Tracer) -> Result<Option<bool>, StError> {
    let Some(inst) = parse_inst(word) else {
        return Ok(None);
    };
    Ok(Some(st_query::xpath::set_equality_via_two_filter_runs(
        &inst,
    )?))
}

pub(crate) fn xquery_theorem12(
    word: &str,
    _seed: u64,
    _: &Tracer,
) -> Result<Option<bool>, StError> {
    let Some(inst) = parse_inst(word) else {
        return Ok(None);
    };
    Ok(Some(
        st_query::xquery::run_theorem12(&inst)?.contains("<true"),
    ))
}

pub(crate) fn resilient_multiset(
    word: &str,
    seed: u64,
    tracer: &Tracer,
) -> Result<Option<bool>, StError> {
    let Some(inst) = parse_inst(word) else {
        return Ok(None);
    };
    let plan = FaultPlan::uniform(prng::derive_seed(seed, "fault", 0), 0.05);
    let mut rng = StdRng::seed_from_u64(seed);
    let run = st_algo::resilient::decide_multiset_equality_resilient(
        &inst,
        &plan,
        RetryBudget::new(4),
        &mut rng,
        tracer,
    )?;
    Ok(match run.verdict {
        Verdict::Verified(v) => Some(v),
        // An exhausted retry budget under injected faults is an honest
        // "don't know", not a conformance violation.
        Verdict::Unverified { .. } => None,
    })
}

/// A private journal path per call: concurrent fuzz workers must never
/// share a file.
fn crash_oracle_journal() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("st_conformance_durable_{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok();
    dir.join(format!("oracle_{n}.wal"))
}

/// Keys injective on bitstrings up to length 16: `len << 32 | value`, so
/// multiset equality of keys is exactly string multiset equality
/// (leading zeros survive via the length tag). `None` on longer strings.
fn record_keys(side: &[st_problems::BitStr]) -> Option<Vec<u64>> {
    side.iter()
        .map(|b| {
            if b.len() > 16 {
                return None;
            }
            let v = b.to_value().ok()? as u64;
            Some(((b.len() as u64) << 32) | v)
        })
        .collect()
}

/// MULTISET-EQ via the crash-recoverable durable sort, swept over a
/// crash at **every** journal byte offset: each side is sorted once
/// uninterrupted, then once per offset with a kill at exactly that byte;
/// any recovered output differing from the uninterrupted one is a
/// conformance violation (returned as an error, which the comparator
/// flags). The sweep re-runs the sort once per journal byte, so the
/// decider abstains on instances with more than 4 records per side.
pub(crate) fn crash_swept_multiset(
    word: &str,
    _seed: u64,
    tracer: &Tracer,
) -> Result<Option<bool>, StError> {
    let Some(inst) = parse_inst(word) else {
        return Ok(None);
    };
    if inst.xs.len() > 4 || inst.ys.len() > 4 {
        return Ok(None);
    }
    let (Some(xs), Some(ys)) = (record_keys(&inst.xs), record_keys(&inst.ys)) else {
        return Ok(None);
    };
    let mut sides = Vec::with_capacity(2);
    for keys in [xs, ys] {
        let len = keys.len().max(1);
        let path = crash_oracle_journal();
        let baseline = st_algo::durable_sort(&path, keys.clone(), len, tracer)?;
        std::fs::remove_file(&path).ok();
        for k in 0..baseline.journal_bytes {
            let path = crash_oracle_journal();
            let run = st_algo::sort_with_crashes(&path, keys.clone(), len, &[k], tracer)?;
            std::fs::remove_file(&path).ok();
            if run.sorted != baseline.sorted {
                return Err(StError::Machine(format!(
                    "durable sort crashed at journal byte {k} recovered to a different output"
                )));
            }
        }
        sides.push(baseline.sorted);
    }
    Ok(Some(sides[0] == sides[1]))
}

/// Worker counts the MPC oracles sweep on every word. Deliberately not
/// all powers of two: p = 3 and p = 7 exercise uneven shards and a
/// ragged merge tree.
const MPC_ORACLE_SWEEP: [usize; 5] = [1, 2, 3, 4, 8];

/// A `p`-worker cluster whose kill journals trace on `tracer`.
fn mpc_options(p: usize, tracer: &Tracer) -> st_mpc::MpcOptions {
    st_mpc::MpcOptions {
        tracer: tracer.clone(),
        ..st_mpc::MpcOptions::with_workers(p)
    }
}

/// MULTISET-EQ on the simulated cluster, swept over worker counts. For
/// *every* p the distributed verdict and the combined fingerprint
/// residues must be bit-identical to the same-seed single-tape decider,
/// and the gather must take exactly one communication round — any drift
/// is returned as an error, which the comparator flags as a
/// disagreement. The surviving verdict is the fingerprint's own, so the
/// pairing against the deterministic sort decider inherits exactly the
/// Theorem 8(a) one-sided error model and nothing more: two
/// independently seeded randomized sides could each be wrong in ways a
/// comparator cannot attribute, but here the randomness is sampled once
/// and shared, and the cluster is pinned to it.
pub(crate) fn mpc_swept_multiset(
    word: &str,
    seed: u64,
    tracer: &Tracer,
) -> Result<Option<bool>, StError> {
    let Some(inst) = parse_inst(word) else {
        return Ok(None);
    };
    if !is_uniform(&inst) {
        return Ok(None);
    }
    let single =
        st_algo::fingerprint::run_fingerprint(&inst, &mut StdRng::seed_from_u64(seed), tracer)?;
    for p in MPC_ORACLE_SWEEP {
        let run = st_mpc::decide_multiset_equality(
            &inst,
            &mut StdRng::seed_from_u64(seed),
            &mpc_options(p, tracer),
        )?;
        if run.run.accepted != single.accepted || run.residues != single.residues {
            return Err(StError::Machine(format!(
                "mpc fingerprint at p={p} diverged from the single-tape run: \
                 verdict {} vs {}, residues {:?} vs {:?}",
                run.run.accepted, single.accepted, run.residues, single.residues
            )));
        }
        if run.run.comm.rounds != 1 {
            return Err(StError::Machine(format!(
                "mpc fingerprint at p={p} took {} rounds, not 1",
                run.run.comm.rounds
            )));
        }
    }
    Ok(Some(single.accepted))
}

/// CHECK-SORT on the simulated cluster, swept over worker counts: every
/// p must agree with the single-tape decider and climb its merge
/// tree in exactly ⌈log₂p⌉ rounds; any drift is an error the comparator
/// flags. Both sides are deterministic, so the pairing is exact.
pub(crate) fn mpc_swept_checksort(
    word: &str,
    _seed: u64,
    tracer: &Tracer,
) -> Result<Option<bool>, StError> {
    let Some(inst) = parse_inst(word) else {
        return Ok(None);
    };
    let reference = st_algo::sortcheck::run_sort_route(&inst, SortRoute::CheckSort, tracer)?;
    for p in MPC_ORACLE_SWEEP {
        let run = st_mpc::decide_check_sort(&inst, &mpc_options(p, tracer))?;
        if run.accepted != reference.accepted {
            return Err(StError::Machine(format!(
                "mpc check-sort at p={p} diverged: {} vs single-tape {}",
                run.accepted, reference.accepted
            )));
        }
        let predicted = u64::from((p as u64).next_power_of_two().trailing_zeros());
        if run.comm.rounds != predicted {
            return Err(StError::Machine(format!(
                "mpc check-sort at p={p} took {} rounds, expected {predicted}",
                run.comm.rounds
            )));
        }
    }
    Ok(Some(reference.accepted))
}

/// CHECK-SORT under a seeded network fault storm vs the fault-free
/// cluster, swept over worker counts. The storm drops, duplicates,
/// reorders, corrupts, and delays frames on every link, and (when the
/// run has any rounds) kills one worker mid-run so recovery replays it
/// from its durable journal. Fault transparency is the invariant: the
/// faulted run must reproduce the clean run's verdict, clean
/// communication meters, per-worker usage, and traces bit for bit —
/// any drift is an error the comparator flags as a disagreement. Both
/// sides are deterministic, so the pairing against the single-tape
/// decider stays exact.
pub(crate) fn mpc_faulty_checksort(
    word: &str,
    seed: u64,
    tracer: &Tracer,
) -> Result<Option<bool>, StError> {
    let Some(inst) = parse_inst(word) else {
        return Ok(None);
    };
    let mut verdict = None;
    for p in MPC_ORACLE_SWEEP {
        let opts = mpc_options(p, tracer);
        let clean = st_mpc::decide_check_sort(&inst, &opts)?;
        let mut plan = st_mpc::NetFaultPlan::new(seed)
            .with_drop(0.2)
            .with_duplicate(0.2)
            .with_reorder(0.2)
            .with_corrupt(0.2)
            .with_delay(0.2);
        if p > 1 && clean.comm.rounds > 0 {
            plan = plan.kill_worker_after(seed as usize % p, seed % clean.comm.rounds);
        }
        let faulted = st_mpc::decide_check_sort(&inst, &opts.clone().with_fault_plan(plan))?;
        if faulted.accepted != clean.accepted
            || faulted.comm.clean() != clean.comm.clean()
            || faulted.per_worker != clean.per_worker
            || faulted.traces != clean.traces
        {
            return Err(StError::Machine(format!(
                "mpc check-sort under the fault storm at p={p} diverged from the \
                 fault-free run (verdict {} vs {})",
                faulted.accepted, clean.accepted
            )));
        }
        verdict = Some(faulted.accepted);
    }
    Ok(verdict)
}

/// Totality probe: every parser must *return* on arbitrary text (errors
/// are fine, panics are not — a panic is caught by the engine and
/// reported as a disagreement), and a well-formed XML word must survive
/// a DOM → print → DOM round trip.
pub(crate) fn parser_totality(word: &str, _seed: u64, _: &Tracer) -> Result<Option<bool>, StError> {
    let _ = st_query::xpath_parser::parse_xpath(word);
    let _ = st_query::relalg_parser::parse_relalg(word);
    let _ = st_query::xquery_parser::parse_xquery(word);
    let _ = Instance::parse(word);
    match st_query::xml::parse(word) {
        Ok(dom) => Ok(Some(
            st_query::xml::parse(&dom.to_string()).as_ref() == Ok(&dom),
        )),
        Err(_) => Ok(Some(true)),
    }
}

pub(crate) fn always_true(_word: &str, _seed: u64, _: &Tracer) -> Result<Option<bool>, StError> {
    Ok(Some(true))
}

/// The registry, in report order.
#[must_use]
pub fn all_oracles() -> Vec<Oracle> {
    vec![
        Oracle {
            id: "fingerprint-vs-sort",
            title: "randomized 2-scan fingerprint vs deterministic sort-based decider",
            guards: "Theorem 8(a) vs Corollary 7 (MULTISET-EQ)",
            left: "fingerprint::decide_multiset_equality",
            right: "sortcheck::decide_multiset_equality",
            model: ErrorModel::LeftOneSidedFalsePositive {
                ceiling: theorem8a_fp_ceiling,
            },
            left_run: fingerprint_multiset,
            right_run: sort_multiset,
        },
        Oracle {
            id: "sort-vs-multiset-predicate",
            title: "sort-based MULTISET-EQ decider vs the Section 3 predicate",
            guards: "Corollary 7 (MULTISET-EQ)",
            left: "sortcheck::decide_multiset_equality",
            right: "predicates::is_multiset_equal",
            model: ErrorModel::Exact,
            left_run: sort_multiset,
            right_run: predicate_multiset,
        },
        Oracle {
            id: "sort-vs-set-predicate",
            title: "sort-based SET-EQ decider vs the Section 3 predicate",
            guards: "Corollary 7 (SET-EQ)",
            left: "sortcheck::decide_set_equality",
            right: "predicates::is_set_equal",
            model: ErrorModel::Exact,
            left_run: sort_set,
            right_run: predicate_set,
        },
        Oracle {
            id: "sort-vs-checksort-predicate",
            title: "sort-based CHECK-SORT decider vs the Section 3 predicate",
            guards: "Corollary 7 (CHECK-SORT)",
            left: "sortcheck::decide_check_sort",
            right: "predicates::is_check_sorted",
            model: ErrorModel::Exact,
            left_run: sort_checksort,
            right_run: predicate_checksort,
        },
        Oracle {
            id: "tm-vs-nlm",
            title: "deterministic TM run vs its list-machine simulation",
            guards: "Lemma 16 (TM → NLM)",
            left: "tm::run_deterministic(strings_equal)",
            right: "lm::simulate_tm + run_with_choices",
            model: ErrorModel::Exact,
            left_run: tm_strings_equal,
            right_run: nlm_strings_equal,
        },
        Oracle {
            id: "relalg-vs-set-predicate",
            title: "relational-algebra Q′ emptiness vs the SET-EQ predicate",
            guards: "Theorem 11 (Q′ = (R1−R2) ∪ (R2−R1))",
            left: "relalg::evaluate(sym_diff_query).is_empty",
            right: "predicates::is_set_equal",
            model: ErrorModel::Exact,
            left_run: relalg_sym_diff,
            right_run: predicate_set,
        },
        Oracle {
            id: "xpath-vs-set-predicate",
            title: "XPath two-run filter reduction vs the SET-EQ predicate",
            guards: "Theorem 13 / Figure 1",
            left: "xpath::set_equality_via_two_filter_runs",
            right: "predicates::is_set_equal",
            model: ErrorModel::Exact,
            left_run: xpath_two_runs,
            right_run: predicate_set,
        },
        Oracle {
            id: "xquery-vs-set-predicate",
            title: "Theorem 12 XQuery result vs the SET-EQ predicate",
            guards: "Theorem 12",
            left: "xquery::run_theorem12 contains <true>",
            right: "predicates::is_set_equal",
            model: ErrorModel::Exact,
            left_run: xquery_theorem12,
            right_run: predicate_set,
        },
        Oracle {
            id: "resilient-vs-sort",
            title: "resilient decider under a FaultPlan vs the fault-free run",
            guards: "fault layer (PR 1): verified verdicts are exact",
            left: "resilient::decide_multiset_equality_resilient @ 5% faults",
            right: "sortcheck::decide_multiset_equality",
            // The resilient decider verifies its sorted comparison
            // against a Theorem 8(a) master fingerprint, so a wrong
            // `Verified(true)` is possible exactly where the fingerprint
            // can false-accept — same one-sided model, compounded over
            // its retry budget.
            model: ErrorModel::LeftOneSidedFalsePositive {
                ceiling: resilient_fp_ceiling,
            },
            left_run: resilient_multiset,
            right_run: sort_multiset,
        },
        Oracle {
            id: "crash-recovery-vs-sort",
            title: "crash-at-every-offset recovered durable sort vs the fault-free decider",
            guards: "durable layer (PR 5): recovery is byte-identical at every crash point",
            left: "durable_sort swept over every journal byte offset",
            right: "sortcheck::decide_multiset_equality",
            model: ErrorModel::Exact,
            left_run: crash_swept_multiset,
            right_run: sort_multiset,
        },
        Oracle {
            id: "mpc-multiset-eq-vs-fingerprint",
            title: "p-swept MPC fingerprint (residue-pinned) vs deterministic sort decider",
            guards: "Theorem 8(a) under the reversal→round correspondence (st-mpc)",
            left:
                "st_mpc::decide_multiset_equality swept over p, pinned to the single-tape residues",
            right: "sortcheck::decide_multiset_equality",
            // The left side's randomness is sampled once and shared
            // across the sweep, and the sweep errors on any intra-family
            // drift — so the only tolerated mismatch is the fingerprint's
            // own one-sided false accept, under its proved ceiling.
            model: ErrorModel::LeftOneSidedFalsePositive {
                ceiling: theorem8a_fp_ceiling,
            },
            left_run: mpc_swept_multiset,
            right_run: sort_multiset,
        },
        Oracle {
            id: "mpc-check-sort-vs-sort",
            title: "p-swept MPC merge-tree CHECK-SORT vs the single-tape sort decider",
            guards: "Corollary 7 under the reversal→round correspondence (st-mpc)",
            left: "st_mpc::decide_check_sort swept over p at ⌈log₂p⌉ rounds",
            right: "sortcheck::decide_check_sort",
            model: ErrorModel::Exact,
            left_run: mpc_swept_checksort,
            right_run: sort_checksort,
        },
        Oracle {
            id: "mpc-faulty-vs-clean",
            title: "p-swept MPC CHECK-SORT under a seeded fault storm vs the clean decider",
            guards: "fault transparency (st-mpc): recovery is bit-identical in every artifact",
            left: "st_mpc::decide_check_sort under drop/dup/reorder/corrupt/delay + a kill",
            right: "sortcheck::decide_check_sort",
            model: ErrorModel::Exact,
            left_run: mpc_faulty_checksort,
            right_run: sort_checksort,
        },
        Oracle {
            id: "parser-totality",
            title: "every parser returns (no panics) and XML round-trips",
            guards: "satellite: fuzzed malformed words surface as StError",
            left: "xpath/relalg/xquery/xml parsers on raw text",
            right: "const true",
            model: ErrorModel::Exact,
            left_run: parser_totality,
            right_run: always_true,
        },
    ]
}

/// Look an oracle up by id (for corpus replay).
#[must_use]
pub fn oracle_by_id(id: &str) -> Option<Oracle> {
    all_oracles().into_iter().find(|o| o.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn yes(_w: &str, _s: u64, _: &Tracer) -> Result<Option<bool>, StError> {
        Ok(Some(true))
    }
    fn no(_w: &str, _s: u64, _: &Tracer) -> Result<Option<bool>, StError> {
        Ok(Some(false))
    }
    fn abstain(_w: &str, _s: u64, _: &Tracer) -> Result<Option<bool>, StError> {
        Ok(None)
    }
    fn boom(_w: &str, _s: u64, _: &Tracer) -> Result<Option<bool>, StError> {
        Err(StError::Machine("deliberate".into()))
    }

    fn fake(model: ErrorModel, l: Decider, r: Decider) -> Oracle {
        Oracle {
            id: "fake",
            title: "fake",
            guards: "none",
            left: "L",
            right: "R",
            model,
            left_run: l,
            right_run: r,
        }
    }

    #[test]
    fn exact_model_flags_any_mismatch() {
        let c = compare(&fake(ErrorModel::Exact, yes, no), "", 0);
        assert!(matches!(c.agreement, Agreement::Disagree { .. }));
        let c = compare(&fake(ErrorModel::Exact, yes, yes), "", 0);
        assert_eq!(c.agreement, Agreement::Agree);
    }

    fn half(_w: &str) -> Option<f64> {
        Some(0.5)
    }
    fn vacuous(_w: &str) -> Option<f64> {
        None
    }

    #[test]
    fn one_sided_model_forgives_nothing_in_the_no_direction() {
        let model = ErrorModel::LeftOneSidedFalsePositive { ceiling: half };
        let c = compare(&fake(model, no, yes), "", 0);
        match &c.agreement {
            Agreement::Disagree { detail } => {
                assert!(detail.contains("false negative"), "{detail}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn one_sided_model_flags_only_persistent_false_positives() {
        let model = ErrorModel::LeftOneSidedFalsePositive { ceiling: half };
        // An always-accepting left survives every amplification trial.
        let c = compare(&fake(model, yes, no), "", 0);
        match &c.agreement {
            Agreement::Disagree { detail } => assert!(detail.contains("amplification"), "{detail}"),
            other => panic!("unexpected {other:?}"),
        }
        // Where the bound is vacuous the comparator abstains instead.
        let model = ErrorModel::LeftOneSidedFalsePositive { ceiling: vacuous };
        let c = compare(&fake(model, yes, no), "", 0);
        assert!(matches!(c.agreement, Agreement::Abstain { .. }), "{c:?}");
    }

    #[test]
    fn amplification_trials_track_the_ceiling() {
        assert_eq!(amplify_trials(0.5), Some(20));
        assert_eq!(amplify_trials(0.0), Some(1));
        // 0.95^t ≤ 2⁻²⁰ needs t ≈ 271 > the 256 cap.
        assert_eq!(amplify_trials(0.95), None);
        assert_eq!(amplify_trials(1.0), None);
    }

    #[test]
    fn theorem8a_ceiling_is_vacuous_exactly_where_the_prime_pool_degenerates() {
        // m = 1, n = 2: k = 2, the only prime is 2 — the decider cannot
        // see differences that are multiples of 2.
        assert_eq!(theorem8a_fp_ceiling("10#00#"), None);
        // m = 6, n = 5 instances have a real prime pool.
        let word = crate::generator::generate_word(crate::generator::Generator::YesMultiset, 3, 12);
        if let Ok(inst) = st_problems::Instance::parse(&word) {
            if inst.m() >= 4 {
                assert!(theorem8a_fp_ceiling(&word).is_some());
            }
        }
        // Ragged instances never get a ceiling (different predicate).
        assert_eq!(theorem8a_fp_ceiling("10##"), None);
        // The resilient compound ceiling is never below the base one.
        for w in ["111#000#101#101#000#111#", "01#10#10#01#"] {
            if let (Some(a), Some(b)) = (theorem8a_fp_ceiling(w), resilient_fp_ceiling(w)) {
                assert!(b >= a);
            }
        }
    }

    #[test]
    fn abstention_and_errors_classify_correctly() {
        let c = compare(&fake(ErrorModel::Exact, abstain, yes), "", 0);
        assert!(matches!(c.agreement, Agreement::Abstain { .. }));
        let c = compare(&fake(ErrorModel::Exact, yes, boom), "", 0);
        match &c.agreement {
            Agreement::Disagree { detail } => assert!(detail.contains("errored"), "{detail}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn registry_ids_are_unique_and_resolvable() {
        let all = all_oracles();
        let mut ids: Vec<&str> = all.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len());
        for o in &all {
            assert_eq!(oracle_by_id(o.id).map(|x| x.id), Some(o.id));
        }
    }

    #[test]
    fn every_oracle_agrees_on_hand_picked_words() {
        // One yes-word, one no-word, one junk word through the whole
        // registry: no disagreements (abstentions are fine).
        for word in ["01#10#10#01#", "01#10#11#01#", "0#\u{00a0}<r>λ</r>"] {
            for (k, oracle) in all_oracles().iter().enumerate() {
                let c = compare(oracle, word, 1000 + k as u64);
                assert!(
                    !matches!(c.agreement, Agreement::Disagree { .. }),
                    "{} on {word:?}: {:?}",
                    oracle.id,
                    c.agreement
                );
            }
        }
    }

    #[test]
    fn tm_pair_abstains_on_ragged_or_oversized_pairs() {
        assert_eq!(
            tm_strings_equal("01#1#", 0, &Tracer::disabled()).unwrap(),
            None
        );
        assert_eq!(tm_strings_equal("", 0, &Tracer::disabled()).unwrap(), None);
        assert_eq!(
            nlm_strings_equal("01#1#", 0, &Tracer::disabled()).unwrap(),
            None
        );
        assert_eq!(
            tm_strings_equal("01#01#", 0, &Tracer::disabled()).unwrap(),
            Some(true)
        );
        assert_eq!(
            tm_strings_equal("01#11#", 0, &Tracer::disabled()).unwrap(),
            Some(false)
        );
    }
}
