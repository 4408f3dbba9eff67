//! The six soak scenarios and their seeded, replayable iterations.
//!
//! Every iteration's randomness is derived from
//! `(master seed, scenario label, iteration)` via the conformance
//! crate's splittable PRNG — no global state, no thread dependence — so
//! [`replay_iteration`] reproduces any campaign iteration from that
//! triple alone, in-process or via `soak --replay SCENARIO:ITERATION`.

use crate::stats::ScenarioStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use st_algo::durable_sort::sort_with_crashes;
use st_algo::resilient::resilient_sort;
use st_bench::runner::panic_message;
use st_conformance::corpus::Repro;
use st_conformance::oracle::{self, Agreement, ErrorModel, Oracle};
use st_conformance::shrink::shrink_word;
use st_conformance::{generator, prng};
use st_core::{pool_map, RetryBudget, StError, Verdict};
use st_extmem::FaultPlan;
use st_problems::{generate, predicates, BitStr, Instance};
use st_trace::{Aggregator, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// One scenario family of the mixed campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Differential-fuzz round: one oracle, one traffic word.
    Fuzz,
    /// Durable sort under a storm of planned WAL crashes; recovery must
    /// match the crash-free reference exactly.
    CrashStorm,
    /// `resilient_sort` under random media-fault rates and budgets.
    FaultStorm,
    /// Independent sessions interleaving on `pool_map` threads, one per
    /// session.
    Concurrent,
    /// A scripted `st-serve` run: concurrent streaming sessions under
    /// budget admission; every session must replay-audit, stay within
    /// its reservation, and agree with the reference predicate.
    Serve,
    /// MPC deciders under a seeded network fault storm (drops,
    /// duplicates, reorders, corruption, delays, worker kills): the
    /// faulted run must match the fault-free run bit for bit in every
    /// published artifact, with only the recovery counters differing.
    MpcChaos,
}

impl Scenario {
    /// Stable id — appears in reports and `--replay` arguments.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Scenario::Fuzz => "fuzz",
            Scenario::CrashStorm => "crash-storm",
            Scenario::FaultStorm => "fault-storm",
            Scenario::Concurrent => "concurrent",
            Scenario::Serve => "serve",
            Scenario::MpcChaos => "mpc-chaos",
        }
    }

    /// Inverse of [`Scenario::id`] (for `--replay`).
    #[must_use]
    pub fn from_id(id: &str) -> Option<Self> {
        all_scenarios().into_iter().find(|s| s.id() == id)
    }
}

/// Every scenario, in report order.
#[must_use]
pub fn all_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::Fuzz,
        Scenario::CrashStorm,
        Scenario::FaultStorm,
        Scenario::Concurrent,
        Scenario::Serve,
        Scenario::MpcChaos,
    ]
}

/// The campaign's per-iteration scenario choice: round-robin, so every
/// scenario gets equal coverage whatever the budget allows.
#[must_use]
pub fn scenario_for_iteration(iteration: u64) -> Scenario {
    let all = all_scenarios();
    all[(iteration % all.len() as u64) as usize]
}

/// Failure injection knobs (acceptance demos and pipeline self-tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Swap the fuzz scenario's oracle pool for a deliberately broken
    /// off-by-one sort decider, proving the catch → shrink → persist →
    /// replay pipeline end to end.
    BrokenSortOracle,
}

/// Per-campaign context shared by every iteration.
#[derive(Debug, Clone)]
pub struct SoakContext {
    /// Directory for per-iteration WAL journals (unique file names per
    /// `(scenario, iteration, session)`, removed after each iteration).
    pub scratch: PathBuf,
    /// Active failure injection, if any.
    pub inject: Option<Injection>,
}

/// A hard failure: a broken invariant, a disagreement, or a harness
/// error. Each carries enough to replay (`scenario`, `iteration` +
/// the campaign's master seed).
#[derive(Debug, Clone)]
pub struct Failure {
    /// Scenario that failed.
    pub scenario: Scenario,
    /// Iteration it failed at.
    pub iteration: u64,
    /// What broke, with both sides where applicable.
    pub detail: String,
    /// For conformance disagreements: the shrunk, persistable repro.
    pub repro: Option<Repro>,
}

/// Everything one iteration produced.
#[derive(Debug, Clone)]
pub struct IterationOutcome {
    /// Scenario that ran.
    pub scenario: Scenario,
    /// The iteration index.
    pub iteration: u64,
    /// Deterministic counters.
    pub stats: ScenarioStats,
    /// Hard failure, if the iteration broke an invariant.
    pub failure: Option<Failure>,
    /// Wall-clock latency of this instance (bucketed by the campaign;
    /// rendered only under measured timing).
    pub latency_nanos: u128,
    /// Per-session wall-clock latencies, for scenarios that run whole
    /// service sessions (empty elsewhere). Folded into the campaign's
    /// session-latency histogram; rendered only under measured timing.
    pub session_latency_nanos: Vec<u128>,
}

/// Run one campaign iteration. Pure up to wall-clock: `stats` and
/// `failure` depend only on `(scenario, master, iteration, inject)`.
#[must_use]
pub fn run_iteration(
    scenario: Scenario,
    master: u64,
    iteration: u64,
    ctx: &SoakContext,
) -> IterationOutcome {
    let started = std::time::Instant::now();
    let mut session_latency_nanos = Vec::new();
    let (stats, failure) = match scenario {
        Scenario::Fuzz => run_fuzz(master, iteration, ctx.inject),
        Scenario::CrashStorm => run_crash_storm(master, iteration, &ctx.scratch),
        Scenario::FaultStorm => run_fault_storm(master, iteration),
        Scenario::Concurrent => run_concurrent(master, iteration, &ctx.scratch),
        Scenario::Serve => {
            let (stats, failure, latencies) = run_serve(master, iteration);
            session_latency_nanos = latencies;
            (stats, failure)
        }
        Scenario::MpcChaos => run_mpc_chaos(master, iteration),
    };
    let failure = failure.map(|detail_and_repro| Failure {
        scenario,
        iteration,
        detail: detail_and_repro.0,
        repro: detail_and_repro.1,
    });
    IterationOutcome {
        scenario,
        iteration,
        stats,
        failure,
        latency_nanos: started.elapsed().as_nanos(),
        session_latency_nanos,
    }
}

/// Replay one iteration from its identifying triple (what
/// `soak --replay SCENARIO:ITERATION --seed S` runs). The scratch
/// directory is private to the replay and removed afterwards.
#[must_use]
pub fn replay_iteration(
    scenario: Scenario,
    master: u64,
    iteration: u64,
    inject: Option<Injection>,
) -> IterationOutcome {
    let scratch =
        std::env::temp_dir().join(format!("st-soak-replay-{}-{iteration}", std::process::id()));
    std::fs::create_dir_all(&scratch).ok();
    let ctx = SoakContext {
        scratch: scratch.clone(),
        inject,
    };
    let outcome = run_iteration(scenario, master, iteration, &ctx);
    std::fs::remove_dir_all(&scratch).ok();
    outcome
}

/// A failure's human detail plus the optional persistable repro.
type ScenarioFailure = (String, Option<Repro>);

// ---------------------------------------------------------------- fuzz

/// Off-by-one sort decider: never compares the smallest record pair.
/// (The same planted bug the conformance engine's acceptance test uses.)
fn broken_sort(word: &str, _seed: u64, _: &Tracer) -> Result<Option<bool>, StError> {
    let Ok(inst) = Instance::parse(word) else {
        return Ok(None);
    };
    let mut xs = inst.xs.clone();
    let mut ys = inst.ys.clone();
    xs.sort();
    ys.sort();
    Ok(Some(xs.iter().skip(1).eq(ys.iter().skip(1))))
}

/// Honest multiset-equality predicate, the broken decider's adversary.
fn multiset_predicate(word: &str, _seed: u64, _: &Tracer) -> Result<Option<bool>, StError> {
    let Ok(inst) = Instance::parse(word) else {
        return Ok(None);
    };
    Ok(Some(predicates::is_multiset_equal(&inst)))
}

/// The deliberately broken oracle [`Injection::BrokenSortOracle`] swaps
/// in. Its id never enters the checked-in registry, so injected repro
/// fixtures must go to a scratch corpus, not `corpus/`.
#[must_use]
pub fn injected_oracle() -> Oracle {
    Oracle {
        id: "soak-injected-off-by-one",
        title: "deliberately planted off-by-one (soak failure-injection demo)",
        guards: "none — proves soak catches, shrinks, persists, and replays failures",
        left: "broken_sort",
        right: "predicates::is_multiset_equal",
        model: ErrorModel::Exact,
        left_run: broken_sort,
        right_run: multiset_predicate,
    }
}

fn run_fuzz(
    master: u64,
    iteration: u64,
    inject: Option<Injection>,
) -> (ScenarioStats, Option<ScenarioFailure>) {
    let pool = match inject {
        Some(Injection::BrokenSortOracle) => vec![injected_oracle()],
        None => oracle::all_oracles(),
    };
    let pick = prng::derive_seed(master, "soak-fuzz-pick", iteration) as usize % pool.len();
    let oracle = &pool[pick];
    let family = generator::family_for_iteration(iteration);
    let word = generator::generate_word(family, master, iteration);
    // The same (master, oracle id, iteration) seed convention the
    // conformance engine uses, so fuzz findings replay under both tools.
    let seed = prng::derive_seed(master, oracle.id, iteration);

    let mut stats = ScenarioStats {
        iterations: 1,
        comparisons: 1,
        ..ScenarioStats::default()
    };
    match oracle::compare(oracle, &word, seed).agreement {
        Agreement::Agree => {
            stats.agreements = 1;
            (stats, None)
        }
        Agreement::Abstain { .. } => {
            stats.abstentions = 1;
            (stats, None)
        }
        Agreement::Disagree { detail } => {
            stats.disagreements = 1;
            let shrunk = shrink_word(oracle, &word, seed);
            let repro = Repro {
                oracle: oracle.id.to_string(),
                generator: family.id().to_string(),
                seed,
                word: shrunk,
            };
            (stats, Some((detail, Some(repro))))
        }
    }
}

// --------------------------------------------------------- crash-storm

/// Records for the durable sorts: production-traffic values when the
/// iteration's word parses, synthetic ones otherwise.
fn storm_items(word: &str, rng: &mut StdRng) -> Vec<u64> {
    if let Ok(inst) = Instance::parse(word) {
        if inst.m() > 0 {
            return inst
                .xs
                .iter()
                .chain(&inst.ys)
                .map(|b| b.to_value().map_or(0, |v| v as u64))
                .collect();
        }
    }
    let m = rng.gen_range(2..=8usize);
    (0..m).map(|_| rng.gen::<u64>()).collect()
}

fn run_crash_storm(
    master: u64,
    iteration: u64,
    scratch: &Path,
) -> (ScenarioStats, Option<ScenarioFailure>) {
    let mut stats = ScenarioStats {
        iterations: 1,
        ..ScenarioStats::default()
    };
    let mut rng = prng::derive_rng(master, "soak-crash-storm", iteration);
    let word = generator::generate_word(
        generator::family_for_iteration(iteration),
        master,
        iteration,
    );
    let items = storm_items(&word, &mut rng);
    let mut expected = items.clone();
    expected.sort_unstable();

    let ref_path = scratch.join(format!("crash-{iteration}-ref.wal"));
    let storm_path = scratch.join(format!("crash-{iteration}.wal"));
    let cleanup = |a: &Path, b: &Path| {
        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
    };

    // Crash-free reference run: fixes the expected output and the
    // journal length the storm draws its crash offsets from.
    let reference = match sort_with_crashes(
        &ref_path,
        items.clone(),
        items.len(),
        &[],
        &Tracer::disabled(),
    ) {
        Ok(run) => run,
        Err(e) => {
            cleanup(&ref_path, &storm_path);
            return (
                stats,
                Some((format!("reference durable sort errored: {e}"), None)),
            );
        }
    };
    if reference.sorted != expected {
        cleanup(&ref_path, &storm_path);
        return (
            stats,
            Some(("crash-free durable sort mis-sorted its input".into(), None)),
        );
    }

    // The storm: 1–3 crash points anywhere in the reference journal.
    let crash_points: Vec<u64> = (0..rng.gen_range(1..=3usize))
        .map(|_| rng.gen_range(1..=reference.journal_bytes.max(1)))
        .collect();
    let (tracer, buffer) = Tracer::in_memory();
    let storm = sort_with_crashes(
        &storm_path,
        items.clone(),
        items.len(),
        &crash_points,
        &tracer,
    );
    tracer.flush();
    cleanup(&ref_path, &storm_path);
    let storm = match storm {
        Ok(run) => run,
        Err(e) => {
            return (
                stats,
                Some((format!("storm durable sort errored: {e}"), None)),
            )
        }
    };

    let mut agg = Aggregator::new();
    for ev in buffer.snapshot() {
        agg.push(&ev);
    }
    stats.crashes_injected = storm.crashes;
    stats.crash_recoveries = storm.recoveries;
    stats.wal_discarded_bytes = agg.discarded_bytes();

    if storm.sorted != expected {
        let detail = format!(
            "recovery mismatch after {} crash(es) at {:?}: recovered output differs from the crash-free reference",
            storm.crashes, crash_points
        );
        return (stats, Some((detail, None)));
    }
    (stats, None)
}

// --------------------------------------------------------- fault-storm

fn run_fault_storm(master: u64, iteration: u64) -> (ScenarioStats, Option<ScenarioFailure>) {
    let mut stats = ScenarioStats {
        iterations: 1,
        ..ScenarioStats::default()
    };
    let mut rng = prng::derive_rng(master, "soak-fault-storm", iteration);
    let m = rng.gen_range(2..=6usize);
    let n = rng.gen_range(2..=5usize);
    let items: Vec<BitStr> = (0..m)
        .map(|_| generate::random_bitstr(n, &mut rng))
        .collect();

    // Rates span ~1e-3 .. 5e-2 log-uniformly; the plan seed is its own
    // derived stream so the fault dice never alias the item dice.
    let rate = 10f64.powf(-3.0 + 1.7 * rng.gen::<f64>());
    let plan_seed = prng::derive_seed(master, "soak-fault-plan", iteration);
    let write_only = rng.gen::<bool>();
    let plan = if write_only {
        FaultPlan::new(plan_seed)
            .with_stuck_write(rate)
            .with_torn_write(rate)
    } else {
        FaultPlan::new(plan_seed)
            .with_bit_flip(rate)
            .with_transient_read(rate)
    };
    let budget = RetryBudget::new(rng.gen_range(2..=4u32));

    let run = match resilient_sort(
        &items,
        items.len(),
        &plan,
        budget,
        &mut rng,
        &Tracer::disabled(),
    ) {
        Ok(run) => run,
        Err(e) => return (stats, Some((format!("resilient sort errored: {e}"), None))),
    };
    stats.faults_injected = run.faults.total_injected();
    match run.verdict {
        Verdict::Verified(sorted) => {
            stats.verified_runs = 1;
            if write_only {
                // Reads are clean under a write-only plan, so the
                // verification scan saw the true tape: a Verified result
                // that is not actually sorted is a hard invariant break.
                if sorted.windows(2).any(|w| w[0] > w[1]) {
                    return (
                        stats,
                        Some((
                            "write-fault storm returned Verified but unsorted output".into(),
                            None,
                        )),
                    );
                }
                // Multiset drift under Verified is possible within the
                // fingerprint's proved error bound: chart it, never fail.
                let mut got = sorted;
                got.sort();
                let mut want = items;
                want.sort();
                if got != want {
                    stats.verified_slips = 1;
                }
            }
        }
        Verdict::Unverified { .. } => stats.retry_exhaustions = 1,
    }
    (stats, None)
}

// ---------------------------------------------------------- concurrent

/// Sessions interleaved per concurrent iteration.
const SESSIONS: u64 = 3;

fn run_concurrent(
    master: u64,
    iteration: u64,
    scratch: &Path,
) -> (ScenarioStats, Option<ScenarioFailure>) {
    let results = pool_map(SESSIONS as usize, SESSIONS as usize, None, |s| {
        let s = s as u64;
        let seed = prng::derive_seed(master, "soak-session", iteration * SESSIONS + s);
        let journal = scratch.join(format!("conc-{iteration}-{s}.wal"));
        catch_unwind(AssertUnwindSafe(|| run_session(seed, &journal))).unwrap_or_else(|payload| {
            (
                ScenarioStats::default(),
                Some(format!("session panicked: {}", panic_message(&*payload))),
            )
        })
    });

    // Fold in session-index order — the only order that is independent
    // of how the threads actually interleaved.
    let mut stats = ScenarioStats {
        iterations: 1,
        ..ScenarioStats::default()
    };
    let mut failure = None;
    for (s, (session_stats, session_failure)) in results.iter().enumerate() {
        stats.merge(session_stats);
        if failure.is_none() {
            if let Some(detail) = session_failure {
                failure = Some((format!("session {s}: {detail}"), None));
            }
        }
    }
    (stats, failure)
}

/// One session: a durable sort with one planned crash (recovery checked
/// against the in-memory sort), then one oracle comparison — the two
/// subsystems a production process exercises side by side.
fn run_session(seed: u64, journal: &Path) -> (ScenarioStats, Option<String>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = ScenarioStats {
        sessions: 1,
        ..ScenarioStats::default()
    };

    let m = rng.gen_range(2..=6usize);
    let items: Vec<u64> = (0..m).map(|_| rng.gen::<u64>()).collect();
    let mut expected = items.clone();
    expected.sort_unstable();
    // An offset past the journal's end simply never fires — sessions mix
    // crashing and crash-free runs without knowing the journal length.
    let crash_at = rng.gen_range(1..=256u64);
    let run = sort_with_crashes(journal, items, m, &[crash_at], &Tracer::disabled());
    std::fs::remove_file(journal).ok();
    match run {
        Ok(run) => {
            stats.crashes_injected += run.crashes;
            stats.crash_recoveries += run.recoveries;
            if run.sorted != expected {
                return (stats, Some("durable sort diverged after recovery".into()));
            }
        }
        Err(e) => return (stats, Some(format!("durable sort errored: {e}"))),
    }

    let pool = oracle::all_oracles();
    let oracle = &pool[rng.gen_range(0..pool.len())];
    let families = generator::all_generators();
    let family = families[rng.gen_range(0..families.len())];
    let word = generator::generate_word(family, seed, 0);
    stats.comparisons += 1;
    match oracle::compare(oracle, &word, rng.gen::<u64>()).agreement {
        Agreement::Agree => stats.agreements += 1,
        Agreement::Abstain { .. } => stats.abstentions += 1,
        Agreement::Disagree { detail } => {
            stats.disagreements += 1;
            return (
                stats,
                Some(format!("oracle {} disagreed: {detail}", oracle.id)),
            );
        }
    }
    (stats, None)
}

// --------------------------------------------------------------- serve

/// Streaming sessions driven per serve iteration.
const SERVE_SESSIONS: usize = 6;

/// One scripted st-serve run: a generous tenant and a pinched one whose
/// sort sessions the admission gate must refuse with a signed
/// paper-bound quote. Every admitted session must finish, replay-audit
/// bit-for-bit, stay within its reservation, and — the differential
/// check — agree with the reference predicate on its own word
/// (one-sided for the fingerprint decider, whose false positives are
/// within Theorem 8(a)'s proved error bound and charted as
/// abstentions).
fn run_serve(master: u64, iteration: u64) -> (ScenarioStats, Option<ScenarioFailure>, Vec<u128>) {
    use st_core::TenantBudget;
    use st_serve::{
        run_script, DeciderKind, Script, ServeOptions, SessionSpec, TenantSpec, TrafficFamily,
        WordSpec,
    };

    let mut stats = ScenarioStats {
        iterations: 1,
        ..ScenarioStats::default()
    };
    let mut rng = prng::derive_rng(master, "soak-serve", iteration);
    let tenants = vec![
        TenantSpec {
            name: "bulk".into(),
            budget: TenantBudget {
                reversals: 100_000,
                internal_bits: 65_536,
            },
        },
        TenantSpec {
            name: "pinch".into(),
            // Below the Corollary 7 sort bound for any m ≥ 2, but
            // enough bits for Theorem 8(a)'s O(log N) fingerprints.
            budget: TenantBudget {
                reversals: 25,
                internal_bits: 65_536,
            },
        },
    ];
    let kinds = DeciderKind::all();
    let families = [
        TrafficFamily::Zipf,
        TrafficFamily::Bursty,
        TrafficFamily::YesShuffle,
        TrafficFamily::NoOneBit,
    ];
    let sessions: Vec<SessionSpec> = (0..SERVE_SESSIONS)
        .map(|i| SessionSpec {
            tenant: if i % 3 == 2 { "pinch" } else { "bulk" }.into(),
            kind: kinds[rng.gen_range(0..kinds.len())],
            m: rng.gen_range(2..=12u64),
            n: rng.gen_range(2..=6u64),
            word: WordSpec::Family(families[rng.gen_range(0..families.len())]),
            chunk: rng.gen_range(1..=9usize),
        })
        .collect();
    let script = Script { tenants, sessions };
    let opts = ServeOptions {
        jobs: 1,
        step_batch: 32,
        master_seed: prng::derive_seed(master, "soak-serve-words", iteration),
        ..ServeOptions::default()
    };
    let run = match run_script(&script, &opts) {
        Ok(run) => run,
        Err(e) => {
            return (
                stats,
                Some((format!("serve script errored: {e}"), None)),
                Vec::new(),
            )
        }
    };
    stats.admission_rejections = run.rejected;
    stats.sessions += run.admitted;

    let mut latencies = Vec::new();
    let mut failure = None;
    for result in run.results.iter().filter(|r| r.admitted) {
        latencies.push(result.latency_nanos);
        let fail = |detail: String| Some((format!("session {}: {detail}", result.index), None));
        if let Some(e) = &result.error {
            failure = failure.or_else(|| fail(format!("errored: {e}")));
            continue;
        }
        if result.audit_ok != Some(true) {
            failure = failure.or_else(|| fail("trace replay-audit failed".into()));
            continue;
        }
        if result.within_reserve != Some(true) {
            failure =
                failure.or_else(|| fail("measured usage exceeded the admission quote".into()));
            continue;
        }
        // Differential check against the reference predicate.
        let spec = &script.sessions[result.index as usize];
        let word = spec.resolve_word(opts.master_seed, result.index);
        let Ok(inst) = Instance::parse(&word) else {
            failure = failure.or_else(|| fail("resolved word does not parse".into()));
            continue;
        };
        let want = match result.kind {
            DeciderKind::Fingerprint | DeciderKind::Sort(st_algo::SortRoute::Multiset) => {
                predicates::is_multiset_equal(&inst)
            }
            DeciderKind::Sort(st_algo::SortRoute::CheckSort) => predicates::is_check_sorted(&inst),
            DeciderKind::Sort(st_algo::SortRoute::SetEquality) => predicates::is_set_equal(&inst),
        };
        stats.comparisons += 1;
        match (result.accepted, result.kind) {
            (Some(got), _) if got == want => stats.agreements += 1,
            // Theorem 8(a) is one-sided: a false positive is within the
            // proved bound; a false negative never is.
            (Some(true), DeciderKind::Fingerprint) if !want => stats.abstentions += 1,
            (got, _) => {
                stats.disagreements += 1;
                failure = failure.or_else(|| {
                    fail(format!(
                        "{} verdict {got:?} disagrees with the reference predicate {want}",
                        result.kind.id()
                    ))
                });
            }
        }
    }
    (stats, failure, latencies)
}

// ----------------------------------------------------------- mpc-chaos

/// Worker counts the chaos iterations cycle through.
const CHAOS_WORKERS: [usize; 5] = [1, 2, 3, 4, 8];

/// One MPC chaos iteration: run a decider clean, then again under a
/// seeded storm of network faults (plus a worker kill when the clean
/// run had any rounds to kill in), and demand the fault-transparency
/// invariant — verdicts, residues, per-worker usage, traces, and the
/// clean communication meters all bit-identical, with the storm's cost
/// visible only in the recovery counters.
fn run_mpc_chaos(master: u64, iteration: u64) -> (ScenarioStats, Option<ScenarioFailure>) {
    use st_mpc::{
        decide_check_sort, decide_multiset_equality, evaluate_sym_diff, MpcOptions, MpcRun,
        NetFaultPlan,
    };

    let mut stats = ScenarioStats {
        iterations: 1,
        ..ScenarioStats::default()
    };
    let mut rng = prng::derive_rng(master, "soak-mpc-chaos", iteration);
    let p = CHAOS_WORKERS[rng.gen_range(0..CHAOS_WORKERS.len())];
    let m = rng.gen_range(2..=12usize);
    let n = rng.gen_range(3..=7usize);
    let inst = match rng.gen_range(0..3u32) {
        0 => generate::yes_checksort(m, n, &mut rng),
        1 => generate::yes_multiset(m, n, &mut rng),
        _ => generate::random_instance(m, n, &mut rng),
    };
    let opts = MpcOptions::with_workers(p);

    // Storm rates stay below the level where the attempt-decayed retry
    // budget could plausibly exhaust; the plan seed is its own stream.
    let plan_seed = prng::derive_seed(master, "soak-mpc-plan", iteration);
    let mut rate = |lo: f64| lo + rng.gen::<f64>() * 0.4;
    let storm = NetFaultPlan::new(plan_seed)
        .with_drop(rate(0.05))
        .with_duplicate(rate(0.05))
        .with_reorder(rate(0.05))
        .with_corrupt(rate(0.05))
        .with_delay(rate(0.05));
    let fp_seed = prng::derive_seed(master, "soak-mpc-fp", iteration);

    // All remaining dice rolled up front so the closures below borrow
    // nothing mutable.
    let kill_worker = rng.gen_range(0..p);
    let kill_round_pick = rng.gen::<u64>();
    let decider = rng.gen_range(0..3u32);

    // Clean/faulted pairs per decider; `kill` picks a victim round from
    // the clean run's own round count.
    let kill = |plan: NetFaultPlan, rounds: u64| {
        if p > 1 && rounds > 0 {
            plan.kill_worker_after(kill_worker, kill_round_pick % rounds)
        } else {
            plan
        }
    };
    let check = |clean: &MpcRun, faulted: &MpcRun, what: &str| -> Option<ScenarioFailure> {
        if faulted.accepted != clean.accepted {
            return Some((format!("{what}: verdict drifted under the storm"), None));
        }
        if faulted.comm.clean() != clean.comm.clean() {
            return Some((format!("{what}: clean comm meters drifted"), None));
        }
        if faulted.per_worker != clean.per_worker || faulted.traces != clean.traces {
            return Some((format!("{what}: per-worker usage or traces drifted"), None));
        }
        None
    };
    let mut charge = |run: &MpcRun| {
        stats.mpc_retries += run.comm.retries;
        stats.mpc_worker_crashes += run.comm.worker_crashes;
        stats.mpc_redundant_bytes += run.comm.redundant_bytes;
    };

    let failure = match decider {
        0 => {
            let clean = match decide_check_sort(&inst, &opts) {
                Ok(run) => run,
                Err(e) => {
                    return (
                        stats,
                        Some((format!("clean check-sort errored: {e}"), None)),
                    )
                }
            };
            let plan = kill(storm, clean.comm.rounds);
            match decide_check_sort(&inst, &opts.clone().with_fault_plan(plan)) {
                Ok(faulted) => {
                    charge(&faulted);
                    check(&clean, &faulted, "check-sort")
                }
                Err(e) => Some((format!("faulted check-sort errored: {e}"), None)),
            }
        }
        1 => {
            let run = |o: &MpcOptions| {
                decide_multiset_equality(&inst, &mut StdRng::seed_from_u64(fp_seed), o)
            };
            let clean = match run(&opts) {
                Ok(run) => run,
                Err(e) => {
                    return (
                        stats,
                        Some((format!("clean fingerprint errored: {e}"), None)),
                    )
                }
            };
            let plan = kill(storm, clean.run.comm.rounds);
            match run(&opts.clone().with_fault_plan(plan)) {
                Ok(faulted) => {
                    charge(&faulted.run);
                    if faulted.residues != clean.residues {
                        Some(("fingerprint: residues drifted under the storm".into(), None))
                    } else {
                        check(&clean.run, &faulted.run, "fingerprint")
                    }
                }
                Err(e) => Some((format!("faulted fingerprint errored: {e}"), None)),
            }
        }
        _ => {
            let clean = match evaluate_sym_diff(&inst, &opts) {
                Ok(run) => run,
                Err(e) => return (stats, Some((format!("clean sym-diff errored: {e}"), None))),
            };
            let plan = kill(storm, clean.run.comm.rounds);
            match evaluate_sym_diff(&inst, &opts.clone().with_fault_plan(plan)) {
                Ok(faulted) => {
                    charge(&faulted.run);
                    if faulted.symdiff != clean.symdiff {
                        Some(("sym-diff: count drifted under the storm".into(), None))
                    } else {
                        check(&clean.run, &faulted.run, "sym-diff")
                    }
                }
                Err(e) => Some((format!("faulted sym-diff errored: {e}"), None)),
            }
        }
    };
    (stats, failure)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_ctx(tag: &str) -> SoakContext {
        let scratch =
            std::env::temp_dir().join(format!("st-soak-scenario-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        SoakContext {
            scratch,
            inject: None,
        }
    }

    #[test]
    fn scenario_ids_round_trip_and_round_robin_covers_all() {
        for s in all_scenarios() {
            assert_eq!(Scenario::from_id(s.id()), Some(s));
        }
        assert_eq!(Scenario::from_id("no-such"), None);
        let seen: Vec<Scenario> = (0..6).map(scenario_for_iteration).collect();
        assert_eq!(seen, all_scenarios());
    }

    #[test]
    fn mpc_chaos_iterations_retry_and_recover_transparently() {
        let mut retries = 0;
        let mut crashes = 0;
        let mut redundant = 0;
        for iteration in 0..24 {
            let (stats, failure) = run_mpc_chaos(13, iteration);
            assert!(failure.is_none(), "i{iteration}: {failure:?}");
            retries += stats.mpc_retries;
            crashes += stats.mpc_worker_crashes;
            redundant += stats.mpc_redundant_bytes;
        }
        assert!(retries > 0, "no storm ever forced a retransmission");
        assert!(crashes > 0, "no worker was ever killed and recovered");
        assert!(redundant > 0, "retransmissions were never billed");
    }

    #[test]
    fn serve_iterations_admit_reject_and_chart_session_latency() {
        let ctx = test_ctx("serve");
        let mut rejections = 0;
        let mut sessions = 0;
        let mut comparisons = 0;
        for iteration in 0..8 {
            let o = run_iteration(Scenario::Serve, 5, iteration, &ctx);
            assert!(o.failure.is_none(), "{:?}", o.failure);
            assert_eq!(
                o.session_latency_nanos.len() as u64,
                o.stats.sessions,
                "one latency sample per admitted session"
            );
            rejections += o.stats.admission_rejections;
            sessions += o.stats.sessions;
            comparisons += o.stats.comparisons;
        }
        assert!(sessions > 0, "no serve session ever ran");
        assert!(
            rejections > 0,
            "the pinched tenant never hit the admission gate"
        );
        assert_eq!(
            comparisons, sessions,
            "every admitted session is differentially checked"
        );
        std::fs::remove_dir_all(&ctx.scratch).ok();
    }

    #[test]
    fn iterations_are_pure_functions_of_the_triple() {
        let ctx = test_ctx("pure");
        for scenario in all_scenarios() {
            for iteration in 0..4 {
                let a = run_iteration(scenario, 7, iteration, &ctx);
                let b = run_iteration(scenario, 7, iteration, &ctx);
                assert_eq!(a.stats, b.stats, "{} i{iteration}", scenario.id());
                assert_eq!(
                    a.failure.is_some(),
                    b.failure.is_some(),
                    "{} i{iteration}",
                    scenario.id()
                );
                assert!(a.failure.is_none(), "{:?}", a.failure);
            }
        }
        std::fs::remove_dir_all(&ctx.scratch).ok();
    }

    #[test]
    fn crash_storm_injects_and_recovers() {
        let ctx = test_ctx("storm");
        let mut crashes = 0;
        let mut recoveries = 0;
        let mut discarded = 0;
        for iteration in 0..12 {
            let o = run_iteration(Scenario::CrashStorm, 3, iteration, &ctx);
            assert!(o.failure.is_none(), "{:?}", o.failure);
            crashes += o.stats.crashes_injected;
            recoveries += o.stats.crash_recoveries;
            discarded += o.stats.wal_discarded_bytes;
        }
        assert!(crashes > 0, "storm never crashed");
        assert!(recoveries > 0, "storm never recovered");
        assert!(
            discarded > 0,
            "recovery never discarded an uncommitted tail"
        );
        // Scratch journals are cleaned up per iteration.
        assert_eq!(std::fs::read_dir(&ctx.scratch).unwrap().count(), 0);
        std::fs::remove_dir_all(&ctx.scratch).ok();
    }

    #[test]
    fn fault_storm_injects_faults_and_charts_exhaustion() {
        let mut faults = 0;
        let mut verified = 0;
        let mut exhausted = 0;
        for iteration in 0..24 {
            let (stats, failure) = run_fault_storm(11, iteration);
            assert!(failure.is_none(), "{failure:?}");
            faults += stats.faults_injected;
            verified += stats.verified_runs;
            exhausted += stats.retry_exhaustions;
        }
        assert!(faults > 0, "no faults injected across 24 storms");
        assert!(verified > 0, "no storm ever verified");
        assert_eq!(verified + exhausted, 24);
    }

    #[test]
    fn injected_oracle_is_caught_shrunk_and_replayable() {
        let ctx = SoakContext {
            inject: Some(Injection::BrokenSortOracle),
            ..test_ctx("inject")
        };
        let master = 0;
        let caught = (0..200u64).find_map(|iteration| {
            let o = run_iteration(Scenario::Fuzz, master, iteration, &ctx);
            o.failure.map(|f| (iteration, f))
        });
        let (iteration, failure) = caught.expect("planted bug escaped 200 fuzz iterations");
        let repro = failure.repro.expect("fuzz failures carry a repro");
        assert_eq!(repro.oracle, "soak-injected-off-by-one");
        // The shrunk word still disagrees, and the iteration replays
        // from (scenario, master, iteration) alone.
        assert!(st_conformance::shrink::still_disagrees(
            &injected_oracle(),
            &repro.word,
            repro.seed
        ));
        let replay = replay_iteration(Scenario::Fuzz, master, iteration, ctx.inject);
        let replayed = replay.failure.expect("replay lost the failure");
        assert_eq!(replayed.repro.unwrap().word, repro.word);
        std::fs::remove_dir_all(&ctx.scratch).ok();
    }
}
