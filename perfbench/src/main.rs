//! st-lab benchmark: end-to-end and per-layer numbers for the public
//! entry points.
//!
//! ```text
//! perfbench --workload fingerprint|serve-tcp|mpc-storm --seed N \
//!           --seconds S --trace 0|1 --serve-bin PATH --workdir DIR
//! ```
//!
//! Every workload is a closed loop with one caller that sends requests
//! of one shape for `--seconds`, checks every answer, and prints one
//! line per metric (value, unit, sample count) and then a JSON summary
//! as its last line. `--trace 0` measures the end-to-end metrics;
//! `--trace 1` decomposes the same requests into the per-layer public
//! calls, with a span around each (see `layers`). See README.md for the
//! workload shapes and the layer-to-metric map.

mod gen;
mod layers;
mod serve_client;
mod spans;

use gen::{Input, Problem};
use serve_client::{run_session, Conn, Server, SessionPlan};
use spans::{median, quantile};
use st_algo::fingerprint::{check_theorem8a_bounds, decide_multiset_equality};
use st_conformance::prng::derive_seed;
use st_core::BillingKey;
use st_mpc::{evaluate_sym_diff, MpcOptions, NetFaultPlan};
use st_problems::Instance;
use st_serve::ServeOptions;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// MULTISET-EQ through `Instance::parse` + the Theorem 8(a) decider.
    Fingerprint,
    /// CHECK-SORT sessions against `serve --listen` over loopback TCP.
    ServeTcp,
    /// Q′ on an 8-worker MPC cluster under a seeded storm with a kill.
    MpcStorm,
}

/// A workload's fixed shape.
pub struct Spec {
    /// The problem its instances pose.
    pub problem: Problem,
    /// Values per list.
    pub m: usize,
    /// Bits per value.
    pub n: usize,
    /// Distinct instances generated at setup, used round-robin.
    pub count: usize,
    /// Bytes per `Feed` of a serve session over this workload's words.
    pub chunk: usize,
    /// Head operations per `Step` of such a session.
    pub budget: u64,
}

impl Spec {
    /// The serve session that feeds `word` as session `id`.
    pub fn session<'w>(&self, id: u64, word: &'w [u8]) -> SessionPlan<'w> {
        SessionPlan {
            id,
            decider: self.problem.decider_id(),
            m: self.m as u64,
            n: self.n as u64,
            word,
            chunk: self.chunk,
            budget: self.budget,
        }
    }
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "fingerprint" => Workload::Fingerprint,
            "serve-tcp" => Workload::ServeTcp,
            "mpc-storm" => Workload::MpcStorm,
            _ => return None,
        })
    }

    /// The shape table (README.md explains each choice).
    pub fn spec(self) -> Spec {
        match self {
            // Serve sessions over the 2m(n + 1) = 2²⁴-byte fingerprint
            // words (traced runs only) feed in 8 chunks and step in large
            // quanta, costing few round trips.
            Workload::Fingerprint => Spec {
                problem: Problem::Multiset,
                m: 1 << 14,
                n: 511,
                count: 2,
                chunk: 1 << 21,
                budget: 1 << 22,
            },
            Workload::ServeTcp => Spec {
                problem: Problem::CheckSort,
                m: 1 << 13,
                n: 32,
                count: 16,
                chunk: 1 << 16,
                budget: 1 << 16,
            },
            Workload::MpcStorm => Spec {
                problem: Problem::SetEq,
                m: 8192,
                n: 32,
                count: 8,
                chunk: 1 << 16,
                budget: 1 << 16,
            },
        }
    }
}

/// Simulated MPC workers.
pub const WORKERS: usize = 8;

/// The MPC options of `mpc-storm`: p = 8 workers on one host thread
/// (so a run does not depend on a second core being free), optionally
/// under `plan`.
pub fn mpc_options(plan: Option<NetFaultPlan>) -> MpcOptions {
    MpcOptions {
        jobs: 1,
        fault_plan: plan,
        ..MpcOptions::with_workers(WORKERS)
    }
}

/// The storm: 10 % drops, 2 % each of duplicate, reorder, corrupt and
/// delay, and (with `kill`) worker 3 killed after round 0.
pub fn storm(seed: u64, kill: bool) -> NetFaultPlan {
    let plan = NetFaultPlan::new(seed)
        .with_drop(0.10)
        .with_duplicate(0.02)
        .with_reorder(0.02)
        .with_corrupt(0.02)
        .with_delay(0.02);
    if kill {
        plan.kill_worker_after(3, 0)
    } else {
        plan
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut workdir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--workdir" => workdir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        workdir: workdir.ok_or("--workdir is required")?,
    })
}

/// Operation counts and printed metrics of one run.
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: typed errors, refusals, wrong answers,
    /// parity mismatches.
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Record one operation's outcome; a failure is printed to stderr.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("failed op #{}: {e}", self.attempted);
        }
    }

    /// Print and keep one metric; `samples` is how many measurements it
    /// summarizes.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        println!("metric {name} = {value} {unit} (samples={samples})");
        self.metrics.push((name, value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Everything a run needs, generated from the seed.
pub struct Setup {
    /// The instances' words and reference verdicts.
    pub inputs: Vec<Input>,
    /// The `serve --listen` process, when the run talks to one.
    pub server: Option<Server>,
}

fn setup(args: &Args, spec: &Spec, with_server: bool, script: &Path) -> Result<Setup, String> {
    let inputs = gen::inputs(args.seed, spec.problem, spec.m, spec.n, spec.count);
    let server = if with_server {
        Some(Server::spawn(&args.serve_bin, script)?)
    } else {
        None
    };
    Ok(Setup { inputs, server })
}

fn verdict(what: &str, got: bool, want: bool) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: verdict {got}, reference {want}"))
    }
}

/// Closed-loop timing: request latencies in ms plus the loop's records
/// and wall time.
struct Loop {
    req_ms: Vec<f64>,
    session_ms: Vec<f64>,
    records: f64,
    wall_s: f64,
}

/// Run the untraced closed loop of `workload` for `seconds`.
fn measure(
    workload: Workload,
    spec: &Spec,
    args: &Args,
    setup: &Setup,
    report: &mut Report,
) -> Result<Loop, String> {
    let records_per_instance = (2 * spec.m) as f64;
    let key = BillingKey::new(ServeOptions::default().billing_key);
    let mut conn = match &setup.server {
        Some(server) => Some(Conn::connect(server.port)?),
        None => None,
    };
    let mut out = Loop {
        req_ms: Vec::new(),
        session_ms: Vec::new(),
        records: 0.0,
        wall_s: 0.0,
    };
    let start = Instant::now();
    let mut i: u64 = 0;
    while start.elapsed().as_secs_f64() < args.seconds {
        let input = &setup.inputs[i as usize % setup.inputs.len()];
        let t = Instant::now();
        let outcome = match workload {
            Workload::Fingerprint => {
                let mut rng = gen::rng(args.seed, "fingerprint-rng", i);
                Instance::parse(&input.word)
                    .and_then(|inst| decide_multiset_equality(&inst, &mut rng))
                    .map_err(|e| e.to_string())
                    .and_then(|run| {
                        let violations = check_theorem8a_bounds(&run);
                        if !violations.is_empty() {
                            return Err(format!("Theorem 8(a) bounds violated: {violations:?}"));
                        }
                        verdict("fingerprint", run.accepted, input.expected)
                    })
            }
            Workload::MpcStorm => {
                let plan = storm(derive_seed(args.seed, "net-plan", i), true);
                Instance::parse(&input.word)
                    .and_then(|inst| evaluate_sym_diff(&inst, &mpc_options(Some(plan))))
                    .map_err(|e| e.to_string())
                    .and_then(|q| {
                        if q.run.comm.retries == 0 || q.run.comm.worker_crashes != 1 {
                            return Err(format!(
                                "storm did not fire: retries={} crashes={}",
                                q.run.comm.retries, q.run.comm.worker_crashes
                            ));
                        }
                        verdict("Q'", q.run.accepted, input.expected)
                    })
            }
            Workload::ServeTcp => {
                let conn = conn.as_mut().expect("serve-tcp connects at setup");
                run_session(&spec.session(i + 1, input.word.as_bytes()), |request| {
                    let t = Instant::now();
                    let response = conn.call(request)?;
                    Ok((response, t.elapsed().as_secs_f64() * 1e3))
                })
                .and_then(|s| {
                    out.req_ms.extend(s.calls.iter().map(|(_, ms)| ms));
                    if !key.verify(&s.bill) {
                        return Err("bill signature does not verify".into());
                    }
                    verdict("serve check-sort", s.accepted, input.expected)
                })
            }
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if outcome.is_ok() {
            out.records += records_per_instance;
            out.session_ms.push(ms);
            if workload != Workload::ServeTcp {
                out.req_ms.push(ms);
            }
        }
        report.op(outcome);
        i += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    Ok(out)
}

fn run(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    let spec = workload.spec();
    std::fs::create_dir_all(&args.workdir)
        .map_err(|e| format!("creating {}: {e}", args.workdir.display()))?;
    let script = args.workdir.join("tenants.script");
    std::fs::write(
        &script,
        format!(
            "tenant {} reversals=unlimited bits=unlimited\n",
            serve_client::TENANT
        ),
    )
    .map_err(|e| format!("writing {}: {e}", script.display()))?;
    let with_server = args.trace || workload == Workload::ServeTcp;

    // Set-up runs SETUPS times; its median is setup_s, and the last
    // one's inputs and server are kept.
    const SETUPS: usize = 5;
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup(args, &spec, with_server, &script)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = kept.expect("at least one setup");
    println!(
        "workload {workload:?}: m={} n={} N={} instances={} seed={} input-digest={:016x}",
        spec.m,
        spec.n,
        2 * spec.m * (spec.n + 1),
        spec.count,
        args.seed,
        gen::digest(&setup.inputs)
    );

    let mut report = Report::new();
    if args.trace {
        layers::run(
            workload,
            &spec,
            args.seed,
            args.seconds,
            &setup,
            &args.workdir,
            &mut report,
        )?;
        return Ok(report);
    }

    let timed = measure(workload, &spec, args, &setup, &mut report)?;
    if timed.req_ms.is_empty() || timed.session_ms.is_empty() {
        return Err("no request completed".into());
    }
    let peak_rss = match &setup.server {
        Some(server) => server.peak_rss_mb()?,
        None => serve_client::peak_rss_mb("/proc/self/status")?,
    };
    drop(setup);
    report.metric("setup_s", median(&setup_s), "s", setup_s.len());
    report.metric(
        "records_per_s",
        timed.records / timed.wall_s,
        "1/s",
        timed.session_ms.len(),
    );
    report.metric(
        "req_p50_ms",
        median(&timed.req_ms),
        "ms",
        timed.req_ms.len(),
    );
    report.metric(
        "session_p50_ms",
        median(&timed.session_ms),
        "ms",
        timed.session_ms.len(),
    );
    report.metric("peak_rss_mb", peak_rss, "MiB", 1);
    println!(
        "info req_ms min={} p25={} p75={} max={}",
        quantile(&timed.req_ms, 0.0),
        quantile(&timed.req_ms, 0.25),
        quantile(&timed.req_ms, 0.75),
        quantile(&timed.req_ms, 1.0)
    );
    if timed.req_ms.len() >= 100 {
        // Printed, not in the JSON: the p90 has ten samples beyond it
        // only on workloads with 100+ requests per run.
        println!(
            "info req_p90_ms = {} ms (samples={})",
            quantile(&timed.req_ms, 0.9),
            timed.req_ms.len()
        );
    }
    Ok(report)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    match run(&args) {
        Ok(report) => println!("{}", report.json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
