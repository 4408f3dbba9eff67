//! The traced run: each request decomposed into the public calls of the
//! layers it crosses, with a span around every call.
//!
//! A sweep over one input first runs the workload's request untraced,
//! then the same request decomposed under a `request` span, then probes
//! every other layer with the same input, so each run reports every
//! per-layer metric:
//!
//! - `problems`: `Instance::parse`, `Instance::encode`;
//! - `stepper`/`extmem`: the decider's `Stepper` fed, finished and
//!   driven, with the `ResourceUsage` it meters;
//! - `trace`: `Session::audit` of an in-process session fed the word;
//! - `serve`: the request sequence through in-process `Service::handle`
//!   and through the `serve --listen` process over TCP;
//! - `mpc`: the shard envelopes through the wire codec, and the
//!   problem's MPC decider clean, under the storm, and under the storm
//!   with a worker kill.
//!
//! Every decomposition is checked against its untraced call: verdicts,
//! `ResourceUsage`, residues, bills and `CommUsage::clean()` must match
//! bit for bit.

use crate::gen::{Input, Problem};
use crate::serve_client::{run_session, Call, Conn, SessionOutcome, SessionPlan, TENANT};
use crate::spans::{median, Recorder};
use crate::{mpc_options, storm, Report, Setup, Spec, Workload, WORKERS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use st_algo::sortcheck::{decide_check_sort, decide_set_equality};
use st_algo::{drive_to_verdict, FingerprintStepper, SortRoute, SortRouteStepper, StepOutcome};
use st_algo::{DeciderRun, Stepper};
use st_conformance::prng::derive_seed;
use st_core::{ResourceUsage, SignedBill, StError, TenantBudget};
use st_mpc::wire::{open_net, seal_net, shard_envelopes};
use st_mpc::{range_shard, Envelope, MpcRun, NetFaultPlan};
use st_problems::Instance;
use st_serve::{DeciderKind, Request, ServeOptions, Service, Session};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric, with its unit, in output order.
pub const METRICS: [(&str, &str); 32] = [
    ("problems.parse_ms", "ms"),
    ("problems.encode_ms", "ms"),
    ("stepper.feed_ms", "ms"),
    ("stepper.finish_ms", "ms"),
    ("stepper.drive_ms", "ms"),
    ("extmem.cells", "count"),
    ("extmem.reversals", "count"),
    ("extmem.ns_per_cell", "ns"),
    ("serve.open_rtt_ms", "ms"),
    ("serve.feed_rtt_ms", "ms"),
    ("serve.finish_rtt_ms", "ms"),
    ("serve.step_rtt_ms", "ms"),
    ("serve.done_rtt_ms", "ms"),
    ("serve.handle_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.requests_per_session", "count"),
    ("trace.audit_ms", "ms"),
    ("trace.events_per_session", "count"),
    ("mpc.clean_ms", "ms"),
    ("mpc.retry_ms", "ms"),
    ("mpc.recovery_ms", "ms"),
    ("mpc.wire_codec_ms", "ms"),
    ("mpc.rounds", "count"),
    ("mpc.messages", "count"),
    ("mpc.bytes_on_wire", "bytes"),
    ("mpc.retries", "count"),
    ("mpc.redundant_bytes", "bytes"),
    ("mpc.worker_crashes", "count"),
    ("mpc.recovery_rounds", "count"),
    ("mpc.trace_bytes", "bytes"),
    ("span.overhead_ms", "ms"),
    ("span.uncovered_ms", "ms"),
];

/// A decider's answer: verdict, metered usage, and (fingerprint only)
/// the residues.
#[derive(Debug, PartialEq)]
struct Answer {
    accepted: bool,
    usage: ResourceUsage,
    residues: Option<(u64, u64)>,
}

impl Answer {
    fn of(run: DeciderRun, residues: Option<(u64, u64)>) -> Self {
        Answer {
            accepted: run.accepted,
            usage: run.usage,
            residues,
        }
    }

    /// Does `bill` charge exactly this answer's usage?
    fn billed_by(&self, bill: &SignedBill) -> bool {
        let b = &bill.bill;
        b.accepted == Some(self.accepted)
            && b.reversals == self.usage.total_reversals()
            && b.internal_bits == self.usage.internal_space
            && b.external_cells == self.usage.external_cells
    }
}

fn parity<T: PartialEq + std::fmt::Debug>(
    what: &str,
    traced: &T,
    untraced: &T,
) -> Result<(), String> {
    if traced == untraced {
        Ok(())
    } else {
        Err(format!(
            "{what} parity: traced {traced:?} != untraced {untraced:?}"
        ))
    }
}

/// The batch decider for `problem` (the untraced reference).
fn batch(problem: Problem, inst: &Instance, rng_seed: u64) -> Result<Answer, StError> {
    Ok(match problem {
        Problem::CheckSort => Answer::of(decide_check_sort(inst)?, None),
        Problem::SetEq => Answer::of(decide_set_equality(inst)?, None),
        Problem::Multiset => {
            let mut rng = StdRng::seed_from_u64(rng_seed);
            let run = st_algo::fingerprint::decide_multiset_equality(inst, &mut rng)?;
            Answer {
                accepted: run.accepted,
                usage: run.usage,
                residues: Some(run.residues),
            }
        }
    })
}

/// The MPC decider for `problem` at p = [`WORKERS`], under `plan`.
fn mpc(
    problem: Problem,
    inst: &Instance,
    plan: Option<NetFaultPlan>,
    rng_seed: u64,
) -> Result<MpcRun, StError> {
    let opts = mpc_options(plan);
    match problem {
        Problem::CheckSort => st_mpc::decide_check_sort(inst, &opts),
        Problem::SetEq => st_mpc::evaluate_sym_diff(inst, &opts).map(|q| q.run),
        Problem::Multiset => {
            let mut rng = StdRng::seed_from_u64(rng_seed);
            st_mpc::decide_multiset_equality(inst, &mut rng, &opts).map(|f| f.run)
        }
    }
}

/// Per-layer samples, keyed by metric name.
type Vals = BTreeMap<&'static str, Vec<f64>>;

fn push(vals: &mut Vals, name: &'static str, value: f64) {
    vals.entry(name).or_default().push(value);
}

struct Sweep<'a> {
    workload: Workload,
    spec: &'a Spec,
    seed: u64,
    rec: Recorder,
    vals: Vals,
    conn: Conn,
    service: Service,
}

impl Sweep<'_> {
    /// A TCP session; each call gets a span named after its request.
    fn tcp_session(
        &mut self,
        plan: &SessionPlan<'_>,
        traced: bool,
    ) -> Result<SessionOutcome, String> {
        let Sweep { rec, conn, .. } = self;
        run_session(plan, |request| {
            let name = match &request {
                Request::Open { .. } => "serve.open",
                Request::Feed { .. } => "serve.feed",
                Request::Finish { .. } => "serve.finish",
                _ => "serve.step",
            };
            if traced {
                let (response, ms) = rec.time(name, || conn.call(request));
                Ok((response?, ms))
            } else {
                let t = Instant::now();
                let response = conn.call(request)?;
                Ok((response, t.elapsed().as_secs_f64() * 1e3))
            }
        })
    }

    fn push_rtts(&mut self, session: &SessionOutcome) {
        for &(call, ms) in &session.calls {
            let name = match call {
                Call::Open => "serve.open_rtt_ms",
                Call::Feed => "serve.feed_rtt_ms",
                Call::Finish => "serve.finish_rtt_ms",
                Call::Step => "serve.step_rtt_ms",
                Call::Done => "serve.done_rtt_ms",
            };
            push(&mut self.vals, name, ms);
        }
    }

    /// Feed, finish and drive `stepper` under spans.
    fn drive<S: Stepper>(&mut self, stepper: &mut S, bytes: &[u8]) -> Result<DeciderRun, StError> {
        let (fed, feed_ms) = self.rec.time("stepper.feed", || stepper.feed(bytes));
        let _ = fed?;
        let (finished, finish_ms) = self.rec.time("stepper.finish", || stepper.finish());
        finished?;
        let (run, drive_ms) = self.rec.time("stepper.drive", || drive_to_verdict(stepper));
        let run = run?;
        push(&mut self.vals, "stepper.feed_ms", feed_ms);
        push(&mut self.vals, "stepper.finish_ms", finish_ms);
        push(&mut self.vals, "stepper.drive_ms", drive_ms);
        let cells = run.usage.external_cells as f64;
        push(&mut self.vals, "extmem.cells", cells);
        push(
            &mut self.vals,
            "extmem.reversals",
            run.usage.total_reversals() as f64,
        );
        push(
            &mut self.vals,
            "extmem.ns_per_cell",
            drive_ms * 1e6 / cells.max(1.0),
        );
        Ok(run)
    }

    /// The problem's stepper over `bytes`, as the batch decider runs it.
    fn stepper_layers(&mut self, bytes: &[u8], rng_seed: u64) -> Result<Answer, StError> {
        match self.spec.problem {
            Problem::Multiset => {
                let mut stepper = FingerprintStepper::new(StdRng::seed_from_u64(rng_seed));
                let run = self.drive(&mut stepper, bytes)?;
                Ok(Answer::of(run, stepper.residues()))
            }
            Problem::CheckSort => {
                let mut stepper = SortRouteStepper::new(SortRoute::CheckSort);
                Ok(Answer::of(self.drive(&mut stepper, bytes)?, None))
            }
            Problem::SetEq => {
                let mut stepper = SortRouteStepper::new(SortRoute::SetEquality);
                Ok(Answer::of(self.drive(&mut stepper, bytes)?, None))
            }
        }
    }

    /// One input through every layer. `i` numbers the sweep.
    fn sweep(&mut self, i: u64, input: &Input) -> Result<(), String> {
        let problem = self.spec.problem;
        let word = input.word.as_str();
        let bytes = word.as_bytes();
        let sid = i + 1;
        // The server seeds session `sid` this way; the batch, stepper and
        // MPC fingerprint runs reuse it so every bill is comparable.
        let rng_seed = derive_seed(0, "session-rng", sid);
        let plan_seed = derive_seed(self.seed, "net-plan", i);
        let plan = self.spec.session(sid, bytes);

        // 1. The workload's request, untraced.
        let t = Instant::now();
        let mut reference = None;
        let mut untraced_session = None;
        let mut untraced_mpc = None;
        match self.workload {
            Workload::Fingerprint => {
                let inst = Instance::parse(word).map_err(|e| e.to_string())?;
                reference = Some(batch(problem, &inst, rng_seed).map_err(|e| e.to_string())?);
            }
            Workload::ServeTcp => untraced_session = Some(self.tcp_session(&plan, false)?),
            Workload::MpcStorm => {
                let inst = Instance::parse(word).map_err(|e| e.to_string())?;
                let run = mpc(problem, &inst, Some(storm(plan_seed, true)), rng_seed)
                    .map_err(|e| e.to_string())?;
                untraced_mpc = Some(run);
            }
        }
        let untraced_ms = t.elapsed().as_secs_f64() * 1e3;

        // 2. The same request, decomposed under spans.
        self.rec.set_request(i);
        let root = self.rec.begin("request");
        let mut inst = None;
        let mut stepped = None;
        let mut tcp = None;
        let mut storm_kill = None;
        match self.workload {
            Workload::Fingerprint => {
                let (parsed, parse_ms) = self.rec.time("problems.parse", || Instance::parse(word));
                let parsed = parsed.map_err(|e| e.to_string())?;
                let (encoded, encode_ms) = self.rec.time("problems.encode", || parsed.encode());
                push(&mut self.vals, "problems.parse_ms", parse_ms);
                push(&mut self.vals, "problems.encode_ms", encode_ms);
                stepped = Some(
                    self.stepper_layers(encoded.as_bytes(), rng_seed)
                        .map_err(|e| e.to_string())?,
                );
                inst = Some(parsed);
            }
            Workload::ServeTcp => tcp = Some(self.tcp_session(&plan, true)?),
            Workload::MpcStorm => {
                let (parsed, parse_ms) = self.rec.time("problems.parse", || Instance::parse(word));
                let parsed = parsed.map_err(|e| e.to_string())?;
                push(&mut self.vals, "problems.parse_ms", parse_ms);
                let kill = storm(plan_seed, true);
                let (run, ms) = self.rec.time("mpc.storm_kill", || {
                    mpc(problem, &parsed, Some(kill), rng_seed)
                });
                storm_kill = Some((run.map_err(|e| e.to_string())?, ms));
                inst = Some(parsed);
            }
        }
        let request_ms = self.rec.end(root);
        push(&mut self.vals, "span.overhead_ms", request_ms - untraced_ms);
        push(
            &mut self.vals,
            "span.uncovered_ms",
            self.rec.uncovered_ms(root),
        );

        // 3. Probes of the layers the request does not cross.
        if matches!(self.workload, Workload::ServeTcp | Workload::MpcStorm) {
            let probe = self.rec.begin("probe.problems");
            let (parsed, parse_ms) = self.rec.time("problems.parse", || Instance::parse(word));
            let parsed = parsed.map_err(|e| e.to_string())?;
            let (_, encode_ms) = self.rec.time("problems.encode", || parsed.encode());
            self.rec.end(probe);
            if self.workload == Workload::ServeTcp {
                push(&mut self.vals, "problems.parse_ms", parse_ms);
            }
            push(&mut self.vals, "problems.encode_ms", encode_ms);
            inst = Some(parsed);
        }
        let inst = inst.expect("every workload parses the word");
        let reference = match reference {
            Some(r) => r,
            None => batch(problem, &inst, rng_seed).map_err(|e| e.to_string())?,
        };
        let stepped = match stepped {
            Some(s) => s,
            None => {
                let probe = self.rec.begin("probe.stepper");
                let s = self
                    .stepper_layers(bytes, rng_seed)
                    .map_err(|e| e.to_string());
                self.rec.end(probe);
                s?
            }
        };
        parity("stepper answer", &stepped, &reference)?;
        if reference.accepted != input.expected {
            return Err(format!(
                "batch verdict {} != reference {}",
                reference.accepted, input.expected
            ));
        }

        // trace: the replay audit of an in-process session.
        let kind = DeciderKind::from_id(problem.decider_id()).expect("known decider id");
        let probe = self.rec.begin("probe.session");
        let mut session = Session::open(sid, kind, rng_seed);
        for chunk in bytes.chunks(plan.chunk) {
            session.feed(chunk).map_err(|e| e.to_string())?;
        }
        session.finish().map_err(|e| e.to_string())?;
        loop {
            match session.step(plan.budget).map_err(|e| e.to_string())? {
                StepOutcome::Done(_) => break,
                StepOutcome::Yielded => {}
                StepOutcome::NeedInput => return Err("finished session asked for input".into()),
            }
        }
        let (audit, audit_ms) = self.rec.time("trace.audit", || session.audit());
        self.rec.end(probe);
        if !audit.ok {
            return Err(format!("session audit failed:\n{}", audit.detail));
        }
        push(&mut self.vals, "trace.audit_ms", audit_ms);
        push(
            &mut self.vals,
            "trace.events_per_session",
            audit.events as f64,
        );
        drop(session);

        // serve: the same request sequence through in-process handle().
        let probe = self.rec.begin("probe.service");
        let Sweep { rec, service, .. } = self;
        let handled = run_session(&plan, |request| {
            let (response, ms) = rec.time("serve.handle", || service.handle(request));
            Ok((response, ms))
        });
        self.rec.end(probe);
        let handled = handled?;
        let handle_ms: f64 = handled.calls.iter().map(|(_, ms)| ms).sum();
        push(&mut self.vals, "serve.handle_ms", handle_ms);
        push(
            &mut self.vals,
            "serve.requests_per_session",
            handled.calls.len() as f64,
        );
        if !reference.billed_by(&handled.bill) {
            return Err(format!(
                "in-process bill {} != batch usage",
                handled.bill.bill
            ));
        }

        // serve over TCP (the request itself on serve-tcp).
        let tcp = match tcp {
            Some(s) => s,
            None => {
                let probe = self.rec.begin("probe.tcp");
                let s = self.tcp_session(&plan, true);
                self.rec.end(probe);
                s?
            }
        };
        self.push_rtts(&tcp);
        let rtt_ms: f64 = tcp.calls.iter().map(|(_, ms)| ms).sum();
        push(&mut self.vals, "serve.wire_ms", rtt_ms - handle_ms);
        for session in [Some(&tcp), untraced_session.as_ref()]
            .into_iter()
            .flatten()
        {
            if !reference.billed_by(&session.bill) {
                return Err(format!("TCP bill {} != batch usage", session.bill.bill));
            }
        }

        // mpc: wire codec, then clean / storm / storm + kill.
        let probe = self.rec.begin("probe.mpc");
        let envelopes: Vec<Envelope> = (0..WORKERS)
            .flat_map(|w| {
                shard_envelopes(
                    w,
                    &range_shard(&inst.xs, w, WORKERS),
                    &range_shard(&inst.ys, w, WORKERS),
                )
            })
            .collect();
        let (codec, codec_ms) = self.rec.time("mpc.wire_codec", || {
            envelopes.iter().enumerate().try_for_each(|(seq, env)| {
                let body = env.encode().map_err(|e| e.to_string())?;
                let frame = seal_net(seq as u32, &body);
                let (_, opened) = open_net(&frame)?;
                let back = Envelope::decode(opened)?;
                parity("wire codec", &back, env)
            })
        });
        let (clean, clean_ms) = self
            .rec
            .time("mpc.clean", || mpc(problem, &inst, None, rng_seed));
        let no_kill = storm(plan_seed, false);
        let (stormy, storm_ms) = self
            .rec
            .time("mpc.storm", || mpc(problem, &inst, Some(no_kill), rng_seed));
        let (killed, kill_ms) = match storm_kill {
            Some(done) => done,
            None => {
                let kill = storm(plan_seed, true);
                let (run, ms) = self.rec.time("mpc.storm_kill", || {
                    mpc(problem, &inst, Some(kill), rng_seed)
                });
                (run.map_err(|e| e.to_string())?, ms)
            }
        };
        self.rec.end(probe);
        codec?;
        let clean = clean.map_err(|e| e.to_string())?;
        let stormy = stormy.map_err(|e| e.to_string())?;
        for (what, run) in [("storm", &stormy), ("storm+kill", &killed)]
            .into_iter()
            .chain(untraced_mpc.as_ref().map(|r| ("untraced storm+kill", r)))
        {
            parity(&format!("{what} verdict"), &run.accepted, &clean.accepted)?;
            parity(&format!("{what} usage"), &run.usage, &clean.usage)?;
            parity(
                &format!("{what} comm.clean()"),
                &run.comm.clean(),
                &clean.comm,
            )?;
        }
        parity("mpc verdict", &clean.accepted, &input.expected)?;
        if killed.comm.worker_crashes != 1 {
            return Err(format!("kill fired {} times", killed.comm.worker_crashes));
        }
        if self.workload == Workload::MpcStorm && killed.comm.retries == 0 {
            return Err("the storm forced no retries".into());
        }
        let comm = &killed.comm;
        for (name, value) in [
            ("mpc.clean_ms", clean_ms),
            ("mpc.retry_ms", storm_ms - clean_ms),
            ("mpc.recovery_ms", kill_ms - storm_ms),
            ("mpc.wire_codec_ms", codec_ms),
            ("mpc.rounds", comm.rounds as f64),
            ("mpc.messages", comm.messages as f64),
            ("mpc.bytes_on_wire", comm.bytes_on_wire as f64),
            ("mpc.retries", comm.retries as f64),
            ("mpc.redundant_bytes", comm.redundant_bytes as f64),
            ("mpc.worker_crashes", comm.worker_crashes as f64),
            ("mpc.recovery_rounds", comm.recovery_rounds as f64),
            (
                "mpc.trace_bytes",
                killed.traces.iter().map(String::len).sum::<usize>() as f64,
            ),
        ] {
            push(&mut self.vals, name, value);
        }
        Ok(())
    }
}

/// The traced run: sweeps over the setup's inputs for `seconds`, then
/// the median of every per-layer metric. Spans are written to
/// `workdir/spans-<workload>-<seed>.jsonl`.
pub fn run(
    workload: Workload,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    setup: &Setup,
    workdir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let server = setup
        .server
        .as_ref()
        .ok_or("the traced run needs a server")?;
    let service = Service::new(ServeOptions::default().billing_key, 0);
    service.register_tenant(TENANT, TenantBudget::unlimited());
    let mut sweep = Sweep {
        workload,
        spec,
        seed,
        rec: Recorder::new(),
        vals: Vals::new(),
        conn: Conn::connect(server.port)?,
        service,
    };
    let start = Instant::now();
    let mut i: u64 = 0;
    while i == 0 || start.elapsed().as_secs_f64() < seconds {
        let input = &setup.inputs[i as usize % setup.inputs.len()];
        let outcome = sweep.sweep(i, input);
        sweep.rec.close_all();
        report.op(outcome);
        i += 1;
    }
    let path = workdir.join(format!("spans-{workload:?}-{seed}.jsonl"));
    std::fs::write(&path, sweep.rec.to_jsonl())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    for (name, unit) in METRICS {
        match sweep.vals.get(name) {
            Some(samples) => report.metric(name, median(samples), unit, samples.len()),
            None => {
                report.op(Err(format!("no samples for {name}")));
                report.metric(name, 0.0, unit, 0);
            }
        }
    }
    Ok(())
}
