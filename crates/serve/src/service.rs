//! The service: deterministic script runs and the online handler.
//!
//! [`run_script`] executes a [`Script`] in three phases:
//!
//! 1. **Admission** (serial, script order): every session's reservation
//!    is priced by [`crate::admission::reserve`] and charged against
//!    its tenant's [`BudgetLedger`]. Over-budget sessions are rejected
//!    with a signed bill quoting the bound; they never touch a tape.
//! 2. **Execution** (parallel): one [`pool_map`] over the admitted
//!    sessions. Each item opens its session from the spec, feeds the
//!    word chunk by chunk, declares end of input, then steps the session
//!    in `step_batch` quanta to its verdict, counting the quanta that
//!    yield. `--jobs 1` runs them in order on the calling thread. Nothing
//!    in this phase writes to the transcript; each session's result is a
//!    function of its spec and the master seed alone.
//! 3. **Settlement** (serial, session order): each finished session is
//!    replay-audited against its own trace, billed from its measured
//!    usage, signed, and checked against its reservation.
//!
//! The transcript is therefore byte-identical across `--jobs` values:
//! both transcript-writing phases are serial, and the parallel phase
//! computes scheduling-independent data. Wall-clock latencies are kept
//! in [`SessionResult::latency_nanos`] for soak statistics and never
//! enter the transcript.
//!
//! [`Service`] is the online counterpart: a [`Request`] in, a
//! [`Response`] out, usable over any framed transport via
//! [`handle_stream`], and served over TCP by [`serve_listener`].

use crate::admission::{declared_input_len, rejection_bill, reserve};
use crate::protocol::{read_frame_lenient, FrameRead, Request, Response, MAX_FRAME};
use crate::script::{Script, SessionSpec};
use crate::session::{DeciderKind, Session};
use st_algo::StepOutcome;
use st_conformance::prng::derive_seed;
use st_core::frame::put_frame;
use st_core::{pool_map, BillingKey, BudgetLedger, SignedBill, StError, TenantBudget};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Options for [`run_script`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads for the execution phase (0 = available
    /// parallelism; 1 runs it on the calling thread).
    pub jobs: usize,
    /// Head operations per step quantum.
    pub step_batch: u64,
    /// Master seed: derives per-session RNG seeds and family words.
    pub master_seed: u64,
    /// Key that signs every bill.
    pub billing_key: u64,
    /// When set, write each session's trace as
    /// `session-<id>.jsonl` into this directory.
    pub trace_dir: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            jobs: 0,
            step_batch: 64,
            master_seed: 0,
            billing_key: 0x57_b111,
            trace_dir: None,
        }
    }
}

/// The settled record of one scripted session.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// Session id (= index in the script).
    pub index: u64,
    /// The paying tenant.
    pub tenant: String,
    /// The decider that ran (or was priced).
    pub kind: DeciderKind,
    /// `false` when admission refused the session.
    pub admitted: bool,
    /// The verdict (`None` on rejection or error).
    pub accepted: Option<bool>,
    /// The signed bill: measured on completion, quoted on rejection.
    pub bill: Option<SignedBill>,
    /// Replay-audit outcome (`None` when the session never ran).
    pub audit_ok: Option<bool>,
    /// Did the measured usage stay within the admission reservation?
    pub within_reserve: Option<bool>,
    /// Step quanta that ended in a yield.
    pub yields: u64,
    /// The session's own run time, from its first feed to its verdict
    /// (0 on rejection); time other sessions held the pool is not in it.
    /// Never part of the transcript.
    pub latency_nanos: u128,
    /// A session-level failure, if any.
    pub error: Option<String>,
}

/// The outcome of a full script run.
#[derive(Debug, Clone)]
pub struct ScriptRun {
    /// The deterministic transcript (identical across `jobs`).
    pub transcript: String,
    /// One settled record per scripted session, in script order.
    pub results: Vec<SessionResult>,
    /// Sessions admitted.
    pub admitted: u64,
    /// Sessions rejected at admission.
    pub rejected: u64,
}

impl ScriptRun {
    /// `true` when every admitted session completed, audited, verified
    /// its signature, and stayed within its reservation.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.results.iter().all(|r| {
            r.error.is_none()
                && (!r.admitted || (r.audit_ok == Some(true) && r.within_reserve == Some(true)))
        })
    }
}

/// What the execution phase hands back to settlement for one admitted
/// session.
struct Completion {
    session: Session,
    yields: u64,
    latency_nanos: u128,
    outcome: Result<(), StError>,
}

/// Open session `index` from its spec, feed its word chunk by chunk,
/// then step it in `step_batch` quanta to its verdict, counting the
/// quanta that yield. Everything here is a function of the spec and the
/// master seed, so the result does not depend on which thread runs it.
fn run_session(spec: &SessionSpec, index: u64, opts: &ServeOptions) -> Completion {
    let word = spec.resolve_word(opts.master_seed, index);
    let rng_seed = derive_seed(opts.master_seed, "session-rng", index);
    let mut session = Session::open(index, spec.kind, rng_seed);
    let started = Instant::now();
    let mut yields = 0;
    let mut drive = || -> Result<(), StError> {
        for chunk in word.as_bytes().chunks(spec.chunk) {
            if session.feed(chunk)? {
                return Ok(());
            }
        }
        session.finish()?;
        loop {
            match session.step(opts.step_batch)? {
                StepOutcome::Done(_) => return Ok(()),
                StepOutcome::Yielded => yields += 1,
                StepOutcome::NeedInput => {
                    return Err(StError::Machine(
                        "finished session asked for more input".into(),
                    ))
                }
            }
        }
    };
    let outcome = drive();
    Completion {
        session,
        yields,
        latency_nanos: started.elapsed().as_nanos(),
        outcome,
    }
}

/// Run a [`Script`] to a settled, audited, deterministic transcript.
pub fn run_script(script: &Script, opts: &ServeOptions) -> Result<ScriptRun, StError> {
    if let Some(i) = script.sessions.iter().position(|spec| spec.chunk == 0) {
        return Err(StError::Precondition(format!(
            "session {i}: feed chunk must be at least 1 byte"
        )));
    }
    let key = BillingKey::new(opts.billing_key);
    let mut transcript = String::new();
    let mut ledgers: Vec<(String, BudgetLedger)> = script
        .tenants
        .iter()
        .map(|t| (t.name.clone(), BudgetLedger::new(t.budget)))
        .collect();

    // Phase 1 — admission, serial in script order.
    let mut results: Vec<SessionResult> = Vec::with_capacity(script.sessions.len());
    let mut admitted_sessions: Vec<usize> = Vec::new();
    let mut reservations: Vec<TenantBudget> = Vec::with_capacity(script.sessions.len());
    for (i, spec) in script.sessions.iter().enumerate() {
        let index = i as u64;
        let reservation = reserve(spec.kind, spec.m, spec.n);
        reservations.push(reservation);
        let ledger = &mut ledgers
            .iter_mut()
            .find(|(name, _)| *name == spec.tenant)
            .expect("script validated tenants")
            .1;
        let mut result = SessionResult {
            index,
            tenant: spec.tenant.clone(),
            kind: spec.kind,
            admitted: false,
            accepted: None,
            bill: None,
            audit_ok: None,
            within_reserve: None,
            yields: 0,
            latency_nanos: 0,
            error: None,
        };
        let _ = write!(
            transcript,
            "open s={index} {} {} m={} n={} N={} reserve[{reservation}] -> ",
            spec.tenant,
            spec.kind.id(),
            spec.m,
            spec.n,
            declared_input_len(spec.m, spec.n),
        );
        if ledger.can_admit(reservation) {
            ledger.admit(reservation);
            transcript.push_str("admitted\n");
            result.admitted = true;
            admitted_sessions.push(i);
        } else {
            ledger.reject();
            let signed = key.sign(rejection_bill(
                &spec.tenant,
                index,
                spec.kind,
                spec.m,
                spec.n,
            ));
            let _ = writeln!(
                transcript,
                "REJECTED {} mac={:016x}",
                signed.bill, signed.mac
            );
            result.bill = Some(signed);
        }
        results.push(result);
    }

    // Phase 2 — execution on the pool. No transcript writes.
    let admitted = admitted_sessions.len() as u64;
    let rejected = results.len() as u64 - admitted;
    let completions = pool_map(admitted_sessions.len(), opts.jobs, None, |k| {
        let i = admitted_sessions[k];
        run_session(&script.sessions[i], i as u64, opts)
    });

    // Phase 3 — settlement, serial in session order.
    for (&i, completion) in admitted_sessions.iter().zip(completions) {
        let spec = &script.sessions[i];
        let session = completion.session;
        let result = &mut results[i];
        result.yields = completion.yields;
        result.latency_nanos = completion.latency_nanos;
        if let Err(e) = completion.outcome {
            let _ = writeln!(transcript, "done s={i} ERROR {e}");
            result.error = Some(e.to_string());
            continue;
        }
        let run = session.verdict().expect("completed session").clone();
        let audit = session.audit();
        if let Some(dir) = &opts.trace_dir {
            let path = dir.join(format!("session-{i}.jsonl"));
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, st_trace::to_jsonl(&session.events())))
                .map_err(|e| StError::Machine(format!("writing {}: {e}", path.display())))?;
        }
        let signed = key.sign(st_core::ResourceBill::from_usage(
            spec.tenant.clone(),
            i as u64,
            spec.kind.id(),
            &run.usage,
            run.accepted,
        ));
        let sig_ok = key.verify(&signed);
        let within = run.usage.total_reversals() <= reservations[i].reversals
            && run.usage.internal_space <= reservations[i].internal_bits;
        let _ = writeln!(
            transcript,
            "done s={i} accepted={} rev={} bits={} cells={} yields={} \
             within-reserve={} audit={} sig={}",
            run.accepted,
            run.usage.total_reversals(),
            run.usage.internal_space,
            run.usage.external_cells,
            completion.yields,
            if within { "yes" } else { "NO" },
            if audit.ok { "ok" } else { "FAIL" },
            if sig_ok { "ok" } else { "FAIL" },
        );
        result.accepted = Some(run.accepted);
        result.bill = Some(signed);
        result.audit_ok = Some(audit.ok);
        result.within_reserve = Some(within && sig_ok);
    }

    // Per-tenant summary, declaration order; then totals.
    for (name, ledger) in &ledgers {
        let _ = writeln!(
            transcript,
            "tenant {name}: admitted={} rejected={} reversals-spent={}/{} bits-peak={}",
            ledger.admitted,
            ledger.rejected,
            ledger.spent.reversals,
            if ledger.granted.reversals == u64::MAX {
                "unlimited".to_string()
            } else {
                ledger.granted.reversals.to_string()
            },
            ledger.spent.internal_bits,
        );
    }
    let accepts = results.iter().filter(|r| r.accepted == Some(true)).count();
    let audit_failures = results
        .iter()
        .filter(|r| r.admitted && r.audit_ok != Some(true))
        .count();
    let _ = writeln!(
        transcript,
        "sessions={} admitted={admitted} rejected={rejected} \
         verdict-accepts={accepts} audit-failures={audit_failures}",
        results.len(),
    );

    Ok(ScriptRun {
        transcript,
        results,
        admitted,
        rejected,
    })
}

/// Degradation limits for the online [`Service`]: what one session may
/// cost before the service sheds load instead of falling over. Both
/// limits are deterministic (byte and head-op counts, never wall
/// clock), so a throttled conversation replays identically.
#[derive(Debug, Clone, Copy)]
pub struct ServiceLimits {
    /// Extra feed bytes a session may buffer beyond its declared input
    /// length before `Feed` answers [`Response::Throttled`].
    pub feed_slack: u64,
    /// Cumulative `Step` budget (head operations) a session may consume
    /// before it is expired with a typed error — the per-session
    /// deadline.
    pub step_deadline: u64,
}

impl Default for ServiceLimits {
    fn default() -> Self {
        ServiceLimits {
            feed_slack: 4096,
            step_deadline: 1 << 32,
        }
    }
}

/// A live session held by the online service.
struct SessionSlot {
    session: Session,
    tenant: String,
    /// Raw bytes fed so far, measured against `feed_cap`.
    fed: u64,
    /// Backpressure bound: declared input length plus the service's
    /// feed slack.
    feed_cap: u64,
    /// Cumulative step budget granted so far, measured against the
    /// service deadline.
    spent_budget: u64,
}

/// The online request handler: tenants registered up front, sessions
/// opened/fed/stepped over the [`crate::protocol`] frame protocol.
pub struct Service {
    key: BillingKey,
    master_seed: u64,
    limits: ServiceLimits,
    state: Mutex<ServiceState>,
}

struct ServiceState {
    ledgers: HashMap<String, BudgetLedger>,
    /// `None` marks a slot checked out by an in-flight `Step`.
    sessions: HashMap<u64, Option<SessionSlot>>,
}

impl Service {
    /// A service with no tenants and default [`ServiceLimits`].
    #[must_use]
    pub fn new(billing_key: u64, master_seed: u64) -> Self {
        Service::with_limits(billing_key, master_seed, ServiceLimits::default())
    }

    /// A service with explicit degradation limits.
    #[must_use]
    pub fn with_limits(billing_key: u64, master_seed: u64, limits: ServiceLimits) -> Self {
        Service {
            key: BillingKey::new(billing_key),
            master_seed,
            limits,
            state: Mutex::new(ServiceState {
                ledgers: HashMap::new(),
                sessions: HashMap::new(),
            }),
        }
    }

    /// Grant `budget` to `tenant` (replacing any earlier grant).
    pub fn register_tenant(&self, tenant: &str, budget: TenantBudget) {
        let mut state = self.state.lock().expect("service lock");
        state
            .ledgers
            .insert(tenant.to_string(), BudgetLedger::new(budget));
    }

    fn err(session: u64, message: impl Into<String>) -> Response {
        Response::Error {
            session,
            message: message.into(),
        }
    }

    /// Handle one request.
    pub fn handle(&self, request: Request) -> Response {
        match request {
            Request::Open {
                session,
                tenant,
                decider,
                m,
                n,
            } => {
                let Some(kind) = DeciderKind::from_id(&decider) else {
                    return Self::err(session, format!("unknown decider `{decider}`"));
                };
                let mut state = self.state.lock().expect("service lock");
                if state.sessions.contains_key(&session) {
                    return Self::err(session, format!("session {session} already open"));
                }
                let Some(ledger) = state.ledgers.get_mut(&tenant) else {
                    return Self::err(session, format!("unknown tenant `{tenant}`"));
                };
                let reservation = reserve(kind, m, n);
                if !ledger.can_admit(reservation) {
                    ledger.reject();
                    let bill = self.key.sign(rejection_bill(&tenant, session, kind, m, n));
                    return Response::OpenRejected { session, bill };
                }
                ledger.admit(reservation);
                let rng_seed = derive_seed(self.master_seed, "session-rng", session);
                state.sessions.insert(
                    session,
                    Some(SessionSlot {
                        session: Session::open(session, kind, rng_seed),
                        tenant,
                        fed: 0,
                        feed_cap: declared_input_len(m, n).saturating_add(self.limits.feed_slack),
                        spent_budget: 0,
                    }),
                );
                Response::OpenOk { session }
            }
            Request::Feed { session, bytes } => {
                self.with_slot(session, |slot| {
                    // Bounded backpressure: a session that feeds far past
                    // its declared shape is shed, not buffered — the
                    // chunk is refused and the session stays valid.
                    let next = slot.fed.saturating_add(bytes.len() as u64);
                    if next > slot.feed_cap {
                        return (Response::Throttled { session }, true);
                    }
                    slot.fed = next;
                    match slot.session.feed(&bytes) {
                        Ok(_) => (Response::Ack { session }, true),
                        Err(e) => (Self::err(session, e.to_string()), false),
                    }
                })
            }
            Request::Finish { session } => {
                self.with_slot(session, |slot| match slot.session.finish() {
                    Ok(()) => (Response::Ack { session }, true),
                    Err(e) => (Self::err(session, e.to_string()), false),
                })
            }
            Request::Step { session, budget } => {
                let deadline = self.limits.step_deadline;
                self.with_slot(session, |slot| {
                    // Per-session deadline: a session that has burned its
                    // cumulative step allowance expires with a typed
                    // error instead of spinning forever.
                    slot.spent_budget = slot.spent_budget.saturating_add(budget);
                    if slot.spent_budget > deadline {
                        return (
                            Self::err(
                                session,
                                format!(
                                    "session {session} deadline exceeded \
                                     ({} of {deadline} head-ops granted)",
                                    slot.spent_budget
                                ),
                            ),
                            false,
                        );
                    }
                    match slot.session.step(budget) {
                        Ok(StepOutcome::NeedInput) => (Response::NeedInput { session }, true),
                        Ok(StepOutcome::Yielded) => (Response::Yielded { session }, true),
                        Ok(StepOutcome::Done(run)) => {
                            let audit = slot.session.audit();
                            if !audit.ok {
                                return (
                                    Self::err(
                                        session,
                                        format!("trace audit failed:\n{}", audit.detail),
                                    ),
                                    false,
                                );
                            }
                            let bill = self.key.sign(st_core::ResourceBill::from_usage(
                                slot.tenant.clone(),
                                session,
                                slot.session.kind().id(),
                                &run.usage,
                                run.accepted,
                            ));
                            (
                                Response::Done {
                                    session,
                                    accepted: run.accepted,
                                    bill,
                                },
                                false,
                            )
                        }
                        Err(e) => (Self::err(session, e.to_string()), false),
                    }
                })
            }
            Request::Close { session } => {
                let mut state = self.state.lock().expect("service lock");
                match state.sessions.remove(&session) {
                    Some(Some(_)) => Response::Ack { session },
                    Some(None) => Self::err(session, format!("session {session} is busy")),
                    None => Self::err(session, format!("unknown session {session}")),
                }
            }
        }
    }

    /// Check a slot out of the map, run `f` on it outside the lock, and
    /// check it back in iff `f`'s second return is `true` (terminal
    /// outcomes retire the session).
    fn with_slot<F>(&self, session: u64, f: F) -> Response
    where
        F: FnOnce(&mut SessionSlot) -> (Response, bool),
    {
        let mut slot = {
            let mut state = self.state.lock().expect("service lock");
            let Some(entry) = state.sessions.get_mut(&session) else {
                return Self::err(session, format!("unknown session {session}"));
            };
            match entry.take() {
                Some(slot) => slot,
                None => return Self::err(session, format!("session {session} is busy")),
            }
        };
        let (response, keep) = f(&mut slot);
        let mut state = self.state.lock().expect("service lock");
        if keep {
            state.sessions.insert(session, Some(slot));
        } else {
            state.sessions.remove(&session);
        }
        response
    }
}

/// Serve one framed connection until EOF. Works over any
/// `Read + Write` transport — a TCP stream or an in-process cursor.
///
/// Degrades instead of dropping: an oversize frame is drained and
/// answered with a typed [`Response::Error`] (the connection survives),
/// a malformed body gets a typed error reply, and a read timeout on the
/// transport (`WouldBlock`/`TimedOut`, as set by a socket read
/// deadline) closes the connection orderly after a final typed error —
/// never a silent drop mid-frame.
pub fn handle_stream<RW: Read + Write>(service: &Service, mut rw: RW) -> io::Result<()> {
    // Each reply is framed in this one per-connection buffer and leaves
    // in a single write.
    let mut frame = Vec::new();
    loop {
        let read = match read_frame_lenient(&mut rw) {
            Ok(read) => read,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Idle past the read deadline: tell the peer why the
                // connection is going away, then close it cleanly.
                let bye = Response::Error {
                    session: 0,
                    message: "read timeout: closing idle connection".into(),
                };
                let _ = send(&mut rw, &mut frame, &bye);
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let response = match read {
            FrameRead::Eof => return Ok(()),
            FrameRead::Oversize(len) => Response::Error {
                session: 0,
                message: format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
            },
            FrameRead::Frame(body) => match Request::decode(&body) {
                Ok(request) => service.handle(request),
                Err(e) => Response::Error {
                    session: 0,
                    message: format!("bad frame: {e}"),
                },
            },
        };
        send(&mut rw, &mut frame, &response)?;
    }
}

fn send<W: Write>(w: &mut W, frame: &mut Vec<u8>, response: &Response) -> io::Result<()> {
    frame.clear();
    put_frame(frame, &response.encode()?)?;
    w.write_all(frame)
}

/// Set up an accepted TCP connection for [`handle_stream`]: Nagle off,
/// so a reply is sent when it is written instead of waiting for the
/// peer's delayed ACK, and the read deadline (`None` = none) past which
/// an idle connection is closed.
pub fn configure_accepted(stream: &TcpStream, read_timeout: Option<Duration>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(read_timeout)
}

/// Serve every connection `incoming` yields (a listener's
/// `incoming()`, which never ends), each on its own thread, and return
/// once `incoming` is exhausted and every connection has closed.
pub fn serve_listener<I>(service: &Service, incoming: I, read_timeout: Option<Duration>)
where
    I: IntoIterator<Item = io::Result<TcpStream>>,
{
    std::thread::scope(|scope| {
        for stream in incoming {
            let stream = match stream {
                Ok(stream) => stream,
                Err(e) => {
                    eprintln!("accept error: {e}");
                    continue;
                }
            };
            if let Err(e) = configure_accepted(&stream, read_timeout) {
                eprintln!("configuring connection: {e}");
            }
            scope.spawn(move || {
                if let Err(e) = handle_stream(service, stream) {
                    eprintln!("connection error: {e}");
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::write_frame;
    use crate::script::{SessionSpec, TenantSpec, TrafficFamily, WordSpec};
    use st_algo::SortRoute;

    fn opts(jobs: usize) -> ServeOptions {
        ServeOptions {
            jobs,
            master_seed: 7,
            ..ServeOptions::default()
        }
    }

    #[test]
    fn transcripts_are_identical_across_jobs() {
        let script = Script::demo(18);
        let serial = run_script(&script, &opts(1)).unwrap();
        let parallel = run_script(&script, &opts(4)).unwrap();
        assert_eq!(serial.transcript, parallel.transcript);
        assert!(serial.clean(), "transcript:\n{}", serial.transcript);
        assert!(serial.rejected > 0, "demo must exercise rejection");
        assert!(serial.admitted > 0);
    }

    #[test]
    fn over_budget_tenants_are_rejected_with_the_paper_bound() {
        let script = Script {
            tenants: vec![TenantSpec {
                name: "pinch".into(),
                budget: TenantBudget {
                    reversals: 25,
                    internal_bits: 4096,
                },
            }],
            sessions: vec![SessionSpec {
                tenant: "pinch".into(),
                kind: DeciderKind::Sort(SortRoute::Multiset),
                m: 16,
                n: 6,
                word: WordSpec::Family(TrafficFamily::YesShuffle),
                chunk: 5,
            }],
        };
        let run = run_script(&script, &opts(1)).unwrap();
        assert_eq!(run.rejected, 1);
        let result = &run.results[0];
        assert!(!result.admitted);
        let signed = result.bill.as_ref().unwrap();
        // The quoted price is Corollary 7's bound for m = 16: two
        // sorts at 12·⌈log₂ 16⌉ + 12 reversals plus the compare scan.
        assert_eq!(signed.bill.reversals, 2 * (12 * 4 + 12) + 8);
        assert_eq!(signed.bill.accepted, None);
        assert!(BillingKey::new(opts(1).billing_key).verify(signed));
        assert!(run.transcript.contains("REJECTED"));
    }

    #[test]
    fn a_zero_feed_chunk_is_refused_before_anything_is_admitted() {
        let mut script = Script::demo(6);
        script.sessions[3].chunk = 0;
        // Run on a helper thread so a feed loop that never advances
        // fails the test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(run_script(&script, &opts(1))));
        let outcome = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("run_script must return on a zero feed chunk");
        let err = outcome.expect_err("a zero feed chunk must be refused");
        assert!(matches!(err, StError::Precondition(_)), "{err}");
        assert!(err.to_string().contains("session 3"), "{err}");
    }

    #[test]
    fn bills_match_verdicts_and_reservations_hold() {
        let script = Script::demo(12);
        let run = run_script(&script, &opts(2)).unwrap();
        for r in run.results.iter().filter(|r| r.admitted) {
            assert!(r.error.is_none(), "s={}: {:?}", r.index, r.error);
            assert_eq!(r.audit_ok, Some(true), "s={} must replay-audit", r.index);
            assert_eq!(
                r.within_reserve,
                Some(true),
                "s={} exceeded its reservation",
                r.index
            );
            let bill = r.bill.as_ref().unwrap();
            assert_eq!(bill.bill.accepted, r.accepted);
        }
    }

    #[test]
    fn traces_are_dumped_when_asked() {
        let dir = std::env::temp_dir().join(format!("st-serve-test-{}", std::process::id()));
        let script = Script::demo(4);
        let mut o = opts(1);
        o.trace_dir = Some(dir.clone());
        let run = run_script(&script, &o).unwrap();
        for r in run.results.iter().filter(|r| r.admitted) {
            let path = dir.join(format!("session-{}.jsonl", r.index));
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.lines().count() > 0, "{} is empty", path.display());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_online_service_speaks_the_protocol() {
        let service = Service::new(0xfeed, 7);
        service.register_tenant("alice", TenantBudget::unlimited());
        service.register_tenant(
            "pinch",
            TenantBudget {
                reversals: 25,
                internal_bits: 4096,
            },
        );

        // A pinch sort session is refused with a signed quote.
        let resp = service.handle(Request::Open {
            session: 1,
            tenant: "pinch".into(),
            decider: "sort-multiset".into(),
            m: 16,
            n: 6,
        });
        let Response::OpenRejected { bill, .. } = resp else {
            panic!("expected rejection, got {resp:?}");
        };
        assert_eq!(bill.bill.reversals, 2 * (12 * 4 + 12) + 8);
        assert!(BillingKey::new(0xfeed).verify(&bill));

        // An alice session runs to a billed verdict.
        let word = TrafficFamily::YesShuffle.generate_word(7, 2, 8, 4);
        assert_eq!(
            service.handle(Request::Open {
                session: 2,
                tenant: "alice".into(),
                decider: "sort-multiset".into(),
                m: 8,
                n: 4,
            }),
            Response::OpenOk { session: 2 }
        );
        for chunk in word.as_bytes().chunks(5) {
            assert_eq!(
                service.handle(Request::Feed {
                    session: 2,
                    bytes: chunk.to_vec(),
                }),
                Response::Ack { session: 2 }
            );
        }
        assert_eq!(
            service.handle(Request::Finish { session: 2 }),
            Response::Ack { session: 2 }
        );
        let done = loop {
            match service.handle(Request::Step {
                session: 2,
                budget: 32,
            }) {
                Response::Yielded { .. } => {}
                other => break other,
            }
        };
        let Response::Done { accepted, bill, .. } = done else {
            panic!("expected Done, got {done:?}");
        };
        assert!(accepted, "yes-instance must accept");
        assert!(BillingKey::new(0xfeed).verify(&bill));
        let inst = st_problems::Instance::parse(&word).unwrap();
        let batch = st_algo::sortcheck::decide_multiset_equality(&inst).unwrap();
        assert_eq!(bill.bill.reversals, batch.usage.total_reversals());
        assert_eq!(bill.bill.internal_bits, batch.usage.internal_space);

        // The settled session is gone; unknown ids error out.
        let resp = service.handle(Request::Step {
            session: 2,
            budget: 32,
        });
        assert!(matches!(resp, Response::Error { .. }));
    }

    /// Reads requests from one buffer, writes responses to another.
    struct Duplex<'a> {
        rd: std::io::Cursor<&'a [u8]>,
        wr: &'a mut Vec<u8>,
    }
    impl Read for Duplex<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.rd.read(buf)
        }
    }
    impl Write for Duplex<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.wr.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Run raw wire bytes through `handle_stream` and decode every
    /// response frame.
    fn converse(service: &Service, wire: &[u8]) -> Vec<Response> {
        use std::io::Cursor;
        let mut responses = Vec::new();
        handle_stream(
            service,
            Duplex {
                rd: Cursor::new(wire),
                wr: &mut responses,
            },
        )
        .unwrap();
        let mut cursor = Cursor::new(responses);
        let mut decoded = Vec::new();
        while let Some(body) = crate::protocol::read_frame(&mut cursor).unwrap() {
            decoded.push(Response::decode(&body).unwrap());
        }
        decoded
    }

    #[test]
    fn handle_stream_frames_a_whole_conversation() {
        let service = Service::new(1, 1);
        service.register_tenant("t", TenantBudget::unlimited());
        let word = "1#0#0#1#";
        let mut wire = Vec::new();
        let requests = [
            Request::Open {
                session: 5,
                tenant: "t".into(),
                decider: "set-eq".into(),
                m: 2,
                n: 1,
            },
            Request::Feed {
                session: 5,
                bytes: word.as_bytes().to_vec(),
            },
            Request::Finish { session: 5 },
            Request::Step {
                session: 5,
                budget: 1_000_000,
            },
        ];
        for r in &requests {
            write_frame(&mut wire, &r.encode().unwrap()).unwrap();
        }
        let decoded = converse(&service, &wire);
        assert_eq!(decoded.len(), requests.len());
        assert_eq!(decoded[0], Response::OpenOk { session: 5 });
        assert!(matches!(decoded[3], Response::Done { accepted: true, .. }));
    }

    #[test]
    fn malformed_and_oversize_raw_bytes_get_typed_errors_not_a_dropped_connection() {
        use crate::protocol::MAX_FRAME;

        let service = Service::new(1, 1);
        service.register_tenant("t", TenantBudget::unlimited());

        let mut wire = Vec::new();
        // 1. A syntactically valid frame whose body is garbage.
        write_frame(&mut wire, &[200u8, 1, 2, 3]).unwrap();
        // 2. An oversize frame: the header declares MAX_FRAME + 1 bytes
        //    and the body follows in full.
        let huge = MAX_FRAME + 1;
        wire.extend_from_slice(&huge.to_le_bytes());
        wire.extend(std::iter::repeat_n(0u8, huge as usize));
        // 3. A truncated request body (tag says Open, nothing follows).
        write_frame(&mut wire, &[1u8]).unwrap();
        // 4. A perfectly good request — the connection must still be
        //    alive to serve it.
        write_frame(
            &mut wire,
            &Request::Open {
                session: 9,
                tenant: "t".into(),
                decider: "fingerprint".into(),
                m: 2,
                n: 2,
            }
            .encode()
            .unwrap(),
        )
        .unwrap();

        let decoded = converse(&service, &wire);
        assert_eq!(decoded.len(), 4, "every frame answered: {decoded:?}");
        let Response::Error {
            session: 0,
            message,
        } = &decoded[0]
        else {
            panic!("garbage body must get a typed error, got {:?}", decoded[0]);
        };
        assert!(message.contains("bad frame"), "{message}");
        let Response::Error {
            session: 0,
            message,
        } = &decoded[1]
        else {
            panic!(
                "oversize frame must get a typed error, got {:?}",
                decoded[1]
            );
        };
        assert!(message.contains("exceeds"), "{message}");
        assert!(matches!(decoded[2], Response::Error { .. }));
        assert_eq!(decoded[3], Response::OpenOk { session: 9 });
    }

    #[test]
    fn a_read_timeout_closes_the_connection_with_a_typed_farewell() {
        use std::io::Cursor;

        /// A transport whose read times out after the buffered bytes.
        struct Flaky<'a> {
            rd: Cursor<&'a [u8]>,
            wr: &'a mut Vec<u8>,
        }
        impl Read for Flaky<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let got = self.rd.read(buf)?;
                if got == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WouldBlock,
                        "simulated socket read deadline",
                    ));
                }
                Ok(got)
            }
        }
        impl Write for Flaky<'_> {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.wr.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let service = Service::new(1, 1);
        service.register_tenant("t", TenantBudget::unlimited());
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            &Request::Open {
                session: 3,
                tenant: "t".into(),
                decider: "fingerprint".into(),
                m: 2,
                n: 2,
            }
            .encode()
            .unwrap(),
        )
        .unwrap();
        let mut responses = Vec::new();
        handle_stream(
            &service,
            Flaky {
                rd: Cursor::new(&wire),
                wr: &mut responses,
            },
        )
        .unwrap();
        let mut cursor = Cursor::new(responses);
        let mut decoded = Vec::new();
        while let Some(body) = crate::protocol::read_frame(&mut cursor).unwrap() {
            decoded.push(Response::decode(&body).unwrap());
        }
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0], Response::OpenOk { session: 3 });
        let Response::Error { message, .. } = &decoded[1] else {
            panic!("expected the timeout farewell, got {:?}", decoded[1]);
        };
        assert!(message.contains("read timeout"), "{message}");
    }

    #[test]
    fn feeding_far_past_the_declared_shape_is_throttled_not_buffered() {
        let service = Service::with_limits(
            1,
            1,
            ServiceLimits {
                feed_slack: 8,
                step_deadline: 1 << 32,
            },
        );
        service.register_tenant("t", TenantBudget::unlimited());
        assert_eq!(
            service.handle(Request::Open {
                session: 4,
                tenant: "t".into(),
                decider: "set-eq".into(),
                m: 2,
                n: 1,
            }),
            Response::OpenOk { session: 4 }
        );
        // Declared shape: m=2, n=1 → a small cap plus 8 bytes of slack.
        // A massive feed must be shed without touching the session.
        let resp = service.handle(Request::Feed {
            session: 4,
            bytes: vec![b'0'; 4096],
        });
        assert_eq!(resp, Response::Throttled { session: 4 });
        // The session is still usable with a sane feed.
        assert_eq!(
            service.handle(Request::Feed {
                session: 4,
                bytes: b"1#0#0#1#".to_vec(),
            }),
            Response::Ack { session: 4 }
        );
        assert_eq!(
            service.handle(Request::Finish { session: 4 }),
            Response::Ack { session: 4 }
        );
        let done = loop {
            match service.handle(Request::Step {
                session: 4,
                budget: 64,
            }) {
                Response::Yielded { .. } => {}
                other => break other,
            }
        };
        assert!(matches!(done, Response::Done { accepted: true, .. }));
    }

    #[test]
    fn a_session_past_its_step_deadline_expires_with_a_typed_error() {
        let service = Service::with_limits(
            1,
            1,
            ServiceLimits {
                feed_slack: 4096,
                step_deadline: 100,
            },
        );
        service.register_tenant("t", TenantBudget::unlimited());
        assert_eq!(
            service.handle(Request::Open {
                session: 6,
                tenant: "t".into(),
                decider: "sort-multiset".into(),
                m: 8,
                n: 4,
            }),
            Response::OpenOk { session: 6 }
        );
        let word = TrafficFamily::YesShuffle.generate_word(7, 2, 8, 4);
        assert_eq!(
            service.handle(Request::Feed {
                session: 6,
                bytes: word.into_bytes(),
            }),
            Response::Ack { session: 6 }
        );
        assert_eq!(
            service.handle(Request::Finish { session: 6 }),
            Response::Ack { session: 6 }
        );
        // Burn tiny quanta until the 100-op cumulative deadline trips.
        let last = loop {
            match service.handle(Request::Step {
                session: 6,
                budget: 30,
            }) {
                Response::Yielded { .. } => {}
                other => break other,
            }
        };
        let Response::Error { message, .. } = &last else {
            panic!("expected deadline expiry, got {last:?}");
        };
        assert!(message.contains("deadline exceeded"), "{message}");
        // The expired session is retired.
        let resp = service.handle(Request::Step {
            session: 6,
            budget: 1,
        });
        assert!(matches!(resp, Response::Error { .. }));
    }
}
