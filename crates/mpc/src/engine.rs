//! The BSP superstep engine: serial plan, parallel execute, serial
//! exchange — now partition-tolerant.
//!
//! A decider on this engine alternates two phases:
//!
//! 1. **parallel execute** — [`parallel_step`] fans the per-worker
//!    closures out over the shared work-stealing pool
//!    ([`st_core::pool_map`]), each worker mutating only its own state
//!    (its `TapeMachine`, its accumulators) and returning its outgoing
//!    messages. Results come back in worker order whatever the pool did,
//!    so the phase is deterministic for any `jobs` value.
//! 2. **serial exchange** — [`Exchange::round`] serializes every message
//!    through the [`wire`](crate::wire) codec in `(sender, send-order)`
//!    order, charges the [`CommUsage`] meter with the framed byte count,
//!    and delivers into per-worker inboxes. One `round` call is one
//!    synchronization barrier of the MPC model, so the round count is a
//!    property of the *algorithm*, not of scheduling.
//!
//! The exchange speaks checksummed net frames (`[seq][crc32][body]`,
//! see [`wire::seal_net`](crate::wire::seal_net)) and, when a
//! [`NetFaultPlan`] is attached, runs an ack/retry protocol over them:
//! dropped or corrupted deliveries are retried under bounded
//! exponential backoff, duplicates are discarded by sequence-number
//! dedup, and reordered or delayed frames are re-sequenced into clean
//! `(sender, send-order)` delivery. Every retransmission is charged
//! into the *recovery* side of [`CommUsage`]; the clean counters
//! (rounds, messages, bytes, load) are computed identically with or
//! without a plan, which is what makes the faulted-vs-clean
//! bit-identity invariant checkable.
//!
//! [`Cluster`] layers worker lifecycle on top: it owns the per-worker
//! states and trace buffers, journals every superstep's consumed inbox
//! into a durable WAL (`st_extmem::durable`) when the plan schedules
//! kills, and — when a worker dies — rebuilds it from the journaled
//! shard by deterministic re-execution of the recorded superstep
//! closures. Replay runs on a fresh machine and a fresh trace buffer,
//! so the recovered worker's `ResourceUsage` and trace stream are
//! bit-identical to the never-crashed run by construction; only the
//! `worker_crashes` / `recovery_rounds` / `lost_*` counters remember
//! the crash.
//!
//! This is the serial-plan/parallel-execute/serial-combine discipline of
//! the `st-bench` runner and the `st-serve` worker pool, restated at the
//! cluster level: verdicts, `CommUsage`, and per-worker trace streams
//! are byte-identical across `--jobs` by construction.

use crate::fault::{FaultKind, NetFaultPlan};
use crate::wire::{self, Envelope, NET_HEADER};
use st_core::{frame, pool_map, CommUsage, ResourceUsage, StError};
use st_extmem::durable::Wal;
use st_trace::TraceBuffer;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How a distributed run is shaped: worker count, host threads, block
/// length of the tape-level scans, and an optional seeded fault plan.
#[derive(Debug, Clone)]
pub struct MpcOptions {
    /// Simulated workers `p` (≥ 1).
    pub workers: usize,
    /// Host threads driving the parallel phases; `0` = available
    /// parallelism. Any value yields byte-identical artifacts.
    pub jobs: usize,
    /// Block length for the workers' tape scans (records per slice).
    pub block_len: usize,
    /// Seeded network fault schedule. `None` runs the plain exchange;
    /// `Some` engages the ack/retry protocol (and, if kills are
    /// scheduled, superstep journaling). Verdicts and clean meters are
    /// bit-identical either way.
    pub fault_plan: Option<NetFaultPlan>,
}

impl Default for MpcOptions {
    fn default() -> Self {
        MpcOptions {
            workers: 4,
            jobs: 1,
            block_len: st_extmem::block::DEFAULT_BLOCK,
            fault_plan: None,
        }
    }
}

impl MpcOptions {
    /// A `p`-worker cluster with otherwise default options.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        MpcOptions {
            workers,
            ..MpcOptions::default()
        }
    }

    /// This option set with a fault plan attached.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: NetFaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The effective host-thread count for a phase over `work` items.
    #[must_use]
    pub fn effective_jobs(&self, work: usize) -> usize {
        let requested = if self.jobs == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.jobs
        };
        requested.clamp(1, work.max(1))
    }
}

/// The metered exchange channel of a `p`-worker cluster.
///
/// Messages cross in synchronous rounds: the engine collects every
/// worker's outgoing messages for the round, then [`Exchange::round`]
/// serializes, meters, and delivers them all at once. Loopback messages
/// (a worker sending to itself) serialize and meter like any other —
/// a one-round combine is one round even on a single worker.
#[derive(Debug)]
pub struct Exchange {
    comm: CommUsage,
    inboxes: Vec<Vec<Envelope>>,
    plan: Option<NetFaultPlan>,
    /// Per-directed-link `(from, to)` sequence counters, persisting
    /// across rounds — the dedup identity of the ack protocol.
    next_seq: Vec<u64>,
}

impl Exchange {
    /// A fresh channel for `workers` workers with no fault plan.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Exchange::with_plan(workers, None)
    }

    /// A fresh channel, optionally under a seeded fault plan. The clean
    /// meters (rounds, messages, bytes, load) are computed identically
    /// with or without a plan; only the recovery counters ever differ.
    #[must_use]
    pub fn with_plan(workers: usize, plan: Option<NetFaultPlan>) -> Self {
        let workers = workers.max(1);
        Exchange {
            comm: CommUsage::new(workers),
            inboxes: (0..workers).map(|_| Vec::new()).collect(),
            plan,
            next_seq: vec![0; workers * workers],
        }
    }

    /// The worker count `p`.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.inboxes.len()
    }

    /// Execute one synchronous communication round: `outgoing[w]` is the
    /// ordered message list worker `w` sends. Every message round-trips
    /// the wire codec and the checksummed net frame (encode → seal →
    /// meter framed bytes → verify crc → decode → deliver), so the meter
    /// charges exactly what the codec emits and a message the codec
    /// cannot carry fails here, not in production-only paths.
    ///
    /// Under a fault plan, each delivery runs the ack/retry protocol:
    /// drops and detected corruptions burn a retry (bounded by the
    /// plan's budget, with exponential backoff ticks charged), spurious
    /// duplicates are discarded by seq dedup, and reordered or delayed
    /// arrivals are re-sequenced — so the delivered inboxes are
    /// bit-identical to the fault-free ones. Budget exhaustion is a
    /// typed error, never a silent loss.
    ///
    /// A `round` call is a synchronization barrier and counts as one
    /// round even if no messages flow — supersteps are an algorithmic
    /// property, not a traffic statistic.
    pub fn round(&mut self, outgoing: Vec<Vec<Envelope>>) -> Result<(), StError> {
        let p = self.workers();
        if outgoing.len() != p {
            return Err(StError::Machine(format!(
                "round expects {p} outboxes, got {}",
                outgoing.len()
            )));
        }
        self.comm.rounds += 1;
        let r = self.comm.rounds - 1;
        let plan = self.plan.clone();
        let mut received = vec![0u64; p];
        // Deliveries staged as (from, seq, env) and sorted before the
        // inbox push: the identity re-sequencing on the clean path, and
        // the reorder/delay absorber on the faulted one.
        let mut staged: Vec<Vec<(u32, u64, Envelope)>> = (0..p).map(|_| Vec::new()).collect();
        for (w, outbox) in outgoing.into_iter().enumerate() {
            for env in outbox {
                if env.from as usize != w {
                    return Err(StError::Machine(format!(
                        "worker {w} sent a message claiming from={}",
                        env.from
                    )));
                }
                let to = env.to as usize;
                if to >= p {
                    return Err(StError::Machine(format!("message to worker {to} of {p}")));
                }
                let body = env
                    .encode()
                    .map_err(|e| StError::Io(format!("encode exchange message: {e}")))?;
                let link = w * p + to;
                let seq = self.next_seq[link];
                self.next_seq[link] += 1;
                let wire_cost = NET_HEADER + body.len() as u64;
                self.comm.messages += 1;
                self.comm.bytes_on_wire += wire_cost;
                received[to] += wire_cost;
                let delivered = match &plan {
                    None => Self::deliver_clean(seq, &body)?,
                    Some(plan) => self.deliver_with_plan(plan, r, w, to, seq, &body, wire_cost)?,
                };
                staged[to].push((w as u32, seq, delivered));
            }
        }
        for (to, mut arrivals) in staged.into_iter().enumerate() {
            arrivals.sort_by_key(|&(from, seq, _)| (from, seq));
            self.inboxes[to].extend(arrivals.into_iter().map(|(_, _, env)| env));
        }
        let round_load = received.into_iter().max().unwrap_or(0);
        self.comm.max_load = self.comm.max_load.max(round_load);
        Ok(())
    }

    /// The fault-free delivery path: seal, verify, decode. No ack is
    /// charged — with no plan there is no ack protocol to run.
    fn deliver_clean(seq: u64, body: &[u8]) -> Result<Envelope, StError> {
        let sealed = wire::seal_net(seq as u32, body);
        let (_, got) = wire::open_net(&sealed)
            .map_err(|e| StError::Machine(format!("net frame self-check failed: {e}")))?;
        Envelope::decode(got).map_err(|e| StError::Machine(format!("decode exchange message: {e}")))
    }

    /// The ack/retry delivery path. Loops attempts until a frame lands
    /// with a valid crc or the retry budget is exhausted; charges every
    /// side effect into the recovery counters only.
    #[allow(clippy::too_many_arguments)]
    fn deliver_with_plan(
        &mut self,
        plan: &NetFaultPlan,
        round: u64,
        from: usize,
        to: usize,
        seq: u64,
        body: &[u8],
        wire_cost: u64,
    ) -> Result<Envelope, StError> {
        let budget = plan.retry_budget();
        for attempt in 0..budget {
            let backoff = 1u64 << attempt.min(16);
            if plan.fires(FaultKind::Drop, round, from, to, seq, attempt) {
                self.comm.retries += 1;
                self.comm.redundant_bytes += wire_cost;
                self.comm.backoff_ticks += backoff;
                continue;
            }
            let mut sealed = wire::seal_net(seq as u32, body);
            if plan.fires(FaultKind::Corrupt, round, from, to, seq, attempt) {
                plan.corrupt_frame(&mut sealed, round, from, to, seq, attempt)?;
            }
            match wire::open_net(&sealed) {
                Err(_) => {
                    // Corruption detected by the crc: refuse the frame,
                    // nack, retry after backoff.
                    self.comm.checksum_failures += 1;
                    self.comm.retries += 1;
                    self.comm.redundant_bytes += wire_cost;
                    self.comm.backoff_ticks += backoff;
                    continue;
                }
                Ok((_, got)) => {
                    self.comm.acks += 1;
                    if plan.fires(FaultKind::Duplicate, round, from, to, seq, attempt) {
                        // The second copy arrives, fails seq dedup, and
                        // is discarded — idempotent delivery.
                        self.comm.duplicates_dropped += 1;
                        self.comm.redundant_bytes += wire_cost;
                    }
                    if plan.fires(FaultKind::Reorder, round, from, to, seq, attempt) {
                        self.comm.reordered += 1;
                    }
                    if plan.fires(FaultKind::Delay, round, from, to, seq, attempt) {
                        self.comm.delayed += 1;
                    }
                    return Envelope::decode(got)
                        .map_err(|e| StError::Machine(format!("decode exchange message: {e}")));
                }
            }
        }
        Err(StError::Machine(format!(
            "link {from}→{to}: retry budget ({budget} attempts) exhausted at round {round} seq {seq}"
        )))
    }

    /// Drain worker `w`'s inbox (delivery order: sender index, then send
    /// order).
    pub fn take_inbox(&mut self, w: usize) -> Vec<Envelope> {
        std::mem::take(&mut self.inboxes[w])
    }

    /// The communication meter so far.
    #[must_use]
    pub fn comm(&self) -> &CommUsage {
        &self.comm
    }

    /// Mutable meter access for the recovery layer (crash accounting).
    pub(crate) fn comm_mut(&mut self) -> &mut CommUsage {
        &mut self.comm
    }

    /// Consume the channel, returning the final meter.
    #[must_use]
    pub fn into_comm(self) -> CommUsage {
        self.comm
    }
}

/// Run one parallel phase: `f(w, &mut state)` for every worker on the
/// work-stealing pool, states returned in worker order alongside the
/// phase outputs. The first worker error (in worker order) aborts the
/// step.
pub fn parallel_step<W, T>(
    states: Vec<W>,
    jobs: usize,
    f: impl Fn(usize, &mut W) -> Result<T, StError> + Sync,
) -> Result<(Vec<W>, Vec<T>), StError>
where
    W: Send,
    T: Send,
{
    let work = states.len();
    // Each cell is taken exactly once by the worker claiming its index;
    // the mutex only satisfies the pool's `Sync` bound.
    let cells: Vec<Mutex<Option<W>>> = states.into_iter().map(|w| Mutex::new(Some(w))).collect();
    let outcomes = pool_map(work, jobs, None, |i| {
        let state = cells[i]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        match state {
            None => (
                None,
                Err(StError::Machine("worker state claimed twice".into())),
            ),
            Some(mut state) => {
                let out = f(i, &mut state);
                (Some(state), out)
            }
        }
    });
    let mut states = Vec::with_capacity(work);
    let mut outs = Vec::with_capacity(work);
    for (state, out) in outcomes {
        outs.push(out?);
        states.push(
            state.ok_or_else(|| StError::Machine("worker state lost in parallel step".into()))?,
        );
    }
    Ok((states, outs))
}

/// A worker the [`Cluster`] can manage: the engine needs its resource
/// bill when an incarnation dies.
pub trait Worker: Send {
    /// The tape/memory accounting of this incarnation so far.
    fn usage(&self) -> ResourceUsage;
}

/// One recorded superstep: `(worker, state, inbox) → outbox`. Stored so
/// crash recovery can re-execute a dead worker's history verbatim.
type StepFn<'a, W> =
    Box<dyn Fn(usize, &mut W, Vec<Envelope>) -> Result<Vec<Envelope>, StError> + Sync + Send + 'a>;

/// How a worker is (re)built: from its index and its journaled shard
/// envelopes, returning the fresh state and its trace buffer.
type Factory<'a, W> =
    Box<dyn Fn(usize, &[Envelope]) -> Result<(W, TraceBuffer), StError> + Sync + Send + 'a>;

static JOURNAL_ID: AtomicU64 = AtomicU64::new(0);

/// Per-worker durable superstep journals, kept only when the fault plan
/// schedules kills. Record 0 of worker `w`'s WAL is its initial shard;
/// record `1 + k` is the inbox its `k`-th superstep consumed. Recovery
/// reads exclusively from disk — the WAL is the checkpoint, not a
/// mirror of in-memory state.
struct Journals {
    dir: PathBuf,
    wals: Vec<Wal>,
}

/// Encode an envelope list as one journal record: a concatenation of
/// length-framed envelope bodies.
fn encode_envelopes(envs: &[Envelope]) -> Result<Vec<u8>, StError> {
    let mut out = Vec::new();
    for env in envs {
        let body = env
            .encode()
            .map_err(|e| StError::Io(format!("journal encode: {e}")))?;
        frame::put_frame(&mut out, &body)
            .map_err(|e| StError::Io(format!("journal frame: {e}")))?;
    }
    Ok(out)
}

/// Inverse of [`encode_envelopes`].
fn decode_envelopes(record: &[u8]) -> Result<Vec<Envelope>, StError> {
    let mut cursor = record;
    let mut envs = Vec::new();
    while let Some(body) =
        frame::read_frame(&mut cursor).map_err(|e| StError::Io(format!("journal read: {e}")))?
    {
        envs.push(
            Envelope::decode(&body)
                .map_err(|e| StError::Machine(format!("journal decode: {e}")))?,
        );
    }
    Ok(envs)
}

impl Journals {
    fn create(shards: &[Vec<Envelope>]) -> Result<Self, StError> {
        let dir = std::env::temp_dir().join(format!(
            "st-mpc-journal-{}-{}",
            std::process::id(),
            JOURNAL_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        let mut wals = Vec::with_capacity(shards.len());
        for (w, shard) in shards.iter().enumerate() {
            let mut wal = Wal::create(&dir.join(format!("worker-{w}.wal")), None)?;
            wal.append_record(&encode_envelopes(shard)?)?;
            wal.commit(b"shard")?;
            wals.push(wal);
        }
        Ok(Journals { dir, wals })
    }

    fn append_inbox(&mut self, w: usize, inbox: &[Envelope]) -> Result<(), StError> {
        self.wals[w].append_record(&encode_envelopes(inbox)?)?;
        self.wals[w].commit(b"superstep")?;
        Ok(())
    }

    /// Reopen worker `w`'s journal from disk and split it into the
    /// shard and the per-superstep inbox history.
    fn recover(&mut self, w: usize) -> Result<(Vec<Envelope>, Vec<Vec<Envelope>>), StError> {
        let path = self.dir.join(format!("worker-{w}.wal"));
        let (wal, recovery) = Wal::open(&path, None)?;
        self.wals[w] = wal;
        let mut records = recovery.records.into_iter();
        let shard = decode_envelopes(&records.next().ok_or_else(|| {
            StError::Machine(format!("worker {w} journal is empty — no shard checkpoint"))
        })?)?;
        let history = records
            .map(|r| decode_envelopes(&r))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((shard, history))
    }
}

impl Drop for Journals {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// A partition-tolerant BSP cluster: owns the worker states, their
/// trace buffers, the metered (optionally faulted) exchange, and — when
/// the fault plan schedules kills — the durable superstep journals that
/// make crash recovery possible.
///
/// The protocol is `compute` (parallel, consumes each worker's pending
/// inbox, stages the outboxes) / `exchange` (one synchronization
/// barrier, +1 round, processes any scheduled kills after delivery),
/// with [`Cluster::take_inbox`] and [`Cluster::state_mut`] for the
/// serial combine at the end. Every `compute` closure is recorded; a
/// killed worker is rebuilt by re-running its recorded closures against
/// the journaled inboxes on a fresh machine, which reproduces its
/// state, usage, and trace stream bit for bit.
pub struct Cluster<'a, W: Worker> {
    exchange: Exchange,
    states: Vec<W>,
    buffers: Vec<TraceBuffer>,
    pending: Vec<Vec<Envelope>>,
    staged: Option<Vec<Vec<Envelope>>>,
    jobs: usize,
    plan: Option<NetFaultPlan>,
    factory: Factory<'a, W>,
    history: Vec<StepFn<'a, W>>,
    journals: Option<Journals>,
}

impl<'a, W: Worker> Cluster<'a, W> {
    /// Build a cluster of `shards.len()` workers. `shards[w]` is worker
    /// `w`'s initial data as envelopes (the same form it would journal),
    /// and `factory` turns a shard back into a live worker — it is
    /// called once per worker now, and again per crash recovery.
    pub fn new<F>(
        opts: &MpcOptions,
        shards: Vec<Vec<Envelope>>,
        factory: F,
    ) -> Result<Self, StError>
    where
        F: Fn(usize, &[Envelope]) -> Result<(W, TraceBuffer), StError> + Sync + Send + 'a,
    {
        let p = shards.len().max(1);
        let plan = opts.fault_plan.clone();
        let journals = if plan.as_ref().is_some_and(NetFaultPlan::has_kills) {
            Some(Journals::create(&shards)?)
        } else {
            None
        };
        let factory: Factory<'a, W> = Box::new(factory);
        let mut states = Vec::with_capacity(p);
        let mut buffers = Vec::with_capacity(p);
        for (w, shard) in shards.iter().enumerate() {
            // Same trace shielding as `compute` and recovery replay:
            // worker construction must not leak events to an ambient
            // scoped tracer.
            let (state, buffer) =
                st_trace::scoped(st_trace::Tracer::disabled(), || factory(w, shard))?;
            states.push(state);
            buffers.push(buffer);
        }
        Ok(Cluster {
            exchange: Exchange::with_plan(p, plan.clone()),
            states,
            buffers,
            pending: (0..p).map(|_| Vec::new()).collect(),
            staged: None,
            jobs: opts.effective_jobs(p),
            plan,
            factory,
            history: Vec::new(),
            journals,
        })
    }

    /// The worker count `p`.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.states.len()
    }

    /// One parallel superstep: every worker consumes its pending inbox
    /// and returns its outbox, which is staged for the next
    /// [`Cluster::exchange`]. The closure is recorded (and each
    /// consumed inbox journaled, when kills are scheduled) so a crashed
    /// worker can replay it later — it must therefore be a
    /// deterministic function of `(worker, state, inbox)`.
    pub fn compute<F>(&mut self, f: F) -> Result<(), StError>
    where
        F: Fn(usize, &mut W, Vec<Envelope>) -> Result<Vec<Envelope>, StError> + Sync + Send + 'a,
    {
        if self.staged.is_some() {
            return Err(StError::Machine(
                "compute staged an outbox twice without an exchange".into(),
            ));
        }
        let inboxes = std::mem::take(&mut self.pending);
        if let Some(journals) = &mut self.journals {
            for (w, inbox) in inboxes.iter().enumerate() {
                journals.append_inbox(w, inbox)?;
            }
        }
        let f: StepFn<'a, W> = Box::new(f);
        let paired: Vec<(W, Vec<Envelope>)> = std::mem::take(&mut self.states)
            .into_iter()
            .zip(inboxes)
            .collect();
        // Workers trace through their own machines; shielding them from
        // any ambient scoped tracer keeps their streams identical
        // whether this step runs on a pool thread, inline, or as a
        // recovery replay inside an outer trace scope.
        let (paired, outs) = parallel_step(paired, self.jobs, |w, (state, inbox)| {
            st_trace::scoped(st_trace::Tracer::disabled(), || {
                f(w, state, std::mem::take(inbox))
            })
        })?;
        self.states = paired.into_iter().map(|(s, _)| s).collect();
        self.pending = (0..self.workers()).map(|_| Vec::new()).collect();
        self.staged = Some(outs);
        self.history.push(f);
        Ok(())
    }

    /// One synchronization barrier: ship the staged outboxes through
    /// the exchange (+1 round), deliver into the pending inboxes, then
    /// process any kills the fault plan scheduled for the completed
    /// round — each kill absorbs the dead incarnation's bill into the
    /// recovery counters and rebuilds the worker from its journal.
    pub fn exchange(&mut self) -> Result<(), StError> {
        let p = self.workers();
        let outgoing = self
            .staged
            .take()
            .unwrap_or_else(|| (0..p).map(|_| Vec::new()).collect());
        self.exchange.round(outgoing)?;
        for w in 0..p {
            self.pending[w] = self.exchange.take_inbox(w);
        }
        let completed = self.exchange.comm().rounds - 1;
        if let Some(plan) = self.plan.clone() {
            for w in plan.kills_after(completed) {
                if w < p {
                    self.recover(w)?;
                }
            }
        }
        Ok(())
    }

    /// Kill worker `w` and rebuild it from its durable journal: absorb
    /// the dead incarnation's usage into `lost_*`, re-create the worker
    /// from the journaled shard, and replay every recorded superstep
    /// against the journaled inboxes. The regenerated outboxes are
    /// discarded — their deliveries already happened — and the pending
    /// inbox of the round that killed it survives in the engine, so the
    /// fresh incarnation resumes exactly where the dead one stopped.
    fn recover(&mut self, w: usize) -> Result<(), StError> {
        let journals = self.journals.as_mut().ok_or_else(|| {
            StError::Machine(format!(
                "worker {w} killed but journaling was never enabled"
            ))
        })?;
        let dead = self.states[w].usage();
        let comm = self.exchange.comm_mut();
        comm.worker_crashes += 1;
        comm.lost_reversals += dead.reversals_per_tape.iter().sum::<u64>();
        comm.lost_cells += dead.external_cells;
        let (shard, inbox_history) = journals.recover(w)?;
        if inbox_history.len() != self.history.len() {
            return Err(StError::Machine(format!(
                "worker {w} journal holds {} supersteps but history recorded {}",
                inbox_history.len(),
                self.history.len()
            )));
        }
        // The replay must see exactly the trace environment the live
        // computes saw (a disabled ambient tracer), or the rebuilt
        // incarnation's stream would drop the scan events an outer
        // scoped tracer captures.
        let (fresh, buffer) = st_trace::scoped(st_trace::Tracer::disabled(), || {
            let (mut fresh, buffer) = (self.factory)(w, &shard)?;
            for (step, inbox) in self.history.iter().zip(inbox_history) {
                let _regenerated_outbox = step(w, &mut fresh, inbox)?;
            }
            Ok::<_, StError>((fresh, buffer))
        })?;
        self.exchange.comm_mut().recovery_rounds += self.history.len() as u64;
        self.states[w] = fresh;
        self.buffers[w] = buffer;
        Ok(())
    }

    /// Drain worker `w`'s pending inbox (for serial combine phases).
    pub fn take_inbox(&mut self, w: usize) -> Vec<Envelope> {
        std::mem::take(&mut self.pending[w])
    }

    /// Immutable access to worker `w`'s state.
    #[must_use]
    pub fn state(&self, w: usize) -> &W {
        &self.states[w]
    }

    /// Mutable access to worker `w`'s state (serial combine phases run
    /// outside the recorded history — schedule kills only at exchange
    /// rounds, which is all [`NetFaultPlan`] can express).
    pub fn state_mut(&mut self, w: usize) -> &mut W {
        &mut self.states[w]
    }

    /// The communication meter so far.
    #[must_use]
    pub fn comm(&self) -> &CommUsage {
        self.exchange.comm()
    }

    /// Finish the run: collect per-worker usage and traces, consume the
    /// exchange meter, and assemble the [`MpcRun`].
    #[must_use]
    pub fn finish(self, accepted: bool) -> MpcRun {
        let per_worker: Vec<ResourceUsage> = self.states.iter().map(Worker::usage).collect();
        let traces = self
            .buffers
            .iter()
            .map(|b| trace_jsonl(&b.snapshot()))
            .collect();
        MpcRun::assemble(accepted, self.exchange.into_comm(), per_worker, traces)
    }
}

/// The outcome of one distributed run: the verdict plus both sides of
/// the accounting — per-worker tape/memory usage and the cluster's
/// communication meter.
#[derive(Debug, Clone)]
pub struct MpcRun {
    /// The verdict.
    pub accepted: bool,
    /// Communication: rounds, messages, framed bytes, per-round load,
    /// and the fault/recovery counters.
    pub comm: CommUsage,
    /// Each worker's tape/memory accounting, in worker order.
    pub per_worker: Vec<ResourceUsage>,
    /// The per-worker records absorbed into one aggregate (reversals and
    /// cells summed, space maxed).
    pub usage: ResourceUsage,
    /// Each worker's JSONL trace stream, in worker order. Deterministic
    /// across `jobs`; concatenating gives the cluster trace.
    pub traces: Vec<String>,
}

impl MpcRun {
    /// Assemble a run record from its parts, deriving the aggregate
    /// usage.
    #[must_use]
    pub fn assemble(
        accepted: bool,
        comm: CommUsage,
        per_worker: Vec<ResourceUsage>,
        traces: Vec<String>,
    ) -> Self {
        let mut usage = ResourceUsage::default();
        for u in &per_worker {
            usage.absorb(u);
        }
        MpcRun {
            accepted,
            comm,
            per_worker,
            usage,
            traces,
        }
    }
}

/// Render a trace buffer's events as one JSONL blob (one event per
/// line, trailing newline when nonempty) — the byte-comparable form the
/// invariance tests diff across `--jobs`.
#[must_use]
pub fn trace_jsonl(events: &[st_trace::TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Payload;

    fn count_env(from: u32, to: u32, v: u64) -> Envelope {
        Envelope {
            from,
            to,
            payload: Payload::Count(v),
        }
    }

    #[test]
    fn a_round_is_counted_even_when_silent() {
        let mut ex = Exchange::new(4);
        ex.round(vec![Vec::new(); 4]).unwrap();
        assert_eq!(ex.comm().rounds, 1);
        assert_eq!(ex.comm().messages, 0);
        assert_eq!(ex.comm().bytes_on_wire, 0);
    }

    #[test]
    fn loopback_messages_are_metered() {
        let mut ex = Exchange::new(1);
        ex.round(vec![vec![count_env(0, 0, 9)]]).unwrap();
        assert_eq!(ex.comm().messages, 1);
        assert!(ex.comm().bytes_on_wire > NET_HEADER, "framed bytes charged");
        assert_eq!(ex.comm().max_load, ex.comm().bytes_on_wire);
        let inbox = ex.take_inbox(0);
        assert_eq!(inbox, vec![count_env(0, 0, 9)]);
    }

    #[test]
    fn delivery_is_sender_then_send_order() {
        let mut ex = Exchange::new(3);
        ex.round(vec![
            vec![count_env(0, 2, 1), count_env(0, 2, 2)],
            vec![count_env(1, 2, 3)],
            Vec::new(),
        ])
        .unwrap();
        let got: Vec<u64> = ex
            .take_inbox(2)
            .into_iter()
            .map(|e| match e.payload {
                Payload::Count(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, [1, 2, 3]);
    }

    #[test]
    fn forged_sender_and_bad_receiver_are_rejected() {
        let mut ex = Exchange::new(2);
        let err = ex.round(vec![vec![count_env(1, 0, 0)], Vec::new()]);
        assert!(err.is_err(), "forged from field");
        let err = ex.round(vec![vec![count_env(0, 5, 0)], Vec::new()]);
        assert!(err.is_err(), "receiver out of range");
    }

    #[test]
    fn max_load_tracks_the_busiest_receiver_per_round() {
        let mut ex = Exchange::new(2);
        ex.round(vec![
            vec![count_env(0, 1, 1), count_env(0, 1, 2)],
            Vec::new(),
        ])
        .unwrap();
        let one_msg = {
            let mut probe = Exchange::new(2);
            probe
                .round(vec![vec![count_env(0, 1, 1)], Vec::new()])
                .unwrap();
            probe.comm().bytes_on_wire
        };
        assert_eq!(ex.comm().max_load, 2 * one_msg);
        // A later lighter round does not lower the high-water mark.
        ex.round(vec![vec![count_env(0, 1, 3)], Vec::new()])
            .unwrap();
        assert_eq!(ex.comm().max_load, 2 * one_msg);
    }

    #[test]
    fn a_zero_rate_plan_charges_acks_but_leaves_clean_meters_identical() {
        let traffic = |ex: &mut Exchange| {
            ex.round(vec![
                vec![count_env(0, 1, 1), count_env(0, 0, 2)],
                vec![count_env(1, 0, 3)],
            ])
            .unwrap();
        };
        let mut clean = Exchange::new(2);
        traffic(&mut clean);
        let mut faulted = Exchange::with_plan(2, Some(NetFaultPlan::new(42)));
        traffic(&mut faulted);
        assert_eq!(faulted.comm().clean(), clean.comm().clean());
        assert_eq!(clean.comm().acks, 0, "no plan, no ack protocol");
        assert_eq!(faulted.comm().acks, 3, "one ack per delivered message");
        assert_eq!(faulted.comm().retries, 0);
        assert_eq!(faulted.take_inbox(0), clean.take_inbox(0));
        assert_eq!(faulted.take_inbox(1), clean.take_inbox(1));
    }

    #[test]
    fn drops_and_corruption_burn_retries_but_deliver_identically() {
        let traffic = |ex: &mut Exchange| -> Vec<Envelope> {
            for round in 0..3 {
                ex.round(vec![
                    (0..4).map(|i| count_env(0, 1, round * 10 + i)).collect(),
                    vec![count_env(1, 0, round)],
                ])
                .unwrap();
                ex.take_inbox(0);
            }
            ex.take_inbox(1)
        };
        let mut clean = Exchange::new(2);
        let clean_inbox = traffic(&mut clean);
        let plan = NetFaultPlan::new(7)
            .with_drop(0.4)
            .with_corrupt(0.3)
            .with_duplicate(0.3)
            .with_reorder(0.5)
            .with_delay(0.5);
        let mut faulted = Exchange::with_plan(2, Some(plan));
        let faulted_inbox = traffic(&mut faulted);
        assert_eq!(faulted_inbox, clean_inbox, "delivery is fault-transparent");
        assert_eq!(faulted.comm().clean(), clean.comm().clean());
        let f = faulted.comm();
        assert!(f.retries > 0, "storm must have forced retries: {f}");
        assert!(f.checksum_failures > 0, "crc must have caught flips: {f}");
        assert!(f.redundant_bytes > 0);
        assert!(f.backoff_ticks >= f.retries);
    }

    #[test]
    fn an_exhausted_retry_budget_is_a_typed_error_not_a_wrong_verdict() {
        // Rate 1.0 with a budget of 1 attempt: the first (only) attempt
        // always drops, so delivery must fail loudly.
        let plan = NetFaultPlan::new(1).with_drop(1.0).with_retry_budget(1);
        let mut ex = Exchange::with_plan(2, Some(plan));
        let err = ex
            .round(vec![vec![count_env(0, 1, 5)], Vec::new()])
            .unwrap_err();
        assert!(err.to_string().contains("retry budget"), "{err}");
    }

    #[test]
    fn sequence_numbers_persist_across_rounds_per_link() {
        // Two rounds on the same link: the dice must see fresh seqs in
        // round 2 (otherwise retries in round 2 would mirror round 1).
        let mut ex = Exchange::new(2);
        ex.round(vec![vec![count_env(0, 1, 1)], Vec::new()])
            .unwrap();
        ex.round(vec![vec![count_env(0, 1, 2)], Vec::new()])
            .unwrap();
        assert_eq!(ex.next_seq[1], 2, "link 0→1 advanced twice");
        assert_eq!(ex.next_seq[2], 0, "link 1→0 untouched");
    }

    #[test]
    fn parallel_step_returns_states_and_outputs_in_worker_order() {
        let states: Vec<u64> = (0..7).collect();
        for jobs in [1usize, 4] {
            let (states, outs) = parallel_step(states.clone(), jobs, |w, s| {
                *s += 100;
                Ok::<u64, StError>(w as u64 * 2)
            })
            .unwrap();
            assert_eq!(states, (100..107).collect::<Vec<u64>>());
            assert_eq!(outs, (0..7).map(|w| w * 2).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn parallel_step_propagates_the_first_error_in_worker_order() {
        let states: Vec<u64> = (0..4).collect();
        let err = parallel_step(states, 2, |w, _s| {
            if w >= 2 {
                Err(StError::Machine(format!("worker {w} failed")))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("worker 2"), "{err}");
    }

    #[test]
    fn journal_records_round_trip_envelope_lists() {
        let envs = vec![count_env(0, 1, 7), count_env(0, 0, 9)];
        let record = encode_envelopes(&envs).unwrap();
        assert_eq!(decode_envelopes(&record).unwrap(), envs);
        assert!(decode_envelopes(&encode_envelopes(&[]).unwrap())
            .unwrap()
            .is_empty());
    }
}
