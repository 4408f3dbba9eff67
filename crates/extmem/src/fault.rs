//! Deterministic fault injection for the tape substrate.
//!
//! Production external memory fails: bits rot on the medium, reads
//! glitch transiently, writes land torn or not at all. The paper's model
//! buys correctness with randomness and pays for every recovery in head
//! reversals — so a reproduction that wants to *measure* that trade
//! needs a fault model whose injections are exactly replayable. This
//! module provides one:
//!
//! * [`FaultPlan`] — an immutable, seed-deterministic description of
//!   fault rates. The same plan attached to a tape with the same name
//!   and driven by the same operation sequence injects the **identical**
//!   fault sequence, making every corrupted run replayable for
//!   debugging (and testable by property: see `fault_determinism`).
//! * [`Corrupt`] — how a cell type mutates under a fault. Implemented
//!   here for the primitive integers (single bit-flip selected by the
//!   fault entropy); record types implement it next to their definition
//!   (e.g. `BitStr` in `st-problems`).
//! * [`FaultStats`] — counts of every injected fault, aggregated per
//!   tape and summed by `TapeMachine::fault_stats`.
//!
//! ## Fault kinds
//!
//! | kind | trigger | effect |
//! |------|---------|--------|
//! | bit flip | read | cell corrupted **and stored back** (medium rot) |
//! | transient read | read | returned value corrupted, cell untouched |
//! | stuck write | overwrite | old cell value silently kept |
//! | torn write | write | corrupted value stored instead of `s` |
//!
//! A stuck write on an *append* would change the tape length invariant
//! (the cell would simply not exist, and the next `write` would error
//! with "beyond end-of-data" for a well-formed algorithm); it therefore
//! degrades to a torn write — the record exists but is corrupted, which
//! is also what real block devices do when an append is acknowledged
//! but lands damaged.
//!
//! Faults are **opt-in per tape**: a tape without an attached plan runs
//! exactly the seed semantics, and the accounting (reversals, moves) is
//! never affected by injection — corruption changes *data*, not *head
//! mechanics*, so the `(r,s,t)` cost of a run stays honest.

use st_core::rng::{fnv1a, SplitMix64, FNV_OFFSET};

/// How a cell type is corrupted by an injected fault.
///
/// `entropy` is a fresh 64-bit draw from the fault stream; implementations
/// use it to pick *which* damage to apply (e.g. which bit to flip) so that
/// corrupted runs stay deterministic per seed. Implementations must return
/// a value **different** from `self` whenever the type has more than one
/// inhabitant — a "corruption" that fixes nothing would silently weaken
/// every resilience test built on top.
pub trait Corrupt {
    /// A deterministically damaged copy of `self`.
    #[must_use]
    fn corrupted(&self, entropy: u64) -> Self;
}

macro_rules! impl_corrupt_int {
    ($($t:ty),*) => {$(
        impl Corrupt for $t {
            fn corrupted(&self, entropy: u64) -> Self {
                // Flip one bit, chosen by the entropy: always ≠ self.
                self ^ (1 << (entropy % <$t>::BITS as u64))
            }
        }
    )*};
}
impl_corrupt_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Corrupt for bool {
    fn corrupted(&self, _entropy: u64) -> Self {
        !self
    }
}

/// A seed-deterministic fault configuration.
///
/// Rates are per-operation probabilities in `[0, 1]`: `bit_flip` and
/// `transient_read` are rolled on every cell **read**, `stuck_write` and
/// `torn_write` on every cell **write**. All rates default to zero, so
/// `FaultPlan::new(seed)` is a no-op plan until a rate is raised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Per-read probability that the cell rots: the read returns a
    /// corrupted value and the corruption is stored back.
    pub bit_flip: f64,
    /// Per-read probability of a transient glitch: the read returns a
    /// corrupted value but the cell is untouched.
    pub transient_read: f64,
    /// Per-overwrite probability that the write is silently dropped and
    /// the old value kept. On appends this degrades to a torn write (see
    /// module docs).
    pub stuck_write: f64,
    /// Per-write probability that a corrupted value is stored instead of
    /// the written one.
    pub torn_write: f64,
    /// Deterministic crash point for durable substrates: kill the run
    /// after this absolute journaled byte (see `durable::wal`). Unlike
    /// the probabilistic rates above, this is an exact coordinate — the
    /// journal persists precisely the prefix up to the byte and the run
    /// fails with `StError::Crashed`. `None` disables crash injection.
    pub crash_journal_byte: Option<u64>,
}

impl FaultPlan {
    /// A no-op plan (all rates zero) with the given stream seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            bit_flip: 0.0,
            transient_read: 0.0,
            stuck_write: 0.0,
            torn_write: 0.0,
            crash_journal_byte: None,
        }
    }

    /// All four fault kinds at the same `rate`.
    #[must_use]
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            bit_flip: rate,
            transient_read: rate,
            stuck_write: rate,
            torn_write: rate,
            crash_journal_byte: None,
        }
    }

    /// Set the persistent bit-flip rate.
    #[must_use]
    pub fn with_bit_flip(mut self, rate: f64) -> Self {
        self.bit_flip = rate;
        self
    }

    /// Set the transient-read rate.
    #[must_use]
    pub fn with_transient_read(mut self, rate: f64) -> Self {
        self.transient_read = rate;
        self
    }

    /// Set the stuck-write rate.
    #[must_use]
    pub fn with_stuck_write(mut self, rate: f64) -> Self {
        self.stuck_write = rate;
        self
    }

    /// Set the torn-write rate.
    #[must_use]
    pub fn with_torn_write(mut self, rate: f64) -> Self {
        self.torn_write = rate;
        self
    }

    /// Plant a deterministic crash after the `k`-th journaled byte.
    #[must_use]
    pub fn with_crash_after(mut self, k: u64) -> Self {
        self.crash_journal_byte = Some(k);
        self
    }

    /// `true` iff every rate is zero and no crash point is planted
    /// (attaching this plan changes nothing).
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.bit_flip == 0.0
            && self.transient_read == 0.0
            && self.stuck_write == 0.0
            && self.torn_write == 0.0
            && self.crash_journal_byte.is_none()
    }

    /// The fault-stream seed for a tape named `tape_name`: the plan seed
    /// mixed with an FNV-1a hash of the name, so distinct tapes driven by
    /// one plan get independent (but individually replayable) streams.
    #[must_use]
    pub fn stream_seed(&self, tape_name: &str) -> u64 {
        self.seed ^ fnv1a(FNV_OFFSET, tape_name.as_bytes())
    }
}

/// Counters for every fault injected into (and every operation seen by)
/// one tape or one machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Cell reads that passed through the fault layer.
    pub reads: u64,
    /// Cell writes that passed through the fault layer.
    pub writes: u64,
    /// Persistent bit-flips injected (read path, stored back).
    pub bit_flips: u64,
    /// Transient read glitches injected (cell untouched).
    pub transient_reads: u64,
    /// Writes silently dropped (old value kept).
    pub stuck_writes: u64,
    /// Writes that stored a corrupted value (including degraded stuck
    /// appends).
    pub torn_writes: u64,
}

impl FaultStats {
    /// Total faults injected, over all kinds.
    #[must_use]
    pub fn total_injected(&self) -> u64 {
        self.bit_flips + self.transient_reads + self.stuck_writes + self.torn_writes
    }

    /// Component-wise sum (for machine-level aggregation).
    #[must_use]
    pub fn merged(&self, other: &FaultStats) -> FaultStats {
        FaultStats {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            bit_flips: self.bit_flips + other.bit_flips,
            transient_reads: self.transient_reads + other.transient_reads,
            stuck_writes: self.stuck_writes + other.stuck_writes,
            torn_writes: self.torn_writes + other.torn_writes,
        }
    }
}

/// The outcome of rolling the read-path fault dice. `Clean` = no fault.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ReadFault {
    Clean,
    /// Corrupt and store back (entropy for the corruption).
    Persistent(u64),
    /// Corrupt the returned value only.
    Transient(u64),
}

/// The outcome of rolling the write-path fault dice.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WriteFault {
    Clean,
    /// Keep the old cell value, drop the write.
    Stuck,
    /// Store a corrupted value (entropy for the corruption).
    Torn(u64),
}

/// Per-tape fault state: the plan's rates, the tape's private stream, the
/// corruption function, and the injection counters.
///
/// The corruption function is a plain `fn` pointer (not a closure) so the
/// surrounding `Tape` keeps its `Debug`/`Clone` derives; trait method
/// paths like `S::corrupted` coerce to it directly.
#[derive(Debug, Clone)]
pub(crate) struct TapeFaults<S> {
    plan: FaultPlan,
    stream: SplitMix64,
    pub(crate) corrupt: fn(&S, u64) -> S,
    pub(crate) stats: FaultStats,
}

impl<S> TapeFaults<S> {
    pub(crate) fn new(plan: &FaultPlan, tape_name: &str, corrupt: fn(&S, u64) -> S) -> Self {
        TapeFaults {
            plan: *plan,
            stream: SplitMix64::new(plan.stream_seed(tape_name)),
            corrupt,
            stats: FaultStats::default(),
        }
    }

    /// One Bernoulli roll at probability `rate`.
    fn roll(&mut self, rate: f64) -> bool {
        if rate <= 0.0 {
            // Zero-rate rolls skip the draw entirely, so a no-op plan is
            // bit-identical to running with no plan attached.
            return false;
        }
        let u = (self.stream.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < rate
    }

    /// Roll the read dice: at most one fault per read, persistent rot
    /// checked first.
    pub(crate) fn decide_read(&mut self) -> ReadFault {
        self.stats.reads += 1;
        if self.roll(self.plan.bit_flip) {
            self.stats.bit_flips += 1;
            let e = self.stream.next_u64();
            return ReadFault::Persistent(e);
        }
        if self.roll(self.plan.transient_read) {
            self.stats.transient_reads += 1;
            let e = self.stream.next_u64();
            return ReadFault::Transient(e);
        }
        ReadFault::Clean
    }

    /// Roll the write dice. `is_append` degrades a stuck write to a torn
    /// one (see module docs).
    pub(crate) fn decide_write(&mut self, is_append: bool) -> WriteFault {
        self.stats.writes += 1;
        if self.roll(self.plan.stuck_write) {
            if is_append {
                self.stats.torn_writes += 1;
                let e = self.stream.next_u64();
                return WriteFault::Torn(e);
            }
            self.stats.stuck_writes += 1;
            return WriteFault::Stuck;
        }
        if self.roll(self.plan.torn_write) {
            self.stats.torn_writes += 1;
            let e = self.stream.next_u64();
            return WriteFault::Torn(e);
        }
        WriteFault::Clean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_int_always_differs() {
        for v in [0u64, 1, u64::MAX, 0xdead_beef] {
            for e in 0..70 {
                assert_ne!(v.corrupted(e), v);
            }
        }
        for v in [0i16, -1, i16::MAX] {
            for e in 0..40 {
                assert_ne!(v.corrupted(e), v);
            }
        }
        assert!(!true.corrupted(0));
    }

    #[test]
    fn corrupt_flips_exactly_one_bit() {
        for e in 0..64u64 {
            let v = 0x0f0f_0f0fu64;
            assert_eq!((v ^ v.corrupted(e)).count_ones(), 1);
        }
    }

    #[test]
    fn plan_builders_compose() {
        let p = FaultPlan::new(7).with_bit_flip(0.5).with_torn_write(0.25);
        assert_eq!(p.seed, 7);
        assert_eq!(p.bit_flip, 0.5);
        assert_eq!(p.torn_write, 0.25);
        assert_eq!(p.transient_read, 0.0);
        assert!(!p.is_noop());
        assert!(FaultPlan::new(7).is_noop());
        assert!(!FaultPlan::uniform(7, 0.1).is_noop());
    }

    #[test]
    fn crash_point_makes_a_plan_non_noop() {
        let p = FaultPlan::new(3).with_crash_after(128);
        assert_eq!(p.crash_journal_byte, Some(128));
        assert!(!p.is_noop());
        assert!(p.bit_flip == 0.0 && p.torn_write == 0.0);
    }

    #[test]
    fn stream_seed_depends_on_tape_name_and_seed() {
        let p = FaultPlan::new(42);
        assert_ne!(p.stream_seed("a"), p.stream_seed("b"));
        assert_eq!(p.stream_seed("a"), p.stream_seed("a"));
        assert_ne!(
            FaultPlan::new(1).stream_seed("a"),
            FaultPlan::new(2).stream_seed("a")
        );
    }

    #[test]
    fn identical_streams_give_identical_decisions() {
        let plan = FaultPlan::uniform(99, 0.3);
        let mk = || TapeFaults::<u64>::new(&plan, "t", <u64 as Corrupt>::corrupted);
        let (mut a, mut b) = (mk(), mk());
        for i in 0..500 {
            let (da, db) = (a.decide_read(), b.decide_read());
            assert_eq!(format!("{da:?}"), format!("{db:?}"), "read {i}");
            let (wa, wb) = (a.decide_write(i % 3 == 0), b.decide_write(i % 3 == 0));
            assert_eq!(format!("{wa:?}"), format!("{wb:?}"), "write {i}");
        }
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn zero_rate_plan_never_injects() {
        let plan = FaultPlan::new(5);
        let mut f = TapeFaults::<u8>::new(&plan, "t", <u8 as Corrupt>::corrupted);
        for _ in 0..200 {
            assert!(matches!(f.decide_read(), ReadFault::Clean));
            assert!(matches!(f.decide_write(false), WriteFault::Clean));
        }
        assert_eq!(f.stats.total_injected(), 0);
        assert_eq!(f.stats.reads, 200);
        assert_eq!(f.stats.writes, 200);
    }

    #[test]
    fn rate_one_always_injects() {
        let plan = FaultPlan::new(5).with_bit_flip(1.0).with_torn_write(1.0);
        let mut f = TapeFaults::<u8>::new(&plan, "t", <u8 as Corrupt>::corrupted);
        for _ in 0..50 {
            assert!(matches!(f.decide_read(), ReadFault::Persistent(_)));
            assert!(matches!(f.decide_write(false), WriteFault::Torn(_)));
        }
        assert_eq!(f.stats.bit_flips, 50);
        assert_eq!(f.stats.torn_writes, 50);
    }

    #[test]
    fn stuck_append_degrades_to_torn() {
        let plan = FaultPlan::new(5).with_stuck_write(1.0);
        let mut f = TapeFaults::<u8>::new(&plan, "t", <u8 as Corrupt>::corrupted);
        assert!(matches!(f.decide_write(true), WriteFault::Torn(_)));
        assert!(matches!(f.decide_write(false), WriteFault::Stuck));
        assert_eq!(f.stats.torn_writes, 1);
        assert_eq!(f.stats.stuck_writes, 1);
    }

    #[test]
    fn stats_merge_componentwise() {
        let a = FaultStats {
            reads: 1,
            writes: 2,
            bit_flips: 3,
            ..FaultStats::default()
        };
        let b = FaultStats {
            reads: 10,
            torn_writes: 4,
            ..FaultStats::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.reads, 11);
        assert_eq!(m.writes, 2);
        assert_eq!(m.bit_flips, 3);
        assert_eq!(m.torn_writes, 4);
        assert_eq!(m.total_injected(), 7);
    }
}
