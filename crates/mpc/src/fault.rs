//! Seeded network fault plans for the simulated cluster.
//!
//! The PR 1/PR 5 discipline — faults are *planned*, never random at run
//! time — moves up to the network layer here. A [`NetFaultPlan`] decides
//! drop / duplicate / reorder / corrupt / delay for every delivery
//! attempt from a SplitMix64 hash ([`st_core::rng::splitmix64`]) of
//! `(seed, kind, round, link, seq, attempt)`, so the same plan replays
//! the same storm bit for bit on any `--jobs` value, and a failing run
//! is reproducible from the seed alone. Worker kills are scheduled the
//! same way: [`NetFaultPlan::kill_worker_after`] names the exact round
//! after whose exchange the worker dies.
//!
//! Fault probabilities decay with the retry attempt (`threshold >>
//! attempt`), so a bounded retry budget virtually never exhausts even at
//! rate 1.0 — and when it does, the engine surfaces a typed
//! [`StError`](st_core::StError), never a wrong verdict.

use st_core::rng::splitmix64;
use st_core::StError;

/// Kinds of injectable network faults, used to salt the fault dice so
/// each fault class rolls independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The frame never arrives; the sender retries after a backoff.
    Drop,
    /// The frame arrives twice; seq dedup discards the second copy.
    Duplicate,
    /// The frame arrives out of send order; re-sequenced on delivery.
    Reorder,
    /// One byte of the frame is flipped; the crc32 check refuses it.
    Corrupt,
    /// The frame is held back within the round before delivery.
    Delay,
}

impl FaultKind {
    fn salt(self) -> u64 {
        match self {
            FaultKind::Drop => 0x6472_6f70,
            FaultKind::Duplicate => 0x6475_7065,
            FaultKind::Reorder => 0x7265_6f72,
            FaultKind::Corrupt => 0x636f_7272,
            FaultKind::Delay => 0x6465_6c61,
        }
    }
}

const ALL_KINDS: [FaultKind; 5] = [
    FaultKind::Drop,
    FaultKind::Duplicate,
    FaultKind::Reorder,
    FaultKind::Corrupt,
    FaultKind::Delay,
];

/// Per-fault-class firing thresholds, stored as 32-bit fixed-point
/// fractions of u32::MAX so the dice never touch floating point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Rates {
    drop: u32,
    duplicate: u32,
    reorder: u32,
    corrupt: u32,
    delay: u32,
}

impl Rates {
    fn threshold(&self, kind: FaultKind) -> u32 {
        match kind {
            FaultKind::Drop => self.drop,
            FaultKind::Duplicate => self.duplicate,
            FaultKind::Reorder => self.reorder,
            FaultKind::Corrupt => self.corrupt,
            FaultKind::Delay => self.delay,
        }
    }

    fn set(&mut self, kind: FaultKind, threshold: u32) {
        match kind {
            FaultKind::Drop => self.drop = threshold,
            FaultKind::Duplicate => self.duplicate = threshold,
            FaultKind::Reorder => self.reorder = threshold,
            FaultKind::Corrupt => self.corrupt = threshold,
            FaultKind::Delay => self.delay = threshold,
        }
    }

    fn any(&self) -> bool {
        self.drop | self.duplicate | self.reorder | self.corrupt | self.delay != 0
    }
}

fn rate_to_threshold(rate: f64) -> u32 {
    let clamped = rate.clamp(0.0, 1.0);
    // 1.0 maps to u32::MAX: the dice compare `< threshold` on a value
    // uniform over 0..=u32::MAX, so full rate fires all but ~2⁻³² often.
    (clamped * f64::from(u32::MAX)) as u32
}

/// A scheduled worker kill: the worker dies right after the exchange of
/// the named (0-based) round completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// Worker index to kill.
    pub worker: usize,
    /// 0-based exchange round after which the incarnation dies.
    pub after_round: u64,
}

/// A deterministic, seeded network fault schedule.
///
/// Built with the fluent `with_*` methods; attach to
/// [`MpcOptions::fault_plan`](crate::MpcOptions) to run any decider
/// under it.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaultPlan {
    seed: u64,
    base: Rates,
    /// Per-link overrides: (from, to) → rates replacing the base set.
    links: Vec<(usize, usize, Rates)>,
    kills: Vec<KillSpec>,
    /// Delivery attempts allowed per message (first try included).
    retry_budget: u32,
}

/// Default retry budget: with attempt-decayed thresholds, 8 attempts
/// push the exhaustion probability below 2⁻²⁸ even at rate 1.0.
pub const DEFAULT_RETRY_BUDGET: u32 = 8;

impl NetFaultPlan {
    /// An empty plan (no faults, no kills) under `seed`. Attaching it
    /// still engages the ack/retry protocol and crc verification, so a
    /// zero-rate plan is the cheapest way to exercise the full path.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        NetFaultPlan {
            seed,
            base: Rates::default(),
            links: Vec::new(),
            kills: Vec::new(),
            retry_budget: DEFAULT_RETRY_BUDGET,
        }
    }

    /// The seed the dice derive from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Set the base drop rate (fraction of first attempts lost).
    #[must_use]
    pub fn with_drop(mut self, rate: f64) -> Self {
        self.base.set(FaultKind::Drop, rate_to_threshold(rate));
        self
    }

    /// Set the base duplication rate.
    #[must_use]
    pub fn with_duplicate(mut self, rate: f64) -> Self {
        self.base.set(FaultKind::Duplicate, rate_to_threshold(rate));
        self
    }

    /// Set the base reorder rate.
    #[must_use]
    pub fn with_reorder(mut self, rate: f64) -> Self {
        self.base.set(FaultKind::Reorder, rate_to_threshold(rate));
        self
    }

    /// Set the base corruption rate (one byte per corrupted frame).
    #[must_use]
    pub fn with_corrupt(mut self, rate: f64) -> Self {
        self.base.set(FaultKind::Corrupt, rate_to_threshold(rate));
        self
    }

    /// Set the base delay rate.
    #[must_use]
    pub fn with_delay(mut self, rate: f64) -> Self {
        self.base.set(FaultKind::Delay, rate_to_threshold(rate));
        self
    }

    /// Override every rate on one directed link `(from, to)`.
    #[must_use]
    pub fn with_link_rates(
        mut self,
        from: usize,
        to: usize,
        drop: f64,
        duplicate: f64,
        corrupt: f64,
    ) -> Self {
        let mut rates = self.base;
        rates.set(FaultKind::Drop, rate_to_threshold(drop));
        rates.set(FaultKind::Duplicate, rate_to_threshold(duplicate));
        rates.set(FaultKind::Corrupt, rate_to_threshold(corrupt));
        self.links.retain(|&(f, t, _)| (f, t) != (from, to));
        self.links.push((from, to, rates));
        self
    }

    /// Schedule `worker` to die right after round `after_round`'s
    /// exchange delivers (0-based round numbering, matching
    /// `CommUsage::rounds` before the increment).
    #[must_use]
    pub fn kill_worker_after(mut self, worker: usize, after_round: u64) -> Self {
        self.kills.push(KillSpec {
            worker,
            after_round,
        });
        self
    }

    /// Cap delivery attempts per message (first try included). Clamped
    /// to at least 1. Exhaustion is a typed error, never a wrong
    /// verdict.
    #[must_use]
    pub fn with_retry_budget(mut self, attempts: u32) -> Self {
        self.retry_budget = attempts.max(1);
        self
    }

    /// Delivery attempts allowed per message.
    #[must_use]
    pub fn retry_budget(&self) -> u32 {
        self.retry_budget
    }

    /// Does the plan schedule any worker kill? (Engines journal worker
    /// state only when this is true.)
    #[must_use]
    pub fn has_kills(&self) -> bool {
        !self.kills.is_empty()
    }

    /// Workers scheduled to die right after `round`'s exchange, deduped
    /// and in ascending order.
    #[must_use]
    pub fn kills_after(&self, round: u64) -> Vec<usize> {
        let mut workers: Vec<usize> = self
            .kills
            .iter()
            .filter(|k| k.after_round == round)
            .map(|k| k.worker)
            .collect();
        workers.sort_unstable();
        workers.dedup();
        workers
    }

    /// All scheduled kills, as declared.
    #[must_use]
    pub fn kills(&self) -> &[KillSpec] {
        &self.kills
    }

    /// Does any fault class have a nonzero rate anywhere?
    #[must_use]
    pub fn has_faults(&self) -> bool {
        self.base.any() || self.links.iter().any(|&(_, _, r)| r.any())
    }

    fn rates_for(&self, from: usize, to: usize) -> Rates {
        self.links
            .iter()
            .find(|&&(f, t, _)| (f, t) == (from, to))
            .map_or(self.base, |&(_, _, r)| r)
    }

    fn dice(
        &self,
        kind: FaultKind,
        round: u64,
        from: usize,
        to: usize,
        seq: u64,
        attempt: u32,
    ) -> u64 {
        let mut h = self.seed ^ kind.salt();
        for v in [
            round,
            (from as u64) << 32 | to as u64,
            seq,
            u64::from(attempt),
        ] {
            h = splitmix64(h ^ v);
        }
        h
    }

    /// Roll the dice for one fault class on one delivery attempt. The
    /// firing threshold halves with each retry attempt, so a bounded
    /// budget converges: at base rate `r`, attempt `a` fires with
    /// probability `r / 2^a`.
    #[must_use]
    pub fn fires(
        &self,
        kind: FaultKind,
        round: u64,
        from: usize,
        to: usize,
        seq: u64,
        attempt: u32,
    ) -> bool {
        let threshold = self.rates_for(from, to).threshold(kind) >> attempt.min(31);
        if threshold == 0 {
            return false;
        }
        let roll = (self.dice(kind, round, from, to, seq, attempt) >> 32) as u32;
        roll < threshold
    }

    /// Flip one deterministic byte of `frame` (position and nonzero xor
    /// mask both derived from the dice). Errors on an empty frame — the
    /// codec never emits one, so that would be an engine bug.
    pub fn corrupt_frame(
        &self,
        frame: &mut [u8],
        round: u64,
        from: usize,
        to: usize,
        seq: u64,
        attempt: u32,
    ) -> Result<(), StError> {
        if frame.is_empty() {
            return Err(StError::InvalidInstance(
                "cannot corrupt an empty frame".into(),
            ));
        }
        let h = self.dice(FaultKind::Corrupt, round, from, to, seq, attempt);
        let idx = (h % frame.len() as u64) as usize;
        let mask = ((h >> 17) % 255 + 1) as u8;
        frame[idx] ^= mask;
        Ok(())
    }

    /// Exhaustive fault census for one attempt: which classes fire.
    /// Handy for tests; the engine queries classes individually.
    #[must_use]
    pub fn census(
        &self,
        round: u64,
        from: usize,
        to: usize,
        seq: u64,
        attempt: u32,
    ) -> Vec<FaultKind> {
        ALL_KINDS
            .into_iter()
            .filter(|&k| self.fires(k, round, from, to, seq, attempt))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dice_are_a_pure_function_of_the_tuple() {
        let plan = NetFaultPlan::new(7).with_drop(0.5).with_corrupt(0.3);
        for round in 0..4 {
            for seq in 0..16 {
                for attempt in 0..3 {
                    let a = plan.census(round, 1, 2, seq, attempt);
                    let b = plan.census(round, 1, 2, seq, attempt);
                    assert_eq!(a, b);
                }
            }
        }
    }

    #[test]
    fn zero_rate_never_fires_and_full_rate_fires_on_first_attempt() {
        let silent = NetFaultPlan::new(3);
        let storm = NetFaultPlan::new(3).with_drop(1.0);
        for seq in 0..200 {
            assert!(silent.census(0, 0, 1, seq, 0).is_empty());
            assert!(storm.fires(FaultKind::Drop, 0, 0, 1, seq, 0));
        }
    }

    #[test]
    fn thresholds_decay_with_attempts_so_retries_converge() {
        let plan = NetFaultPlan::new(11).with_drop(1.0);
        // At attempt a the threshold is u32::MAX >> a: by attempt 8 the
        // firing probability is ~2⁻⁸ per roll, so over 400 messages we
        // must see many non-firing rolls.
        let survivors = (0..400)
            .filter(|&seq| !plan.fires(FaultKind::Drop, 0, 0, 1, seq, 8))
            .count();
        assert!(survivors > 300, "only {survivors} of 400 survived");
    }

    #[test]
    fn seeds_decorrelate_and_kinds_roll_independently() {
        let a = NetFaultPlan::new(1).with_drop(0.5);
        let b = NetFaultPlan::new(2).with_drop(0.5);
        let same = (0..256)
            .filter(|&seq| {
                a.fires(FaultKind::Drop, 0, 0, 1, seq, 0)
                    == b.fires(FaultKind::Drop, 0, 0, 1, seq, 0)
            })
            .count();
        assert!(
            (64..192).contains(&same),
            "seeds too correlated: {same}/256"
        );

        let both = NetFaultPlan::new(5).with_drop(0.5).with_duplicate(0.5);
        let agree = (0..256)
            .filter(|&seq| {
                both.fires(FaultKind::Drop, 0, 0, 1, seq, 0)
                    == both.fires(FaultKind::Duplicate, 0, 0, 1, seq, 0)
            })
            .count();
        assert!((64..192).contains(&agree), "kinds correlated: {agree}/256");
    }

    #[test]
    fn link_overrides_replace_the_base_rates_on_that_link_only() {
        let plan = NetFaultPlan::new(9)
            .with_drop(1.0)
            .with_link_rates(0, 1, 0.0, 0.0, 0.0);
        for seq in 0..64 {
            assert!(!plan.fires(FaultKind::Drop, 0, 0, 1, seq, 0), "link muted");
            assert!(plan.fires(FaultKind::Drop, 0, 1, 0, seq, 0), "base intact");
        }
    }

    #[test]
    fn corrupt_flips_exactly_one_byte_deterministically() {
        let plan = NetFaultPlan::new(13).with_corrupt(1.0);
        let original: Vec<u8> = (0..32).collect();
        let mut a = original.clone();
        let mut b = original.clone();
        plan.corrupt_frame(&mut a, 2, 0, 1, 5, 0).unwrap();
        plan.corrupt_frame(&mut b, 2, 0, 1, 5, 0).unwrap();
        assert_eq!(a, b);
        let flipped = original.iter().zip(&a).filter(|(x, y)| x != y).count();
        assert_eq!(flipped, 1);
        assert!(plan.corrupt_frame(&mut [], 0, 0, 0, 0, 0).is_err());
    }

    #[test]
    fn kill_schedule_round_trips_with_dedup_and_order() {
        let plan = NetFaultPlan::new(0)
            .kill_worker_after(3, 1)
            .kill_worker_after(1, 1)
            .kill_worker_after(1, 1)
            .kill_worker_after(2, 4);
        assert!(plan.has_kills());
        assert_eq!(plan.kills_after(1), vec![1, 3]);
        assert_eq!(plan.kills_after(4), vec![2]);
        assert!(plan.kills_after(0).is_empty());
        assert!(!NetFaultPlan::new(0).has_kills());
    }

    #[test]
    fn retry_budget_clamps_to_at_least_one_attempt() {
        assert_eq!(NetFaultPlan::new(0).with_retry_budget(0).retry_budget(), 1);
        assert_eq!(NetFaultPlan::new(0).retry_budget(), DEFAULT_RETRY_BUDGET);
        assert!(!NetFaultPlan::new(0).has_faults());
        assert!(NetFaultPlan::new(0).with_delay(0.1).has_faults());
    }
}
