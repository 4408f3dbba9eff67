//! Communication-cost record for the distributed (MPC) evaluation layer.
//!
//! Beame–Koutris–Suciu's MPC model charges an algorithm for the number of
//! *communication rounds* and the data each worker receives per round
//! (the *load*). The reversal/space trade-offs of the PODS 2006 paper
//! become round/bytes trade-offs under the correspondence one sequential
//! scan ↔ one superstep: a 1-scan commutative fingerprint (Theorem 8(a))
//! combines in a single round, while the Θ(log N)-reversal sort deciders
//! (Corollary 7) need ⌈log₂ p⌉ pairwise merge rounds across `p` workers.
//!
//! [`CommUsage`] is the wire-side sibling of [`ResourceUsage`]: every
//! exchange through the metered `st-mpc` channel charges rounds, message
//! count, and bytes-on-the-wire here, and the experiment harness verdicts
//! measured shapes against the predicted ones.
//!
//! The *recovery* counters (retries, redundant bytes, crashes, …) meter
//! what a seeded network fault plan costs on top of the clean traffic.
//! They are the only fields allowed to differ between a faulted run and
//! its fault-free twin: the clean counters, every verdict, and every
//! tape-side [`ResourceUsage`] must stay bit-identical, which is what
//! makes fault injection a reproduction instrument rather than noise.
//!
//! [`ResourceUsage`]: crate::usage::ResourceUsage

use std::fmt;

/// Communication consumed by one distributed run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommUsage {
    /// Number of workers the cluster was planned with (`p`).
    pub workers: usize,
    /// Synchronous communication rounds (supersteps in which at least one
    /// message crossed the exchange). Loopback messages count: a worker
    /// sending to itself still serializes through the metered channel.
    pub rounds: u64,
    /// Total messages exchanged across all rounds.
    pub messages: u64,
    /// Total framed bytes on the wire across all rounds (headers
    /// included — the cost of a message is what the codec emits).
    pub bytes_on_wire: u64,
    /// Maximum bytes any single worker received in any single round —
    /// the *load* `L` of the MPC model.
    pub max_load: u64,
    /// Retransmissions forced by dropped or corrupted deliveries.
    pub retries: u64,
    /// Bytes re-sent beyond the first attempt of each message (retries
    /// and spurious duplicates both land here).
    pub redundant_bytes: u64,
    /// Acknowledgements returned by the reliable-delivery protocol.
    pub acks: u64,
    /// Frames whose crc32 check failed on receipt (corruption detected,
    /// frame refused, retransmission requested).
    pub checksum_failures: u64,
    /// Duplicate deliveries discarded by sequence-number dedup.
    pub duplicates_dropped: u64,
    /// Frames that arrived out of send order and were re-sequenced.
    pub reordered: u64,
    /// Frames the fault plan held back before eventual delivery.
    pub delayed: u64,
    /// Exponential-backoff ticks spent waiting between attempts.
    pub backoff_ticks: u64,
    /// Extra supersteps replayed to rebuild crashed workers.
    pub recovery_rounds: u64,
    /// Worker incarnations killed by the fault plan.
    pub worker_crashes: u64,
    /// Head reversals charged by incarnations that died (absorbed here so
    /// the lost work stays priced without polluting the surviving
    /// workers' bit-identical [`ResourceUsage`]).
    ///
    /// [`ResourceUsage`]: crate::usage::ResourceUsage
    pub lost_reversals: u64,
    /// Tape cells touched by incarnations that died (see
    /// [`Self::lost_reversals`]).
    pub lost_cells: u64,
}

impl CommUsage {
    /// A fresh, empty record for a `p`-worker cluster.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        CommUsage {
            workers,
            ..CommUsage::default()
        }
    }

    /// This record with every fault/recovery counter zeroed — the part
    /// of the bill that must be bit-identical between a faulted run and
    /// its fault-free twin.
    #[must_use]
    pub fn clean(&self) -> Self {
        CommUsage {
            workers: self.workers,
            rounds: self.rounds,
            messages: self.messages,
            bytes_on_wire: self.bytes_on_wire,
            max_load: self.max_load,
            ..CommUsage::default()
        }
    }

    /// Total recovery traffic: everything [`Self::clean`] zeroes, summed.
    /// Zero exactly when the run saw no faults and ran no ack protocol.
    #[must_use]
    pub fn recovery_total(&self) -> u64 {
        self.retries
            + self.redundant_bytes
            + self.acks
            + self.checksum_failures
            + self.duplicates_dropped
            + self.reordered
            + self.delayed
            + self.backoff_ticks
            + self.recovery_rounds
            + self.worker_crashes
            + self.lost_reversals
            + self.lost_cells
    }

    /// Merge another record into this one: rounds, messages, and bytes
    /// are phase-sequential (summed); worker count and per-round load are
    /// high-water marks (maxed). Used when a decider is composed of
    /// separately-metered phases (shuffle then gather).
    pub fn absorb(&mut self, other: &CommUsage) {
        self.workers = self.workers.max(other.workers);
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.bytes_on_wire += other.bytes_on_wire;
        self.max_load = self.max_load.max(other.max_load);
        self.retries += other.retries;
        self.redundant_bytes += other.redundant_bytes;
        self.acks += other.acks;
        self.checksum_failures += other.checksum_failures;
        self.duplicates_dropped += other.duplicates_dropped;
        self.reordered += other.reordered;
        self.delayed += other.delayed;
        self.backoff_ticks += other.backoff_ticks;
        self.recovery_rounds += other.recovery_rounds;
        self.worker_crashes += other.worker_crashes;
        self.lost_reversals += other.lost_reversals;
        self.lost_cells += other.lost_cells;
    }
}

impl fmt::Display for CommUsage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p={}, rounds={}, messages={}, wire={} B, load={} B",
            self.workers, self.rounds, self.messages, self.bytes_on_wire, self.max_load,
        )?;
        if self.recovery_total() > 0 {
            write!(
                f,
                ", retries={}, redundant={} B, crashes={}, recovery-rounds={}",
                self.retries, self.redundant_bytes, self.worker_crashes, self.recovery_rounds,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_record_is_empty_apart_from_worker_count() {
        let c = CommUsage::new(8);
        assert_eq!(c.workers, 8);
        assert_eq!(c.rounds, 0);
        assert_eq!(c.messages, 0);
        assert_eq!(c.bytes_on_wire, 0);
        assert_eq!(c.max_load, 0);
        assert_eq!(c.recovery_total(), 0);
    }

    #[test]
    fn absorb_sums_traffic_and_maxes_load() {
        let mut a = CommUsage {
            workers: 4,
            rounds: 1,
            messages: 4,
            bytes_on_wire: 100,
            max_load: 40,
            ..CommUsage::default()
        };
        let b = CommUsage {
            workers: 8,
            rounds: 2,
            messages: 10,
            bytes_on_wire: 300,
            max_load: 25,
            ..CommUsage::default()
        };
        a.absorb(&b);
        assert_eq!(a.workers, 8);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.messages, 14);
        assert_eq!(a.bytes_on_wire, 400);
        assert_eq!(a.max_load, 40);
    }

    #[test]
    fn absorb_sums_every_recovery_counter() {
        let mut a = CommUsage::new(2);
        let b = CommUsage {
            workers: 2,
            retries: 3,
            redundant_bytes: 120,
            acks: 9,
            checksum_failures: 1,
            duplicates_dropped: 2,
            reordered: 4,
            delayed: 5,
            backoff_ticks: 14,
            recovery_rounds: 2,
            worker_crashes: 1,
            lost_reversals: 7,
            lost_cells: 80,
            ..CommUsage::default()
        };
        a.absorb(&b);
        a.absorb(&b);
        assert_eq!(a.retries, 6);
        assert_eq!(a.redundant_bytes, 240);
        assert_eq!(a.acks, 18);
        assert_eq!(a.checksum_failures, 2);
        assert_eq!(a.duplicates_dropped, 4);
        assert_eq!(a.reordered, 8);
        assert_eq!(a.delayed, 10);
        assert_eq!(a.backoff_ticks, 28);
        assert_eq!(a.recovery_rounds, 4);
        assert_eq!(a.worker_crashes, 2);
        assert_eq!(a.lost_reversals, 14);
        assert_eq!(a.lost_cells, 160);
    }

    #[test]
    fn clean_strips_exactly_the_recovery_counters() {
        let faulted = CommUsage {
            workers: 4,
            rounds: 3,
            messages: 12,
            bytes_on_wire: 512,
            max_load: 128,
            retries: 5,
            redundant_bytes: 200,
            acks: 12,
            checksum_failures: 2,
            duplicates_dropped: 1,
            reordered: 3,
            delayed: 2,
            backoff_ticks: 31,
            recovery_rounds: 4,
            worker_crashes: 1,
            lost_reversals: 9,
            lost_cells: 44,
        };
        let clean = faulted.clean();
        assert_eq!(clean.workers, 4);
        assert_eq!(clean.rounds, 3);
        assert_eq!(clean.messages, 12);
        assert_eq!(clean.bytes_on_wire, 512);
        assert_eq!(clean.max_load, 128);
        assert_eq!(clean.recovery_total(), 0);
        assert_eq!(clean.clone().clean(), clean, "clean is idempotent");
        assert!(faulted.recovery_total() > 0);
    }

    #[test]
    fn display_mentions_rounds_and_wire_bytes() {
        let c = CommUsage {
            workers: 2,
            rounds: 1,
            messages: 2,
            bytes_on_wire: 64,
            max_load: 32,
            ..CommUsage::default()
        };
        let s = c.to_string();
        assert!(s.contains("rounds=1"), "{s}");
        assert!(s.contains("wire=64 B"), "{s}");
        assert!(!s.contains("retries"), "clean runs stay terse: {s}");
        let faulted = CommUsage {
            retries: 2,
            worker_crashes: 1,
            ..c
        };
        let s = faulted.to_string();
        assert!(s.contains("retries=2"), "{s}");
        assert!(s.contains("crashes=1"), "{s}");
    }
}
