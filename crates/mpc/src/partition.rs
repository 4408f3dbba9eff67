//! Record partitioners: how an instance's records land on `p` workers.
//!
//! Two placements, matching the two decider families:
//!
//! * [`range_partition`] — contiguous index chunks. This is the *input
//!   placement* every decider starts from (the data arrives sharded in
//!   order, as on a distributed file system), and the one the CHECK-SORT
//!   merge tree needs: concatenating per-worker runs in worker order
//!   reconstructs the original index order.
//! * [`hash_partition`] — a seeded hash of the record's bits. The Q′
//!   hash-join shuffle routes every copy of a value to the same worker,
//!   so local symmetric differences compose into the global one.
//!
//! Both are pure functions of `(record/index, p, seed)` — no RNG state —
//! so placement is reproducible across runs, worker counts are explicit,
//! and the shard-count invariance property tests can sweep `p` freely.

use st_core::rng::{FNV_OFFSET, FNV_PRIME};
use st_problems::BitStr;

/// The contiguous chunk owner of record `index` among `total` records
/// split across `p` workers: worker `⌊index·p/total⌋`, the balanced
/// split with every chunk size in `{⌊total/p⌋, ⌈total/p⌉}`. An index at
/// or past `total` clamps to the last record's owner instead of
/// panicking — placement is total, so a caller's off-by-one cannot take
/// the cluster down.
#[must_use]
pub fn range_partition(index: usize, total: usize, p: usize) -> usize {
    let p = p.max(1);
    if total == 0 {
        return 0;
    }
    (index.min(total - 1) * p) / total
}

/// The records of one list a worker owns under [`range_partition`].
#[must_use]
pub fn range_shard<T: Clone>(items: &[T], worker: usize, p: usize) -> Vec<T> {
    items
        .iter()
        .enumerate()
        .filter(|(i, _)| range_partition(*i, items.len(), p) == worker)
        .map(|(_, v)| v.clone())
        .collect()
}

/// Eight FNV steps at once: `FNV_PRIME⁸`.
const FNV_PRIME_8: u64 = FNV_PRIME.wrapping_pow(8);

/// `BYTE_STEPS[h & 1][byte]`: what eight per-bit FNV steps over `byte`
/// (MSB first) add to `h · FNV_PRIME⁸`.
///
/// One step is `h ↦ (h ^ b)·P`. Since `h ^ b = h + δ` with
/// `δ ∈ {−1, 0, 1}` fixed by `b` and the low bit of `h`, a step is
/// `h·P + δ·P`; and since `P` is odd, the low bit after it is
/// `low(h) ^ b`. So the eight `δ`s, and with them the whole offset
/// `Σ δᵢ·P⁹⁻ⁱ`, depend only on the byte and the low bit of `h`.
const BYTE_STEPS: [[u64; 256]; 2] = byte_steps();

const fn byte_steps() -> [[u64; 256]; 2] {
    let mut table = [[0u64; 256]; 2];
    let mut low = 0;
    while low < 2 {
        let mut byte = 0;
        while byte < 256 {
            let mut h = low as u64;
            let mut i = 0;
            while i < 8 {
                h = (h ^ ((byte >> (7 - i)) & 1) as u64).wrapping_mul(FNV_PRIME);
                i += 1;
            }
            table[low][byte] = h.wrapping_sub((low as u64).wrapping_mul(FNV_PRIME_8));
            byte += 1;
        }
        low += 1;
    }
    table
}

/// Seeded FNV-1a over the record's bits (plus its length, so `"0"` and
/// `"00"` separate), reduced mod `p`. Every occurrence of a value hashes
/// to the same worker — the hash-join co-location guarantee.
///
/// The hash is defined bit by bit, `h ↦ (h ^ bit)·P` MSB first, and
/// computed a byte at a time from the packed words through a table of
/// eight steps per byte; the last `len mod 8` bits take the per-bit
/// step.
#[must_use]
pub fn hash_partition(seed: u64, record: &BitStr, p: usize) -> usize {
    let p = p.max(1);
    let len = record.len();
    let mut h = (FNV_OFFSET ^ seed ^ len as u64).wrapping_mul(FNV_PRIME);
    for (i, &word) in record.words().iter().enumerate() {
        // Only the last word holds fewer than 64 bits.
        let bits = (len - 64 * i).min(64);
        let mut rest = word;
        for _ in 0..bits / 8 {
            h = h
                .wrapping_mul(FNV_PRIME_8)
                .wrapping_add(BYTE_STEPS[(h & 1) as usize][(rest >> 56) as usize]);
            rest <<= 8;
        }
        for _ in 0..bits % 8 {
            h = (h ^ (rest >> 63)).wrapping_mul(FNV_PRIME);
            rest <<= 1;
        }
    }
    (h % p as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(s: &str) -> BitStr {
        BitStr::parse(s).unwrap()
    }

    #[test]
    fn range_partition_is_monotone_and_balanced() {
        for total in [1usize, 2, 5, 16, 33] {
            for p in [1usize, 2, 3, 7, 16] {
                let owners: Vec<usize> = (0..total).map(|i| range_partition(i, total, p)).collect();
                assert!(owners.windows(2).all(|w| w[0] <= w[1]), "monotone");
                assert!(owners.iter().all(|&w| w < p), "in range");
                let mut counts = vec![0usize; p];
                for &w in &owners {
                    counts[w] += 1;
                }
                let (lo, hi) = (total / p, total.div_ceil(p));
                assert!(
                    counts.iter().all(|&c| c == lo || c == hi),
                    "balanced: {counts:?} for total={total} p={p}"
                );
            }
        }
    }

    #[test]
    fn range_shards_concatenate_to_the_original() {
        let items: Vec<u32> = (0..23).collect();
        for p in [1usize, 2, 3, 7, 16] {
            let mut joined = Vec::new();
            for w in 0..p {
                joined.extend(range_shard(&items, w, p));
            }
            assert_eq!(joined, items);
        }
    }

    #[test]
    fn hash_partition_is_stable_and_value_consistent() {
        let v = bs("010011");
        for p in [1usize, 2, 3, 7, 16] {
            let w = hash_partition(42, &v, p);
            assert!(w < p);
            assert_eq!(
                hash_partition(42, &v.clone(), p),
                w,
                "same value, same worker"
            );
        }
    }

    #[test]
    fn hash_partition_separates_length_from_value() {
        // "0" and "00" encode different records; with enough workers the
        // seeded hash tells them apart for at least one seed.
        let spread = (0..64u64)
            .any(|seed| hash_partition(seed, &bs("0"), 16) != hash_partition(seed, &bs("00"), 16));
        assert!(spread, "length never entered the hash");
    }

    #[test]
    fn empty_list_partitions_to_worker_zero() {
        assert_eq!(range_partition(0, 1, 4), 0);
        assert!(range_shard(&Vec::<u32>::new(), 0, 4).is_empty());
    }

    #[test]
    fn out_of_range_index_clamps_to_the_last_owner() {
        assert_eq!(range_partition(23, 23, 4), range_partition(22, 23, 4));
        assert_eq!(range_partition(usize::MAX, 23, 4), 3);
    }
}
