//! The workspace's one generator and one string hash.
//!
//! Every fault storm, seed tree and hash shard replays bit for bit from
//! a seed, so the mixing those streams share lives here once:
//!
//! * [`splitmix64`] — the SplitMix64 finalizer (Steele, Lea & Flood), a
//!   pure 64-bit mixer: the seed tree and the network fault dice hash
//!   tuples through it;
//! * [`SplitMix64`] — the stream that finalizer defines, stepping its
//!   state by the golden gamma: each tape's fault dice;
//! * [`fnv1a`] with [`FNV_OFFSET`] and [`FNV_PRIME`] — FNV-1a 64 over
//!   bytes: tape names and stream labels to seeds, and bill MACs. The
//!   MPC hash partitioner steps the same prime per bit.

/// The golden-ratio gamma `⌊2⁶⁴/φ⌋`, SplitMix64's state increment.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 finalizer of `z`: add the gamma, then mix.
#[inline]
#[must_use]
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A SplitMix64 stream: draw `i` (from 0) is `splitmix64(seed + i·γ)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The stream seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        out
    }
}

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `h` (start from [`FNV_OFFSET`]).
#[inline]
#[must_use]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The first outputs of the reference SplitMix64 seeded with 0.
        let mut s = SplitMix64::new(0);
        assert_eq!(s.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(s.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(s.next_u64(), 0x06c4_5d18_8009_454f);
        let mut s = SplitMix64::new(42);
        assert_eq!(s.next_u64(), splitmix64(42));
        assert_eq!(s.next_u64(), splitmix64(42u64.wrapping_add(GOLDEN_GAMMA)));
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Folding in pieces is folding the concatenation.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }
}
