//! The splittable seed tree.
//!
//! Every random draw in a fuzz run descends from one master seed through
//! pure mixing — no global RNG, no draw-order coupling between
//! iterations. Iteration `i`'s generator stream and each oracle's
//! decider stream get *independent* seeds, so adding an oracle or
//! reordering the pool's thread assignment can never perturb another
//! stream. This is what makes `--jobs 1` and `--jobs 4` byte-identical.

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_core::rng::{fnv1a, splitmix64, FNV_OFFSET};

/// Derive the seed for stream `label`, element `index`, under `master`:
/// the label's FNV-1a hash and the index mixed in by two SplitMix64
/// finalizers. Pure and collision-mixed: distinct `(label, index)`
/// pairs get independent-looking seeds.
#[must_use]
pub fn derive_seed(master: u64, label: &str, index: u64) -> u64 {
    let tag = fnv1a(FNV_OFFSET, label.as_bytes());
    splitmix64(splitmix64(master ^ tag) ^ index)
}

/// A ready-to-use RNG for stream `label`, element `index`.
#[must_use]
pub fn derive_rng(master: u64, label: &str, index: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(master, label, index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn derivation_is_pure_and_label_sensitive() {
        assert_eq!(derive_seed(7, "iter", 3), derive_seed(7, "iter", 3));
        assert_ne!(derive_seed(7, "iter", 3), derive_seed(7, "iter", 4));
        assert_ne!(derive_seed(7, "iter", 3), derive_seed(7, "left", 3));
        assert_ne!(derive_seed(7, "iter", 3), derive_seed(8, "iter", 3));
    }

    #[test]
    fn derived_rngs_are_decoupled_from_draw_order() {
        let mut a = derive_rng(1, "x", 0);
        let first = a.next_u64();
        // Draining another stream cannot perturb a fresh derivation.
        let mut b = derive_rng(1, "y", 0);
        for _ in 0..100 {
            b.next_u64();
        }
        assert_eq!(derive_rng(1, "x", 0).next_u64(), first);
    }
}
