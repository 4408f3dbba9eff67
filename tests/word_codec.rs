//! The byte-level word codec at the root: corpus words survive
//! `Instance::parse`/`encode` byte for byte, and the Theorem 8(a)
//! decider — which reads the instance through `tape_encoding` — returns
//! the residues and `ResourceUsage` pinned from the per-bit text codec
//! it replaced.

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_algo::fingerprint::{decide_multiset_equality, tape_encoding};
use st_core::{ResourceUsage, StError};
use st_problems::{generate, Instance};
use std::path::Path;

#[test]
fn corpus_instance_words_round_trip_byte_identically() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut words = 0;
    for entry in std::fs::read_dir(&dir).expect("corpus/ exists") {
        let path = entry.expect("readable corpus entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("repro") {
            continue;
        }
        let repro = st_conformance::corpus::read_repro(&path).expect("corpus file parses");
        match Instance::parse(&repro.word) {
            Ok(inst) => {
                assert_eq!(inst.encode(), repro.word, "{}", path.display());
                assert_eq!(inst.encode_bytes(), repro.word.as_bytes());
                assert_eq!(
                    Instance::parse_bytes(repro.word.as_bytes()).as_ref(),
                    Ok(&inst)
                );
                words += 1;
            }
            // The parser-totality fixture holds query junk, not an
            // instance word; it must stay a typed error.
            Err(e) => assert!(
                matches!(e, StError::InvalidInstance(_)),
                "{}: {e:?}",
                path.display()
            ),
        }
    }
    assert!(words >= 13, "only {words} corpus instance words");
}

/// FNV-1a over the encoded word.
fn digest(word: &[u8]) -> u64 {
    word.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn fingerprint_runs_match_the_pinned_residues_and_usage() {
    let usage = ResourceUsage {
        input_len: 3200,
        reversals_per_tape: vec![1],
        external_tapes: 1,
        internal_space: 246,
        steps: 6400,
        external_cells: 3200,
    };
    let yes = generate::yes_multiset(64, 24, &mut StdRng::seed_from_u64(11));
    let no = generate::no_multiset_one_bit(64, 24, &mut StdRng::seed_from_u64(12));
    for (inst, seed, fnv, accepted, residues) in [
        (
            &yes,
            21,
            0xfb7c_7c66_9c2e_d7e7,
            true,
            (399_133_389, 399_133_389),
        ),
        (
            &no,
            22,
            0x7557_081d_7708_a194,
            false,
            (427_893_625, 268_023_905),
        ),
    ] {
        let word = tape_encoding(inst);
        assert_eq!(word, inst.encode().into_bytes());
        assert_eq!((word.len(), digest(&word)), (3200, fnv));
        let run = decide_multiset_equality(inst, &mut StdRng::seed_from_u64(seed)).unwrap();
        assert_eq!(run.accepted, accepted);
        assert_eq!(run.residues, residues);
        assert_eq!(run.usage, usage);
    }
}
