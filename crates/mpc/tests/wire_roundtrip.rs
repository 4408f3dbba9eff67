//! Property battery for the exchange wire: every encodable envelope
//! round-trips bit-exactly through the length-framed codec, and every
//! envelope body truncated at *any* byte errors instead of panicking.
//! The payload-agnostic frame cases (torn frames, empty and multi-byte
//! bodies, order, caps) are tested once, in `st_core::frame`.

use proptest::prelude::*;
use st_mpc::wire::{read_frame, write_frame, Envelope, Payload};
use st_problems::BitStr;

fn to_bs(bits: &[u8]) -> BitStr {
    BitStr::parse(
        &bits
            .iter()
            .map(|b| char::from(b'0' + b))
            .collect::<String>(),
    )
    .unwrap()
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(sum_first, sum_second)| Payload::Residues {
            sum_first,
            sum_second
        }),
        (
            0u8..2,
            proptest::collection::vec(proptest::collection::vec(0u8..2, 0..=12), 0..=8)
        )
            .prop_map(|(tape, raw)| Payload::Records {
                tape,
                records: raw.iter().map(|bits| to_bs(bits)).collect(),
            }),
        any::<u64>().prop_map(Payload::Count),
    ]
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (0u32..64, 0u32..64, arb_payload()).prop_map(|(from, to, payload)| Envelope {
        from,
        to,
        payload,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn envelope_round_trips_through_a_frame(env in arb_envelope()) {
        let body = env.encode().unwrap();
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        prop_assert_eq!(wire.len() as u64, env.wire_len().unwrap());

        let mut cursor = wire.as_slice();
        let read = read_frame(&mut cursor).unwrap().expect("one frame present");
        prop_assert!(cursor.is_empty(), "frame consumed exactly");
        let decoded = Envelope::decode(&read).unwrap();
        prop_assert_eq!(decoded, env);
    }

    #[test]
    fn truncated_bodies_error_never_panic(env in arb_envelope(), cut_sel in 0usize..1 << 20) {
        // Every envelope body is non-empty (8 bytes of routing + 1 tag),
        // so a strict prefix always exists.
        let body = env.encode().unwrap();
        let cut = cut_sel % body.len();
        prop_assert!(Envelope::decode(&body[..cut]).is_err(), "cut at {cut}");
    }
}
