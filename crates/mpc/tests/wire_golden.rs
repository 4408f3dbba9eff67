//! Golden bytes for the exchange wire: record envelopes encode to
//! exactly the bytes the per-bit text codec produced, so journals and
//! `bytes_on_wire` stay comparable across the byte-level rewrite; and a
//! record holding any byte other than `0`/`1` decodes to a typed
//! `bad record` error.

use st_extmem::durable::crc32;
use st_mpc::wire::{Envelope, Payload};
use st_problems::BitStr;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn records(from: u32, to: u32, tape: u8, records: Vec<BitStr>) -> Envelope {
    Envelope {
        from,
        to,
        payload: Payload::Records { tape, records },
    }
}

fn bs(s: &str) -> BitStr {
    BitStr::parse(s).unwrap()
}

#[test]
fn small_envelopes_encode_to_the_golden_bytes() {
    let cases = [
        (
            records(
                2,
                5,
                0,
                ["", "0", "1", "0110", "1111000011110000"]
                    .iter()
                    .map(|s| bs(s))
                    .collect(),
            ),
            "02000000050000000200050000000000000001000000300100000031040000003031313010000000\
             31313131303030303131313130303030",
        ),
        (records(7, 0, 1, Vec::new()), "0700000000000000020100000000"),
        (
            Envelope {
                from: 3,
                to: 0,
                payload: Payload::Count(0x0102_0304_0506_0708),
            },
            "0300000000000000030807060504030201",
        ),
        (
            Envelope {
                from: 0,
                to: 0,
                payload: Payload::Count(0),
            },
            "0000000000000000030000000000000000",
        ),
    ];
    for (env, golden) in cases {
        let body = env.encode().unwrap();
        assert_eq!(hex(&body), golden, "{env:?}");
        assert_eq!(Envelope::decode(&body).unwrap(), env);
    }
}

#[test]
fn a_ragged_shard_encodes_to_the_golden_length_and_checksum() {
    // 64 prefixes (lengths 0–20) of 20-bit values.
    let values = (0..64u64)
        .map(|i| {
            let v = BitStr::from_value(u128::from(i * 2_654_435_761 % (1 << 20)), 20).unwrap();
            v.slice(0, (i % 21) as usize)
        })
        .collect();
    let env = records(1, 6, 1, values);
    let body = env.encode().unwrap();
    assert_eq!(body.len(), 900);
    assert_eq!(crc32(&body), 0x730a_6253);
    assert_eq!(env.wire_len().unwrap(), 904);
    assert_eq!(Envelope::decode(&body).unwrap(), env);
}

/// A one-record `Records` body whose record bytes are `data`.
fn body_with_record(data: &[u8]) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&0u32.to_le_bytes()); // from
    body.extend_from_slice(&1u32.to_le_bytes()); // to
    body.push(2); // Records
    body.push(0); // tape
    body.extend_from_slice(&1u32.to_le_bytes()); // one record
    body.extend_from_slice(&(data.len() as u32).to_le_bytes());
    body.extend_from_slice(data);
    body
}

#[test]
fn records_with_non_bit_bytes_are_typed_errors() {
    for (data, named) in [
        (&b"0120"[..], "'2'"),
        (&b"01\xff"[..], "byte 0xff"),
        // U+3000 torn after two of its three bytes.
        (&b"0\xe3\x80"[..], "byte 0xe3"),
        (&b"\xc3"[..], "byte 0xc3"),
        ("0é".as_bytes(), "'é'"),
    ] {
        let err = Envelope::decode(&body_with_record(data)).unwrap_err();
        assert_eq!(
            err,
            format!("bad record: invalid instance: bitstring contains {named}, expected 0/1"),
            "{data:?}"
        );
    }
    // The same body with bit bytes decodes.
    let ok = Envelope::decode(&body_with_record(b"0110")).unwrap();
    assert_eq!(ok, records(0, 1, 0, vec![bs("0110")]));
}
