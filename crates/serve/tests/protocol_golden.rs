//! Golden bytes for the serve protocol: one request and one response
//! carrying a signed bill encode to pinned bytes, and the bill's MAC
//! is pinned on its own. Transcripts, `corpus/` serve replays and the
//! perfbench client depend on these staying bit-identical.

use st_core::{BillingKey, ResourceBill};
use st_serve::{Request, Response};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn bill() -> ResourceBill {
    ResourceBill {
        tenant: "alice".into(),
        session: 7,
        decider: "sort-multiset".into(),
        input_len: 64,
        reversals: 44,
        internal_bits: 6,
        external_cells: 24,
        accepted: Some(true),
    }
}

#[test]
fn billing_key_signs_the_golden_mac() {
    assert_eq!(
        BillingKey::new(0xfeed).sign(bill()).mac,
        0x1a5e_f726_f05b_c40d
    );
}

#[test]
fn a_request_and_a_response_encode_to_the_golden_bytes() {
    let req = Request::Open {
        session: 3,
        tenant: "bob".into(),
        decider: "fingerprint".into(),
        m: 8,
        n: 4,
    };
    let body = req.encode().unwrap();
    assert_eq!(
        hex(&body),
        "01030000000000000003000000626f620b00000066696e6765727072696e74\
         08000000000000000400000000000000"
    );
    assert_eq!(Request::decode(&body).unwrap(), req);

    let resp = Response::Done {
        session: 7,
        accepted: true,
        bill: BillingKey::new(0xfeed).sign(bill()),
    };
    let body = resp.encode().unwrap();
    assert_eq!(
        hex(&body),
        "4507000000000000000105000000616c69636507000000000000000d00000073\
         6f72742d6d756c746973657440000000000000002c0000000000000006000000\
         000000001800000000000000010dc45bf026f75e1a"
    );
    assert_eq!(Response::decode(&body).unwrap(), resp);
}
