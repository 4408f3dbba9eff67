//! Golden bytes and dice for the exchange's network layer: the sealed
//! net frame `[seq][crc32][body]`, and the fault decisions and byte
//! flips a seeded `NetFaultPlan` storm makes. `bytes_on_wire`, the
//! retry counters and the e26/e27 rows depend on both.

use st_mpc::wire::{open_net, seal_net};
use st_mpc::NetFaultPlan;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn seal_net_encodes_to_the_golden_bytes_and_rejects_every_flip() {
    let sealed = seal_net(7, b"abc");
    assert_eq!(hex(&sealed), "070000002079ae92616263");
    assert_eq!(open_net(&sealed).unwrap(), (7, &b"abc"[..]));
    for i in 0..sealed.len() {
        for mask in 1..=255u8 {
            let mut bad = sealed.clone();
            bad[i] ^= mask;
            assert!(open_net(&bad).is_err(), "byte {i} xor {mask:#04x}");
        }
    }
}

#[test]
fn a_storm_plan_rolls_the_golden_census_and_corruptions() {
    let plan = NetFaultPlan::new(2026)
        .with_drop(0.3)
        .with_duplicate(0.2)
        .with_reorder(0.25)
        .with_corrupt(0.4)
        .with_delay(0.15);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |b: u8| h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    for round in 0..4 {
        for from in 0..3 {
            for to in 0..3 {
                for seq in 0..16 {
                    for attempt in 0..4 {
                        for kind in plan.census(round, from, to, seq, attempt) {
                            fold(kind as u8);
                        }
                        fold(0xff);
                        let mut frame: Vec<u8> = (0..32).collect();
                        plan.corrupt_frame(&mut frame, round, from, to, seq, attempt)
                            .unwrap();
                        frame.iter().for_each(|&b| fold(b));
                    }
                }
            }
        }
    }
    assert_eq!(h, 0xe1ca_13fd_a152_5e8e);
}
