//! Golden bytes and streams for the durable layer: the WAL frame of
//! every tag, the torn-tail decode, and the fault-dice stream a seeded
//! `FaultPlan` drives through the public `TapeMachine` API. Journals,
//! `corpus/` replays and the fault experiments all depend on these
//! staying bit-identical.

use st_extmem::durable::{decode_frames, encode_frame, Frame, FrameTag};
use st_extmem::{FaultPlan, FaultStats, TapeMachine};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fold(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn every_frame_tag_encodes_to_the_golden_bytes() {
    let cases: [(FrameTag, &[u8]); 4] = [
        (FrameTag::Record, &[1, 2, 3]),
        (FrameTag::Commit, b"pass=1"),
        (FrameTag::Reset, &[]),
        (FrameTag::Record, &[]),
    ];
    let got: Vec<String> = cases
        .iter()
        .map(|&(tag, payload)| {
            let mut out = Vec::new();
            encode_frame(tag, payload, &mut out).unwrap();
            hex(&out)
        })
        .collect();
    assert_eq!(
        got,
        [
            "0103000000659c9d32010203",
            "0206000000a9ba8e85706173733d31",
            "0300000000cd8d8281",
            "0100000000adde42fb",
        ]
    );
}

#[test]
fn a_torn_tail_decodes_to_the_whole_frames_before_it() {
    let mut buf = Vec::new();
    encode_frame(FrameTag::Reset, &[], &mut buf).unwrap();
    encode_frame(FrameTag::Record, &[0xab; 5], &mut buf).unwrap();
    let whole = buf.len();
    encode_frame(FrameTag::Commit, b"pass=2", &mut buf).unwrap();
    let torn = &buf[..buf.len() - 1];
    let (frames, used) = decode_frames(torn);
    assert_eq!(used, whole);
    assert_eq!(
        frames,
        vec![
            Frame {
                tag: FrameTag::Reset,
                payload: Vec::new(),
            },
            Frame {
                tag: FrameTag::Record,
                payload: vec![0xab; 5],
            },
        ]
    );
    assert_eq!(
        hex(&buf[..whole]),
        "0300000000cd8d8281010500000047db9802ababababab"
    );
}

/// The counters of a `FaultStats`, in a fixed order.
fn stats_bytes(s: FaultStats) -> Vec<u8> {
    [
        s.reads,
        s.writes,
        s.bit_flips,
        s.transient_reads,
        s.stuck_writes,
        s.torn_writes,
    ]
    .iter()
    .flat_map(|v| v.to_le_bytes())
    .collect()
}

/// Drive 4 096 fault decisions per tape through a machine whose two
/// tapes carry `FaultPlan::uniform(seed, 0.3)`: 2 048 appends, then
/// 1 024 reads and 1 024 overwrites. Hash every counter change, every
/// value read and the final cells.
fn fault_stream_hash(seed: u64) -> u64 {
    let plan = FaultPlan::uniform(seed, 0.3);
    let mut m = TapeMachine::<u64>::new(0, st_trace::Tracer::disabled());
    let tapes = [m.add_tape("left"), m.add_tape("right")];
    for &t in &tapes {
        m.enable_faults(t, &plan);
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &t in &tapes {
        let tape = m.tape_mut(t);
        let step = |tape: &st_extmem::Tape<u64>, h: u64| {
            fold(h, &stats_bytes(tape.fault_stats().unwrap()))
        };
        for i in 0..2048u64 {
            tape.write_fwd(i.wrapping_mul(0x0123_4567_89ab_cdef))
                .unwrap();
            h = step(tape, h);
        }
        tape.rewind();
        for _ in 0..1024 {
            let v = tape.read_fwd().unwrap();
            h = fold(step(tape, h), &v.to_le_bytes());
        }
        for i in 0..1024u64 {
            tape.write_fwd(!i).unwrap();
            h = step(tape, h);
        }
        for v in tape.snapshot() {
            h = fold(h, &v.to_le_bytes());
        }
    }
    fold(h, &stats_bytes(m.fault_stats()))
}

#[test]
fn fault_plan_streams_match_the_golden_hashes() {
    let got: Vec<(u64, u64)> = [1, 7, 99]
        .into_iter()
        .map(|s| (s, fault_stream_hash(s)))
        .collect();
    assert_eq!(
        got,
        vec![
            (1, 0x97ab_b5f7_92ad_674c),
            (7, 0x7d9e_6ff4_d0dd_78ce),
            (99, 0x041b_e127_501c_d1e8),
        ]
    );
}
