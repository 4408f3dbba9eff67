//! The `soak` binary's `--no-timing` output is a diffable artifact: two
//! runs of one campaign print the same bytes, whatever `--jobs` is.

use std::process::Command;

fn soak_stdout(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_soak"))
        .args(args)
        .output()
        .expect("soak runs");
    assert!(
        out.status.success(),
        "soak {args:?} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn untimed_runs_print_byte_identical_stdout() {
    let first = soak_stdout(&["--iters", "24", "--seed", "5", "--jobs", "1", "--no-timing"]);
    let second = soak_stdout(&["--iters", "24", "--seed", "5", "--jobs", "2", "--no-timing"]);
    assert_eq!(
        String::from_utf8_lossy(&first),
        String::from_utf8_lossy(&second)
    );
    let text = String::from_utf8(first).expect("ASCII report");
    assert!(!text.contains("duration:"), "{text}");
    assert!(
        text.contains("REPRODUCED — 24 iteration(s), seed 5"),
        "{text}"
    );
}
