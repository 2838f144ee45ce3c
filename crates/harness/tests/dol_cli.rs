//! Budgets the `dol` CLI cannot honour stop it with exit status 2 and a
//! one-line error naming the flag, before anything is simulated, printed
//! on stdout or written to disk.

use std::process::Command;

/// Runs `dol args…` and checks it is refused as a usage error whose
/// stderr mentions `needle`.
fn assert_refused(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_dol"))
        .args(args)
        .output()
        .expect("dol runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr}");
    assert!(stderr.contains(needle), "{args:?}: stderr {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing is printed");
}

#[test]
fn zero_and_smoke_overridden_budgets_exit_2() {
    let dir = std::env::temp_dir().join(format!("dol-cli-refused-{}", std::process::id()));
    let dir = dir.to_str().expect("UTF-8 temp dir");
    let zero = ["--workload", "stream_sum", "--insts", "0"];
    for cmd in [
        &["run", "--prefetcher", "TPC"][..],
        &["compare"],
        &["trace", "record", "--dir", dir],
    ] {
        assert_refused(&[cmd, &zero].concat(), "--insts 0");
    }
    let smoke = [
        "--workload",
        "stream_sum",
        "--dir",
        dir,
        "--smoke",
        "--insts",
        "5000",
    ];
    assert_refused(&[&["trace", "record"][..], &smoke].concat(), "--smoke");
    assert!(!std::path::Path::new(dir).exists(), "nothing is recorded");
}
