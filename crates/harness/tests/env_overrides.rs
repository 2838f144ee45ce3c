//! A garbage or out-of-range `--insts` / `--mixes` / `--jobs` value, an
//! unknown figure id, or a budget flag beside `--smoke` stops `dol fig`
//! with exit status 2 and a one-line error, before any simulation runs.

use std::process::Command;

/// Runs `dol fig table1 args…` and checks it is refused as a usage error
/// whose one stderr line contains `needle`.
fn assert_refused(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_dol"))
        .args(["fig", "table1"])
        .args(args)
        .output()
        .expect("dol runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr}");
    assert!(stderr.contains(needle), "{args:?}: stderr {stderr}");
    assert!(out.stdout.is_empty(), "nothing is simulated or printed");
}

/// `dol fig table1 --<flag> <value>` is refused with an error naming the
/// flag and the value.
fn assert_bad_value(flag: &str, value: &str) {
    assert_refused(&[flag, value], &format!("invalid {flag} \"{value}\""));
}

#[test]
fn garbage_dol_insts_exits_2() {
    assert_bad_value("--insts", "40k");
    assert_bad_value("--insts", "5000");
}

#[test]
fn garbage_dol_mixes_exits_2() {
    assert_bad_value("--mixes", "two");
    assert_bad_value("--mixes", "0");
}

#[test]
fn garbage_dol_jobs_exits_2() {
    assert_bad_value("--jobs", "-3");
    assert_bad_value("--jobs", "1000");
}

#[test]
fn unknown_ids_and_smoke_budgets_exit_2() {
    assert_refused(&["fig99"], "unknown id `fig99`; ids: table1, table2, fig01");
    assert_refused(&["--smoke", "--insts", "20000"], "--smoke");
    assert_refused(&["--smoke", "--mixes", "2"], "--smoke");
}
