//! A garbage or out-of-range `DOL_INSTS` / `DOL_MIXES` / `DOL_JOBS` value
//! stops a figure binary with exit status 2 and an error naming the
//! variable and the value, before any simulation runs.

use std::process::Command;

const VARS: [&str; 4] = ["DOL_INSTS", "DOL_MIXES", "DOL_JOBS", "DOL_TRACE_DIR"];

/// Runs `table1` with only `var=value` of the `DOL_*` overrides set and
/// checks it is refused as a usage error.
fn assert_refused(var: &str, value: &str) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table1"));
    for v in VARS {
        cmd.env_remove(v);
    }
    let out = cmd.env(var, value).output().expect("table1 runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{var}={value}: stderr {stderr}");
    assert!(
        stderr.contains(&format!("invalid {var}=\"{value}\"")),
        "{var}={value}: stderr {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing is simulated or printed");
}

#[test]
fn garbage_dol_insts_exits_2() {
    assert_refused("DOL_INSTS", "40k");
    assert_refused("DOL_INSTS", "5000");
}

#[test]
fn garbage_dol_mixes_exits_2() {
    assert_refused("DOL_MIXES", "two");
    assert_refused("DOL_MIXES", "0");
}

#[test]
fn garbage_dol_jobs_exits_2() {
    assert_refused("DOL_JOBS", "-3");
    assert_refused("DOL_JOBS", "1000");
}
