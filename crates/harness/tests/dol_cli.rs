//! Budgets the `dol` CLI cannot honour, and flags a subcommand does not
//! read, stop it with exit status 2 and a one-line error naming the flag,
//! before anything is simulated, printed on stdout or written to disk.

use std::process::{Command, Output};

fn dol(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dol"))
        .args(args)
        .output()
        .expect("dol runs")
}

/// Runs `dol args…` and checks it is refused as a usage error whose
/// stderr mentions `needle`.
fn assert_refused(args: &[&str], needle: &str) {
    let out = dol(args);
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
        assert_refused(&[cmd, &zero].concat(), "invalid --insts \"0\"");
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

#[test]
fn flags_a_subcommand_does_not_read_exit_2() {
    let dir = std::env::temp_dir().join(format!("dol-cli-unread-{}", std::process::id()));
    let dir = dir.to_str().expect("UTF-8 temp dir");
    let run = ["run", "--workload", "stream_sum", "--prefetcher", "TPC"];
    assert_refused(
        &[&run[..], &["--insts", "20000", "--smoke"]].concat(),
        "--smoke",
    );
    assert_refused(&[&run[..], &["--all"]].concat(), "--all");
    assert_refused(&[&run[..], &["--dir", dir]].concat(), "--dir");
    assert_refused(&["compare", "--prefetcher", "TPC"], "--prefetcher");
    assert_refused(
        &["compare", "--workload", "stream_sum", "--trace", "foo"],
        "--trace",
    );
    let replay = ["trace", "run", "--trace", "foo.dolt", "--prefetcher", "TPC"];
    assert_refused(&[&replay[..], &["--insts", "20000"]].concat(), "--insts");
    assert_refused(&[&replay[..], &["--seed", "1"]].concat(), "--seed");
    for cmd in [&["fig", "table1"][..], &["all"]] {
        for flag in ["--seed", "--workload", "--prefetcher"] {
            assert_refused(&[cmd, &[flag, "x"]].concat(), flag);
        }
    }
    assert_refused(&["list", "extra"], "extra");
    assert!(!std::path::Path::new(dir).exists(), "nothing is recorded");
}

#[test]
fn fig_renders_its_ids_in_the_order_given() {
    let render = |ids: &[&str]| {
        let out = dol(&[&["fig"][..], ids, &["--smoke"]].concat());
        assert!(out.status.success(), "dol fig {ids:?} failed");
        out.stdout
    };
    let (a, b) = (render(&["table2"]), render(&["table1"]));
    assert!(
        a.starts_with(b"== table2 "),
        "{}",
        String::from_utf8_lossy(&a)
    );
    assert_eq!(render(&["table2", "table1"]), [a, b].concat());
}
