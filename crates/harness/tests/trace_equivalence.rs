//! The record→replay equivalence gate.
//!
//! A workload decoded from a `dol-trace` file must be
//! indistinguishable from a live capture: same instruction stream, same
//! memory image, same timing results — and therefore byte-identical
//! `dol all` output. A damaged file must stop a replay loudly, after
//! exactly the instructions of its intact frames. The heavy end-to-end
//! cases are ignored in debug builds (the simulator is ~20× slower
//! there); `cargo test --release` and the CI smoke step run them.

use std::io::Cursor;
use std::path::PathBuf;
use std::process::Command;

use dol_core::{NoPrefetcher, Tpc};
use dol_cpu::Workload;
use dol_harness::runner::single_core;
use dol_harness::{traces, RunPlan};
use dol_isa::SparseMemory;
use dol_mem::CollectSink;
use dol_trace::{encode_workload, ReplaySource, TraceError, TraceHeader, TraceReader};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Loading a recorded trace gives the same workload and the same timing
/// result as capturing live.
#[test]
fn replayed_workload_matches_live_capture() {
    let dir = tmp_dir("equivalence");
    let plan = RunPlan {
        insts: 15_000,
        ..RunPlan::smoke()
    };
    for name in ["stream_sum", "listchase", "hash_probe"] {
        let spec = dol_workloads::by_name(name).expect("known workload");
        traces::record(
            &spec,
            plan.insts,
            plan.seed,
            &traces::trace_path(&dir, name),
        )
        .unwrap();
        let replayed = traces::load_workload(&dir, name, &plan).unwrap();
        let live = Workload::capture(spec.build_vm(plan.seed), plan.insts).unwrap();
        assert_eq!(
            replayed.trace.as_slice(),
            live.trace.as_slice(),
            "{name}: instruction streams differ"
        );
        let sys = single_core();
        let a = sys.run(&live, &mut NoPrefetcher);
        let b = sys.run(&replayed, &mut NoPrefetcher);
        assert_eq!(a.cycles, b.cycles, "{name}: cycles differ under replay");
        assert_eq!(
            a.stats.dram.total_traffic_lines(),
            b.stats.dram.total_traffic_lines()
        );
    }
}

/// `dol all --smoke` stdout is byte-identical whether workloads are
/// captured live or replayed from recorded traces.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-heavy; run under --release")]
fn dol_all_output_is_byte_identical_under_replay() {
    let dir = tmp_dir("run-all-replay");
    let trace_dir = dir.join("traces");

    let record = Command::new(env!("CARGO_BIN_EXE_dol"))
        .args(["trace", "record", "--all", "--smoke", "--dir"])
        .arg(&trace_dir)
        .output()
        .expect("dol runs");
    assert!(
        record.status.success(),
        "record failed:\n{}",
        String::from_utf8_lossy(&record.stderr)
    );

    let verify = Command::new(env!("CARGO_BIN_EXE_dol"))
        .args(["trace", "verify"])
        .args(
            std::fs::read_dir(&trace_dir)
                .unwrap()
                .map(|e| e.unwrap().path()),
        )
        .output()
        .expect("dol runs");
    assert!(
        verify.status.success(),
        "verify failed:\n{}",
        String::from_utf8_lossy(&verify.stderr)
    );

    let live = Command::new(env!("CARGO_BIN_EXE_dol"))
        .args(["all", "--smoke", "--jobs", "0"])
        .output()
        .expect("dol runs");
    assert!(live.status.success());

    let replay = Command::new(env!("CARGO_BIN_EXE_dol"))
        .args(["all", "--smoke", "--jobs", "0", "--trace-dir"])
        .arg(&trace_dir)
        .output()
        .expect("dol runs");
    assert!(
        replay.status.success(),
        "replay failed:\n{}",
        String::from_utf8_lossy(&replay.stderr)
    );

    assert_eq!(
        String::from_utf8_lossy(&live.stdout),
        String::from_utf8_lossy(&replay.stdout),
        "replayed dol all output must be byte-identical to the live run"
    );
}

fn capture(app: &str, seed: u64, insts: u64) -> Workload {
    let spec = dol_workloads::by_name(app).expect("known workload");
    Workload::capture(spec.build_vm(seed), insts).expect("capture fits")
}

/// Encodes `w` as a `dol-trace` byte buffer.
fn encode(w: &Workload, app: &str, seed: u64) -> Vec<u8> {
    let header = TraceHeader {
        name: app.to_string(),
        seed,
        insts: w.trace.len() as u64,
    };
    let mut buf = Vec::new();
    encode_workload(&mut buf, &header, &w.memory, w.trace.as_slice()).expect("encode");
    buf
}

/// Opens `bytes` as a [`ReplaySource`] positioned at the instruction
/// stream, with the memory image it carries.
fn replay_source(bytes: Vec<u8>) -> (ReplaySource<Cursor<Vec<u8>>>, SparseMemory) {
    let mut reader = TraceReader::new(Cursor::new(bytes)).expect("header");
    let memory = reader.read_memory().expect("memory image");
    (ReplaySource::new(reader), memory)
}

/// A round-tripped trace streamed through the timing model under TPC
/// reproduces the in-memory run exactly: counters, memory statistics,
/// and every metric event in order. The budgets span several
/// instruction frames, so frame boundaries are crossed mid-run.
#[test]
fn replay_source_matches_in_memory_run_under_tpc() {
    let sys = single_core();
    for app in ["stream_sum", "listchase", "region_shuffle", "stride8_walk"] {
        for (seed, insts) in [(7, 30_000), (2018, 21_111)] {
            let w = capture(app, seed, insts);
            let mut live_sink = CollectSink::new();
            let live = sys.run_with_sink(&w, &mut Tpc::full(), &mut live_sink);

            let (source, memory) = replay_source(encode(&w, app, seed));
            let mut replay_sink = CollectSink::new();
            let (replayed, source) =
                sys.run_source_with_sink(source, &memory, &mut Tpc::full(), &mut replay_sink);
            assert!(source.error().is_none(), "{app}: {:?}", source.error());

            let what = format!("{app} seed {seed}");
            assert_eq!(live.instructions, w.trace.len() as u64, "{what}");
            assert_eq!(
                (live.cycles, live.instructions),
                (replayed.cycles, replayed.instructions),
                "{what}: cycles/instructions"
            );
            assert_eq!(live.stalls, replayed.stalls, "{what}: stall buckets");
            assert_eq!(
                live.mispredicts, replayed.mispredicts,
                "{what}: mispredicts"
            );
            assert_eq!(live.stats, replayed.stats, "{what}: memory stats");
            assert_eq!(
                live_sink.into_events(),
                replay_sink.into_events(),
                "{what}: event stream"
            );
        }
    }
}

/// Byte range of every frame payload in a `dol-trace` buffer, with
/// its tag: `tag u8 | len u32 LE | crc u32 LE | payload` after the
/// 12-byte magic and version.
fn frames(bytes: &[u8]) -> Vec<(u8, std::ops::Range<usize>)> {
    let mut out = Vec::new();
    let mut at = 12;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize;
        out.push((bytes[at], at + 9..at + 9 + len));
        at += 9 + len;
    }
    out
}

/// One flipped byte in the second instruction frame: the run retires
/// exactly the first frame's instructions, the source reports the bad
/// checksum, and `dol trace run` refuses the file.
#[test]
fn corrupt_second_frame_stops_replay_after_the_first() {
    let app = "stream_sum";
    let seed = 2018;
    let w = capture(app, seed, 40_000);
    let mut bytes = encode(&w, app, seed);
    let insts: Vec<_> = frames(&bytes)
        .into_iter()
        .filter(|(tag, _)| *tag == b'I')
        .map(|(_, payload)| payload)
        .collect();
    assert!(insts.len() >= 3, "needs several instruction frames");
    let first = &bytes[insts[0].clone()];
    let first_count = u32::from_le_bytes(first[..4].try_into().unwrap()) as u64;
    let second = insts[1].clone();
    bytes[second.start + second.len() / 2] ^= 0x5a;

    let (source, memory) = replay_source(bytes.clone());
    let (result, source) = single_core().run_source(source, &memory, &mut Tpc::full());
    assert_eq!(result.instructions, first_count);
    assert!(
        matches!(
            source.error(),
            Some(TraceError::ChecksumMismatch { frame: "insts", .. })
        ),
        "got {:?}",
        source.error()
    );

    let path = tmp_dir("corrupt-frame").join("stream_sum.dolt");
    std::fs::write(&path, &bytes).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dol"))
        .args(["trace", "run", "--prefetcher", "TPC", "--trace"])
        .arg(&path)
        .output()
        .expect("dol runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("replay stopped early"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no report is printed");
}
