//! Recording workloads to `dol-trace` files and loading them back.
//!
//! `record`/`record_all` capture a workload with the functional VM and
//! encode it to `<dir>/<name>.dolt`; [`load_workload`] decodes such a
//! file into the same [`Workload`] a live capture would produce —
//! bit-identical, so every downstream report is byte-identical whether a
//! run was live or replayed.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

use dol_cpu::Workload;
use dol_trace::{decode_workload, encode_workload, TraceError, TraceHeader, TraceReader};
use dol_workloads::Spec;

use crate::plan::RunPlan;
use crate::sweep;

/// The canonical file name for a workload's trace: `<dir>/<name>.dolt`.
pub fn trace_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.dolt"))
}

/// Captures `spec` with the functional VM and encodes it to `path`.
/// Returns the encoded size in bytes.
pub fn record(spec: &Spec, insts: u64, seed: u64, path: &Path) -> Result<u64, TraceError> {
    let workload = Workload::capture(spec.build_vm(seed), insts)
        .map_err(|e| TraceError::Corrupt(format!("workload {} failed: {e}", spec.name)))?;
    let header = TraceHeader {
        name: spec.name.to_string(),
        seed,
        insts: workload.trace.len() as u64,
    };
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let file = BufWriter::new(File::create(path)?);
    encode_workload(file, &header, &workload.memory, workload.trace.as_slice())
}

/// Records every workload to `<dir>/<name>.dolt` at the plan's budget
/// and seed, sharded across the plan's worker threads. All workloads
/// are recorded regardless of the plan's suite cap: figure drivers
/// reference specific workloads by name (beyond the capped prefix), so
/// a replay directory must be complete to serve any driver. Returns
/// `(name, bytes)` per recorded file, in suite order.
pub fn record_all(plan: &RunPlan, dir: &Path) -> Result<Vec<(String, u64)>, TraceError> {
    let specs = dol_workloads::all_workloads();
    let results = sweep::map(plan.jobs, &specs, |spec| {
        record(spec, plan.insts, plan.seed, &trace_path(dir, spec.name))
            .map(|bytes| (spec.name.to_string(), bytes))
    });
    results.into_iter().collect()
}

/// Decodes `<trace_dir>/<name>.dolt` into a [`Workload`], validating the
/// header against the plan.
pub fn load_workload(trace_dir: &Path, name: &str, plan: &RunPlan) -> Result<Workload, TraceError> {
    // Plain file reads: the bulk decode reads whole frames straight into
    // their payload buffer.
    let (header, memory, trace) = decode_workload(File::open(trace_path(trace_dir, name))?)?;
    check_header(&header, name, plan)?;
    Ok(Workload { trace, memory })
}

/// Reads only the header of `<trace_dir>/<name>.dolt` and checks it
/// against the plan, as [`load_workload`] does, without decoding the
/// body.
pub fn check_trace(trace_dir: &Path, name: &str, plan: &RunPlan) -> Result<(), TraceError> {
    let reader = TraceReader::new(File::open(trace_path(trace_dir, name))?)?;
    check_header(reader.header(), name, plan)
}

/// Refuses a header recorded for another workload, seed or budget than
/// `name` under `plan`.
fn check_header(header: &TraceHeader, name: &str, plan: &RunPlan) -> Result<(), TraceError> {
    let mismatch = if header.name != name {
        format!("holds workload {:?}, expected {name:?}", header.name)
    } else if header.seed != plan.seed {
        format!(
            "recorded with seed {}, plan wants {}",
            header.seed, plan.seed
        )
    } else if header.insts != plan.insts {
        format!(
            "recorded with {} instructions, plan wants {}",
            header.insts, plan.insts
        )
    } else {
        return Ok(());
    };
    Err(TraceError::Corrupt(mismatch))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        // CARGO_TARGET_TMPDIR only exists for integration tests; unit
        // tests park scratch files under the workspace target dir.
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"))
            .join(format!("traces-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn record_then_load_round_trips() {
        let dir = tmp_dir("roundtrip");
        let plan = RunPlan {
            insts: 20_000,
            ..RunPlan::smoke()
        };
        let spec = dol_workloads::by_name("stream_sum").unwrap();
        let bytes = record(&spec, plan.insts, plan.seed, &trace_path(&dir, spec.name)).unwrap();
        assert!(bytes > 0);
        let replayed = load_workload(&dir, spec.name, &plan).unwrap();
        let live = Workload::capture(spec.build_vm(plan.seed), plan.insts).unwrap();
        assert_eq!(replayed.trace.as_slice(), live.trace.as_slice());
    }

    #[test]
    fn load_rejects_a_seed_mismatch() {
        let dir = tmp_dir("seed");
        let plan = RunPlan {
            insts: 5_000,
            ..RunPlan::smoke()
        };
        let spec = dol_workloads::by_name("stream_sum").unwrap();
        record(&spec, plan.insts, plan.seed, &trace_path(&dir, spec.name)).unwrap();
        let wrong = RunPlan {
            seed: plan.seed + 1,
            ..plan
        };
        assert!(matches!(
            load_workload(&dir, spec.name, &wrong),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn load_rejects_a_budget_mismatch() {
        let dir = tmp_dir("budget");
        let plan = RunPlan {
            insts: 5_000,
            ..RunPlan::smoke()
        };
        let spec = dol_workloads::by_name("stream_sum").unwrap();
        record(&spec, plan.insts, plan.seed, &trace_path(&dir, spec.name)).unwrap();
        let wrong = RunPlan {
            insts: plan.insts * 2,
            ..plan
        };
        match load_workload(&dir, spec.name, &wrong) {
            Err(TraceError::Corrupt(msg)) => {
                assert!(msg.contains("5000 instructions"), "{msg}")
            }
            other => panic!("expected a budget mismatch, got {:?}", other.map(|_| ())),
        }
    }
}
