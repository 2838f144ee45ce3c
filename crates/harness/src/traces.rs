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
use dol_trace::{decode_workload, encode_workload, TraceError, TraceHeader};
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
    let path = trace_path(trace_dir, name);
    // Plain file reads: the bulk decode reads whole frames straight into
    // their payload buffer.
    let file = File::open(&path)?;
    let (header, memory, trace) = decode_workload(file)?;
    if header.name != name {
        return Err(TraceError::Corrupt(format!(
            "{} holds workload {:?}, expected {:?}",
            path.display(),
            header.name,
            name
        )));
    }
    if header.seed != plan.seed {
        return Err(TraceError::Corrupt(format!(
            "{} was recorded with seed {}, plan wants {}",
            path.display(),
            header.seed,
            plan.seed
        )));
    }
    Ok(Workload { trace, memory })
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
}
