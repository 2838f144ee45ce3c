//! Run plans: instruction budgets, seeds and parallelism.

use std::fmt::Debug;
use std::ops::RangeBounds;
use std::path::PathBuf;
use std::str::FromStr;

/// A `DOL_*` environment override whose value is not a number, or is a
/// number outside the range the variable accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The variable's name.
    pub var: &'static str,
    /// Its value as set.
    pub value: String,
    /// The accepted range (for example `1..=64`) when the value is a
    /// number outside it; `None` when it is not a number at all.
    pub range: Option<String>,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid {}={:?}: expected ", self.var, self.value)?;
        match &self.range {
            Some(range) => write!(f, "an integer in {range}"),
            None => write!(f, "a non-negative integer"),
        }
    }
}

impl std::error::Error for EnvError {}

impl EnvError {
    /// Reports the error on stderr and exits with status 2, the status
    /// of a usage error.
    pub fn exit(&self) -> ! {
        eprintln!("{self}");
        std::process::exit(2)
    }
}

/// Reads `var` from the process environment. A value that is not
/// Unicode is passed on lossily, so it fails to parse rather than
/// reading as unset.
fn process_env(var: &str) -> Option<String> {
    std::env::var_os(var).map(|v| v.to_string_lossy().into_owned())
}

/// Parses the numeric override `var` as `lookup` reads it: `Ok(None)`
/// when it is unset or empty, an [`EnvError`] when it does not parse or
/// falls outside `accepted`.
fn parse_override<T: FromStr + PartialOrd>(
    lookup: &impl Fn(&str) -> Option<String>,
    var: &'static str,
    accepted: impl RangeBounds<T> + Debug,
) -> Result<Option<T>, EnvError> {
    let Some(value) = lookup(var).filter(|v| !v.is_empty()) else {
        return Ok(None);
    };
    let range = match value.parse() {
        Ok(n) if accepted.contains(&n) => return Ok(Some(n)),
        Ok(_) => Some(format!("{accepted:?}")),
        Err(_) => None,
    };
    Err(EnvError { var, value, range })
}

/// How much to simulate, and with how many workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunPlan {
    /// Instructions simulated per workload (per core in multicore runs).
    pub insts: u64,
    /// Seed for workload data layout and mix drawing.
    pub seed: u64,
    /// Number of 4-core mixes for the multicore experiments.
    pub mix_count: usize,
    /// Worker threads for the per-workload sweep (`0` = one per
    /// available core, `1` = serial). Results are identical for any
    /// value — see [`crate::sweep`].
    pub jobs: usize,
    /// Cap on workloads taken from each suite (smoke mode); `None`
    /// runs every workload.
    pub max_workloads: Option<usize>,
    /// When set, workload captures are decoded from `dol-trace-v1` files
    /// in this directory (`<dir>/<name>.dolt`) instead of re-running the
    /// functional VM. Replayed captures are bit-identical to live ones.
    pub trace_dir: Option<PathBuf>,
}

impl RunPlan {
    /// The full plan: 1 M instructions per workload, 8 mixes.
    pub fn full() -> Self {
        RunPlan {
            insts: 1_000_000,
            seed: 2018,
            mix_count: 8,
            jobs: 1,
            max_workloads: None,
            trace_dir: None,
        }
    }

    /// A reduced plan for unit and smoke tests.
    pub fn quick() -> Self {
        RunPlan {
            insts: 120_000,
            seed: 2018,
            mix_count: 2,
            ..RunPlan::full()
        }
    }

    /// The CI smoke plan: a tiny budget over the first few workloads of
    /// each suite, one mix. Finishes in seconds; exercises every
    /// experiment end to end.
    pub fn smoke() -> Self {
        RunPlan {
            insts: 40_000,
            seed: 2018,
            mix_count: 1,
            jobs: 1,
            max_workloads: Some(3),
            trace_dir: None,
        }
    }

    /// The full plan with `DOL_INSTS` / `DOL_MIXES` / `DOL_JOBS` /
    /// `DOL_TRACE_DIR` environment overrides. A numeric override that is
    /// set but does not parse, or falls outside its range (`DOL_INSTS`
    /// at least 10000, `DOL_MIXES` 1 to 64, `DOL_JOBS` 0 to 256), is an
    /// error, never silently ignored or clamped.
    pub fn from_env() -> Result<Self, EnvError> {
        Self::from_vars(process_env)
    }

    /// The plan of a binary that takes no arguments: [`from_env`](Self::from_env),
    /// after refusing any command-line argument with a usage line on
    /// stderr and exit status 2. An invalid override exits as
    /// [`EnvError::exit`] does.
    pub fn from_env_no_args() -> Self {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        if argv.next().is_some() {
            let name = std::path::Path::new(&bin).file_name().unwrap_or_default();
            eprintln!(
                "usage: {} (no arguments; budget from DOL_INSTS / DOL_MIXES / DOL_JOBS / \
                 DOL_TRACE_DIR)",
                name.to_string_lossy()
            );
            std::process::exit(2);
        }
        Self::from_env().unwrap_or_else(|e| e.exit())
    }

    /// [`from_env`](Self::from_env) over the variables `lookup` returns.
    pub(crate) fn from_vars(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, EnvError> {
        let mut plan = RunPlan::full();
        if let Some(n) = parse_override(&lookup, "DOL_INSTS", 10_000..)? {
            plan.insts = n;
        }
        if let Some(n) = parse_override(&lookup, "DOL_MIXES", 1..=64)? {
            plan.mix_count = n;
        }
        if let Some(n) = parse_override(&lookup, "DOL_JOBS", 0..=256)? {
            plan.jobs = n;
        }
        if let Some(v) = lookup("DOL_TRACE_DIR") {
            if !v.is_empty() {
                plan.trace_dir = Some(PathBuf::from(v));
            }
        }
        Ok(plan)
    }

    /// Applies the plan's workload cap (smoke mode) to a suite.
    pub fn cap_suite<T>(&self, mut suite: Vec<T>) -> Vec<T> {
        if let Some(n) = self.max_workloads {
            suite.truncate(n);
        }
        suite
    }
}

impl Default for RunPlan {
    fn default() -> Self {
        RunPlan::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_full() {
        assert!(RunPlan::quick().insts < RunPlan::full().insts);
        assert!(RunPlan::quick().mix_count <= RunPlan::full().mix_count);
    }

    #[test]
    fn smoke_is_smallest_and_capped() {
        let s = RunPlan::smoke();
        assert!(s.insts <= RunPlan::quick().insts);
        assert_eq!(s.mix_count, 1);
        assert!(s.max_workloads.unwrap() <= 3);
    }

    /// `from_vars` over a fixed set of variables.
    fn plan_with(vars: &[(&str, &str)]) -> Result<RunPlan, EnvError> {
        RunPlan::from_vars(|k| {
            vars.iter()
                .find(|(name, _)| *name == k)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn overrides_apply_and_empty_means_unset() {
        let plan = plan_with(&[
            ("DOL_INSTS", "50000"),
            ("DOL_MIXES", "3"),
            ("DOL_JOBS", "2"),
        ])
        .unwrap();
        assert_eq!((plan.insts, plan.mix_count, plan.jobs), (50_000, 3, 2));
        // The ends of every accepted range apply unchanged.
        let low = plan_with(&[
            ("DOL_INSTS", "10000"),
            ("DOL_MIXES", "1"),
            ("DOL_JOBS", "0"),
        ])
        .unwrap();
        assert_eq!((low.insts, low.mix_count, low.jobs), (10_000, 1, 0));
        let high = plan_with(&[("DOL_MIXES", "64"), ("DOL_JOBS", "256")]).unwrap();
        assert_eq!((high.mix_count, high.jobs), (64, 256));
        let empty = plan_with(&[("DOL_INSTS", ""), ("DOL_MIXES", ""), ("DOL_JOBS", "")]);
        assert_eq!(empty, Ok(RunPlan::full()));
    }

    #[test]
    fn garbage_dol_insts_is_an_error() {
        let err = plan_with(&[("DOL_INSTS", "40k")]).unwrap_err();
        assert_eq!(
            err,
            EnvError {
                var: "DOL_INSTS",
                value: "40k".into(),
                range: None,
            }
        );
        assert_eq!(
            err.to_string(),
            "invalid DOL_INSTS=\"40k\": expected a non-negative integer"
        );
        // Below the smallest budget is refused, not raised to it.
        let err = plan_with(&[("DOL_INSTS", "5000")]).unwrap_err();
        assert_eq!(err.range.as_deref(), Some("10000.."));
        assert_eq!(
            err.to_string(),
            "invalid DOL_INSTS=\"5000\": expected an integer in 10000.."
        );
    }

    #[test]
    fn garbage_dol_mixes_is_an_error() {
        let err = plan_with(&[("DOL_INSTS", "50000"), ("DOL_MIXES", "-1")]).unwrap_err();
        assert_eq!((err.var, err.value.as_str()), ("DOL_MIXES", "-1"));
        // Out of range is refused, not clamped.
        for value in ["0", "65"] {
            let err = plan_with(&[("DOL_MIXES", value)]).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("invalid DOL_MIXES=\"{value}\": expected an integer in 1..=64")
            );
        }
    }

    #[test]
    fn garbage_dol_jobs_is_an_error() {
        let err = plan_with(&[("DOL_JOBS", "four")]).unwrap_err();
        assert_eq!((err.var, err.value.as_str()), ("DOL_JOBS", "four"));
        // Out of range is refused, not capped.
        let err = plan_with(&[("DOL_JOBS", "1000")]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid DOL_JOBS=\"1000\": expected an integer in 0..=256"
        );
    }

    #[test]
    fn cap_suite_truncates_only_when_capped() {
        let full = RunPlan::full();
        assert_eq!(full.cap_suite(vec![1, 2, 3, 4]), vec![1, 2, 3, 4]);
        let smoke = RunPlan::smoke();
        assert_eq!(smoke.cap_suite(vec![1, 2, 3, 4]).len(), 3);
        assert_eq!(smoke.cap_suite(vec![1]), vec![1]);
    }
}
