//! Run plans: instruction budgets, seeds and parallelism.

use std::fmt::Debug;
use std::ops::RangeBounds;
use std::path::PathBuf;
use std::str::FromStr;

/// A numeric command-line flag whose value is not a number, or is a
/// number outside the range the flag accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagError {
    /// The flag's name, for example `--insts`.
    pub flag: &'static str,
    /// Its value as given.
    pub value: String,
    /// The accepted range (for example `1..=64`) when the value is a
    /// number outside it; `None` when it is not a number at all.
    pub range: Option<String>,
}

impl std::fmt::Display for FlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid {} {:?}: expected ", self.flag, self.value)?;
        match &self.range {
            Some(range) => write!(f, "an integer in {range}"),
            None => write!(f, "a non-negative integer"),
        }
    }
}

impl std::error::Error for FlagError {}

impl FlagError {
    /// Reports the error on stderr and exits with status 2, the status
    /// of a usage error.
    pub fn exit(&self) -> ! {
        eprintln!("{self}");
        std::process::exit(2)
    }
}

/// Parses `value`, given for `flag`, as a number in `accepted`. A value
/// that does not parse or falls outside the range is a [`FlagError`],
/// never clamped.
pub fn parse_flag<T: FromStr + PartialOrd>(
    flag: &'static str,
    value: &str,
    accepted: impl RangeBounds<T> + Debug,
) -> Result<T, FlagError> {
    let range = match value.parse() {
        Ok(n) if accepted.contains(&n) => return Ok(n),
        Ok(_) => Some(format!("{accepted:?}")),
        Err(_) => None,
    };
    Err(FlagError {
        flag,
        value: value.to_string(),
        range,
    })
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
    /// When set, workload captures are decoded from `dol-trace` files
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

    /// This plan with the plan flags `flag` returns a value for:
    /// `--insts` (at least 10000), `--mixes` (1 to 64), `--jobs` (0 to
    /// 256) and `--trace-dir`. A numeric value that does not parse or
    /// falls outside its range is an error, never ignored or clamped.
    pub fn with_flags<'a>(
        mut self,
        flag: impl Fn(&str) -> Option<&'a str>,
    ) -> Result<Self, FlagError> {
        if let Some(v) = flag("--insts") {
            self.insts = parse_flag("--insts", v, 10_000..)?;
        }
        if let Some(v) = flag("--mixes") {
            self.mix_count = parse_flag("--mixes", v, 1..=64)?;
        }
        if let Some(v) = flag("--jobs") {
            self.jobs = parse_flag("--jobs", v, 0..=256)?;
        }
        if let Some(v) = flag("--trace-dir") {
            self.trace_dir = Some(PathBuf::from(v));
        }
        Ok(self)
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

    /// The full plan with the flags `given` applied.
    fn plan_with(given: &[(&str, &'static str)]) -> Result<RunPlan, FlagError> {
        RunPlan::full().with_flags(|flag| {
            given
                .iter()
                .find(|(name, _)| *name == flag)
                .map(|&(_, v)| v)
        })
    }

    #[test]
    fn flags_apply_and_empty_is_refused() {
        let plan = plan_with(&[
            ("--insts", "50000"),
            ("--mixes", "3"),
            ("--jobs", "2"),
            ("--trace-dir", "traces"),
        ])
        .unwrap();
        assert_eq!((plan.insts, plan.mix_count, plan.jobs), (50_000, 3, 2));
        assert_eq!(plan.trace_dir, Some(PathBuf::from("traces")));
        // The ends of every accepted range apply unchanged.
        let low = plan_with(&[("--insts", "10000"), ("--mixes", "1"), ("--jobs", "0")]).unwrap();
        assert_eq!((low.insts, low.mix_count, low.jobs), (10_000, 1, 0));
        let high = plan_with(&[("--mixes", "64"), ("--jobs", "256")]).unwrap();
        assert_eq!((high.mix_count, high.jobs), (64, 256));
        assert_eq!(plan_with(&[]), Ok(RunPlan::full()));
        // A flag given with an empty value is not a number.
        for flag in ["--insts", "--mixes", "--jobs"] {
            let err = plan_with(&[(flag, "")]).unwrap_err();
            assert_eq!((err.flag, err.range), (flag, None));
        }
    }

    #[test]
    fn garbage_dol_insts_is_an_error() {
        let err = plan_with(&[("--insts", "40k")]).unwrap_err();
        assert_eq!(
            err,
            FlagError {
                flag: "--insts",
                value: "40k".into(),
                range: None,
            }
        );
        assert_eq!(
            err.to_string(),
            "invalid --insts \"40k\": expected a non-negative integer"
        );
        // Below the smallest budget is refused, not raised to it.
        let err = plan_with(&[("--insts", "5000")]).unwrap_err();
        assert_eq!(err.range.as_deref(), Some("10000.."));
        assert_eq!(
            err.to_string(),
            "invalid --insts \"5000\": expected an integer in 10000.."
        );
    }

    #[test]
    fn garbage_dol_mixes_is_an_error() {
        let err = plan_with(&[("--insts", "50000"), ("--mixes", "-1")]).unwrap_err();
        assert_eq!((err.flag, err.value.as_str()), ("--mixes", "-1"));
        // Out of range is refused, not clamped.
        for value in ["0", "65"] {
            let err = plan_with(&[("--mixes", value)]).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("invalid --mixes \"{value}\": expected an integer in 1..=64")
            );
        }
    }

    #[test]
    fn garbage_dol_jobs_is_an_error() {
        let err = plan_with(&[("--jobs", "four")]).unwrap_err();
        assert_eq!((err.flag, err.value.as_str()), ("--jobs", "four"));
        // Out of range is refused, not capped.
        let err = plan_with(&[("--jobs", "1000")]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid --jobs \"1000\": expected an integer in 0..=256"
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
