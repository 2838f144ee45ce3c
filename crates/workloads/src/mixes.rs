//! Deterministic multiprogrammed mixes for the 4-core experiments.
//!
//! The paper draws 4-thread mixes randomly from its suites and reports
//! weighted speedups over 68 workloads in total (Figure 11). We generate
//! seeded random 4-way combinations over all 36 kernels.

use crate::rng::Rng64;
use crate::{all_workloads, Spec};

/// A 4-way multiprogrammed mix.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Display name, e.g. `mix03[stream_sum|bfs_rmat|...]`.
    pub name: String,
    /// The four member workloads.
    pub members: [Spec; 4],
}

impl Mix {
    /// The four members' kernel names, in core order.
    pub fn names(&self) -> [&'static str; 4] {
        std::array::from_fn(|i| self.members[i].name)
    }
}

/// Generates `count` deterministic 4-way mixes from all suites.
pub fn mixes(count: usize, seed: u64) -> Vec<Mix> {
    let pool = all_workloads();
    let mut rng = Rng64::seed_from_u64(seed ^ 0xD1CE);
    (0..count)
        .map(|i| {
            let pick = |rng: &mut Rng64| pool[rng.index(pool.len())].clone();
            let members = [
                pick(&mut rng),
                pick(&mut rng),
                pick(&mut rng),
                pick(&mut rng),
            ];
            let name = format!(
                "mix{i:02}[{}|{}|{}|{}]",
                members[0].name, members[1].name, members[2].name, members[3].name
            );
            Mix { name, members }
        })
        .collect()
}

/// Short names of `count` mixes (for table headers).
pub fn mix_names(count: usize, seed: u64) -> Vec<String> {
    mixes(count, seed).into_iter().map(|m| m.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_deterministic() {
        let a = mix_names(8, 42);
        let b = mix_names(8, 42);
        assert_eq!(a, b);
        let c = mix_names(8, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn mixes_have_four_members() {
        for m in mixes(8, 1) {
            assert_eq!(m.members.len(), 4);
            assert!(m.name.starts_with("mix"));
        }
    }
}
