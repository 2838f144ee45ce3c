//! One module per paper table/figure, plus ablations.
//!
//! Every experiment exposes `run(&RunPlan) -> Report`. Memory discipline:
//! workloads are captured, evaluated, summarized and dropped one at a
//! time — a full 1 M-instruction trace plus events is ~100 MB, and the
//! suite has 36 of them.

pub mod ablations;
pub mod fig01;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod matrix;
pub mod multicore;
pub mod table1;
pub mod table2;

use crate::bands::{render_all, Expectation};

/// A rendered experiment result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Stable identifier ("fig08", "table2", …).
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Rendered result table(s).
    pub table: String,
    /// Soft checks against the paper's claims.
    pub expectations: Vec<Expectation>,
}

impl Report {
    /// Renders the full report block.
    pub fn render(&self) -> String {
        let mut s = format!("== {} — {} ==\n{}\n", self.id, self.title, self.table);
        if !self.expectations.is_empty() {
            s.push_str("paper-shape checks:\n");
            s.push_str(&render_all(&self.expectations));
            s.push('\n');
        }
        s
    }

    /// Number of failed shape checks.
    pub fn deviations(&self) -> usize {
        self.expectations.iter().filter(|e| !e.holds).count()
    }
}

/// A figure/table driver entry point.
pub type Driver = fn(&crate::RunPlan) -> Report;

/// Every figure/table driver with its stable identifier, in paper order.
/// `dol all` iterates this list, and the repository benchmark times each
/// driver in it individually.
pub fn drivers() -> Vec<(&'static str, Driver)> {
    vec![
        ("table1", table1::run),
        ("table2", table2::run),
        ("fig01", fig01::run),
        ("fig08", fig08::run),
        ("fig09", fig09::run),
        ("fig10", fig10::run),
        ("fig11", fig11::run),
        ("fig12", fig12::run),
        ("fig13", fig13::run),
        ("fig14", fig14::run),
        ("fig15", fig15::run),
        ("fig16", fig16::run),
        ("ablation_drop", ablations::drop_policy),
        ("ablation_t2", ablations::t2_thresholds),
        ("ablation_c1", ablations::c1_density),
        ("ablation_mpc", ablations::mpc),
        ("ablation_p1_double", ablations::p1_doubling),
        ("ablation_multi_extra", ablations::multi_extra),
        // Appended last on purpose: earlier drivers' stdout is a stable
        // prefix, so golden captures from before this driver existed
        // still diff clean.
        ("multicore", multicore::run),
    ]
}
