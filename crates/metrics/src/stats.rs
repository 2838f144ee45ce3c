//! Statistical helpers for the result tables.

/// Geometric mean of strictly positive values. Returns 0 on an empty
/// slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|v| {
            assert!(*v > 0.0, "geomean needs positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// The paper's multicore figure of merit: weighted speedup
/// `Σ IPC_shared(i) / IPC_alone(i)` over the cores of a mix.
pub fn weighted_speedup(ipc_shared: &[f64], ipc_alone: &[f64]) -> f64 {
    assert_eq!(ipc_shared.len(), ipc_alone.len());
    ipc_shared
        .iter()
        .zip(ipc_alone)
        .map(|(s, a)| {
            assert!(*a > 0.0, "solo IPC must be positive");
            s / a
        })
        .sum()
}

/// A scatter point weighted by importance (the paper weights per-app
/// dots by MPKI or prefetch count when averaging).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedPoint {
    /// X coordinate (e.g. scope).
    pub x: f64,
    /// Y coordinate (e.g. effective accuracy).
    pub y: f64,
    /// Weight (e.g. MPKI or prefetches issued).
    pub weight: f64,
}

impl WeightedPoint {
    /// Weighted average of a set of points; zero-weight sets average
    /// unweighted.
    pub fn weighted_average(points: &[WeightedPoint]) -> (f64, f64) {
        if points.is_empty() {
            return (0.0, 0.0);
        }
        let total: f64 = points.iter().map(|p| p.weight).sum();
        if total <= 0.0 {
            let n = points.len() as f64;
            return (
                points.iter().map(|p| p.x).sum::<f64>() / n,
                points.iter().map(|p| p.y).sum::<f64>() / n,
            );
        }
        (
            points.iter().map(|p| p.x * p.weight).sum::<f64>() / total,
            points.iter().map(|p| p.y * p.weight).sum::<f64>() / total,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn weighted_speedup_sums_ratios() {
        let ws = weighted_speedup(&[0.5, 1.0], &[1.0, 1.0]);
        assert!((ws - 1.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_average_respects_weights() {
        let pts = [
            WeightedPoint {
                x: 0.0,
                y: 0.0,
                weight: 1.0,
            },
            WeightedPoint {
                x: 1.0,
                y: 1.0,
                weight: 3.0,
            },
        ];
        let (x, y) = WeightedPoint::weighted_average(&pts);
        assert!((x - 0.75).abs() < 1e-12);
        assert!((y - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_weights_fall_back_to_unweighted() {
        let pts = [
            WeightedPoint {
                x: 0.0,
                y: 2.0,
                weight: 0.0,
            },
            WeightedPoint {
                x: 1.0,
                y: 4.0,
                weight: 0.0,
            },
        ];
        let (x, y) = WeightedPoint::weighted_average(&pts);
        assert_eq!((x, y), (0.5, 3.0));
    }
}
