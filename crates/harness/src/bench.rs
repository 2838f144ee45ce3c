//! Self-measured simulation throughput (the `BENCH_sim.json` artifact).
//!
//! [`run_all`](crate::experiments) wraps every figure/table driver with a
//! wall-clock timer and a delta of the process-wide retired-instruction
//! counter ([`dol_cpu::telemetry::simulated_instructions`]), yielding
//! simulated instructions per second per driver. The report serializes to
//! a small hand-rolled JSON document (the build is hermetic — no serde):
//!
//! ```json
//! {
//!   "schema": "dol-bench-v1",
//!   "mode": "smoke",
//!   "jobs": 1,
//!   "total": {"wall_s": 2.1, "sim_insts": 12000000, "insts_per_s": 5714285.7},
//!   "drivers": [
//!     {"id": "fig08", "cached": false, "wall_s": 0.2, "sim_insts": 840000, "insts_per_s": 4200000.0}
//!   ]
//! }
//! ```
//!
//! Some drivers (table1, table2, the derived figures) are served
//! entirely from the memoized capture/run caches and simulate nothing
//! themselves; they are flagged `"cached": true` and **excluded** from
//! the `total` aggregates so the headline inst/s rate measures actual
//! simulation throughput rather than cache-replay bookkeeping.
//!
//! CI keeps a checked-in floor (`results/BENCH_floor.json`) and fails the
//! throughput-smoke job when the measured total `insts_per_s` drops more
//! than 30 % below it.

use crate::phase::PhaseSplit;

/// Timing record for one figure/table driver.
#[derive(Debug, Clone)]
pub struct DriverBench {
    /// Driver identifier ("fig08", "ablation_t2", …).
    pub id: &'static str,
    /// Wall-clock seconds spent inside the driver.
    pub wall_s: f64,
    /// Instructions simulated by the driver (telemetry counter delta).
    pub sim_insts: u64,
    /// Whether the driver was served from the memoized run caches
    /// (simulated nothing itself). Cached drivers are excluded from the
    /// report's totals.
    pub cached: bool,
    /// Wall time attributed to capture / classify / simulate / metrics /
    /// render (see [`crate::phase`]).
    pub phases: PhaseSplit,
}

impl DriverBench {
    /// Simulated instructions per wall-clock second (0 for an empty or
    /// instant driver).
    pub fn insts_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.sim_insts as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Trace-decode throughput for a replayed (`--trace-dir`) run: the delta
/// of [`dol_trace::telemetry::decode_totals`] across the run.
#[derive(Debug, Clone, Copy)]
pub struct TraceBench {
    /// Encoded `dol-trace-v1` bytes decoded.
    pub bytes: u64,
    /// Instructions decoded.
    pub insts: u64,
    /// Wall-clock seconds spent decoding.
    pub wall_s: f64,
}

impl TraceBench {
    /// Decode throughput in bytes per second.
    pub fn bytes_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.bytes as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Decode throughput in instructions per second.
    pub fn insts_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.insts as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// A full `run_all` timing report.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// "smoke" or "full".
    pub mode: &'static str,
    /// Effective worker-thread count.
    pub jobs: usize,
    /// Benchmark passes behind each record (`--bench-repeat`): every
    /// driver entry is the best (highest inst/s) of this many runs.
    pub repeat: usize,
    /// Per-driver records, in run order.
    pub drivers: Vec<DriverBench>,
    /// Trace-decode throughput, present when workloads were replayed
    /// from `dol-trace-v1` files rather than captured live.
    pub trace: Option<TraceBench>,
}

impl BenchReport {
    /// Total wall-clock seconds across simulating (non-cached) drivers.
    pub fn wall_s(&self) -> f64 {
        self.drivers
            .iter()
            .filter(|d| !d.cached)
            .map(|d| d.wall_s)
            .sum()
    }

    /// Total simulated instructions across simulating (non-cached)
    /// drivers.
    pub fn sim_insts(&self) -> u64 {
        self.drivers
            .iter()
            .filter(|d| !d.cached)
            .map(|d| d.sim_insts)
            .sum()
    }

    /// Overall simulated instructions per wall-clock second.
    pub fn insts_per_s(&self) -> f64 {
        let w = self.wall_s();
        if w > 0.0 {
            self.sim_insts() as f64 / w
        } else {
            0.0
        }
    }

    /// Aggregate phase split across every driver (cached drivers
    /// included — their render/metrics time is real work).
    pub fn phases(&self) -> PhaseSplit {
        let mut total = PhaseSplit::default();
        for d in &self.drivers {
            total.add(&d.phases);
        }
        total
    }

    /// Serializes the report (schema `dol-bench-v1`).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512 + 96 * self.drivers.len());
        s.push_str("{\n  \"schema\": \"dol-bench-v1\",\n");
        s.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        s.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        s.push_str(&format!("  \"repeat\": {},\n", self.repeat));
        s.push_str(&format!(
            "  \"total\": {{\"wall_s\": {:.3}, \"sim_insts\": {}, \"insts_per_s\": {:.1}{}}},\n",
            self.wall_s(),
            self.sim_insts(),
            self.insts_per_s(),
            fmt_phases(&self.phases())
        ));
        if let Some(t) = &self.trace {
            s.push_str(&format!(
                "  \"trace\": {{\"decoded_bytes\": {}, \"decoded_insts\": {}, \"wall_s\": {:.3}, \
                 \"bytes_per_s\": {:.1}, \"insts_per_s\": {:.1}}},\n",
                t.bytes,
                t.insts,
                t.wall_s,
                t.bytes_per_s(),
                t.insts_per_s()
            ));
        }
        s.push_str("  \"drivers\": [\n");
        for (i, d) in self.drivers.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"id\": \"{}\", \"cached\": {}, \"wall_s\": {:.3}, \"sim_insts\": {}, \
                 \"insts_per_s\": {:.1}{}}}{}\n",
                d.id,
                d.cached,
                d.wall_s,
                d.sim_insts,
                d.insts_per_s(),
                fmt_phases(&d.phases),
                if i + 1 < self.drivers.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Serializes a phase split as trailing same-line fields — driver and
/// total records stay one-record-per-line so the line-oriented floor
/// scanners keep working.
fn fmt_phases(p: &PhaseSplit) -> String {
    format!(
        ", \"capture_s\": {:.4}, \"classify_s\": {:.4}, \"simulate_s\": {:.4}, \
         \"metrics_s\": {:.4}, \"render_s\": {:.4}",
        p.capture_s, p.classify_s, p.simulate_s, p.metrics_s, p.render_s
    )
}

/// Extracts the total `insts_per_s` from a `dol-bench-v1` JSON document
/// (e.g. the checked-in floor). Returns `None` on any shape mismatch —
/// a tiny purpose-built scanner, not a general JSON parser.
pub fn parse_floor(json: &str) -> Option<f64> {
    let total = json.split("\"total\"").nth(1)?;
    scan_rate(total)
}

/// Extracts one driver's `insts_per_s` from a `dol-bench-v1` document by
/// its stable id ("fig08", "multicore", …). Returns `None` when the
/// driver is absent — floors recorded before a driver existed simply
/// don't gate it.
pub fn parse_driver_floor(json: &str, id: &str) -> Option<f64> {
    let needle = format!("\"id\": \"{id}\"");
    // Driver records serialize one per line, so the rate belongs to this
    // driver iff it appears before the record's closing newline.
    let line = json.split(&needle).nth(1)?.split('\n').next()?;
    scan_rate(line)
}

fn scan_rate(fragment: &str) -> Option<f64> {
    scan_named(fragment, "insts_per_s")
}

/// Extracts the numeric value of `"name": <number>` from `fragment`
/// (first occurrence).
fn scan_named(fragment: &str, name: &str) -> Option<f64> {
    let needle = format!("\"{name}\"");
    let after = fragment.split(&needle).nth(1)?;
    let num: String = after
        .chars()
        .skip_while(|c| *c == ':' || c.is_whitespace())
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
        .collect();
    num.parse().ok()
}

/// Extracts a phase split from one record fragment. `None` when any
/// phase field is missing — documents recorded before phase attribution
/// existed simply have no split.
fn scan_phases(fragment: &str) -> Option<PhaseSplit> {
    Some(PhaseSplit {
        capture_s: scan_named(fragment, "capture_s")?,
        classify_s: scan_named(fragment, "classify_s")?,
        simulate_s: scan_named(fragment, "simulate_s")?,
        metrics_s: scan_named(fragment, "metrics_s")?,
        render_s: scan_named(fragment, "render_s")?,
    })
}

/// Extracts the total phase split from a `dol-bench-v1` document.
/// `None` for pre-phase-attribution documents — the CI phase gate
/// simply doesn't fire against such floors.
pub fn parse_total_phases(json: &str) -> Option<PhaseSplit> {
    let line = json.split("\"total\"").nth(1)?.split('\n').next()?;
    scan_phases(line)
}

/// One driver record parsed back out of a `dol-bench-v1` document.
#[derive(Debug, Clone)]
pub struct ParsedDriver {
    /// Driver id.
    pub id: String,
    /// Wall seconds.
    pub wall_s: f64,
    /// Simulated-instruction delta.
    pub sim_insts: u64,
    /// Simulated instructions per second.
    pub insts_per_s: f64,
    /// Whether the record was cache-served.
    pub cached: bool,
    /// Phase split, when the document carries one.
    pub phases: Option<PhaseSplit>,
}

/// A `dol-bench-v1` document parsed for comparison (`dol bench diff`).
#[derive(Debug, Clone)]
pub struct ParsedReport {
    /// "smoke" or "full".
    pub mode: String,
    /// Total wall seconds across simulating drivers.
    pub total_wall_s: f64,
    /// Total simulated instructions.
    pub total_sim_insts: u64,
    /// Headline simulated instructions per second.
    pub total_insts_per_s: f64,
    /// Aggregate phase split, when present.
    pub total_phases: Option<PhaseSplit>,
    /// Per-driver records in document order.
    pub drivers: Vec<ParsedDriver>,
}

impl ParsedReport {
    /// Looks up a driver by id.
    pub fn driver(&self, id: &str) -> Option<&ParsedDriver> {
        self.drivers.iter().find(|d| d.id == id)
    }
}

/// Parses a `dol-bench-v1` document back into comparable records.
/// Relies on the writer's one-record-per-line layout (the same property
/// the floor scanners use); returns `None` when the schema marker or
/// total record is missing.
pub fn parse_report(json: &str) -> Option<ParsedReport> {
    if !json.contains("\"schema\": \"dol-bench-v1\"") {
        return None;
    }
    let mode = json
        .split("\"mode\"")
        .nth(1)?
        .split('"')
        .nth(1)?
        .to_string();
    let total_line = json.split("\"total\"").nth(1)?.split('\n').next()?;
    let mut drivers = Vec::new();
    // Driver records are the lines with an "id" field after the
    // "drivers" array opens.
    let body = json.split("\"drivers\"").nth(1).unwrap_or("");
    for line in body.lines() {
        let Some(after_id) = line.split("\"id\": \"").nth(1) else {
            continue;
        };
        let Some(id) = after_id.split('"').next() else {
            continue;
        };
        drivers.push(ParsedDriver {
            id: id.to_string(),
            wall_s: scan_named(line, "wall_s")?,
            sim_insts: scan_named(line, "sim_insts")? as u64,
            insts_per_s: scan_named(line, "insts_per_s")?,
            cached: line.contains("\"cached\": true"),
            phases: scan_phases(line),
        });
    }
    Some(ParsedReport {
        mode,
        total_wall_s: scan_named(total_line, "wall_s")?,
        total_sim_insts: scan_named(total_line, "sim_insts")? as u64,
        total_insts_per_s: scan_named(total_line, "insts_per_s")?,
        total_phases: scan_phases(total_line),
        drivers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BenchReport {
        BenchReport {
            mode: "smoke",
            jobs: 1,
            repeat: 1,
            drivers: vec![
                DriverBench {
                    id: "table1",
                    wall_s: 0.5,
                    sim_insts: 1_000_000,
                    cached: false,
                    phases: PhaseSplit {
                        capture_s: 0.1,
                        classify_s: 0.05,
                        simulate_s: 0.3,
                        metrics_s: 0.025,
                        render_s: 0.025,
                    },
                },
                DriverBench {
                    id: "fig08",
                    wall_s: 1.5,
                    sim_insts: 5_000_000,
                    cached: false,
                    phases: PhaseSplit {
                        capture_s: 0.2,
                        classify_s: 0.1,
                        simulate_s: 1.0,
                        metrics_s: 0.1,
                        render_s: 0.1,
                    },
                },
            ],
            trace: None,
        }
    }

    #[test]
    fn totals_aggregate_drivers() {
        let r = report();
        assert_eq!(r.wall_s(), 2.0);
        assert_eq!(r.sim_insts(), 6_000_000);
        assert_eq!(r.insts_per_s(), 3_000_000.0);
    }

    #[test]
    fn cached_drivers_are_excluded_from_totals() {
        let mut r = report();
        r.drivers.push(DriverBench {
            id: "table2",
            wall_s: 0.7,
            sim_insts: 0,
            cached: true,
            phases: PhaseSplit::default(),
        });
        // Totals are unchanged by the cache-served driver...
        assert_eq!(r.wall_s(), 2.0);
        assert_eq!(r.sim_insts(), 6_000_000);
        assert_eq!(r.insts_per_s(), 3_000_000.0);
        // ...but it still appears, flagged, in the serialized document.
        let json = r.to_json();
        assert!(json.contains("\"id\": \"table2\", \"cached\": true"));
        assert!(json.contains("\"id\": \"fig08\", \"cached\": false"));
        assert!((parse_floor(&json).unwrap() - 3_000_000.0).abs() < 0.5);
    }

    #[test]
    fn json_round_trips_through_floor_parser() {
        let r = report();
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"dol-bench-v1\""));
        assert!(json.contains("\"repeat\": 1"));
        assert!(json.contains("\"id\": \"fig08\""));
        let floor = parse_floor(&json).expect("parsable");
        assert!((floor - 3_000_000.0).abs() < 0.5);
    }

    #[test]
    fn trace_section_serializes_without_breaking_the_floor() {
        let mut r = report();
        r.trace = Some(TraceBench {
            bytes: 10_000_000,
            insts: 2_000_000,
            wall_s: 0.5,
        });
        let json = r.to_json();
        assert!(json.contains("\"decoded_bytes\": 10000000"));
        assert!(json.contains("\"bytes_per_s\": 20000000.0"));
        assert!(json.contains("\"insts_per_s\": 4000000.0"));
        // The floor scanner still picks up the *total* rate, not the
        // trace-decode rate.
        assert!((parse_floor(&json).unwrap() - 3_000_000.0).abs() < 0.5);
    }

    #[test]
    fn floor_parser_rejects_garbage() {
        assert_eq!(parse_floor(""), None);
        assert_eq!(parse_floor("{\"total\": {}}"), None);
        assert_eq!(parse_floor("not json at all"), None);
    }

    #[test]
    fn driver_floor_reads_the_right_record() {
        let json = report().to_json();
        let table1 = parse_driver_floor(&json, "table1").expect("present");
        assert!((table1 - 2_000_000.0).abs() < 0.5);
        let fig08 = parse_driver_floor(&json, "fig08").expect("present");
        assert!((fig08 - 3_333_333.3).abs() < 0.5);
        // Absent drivers don't gate.
        assert_eq!(parse_driver_floor(&json, "multicore"), None);
        assert_eq!(parse_driver_floor("", "fig08"), None);
    }

    #[test]
    fn zero_wall_clock_is_not_a_division_error() {
        let d = DriverBench {
            id: "x",
            wall_s: 0.0,
            sim_insts: 5,
            cached: false,
            phases: PhaseSplit::default(),
        };
        assert_eq!(d.insts_per_s(), 0.0);
    }

    #[test]
    fn phases_serialize_on_the_record_line_and_round_trip() {
        let r = report();
        let json = r.to_json();
        // Every driver line carries all five phase fields.
        for line in json.lines().filter(|l| l.contains("\"id\": \"")) {
            for field in [
                "capture_s",
                "classify_s",
                "simulate_s",
                "metrics_s",
                "render_s",
            ] {
                assert!(line.contains(field), "missing {field} in {line}");
            }
        }
        // The total aggregates the drivers.
        let total = parse_total_phases(&json).expect("total phases present");
        assert!((total.capture_s - 0.3).abs() < 1e-3);
        assert!((total.simulate_s - 1.3).abs() < 1e-3);
        assert!((total.overhead_share() - 0.35).abs() < 0.01);
        // Pre-phase documents parse to None.
        assert_eq!(
            parse_total_phases("{\"total\": {\"wall_s\": 1.0, \"insts_per_s\": 5.0}}"),
            None
        );
    }

    #[test]
    fn parse_report_round_trips_the_document() {
        let r = report();
        let parsed = parse_report(&r.to_json()).expect("parsable");
        assert_eq!(parsed.mode, "smoke");
        assert_eq!(parsed.drivers.len(), 2);
        assert_eq!(parsed.total_sim_insts, 6_000_000);
        assert!((parsed.total_insts_per_s - 3_000_000.0).abs() < 0.5);
        let fig08 = parsed.driver("fig08").expect("present");
        assert!(!fig08.cached);
        assert_eq!(fig08.sim_insts, 5_000_000);
        assert!((fig08.insts_per_s - 3_333_333.3).abs() < 0.5);
        let ph = fig08.phases.expect("phases present");
        assert!((ph.simulate_s - 1.0).abs() < 1e-9);
        assert!(parsed.driver("nope").is_none());
        // Garbage and non-bench documents refuse to parse.
        assert!(parse_report("").is_none());
        assert!(parse_report("{\"schema\": \"other\"}").is_none());
    }

    #[test]
    fn committed_bench_documents_parse_and_the_floor_is_unchanged() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut documents = 0;
        for entry in std::fs::read_dir(&dir).expect("results/ is readable") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let json = std::fs::read_to_string(&path).expect("document is readable");
                assert!(parse_report(&json).is_some(), "{name} does not parse");
                documents += 1;
            }
        }
        assert!(documents > 0, "no BENCH_*.json under {}", dir.display());
        // The values every remaining gate reads from the floor.
        let floor = std::fs::read_to_string(dir.join("BENCH_floor.json")).expect("floor");
        assert_eq!(parse_floor(&floor), Some(6_333_025.8));
        assert_eq!(parse_driver_floor(&floor, "multicore"), Some(3_903_444.5));
        assert_eq!(
            parse_total_phases(&floor),
            Some(PhaseSplit {
                capture_s: 0.2202,
                classify_s: 0.0339,
                simulate_s: 1.8752,
                metrics_s: 0.0100,
                render_s: 0.0001,
            })
        );
    }

    #[test]
    fn parse_report_keeps_cached_drivers() {
        let mut r = report();
        r.drivers.push(DriverBench {
            id: "table2",
            wall_s: 0.7,
            sim_insts: 0,
            cached: true,
            phases: PhaseSplit::default(),
        });
        let parsed = parse_report(&r.to_json()).expect("parsable");
        assert_eq!(parsed.drivers.len(), 3);
        assert!(parsed.driver("table2").expect("present").cached);
    }
}
