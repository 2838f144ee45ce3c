//! FDP — Feedback-Directed Prefetching (Srinath et al., HPCA 2007).
//!
//! A stream prefetcher whose aggressiveness (degree and distance) is
//! adjusted each interval from runtime feedback. The published design
//! measures accuracy, lateness, and cache pollution (via a Bloom filter
//! over prefetch-evicted lines); through this crate's component interface
//! evictions are not observable, so the pollution term is approximated by
//! the accuracy estimate alone (low accuracy ⇒ assume pollution). The
//! five aggressiveness levels match the paper: degree 1/1/2/4/4 and
//! distance 4/8/16/32/64 lines.

use dol_core::{PrefetchRequest, Prefetcher, RetireInfo, CONF_MONOLITHIC};
use dol_mem::{line_base, line_of, Origin};

const STREAMS: usize = 64;
/// Lines within which a miss trains an existing stream.
const TRAIN_WINDOW: u64 = 16;
/// Feedback interval in trained accesses.
const INTERVAL: u64 = 2048;
const LEVELS: [(u32, u64); 5] = [(1, 4), (1, 8), (2, 16), (4, 32), (4, 64)];
const ACC_HIGH: f64 = 0.75;
const ACC_LOW: f64 = 0.40;

#[derive(Debug, Clone, Copy, Default)]
struct Stream {
    /// Most recent line of the stream.
    last_line: u64,
    /// +1 or −1.
    direction: i64,
    /// Furthest line prefetched.
    frontier: u64,
    confidence: u8,
    valid: bool,
    stamp: u64,
}

/// The FDP prefetcher (Table II: 2.5 KB — 64 streams plus feedback
/// state).
#[derive(Debug, Clone)]
pub struct Fdp {
    origin: Origin,
    streams: Vec<Stream>,
    level: usize,
    clock: u64,
    // Feedback counters for the current interval.
    issued: u64,
    useful: u64,
    trained: u64,
}

impl Fdp {
    /// Builds the Table II configuration, starting at the middle
    /// aggressiveness level.
    pub fn new(origin: Origin) -> Self {
        Fdp {
            origin,
            streams: vec![Stream::default(); STREAMS],
            level: 2,
            clock: 0,
            issued: 0,
            useful: 0,
            trained: 0,
        }
    }

    /// Current aggressiveness level (0–4).
    pub fn level(&self) -> usize {
        self.level
    }

    fn adjust(&mut self) {
        let acc = if self.issued == 0 {
            1.0
        } else {
            self.useful as f64 / self.issued as f64
        };
        if acc >= ACC_HIGH {
            self.level = (self.level + 1).min(LEVELS.len() - 1);
        } else if acc < ACC_LOW {
            self.level = self.level.saturating_sub(1);
        }
        self.issued = 0;
        self.useful = 0;
    }
}

impl Prefetcher for Fdp {
    fn name(&self) -> &str {
        "FDP"
    }

    fn storage_bits(&self) -> u64 {
        (2.5 * 8.0 * 1024.0) as u64
    }

    fn on_retire(&mut self, ev: &RetireInfo<'_>, out: &mut Vec<PrefetchRequest>) {
        let Some(access) = ev.access else { return };
        let Some(addr) = ev.inst.mem_addr() else {
            return;
        };
        self.clock += 1;

        // Feedback: count hits served by our prefetches.
        if access.served_by_prefetch == Some(self.origin) {
            self.useful += 1;
        }

        // Streams train on the L2 access stream: primary misses plus
        // hits served by prefetched lines (training on raw misses alone
        // starves the detector as soon as its own prefetching works).
        if access.secondary || (access.l1_hit && access.served_by_prefetch.is_none()) {
            return;
        }
        let line = line_of(addr);
        self.trained += 1;
        if self.trained % INTERVAL == 0 {
            self.adjust();
        }

        // Find a stream this miss extends.
        let hit = self
            .streams
            .iter()
            .position(|s| s.valid && line.abs_diff(s.last_line) <= TRAIN_WINDOW);
        let (degree, distance) = LEVELS[self.level];
        match hit {
            Some(i) => {
                let s = &mut self.streams[i];
                let dir = if line >= s.last_line { 1i64 } else { -1 };
                if dir == s.direction {
                    s.confidence = (s.confidence + 1).min(3);
                } else {
                    s.confidence = s.confidence.saturating_sub(1);
                    if s.confidence == 0 {
                        s.direction = dir;
                        s.frontier = line;
                    }
                }
                s.last_line = line;
                s.stamp = self.clock;
                if s.confidence >= 2 {
                    // Keep the frontier `distance` lines ahead, issuing up
                    // to `degree` prefetches per trained access.
                    let target = line.wrapping_add((s.direction * distance as i64) as u64);
                    let mut frontier = if s.direction > 0 {
                        s.frontier.max(line)
                    } else {
                        s.frontier.min(line)
                    };
                    let dir = s.direction;
                    let mut issued = 0;
                    while issued < degree {
                        let next = frontier.wrapping_add(dir as u64);
                        let beyond = if dir > 0 {
                            next > target
                        } else {
                            next < target || next == 0
                        };
                        if beyond {
                            break;
                        }
                        frontier = next;
                        issued += 1;
                        out.push(PrefetchRequest::new(
                            line_base(next),
                            crate::DEST,
                            self.origin,
                            CONF_MONOLITHIC,
                        ));
                        self.issued += 1;
                    }
                    self.streams[i].frontier = frontier;
                }
            }
            None => {
                // Allocate a new stream (LRU victim).
                let victim = self
                    .streams
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| if s.valid { s.stamp } else { 0 })
                    .map(|(i, _)| i)
                    .expect("stream table is non-empty");
                self.streams[victim] = Stream {
                    last_line: line,
                    direction: 1,
                    frontier: line,
                    confidence: 1,
                    valid: true,
                    stamp: self.clock,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{feed, strided};

    #[test]
    fn tracks_an_ascending_stream() {
        let mut p = Fdp::new(Origin(20));
        let out = feed(&mut p, strided(0x100, 0x40_0000, 64, 40));
        assert!(!out.is_empty());
        let addrs: Vec<u64> = out.iter().map(|r| r.addr).collect();
        assert!(addrs.windows(2).all(|w| w[1] > w[0]), "monotone frontier");
    }

    #[test]
    fn tracks_a_descending_stream() {
        let mut p = Fdp::new(Origin(20));
        let accesses: Vec<_> = (0..40u64)
            .map(|i| (0x100u64, 0x40_0000 - i * 64, false))
            .collect();
        let out = feed(&mut p, accesses);
        assert!(!out.is_empty());
        let addrs: Vec<u64> = out.iter().map(|r| r.addr).collect();
        assert!(addrs.windows(2).all(|w| w[1] < w[0]), "downward frontier");
    }

    #[test]
    fn aggressiveness_rises_with_useful_feedback() {
        let mut p = Fdp::new(Origin(20));
        let start = p.level();
        // Simulate an interval of training with every prefetch useful:
        // feed misses (training/issuing) plus hits served by our origin.
        use dol_core::{AccessInfo, RetireInfo};
        use dol_isa::{InstKind, Reg, RetiredInst};
        let mut out = Vec::new();
        for i in 0..6000u64 {
            let (addr, hit, served) = if i % 2 == 0 {
                (0x40_0000 + (i / 2) * 64, false, None)
            } else {
                (0x40_0000 + (i / 2) * 64 + 8, true, Some(Origin(20)))
            };
            let inst = RetiredInst {
                pc: 0x100,
                kind: InstKind::Load { addr, value: 0 },
                dst: Some(Reg::R1),
                srcs: [Some(Reg::R2), None],
            };
            let ev = RetireInfo {
                now: i,
                inst: &inst,
                mpc: 0x100,
                access: Some(AccessInfo {
                    l1_hit: hit,
                    secondary: false,
                    latency: 3,
                    served_by_prefetch: served,
                }),
            };
            p.on_retire(&ev, &mut out);
        }
        assert!(
            p.level() >= start,
            "level must not fall with perfect accuracy"
        );
        assert!(
            p.level() > start,
            "level should rise: {} -> {}",
            start,
            p.level()
        );
    }

    #[test]
    fn aggressiveness_falls_without_useful_hits() {
        let mut p = Fdp::new(Origin(20));
        let start = p.level();
        // Plenty of issued prefetches, zero useful hits.
        feed(&mut p, strided(0x100, 0x40_0000, 64, 8000));
        assert!(
            p.level() < start,
            "level must fall: {} -> {}",
            start,
            p.level()
        );
    }

    #[test]
    fn multiple_streams_coexist() {
        let mut p = Fdp::new(Origin(20));
        let mut accesses = Vec::new();
        for i in 0..40u64 {
            accesses.push((0x100u64, 0x40_0000 + i * 64, false));
            accesses.push((0x200u64, 0x90_0000 + i * 64, false));
        }
        let out = feed(&mut p, accesses);
        let low = out.iter().filter(|r| r.addr < 0x80_0000).count();
        let high = out.iter().filter(|r| r.addr >= 0x80_0000).count();
        assert!(low > 0 && high > 0, "both streams prefetched");
    }
}
