//! Compositing existing prefetchers as additional components
//! (the paper's Sec. IV-E).

use crate::table::{AssocTable, Geometry};
use crate::{CompletedPrefetch, PrefetchRequest, Prefetcher, RetireInfo};
use dol_mem::Origin;

#[derive(Debug, Clone, Copy, Default)]
struct ExtraGate {
    /// Requests issued in the current measurement window.
    issued: u64,
    /// Demand hits served by this extra's prefetched lines.
    useful: u64,
    /// Event count until which the extra's requests are discarded.
    suppressed_until: u64,
}

/// A composite prefetcher: a base (typically [`crate::Tpc`]) plus extra
/// ready-made components under the division-of-labor coordinator.
///
/// The coordinator's heuristics (Sec. IV-E, plus the Sec. IV-D
/// conjectures):
///
/// 1. accesses from instructions the base *claims* are filtered away from
///    the extras (sticky) — they never waste extra-component storage on
///    patterns the specialized components already own;
/// 2. unclaimed instructions are distributed round-robin among the
///    extras;
/// 3. prefetched lines are tagged with the issuing component's identity,
///    and when a demand access hits a line an extra brought in, that
///    extra owns the instruction from then on;
/// 4. each extra's realized accuracy is measured, and extras whose
///    prefetches stop earning hits are suppressed ("expertise can be
///    measured"), with periodic re-probing.
///
/// The base and the extras all sit behind `Box<dyn Prefetcher>`: the
/// coordinator needs nothing from a component beyond that interface.
pub struct Composite {
    base: Box<dyn Prefetcher>,
    extras: Vec<(Origin, Box<dyn Prefetcher>)>,
    /// Per-extra accuracy gates (Sec. IV-D, "expertise can be
    /// measured"): the coordinator tracks each extra's realized
    /// usefulness and suppresses components whose prefetches are not
    /// earning hits, re-probing periodically.
    gates: Vec<ExtraGate>,
    /// Monotone count of memory events seen (gate time base).
    events: u64,
    /// mPC → extra index assignment: a fixed-geometry 4-way
    /// set-associative table (hashed index, LRU), so the coordinator's
    /// footprint is bounded at `ASSIGNMENT_ENTRIES` no matter how many
    /// distinct PCs the program retires.
    assignment: AssocTable<usize>,
    /// Instructions the base has ever claimed. Claims are *sticky*: once
    /// the base recognizes an instruction, the extras never see it again
    /// — a flickering filter (e.g. while T2 re-confirms a stride after a
    /// stream break) would otherwise feed the extras hole-ridden slices
    /// of claimed streams, corrupting their pattern tables. Bounded the
    /// same way as `assignment` (an LRU-evicted claim is simply
    /// re-learned from `claims_pc` on the next retire).
    sticky_claims: AssocTable<()>,
    rr_cursor: usize,
    name: String,
}

impl std::fmt::Debug for Composite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Composite")
            .field("name", &self.name)
            .field("extras", &self.extras.len())
            .field("assignments", &self.assignment.live())
            .finish()
    }
}

impl Composite {
    /// Assignment-table capacity (entries), fixed at construction.
    pub const ASSIGNMENT_ENTRIES: usize = 16_384;
    /// Sticky-claim-table capacity (entries), fixed at construction.
    pub const STICKY_ENTRIES: usize = 65_536;

    /// Builds a composite from a base and extra components; each extra
    /// comes with the [`Origin`] its requests carry (for ownership
    /// learning from demand hits).
    pub fn new(base: Box<dyn Prefetcher>, extras: Vec<(Origin, Box<dyn Prefetcher>)>) -> Self {
        let mut name = base.name().to_string();
        for (_, e) in &extras {
            name.push('+');
            name.push_str(e.name());
        }
        let gates = vec![ExtraGate::default(); extras.len()];
        Composite {
            base,
            extras,
            gates,
            events: 0,
            assignment: AssocTable::new(Geometry::assoc(Self::ASSIGNMENT_ENTRIES / 4, 4, 16, 4)),
            sticky_claims: AssocTable::new(Geometry::assoc(Self::STICKY_ENTRIES / 4, 4, 16, 0)),
            rr_cursor: 0,
            name,
        }
    }

    /// Convenience: a base plus a single extra component.
    pub fn with_extra(
        base: Box<dyn Prefetcher>,
        origin: Origin,
        extra: Box<dyn Prefetcher>,
    ) -> Self {
        Composite::new(base, vec![(origin, extra)])
    }

    /// Number of instructions currently assigned to extras.
    pub fn assigned_count(&self) -> usize {
        self.assignment.live()
    }

    /// Number of sticky claims currently remembered.
    pub fn sticky_count(&self) -> usize {
        self.sticky_claims.live()
    }

    /// Window after which an extra's accuracy is evaluated.
    const GATE_WINDOW: u64 = 1024;
    /// Useful-per-issued ratio below which an extra is suppressed.
    const GATE_FLOOR: f64 = 0.15;
    /// Suppression duration, in memory events.
    const GATE_BACKOFF: u64 = 16 * 1024;

    fn apply_gate(&mut self, k: usize, before: usize, out: &mut Vec<PrefetchRequest>) {
        let g = &mut self.gates[k];
        if self.events < g.suppressed_until {
            out.truncate(before);
            return;
        }
        g.issued += (out.len() - before) as u64;
        if g.issued >= Self::GATE_WINDOW {
            let acc = g.useful as f64 / g.issued as f64;
            if acc < Self::GATE_FLOOR {
                g.suppressed_until = self.events + Self::GATE_BACKOFF;
            }
            g.issued = 0;
            g.useful = 0;
        }
    }

    fn assign(&mut self, mpc: u64) -> usize {
        if let Some(&k) = self.assignment.get_mut(mpc).map(|k| &*k) {
            return k;
        }
        let k = self.rr_cursor % self.extras.len();
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        self.assignment.insert(mpc, k);
        k
    }
}

impl Prefetcher for Composite {
    fn name(&self) -> &str {
        &self.name
    }

    fn storage_bits(&self) -> u64 {
        self.base.storage_bits()
            + self
                .extras
                .iter()
                .map(|(_, e)| e.storage_bits())
                .sum::<u64>()
    }

    fn on_retire(&mut self, ev: &RetireInfo<'_>, out: &mut Vec<PrefetchRequest>) {
        // The base always sees everything.
        self.base.on_retire(ev, out);

        if self.extras.is_empty() || !ev.inst.is_mem() {
            return;
        }
        // Division of labor: claimed instructions never reach the extras
        // (sticky — see the field documentation).
        if self.sticky_claims.contains(ev.mpc) {
            return;
        }
        if self.base.claims_pc(ev.mpc) {
            self.sticky_claims.insert(ev.mpc, ());
            // Un-assign: the instruction belongs to the base now.
            self.assignment.remove(ev.mpc);
            return;
        }
        // Ownership learning from tagged prefetched lines, which doubles
        // as the usefulness signal for the accuracy gates.
        self.events += 1;
        if let Some(access) = ev.access {
            if let Some(origin) = access.served_by_prefetch {
                if let Some(k) = self.extras.iter().position(|(o, _)| *o == origin) {
                    self.assignment.insert(ev.mpc, k);
                    self.gates[k].useful += 1;
                }
            }
        }
        let k = self.assign(ev.mpc);
        // The extra always observes (training continues under
        // suppression), but its requests only go out through the gate.
        let before = out.len();
        self.extras[k].1.on_retire(ev, out);
        self.apply_gate(k, before, out);
    }

    fn on_prefetch_complete(&mut self, pf: &CompletedPrefetch, out: &mut Vec<PrefetchRequest>) {
        if let Some(k) = self.extras.iter().position(|(o, _)| *o == pf.origin) {
            self.extras[k].1.on_prefetch_complete(pf, out);
        } else {
            self.base.on_prefetch_complete(pf, out);
        }
    }

    fn claims_pc(&self, mpc: u64) -> bool {
        self.sticky_claims.contains(mpc)
            || self.base.claims_pc(mpc)
            || self.assignment.contains(mpc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::AccessInfo;
    use dol_isa::{InstKind, Reg, RetiredInst};
    use dol_mem::CacheLevel;

    /// A scripted test component: claims nothing, records what it saw,
    /// prefetches next-line on every access.
    struct Probe {
        origin: Origin,
        seen: Vec<u64>,
    }

    impl Prefetcher for Probe {
        fn name(&self) -> &str {
            "probe"
        }

        fn storage_bits(&self) -> u64 {
            100
        }

        fn on_retire(&mut self, ev: &RetireInfo<'_>, out: &mut Vec<PrefetchRequest>) {
            if let Some(addr) = ev.inst.mem_addr() {
                self.seen.push(ev.inst.pc);
                out.push(PrefetchRequest::new(
                    addr + 64,
                    CacheLevel::L1,
                    self.origin,
                    100,
                ));
            }
        }
    }

    /// A base that claims a fixed pc.
    struct ClaimingBase(u64);

    impl Prefetcher for ClaimingBase {
        fn name(&self) -> &str {
            "base"
        }

        fn storage_bits(&self) -> u64 {
            1000
        }

        fn on_retire(&mut self, _ev: &RetireInfo<'_>, _out: &mut Vec<PrefetchRequest>) {}

        fn claims_pc(&self, mpc: u64) -> bool {
            mpc == self.0
        }
    }

    fn mem_event(pc: u64, addr: u64, served_by: Option<Origin>) -> (RetiredInst, AccessInfo) {
        (
            RetiredInst {
                pc,
                kind: InstKind::Load { addr, value: 0 },
                dst: Some(Reg::R1),
                srcs: [Some(Reg::R2), None],
            },
            AccessInfo {
                l1_hit: served_by.is_some(),
                secondary: false,
                latency: 3,
                served_by_prefetch: served_by,
            },
        )
    }

    fn drive(
        c: &mut Composite,
        pc: u64,
        addr: u64,
        served: Option<Origin>,
    ) -> Vec<PrefetchRequest> {
        let (inst, access) = mem_event(pc, addr, served);
        let ev = RetireInfo {
            now: 0,
            inst: &inst,
            mpc: pc,
            access: Some(access),
        };
        let mut out = Vec::new();
        c.on_retire(&ev, &mut out);
        out
    }

    #[test]
    fn claimed_instructions_never_reach_extras() {
        let mut c = Composite::with_extra(
            Box::new(ClaimingBase(0x100)),
            Origin(40),
            Box::new(Probe {
                origin: Origin(40),
                seen: Vec::new(),
            }),
        );
        let out = drive(&mut c, 0x100, 0x8000, None);
        assert!(out.is_empty(), "claimed pc filtered from the extra");
        let out = drive(&mut c, 0x200, 0x8000, None);
        assert_eq!(out.len(), 1, "unclaimed pc flows to the extra");
    }

    #[test]
    fn round_robin_distributes_unclaimed_pcs() {
        let mut c = Composite::new(
            Box::new(ClaimingBase(0)),
            vec![
                (
                    Origin(40),
                    Box::new(Probe {
                        origin: Origin(40),
                        seen: Vec::new(),
                    }) as _,
                ),
                (
                    Origin(41),
                    Box::new(Probe {
                        origin: Origin(41),
                        seen: Vec::new(),
                    }) as _,
                ),
            ],
        );
        for pc in 1..=8u64 {
            for _ in 0..3 {
                drive(&mut c, pc * 4, 0x8000 + pc * 64, None);
            }
        }
        assert_eq!(c.assigned_count(), 8);
        // Assignments alternate between the two extras.
        let counts: Vec<usize> = (0..2)
            .map(|k| c.assignment.iter().filter(|(_, v)| **v == k).count())
            .collect();
        assert_eq!(counts, vec![4, 4]);
    }

    #[test]
    fn ownership_migrates_to_the_component_that_served_the_hit() {
        let mut c = Composite::new(
            Box::new(ClaimingBase(0)),
            vec![
                (
                    Origin(40),
                    Box::new(Probe {
                        origin: Origin(40),
                        seen: Vec::new(),
                    }) as _,
                ),
                (
                    Origin(41),
                    Box::new(Probe {
                        origin: Origin(41),
                        seen: Vec::new(),
                    }) as _,
                ),
            ],
        );
        // pc 0x300 initially assigned round-robin (extra 0).
        drive(&mut c, 0x300, 0x8000, None);
        assert_eq!(c.assignment.peek(0x300), Some(&0));
        // A hit served by extra 1's tagged line migrates ownership.
        drive(&mut c, 0x300, 0x8040, Some(Origin(41)));
        assert_eq!(c.assignment.peek(0x300), Some(&1));
        // Hits served by unknown origins change nothing.
        drive(&mut c, 0x300, 0x8080, Some(Origin(99)));
        assert_eq!(c.assignment.peek(0x300), Some(&1));
    }

    #[test]
    fn useless_extra_gets_gated() {
        // An extra that issues constantly but never earns a hit must be
        // suppressed after the measurement window.
        let mut c = Composite::with_extra(
            Box::new(ClaimingBase(0)),
            Origin(40),
            Box::new(Probe {
                origin: Origin(40),
                seen: Vec::new(),
            }),
        );
        let mut total = 0usize;
        for i in 0..4000u64 {
            let out = drive(&mut c, 0x300, 0x8000 + i * 4096, None);
            total += out.len();
        }
        // The probe wants to issue on all 4000 events; the gate must cut
        // that down hard after the first 1024-issue window.
        assert!(
            total < 1600,
            "gate must suppress a 0%-accuracy extra: {total} issued"
        );
    }

    #[test]
    fn useful_extra_stays_active() {
        // An extra whose lines keep serving demand hits is never gated.
        let mut c = Composite::with_extra(
            Box::new(ClaimingBase(0)),
            Origin(40),
            Box::new(Probe {
                origin: Origin(40),
                seen: Vec::new(),
            }),
        );
        let mut total = 0usize;
        for i in 0..4000u64 {
            // Every access reports a first-use hit on the extra's line.
            let out = drive(&mut c, 0x300, 0x8000 + i * 64, Some(Origin(40)));
            total += out.len();
        }
        assert_eq!(total, 4000, "a fully-useful extra must never be suppressed");
    }

    #[test]
    fn gated_extra_is_reprobed_after_backoff() {
        let mut c = Composite::with_extra(
            Box::new(ClaimingBase(0)),
            Origin(40),
            Box::new(Probe {
                origin: Origin(40),
                seen: Vec::new(),
            }),
        );
        // Get it suppressed.
        for i in 0..2000u64 {
            drive(&mut c, 0x300, 0x8000 + i * 4096, None);
        }
        // Run past the backoff window (16 K events); the extra must issue
        // again at some point (probation).
        let mut reissued = false;
        for i in 0..20_000u64 {
            let out = drive(&mut c, 0x300, 0x10_0000 + i * 4096, None);
            if !out.is_empty() {
                reissued = true;
            }
        }
        assert!(reissued, "suppression must expire and re-probe");
    }

    #[test]
    fn footprint_stays_bounded_under_millions_of_unique_pcs() {
        // Regression guard for the coordinator's per-PC state: a stream
        // with far more distinct (never-repeating) PCs than the tables
        // hold must leave the footprint pinned at the configured
        // capacities, never growing with the workload.
        let mut c = Composite::with_extra(
            Box::new(ClaimingBase(u64::MAX)), // claims nothing reachable
            Origin(40),
            Box::new(Probe {
                origin: Origin(40),
                seen: Vec::new(),
            }),
        );
        let cap = Composite::ASSIGNMENT_ENTRIES;
        for i in 0..2_000_000u64 {
            // Unique, low-bit-aliasing-hostile PCs.
            let pc = i.wrapping_mul(0x100_0001) | 1;
            drive(&mut c, pc, 0x8000 + (i % 1024) * 64, None);
            assert!(c.assigned_count() <= cap);
        }
        assert_eq!(
            c.assigned_count(),
            cap,
            "assignment table must sit exactly at capacity"
        );
        assert!(c.sticky_count() <= Composite::STICKY_ENTRIES);
    }

    #[test]
    fn sticky_claims_stay_bounded_under_millions_of_claimed_pcs() {
        /// A base that claims every pc — worst case for the sticky table.
        struct ClaimAll;
        impl Prefetcher for ClaimAll {
            fn name(&self) -> &str {
                "claim-all"
            }
            fn storage_bits(&self) -> u64 {
                0
            }
            fn on_retire(&mut self, _: &RetireInfo<'_>, _: &mut Vec<PrefetchRequest>) {}
            fn claims_pc(&self, _: u64) -> bool {
                true
            }
        }
        let mut c = Composite::with_extra(
            Box::new(ClaimAll),
            Origin(40),
            Box::new(Probe {
                origin: Origin(40),
                seen: Vec::new(),
            }),
        );
        for i in 0..2_000_000u64 {
            let pc = i.wrapping_mul(0x100_0001) | 1;
            let (inst, access) = mem_event(pc, 0x8000 + (i % 1024) * 64, None);
            let ev = RetireInfo {
                now: 0,
                inst: &inst,
                mpc: pc,
                access: Some(access),
            };
            let mut out = Vec::new();
            c.on_retire(&ev, &mut out);
        }
        assert_eq!(
            c.sticky_count(),
            Composite::STICKY_ENTRIES,
            "sticky-claim table must sit exactly at capacity"
        );
        assert_eq!(c.assigned_count(), 0);
    }

    #[test]
    fn name_and_storage_compose() {
        let c = Composite::with_extra(
            Box::new(ClaimingBase(0)),
            Origin(40),
            Box::new(Probe {
                origin: Origin(40),
                seen: Vec::new(),
            }),
        );
        assert_eq!(c.name(), "base+probe");
        assert_eq!(c.storage_bits(), 1100);
    }

    #[test]
    fn prefetch_completions_route_by_origin() {
        struct Completer {
            origin: Origin,
            completions: u32,
        }
        #[allow(dead_code)] // observability helpers for future assertions
        impl Completer {
            fn check(&self) -> (Origin, u32) {
                (self.origin, self.completions)
            }
        }
        impl Prefetcher for Completer {
            fn name(&self) -> &str {
                "completer"
            }
            fn storage_bits(&self) -> u64 {
                0
            }
            fn on_retire(&mut self, _: &RetireInfo<'_>, _: &mut Vec<PrefetchRequest>) {}
            fn on_prefetch_complete(
                &mut self,
                _pf: &CompletedPrefetch,
                _out: &mut Vec<PrefetchRequest>,
            ) {
                self.completions += 1;
            }
        }
        let mut c = Composite::with_extra(
            Box::new(ClaimingBase(0)),
            Origin(40),
            Box::new(Completer {
                origin: Origin(40),
                completions: 0,
            }),
        );
        let mut out = Vec::new();
        c.on_prefetch_complete(
            &CompletedPrefetch {
                now: 0,
                addr: 0x40,
                origin: Origin(40),
                value: 0,
            },
            &mut out,
        );
        c.on_prefetch_complete(
            &CompletedPrefetch {
                now: 0,
                addr: 0x40,
                origin: Origin(99),
                value: 0,
            },
            &mut out,
        );
        assert!(out.is_empty());
        // Only the matching-origin completion reached the extra.
        let (_, extra) = &c.extras[0];
        let _ = extra.name();
    }
}
