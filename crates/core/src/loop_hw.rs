//! Loop-identification hardware (the paper's Sec. IV-A1).
//!
//! Canonical strided streams are generated by repetition of the same
//! static instruction inside an inner loop, so T2 first marks iteration
//! boundaries. The hardware watches taken *backward* branches: when the
//! same backward branch retires back-to-back (no other backward branch in
//! between), it is the loop branch. Backward branches that intersperse
//! another branch's back-to-back pattern are remembered in the Non-Loop
//! PC Table (NLPCT) and skipped thereafter.

/// Non-Loop PC Table capacity: the paper's 20-entry NLPCT (Table II).
const NLPCT_ENTRIES: usize = 20;

/// Weight (a power of two) of the per-iteration time EMA: each new
/// iteration moves the estimate by 1/4. The paper does not give the
/// smoothing; this is the model's choice.
const T_ITER_EMA_SHIFT: u32 = 2;

/// An identified inner loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveLoop {
    /// PC of the loop branch.
    pub branch_pc: u64,
    /// Target of the loop branch (the loop head).
    pub head: u64,
    /// Smoothed execution time per iteration, in Q4 fixed point
    /// (cycles × 16) — integer-truncated EMAs overestimate short
    /// iterations badly, and the prefetch distance divides by this.
    pub t_iter_q4: u64,
    /// Iterations observed since identification.
    pub iterations: u64,
}

impl ActiveLoop {
    /// Smoothed cycles per iteration (≥ 1).
    pub fn t_iter(&self) -> u64 {
        (self.t_iter_q4 >> 4).max(1)
    }

    /// Smoothed cycles per iteration in Q4 fixed point (≥ 1).
    pub fn t_iter_q4(&self) -> u64 {
        self.t_iter_q4.max(1)
    }

    /// Folds an iteration that took `dt` cycles into the estimate.
    fn close_iteration(&mut self, dt: u64) {
        let shift = T_ITER_EMA_SHIFT;
        self.t_iter_q4 = self.t_iter_q4 - (self.t_iter_q4 >> shift) + ((dt << 4) >> shift);
        self.iterations += 1;
    }
}

/// The loop-branch register, NLPCT, and iteration timer.
#[derive(Debug, Clone)]
pub struct LoopHardware {
    /// The loop-branch register: candidate (pc, target).
    lbr: Option<(u64, u64)>,
    /// The candidate displaced by the most recent mismatch, to recognize
    /// the `Y X Y` interspersal pattern that convicts `X` as a non-loop
    /// branch.
    prev: Option<(u64, u64)>,
    nlpct: Vec<u64>,
    active: Option<ActiveLoop>,
    last_boundary: u64,
}

impl LoopHardware {
    /// Creates the hardware with no loop identified.
    pub fn new() -> Self {
        LoopHardware {
            lbr: None,
            prev: None,
            nlpct: Vec::with_capacity(NLPCT_ENTRIES),
            active: None,
            last_boundary: 0,
        }
    }

    /// The currently-identified inner loop, if any.
    pub fn active_loop(&self) -> Option<&ActiveLoop> {
        self.active.as_ref()
    }

    /// Whether `pc` sits in the NLPCT.
    pub fn is_non_loop(&self, pc: u64) -> bool {
        self.nlpct.contains(&pc)
    }

    /// Storage cost in bits: NLPCT PCs (32b each) + loop-branch register
    /// (2 × 32b) + timer state.
    pub fn storage_bits(&self) -> u64 {
        NLPCT_ENTRIES as u64 * 32 + 2 * 32 + 64
    }

    fn remember_non_loop(&mut self, pc: u64) {
        if self.nlpct.contains(&pc) {
            return;
        }
        if self.nlpct.len() == NLPCT_ENTRIES {
            self.nlpct.remove(0); // FIFO
        }
        self.nlpct.push(pc);
    }

    /// Feed one retired, *taken backward* branch. `now` is the retire
    /// cycle. Returns `true` when this branch closes an iteration of the
    /// identified loop (an iteration boundary).
    pub fn on_backward_branch(&mut self, pc: u64, target: u64, now: u64) -> bool {
        if self.is_non_loop(pc) {
            return false;
        }
        let cur = (pc, target);
        match self.lbr {
            Some(lbr) if lbr == cur => {
                // Back-to-back instance: this is the loop branch.
                let dt = now.saturating_sub(self.last_boundary).max(1);
                self.last_boundary = now;
                match &mut self.active {
                    Some(a) if a.branch_pc == pc => a.close_iteration(dt),
                    _ => {
                        self.active = Some(ActiveLoop {
                            branch_pc: pc,
                            head: target,
                            t_iter_q4: dt << 4,
                            iterations: 1,
                        });
                    }
                }
                self.prev = None;
                true
            }
            Some(lbr) => {
                // A different backward branch interrupted the candidate.
                if self.prev == Some(cur) {
                    // Pattern cur, lbr, cur: `lbr` intersperses cur's
                    // iterations — convict lbr as a non-loop branch.
                    self.remember_non_loop(lbr.0);
                    self.lbr = Some(cur);
                    self.prev = None;
                    // cur resumed back-to-back around the convicted branch.
                    let dt = now.saturating_sub(self.last_boundary).max(1);
                    self.last_boundary = now;
                    if let Some(a) = &mut self.active {
                        if a.branch_pc == pc {
                            a.close_iteration(dt);
                            return true;
                        }
                    }
                    false
                } else {
                    self.prev = Some(lbr);
                    self.lbr = Some(cur);
                    self.last_boundary = now;
                    false
                }
            }
            None => {
                self.lbr = Some(cur);
                self.last_boundary = now;
                false
            }
        }
    }
}

impl Default for LoopHardware {
    fn default() -> Self {
        LoopHardware::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_branch_identifies_loop() {
        let mut lh = LoopHardware::default();
        assert!(!lh.on_backward_branch(0x100, 0x80, 100));
        assert!(lh.on_backward_branch(0x100, 0x80, 200));
        let l = lh.active_loop().expect("loop identified");
        assert_eq!(l.branch_pc, 0x100);
        assert_eq!(l.head, 0x80);
        assert_eq!(l.t_iter(), 100);
    }

    #[test]
    fn t_iter_converges_to_period() {
        let mut lh = LoopHardware::default();
        let mut now = 0;
        for _ in 0..100 {
            now += 50;
            lh.on_backward_branch(0x100, 0x80, now);
        }
        let t = lh.active_loop().unwrap().t_iter();
        assert!((40..=60).contains(&t), "EMA near 50, got {t}");
    }

    #[test]
    fn interspersed_branch_is_convicted_non_loop() {
        let mut lh = LoopHardware::default();
        // Pattern: loop branch A, inner body branch B, A, B, A, ...
        let mut now = 0;
        let mut boundaries = 0;
        for _ in 0..10 {
            now += 10;
            if lh.on_backward_branch(0xB00, 0xA80, now) {
                boundaries += 1;
            }
            now += 10;
            if lh.on_backward_branch(0xA00, 0x980, now) {
                boundaries += 1;
            }
        }
        // One of the two ends up in the NLPCT and the other is the loop.
        assert!(lh.is_non_loop(0xB00) ^ lh.is_non_loop(0xA00));
        assert!(
            boundaries >= 5,
            "loop boundaries detected, got {boundaries}"
        );
        assert!(lh.active_loop().is_some());
    }

    #[test]
    fn nlpct_branches_are_skipped() {
        let mut lh = LoopHardware::default();
        // Convict 0xB00.
        lh.on_backward_branch(0xA00, 0x980, 0);
        lh.on_backward_branch(0xB00, 0xA80, 10);
        lh.on_backward_branch(0xA00, 0x980, 20);
        lh.on_backward_branch(0xB00, 0xA80, 30);
        lh.on_backward_branch(0xA00, 0x980, 40);
        let convicted = if lh.is_non_loop(0xB00) { 0xB00 } else { 0xA00 };
        assert!(
            !lh.on_backward_branch(convicted, 0x1, 50),
            "ignored thereafter"
        );
    }

    #[test]
    fn nlpct_capacity_is_fifo() {
        let mut lh = LoopHardware::new();
        // Convict one branch more than the table holds, via the direct
        // insertion path.
        let last = NLPCT_ENTRIES as u64 + 1;
        for pc in 1..=last {
            lh.remember_non_loop(pc);
        }
        assert!(!lh.is_non_loop(1), "oldest evicted");
        assert!((2..=last).all(|pc| lh.is_non_loop(pc)));
    }

    #[test]
    fn switching_loops_retargets() {
        let mut lh = LoopHardware::default();
        lh.on_backward_branch(0x100, 0x80, 0);
        lh.on_backward_branch(0x100, 0x80, 10);
        assert_eq!(lh.active_loop().unwrap().branch_pc, 0x100);
        // New loop elsewhere.
        lh.on_backward_branch(0x500, 0x480, 100);
        lh.on_backward_branch(0x500, 0x480, 110);
        assert_eq!(lh.active_loop().unwrap().branch_pc, 0x500);
    }
}
