//! Branch prediction: gshare direction predictor, BTB for computed
//! targets, and a return-address stack.
//!
//! Table 2 specifies a "32K Gshare" (32 768 two-bit counters, 15-bit
//! global history). The RAS top-of-stack is checkpointed per branch and
//! restored on misprediction recovery.
//!
//! Prediction outcomes accumulate in
//! [`CpuStats`](crate::stats::CpuStats) and export as the
//! `cpu.branches.*` metrics (Figs. 8/9 — see `docs/METRICS.md`).

use rev_trace::{CkptError, CkptReader, CkptWriter};

/// Predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Number of 2-bit gshare counters (power of two; Table 2: 32K).
    pub gshare_entries: usize,
    /// BTB entries (direct-mapped, tagged).
    pub btb_entries: usize,
    /// Return-address-stack depth.
    pub ras_depth: usize,
}

impl PredictorConfig {
    /// The paper's Table 2 predictor.
    pub fn paper_default() -> Self {
        PredictorConfig { gshare_entries: 32 * 1024, btb_entries: 4096, ras_depth: 32 }
    }
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A snapshot of speculative predictor state taken at a branch, used to
/// repair the RAS and history on misprediction. Every in-flight ROB slot
/// carries one, so the RAS position is held in `u32`s: that keeps a slot
/// at 128 bytes, which rustc copies inline instead of through `memmove`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorCheckpoint {
    history: u64,
    ras_tos: u32,
    ras_count: u32,
}

impl PredictorCheckpoint {
    /// Rejects a RAS position a predictor of depth `ras_depth` could never
    /// hold (a restored one would index past the stack on the next push).
    ///
    /// # Errors
    ///
    /// [`CkptError::Malformed`] when the position is out of range.
    pub(crate) fn check_ras(&self, ras_depth: usize) -> Result<(), CkptError> {
        check_ras_position(self.ras_tos as usize, self.ras_count as usize, ras_depth)
    }
}

fn check_ras_position(tos: usize, count: usize, depth: usize) -> Result<(), CkptError> {
    if tos >= depth || count > depth {
        return Err(CkptError::Malformed(format!(
            "RAS position {tos}/{count} out of range for depth {depth}"
        )));
    }
    Ok(())
}

/// A checkpoint's `u32` RAS position travels as the `u64` that
/// every `rev-ckpt` version has carried for it; a wider value is malformed.
struct RasPosition;

impl RasPosition {
    const MIN_BYTES: usize = 8;

    fn save(v: &u32, w: &mut CkptWriter) {
        w.u64(u64::from(*v));
    }

    fn load(r: &mut CkptReader<'_>) -> Result<u32, CkptError> {
        let v = r.u64()?;
        u32::try_from(v)
            .map_err(|_| CkptError::Malformed(format!("RAS position {v} overflows u32")))
    }
}

rev_trace::ckpt_fields!(Ckpt for PredictorCheckpoint {
    history, ras_tos => RasPosition, ras_count => RasPosition,
});

/// The front-end branch predictor.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    config: PredictorConfig,
    counters: Vec<u8>,
    history: u64,
    history_mask: u64,
    btb: Vec<(u64, u64)>, // (tag=pc, target); tag 0 = empty
    ras: Vec<u64>,
    ras_tos: usize,   // next push slot
    ras_count: usize, // valid entries
}

impl BranchPredictor {
    /// Creates a predictor.
    ///
    /// # Panics
    ///
    /// Panics if `gshare_entries` or `btb_entries` is not a power of two,
    /// or if `ras_depth` exceeds `u32::MAX` (checkpoints hold RAS
    /// positions in `u32`s).
    pub fn new(config: PredictorConfig) -> Self {
        assert!(config.gshare_entries.is_power_of_two());
        assert!(config.btb_entries.is_power_of_two());
        assert!(u32::try_from(config.ras_depth).is_ok(), "RAS depth must fit a u32");
        BranchPredictor {
            config,
            counters: vec![1; config.gshare_entries], // weakly not-taken
            history: 0,
            history_mask: config.gshare_entries as u64 - 1,
            btb: vec![(0, 0); config.btb_entries],
            ras: vec![0; config.ras_depth],
            ras_tos: 0,
            ras_count: 0,
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> PredictorConfig {
        self.config
    }

    #[inline]
    fn gshare_index(&self, pc: u64) -> usize {
        (((pc >> 1) ^ self.history) & self.history_mask) as usize
    }

    /// Predicts the direction of a conditional branch at `pc`. The caller
    /// is responsible for updating the history with [`Self::push_history`]
    /// (the resolved outcome on the correct path, the prediction on a
    /// wrong path — matching a speculative-history front end with repair).
    #[inline]
    pub fn predict_cond(&self, pc: u64) -> bool {
        let idx = self.gshare_index(pc);
        self.counters[idx] >= 2
    }

    /// Shifts an outcome into the global history.
    #[inline]
    pub fn push_history(&mut self, taken: bool) {
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
    }

    /// Trains the direction predictor with the resolved outcome.
    #[inline]
    pub fn update_cond(&mut self, pc: u64, taken: bool, history_at_predict: u64) {
        let idx = (((pc >> 1) ^ history_at_predict) & self.history_mask) as usize;
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Current speculative global history (captured before a prediction
    /// for later training/repair).
    #[inline]
    pub fn history(&self) -> u64 {
        self.history
    }

    /// Predicts the target of a computed jump/call at `pc` via the BTB.
    #[inline]
    pub fn predict_indirect(&self, pc: u64) -> Option<u64> {
        let slot = &self.btb[(pc as usize >> 1) & (self.config.btb_entries - 1)];
        (slot.0 == pc).then_some(slot.1)
    }

    /// Installs/updates a BTB entry.
    #[inline]
    pub fn update_indirect(&mut self, pc: u64, target: u64) {
        let idx = (pc as usize >> 1) & (self.config.btb_entries - 1);
        self.btb[idx] = (pc, target);
    }

    /// Pushes a return address (on call fetch).
    #[inline]
    pub fn ras_push(&mut self, ret_addr: u64) {
        self.ras[self.ras_tos] = ret_addr;
        self.ras_tos = (self.ras_tos + 1) % self.config.ras_depth;
        self.ras_count = (self.ras_count + 1).min(self.config.ras_depth);
    }

    /// Pops a predicted return address (on return fetch).
    #[inline]
    pub fn ras_pop(&mut self) -> Option<u64> {
        if self.ras_count == 0 {
            return None;
        }
        self.ras_tos = (self.ras_tos + self.config.ras_depth - 1) % self.config.ras_depth;
        self.ras_count -= 1;
        Some(self.ras[self.ras_tos])
    }

    /// Snapshots speculative state (history + RAS position).
    #[inline]
    pub fn checkpoint(&self) -> PredictorCheckpoint {
        // Both positions are at most `ras_depth`, which `new` bounds to u32.
        PredictorCheckpoint {
            history: self.history,
            ras_tos: self.ras_tos as u32,
            ras_count: self.ras_count as u32,
        }
    }

    /// Checks restored tables against this predictor's configuration and
    /// masks the history to its width.
    fn check_restored(&mut self) -> Result<(), CkptError> {
        let mismatch = |what: &str, got: usize, want: usize| {
            Err(CkptError::Malformed(format!("predictor {what} size {got}, expected {want}")))
        };
        self.history &= self.history_mask;
        if self.counters.len() != self.config.gshare_entries {
            return mismatch("gshare", self.counters.len(), self.config.gshare_entries);
        }
        if let Some(&v) = self.counters.iter().find(|&&c| c > 3) {
            return Err(CkptError::Malformed(format!("gshare counter {v}")));
        }
        if self.ras.len() != self.config.ras_depth {
            return mismatch("RAS", self.ras.len(), self.config.ras_depth);
        }
        check_ras_position(self.ras_tos, self.ras_count, self.config.ras_depth)
    }

    /// Restores a snapshot after a squash, then folds in the actual
    /// outcome of the resolving branch.
    #[inline]
    pub fn restore(&mut self, cp: PredictorCheckpoint, resolved_taken: Option<bool>) {
        self.history = cp.history;
        self.ras_tos = cp.ras_tos as usize;
        self.ras_count = cp.ras_count as usize;
        if let Some(taken) = resolved_taken {
            self.push_history(taken);
        }
    }
}

/// The BTB's trained entries: an untrained `(0, 0)` entry restores as
/// itself, so only the others travel.
struct BtbEntries;

impl rev_trace::SparseTable for BtbEntries {
    type Slot = (u64, u64);

    fn occupied(entry: &(u64, u64)) -> bool {
        *entry != (0, 0)
    }
}

// The full predictor state: global history, gshare counters, BTB, RAS.
rev_trace::ckpt_fields!(CkptFields for BranchPredictor {
    history, counters, btb => rev_trace::Sparse<BtbEntries>, ras, ras_tos, ras_count,
} then BranchPredictor::check_restored);

#[cfg(test)]
mod tests {
    use super::*;

    fn bp() -> BranchPredictor {
        BranchPredictor::new(PredictorConfig {
            gshare_entries: 1024,
            btb_entries: 64,
            ras_depth: 4,
        })
    }

    #[test]
    fn gshare_learns_always_taken() {
        let mut p = bp();
        let pc = 0x1000;
        for _ in 0..30 {
            let h = p.history();
            let _ = p.predict_cond(pc);
            p.push_history(true);
            p.update_cond(pc, true, h);
        }
        // After saturation the predictor should say taken.
        assert!(p.predict_cond(pc));
    }

    #[test]
    fn gshare_learns_alternating_with_history() {
        let mut p = bp();
        let pc = 0x2000;
        let mut correct = 0;
        let mut outcome = false;
        for i in 0..200 {
            let h = p.history();
            let pred = p.predict_cond(pc);
            outcome = !outcome; // strict alternation
            if pred == outcome && i >= 100 {
                correct += 1;
            }
            p.push_history(outcome);
            p.update_cond(pc, outcome, h);
        }
        assert!(correct > 90, "history should capture alternation, got {correct}/100");
    }

    #[test]
    fn btb_round_trip() {
        let mut p = bp();
        assert_eq!(p.predict_indirect(0x400), None);
        p.update_indirect(0x400, 0x9000);
        assert_eq!(p.predict_indirect(0x400), Some(0x9000));
    }

    /// The predictor's sealed state with the BTB section as given:
    /// history, counters, then `btb` (length, count, records), RAS.
    fn sealed_with_btb(p: &BranchPredictor, btb: &[(u32, (u64, u64))]) -> Vec<u8> {
        use rev_trace::Ckpt;
        let mut w = CkptWriter::new();
        p.history.save(&mut w);
        p.counters.save(&mut w);
        w.len(p.btb.len());
        w.len(btb.len());
        for &(pos, entry) in btb {
            w.u32(pos);
            entry.save(&mut w);
        }
        p.ras.save(&mut w);
        p.ras_tos.save(&mut w);
        p.ras_count.save(&mut w);
        w.finish()
    }

    fn load(env: &[u8]) -> Result<BranchPredictor, CkptError> {
        use rev_trace::CkptFields;
        let mut p = bp();
        let mut r = CkptReader::new(env)?;
        p.load_fields(&mut r)?;
        r.finish()?;
        Ok(p)
    }

    #[test]
    fn only_trained_btb_entries_travel() {
        use rev_trace::CkptFields;
        let mut p = bp();
        p.update_indirect(0x400, 0x9000);
        let mut w = CkptWriter::new();
        p.save_fields(&mut w);
        let env = w.finish();
        let slot = (0x400usize >> 1) & 63;
        assert_eq!(env, sealed_with_btb(&p, &[(slot as u32, (0x400, 0x9000))]));
        assert_eq!(load(&env).unwrap().predict_indirect(0x400), Some(0x9000));
    }

    #[test]
    fn a_listed_empty_btb_entry_is_malformed() {
        let err = load(&sealed_with_btb(&bp(), &[(3, (0, 0))])).unwrap_err();
        assert!(
            matches!(err, CkptError::Malformed(ref m) if m.contains("listed unoccupied")),
            "{err}"
        );
    }

    #[test]
    fn ras_lifo() {
        let mut p = bp();
        p.ras_push(0x10);
        p.ras_push(0x20);
        assert_eq!(p.ras_pop(), Some(0x20));
        assert_eq!(p.ras_pop(), Some(0x10));
        assert_eq!(p.ras_pop(), None);
    }

    #[test]
    fn ras_checkpoint_restore() {
        let mut p = bp();
        p.ras_push(0x10);
        let cp = p.checkpoint();
        p.ras_push(0x20);
        p.ras_pop();
        p.ras_pop();
        p.restore(cp, None);
        assert_eq!(p.ras_pop(), Some(0x10));
    }

    #[test]
    fn ras_wraps_at_depth() {
        let mut p = bp();
        for i in 0..6 {
            p.ras_push(i);
        }
        // Depth 4: only the last four survive.
        assert_eq!(p.ras_pop(), Some(5));
        assert_eq!(p.ras_pop(), Some(4));
        assert_eq!(p.ras_pop(), Some(3));
        assert_eq!(p.ras_pop(), Some(2));
        assert_eq!(p.ras_pop(), None);
    }
}
