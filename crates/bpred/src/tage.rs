use crate::bimodal::Bimodal;
use crate::history::{FoldedHistory, GlobalHistory};
use crate::traits::DirectionPredictor;
use crate::util::{mix64, SaturatingCounter};

/// Configuration of a [`Tage`] predictor.
///
/// The defaults ([`TageConfig::storage_64kb`]) approximate the 64KB
/// TAGE-SC-L budget the paper's front-end uses; smaller configurations
/// serve ablations.
#[derive(Debug, Clone)]
pub struct TageConfig {
    /// log2 entries of the bimodal base table.
    pub base_log2: u8,
    /// log2 entries of each tagged table.
    pub tagged_log2: u8,
    /// Tag width in bits for each tagged table.
    pub tag_bits: u8,
    /// Geometric history lengths, shortest first (one per tagged table).
    pub history_lengths: Vec<usize>,
    /// Period (in updates) between useful-bit decays.
    pub reset_period: u64,
    /// Enable the loop predictor component.
    pub loop_predictor: bool,
    /// Enable the statistical-corrector component.
    pub statistical_corrector: bool,
}

impl TageConfig {
    /// A ~64KB TAGE-SC-L configuration (the paper's §4 front-end).
    pub fn storage_64kb() -> TageConfig {
        TageConfig {
            base_log2: 14,
            tagged_log2: 10,
            tag_bits: 11,
            history_lengths: vec![4, 8, 16, 32, 64, 128, 256, 512],
            reset_period: 256 * 1024,
            loop_predictor: true,
            statistical_corrector: true,
        }
    }

    /// A small configuration for tests and quick ablations.
    pub fn storage_small() -> TageConfig {
        TageConfig {
            base_log2: 10,
            tagged_log2: 7,
            tag_bits: 8,
            history_lengths: vec![4, 10, 24, 60],
            reset_period: 16 * 1024,
            loop_predictor: false,
            statistical_corrector: false,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TaggedEntry {
    tag: u16,
    counter: i8, // signed 3-bit: -4..=3, taken when >= 0
    useful: u8,  // 2-bit
}

impl TaggedEntry {
    fn predicts_taken(&self) -> bool {
        self.counter >= 0
    }

    fn is_weak(&self) -> bool {
        self.counter == 0 || self.counter == -1
    }

    fn train(&mut self, taken: bool) {
        if taken {
            self.counter = (self.counter + 1).min(3);
        } else {
            self.counter = (self.counter - 1).max(-4);
        }
    }
}

#[derive(Debug, Clone)]
struct TaggedTable {
    entries: Vec<TaggedEntry>,
    index_fold: FoldedHistory,
    tag_fold_a: FoldedHistory,
    tag_fold_b: FoldedHistory,
    history_length: usize,
    index_mask: u64,
    tag_mask: u16,
}

impl TaggedTable {
    fn new(log2: u8, tag_bits: u8, history_length: usize) -> TaggedTable {
        let entries = 1usize << log2;
        TaggedTable {
            entries: vec![TaggedEntry::default(); entries],
            index_fold: FoldedHistory::new(history_length, log2 as usize),
            tag_fold_a: FoldedHistory::new(history_length, tag_bits as usize),
            tag_fold_b: FoldedHistory::new(history_length, (tag_bits as usize).max(2) - 1),
            history_length,
            index_mask: entries as u64 - 1,
            tag_mask: ((1u32 << tag_bits) - 1) as u16,
        }
    }

    /// Set index for a branch whose `mix64(pc >> 2)` is `pc_hash`
    /// (hoisted by the caller: the hash is identical for every table).
    fn index(&self, pc_hash: u64) -> usize {
        let h = pc_hash ^ self.index_fold.value() ^ (self.history_length as u64);
        (h & self.index_mask) as usize
    }

    fn tag(&self, pc: u64) -> u16 {
        let h = (pc >> 2) ^ self.tag_fold_a.value() ^ (self.tag_fold_b.value() << 1);
        (h as u16) & self.tag_mask
    }
}

/// Loop predictor: recognizes branches with constant trip counts.
#[derive(Debug, Clone, Copy, Default)]
struct LoopEntry {
    tag: u16,
    past_iter: u16,
    current_iter: u16,
    confidence: u8, // saturates at 3
    age: u8,
}

const LOOP_ENTRIES: usize = 64;
const LOOP_MAX_ITER: u16 = 1024;

/// TAGE with optional loop predictor and statistical corrector
/// (TAGE-SC-L as used in the recent branch-prediction championships).
///
/// The implementation keeps the structure of Seznec's design at reduced
/// code size: a bimodal base, tagged tables with geometrically increasing
/// history lengths, usefulness-guided allocation with periodic decay, an
/// alternate-prediction policy counter, a 64-entry loop predictor, and a
/// GEHL-style statistical corrector that can overturn low-confidence TAGE
/// outputs.
#[derive(Debug, Clone)]
pub struct Tage {
    base: Bimodal,
    tables: Vec<TaggedTable>,
    history: GlobalHistory,
    use_alt_on_na: SaturatingCounter,
    predictions: u64,
    updates: u64,
    reset_period: u64,
    // Prediction-time context, stashed between predict() and update().
    ctx: PredictionContext,
    // Loop predictor.
    loops: Option<Vec<LoopEntry>>,
    // Statistical corrector: per-table signed weights.
    sc: Option<ScState>,
    rng: u64,
}

/// Most tagged tables a [`TageConfig`] may request: the prediction
/// context caches one index and tag per table in fixed arrays.
pub(crate) const MAX_TAGGED_TABLES: usize = 16;

#[derive(Debug, Clone, Copy)]
struct PredictionContext {
    pc: u64,
    provider: Option<usize>,
    provider_index: usize,
    alt: Option<usize>,
    alt_index: usize,
    base_pred: bool,
    tage_pred: bool,
    final_pred: bool,
    used_loop: bool,
    loop_pred: bool,
    loop_index: usize,
    loop_tag: u16,
    sc_sum: i32,
    sc_idx: [usize; 3],
    /// Per-table set index / tag computed at prediction time, so the
    /// update path (provider training, allocation) never re-hashes.
    tbl_idx: [u32; MAX_TAGGED_TABLES],
    tbl_tag: [u16; MAX_TAGGED_TABLES],
}

impl Default for PredictionContext {
    fn default() -> PredictionContext {
        PredictionContext {
            // Sentinel: never matches a real branch PC, so a default
            // context is always recomputed rather than consumed.
            pc: u64::MAX,
            provider: None,
            provider_index: 0,
            alt: None,
            alt_index: 0,
            base_pred: false,
            tage_pred: false,
            final_pred: false,
            used_loop: false,
            loop_pred: false,
            loop_index: 0,
            loop_tag: 0,
            sc_sum: 0,
            sc_idx: [0; 3],
            tbl_idx: [0; MAX_TAGGED_TABLES],
            tbl_tag: [0; MAX_TAGGED_TABLES],
        }
    }
}

#[derive(Debug, Clone)]
struct ScState {
    tables: Vec<Vec<i8>>, // 3 tables of signed weights
    mask: u64,
    threshold: i32,
}

impl ScState {
    fn new() -> ScState {
        let size = 1usize << 12;
        ScState { tables: vec![vec![0i8; size]; 3], mask: size as u64 - 1, threshold: 6 }
    }

    /// Table indices from the branch's two PC hashes (`mix64(pc)` and
    /// `mix64(pc >> 2)`, hoisted by the caller and shared with the other
    /// components) and the current history.
    fn indices(&self, pc: u64, pc_hash: u64, pc_hash2: u64, hist: &GlobalHistory) -> [usize; 3] {
        let h0 = hist.low_bits(8);
        let h1 = hist.low_bits(16);
        [
            ((pc_hash ^ h0) & self.mask) as usize,
            ((mix64(pc.rotate_left(17)) ^ h1) & self.mask) as usize,
            (pc_hash2 & self.mask) as usize,
        ]
    }

    fn sum(&self, idx: [usize; 3], tage_taken: bool) -> i32 {
        let mut sum: i32 = if tage_taken { 4 } else { -4 };
        for (t, &i) in self.tables.iter().zip(idx.iter()) {
            sum += t[i] as i32;
        }
        sum
    }

    fn train(&mut self, idx: [usize; 3], taken: bool) {
        for (t, &i) in self.tables.iter_mut().zip(idx.iter()) {
            let w = &mut t[i];
            if taken {
                *w = (*w + 1).min(31);
            } else {
                *w = (*w - 1).max(-32);
            }
        }
    }
}

impl Tage {
    /// Builds a predictor from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no tagged tables or more than
    /// `MAX_TAGGED_TABLES` (16).
    pub fn new(config: TageConfig) -> Tage {
        assert!(!config.history_lengths.is_empty(), "TAGE needs at least one tagged table");
        assert!(
            config.history_lengths.len() <= MAX_TAGGED_TABLES,
            "TAGE supports at most {MAX_TAGGED_TABLES} tagged tables"
        );
        let max_hist = *config.history_lengths.iter().max().unwrap();
        let tables = config
            .history_lengths
            .iter()
            .map(|&len| TaggedTable::new(config.tagged_log2, config.tag_bits, len))
            .collect();
        Tage {
            base: Bimodal::new(1 << config.base_log2),
            tables,
            history: GlobalHistory::new(max_hist + 1),
            use_alt_on_na: SaturatingCounter::weak_low(4),
            predictions: 0,
            updates: 0,
            reset_period: config.reset_period,
            ctx: PredictionContext::default(),
            loops: config.loop_predictor.then(|| vec![LoopEntry::default(); LOOP_ENTRIES]),
            sc: config.statistical_corrector.then(ScState::new),
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// The paper's 64KB configuration.
    pub fn default_64kb() -> Tage {
        Tage::new(TageConfig::storage_64kb())
    }

    /// Loop-table slot and tag from the branch's `mix64(pc)` hash.
    fn loop_slot(pc_hash: u64) -> (usize, u16) {
        ((pc_hash as usize) % LOOP_ENTRIES, (pc_hash >> 32) as u16)
    }

    fn predict_internal(&mut self, pc: u64) -> PredictionContext {
        let mut ctx = PredictionContext { pc, ..PredictionContext::default() };
        ctx.base_pred = self.base.counter(pc).is_high();
        // Both PC hashes are branch-invariant across tables and
        // components; hash once here instead of once per consumer.
        let pc_hash = mix64(pc);
        let pc_hash2 = mix64(pc >> 2);

        // Find provider (longest history hit) and alternate (next hit),
        // stashing each scanned table's index and tag for the update
        // path. Allocation only ever looks at tables above the provider,
        // which are all scanned before the loop can break.
        for (i, table) in self.tables.iter().enumerate().rev() {
            let idx = table.index(pc_hash2);
            let tag = table.tag(pc);
            ctx.tbl_idx[i] = idx as u32;
            ctx.tbl_tag[i] = tag;
            if table.entries[idx].tag == tag {
                if ctx.provider.is_none() {
                    ctx.provider = Some(i);
                    ctx.provider_index = idx;
                } else if ctx.alt.is_none() {
                    ctx.alt = Some(i);
                    ctx.alt_index = idx;
                    break;
                }
            }
        }

        let alt_pred = match ctx.alt {
            Some(t) => self.tables[t].entries[ctx.alt_index].predicts_taken(),
            None => ctx.base_pred,
        };
        ctx.tage_pred = match ctx.provider {
            Some(t) => {
                let entry = &self.tables[t].entries[ctx.provider_index];
                // Newly allocated, weak entries defer to the alternate
                // prediction when the policy counter says so.
                if entry.is_weak() && entry.useful == 0 && self.use_alt_on_na.is_high() {
                    alt_pred
                } else {
                    entry.predicts_taken()
                }
            }
            None => ctx.base_pred,
        };
        ctx.final_pred = ctx.tage_pred;

        // Statistical corrector: overturn low-confidence predictions.
        if let Some(sc) = &self.sc {
            let idx = sc.indices(pc, pc_hash, pc_hash2, &self.history);
            let sum = sc.sum(idx, ctx.tage_pred);
            ctx.sc_idx = idx;
            ctx.sc_sum = sum;
            if sum.abs() >= sc.threshold {
                ctx.final_pred = sum >= 0;
            }
        }

        // Loop predictor: overrides everything at high confidence.
        if let Some(loops) = &self.loops {
            let (slot, tag) = Tage::loop_slot(pc_hash);
            ctx.loop_index = slot;
            ctx.loop_tag = tag;
            let e = &loops[slot];
            if e.tag == tag && e.confidence == 3 && e.past_iter > 0 {
                ctx.used_loop = true;
                ctx.loop_pred = e.current_iter + 1 != e.past_iter;
                ctx.final_pred = ctx.loop_pred;
            }
        }
        ctx
    }

    fn update_loop(&mut self, slot: usize, tag: u16, taken: bool) {
        let Some(loops) = &mut self.loops else { return };
        let e = &mut loops[slot];
        if e.tag == tag {
            if taken {
                e.current_iter += 1;
                if e.current_iter > LOOP_MAX_ITER {
                    // Too long to track; retire the entry.
                    *e = LoopEntry::default();
                }
            } else {
                // Loop exit: check the trip count.
                let trip = e.current_iter + 1;
                if e.past_iter == trip {
                    e.confidence = (e.confidence + 1).min(3);
                } else if e.past_iter == 0 {
                    e.past_iter = trip;
                } else {
                    // Irregular loop; age out.
                    e.confidence = 0;
                    e.past_iter = trip;
                }
                e.current_iter = 0;
            }
        } else if !taken {
            // Seed a new entry on a not-taken outcome if the slot is cold.
            if e.age == 0 {
                *e = LoopEntry { tag, past_iter: 0, current_iter: 0, confidence: 0, age: 3 };
            } else {
                e.age -= 1;
            }
        }
    }
}

/// Allocates a longer-history entry after a provider misprediction.
///
/// A free function over the split-out fields so the caller can keep
/// borrowing `ctx` from `self` while the tables mutate.
fn allocate(tables: &mut [TaggedTable], rng: &mut u64, ctx: &PredictionContext, taken: bool) {
    // Allocate into a table with longer history than the provider,
    // preferring entries with zero usefulness.
    let start = ctx.provider.map_or(0, |p| p + 1);
    if start >= tables.len() {
        return;
    }
    // Randomize the starting candidate slightly, as TAGE does, so
    // allocations spread across tables.
    let skip = (xorshift64(rng) & 1) as usize;
    let mut allocated = false;
    for t in (start + skip.min(tables.len() - start - 1))..tables.len() {
        let idx = ctx.tbl_idx[t] as usize;
        let entry = &mut tables[t].entries[idx];
        if entry.useful == 0 {
            *entry =
                TaggedEntry { tag: ctx.tbl_tag[t], counter: if taken { 0 } else { -1 }, useful: 0 };
            allocated = true;
            break;
        }
    }
    if !allocated {
        // Global contention: decay usefulness so future allocations
        // succeed.
        for (t, table) in tables.iter_mut().enumerate().skip(start) {
            let e = &mut table.entries[ctx.tbl_idx[t] as usize];
            e.useful = e.useful.saturating_sub(1);
        }
    }
}

/// xorshift64* step — deterministic allocation tie-breaking.
fn xorshift64(rng: &mut u64) -> u64 {
    let mut x = *rng;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *rng = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

impl DirectionPredictor for Tage {
    fn predict(&mut self, pc: u64) -> bool {
        self.predictions += 1;
        self.ctx = self.predict_internal(pc);
        self.ctx.final_pred
    }

    fn export_telemetry(&self, registry: &mut telemetry::Registry) {
        registry.counter(&telemetry::catalog::BPRED_DIRECTION_PREDICTIONS, self.predictions);
        registry.counter(&telemetry::catalog::BPRED_DIRECTION_UPDATES, self.updates);
    }

    fn update(&mut self, pc: u64, taken: bool) {
        // predict() may be skipped by callers that already know the
        // outcome path; recompute the context if it is stale.
        if self.ctx.pc != pc {
            self.ctx = self.predict_internal(pc);
        }
        self.updates += 1;

        // Loop predictor trains on every conditional branch.
        self.update_loop(self.ctx.loop_index, self.ctx.loop_tag, taken);

        // Statistical corrector trains when its decision was used or weak.
        if let Some(sc) = &mut self.sc {
            if self.ctx.sc_sum.abs() <= sc.threshold * 4 {
                sc.train(self.ctx.sc_idx, taken);
            }
        }

        // Provider update. `self.ctx` stays borrowed in place — the
        // context is large enough that copying it out costs more than
        // the whole table update.
        let alt_pred = match self.ctx.alt {
            Some(t) => self.tables[t].entries[self.ctx.alt_index].predicts_taken(),
            None => self.ctx.base_pred,
        };
        match self.ctx.provider {
            Some(t) => {
                let provider_pred;
                {
                    let entry = &mut self.tables[t].entries[self.ctx.provider_index];
                    provider_pred = entry.predicts_taken();
                    // use_alt_on_na policy training on weak new entries.
                    if entry.is_weak() && entry.useful == 0 && provider_pred != alt_pred {
                        self.use_alt_on_na.train(alt_pred == taken);
                    }
                    entry.train(taken);
                    if provider_pred != alt_pred {
                        if provider_pred == taken {
                            entry.useful = (entry.useful + 1).min(3);
                        } else {
                            entry.useful = entry.useful.saturating_sub(1);
                        }
                    }
                }
                // Also train the base when the provider was freshly weak.
                if alt_pred == self.ctx.base_pred && self.ctx.alt.is_none() {
                    self.base.train(pc, taken);
                }
                if provider_pred != taken {
                    allocate(&mut self.tables, &mut self.rng, &self.ctx, taken);
                }
            }
            None => {
                self.base.train(pc, taken);
                if self.ctx.base_pred != taken {
                    allocate(&mut self.tables, &mut self.rng, &self.ctx, taken);
                }
            }
        }

        // Periodic useful-bit decay.
        if self.updates.is_multiple_of(self.reset_period) {
            for table in &mut self.tables {
                for e in &mut table.entries {
                    e.useful /= 2;
                }
            }
        }

        // Advance history and all folded mirrors.
        for table in &mut self.tables {
            let outgoing = self.history.bit(table.history_length - 1);
            table.index_fold.push(taken, outgoing);
            table.tag_fold_a.push(taken, outgoing);
            table.tag_fold_b.push(taken, outgoing);
        }
        self.history.push(taken);
        // Invalidate without rewriting the whole context.
        self.ctx.pc = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy(mut predictor: Tage, outcomes: impl Iterator<Item = (u64, bool)>) -> f64 {
        let mut total = 0u64;
        let mut correct = 0u64;
        for (pc, taken) in outcomes {
            if predictor.predict(pc) == taken {
                correct += 1;
            }
            predictor.update(pc, taken);
            total += 1;
        }
        correct as f64 / total as f64
    }

    #[test]
    fn learns_strong_bias() {
        let acc = accuracy(
            Tage::new(TageConfig::storage_small()),
            (0..2000).map(|i| (0x400 + (i % 7) * 4, true)),
        );
        assert!(acc > 0.95, "biased branches must be easy: {acc}");
    }

    #[test]
    fn learns_history_pattern() {
        // Period-3 pattern T,T,N — requires history, impossible for
        // bimodal (which would reach ~2/3).
        let pattern = [true, true, false];
        let acc = accuracy(
            Tage::new(TageConfig::storage_small()),
            (0..6000).map(|i| (0x400, pattern[i % 3])),
        );
        assert!(acc > 0.90, "TAGE should learn a short pattern: {acc}");
    }

    #[test]
    fn loop_predictor_catches_constant_trip_count() {
        // A loop with 37 iterations: taken 36 times then not taken.
        let mut outcomes = Vec::new();
        for _ in 0..120 {
            for i in 0..37 {
                outcomes.push((0x800u64, i != 36));
            }
        }
        let with_loop = accuracy(
            Tage::new(TageConfig { loop_predictor: true, ..TageConfig::storage_small() }),
            outcomes.iter().copied(),
        );
        assert!(with_loop > 0.97, "loop predictor should nail trip counts: {with_loop}");
    }

    #[test]
    fn random_outcomes_hover_near_chance() {
        let mut state = 12345u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 63 == 1
        };
        let acc = accuracy(
            Tage::new(TageConfig::storage_small()),
            (0..4000).map(move |_| (0x400, next())),
        );
        assert!(acc < 0.65, "nothing should predict randomness: {acc}");
    }

    #[test]
    fn full_config_constructs_and_predicts() {
        let mut t = Tage::default_64kb();
        let p = t.predict(0x1000);
        t.update(0x1000, !p);
        let _ = t.predict(0x1000);
        t.update(0x1000, true);
    }

    #[test]
    fn update_without_predict_is_allowed() {
        let mut t = Tage::new(TageConfig::storage_small());
        for i in 0..100 {
            t.update(0x40 + i * 4, i % 2 == 0);
        }
    }

    #[test]
    fn interleaved_branches_do_not_corrupt_each_other() {
        let mut t = Tage::new(TageConfig::storage_small());
        let mut correct = 0;
        for i in 0..3000 {
            let (pc, taken) = if i % 2 == 0 { (0x100, true) } else { (0x200, false) };
            if t.predict(pc) == taken && i > 300 {
                correct += 1;
            }
            t.update(pc, taken);
        }
        assert!(correct > 2400, "two biased branches: {correct}");
    }
}
