//! The graceful-degradation ladder: fitting blocks into faulty DRAM rows.
//!
//! When [`slc_sim::GpuConfig::fault`] is set, every kernel-boundary
//! staging pass walks this ladder per block instead of the plain scheme
//! decision. The rungs, in order:
//!
//! 1. **Exact / natural** — healthy rows, and faulty rows whose
//!    fault-free stored form already fits the surviving capacity, take
//!    the ordinary pipeline path. A zero-density fault map therefore
//!    stages and records byte-identically to no fault map at all
//!    (pinned by integration tests).
//! 2. **Lossless squeeze** — SLC blocks the fault-free pipeline stores
//!    verbatim, but whose full lossless stream fits the budget: compress
//!    for capacity. No data loss, so this rung is *not* an escalation.
//! 3. **Deeper lossy** — a deeper truncation than the fault-free
//!    decision ([`SlcCompressor::fit_within_with`]), reusing the cached
//!    [`BlockAnalysis`] — no block is ever re-encoded to make the
//!    decision. Counted per (snapshot, block) as a *fault escalation*.
//! 4. **Remap** — the block's data moves to a bounded spare pool
//!    (first-come first-served, never freed); the timing side charges
//!    the indirection — a pointer burst plus the spare row's own DRAM
//!    access through the FR-FCFS channel model.
//! 5. **Uncorrectable** — no stored form fits and the pool is
//!    exhausted. Real hardware loses the data; the functional model
//!    keeps it intact and only counts the block, so capacity curves
//!    read `1 - uncorrectable / total`.
//!
//! Resolution order is deterministic: blocks resolve in
//! [`GpuMemory::all_blocks`] order within each snapshot, so the spare
//! pool's FCFS assignment — and with it every counter — replays exactly
//! under a fixed seed.

use crate::scheme::{BurstsAccumulator, Scheme};
use slc_compress::e2mc::BlockAnalysis;
use slc_compress::BLOCK_BYTES;
use slc_core::slc::FitOutcome;
use slc_core::{Selection, SlcCompressor};
use slc_sim::fault::{FaultCounters, FaultMap, RemapTable};
use slc_sim::{BlockAddr, FaultPlan, GpuConfig, GpuMemory};
use std::collections::HashSet;

/// One block's ladder verdict for one snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LadderVerdict {
    /// Healthy row, or the fault-free stored form fits the surviving
    /// capacity: stage and record exactly as without faults.
    Intact,
    /// Store the full lossless stream in place of the verbatim block
    /// (SLC only; no data loss, no escalation).
    SqueezeLossless,
    /// Store a deeper truncation than the fault-free decision; counted
    /// as a fault escalation.
    Degrade {
        /// The Fig. 5 selection the deeper truncation uses.
        selection: Selection,
        /// The faulty row's surviving capacity the stream must fit.
        budget_bits: u32,
    },
    /// The block lives in the spare pool; it stages and records its
    /// fault-free form (the spare row is healthy) and the timing side
    /// pays the indirection.
    Remapped,
    /// Lost on real hardware; kept intact and counted here.
    Uncorrectable,
}

/// Ladder state carried across the kernel-boundary snapshots of one
/// functional run: the fault map, the spare pool, the set of blocks
/// already given up on, and the running counters.
#[derive(Debug, Clone)]
pub struct LadderState {
    map: FaultMap,
    table: RemapTable,
    uncorrectable: HashSet<BlockAddr>,
    counters: FaultCounters,
}

impl LadderState {
    /// Builds the ladder from `cfg`'s fault configuration; `None` when
    /// the config carries none (the fault subsystem is absent).
    pub fn new(cfg: &GpuConfig) -> Option<Self> {
        let map = FaultMap::from_config(cfg)?;
        let spare = map.config().spare_blocks;
        Some(Self {
            map,
            table: RemapTable::new(spare),
            uncorrectable: HashSet::new(),
            counters: FaultCounters::default(),
        })
    }

    /// The counters accumulated so far.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// Finishes the functional pass into the [`FaultPlan`] the timing
    /// side replays (remap table + final counters).
    pub fn into_plan(self) -> FaultPlan {
        FaultPlan::new(self.table, self.counters)
    }

    /// Resolves one block for the current snapshot and updates the
    /// counters. `analysis` is the block's cached per-snapshot analysis;
    /// only [`Scheme::Uncompressed`] resolves without one.
    ///
    /// Remap and uncorrectable verdicts are sticky: a permanent fault
    /// stays remapped (or lost) for the rest of the run even if a later
    /// snapshot's content would fit, and is counted exactly once.
    /// Escalations, by contrast, are per-(snapshot, block) decisions —
    /// each snapshot a block must store a deeper truncation counts.
    pub fn resolve(
        &mut self,
        scheme: &Scheme,
        addr: BlockAddr,
        approximable: bool,
        analysis: Option<&BlockAnalysis>,
    ) -> LadderVerdict {
        let Some(budget_bits) = self.map.block_budget_bits(addr) else {
            return LadderVerdict::Intact;
        };
        if self.table.slot_of(addr).is_some() {
            return LadderVerdict::Remapped;
        }
        if self.uncorrectable.contains(&addr) {
            return LadderVerdict::Uncorrectable;
        }
        match (scheme, analysis) {
            (Scheme::Uncompressed, _) => {
                // Verbatim blocks only survive a faulty row that kept
                // full block capacity.
                if (BLOCK_BYTES as u32) * 8 <= budget_bits {
                    return LadderVerdict::Intact;
                }
            }
            (Scheme::E2mc(_), Some(a)) => {
                if a.e2mc_size_bits() <= budget_bits {
                    return LadderVerdict::Intact;
                }
            }
            (Scheme::Slc(s), Some(a)) => {
                if approximable {
                    match s.fit_within_with(a, budget_bits) {
                        FitOutcome::Natural { .. } => return LadderVerdict::Intact,
                        FitOutcome::Lossless { .. } => return LadderVerdict::SqueezeLossless,
                        FitOutcome::Degraded { selection, .. } => {
                            self.counters.fault_escalations += 1;
                            return LadderVerdict::Degrade { selection, budget_bits };
                        }
                        FitOutcome::Unstorable => {}
                    }
                } else if a.e2mc_size_bits() <= budget_bits {
                    // Exact regions may only store losslessly.
                    return LadderVerdict::Intact;
                }
            }
            _ => unreachable!("compressed schemes resolve with an analysis"),
        }
        match self.table.assign(addr) {
            Some(_) => {
                self.counters.remaps += 1;
                self.counters.spare_occupancy_peak = u64::from(self.table.used());
                LadderVerdict::Remapped
            }
            None => {
                self.uncorrectable.insert(addr);
                self.counters.uncorrectable_blocks += 1;
                LadderVerdict::Uncorrectable
            }
        }
    }

    /// The fault-aware replacement for the harness' fused
    /// stage-and-record pass: resolves every block of `mem` against the
    /// ladder, stages approximable regions (with the degraded or
    /// squeezed stored form where the ladder demands one), and folds the
    /// actually-stored burst counts into `acc`.
    ///
    /// With a zero-density map every verdict is [`LadderVerdict::Intact`]
    /// and the pass reduces to [`Scheme::stage_analyzed`] +
    /// [`BurstsAccumulator::record`] — byte-identical staging, identical
    /// cells.
    pub fn stage_and_record(
        &mut self,
        scheme: &Scheme,
        mem: &mut GpuMemory,
        acc: &mut BurstsAccumulator,
    ) {
        let mag = acc.mag();
        match scheme {
            Scheme::Uncompressed => {
                // No staging and no burst recording (the uncompressed
                // map stays empty, as in the fault-free pipeline); the
                // walk only feeds the ladder counters.
                let addrs: Vec<BlockAddr> = mem.blocks_with_addr().map(|(_, a, _)| a).collect();
                for addr in addrs {
                    self.resolve(scheme, addr, false, None);
                }
            }
            Scheme::E2mc(e2mc) => {
                // Lossless staging is the identity: analyse, resolve and
                // record in one read-only walk. Whatever the verdict,
                // the stored form is the block's lossless stream — in
                // its own row, a spare slot, or (uncorrectable, model
                // intact) unchanged — so the recorded bursts are the
                // plain scheme decision.
                for (region, addr, block) in mem.blocks_with_addr() {
                    let analysis = e2mc.analyze(block);
                    self.resolve(scheme, addr, region.safe_to_approx, Some(&analysis));
                    acc.record_one(
                        addr,
                        scheme.bursts_for_analysis(&analysis, mag, region.safe_to_approx),
                    );
                }
            }
            Scheme::Slc(slc) => self.stage_and_record_slc(scheme, slc, mem, acc),
        }
    }

    /// The SLC arm of [`stage_and_record`](Self::stage_and_record):
    /// pass A resolves every block in address-walk order on the
    /// *pre-stage* content (the analyses the budget decisions need
    /// anyway), pass B stages approximable regions under the queued
    /// verdicts. Staging visits approx blocks in the same relative
    /// order the walk saw them, so verdicts merge back by position —
    /// the same positional contract [`Scheme::stage_analyzed`] relies
    /// on.
    fn stage_and_record_slc(
        &mut self,
        scheme: &Scheme,
        slc: &SlcCompressor,
        mem: &mut GpuMemory,
        acc: &mut BurstsAccumulator,
    ) {
        let mag = acc.mag();
        let e2mc = slc.e2mc().clone(); // Arc bump, not a table copy
        let mut queue: Vec<(BlockAddr, LadderVerdict, BlockAnalysis)> = Vec::new();
        for (region, addr, block) in mem.blocks_with_addr() {
            let analysis = e2mc.analyze(block);
            let verdict = self.resolve(scheme, addr, region.safe_to_approx, Some(&analysis));
            if region.safe_to_approx {
                queue.push((addr, verdict, analysis));
            } else {
                // Exact regions are never staged; their stored form is
                // the lossless stream wherever the ladder put it.
                acc.record_one(addr, scheme.bursts_for_analysis(&analysis, mag, false));
            }
        }
        let mut pending = queue.into_iter();
        mem.stage_approx_regions(|_region, block| {
            let (addr, verdict, analysis) =
                pending.next().expect("one resolved verdict per approx block");
            match verdict {
                LadderVerdict::Degrade { selection, budget_bits } => {
                    let c = slc.compress_degraded(block, &analysis, selection, budget_bits);
                    let out = slc.decompress(&c);
                    acc.record_one(addr, c.bursts());
                    out
                }
                LadderVerdict::SqueezeLossless => {
                    let c = slc.compress_lossless_with(block, &analysis);
                    let out = slc.decompress(&c);
                    debug_assert_eq!(&out[..], &block[..], "lossless squeeze must round-trip");
                    acc.record_one(addr, c.bursts());
                    out
                }
                LadderVerdict::Intact | LadderVerdict::Remapped | LadderVerdict::Uncorrectable => {
                    // The fault-free staging path, verbatim from
                    // `Scheme::stage_analyzed`: exact modes round-trip
                    // bit-for-bit so the pre-stage analysis is the
                    // post-stage one; lossy reconstructions are
                    // re-analysed for the burst decision.
                    let c = slc.compress_with(block, &analysis);
                    let out = slc.decompress(&c);
                    let post = if c.is_lossy() { e2mc.analyze(&out) } else { analysis };
                    acc.record_one(addr, slc.stored_bursts_with(&post));
                    out
                }
            }
        });
        debug_assert!(pending.next().is_none(), "resolved verdicts left over");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::SnapshotAnalysis;
    use slc_compress::e2mc::{E2mc, E2mcConfig};
    use slc_compress::Mag;
    use slc_core::slc::SlcVariant;
    use slc_sim::{DevicePtr, FaultConfig, FaultPattern};

    fn trained() -> E2mc {
        let bytes: Vec<u8> =
            (0..1u32 << 14).flat_map(|i| ((i % 512) as f32).to_le_bytes()).collect();
        E2mc::train_on_bytes(&bytes, &E2mcConfig::default())
    }

    fn filled_memory() -> GpuMemory {
        let mut m = GpuMemory::new();
        let a = m.malloc("approx", 2048, true, 16);
        let e = m.malloc("exact", 1024, false, 0);
        let vals: Vec<f32> = (0..512).map(|i| (i % 512) as f32).collect();
        m.write_f32(a, &vals);
        m.write_f32(e, &vals[..256]);
        m
    }

    fn faulty_config(density: f64, budget_bytes: u32, spare: u32) -> GpuConfig {
        GpuConfig::default().with_faults(
            FaultConfig::new(FaultPattern::RandomRows, density, 7)
                .with_budget_bytes(budget_bytes)
                .with_spare_blocks(spare),
        )
    }

    #[test]
    fn zero_density_matches_the_fault_free_pipeline() {
        let e = trained();
        for scheme in [
            Scheme::E2mc(e.clone()),
            Scheme::slc(e.clone(), Mag::GDDR5, 16, SlcVariant::TslcOpt),
            Scheme::slc(e.clone(), Mag::GDDR5, 16, SlcVariant::TslcSimp),
        ] {
            let cfg = faulty_config(0.0, 64, 8);
            let mut ladder = LadderState::new(&cfg).unwrap();
            let mut faulty_mem = filled_memory();
            let mut faulty_acc = BurstsAccumulator::new(Mag::GDDR5);
            ladder.stage_and_record(&scheme, &mut faulty_mem, &mut faulty_acc);
            let mut plain_mem = filled_memory();
            let mut plain_acc = BurstsAccumulator::new(Mag::GDDR5);
            let snap = scheme.stage_analyzed(&mut plain_mem).unwrap();
            plain_acc.record(&scheme, &snap);
            assert_eq!(
                faulty_mem.read_f32(DevicePtr(0), 512),
                plain_mem.read_f32(DevicePtr(0), 512),
                "zero-density staging must be byte-identical"
            );
            assert_eq!(faulty_acc.into_map(), plain_acc.into_map());
            assert_eq!(*ladder.counters(), FaultCounters::default());
        }
    }

    #[test]
    fn hopeless_budget_splits_remaps_and_uncorrectable() {
        // A 2-byte budget is below any header, so every faulty block is
        // unstorable: the first `spare` blocks (in walk order) remap,
        // the rest are uncorrectable — and a second snapshot re-counts
        // none of them.
        let e = trained();
        let scheme = Scheme::E2mc(e);
        let cfg = faulty_config(1.0, 2, 3);
        let mut ladder = LadderState::new(&cfg).unwrap();
        let mut mem = filled_memory();
        let total = mem.blocks_with_addr().count() as u64;
        let mut acc = BurstsAccumulator::new(Mag::GDDR5);
        ladder.stage_and_record(&scheme, &mut mem, &mut acc);
        let c = *ladder.counters();
        assert_eq!(c.remaps, 3);
        assert_eq!(c.spare_occupancy_peak, 3);
        assert_eq!(c.uncorrectable_blocks, total - 3);
        assert_eq!(c.fault_escalations, 0, "lossless schemes never escalate");
        ladder.stage_and_record(&scheme, &mut mem, &mut acc);
        assert_eq!(*ladder.counters(), c, "remap/uncorrectable counts are per distinct block");
        // The functional model keeps data intact and records the plain
        // lossless bursts throughout.
        let plain = {
            let mut a = BurstsAccumulator::new(Mag::GDDR5);
            let snap = SnapshotAnalysis::capture(scheme.e2mc().unwrap(), &mem);
            a.record(&scheme, &snap);
            a.record(&scheme, &snap);
            a.into_map()
        };
        assert_eq!(acc.into_map(), plain);
    }

    #[test]
    fn escalations_reconcile_with_fit_verdicts_per_snapshot() {
        let e = trained();
        let slc = slc_core::slc::SlcCompressor::new(
            e.clone(),
            slc_core::slc::SlcConfig::new(Mag::GDDR5, 16, SlcVariant::TslcOpt),
        );
        let scheme = Scheme::slc(e.clone(), Mag::GDDR5, 16, SlcVariant::TslcOpt);
        // Find a budget that actually forces deeper truncations on this
        // memory (scan downward; with a generous spare pool nothing is
        // uncorrectable, so escalations are the only moving count).
        let mem0 = filled_memory();
        let snap = SnapshotAnalysis::capture(&e, &mem0);
        let mut chosen = None;
        for budget_bytes in (8..64).rev() {
            let degraded = snap
                .entries()
                .iter()
                .filter(|b| b.approximable)
                .filter(|b| {
                    matches!(
                        slc.fit_within_with(&b.analysis, budget_bytes * 8),
                        FitOutcome::Degraded { .. }
                    )
                })
                .count() as u64;
            if degraded > 0 {
                chosen = Some((budget_bytes, degraded));
                break;
            }
        }
        let (budget_bytes, expected) = chosen.expect("some budget must force a degradation");
        let cfg = faulty_config(1.0, budget_bytes, 4096);
        let mut ladder = LadderState::new(&cfg).unwrap();
        let mut mem = filled_memory();
        let mut acc = BurstsAccumulator::new(Mag::GDDR5);
        ladder.stage_and_record(&scheme, &mut mem, &mut acc);
        assert_eq!(ladder.counters().fault_escalations, expected);
        assert_eq!(ladder.counters().uncorrectable_blocks, 0, "pool is oversized");
        // Escalations are per (snapshot, block): staging the (now
        // mutated) memory again may degrade again, and each decision
        // counts — the count can only grow.
        ladder.stage_and_record(&scheme, &mut mem, &mut acc);
        assert!(ladder.counters().fault_escalations >= expected);
    }

    #[test]
    fn degraded_blocks_record_the_stream_they_actually_store() {
        // Under a tight budget the recorded bursts must reflect the
        // degraded stream (<= budget), not the fault-free decision.
        let e = trained();
        let scheme = Scheme::slc(e.clone(), Mag::GDDR5, 16, SlcVariant::TslcOpt);
        let budget_bytes = 32u32;
        let cfg = faulty_config(1.0, budget_bytes, 4096);
        let mut ladder = LadderState::new(&cfg).unwrap();
        let mut mem = filled_memory();
        let mut acc = BurstsAccumulator::new(Mag::GDDR5);
        ladder.stage_and_record(&scheme, &mut mem, &mut acc);
        assert_eq!(ladder.counters().uncorrectable_blocks, 0);
        let plan = ladder.into_plan();
        let map = acc.into_map();
        let max_bursts = Mag::GDDR5.bursts_for_bytes(budget_bytes, BLOCK_BYTES as u32).max(1);
        for (region, addr, _) in mem.blocks_with_addr() {
            // Remapped blocks live in a healthy spare row at full
            // capacity; everything else must fit the faulty row.
            if region.safe_to_approx && plan.slot_of(addr).is_none() {
                assert!(
                    slc_sim::mc::BurstsSource::bursts(&map, addr) <= max_bursts,
                    "block {addr} stored beyond the surviving capacity"
                );
            }
        }
    }
}
