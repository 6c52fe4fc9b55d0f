//! Property tests for the FR-FCFS channel request scheduler.
//!
//! Two contracts pin the scheduler:
//!
//! 1. FR-FCFS never reorders past the starvation cap: at every read
//!    arrival, no buffered write older than `sched_age_cap` survives the
//!    arbitration (the oldest request's completion is bounded);
//! 2. row-hit-first drain strictly reduces row activates against the
//!    analytic in-order count on bank-conflict write traffic.

use proptest::prelude::*;
use slc_sim::dram::Channel;
use slc_sim::GpuConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contract 1: at every channel event (read *or* write arrival),
    /// every buffered write older than the age cap is forced out first —
    /// no request is reordered past its age bound while traffic flows,
    /// so the oldest request's completion stays within one drain of the
    /// cap.
    #[test]
    fn prop_age_cap_bounds_reordering(
        ops in proptest::collection::vec((any::<u16>(), any::<u8>(), any::<u16>(), any::<bool>()), 1..300)
    ) {
        let cfg = GpuConfig::default();
        let cap = cfg.sched_age_cap as f64;
        let mut channel = Channel::new(&cfg);
        let mut now = 0.0f64;
        for &(block, bursts, dt, is_write) in &ops {
            now += f64::from(dt);
            let block = u64::from(block) % 4096;
            let bursts = u32::from(bursts % 4) + 1;
            if is_write {
                channel.write(block, bursts, now);
            } else {
                channel.read(block, bursts, now);
            }
            if let Some(oldest) = channel.oldest_pending_arrival() {
                prop_assert!(
                    now - oldest <= cap,
                    "write from {oldest} still buffered after event at {now} (cap {cap})"
                );
            }
            prop_assert!(channel.pending_writes() <= cfg.write_buffer_entries);
        }
    }

    /// Contract 2: on ping-pong write traffic between conflicting rows of
    /// one bank, the row-hit-first drain strictly reduces row activates
    /// vs servicing in order (the whole point of FR-FCFS). In arrival
    /// order every row alternation on the one bank re-activates, so the
    /// in-order count is `1 + alternations`.
    #[test]
    fn prop_row_hit_first_reduces_activates(
        rows in proptest::collection::vec(any::<bool>(), 4..12),
        offsets in proptest::collection::vec(any::<u8>(), 4..12),
    ) {
        let alternations = rows.windows(2).filter(|w| w[0] != w[1]).count();
        prop_assume!(alternations >= 3);
        let cfg = GpuConfig::default();
        // Two rows of bank 0: row 0 starts at block 0, row 1 after a full
        // sweep of every bank's first row group.
        let far = cfg.banks_per_channel as u64 * cfg.row_blocks;
        let mut frfcfs = Channel::new(&cfg);
        for (i, &second_row) in rows.iter().enumerate() {
            let offset = u64::from(offsets[i % offsets.len()]) % cfg.row_blocks;
            let block = if second_row { far + offset } else { offset };
            // Same-instant arrivals: the burst of write-backs an L2 flush
            // emits, which is exactly where drain grouping pays.
            frfcfs.write(block, 4, 0.0);
        }
        frfcfs.drain_writes(0.0);
        prop_assert_eq!(frfcfs.pending_writes(), 0);
        let in_order_activates = 1 + alternations as u64;
        prop_assert!(
            frfcfs.telemetry().row_misses < in_order_activates,
            "row-hit-first must save activates: {} vs {}",
            frfcfs.telemetry().row_misses,
            in_order_activates
        );
    }
}
