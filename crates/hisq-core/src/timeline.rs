//! The TCU timer with SyncU-controlled pause/resume gates.
//!
//! The timing grid is kept in *raw* coordinates: the cycle count the
//! timer would have reached had it never been paused. Each BISP
//! synchronization may insert a **gate**: a raw position at which the
//! timer stalls until a wall-clock resume time. The effective (wall
//! clock) time of a raw grid position is the raw position plus the
//! cumulative stall of all gates at or before it.
//!
//! This piecewise-shift representation implements the paper's §3.2
//! mechanism — "multiple ports receiving external triggers, that can be
//! used to pause and resume the timer" — while letting the simulation
//! compute every commit timestamp exactly, independent of the order in
//! which the surrounding discrete-event engine advances controllers.

/// Piecewise mapping from raw TCU-grid positions to wall-clock cycles.
///
/// # Example
///
/// ```
/// use hisq_core::Timeline;
///
/// let mut t = Timeline::new();
/// // Timer stalls at raw cycle 100 until wall cycle 130.
/// t.add_gate(100, 130);
/// assert_eq!(t.effective(99), 99);   // before the gate: unshifted
/// assert_eq!(t.effective(100), 130); // at the gate: resumes at 130
/// assert_eq!(t.effective(110), 140); // after: shifted by 30
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    /// `(raw_position, cumulative_shift)`: positions never decrease
    /// (two syncs may gate the same position), shifts strictly increase.
    gates: Vec<(u64, u64)>,
}

impl Timeline {
    /// An ungated timeline (wall clock = raw grid).
    pub fn new() -> Timeline {
        Timeline::default()
    }

    /// An ungated timeline with room for `gates` stalls before it
    /// regrows.
    pub fn with_capacity(gates: usize) -> Timeline {
        Timeline {
            gates: Vec::with_capacity(gates),
        }
    }

    /// Cumulative stall applied at raw position `raw`.
    pub fn shift_at(&self, raw: u64) -> u64 {
        match self.gates.iter().rev().find(|(pos, _)| *pos <= raw) {
            Some((_, shift)) => *shift,
            None => 0,
        }
    }

    /// Wall-clock cycle corresponding to raw grid position `raw`.
    pub fn effective(&self, raw: u64) -> u64 {
        raw + self.shift_at(raw)
    }

    /// Inserts a stall: the timer pauses at raw position `raw_pos` and
    /// resumes at wall-clock `resume_eff`. A resume time at or before
    /// the current effective time is a no-op (no stall was needed —
    /// Condition II was already met).
    ///
    /// # Panics
    ///
    /// Panics if `raw_pos` precedes an existing gate: BISP
    /// synchronizations are program-ordered, so gates must be appended
    /// monotonically.
    pub fn add_gate(&mut self, raw_pos: u64, resume_eff: u64) {
        if let Some(&(last_pos, _)) = self.gates.last() {
            assert!(
                raw_pos >= last_pos,
                "sync gates must be program-ordered: new gate at raw {raw_pos} precedes {last_pos}"
            );
        }
        let current_eff = self.effective(raw_pos);
        if resume_eff <= current_eff {
            return;
        }
        let shift = resume_eff - raw_pos;
        self.gates.push((raw_pos, shift));
    }

    /// Raw position of the last gate that stalled the timer: the bound
    /// [`Timeline::add_gate`] asserts a new gate does not precede.
    pub(crate) fn last_gate(&self) -> Option<u64> {
        self.gates.last().map(|&(pos, _)| pos)
    }

    /// Total stall cycles accumulated so far.
    pub fn total_stall(&self) -> u64 {
        self.gates.last().map_or(0, |&(_, s)| s)
    }

    /// Number of gates that actually stalled the timer.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Inverse mapping: the smallest raw position whose effective time
    /// is at least `wall`. Used to re-base the grid after
    /// non-deterministic pipeline events (e.g. `recv`).
    ///
    /// A binary search over the gates' resume times, so the cost grows
    /// with the log of the gate count: a program re-bases on every
    /// feedback `recv` and adds a gate on every sync that stalls, so
    /// both grow with the shot count.
    pub fn raw_for_wall(&self, wall: u64) -> u64 {
        // Gates partition raw time into segments of constant shift;
        // within a segment, effective = raw + shift. Gate `i` resumes at
        // wall time `pos + shift` (exact: `add_gate` derived the shift
        // from it), and resume times strictly increase. `wall` belongs
        // to the first gate that resumes at or after it: either to the
        // segment before that gate or, inside its stall window, to the
        // gate position itself.
        let next = self
            .gates
            .partition_point(|&(pos, shift)| pos + shift < wall);
        let shift = next.checked_sub(1).map_or(0, |prev| self.gates[prev].1);
        let raw = wall.saturating_sub(shift);
        match self.gates.get(next) {
            Some(&(pos, _)) => raw.min(pos),
            None => raw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_without_gates() {
        let t = Timeline::new();
        assert_eq!(t.effective(0), 0);
        assert_eq!(t.effective(12345), 12345);
        assert_eq!(t.total_stall(), 0);
    }

    #[test]
    fn single_gate_shifts_suffix() {
        let mut t = Timeline::new();
        t.add_gate(50, 80);
        assert_eq!(t.effective(49), 49);
        assert_eq!(t.effective(50), 80);
        assert_eq!(t.effective(51), 81);
        assert_eq!(t.total_stall(), 30);
    }

    #[test]
    fn noop_gate_when_condition_met_early() {
        let mut t = Timeline::new();
        t.add_gate(50, 40); // partner signal arrived before countdown end
        assert_eq!(t.gate_count(), 0);
        assert_eq!(t.effective(50), 50);
    }

    #[test]
    fn gates_compose() {
        let mut t = Timeline::new();
        t.add_gate(10, 25); // shift 15
        t.add_gate(30, 60); // raw 30 currently at 45; stall to 60 → shift 30
        assert_eq!(t.effective(9), 9);
        assert_eq!(t.effective(10), 25);
        assert_eq!(t.effective(29), 44);
        assert_eq!(t.effective(30), 60);
        assert_eq!(t.effective(35), 65);
        assert_eq!(t.total_stall(), 30);
        assert_eq!(t.gate_count(), 2);
    }

    #[test]
    #[should_panic(expected = "program-ordered")]
    fn out_of_order_gate_panics() {
        let mut t = Timeline::new();
        t.add_gate(100, 150);
        t.add_gate(50, 200);
    }

    #[test]
    fn raw_for_wall_inverts_effective() {
        let mut t = Timeline::new();
        t.add_gate(10, 25);
        t.add_gate(30, 60);
        for raw in [0, 5, 10, 20, 29, 30, 50, 100] {
            let wall = t.effective(raw);
            let back = t.raw_for_wall(wall);
            assert_eq!(t.effective(back), wall, "raw {raw} wall {wall}");
        }
        // Wall times inside a stall window map to the gate position.
        assert_eq!(t.effective(t.raw_for_wall(50)), 50 + 10); // 50 is inside the 44→60 stall
    }

    /// Reference for `raw_for_wall`: a linear scan for the first
    /// segment whose raw span reaches past `wall`.
    fn raw_for_wall_by_scan(gates: &[(u64, u64)], wall: u64) -> u64 {
        let mut seg_start = 0u64;
        let mut shift = 0;
        for &(pos, s) in gates {
            let raw_in_seg = wall.saturating_sub(shift);
            if raw_in_seg < pos {
                return raw_in_seg.max(seg_start);
            }
            seg_start = pos;
            shift = s;
        }
        wall.saturating_sub(shift).max(seg_start)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The binary search answers every wall time exactly as the
        /// scan does, on program-ordered timelines with repeated gate
        /// positions (position delta 0) and no-op gates (resume delta
        /// 0). Every wall time up to past the last resume is probed, so
        /// each stall window is covered.
        #[test]
        fn raw_for_wall_matches_the_scan(
            start in 0u64..3,
            gates in proptest::collection::vec((0u64..4, 0u64..24), 0..12),
        ) {
            let mut t = Timeline::new();
            let mut raw = start;
            for (pos_delta, resume_delta) in gates {
                raw += pos_delta;
                t.add_gate(raw, t.effective(raw) + resume_delta);
            }
            for wall in 0..=t.effective(raw) + 4 {
                proptest::prop_assert_eq!(
                    t.raw_for_wall(wall),
                    raw_for_wall_by_scan(&t.gates, wall),
                    "wall {} over gates {:?}", wall, t.gates
                );
            }
        }
    }
}
