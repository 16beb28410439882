//! Per-line L3 tag metadata: node-level MESIF state + core-valid bits.
//!
//! The inclusive L3 tracks which local cores *may* hold a copy of each line
//! ("core valid" bits). Because clean lines leave private caches silently,
//! the bits are a conservative over-approximation — which is precisely why
//! the paper measures 44.4 ns for exclusive lines placed by another core
//! even after that core has evicted them: the caching agent must snoop as
//! long as a single stale bit is set and the line could have been modified.

use crate::state::MesifState;
use serde::{Deserialize, Serialize};

/// Metadata the L3 keeps for each resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct L3Meta {
    /// Node-level MESIF state (what peers see of this node).
    pub state: MesifState,
    /// Core-valid bits over node-local core indices.
    pub cv: u32,
}

impl L3Meta {
    /// A fresh line installed on behalf of local core `local_core`.
    pub fn filled_by(state: MesifState, local_core: u8) -> Self {
        L3Meta { state, cv: 1 << local_core }
    }

    /// A line held by the L3 only (e.g. after a core writeback).
    pub fn l3_only(state: MesifState) -> Self {
        L3Meta { state, cv: 0 }
    }

    /// Which local core, if any, must be snooped before the L3 can answer a
    /// local request from `requester`.
    ///
    /// Rules (paper §VI-A):
    /// * no CV bits, or only the requester's → L3 data is usable directly;
    /// * ≥2 CV bits → line can only be Shared in the cores → no snoop;
    /// * exactly one *other* CV bit **and** the node state admits a silent
    ///   E→M upgrade (node state M or E) → snoop that core;
    /// * node state S/F → cores can hold at most S → no snoop.
    pub fn local_snoop_target(&self, requester: u8) -> Option<u8> {
        // Two or more valid bits mean the line can only be Shared in the
        // cores (no silent E->M is possible), whoever is asking.
        if self.cv.count_ones() >= 2 {
            return None;
        }
        let others = self.cv & !(1u32 << requester);
        if others == 0 {
            return None;
        }
        match self.state {
            MesifState::Modified | MesifState::Exclusive => {
                Some(others.trailing_zeros() as u8)
            }
            _ => None,
        }
    }

    /// The same decision for an external (peer-node) snoop arriving at this
    /// node's CA: local core index to probe before the node can forward.
    pub fn snoop_probe_target(&self) -> Option<u8> {
        if self.cv.count_ones() == 1
            && matches!(self.state, MesifState::Modified | MesifState::Exclusive)
        {
            Some(self.cv.trailing_zeros() as u8)
        } else {
            None
        }
    }

    /// Record that local core `c` received a copy.
    pub fn add_core(&mut self, c: u8) {
        self.cv |= 1 << c;
    }

    /// Clear core `c`'s valid bit (explicit writeback or invalidation —
    /// never called for silent clean evictions, by design).
    pub fn clear_core(&mut self, c: u8) {
        self.cv &= !(1 << c);
    }

    /// Core `c` wrote the line back dirty: the L3 copy is now the newest,
    /// the node state becomes Modified, and `c` no longer holds it.
    pub fn on_dirty_writeback(&mut self, c: u8) {
        self.clear_core(c);
        self.state = MesifState::Modified;
    }

    /// Local cores that would need invalidation for an RFO by `requester`.
    pub fn other_sharers(&self, requester: u8) -> u32 {
        self.cv & !(1u32 << requester)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use MesifState::*;

    #[test]
    fn no_cv_bits_serve_directly() {
        let m = L3Meta::l3_only(Modified);
        assert_eq!(m.local_snoop_target(0), None);
    }

    #[test]
    fn own_bit_serves_directly() {
        // Requesting core's own (stale) bit: it evicted silently and is
        // re-reading — no snoop, 21.2 ns class.
        let m = L3Meta::filled_by(Exclusive, 3);
        assert_eq!(m.local_snoop_target(3), None);
    }

    #[test]
    fn single_other_bit_with_exclusive_snoops() {
        // The 44.4 ns case: exclusive line placed by core 1, read by core 0.
        let m = L3Meta::filled_by(Exclusive, 1);
        assert_eq!(m.local_snoop_target(0), Some(1));
    }

    #[test]
    fn single_other_bit_with_modified_snoops() {
        // The 53/49 ns case: modified line in core 1's L1/L2.
        let m = L3Meta::filled_by(Modified, 1);
        assert_eq!(m.local_snoop_target(0), Some(1));
    }

    #[test]
    fn two_bits_including_requester_mean_shared_no_snoop() {
        // Requester re-reads a line it shares with one other core: the two
        // set bits prove Shared, so no snoop even though exactly one
        // *other* bit is set (paper Table IV diagonal, 18.0 ns).
        let mut m = L3Meta::filled_by(Exclusive, 0);
        m.add_core(1);
        assert_eq!(m.local_snoop_target(0), None);
    }

    #[test]
    fn two_bits_mean_shared_no_snoop() {
        // "If multiple core valid bits are set, core snoops are not
        //  necessary as the cache line can only be in the state shared."
        let mut m = L3Meta::filled_by(Exclusive, 1);
        m.add_core(2);
        assert_eq!(m.local_snoop_target(0), None);
    }

    #[test]
    fn shared_or_forward_state_never_snoops() {
        for s in [Shared, Forward] {
            let m = L3Meta::filled_by(s, 1);
            assert_eq!(m.local_snoop_target(0), None, "{s:?}");
        }
    }

    #[test]
    fn external_probe_mirrors_local_rule() {
        assert_eq!(L3Meta::filled_by(Exclusive, 4).snoop_probe_target(), Some(4));
        assert_eq!(L3Meta::filled_by(Modified, 4).snoop_probe_target(), Some(4));
        assert_eq!(L3Meta::filled_by(Forward, 4).snoop_probe_target(), None);
        assert_eq!(L3Meta::l3_only(Modified).snoop_probe_target(), None);
        let mut m = L3Meta::filled_by(Exclusive, 1);
        m.add_core(2);
        assert_eq!(m.snoop_probe_target(), None);
    }

    #[test]
    fn dirty_writeback_clears_bit_and_marks_modified() {
        let mut m = L3Meta::filled_by(Exclusive, 5);
        m.on_dirty_writeback(5);
        assert_eq!(m.state, Modified);
        assert_eq!(m.cv, 0);
        // The paper: after the writeback the L3 services requests without
        // delay (21.2 ns), because the CV bit was cleared.
        assert_eq!(m.local_snoop_target(0), None);
    }

    #[test]
    fn other_sharers_excludes_requester() {
        let mut m = L3Meta::filled_by(Shared, 0);
        m.add_core(1);
        m.add_core(2);
        assert_eq!(m.other_sharers(1), 0b101);
    }
}
