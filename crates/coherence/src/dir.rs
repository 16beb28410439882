//! The in-memory directory.
//!
//! The DAS protocol stores two directory bits per cache line in the home
//! memory's ECC bits (Kottapalli et al.). Reads of the directory piggyback
//! on the data access — no extra DRAM trip — but *changing* the state costs
//! a (buffered, off-critical-path) memory write. We model the state table
//! exactly and let `hswx-haswell` charge the (zero read / deferred write)
//! costs.
//!
//! Crucially, clean L3 evictions are silent, so the directory can hold a
//! stale `SnoopAll` for a line no cache still has — the mechanism behind
//! the paper's Table V broadcast penalty of 78–89 ns.

use crate::state::DirState;
use hswx_engine::FxHashMap;
use hswx_mem::LineAddr;
use serde::{Deserialize, Serialize};

/// Per-home-agent in-memory directory.
///
/// Lines absent from the map are `RemoteInvalid` (the reset state of the
/// whole memory). Keyed with the deterministic Fx hasher: directory
/// lookups sit on the home-snoop hot path and `LineAddr` keys are
/// trusted simulation state, so SipHash buys nothing here.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InMemoryDirectory {
    entries: FxHashMap<LineAddr, DirState>,
    /// Directory state transitions performed (deferred ECC writes).
    pub writes: u64,
    /// Directory lookups served.
    pub reads: u64,
}

impl InMemoryDirectory {
    /// An empty (all remote-invalid) directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current state for `line`.
    pub fn get(&mut self, line: LineAddr) -> DirState {
        self.reads += 1;
        self.peek(line)
    }

    /// State without counting a lookup (tests/assertions).
    pub fn peek(&self, line: LineAddr) -> DirState {
        self.entries.get(&line).copied().unwrap_or_default()
    }

    /// Transition `line` to `state`; returns `true` if the stored state
    /// changed (i.e. an ECC write-back was needed).
    pub fn set(&mut self, line: LineAddr, state: DirState) -> bool {
        let changed = match state {
            DirState::RemoteInvalid => self.entries.remove(&line).is_some(),
            s => self.entries.insert(line, s) != Some(s),
        };
        if changed {
            self.writes += 1;
        }
        changed
    }

    /// Every line in a non-default state (unordered — callers that need
    /// a stable order, e.g. for digests, must sort).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, DirState)> + '_ {
        self.entries.iter().map(|(&l, &s)| (l, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_state_is_remote_invalid() {
        let mut d = InMemoryDirectory::new();
        assert_eq!(d.get(LineAddr(99)), DirState::RemoteInvalid);
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut d = InMemoryDirectory::new();
        assert!(d.set(LineAddr(1), DirState::SnoopAll));
        assert_eq!(d.get(LineAddr(1)), DirState::SnoopAll);
        assert!(d.set(LineAddr(1), DirState::Shared));
        assert_eq!(d.get(LineAddr(1)), DirState::Shared);
    }

    #[test]
    fn redundant_set_is_not_a_write() {
        let mut d = InMemoryDirectory::new();
        d.set(LineAddr(1), DirState::SnoopAll);
        let w = d.writes;
        assert!(!d.set(LineAddr(1), DirState::SnoopAll));
        assert_eq!(d.writes, w);
        // Setting an untracked line to RemoteInvalid is also free.
        assert!(!d.set(LineAddr(2), DirState::RemoteInvalid));
    }

    #[test]
    fn remote_invalid_reclaims_storage() {
        let mut d = InMemoryDirectory::new();
        d.set(LineAddr(1), DirState::SnoopAll);
        d.set(LineAddr(2), DirState::Shared);
        assert_eq!(d.entries.len(), 2);
        d.set(LineAddr(1), DirState::RemoteInvalid);
        assert_eq!(d.entries.len(), 1);
    }

    #[test]
    fn read_counter_increments() {
        let mut d = InMemoryDirectory::new();
        d.get(LineAddr(5));
        d.get(LineAddr(5));
        assert_eq!(d.reads, 2);
    }
}
