//! Coherence states.
//!
//! Three state spaces coexist in a Haswell-EP system:
//!
//! * **Core-level** ([`CoreState`]): what a line is in a core's private
//!   L1/L2. Plain MESI — the F state is a property of the *node-level*
//!   protocol and never lives in a private cache.
//! * **Node-level** ([`MesifState`]): what a node's caching agent holds in
//!   its L3 slice, which is what peer nodes see. MESIF: M/E/F copies may be
//!   forwarded to other nodes; S copies may not (at most one F exists).
//! * **In-memory directory** ([`DirState`]): the 2-bit DAS directory kept in
//!   the home node's memory (ECC bits), summarizing remote caching.

use serde::{Deserialize, Serialize};

/// MESI state of a line in a core's private L1/L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoreState {
    /// Dirty, exclusive to this core.
    Modified,
    /// Clean, exclusive to this core (silently evictable).
    Exclusive,
    /// Clean, possibly shared with other cores (silently evictable).
    Shared,
    /// Not present.
    Invalid,
}

impl CoreState {
    /// Whether a copy exists.
    pub fn is_valid(self) -> bool {
        self != CoreState::Invalid
    }

    /// Whether a local write hits without an ownership request.
    pub fn can_write(self) -> bool {
        matches!(self, CoreState::Modified | CoreState::Exclusive)
    }
}

/// MESIF state of a line at node level (held in the L3 / caching agent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MesifState {
    /// Dirty; this node owns the only valid copy.
    Modified,
    /// Clean; this node owns the only cached copy.
    Exclusive,
    /// Clean; other nodes may also hold copies; this node may NOT forward.
    Shared,
    /// Clean; other nodes may also hold copies; this node is the designated
    /// forwarder (at most one F copy exists system-wide).
    Forward,
    /// Not present.
    Invalid,
}

impl MesifState {
    /// Whether a copy exists.
    pub fn is_valid(self) -> bool {
        self != MesifState::Invalid
    }

    /// Whether this node responds to a data snoop with data.
    ///
    /// MESIF rule: M, E, and F forward; S stays silent so that exactly one
    /// node supplies data.
    pub fn can_forward(self) -> bool {
        matches!(
            self,
            MesifState::Modified | MesifState::Exclusive | MesifState::Forward
        )
    }

    /// Whether eviction requires writing data back to the home memory.
    pub fn is_dirty(self) -> bool {
        self == MesifState::Modified
    }

    /// State of the *previous* holder after it forwards data for a read.
    ///
    /// MESIF: the most recent requester becomes the forwarder, the old
    /// holder demotes to S (M writes back and demotes — the home's memory
    /// copy is made clean as part of the transaction).
    pub fn after_forwarding_read(self) -> MesifState {
        match self {
            MesifState::Invalid => MesifState::Invalid,
            _ => MesifState::Shared,
        }
    }
}

/// 2-bit in-memory directory state (Kottapalli et al., US 2012/0047333).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DirState {
    /// No remote (non-home) node holds the line: requests from the home
    /// node need no snoops at all.
    #[default]
    RemoteInvalid,
    /// A remote node may hold the line in M/E/F — snoop everyone.
    SnoopAll,
    /// Multiple clean copies exist; memory is valid and may supply data,
    /// but invalidating writes must still broadcast.
    Shared,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_state_properties() {
        assert!(CoreState::Modified.can_write());
        assert!(CoreState::Exclusive.can_write());
        assert!(!CoreState::Shared.can_write());
        assert!(!CoreState::Invalid.is_valid());
    }

    #[test]
    fn exactly_three_node_states_forward() {
        let fwd: Vec<_> = [
            MesifState::Modified,
            MesifState::Exclusive,
            MesifState::Shared,
            MesifState::Forward,
            MesifState::Invalid,
        ]
        .into_iter()
        .filter(|s| s.can_forward())
        .collect();
        assert_eq!(
            fwd,
            vec![MesifState::Modified, MesifState::Exclusive, MesifState::Forward]
        );
    }

    #[test]
    fn forwarding_demotes_to_shared() {
        assert_eq!(
            MesifState::Modified.after_forwarding_read(),
            MesifState::Shared
        );
        assert_eq!(
            MesifState::Forward.after_forwarding_read(),
            MesifState::Shared
        );
        assert_eq!(
            MesifState::Invalid.after_forwarding_read(),
            MesifState::Invalid
        );
    }

    #[test]
    fn directory_default_is_remote_invalid() {
        assert_eq!(DirState::default(), DirState::RemoteInvalid);
    }
}
