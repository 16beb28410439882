//! Node bitsets.
//!
//! The HitME directory cache stores an 8-bit presence vector per entry —
//! one bit per NUMA node — which is exactly what [`NodeSet`] models. It is
//! also used for snoop fan-out bookkeeping throughout the protocol.

use hswx_mem::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A set of NUMA nodes, stored as an 8-bit presence vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct NodeSet(pub u8);

impl NodeSet {
    /// The empty set.
    pub const EMPTY: NodeSet = NodeSet(0);

    /// A singleton set.
    pub fn only(node: NodeId) -> Self {
        NodeSet(1 << node.0)
    }

    /// All of the first `n` nodes.
    pub fn first_n(n: u8) -> Self {
        debug_assert!(n <= 8);
        if n >= 8 {
            NodeSet(0xFF)
        } else {
            NodeSet((1u8 << n) - 1)
        }
    }

    /// Add a node.
    pub fn insert(&mut self, node: NodeId) {
        self.0 |= 1 << node.0;
    }

    /// Membership test.
    pub fn contains(self, node: NodeId) -> bool {
        self.0 & (1 << node.0) != 0
    }

    /// Without one node (non-mutating).
    pub fn without(self, node: NodeId) -> NodeSet {
        NodeSet(self.0 & !(1 << node.0))
    }

    /// Number of member nodes.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate members in ascending node order.
    pub fn iter(self) -> impl Iterator<Item = NodeId> {
        (0u8..8).filter(move |i| self.0 & (1 << i) != 0).map(NodeId)
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut s = NodeSet::EMPTY;
        for n in iter {
            s.insert(n);
        }
        s
    }
}

impl fmt::Display for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for n in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", n.0)?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::EMPTY;
        s.insert(NodeId(3));
        s.insert(NodeId(0));
        assert!(s.contains(NodeId(3)));
        assert!(s.contains(NodeId(0)));
        assert!(!s.contains(NodeId(1)));
        s = s.without(NodeId(3));
        assert!(!s.contains(NodeId(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let a: NodeSet = [NodeId(0), NodeId(1), NodeId(2)].into_iter().collect();
        assert_eq!(a.without(NodeId(0)).len(), 2);
    }

    #[test]
    fn first_n_and_iter() {
        let s = NodeSet::first_n(4);
        let v: Vec<u8> = s.iter().map(|n| n.0).collect();
        assert_eq!(v, vec![0, 1, 2, 3]);
        assert_eq!(NodeSet::first_n(8), NodeSet(0xFF));
        assert_eq!(NodeSet::first_n(0), NodeSet::EMPTY);
    }

    #[test]
    fn display_is_readable() {
        let s: NodeSet = [NodeId(0), NodeId(2)].into_iter().collect();
        assert_eq!(format!("{s}"), "{0,2}");
    }
}
