//! The "HitME" directory cache.
//!
//! Haswell-EP adds a tiny (14 KiB per home agent) SRAM cache of directory
//! entries to hide the in-memory directory latency for *migratory* lines —
//! lines bouncing between nodes (Moga et al., US 8,631,210; Karedla's
//! Haswell-EP overview). Each entry holds an 8-bit presence vector.
//!
//! The paper deduces from its Figure 7 measurements that the
//! **AllocateShared** policy is implemented: an entry is allocated when a
//! line is forwarded between caching agents in *different* nodes and the
//! requester is not in the home node. Allocation forces the in-memory
//! directory to `SnoopAll`; while the entry lives, the presence vector can
//! prove a line is shared-clean, letting the home agent forward the valid
//! memory copy *without* a broadcast — which is why small shared data sets
//! show memory-sourced forwards (fast) and large ones degrade to snoops.

use crate::presence::NodeSet;
use hswx_mem::{CacheGeometry, LineAddr, NodeId, SetAssocCache};
use serde::{Deserialize, Serialize};

/// One directory-cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HitMeEntry {
    /// Nodes that hold (or may hold) a copy.
    pub nodes: NodeSet,
    /// Whether every cached copy is known clean (memory copy valid).
    pub clean: bool,
}

/// Per-home-agent HitME directory cache.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HitMeCache {
    cache: SetAssocCache<HitMeEntry>,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Entries allocated.
    pub allocs: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl HitMeCache {
    /// The production 14 KiB organization.
    pub fn haswell() -> Self {
        Self::with_geometry(CacheGeometry::hitme_haswell())
    }

    /// A custom organization (ablation studies sweep capacity).
    pub fn with_geometry(geom: CacheGeometry) -> Self {
        HitMeCache {
            cache: SetAssocCache::new(geom),
            hits: 0,
            misses: 0,
            allocs: 0,
            evictions: 0,
        }
    }

    /// Look up `line`, promoting it on hit.
    pub fn lookup(&mut self, line: LineAddr) -> Option<HitMeEntry> {
        match self.cache.access(line) {
            Some(e) => {
                self.hits += 1;
                Some(*e)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// AllocateShared policy predicate: should this completed read allocate
    /// an entry?
    ///
    /// True exactly when data was forwarded from a caching agent in a
    /// different node than the home **and** the requester is not in the
    /// home node. First-touch transfers of `RemoteInvalid` lines are *not*
    /// allocated (they required no snoop).
    pub fn should_allocate(
        requester: NodeId,
        home: NodeId,
        forwarded_from_cache: Option<NodeId>,
        required_snoop: bool,
    ) -> bool {
        requester != home && required_snoop && forwarded_from_cache.is_some()
    }

    /// Install (or refresh) an entry. Returns the evicted line, if any.
    ///
    /// Evicted lines leave the in-memory directory in `SnoopAll` (the
    /// stale-directory effect the paper measures in Table V).
    pub fn allocate(&mut self, line: LineAddr, entry: HitMeEntry) -> Option<LineAddr> {
        self.allocs += 1;
        match self.cache.insert(line, entry) {
            Some((victim, _)) if victim != line => {
                self.evictions += 1;
                Some(victim)
            }
            _ => None,
        }
    }

    /// Update an existing entry in place (no LRU promotion) — used when a
    /// transaction adds a sharer or transfers ownership.
    pub fn update(&mut self, line: LineAddr, f: impl FnOnce(&mut HitMeEntry)) -> bool {
        match self.cache.peek_mut(line) {
            Some(e) => {
                f(e);
                true
            }
            None => false,
        }
    }

    /// Drop an entry (e.g. when the line is written back and dies).
    pub fn invalidate(&mut self, line: LineAddr) -> Option<HitMeEntry> {
        self.cache.remove(line)
    }

    /// Peek an entry without promoting it or counting a lookup.
    pub fn peek(&self, line: LineAddr) -> Option<&HitMeEntry> {
        self.cache.peek(line)
    }

    /// Iterate every resident entry (no LRU promotion, no stat updates) —
    /// used by the runtime invariant monitor's global scans.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &HitMeEntry)> {
        self.cache.iter()
    }

    /// Counter totals in one stable shape for metrics aggregation:
    /// `[hits, misses, allocs, evictions]`.
    pub fn counters(&self) -> [u64; 4] {
        [self.hits, self.misses, self.allocs, self.evictions]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(nodes: &[u8], clean: bool) -> HitMeEntry {
        HitMeEntry {
            nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
            clean,
        }
    }

    #[test]
    fn lookup_miss_then_hit() {
        let mut h = HitMeCache::haswell();
        assert_eq!(h.lookup(LineAddr(1)), None);
        h.allocate(LineAddr(1), entry(&[0, 2], true));
        let e = h.lookup(LineAddr(1)).unwrap();
        assert!(e.clean);
        assert_eq!(e.nodes.len(), 2);
        assert_eq!(h.hits, 1);
        assert_eq!(h.misses, 1);
    }

    #[test]
    fn capacity_matches_14_kib_model() {
        let h = HitMeCache::haswell();
        assert_eq!(h.cache.capacity(), 1792);
    }

    #[test]
    fn allocate_shared_policy_requester_in_home_never_allocates() {
        assert!(!HitMeCache::should_allocate(
            NodeId(1),
            NodeId(1),
            Some(NodeId(2)),
            true
        ));
    }

    #[test]
    fn allocate_shared_policy_first_touch_never_allocates() {
        // Remote-invalid line transferred to a remote CA: no snoop was
        // needed, so no entry is allocated (paper §IV-D).
        assert!(!HitMeCache::should_allocate(
            NodeId(0),
            NodeId(1),
            None,
            false
        ));
    }

    #[test]
    fn allocate_shared_policy_cross_node_forward_allocates() {
        assert!(HitMeCache::should_allocate(
            NodeId(0),
            NodeId(1),
            Some(NodeId(2)),
            true
        ));
    }

    #[test]
    fn eviction_reports_victim() {
        let mut h = HitMeCache::with_geometry(CacheGeometry::new(2 * 64, 1));
        // 2 sets x 1 way; lines 0 and 2 collide in set 0.
        assert_eq!(h.allocate(LineAddr(0), entry(&[1], true)), None);
        let victim = h.allocate(LineAddr(2), entry(&[2], true));
        assert_eq!(victim, Some(LineAddr(0)));
        assert_eq!(h.evictions, 1);
    }

    #[test]
    fn update_in_place() {
        let mut h = HitMeCache::haswell();
        h.allocate(LineAddr(9), entry(&[0], true));
        assert!(h.update(LineAddr(9), |e| {
            e.nodes.insert(NodeId(3));
            e.clean = false;
        }));
        let e = h.lookup(LineAddr(9)).unwrap();
        assert!(e.nodes.contains(NodeId(3)));
        assert!(!e.clean);
        assert!(!h.update(LineAddr(1234), |_| ()));
    }

    #[test]
    fn working_sets_beyond_capacity_thrash() {
        // The Figure 7 mechanism in miniature: footprints larger than the
        // entry count evict continuously, so steady-state hit rate falls.
        let mut h = HitMeCache::haswell();
        let lines = h.cache.capacity() as u64 * 4;
        for pass in 0..3 {
            for l in 0..lines {
                if h.lookup(LineAddr(l)).is_none() {
                    h.allocate(LineAddr(l), entry(&[1], true));
                }
            }
            if pass == 0 {
                continue;
            }
            assert!(h.hits < h.misses, "{} hits, {} misses", h.hits, h.misses);
        }
    }
}
