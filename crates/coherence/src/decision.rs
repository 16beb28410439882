//! Protocol decision tables.
//!
//! Pure functions mapping (request, cache/directory observations) to the
//! actions a caching agent or home agent takes. `hswx-haswell` executes
//! these decisions inside the discrete-event system; everything here is
//! timing-free and exhaustively unit-tested against the behaviours the
//! paper documents in §IV and §VI.

use crate::l3meta::L3Meta;
use crate::presence::NodeSet;
use crate::state::{DirState, MesifState};
use hswx_mem::NodeId;
use serde::{Deserialize, Serialize};

/// Core-issued request classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReqType {
    /// Read for sharing (load miss).
    Read,
    /// Read for ownership (store miss / upgrade).
    Rfo,
    /// `clflush`: evict everywhere, write dirty data to memory.
    Flush,
}

/// Snoop transmission mode (BIOS "Early Snoop" switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SnoopMode {
    /// Early Snoop enabled: the requesting caching agent broadcasts snoops
    /// itself, in parallel with the home request (lowest latency).
    Source,
    /// Early Snoop disabled: the home agent sends all snoops after the
    /// request arrives (enables directory support, saves QPI traffic).
    Home,
}

/// Full protocol configuration of a system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Who broadcasts snoops.
    pub mode: SnoopMode,
    /// Whether the 2-bit in-memory directory is consulted/maintained.
    pub directory: bool,
    /// Whether the HitME directory cache is active (requires `directory`).
    pub hitme: bool,
}

impl ProtocolConfig {
    /// Default BIOS configuration: source snooping, no directory.
    pub fn source_snoop() -> Self {
        ProtocolConfig { mode: SnoopMode::Source, directory: false, hitme: false }
    }

    /// Early Snoop disabled: home snooping, still no directory
    /// (the paper shows directory support is inactive in this mode).
    pub fn home_snoop() -> Self {
        ProtocolConfig { mode: SnoopMode::Home, directory: false, hitme: false }
    }

    /// Cluster-on-Die: home snooping with directory and HitME cache.
    pub fn cod() -> Self {
        ProtocolConfig { mode: SnoopMode::Home, directory: true, hitme: true }
    }
}

/// What a caching agent does with a local core's request, given its L3
/// lookup result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CaAction {
    /// L3 data is valid for this request; reply immediately (21.2 ns class).
    ServeFromL3,
    /// A single other local core may hold a newer copy; probe it first
    /// (44.4 / 49 / 53 ns class).
    SnoopLocalCore {
        /// Node-local index of the core to probe.
        local_core: u8,
    },
    /// RFO hit on an owned (M/E) line: invalidate these local sharers and
    /// grant ownership without any node-level transaction.
    RfoHitOwned {
        /// CV bits of local cores to invalidate (requester excluded).
        invalidate_cv: u32,
    },
    /// RFO hit on a Shared/Forward line: data is present but node-level
    /// ownership is missing — invalidate local sharers *and* send an
    /// ownership request (InvItoE) to the home agent.
    UpgradeNeeded {
        /// CV bits of local cores to invalidate (requester excluded).
        invalidate_cv: u32,
    },
    /// Flush of a resident line: invalidate local copies; write back to the
    /// home memory if dirty; notify home so peers/directory are cleaned.
    FlushResident {
        /// Whether a dirty writeback must accompany the flush.
        dirty: bool,
        /// CV bits of local cores to invalidate.
        invalidate_cv: u32,
    },
    /// Not present in this node's L3: start a node-level transaction.
    Miss,
}

/// Decide how the local caching agent services `req` from node-local core
/// `requester` given L3 metadata `meta` (`None` = L3 miss).
pub fn ca_local_action(req: ReqType, meta: Option<&L3Meta>, requester: u8) -> CaAction {
    let Some(m) = meta else {
        return match req {
            // Flushing a non-resident line still notifies home (it may be
            // cached elsewhere), which we treat as a node-level miss path.
            ReqType::Flush => CaAction::Miss,
            _ => CaAction::Miss,
        };
    };
    match req {
        ReqType::Read => match m.local_snoop_target(requester) {
            Some(c) => CaAction::SnoopLocalCore { local_core: c },
            None => CaAction::ServeFromL3,
        },
        ReqType::Rfo => {
            let inv = m.other_sharers(requester);
            match m.state {
                MesifState::Modified | MesifState::Exclusive => {
                    CaAction::RfoHitOwned { invalidate_cv: inv }
                }
                MesifState::Shared | MesifState::Forward => {
                    CaAction::UpgradeNeeded { invalidate_cv: inv }
                }
                MesifState::Invalid => CaAction::Miss,
            }
        }
        ReqType::Flush => CaAction::FlushResident {
            dirty: m.state.is_dirty(),
            invalidate_cv: m.cv,
        },
    }
}

/// Where completed read data came from (for statistics and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataSource {
    /// Hit in the requesting core's own L1D.
    SelfL1,
    /// Hit in the requesting core's own L2.
    SelfL2,
    /// Served by the requester's own node's L3.
    LocalL3,
    /// Forwarded by a core's L1/L2 inside the requester's node.
    LocalCore,
    /// Forwarded by a peer node's L3 (node id).
    PeerL3(NodeId),
    /// Forwarded by a core's L1/L2 in a peer node (node id).
    PeerCore(NodeId),
    /// Supplied from memory at the home node (node id).
    Memory(NodeId),
}

/// The home agent's plan when a read request arrives (phase 1: before the
/// in-memory directory is available).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HaPlan {
    /// Peer caching agents the HA itself snoops right away.
    pub snoops: NodeSet,
    /// Whether the HA probes its own node's CA (always done in home-snoop
    /// modes when the requester is remote — "the local snoop in the home
    /// node is carried out independent of the directory state").
    pub probe_home_ca: bool,
    /// Whether the memory copy may be sent without waiting for any snoop
    /// response (HitME proved the line shared-clean).
    pub memory_reply_ok: bool,
    /// Whether the in-memory directory result (piggybacked on the DRAM
    /// read) must be consulted before the transaction can complete.
    pub need_dir: bool,
}

/// Home-agent arrival plan for a read of a line homed at `home`, requested
/// by `requester`, with `all` the set of every node in the system.
///
/// `hitme_entry_clean`: `Some(clean)` if the HitME cache hit.
pub fn ha_read_arrival_plan(
    cfg: ProtocolConfig,
    hitme_hit: Option<(NodeSet, bool)>,
    requester: NodeId,
    home: NodeId,
    all: NodeSet,
) -> HaPlan {
    let peers = all.without(requester).without(home);
    match cfg.mode {
        // Source snooping: the requesting CA already broadcast; the HA only
        // collects responses and reads memory.
        SnoopMode::Source => HaPlan {
            snoops: NodeSet::EMPTY,
            probe_home_ca: false,
            memory_reply_ok: false,
            need_dir: false,
        },
        SnoopMode::Home if !cfg.directory => HaPlan {
            // Plain home snooping: snoop everyone except the requester
            // immediately; no directory to consult.
            snoops: peers,
            probe_home_ca: home != requester,
            memory_reply_ok: false,
            need_dir: false,
        },
        SnoopMode::Home => {
            // Directory-assisted home snooping (COD).
            match hitme_hit {
                Some((_, true)) => HaPlan {
                    // Presence vector proves shared-clean: forward the
                    // valid memory copy with no broadcast (Fig. 7 fast path).
                    snoops: NodeSet::EMPTY,
                    probe_home_ca: home != requester,
                    memory_reply_ok: true,
                    need_dir: false,
                },
                Some((nodes, _)) => HaPlan {
                    // Possibly-dirty migratory line: snoop exactly the
                    // recorded holders.
                    snoops: nodes.without(requester).without(home),
                    probe_home_ca: home != requester,
                    memory_reply_ok: false,
                    need_dir: false,
                },
                None => HaPlan {
                    // Must wait for the in-memory directory bits.
                    snoops: NodeSet::EMPTY,
                    probe_home_ca: home != requester,
                    memory_reply_ok: false,
                    need_dir: true,
                },
            }
        }
    }
}

/// Phase-2 plan once the in-memory directory state is known (directory
/// modes only, after a HitME miss).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirPlan {
    /// Snoops to send now (empty if none required).
    pub snoops: NodeSet,
    /// Whether memory data may be sent without snoop responses.
    pub memory_reply_ok: bool,
}

/// Decide what the directory result requires.
pub fn ha_read_dir_plan(
    dir: DirState,
    requester: NodeId,
    home: NodeId,
    all: NodeSet,
) -> DirPlan {
    match dir {
        DirState::RemoteInvalid | DirState::Shared => DirPlan {
            snoops: NodeSet::EMPTY,
            memory_reply_ok: true,
        },
        DirState::SnoopAll => DirPlan {
            snoops: all.without(requester).without(home),
            memory_reply_ok: false,
        },
    }
}

/// MESIF state installed at the requesting node after a read completes.
///
/// A cache-to-cache forward hands the Forward designation to the most
/// recent requester (the forwarder demotes to S, keeping the single-F
/// invariant). A sole cached copy from memory is Exclusive. Memory data
/// delivered *while other sharers exist* (directory `Shared` or a HitME
/// shared-clean hit) installs as Shared — the existing Forward holder, if
/// any, keeps its designation.
pub fn fill_state_after_read(source: DataSource, other_sharers: bool) -> MesifState {
    match source {
        DataSource::Memory(_) if !other_sharers => MesifState::Exclusive,
        DataSource::Memory(_) => MesifState::Shared,
        _ => MesifState::Forward,
    }
}

/// In-memory directory state after a read completes (directory modes).
///
/// * Lines staying entirely within the home node remain `RemoteInvalid`.
/// * A line granted to a remote node becomes `SnoopAll` if it could be
///   modified there (E grant) or if a HitME entry was allocated
///   (AllocateShared forces `SnoopAll`); plain extra sharers give `Shared`.
/// * A broadcast that found no remote copies cleans a stale `SnoopAll`.
pub fn dir_after_read(
    prev: DirState,
    requester: NodeId,
    home: NodeId,
    granted: MesifState,
    remote_copies_remain: bool,
    hitme_entry_live: bool,
) -> DirState {
    let _ = prev; // directory writes are precise in this model
    if requester == home {
        if hitme_entry_live {
            DirState::SnoopAll
        } else if remote_copies_remain {
            DirState::Shared
        } else {
            DirState::RemoteInvalid
        }
    } else {
        match granted {
            MesifState::Exclusive | MesifState::Modified => DirState::SnoopAll,
            _ if hitme_entry_live => DirState::SnoopAll,
            _ => DirState::Shared,
        }
    }
}

/// Directory state after an RFO completes.
pub fn dir_after_rfo(requester: NodeId, home: NodeId) -> DirState {
    if requester == home {
        DirState::RemoteInvalid
    } else {
        DirState::SnoopAll
    }
}

/// Directory state after the line's cached copies are retired to memory:
/// a dirty L3 eviction, a flush or a non-temporal store.
pub fn dir_after_writeback() -> DirState {
    DirState::RemoteInvalid
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all4() -> NodeSet {
        NodeSet::first_n(4)
    }
    fn all2() -> NodeSet {
        NodeSet::first_n(2)
    }

    // ---- CA decision table ----

    #[test]
    fn read_miss_goes_node_level() {
        assert_eq!(ca_local_action(ReqType::Read, None, 0), CaAction::Miss);
    }

    #[test]
    fn read_hit_shared_serves_immediately() {
        let mut m = L3Meta::filled_by(MesifState::Exclusive, 1);
        m.add_core(2);
        assert_eq!(ca_local_action(ReqType::Read, Some(&m), 0), CaAction::ServeFromL3);
    }

    #[test]
    fn read_hit_exclusive_other_core_snoops() {
        let m = L3Meta::filled_by(MesifState::Exclusive, 1);
        assert_eq!(
            ca_local_action(ReqType::Read, Some(&m), 0),
            CaAction::SnoopLocalCore { local_core: 1 }
        );
    }

    #[test]
    fn rfo_hit_owned_invalidates_sharers() {
        let mut m = L3Meta::filled_by(MesifState::Exclusive, 1);
        m.add_core(2);
        assert_eq!(
            ca_local_action(ReqType::Rfo, Some(&m), 2),
            CaAction::RfoHitOwned { invalidate_cv: 0b10 }
        );
    }

    #[test]
    fn rfo_on_shared_needs_upgrade() {
        let m = L3Meta::filled_by(MesifState::Forward, 0);
        assert_eq!(
            ca_local_action(ReqType::Rfo, Some(&m), 0),
            CaAction::UpgradeNeeded { invalidate_cv: 0 }
        );
        let m = L3Meta::filled_by(MesifState::Shared, 1);
        assert_eq!(
            ca_local_action(ReqType::Rfo, Some(&m), 0),
            CaAction::UpgradeNeeded { invalidate_cv: 0b10 }
        );
    }

    #[test]
    fn flush_reports_dirtiness_and_cv() {
        let m = L3Meta::filled_by(MesifState::Modified, 3);
        assert_eq!(
            ca_local_action(ReqType::Flush, Some(&m), 3),
            CaAction::FlushResident { dirty: true, invalidate_cv: 0b1000 }
        );
        let m = L3Meta::l3_only(MesifState::Exclusive);
        assert_eq!(
            ca_local_action(ReqType::Flush, Some(&m), 0),
            CaAction::FlushResident { dirty: false, invalidate_cv: 0 }
        );
    }

    // ---- HA arrival plans ----

    #[test]
    fn source_mode_ha_sends_no_snoops() {
        let p = ha_read_arrival_plan(
            ProtocolConfig::source_snoop(),
            None,
            NodeId(0),
            NodeId(1),
            all2(),
        );
        assert_eq!(p.snoops, NodeSet::EMPTY);
        assert!(!p.probe_home_ca);
        assert!(!p.memory_reply_ok);
        assert!(!p.need_dir);
    }

    #[test]
    fn home_mode_snoops_everyone_but_requester() {
        // 2-socket, remote memory access: only the home's own CA to check.
        let p = ha_read_arrival_plan(
            ProtocolConfig::home_snoop(),
            None,
            NodeId(0),
            NodeId(1),
            all2(),
        );
        assert_eq!(p.snoops, NodeSet::EMPTY);
        assert!(p.probe_home_ca);
        // Local access: the peer socket must be snooped.
        let p = ha_read_arrival_plan(
            ProtocolConfig::home_snoop(),
            None,
            NodeId(0),
            NodeId(0),
            all2(),
        );
        assert_eq!(p.snoops, NodeSet::only(NodeId(1)));
        assert!(!p.probe_home_ca);
    }

    #[test]
    fn cod_hitme_clean_hit_forwards_memory_without_broadcast() {
        let sharers: NodeSet = [NodeId(1), NodeId(2)].into_iter().collect();
        let p = ha_read_arrival_plan(
            ProtocolConfig::cod(),
            Some((sharers, true)),
            NodeId(0),
            NodeId(1),
            all4(),
        );
        assert!(p.memory_reply_ok, "Fig. 7 fast path");
        assert_eq!(p.snoops, NodeSet::EMPTY);
        assert!(p.probe_home_ca);
        assert!(!p.need_dir);
    }

    #[test]
    fn cod_hitme_dirty_hit_snoops_exact_holders() {
        let holders = NodeSet::only(NodeId(3));
        let p = ha_read_arrival_plan(
            ProtocolConfig::cod(),
            Some((holders, false)),
            NodeId(0),
            NodeId(1),
            all4(),
        );
        assert_eq!(p.snoops, NodeSet::only(NodeId(3)));
        assert!(!p.memory_reply_ok);
    }

    #[test]
    fn cod_hitme_miss_waits_for_directory() {
        let p = ha_read_arrival_plan(
            ProtocolConfig::cod(),
            None,
            NodeId(0),
            NodeId(1),
            all4(),
        );
        assert!(p.need_dir);
        assert!(p.probe_home_ca);
        assert_eq!(p.snoops, NodeSet::EMPTY);
    }

    #[test]
    fn cod_local_request_does_not_probe_home_ca() {
        let p = ha_read_arrival_plan(
            ProtocolConfig::cod(),
            None,
            NodeId(2),
            NodeId(2),
            all4(),
        );
        assert!(!p.probe_home_ca, "requester CA already missed");
    }

    // ---- directory phase-2 plans ----

    #[test]
    fn dir_remote_invalid_replies_from_memory() {
        let p = ha_read_dir_plan(DirState::RemoteInvalid, NodeId(0), NodeId(0), all4());
        assert!(p.memory_reply_ok);
        assert!(p.snoops.is_empty());
    }

    #[test]
    fn dir_shared_replies_from_memory_for_reads() {
        let p = ha_read_dir_plan(DirState::Shared, NodeId(0), NodeId(1), all4());
        assert!(p.memory_reply_ok);
    }

    #[test]
    fn dir_snoop_all_broadcasts_to_peers() {
        let p = ha_read_dir_plan(DirState::SnoopAll, NodeId(0), NodeId(1), all4());
        assert!(!p.memory_reply_ok);
        let want: NodeSet = [NodeId(2), NodeId(3)].into_iter().collect();
        assert_eq!(p.snoops, want);
    }

    // ---- fill states ----

    #[test]
    fn sole_memory_copy_fills_exclusive() {
        assert_eq!(
            fill_state_after_read(DataSource::Memory(NodeId(0)), false),
            MesifState::Exclusive
        );
    }

    #[test]
    fn forwarded_fills_forward_memory_with_sharers_fills_shared() {
        assert_eq!(
            fill_state_after_read(DataSource::PeerL3(NodeId(1)), true),
            MesifState::Forward
        );
        assert_eq!(
            fill_state_after_read(DataSource::Memory(NodeId(1)), true),
            MesifState::Shared,
            "single-F invariant: memory data must not mint a second forwarder"
        );
        assert_eq!(
            fill_state_after_read(DataSource::PeerCore(NodeId(1)), false),
            MesifState::Forward
        );
    }

    // ---- directory update rules ----

    #[test]
    fn home_only_lines_stay_remote_invalid() {
        let d = dir_after_read(
            DirState::RemoteInvalid,
            NodeId(1),
            NodeId(1),
            MesifState::Exclusive,
            false,
            false,
        );
        assert_eq!(d, DirState::RemoteInvalid);
    }

    #[test]
    fn remote_e_grant_sets_snoop_all() {
        let d = dir_after_read(
            DirState::RemoteInvalid,
            NodeId(0),
            NodeId(1),
            MesifState::Exclusive,
            false,
            false,
        );
        assert_eq!(d, DirState::SnoopAll);
    }

    #[test]
    fn allocate_shared_forces_snoop_all() {
        // Forward-state grant with a live HitME entry: SnoopAll, not Shared
        // — the effect the paper verifies in Table V.
        let d = dir_after_read(
            DirState::Shared,
            NodeId(0),
            NodeId(1),
            MesifState::Forward,
            true,
            true,
        );
        assert_eq!(d, DirState::SnoopAll);
    }

    #[test]
    fn remote_share_without_hitme_is_shared() {
        let d = dir_after_read(
            DirState::RemoteInvalid,
            NodeId(0),
            NodeId(1),
            MesifState::Forward,
            true,
            false,
        );
        assert_eq!(d, DirState::Shared);
    }

    #[test]
    fn home_read_after_broadcast_cleans_stale_snoop_all() {
        let d = dir_after_read(
            DirState::SnoopAll,
            NodeId(1),
            NodeId(1),
            MesifState::Exclusive,
            false,
            false,
        );
        assert_eq!(d, DirState::RemoteInvalid);
    }

    #[test]
    fn rfo_and_writeback_rules() {
        assert_eq!(dir_after_rfo(NodeId(0), NodeId(1)), DirState::SnoopAll);
        assert_eq!(dir_after_rfo(NodeId(1), NodeId(1)), DirState::RemoteInvalid);
        assert_eq!(dir_after_writeback(), DirState::RemoteInvalid);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn any_cfg() -> impl Strategy<Value = ProtocolConfig> {
        prop_oneof![
            Just(ProtocolConfig::source_snoop()),
            Just(ProtocolConfig::home_snoop()),
            Just(ProtocolConfig::cod()),
        ]
    }

    fn any_hitme() -> impl Strategy<Value = Option<(NodeSet, bool)>> {
        prop_oneof![
            Just(None),
            (0u8..=255, any::<bool>()).prop_map(|(bits, clean)| Some((NodeSet(bits), clean))),
        ]
    }

    proptest! {
        /// The home agent never snoops the requester (its CA already
        /// missed) and never lists the home among its QPI snoops.
        #[test]
        fn ha_never_snoops_requester_or_home(
            cfg in any_cfg(),
            hitme in any_hitme(),
            requester in 0u8..4,
            home in 0u8..4,
            n_nodes in 2u8..=4,
        ) {
            let requester = NodeId(requester % n_nodes);
            let home = NodeId(home % n_nodes);
            let all = NodeSet::first_n(n_nodes);
            let hitme = if cfg.hitme { hitme } else { None };
            let plan = ha_read_arrival_plan(cfg, hitme, requester, home, all);
            prop_assert!(!plan.snoops.contains(requester));
            prop_assert!(!plan.snoops.contains(home));
            // A plan that can answer from memory needs no directory wait.
            if plan.memory_reply_ok {
                prop_assert!(!plan.need_dir);
            }
        }

        /// Directory phase-2: snoop-all broadcasts to everyone except
        /// requester and home; clean states answer from memory.
        #[test]
        fn dir_plan_is_consistent(
            dir in prop_oneof![
                Just(DirState::RemoteInvalid),
                Just(DirState::Shared),
                Just(DirState::SnoopAll)
            ],
            requester in 0u8..4,
            home in 0u8..4,
        ) {
            let all = NodeSet::first_n(4);
            let p = ha_read_dir_plan(dir, NodeId(requester), NodeId(home), all);
            prop_assert_eq!(p.memory_reply_ok, dir != DirState::SnoopAll);
            prop_assert!(!p.snoops.contains(NodeId(requester)));
            prop_assert!(!p.snoops.contains(NodeId(home)));
            if dir == DirState::SnoopAll {
                let expected = all.without(NodeId(requester)).without(NodeId(home));
                prop_assert_eq!(p.snoops, expected);
            } else {
                prop_assert!(p.snoops.is_empty());
            }
        }

        /// Fill-state rule never mints a second forwarder from memory data
        /// and never installs Invalid/Modified on a read.
        #[test]
        fn fill_state_is_legal(
            from_cache in any::<bool>(),
            node in 0u8..4,
            sharers in any::<bool>(),
        ) {
            let src = if from_cache {
                DataSource::PeerL3(NodeId(node))
            } else {
                DataSource::Memory(NodeId(node))
            };
            let st = fill_state_after_read(src, sharers);
            prop_assert!(st != MesifState::Invalid && st != MesifState::Modified);
            if !from_cache && sharers {
                prop_assert_eq!(st, MesifState::Shared);
            }
        }

        /// The CA decision table is total and never snoops the requester's
        /// own core index.
        #[test]
        fn ca_table_is_total(
            state_idx in 0usize..4,
            cv in 0u32..(1 << 12),
            requester in 0u8..12,
        ) {
            let state = [
                MesifState::Modified,
                MesifState::Exclusive,
                MesifState::Shared,
                MesifState::Forward,
            ][state_idx];
            let meta = L3Meta { state, cv };
            for req in [ReqType::Read, ReqType::Rfo, ReqType::Flush] {
                let action = ca_local_action(req, Some(&meta), requester);
                if let CaAction::SnoopLocalCore { local_core } = action {
                    prop_assert_ne!(local_core, requester);
                }
                if let CaAction::RfoHitOwned { invalidate_cv }
                | CaAction::UpgradeNeeded { invalidate_cv } = action
                {
                    prop_assert_eq!(invalidate_cv & (1 << requester), 0);
                }
            }
        }
    }
}
