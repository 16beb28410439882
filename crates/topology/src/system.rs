//! Whole-system topology: sockets, QPI, NUMA nodes, and address mapping.
//!
//! Assembles dies into the paper's dual-socket system and answers the
//! mapping questions the protocol needs:
//!
//! * which NUMA node a core belongs to (socket, or half-socket in COD);
//! * which L3 slice (caching agent) serves a line for a given node — the
//!   address hash selects among the *requesting* node's slices;
//! * which home agent owns a line — interleaved over the socket's two HAs
//!   without COD, pinned to the cluster's single HA with COD;
//! * structural distances between any two endpoints, including QPI
//!   crossings between sockets.
//!
//! NUMA placement follows a base-address scheme: the line's home node is
//! encoded in high physical-address bits, so benchmark allocators can
//! request memory "on node N" exactly like `libnuma` does in the paper.

use crate::die::{Die, DieVariant, Distance, Stop};
use crate::hash;
use hswx_mem::{Addr, CoreId, HaId, LineAddr, NodeId, SliceId, SocketId};
use serde::{Deserialize, Serialize};

/// Bit position (in *line* address space) where the home node is encoded.
/// Byte address bit 38: each node owns a 256 GiB region, far larger than
/// any experiment footprint.
const NODE_SHIFT: u32 = 38 - 6;

/// An addressable endpoint for distance queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Endpoint {
    /// A core (global index).
    Core(CoreId),
    /// An L3 slice / caching agent (global index).
    Slice(SliceId),
    /// A home agent (global index).
    Ha(HaId),
    /// A socket's QPI interface.
    Qpi(SocketId),
}

/// The assembled multi-socket system topology.
///
/// Every mapping query sits on the simulated-access hot path (slice
/// selection, HA interleave, CV-bit indices, send distances), so the
/// constructor derives lookup tables once and the public methods answer
/// from them without recomputation or allocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemTopology {
    dies: Vec<Die>,
    cod: bool,
    cores_per_die: u16,
    /// Cores of each node, ascending.
    cores_by_node: Vec<Vec<CoreId>>,
    /// L3 slices of each node (slice i co-located with core i).
    slices_by_node: Vec<Vec<SliceId>>,
    /// Home agents of each node.
    has_by_node: Vec<Vec<HaId>>,
    /// Node of each global core.
    node_of_core_tab: Vec<NodeId>,
    /// Node-local index of each global core (CV bit position).
    node_local_tab: Vec<u8>,
    /// Same-die distances between stop indices (see [`Self::stop_index`]);
    /// all dies are identical, so one `n_stops`×`n_stops` table serves
    /// every socket.
    stop_dist: Vec<Distance>,
    /// Stops per die in the distance table.
    n_stops: usize,
}

impl SystemTopology {
    /// `n_sockets` identical dies, optionally split by Cluster-on-Die.
    pub fn new(n_sockets: u8, variant: DieVariant, cod: bool) -> Self {
        assert!(n_sockets >= 1);
        let mut topo = SystemTopology {
            dies: (0..n_sockets).map(|_| Die::new(variant)).collect(),
            cod,
            cores_per_die: variant.cores(),
            cores_by_node: Vec::new(),
            slices_by_node: Vec::new(),
            has_by_node: Vec::new(),
            node_of_core_tab: Vec::new(),
            node_local_tab: Vec::new(),
            stop_dist: Vec::new(),
            n_stops: 0,
        };
        topo.build_caches();
        topo
    }

    /// Derive the lookup tables from the structural definitions above.
    fn build_caches(&mut self) {
        let n_cores = self.n_cores() as usize;
        self.node_of_core_tab = (0..n_cores)
            .map(|c| self.node_of_core_uncached(CoreId(c as u16)))
            .collect();
        self.cores_by_node = (0..self.n_nodes())
            .map(|n| {
                (0..n_cores as u16)
                    .map(CoreId)
                    .filter(|&c| self.node_of_core_tab[c.0 as usize] == NodeId(n))
                    .collect()
            })
            .collect();
        self.slices_by_node = self
            .cores_by_node
            .iter()
            .map(|cores| cores.iter().map(|&c| SliceId(c.0)).collect())
            .collect();
        self.has_by_node = (0..self.n_nodes())
            .map(|n| self.has_of_node_uncached(NodeId(n)))
            .collect();
        self.node_local_tab = (0..n_cores)
            .map(|c| {
                let core = CoreId(c as u16);
                let node = self.node_of_core_tab[c];
                self.cores_by_node[node.0 as usize]
                    .iter()
                    .position(|&cc| cc == core)
                    .expect("core in its node") as u8
            })
            .collect();
        // Same-die distance table over every stop endpoint_location can
        // produce: die-local core/slices, both IMCs, and the QPI stop.
        self.n_stops = self.cores_per_die as usize + 3;
        self.stop_dist = (0..self.n_stops * self.n_stops)
            .map(|i| {
                let a = Self::stop_of_index(i / self.n_stops, self.cores_per_die);
                let b = Self::stop_of_index(i % self.n_stops, self.cores_per_die);
                self.dies[0].distance(a, b)
            })
            .collect();
    }

    /// Distance-table index of a stop (cores, then IMC 0/1, then QPI).
    fn stop_index(&self, stop: Stop) -> usize {
        match stop {
            Stop::CoreSlice(c) => c as usize,
            Stop::Imc(i) => self.cores_per_die as usize + i as usize,
            Stop::Qpi => self.cores_per_die as usize + 2,
            other => panic!("no distance-table entry for {other:?}"),
        }
    }

    fn stop_of_index(i: usize, cores_per_die: u16) -> Stop {
        let cores = cores_per_die as usize;
        match i {
            _ if i < cores => Stop::CoreSlice(i as u16),
            _ if i < cores + 2 => Stop::Imc((i - cores) as u8),
            _ => Stop::Qpi,
        }
    }

    /// Number of sockets.
    pub fn n_sockets(&self) -> u8 {
        self.dies.len() as u8
    }

    /// Total cores in the system.
    pub fn n_cores(&self) -> u16 {
        self.cores_per_die * self.dies.len() as u16
    }

    /// Cores per socket.
    pub fn cores_per_socket(&self) -> u16 {
        self.cores_per_die
    }

    /// Number of NUMA nodes (sockets, or 2× with COD).
    pub fn n_nodes(&self) -> u8 {
        self.n_sockets() * if self.cod { 2 } else { 1 }
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n_nodes()).map(NodeId)
    }

    /// Socket containing `core`.
    pub fn socket_of_core(&self, core: CoreId) -> SocketId {
        SocketId((core.0 / self.cores_per_die) as u8)
    }

    /// Die-local index of `core`.
    pub fn local_core(&self, core: CoreId) -> u16 {
        core.0 % self.cores_per_die
    }

    /// NUMA node of `core`.
    pub fn node_of_core(&self, core: CoreId) -> NodeId {
        self.node_of_core_tab[core.0 as usize]
    }

    fn node_of_core_uncached(&self, core: CoreId) -> NodeId {
        let socket = self.socket_of_core(core);
        if self.cod {
            let cluster = self.dies[socket.0 as usize].cluster_of_core(self.local_core(core));
            NodeId(socket.0 * 2 + cluster)
        } else {
            NodeId(socket.0)
        }
    }

    /// Socket containing `node`.
    pub fn socket_of_node(&self, node: NodeId) -> SocketId {
        if self.cod {
            SocketId(node.0 / 2)
        } else {
            SocketId(node.0)
        }
    }

    /// Node-local index of `core` within its node (for CV bits).
    pub fn node_local_core(&self, core: CoreId) -> u8 {
        self.node_local_tab[core.0 as usize]
    }

    /// All cores of `node`, ascending (borrowed — no per-call allocation).
    pub fn cores_of_node(&self, node: NodeId) -> &[CoreId] {
        &self.cores_by_node[node.0 as usize]
    }

    /// All L3 slices of `node` (slice i is co-located with core i).
    pub fn slices_of_node(&self, node: NodeId) -> &[SliceId] {
        &self.slices_by_node[node.0 as usize]
    }

    /// Home agents of `node`: both of the socket's HAs without COD, the
    /// cluster's single HA with COD.
    pub fn has_of_node(&self, node: NodeId) -> Vec<HaId> {
        self.has_by_node[node.0 as usize].clone()
    }

    fn has_of_node_uncached(&self, node: NodeId) -> Vec<HaId> {
        let socket = self.socket_of_node(node);
        if self.cod {
            let cluster = node.0 % 2;
            let imc = self.dies[socket.0 as usize].imc_of_cluster(cluster);
            vec![HaId(socket.0 * 2 + imc)]
        } else {
            vec![HaId(socket.0 * 2), HaId(socket.0 * 2 + 1)]
        }
    }

    /// Node owning slice `slice`.
    pub fn node_of_slice(&self, slice: SliceId) -> NodeId {
        self.node_of_core(CoreId(slice.0))
    }

    // ---- address mapping ----

    /// First byte of `node`'s local memory region.
    pub fn numa_base(&self, node: NodeId) -> Addr {
        Addr((node.0 as u64) << 38)
    }

    /// Home node of a line (decoded from the address).
    pub fn home_node_of_line(&self, line: LineAddr) -> NodeId {
        let n = ((line.0 >> NODE_SHIFT) % self.n_nodes() as u64) as u8;
        NodeId(n)
    }

    /// The home agent owning `line`.
    pub fn ha_for_line(&self, line: LineAddr) -> HaId {
        let home = self.home_node_of_line(line);
        let has = &self.has_by_node[home.0 as usize];
        has[hash::pick(line.0, has.len())]
    }

    /// The caching agent (slice) responsible for `line` from the point of
    /// view of a requester in `node`.
    pub fn slice_for_line(&self, line: LineAddr, node: NodeId) -> SliceId {
        let slices = self.slices_of_node(node);
        slices[hash::pick(line.0, slices.len())]
    }

    // ---- distances ----

    /// Ring stops per die: every core/slice stop, both IMCs, the QPI stop.
    pub fn n_stops(&self) -> usize {
        self.n_stops
    }

    /// Where `e` sits: its socket and its stop index (below
    /// [`n_stops`](Self::n_stops)), the coordinates of
    /// [`stop_distance`](Self::stop_distance).
    pub fn locate(&self, e: Endpoint) -> (SocketId, usize) {
        let (socket, stop) = match e {
            Endpoint::Core(c) => (self.socket_of_core(c), Stop::CoreSlice(self.local_core(c))),
            Endpoint::Slice(s) => (
                self.socket_of_core(CoreId(s.0)),
                Stop::CoreSlice(s.0 % self.cores_per_die),
            ),
            Endpoint::Ha(h) => (SocketId(h.0 / 2), Stop::Imc(h.0 % 2)),
            Endpoint::Qpi(s) => (s, Stop::Qpi),
        };
        (socket, self.stop_index(stop))
    }

    /// Distance between stop indices `a` and `b`, on one die or, with
    /// `cross_socket`, on two different dies. All dies are identical and
    /// fully connected, so a cross-socket path is the same two legs and one
    /// QPI crossing whichever two sockets it joins.
    pub fn stop_distance(&self, a: usize, b: usize, cross_socket: bool) -> Distance {
        if !cross_socket {
            return self.stop_dist[a * self.n_stops + b];
        }
        let qpi = self.cores_per_die as usize + 2;
        let to_qpi = self.stop_dist[a * self.n_stops + qpi];
        let from_qpi = self.stop_dist[qpi * self.n_stops + b];
        to_qpi.plus(from_qpi).plus(Distance { ring_hops: 0, queues: 0, qpi: 1 })
    }

    /// Structural distance between two endpoints, crossing QPI if they sit
    /// on different sockets. All dies are identical, so both the same-die
    /// and the per-die legs of a QPI crossing come from one precomputed
    /// stop-distance table.
    pub fn distance(&self, a: Endpoint, b: Endpoint) -> Distance {
        let (sa, ia) = self.locate(a);
        let (sb, ib) = self.locate(b);
        self.stop_distance(ia, ib, sa != sb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's test system: two 12-core dies.
    fn topo(cod: bool) -> SystemTopology {
        SystemTopology::new(2, DieVariant::TwelveCore, cod)
    }

    /// The paper's hop count between two nodes: 0 within a node, else the
    /// on-chip queue and QPI crossings between the nodes' first home
    /// agents (Fig. 6's 1-hop-on-chip / 1/2/3-hop QPI taxonomy).
    fn node_hops(t: &SystemTopology, a: NodeId, b: NodeId) -> u32 {
        if a == b {
            return 0;
        }
        let ha = |n| Endpoint::Ha(t.has_of_node(n)[0]);
        let d = t.distance(ha(a), ha(b));
        d.queues + d.qpi
    }

    #[test]
    fn non_cod_has_two_nodes() {
        let t = topo(false);
        assert_eq!(t.n_nodes(), 2);
        assert_eq!(t.n_cores(), 24);
        assert_eq!(t.node_of_core(CoreId(0)), NodeId(0));
        assert_eq!(t.node_of_core(CoreId(11)), NodeId(0));
        assert_eq!(t.node_of_core(CoreId(12)), NodeId(1));
        assert_eq!(t.cores_of_node(NodeId(0)).len(), 12);
        assert_eq!(t.slices_of_node(NodeId(1)).len(), 12);
        assert_eq!(t.has_of_node(NodeId(0)), vec![HaId(0), HaId(1)]);
    }

    #[test]
    fn cod_has_four_nodes_matching_paper_numbering() {
        let t = topo(true);
        assert_eq!(t.n_nodes(), 4);
        // Socket 0: node0 = cores 0-5, node1 = cores 6-11.
        assert_eq!(t.node_of_core(CoreId(5)), NodeId(0));
        assert_eq!(t.node_of_core(CoreId(6)), NodeId(1));
        // Socket 1: node2 = cores 12-17, node3 = cores 18-23.
        assert_eq!(t.node_of_core(CoreId(12)), NodeId(2));
        assert_eq!(t.node_of_core(CoreId(23)), NodeId(3));
        assert_eq!(t.cores_of_node(NodeId(1)).len(), 6);
        assert_eq!(t.has_of_node(NodeId(0)), vec![HaId(0)]);
        assert_eq!(t.has_of_node(NodeId(1)), vec![HaId(1)]);
        assert_eq!(t.has_of_node(NodeId(3)), vec![HaId(3)]);
    }

    #[test]
    fn node_local_core_indices_are_dense() {
        let t = topo(true);
        let cores = t.cores_of_node(NodeId(1));
        for (i, &c) in cores.iter().enumerate() {
            assert_eq!(t.node_local_core(c) as usize, i);
        }
    }

    #[test]
    fn numa_base_roundtrips_to_home_node() {
        for cod in [false, true] {
            let t = topo(cod);
            for node in t.nodes() {
                let base = t.numa_base(node);
                assert_eq!(t.home_node_of_line(base.line()), node, "cod={cod}");
                // Anywhere within the first GiB of the region too.
                let inner = Addr(base.0 + (1 << 30) - 64);
                assert_eq!(t.home_node_of_line(inner.line()), node);
            }
        }
    }

    #[test]
    fn ha_for_line_interleaves_without_cod() {
        let t = topo(false);
        let base = t.numa_base(NodeId(0)).line();
        let mut counts = [0u32; 2];
        for l in base.span(10_000) {
            counts[t.ha_for_line(l).0 as usize] += 1;
        }
        assert!(counts[0] > 4_000 && counts[1] > 4_000, "{counts:?}");
    }

    #[test]
    fn ha_for_line_is_pinned_with_cod() {
        let t = topo(true);
        let base = t.numa_base(NodeId(1)).line();
        for l in base.span(1_000) {
            assert_eq!(t.ha_for_line(l), HaId(1));
        }
    }

    #[test]
    fn slice_hash_spreads_within_requesting_node() {
        let t = topo(true);
        let base = t.numa_base(NodeId(0)).line();
        let slices = t.slices_of_node(NodeId(0));
        let mut counts = vec![0u32; 24];
        for l in base.span(12_000) {
            let s = t.slice_for_line(l, NodeId(0));
            assert!(slices.contains(&s));
            counts[s.0 as usize] += 1;
        }
        for s in slices {
            assert!(counts[s.0 as usize] > 1_500, "{counts:?}");
        }
    }

    #[test]
    fn qpi_crossing_counted_once() {
        let t = topo(false);
        let d = t.distance(Endpoint::Core(CoreId(0)), Endpoint::Core(CoreId(12)));
        assert_eq!(d.qpi, 1);
        let d = t.distance(Endpoint::Core(CoreId(0)), Endpoint::Core(CoreId(5)));
        assert_eq!(d.qpi, 0);
    }

    #[test]
    fn node_hops_match_paper_cod_taxonomy() {
        let t = topo(true);
        // Paper §VI-C: node0-node2 one hop (QPI), node0-node3 and
        // node1-node2 two hops, node1-node3 three hops.
        assert_eq!(node_hops(&t, NodeId(0), NodeId(0)), 0);
        assert_eq!(node_hops(&t, NodeId(0), NodeId(1)), 1); // on-chip queue
        assert_eq!(node_hops(&t, NodeId(0), NodeId(2)), 1); // QPI only
        assert_eq!(node_hops(&t, NodeId(0), NodeId(3)), 2);
        assert_eq!(node_hops(&t, NodeId(1), NodeId(2)), 2);
        assert_eq!(node_hops(&t, NodeId(1), NodeId(3)), 3);
    }

    #[test]
    fn distance_symmetry_across_sockets() {
        let t = topo(true);
        let pairs = [
            (Endpoint::Core(CoreId(3)), Endpoint::Ha(HaId(3))),
            (Endpoint::Slice(SliceId(8)), Endpoint::Ha(HaId(0))),
            (Endpoint::Core(CoreId(20)), Endpoint::Slice(SliceId(2))),
        ];
        for (a, b) in pairs {
            assert_eq!(t.distance(a, b), t.distance(b, a));
        }
    }

    #[test]
    fn eight_core_system_works_too() {
        let t = SystemTopology::new(2, DieVariant::EightCore, true);
        assert_eq!(t.n_nodes(), 4);
        assert_eq!(t.cores_of_node(NodeId(0)).len(), 4);
        // Single ring: no queue crossings on chip.
        assert_eq!(node_hops(&t, NodeId(0), NodeId(1)), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn any_topo() -> impl Strategy<Value = SystemTopology> {
        (any::<bool>(), 0usize..3).prop_map(|(cod, v)| {
            let variant = [
                crate::die::DieVariant::EightCore,
                crate::die::DieVariant::TwelveCore,
                crate::die::DieVariant::EighteenCore,
            ][v];
            SystemTopology::new(2, variant, cod)
        })
    }

    proptest! {
        /// Nodes partition the cores exactly.
        #[test]
        fn nodes_partition_cores(t in any_topo()) {
            let mut seen = vec![0u32; t.n_cores() as usize];
            for node in t.nodes() {
                for &c in t.cores_of_node(node) {
                    prop_assert_eq!(t.node_of_core(c), node);
                    seen[c.0 as usize] += 1;
                }
            }
            prop_assert!(seen.iter().all(|&x| x == 1));
        }

        /// Every line's responsible slice lies in the requesting node, and
        /// its home agent lies in its home node.
        #[test]
        fn line_mapping_is_node_consistent(t in any_topo(), line in 0u64..100_000) {
            for node in t.nodes() {
                let base = t.numa_base(node).line();
                let l = LineAddr(base.0 + line);
                prop_assert_eq!(t.home_node_of_line(l), node);
                let ha = t.ha_for_line(l);
                prop_assert!(t.has_of_node(node).contains(&ha));
                for req in t.nodes() {
                    let s = t.slice_for_line(l, req);
                    prop_assert_eq!(t.node_of_slice(s), req);
                }
            }
        }

        /// Distances are symmetric and satisfy the QPI-crossing rule.
        #[test]
        fn distances_symmetric(t in any_topo(), a in 0u16..16, b in 0u16..16) {
            let n = t.n_cores();
            let ea = Endpoint::Core(CoreId(a % n));
            let eb = Endpoint::Core(CoreId(b % n));
            prop_assert_eq!(t.distance(ea, eb), t.distance(eb, ea));
            let cross = t.socket_of_core(CoreId(a % n)) != t.socket_of_core(CoreId(b % n));
            prop_assert_eq!(t.distance(ea, eb).qpi, cross as u32);
        }

        /// node_local_core is a bijection onto 0..cores_per_node.
        #[test]
        fn node_local_indices_dense(t in any_topo()) {
            for node in t.nodes() {
                let cores = t.cores_of_node(node);
                let mut idx: Vec<u8> = cores.iter().map(|&c| t.node_local_core(c)).collect();
                idx.sort_unstable();
                let want: Vec<u8> = (0..cores.len() as u8).collect();
                prop_assert_eq!(idx, want);
            }
        }
    }
}
