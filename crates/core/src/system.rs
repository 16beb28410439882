//! The full-system simulator.
//!
//! [`System`] owns every architectural structure of the simulated machine —
//! private L1/L2 per core, L3 slices with caching agents, home agents with
//! in-memory directory, HitME cache and DDR4 controllers, QPI links — and
//! executes memory accesses as *timed transaction walks*: each access
//! traverses the same protocol steps real hardware would (CA lookup, core
//! snoops, QPI crossings, home-agent arbitration, directory consultation,
//! DRAM timing), reserving shared resources along the way so that
//! contention and queueing emerge under load.
//!
//! Coherence *decisions* come from `hswx-coherence`'s pure rule tables;
//! structural *distances* from `hswx-topology`; the cost of each component
//! from [`crate::calib::Calib`], converted to picoseconds once per system
//! (`StepCosts`, `TransitTable`).

use crate::calib::{Calib, StepCosts, TransitTable};
use crate::config::{ConfigError, SystemConfig};
use crate::error::SimError;
use crate::inject::FaultState;
use crate::monitor::{self, MonitorConfig, Violation};
use hswx_coherence::{
    ca_local_action, dir_after_read, dir_after_rfo, dir_after_writeback, fill_state_after_read,
    ha_read_arrival_plan, ha_read_dir_plan, CaAction, CoreState, DataSource, DirState, HitMeCache,
    HitMeEntry, InMemoryDirectory, L3Meta, MesifState, NodeSet, ProtocolConfig, ReqType, SnoopMode,
};
use hswx_engine::{
    fnv1a64, fnv1a64_extend, Booking, FxHashMap, MetricsRegistry, SimDuration,
    SimTime, SpanId, SpanRecorder, TelemetryHub, TelemetrySampler, ThroughputResource, TimedPool,
};
use hswx_mem::{
    CoreId, HaId, LineAddr, MemoryController, NodeId, RowOutcome, SetAssocCache, SliceId,
};
use hswx_topology::{Endpoint, SystemTopology};

/// Result of one simulated memory access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessOutcome {
    /// When the data became usable at the core.
    pub done: SimTime,
    /// Where the data came from.
    pub source: DataSource,
}

impl AccessOutcome {
    /// Latency relative to the issue time.
    pub fn latency_ns(&self, issued: SimTime) -> f64 {
        self.done.since(issued).as_ns()
    }
}

/// Event counters exposed by the system (the simulator's "uncore PMU").
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Completed reads per data source. Fx-hashed: bumped on every read.
    pub reads_by_source: FxHashMap<DataSource, u64>,
    /// Completed writes (RFO transactions).
    pub rfos: u64,
    /// Snoop messages sent (any kind).
    pub snoops_sent: u64,
    /// Broadcasts triggered by a `SnoopAll` in-memory directory state.
    pub dir_broadcasts: u64,
    /// Reads answered from memory although remote caches held copies —
    /// the analogue of `MEM_LOAD_UOPS_L3_MISS_RETIRED:REMOTE_DRAM` the
    /// paper uses to diagnose Figure 7.
    pub remote_dram_fwd: u64,
    /// Reads answered by a remote cache forward (`…:REMOTE_FWD` analogue).
    pub remote_cache_fwd: u64,
    /// Dirty writebacks that reached DRAM.
    pub dram_writebacks: u64,
}

impl Stats {
    fn tally_read(&mut self, src: DataSource) {
        *self.reads_by_source.entry(src).or_insert(0) += 1;
    }

    /// Total completed reads.
    pub fn total_reads(&self) -> u64 {
        self.reads_by_source.values().sum()
    }

    /// Count for one source.
    pub fn reads_from(&self, src: DataSource) -> u64 {
        self.reads_by_source.get(&src).copied().unwrap_or(0)
    }
}

/// One step of a traced transaction — the simulator's explanation of what
/// the protocol did for a single access (see [`System::trace_next`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtoStep {
    /// Hit in the requesting core's own L1/L2.
    PrivateHit {
        /// Which level (1 or 2).
        level: u8,
    },
    /// Shared-state private hit triggered a Forward-reclaim L3 round trip.
    ForwardReclaim,
    /// The node's caching agent looked up its L3 slice.
    CaLookup {
        /// Responsible slice.
        slice: SliceId,
        /// Whether the tag matched.
        hit: bool,
    },
    /// The CA probed a possibly-newer copy in a local core.
    LocalCoreProbe {
        /// Probed core.
        target: CoreId,
        /// Whether the core forwarded dirty data.
        forwarded: bool,
    },
    /// A snoop was sent to a peer node's caching agent.
    SnoopPeer {
        /// Snooped node.
        node: NodeId,
    },
    /// A peer node's CA probed one of its cores before answering.
    PeerCoreProbe {
        /// Peer node.
        node: NodeId,
        /// Probed core.
        target: CoreId,
        /// Whether the core forwarded dirty data.
        forwarded: bool,
    },
    /// A peer forwarded the line (from its L3 or a core cache).
    PeerForward {
        /// Forwarding node.
        node: NodeId,
        /// True when the data came out of a core's L1/L2.
        from_core: bool,
    },
    /// The request reached the home agent.
    HomeRequest {
        /// Home agent.
        ha: HaId,
    },
    /// HitME directory-cache lookup at the home agent.
    HitMeLookup {
        /// Whether an entry was found.
        hit: bool,
        /// The entry's shared-clean bit, when hit.
        clean: Option<bool>,
    },
    /// In-memory directory consulted (piggybacked on the DRAM read).
    DirectoryRead {
        /// The 2-bit state found.
        state: DirState,
    },
    /// Data supplied from the home node's memory.
    MemoryReply,
}

/// One instrumented point of a walk. Every site calls [`System::probe`]
/// (or [`System::span_begin`] for a span that encloses other probes) with
/// one of these, and the methods below are the one place that says what
/// the span tracer, the telemetry sampler and the protocol transcript
/// each record for it.
#[derive(Debug, Clone, Copy)]
enum Probe {
    /// Root span of a read or write walk.
    Walk { write: bool },
    /// A transcript step and nothing else.
    Step(ProtoStep),
    /// Hit in the requesting core's own L1 or L2.
    PrivateHit { level: u8 },
    /// Forward-reclaim L3 round trip (encloses its hops).
    ForwardReclaim,
    /// Message within a socket.
    RingHop,
    /// Message across a QPI link.
    QpiHop { from: Endpoint, to: Endpoint, bytes: u64 },
    /// L3 data-array read.
    L3Array,
    /// L3 slice port transfer.
    L3Port,
    /// Fill into the requesting core's private caches.
    Fill,
    /// A caching agent probes one core; `node` is set for a peer node.
    Core { node: Option<NodeId>, target: CoreId, forwarded: bool },
    /// Dirty data written back to the home memory.
    DramWriteback,
    /// CBo tag lookup that missed the node.
    CboTag,
    /// Snoop round trip to one node (encloses its hops).
    Snoop { node: NodeId },
    /// Home-agent handling of a request (encloses its steps).
    HomeAgent,
    /// Wait for a home-agent tracker slot.
    TrackerWait,
    /// Home-agent pipeline.
    HaPipeline,
    /// HitME lookup; `clean` is the hit entry's shared-clean bit.
    HitMeLookup { clean: Option<bool> },
    /// Speculative DRAM read at the home agent.
    DramRead { row: RowOutcome, channel: usize },
    /// Memory-controller pipeline after the DRAM read.
    MemCtl,
    /// In-memory directory read (piggybacked on the DRAM read).
    DirectoryRead { state: DirState },
    /// HitME AllocateShared after a cross-node read.
    HitMeAllocateShared { node: NodeId, home: NodeId },
    /// Invalidation of a node-local core's copy.
    InvCore { core: CoreId },
    /// Invalidation of a peer node's copy.
    InvSnoop { node: NodeId },
    /// Non-temporal store waiting for a write-combining buffer.
    WcDrain,
    /// Non-temporal store draining into DRAM.
    DramDrain,
}

impl Probe {
    /// Span tracer: the span's name and category.
    fn span(self) -> Option<(&'static str, &'static str)> {
        Some(match self {
            Probe::Step(_) => return None,
            Probe::Walk { write: false } => ("read", "walk"),
            Probe::Walk { write: true } => ("write", "walk"),
            Probe::PrivateHit { level: 1 } => ("l1_hit", "core"),
            Probe::PrivateHit { .. } => ("l2_hit", "core"),
            Probe::ForwardReclaim => ("f_reclaim", "coherence"),
            Probe::RingHop => ("ring_hop", "ring"),
            Probe::QpiHop { .. } => ("qpi_hop", "qpi"),
            Probe::L3Array => ("l3_array", "mem"),
            Probe::L3Port => ("l3_port", "mem"),
            Probe::Fill => ("fill", "core"),
            Probe::Core { .. } => ("probe_core", "coherence"),
            Probe::DramWriteback => ("dram_wb", "mem"),
            Probe::CboTag => ("cbo_tag", "coherence"),
            Probe::Snoop { .. } => ("snoop", "coherence"),
            Probe::HomeAgent => ("home_agent", "coherence"),
            Probe::TrackerWait => ("tracker_wait", "coherence"),
            Probe::HaPipeline => ("ha_pipeline", "coherence"),
            Probe::HitMeLookup { .. } => ("hitme_lookup", "coherence"),
            Probe::DramRead { .. } | Probe::DramDrain => ("dram_row", "mem"),
            Probe::MemCtl => ("mem_ctl", "mem"),
            Probe::DirectoryRead { .. } => ("dir_read", "coherence"),
            Probe::HitMeAllocateShared { .. } => ("hitme_allocate_shared", "coherence"),
            Probe::InvCore { .. } => ("inv_core", "coherence"),
            Probe::InvSnoop { .. } => ("inv_snoop", "coherence"),
            Probe::WcDrain => ("wc_drain", "mem"),
        })
    }

    /// Span tracer: the span's annotation, built only while tracing.
    fn detail(self) -> Option<String> {
        Some(match self {
            Probe::QpiHop { from, to, bytes } => format!("{from:?}\u{2192}{to:?} {bytes}B"),
            Probe::Core { node: None, target, forwarded } => format!("core{} fwd={forwarded}", target.0),
            Probe::Core { node: Some(n), target, forwarded } => format!("node{} core{} fwd={forwarded}", n.0, target.0),
            Probe::Snoop { node } | Probe::InvSnoop { node } => format!("node{}", node.0),
            Probe::HitMeLookup { clean: Some(clean) } => format!("hit clean={clean}"),
            Probe::HitMeLookup { clean: None } => "miss".to_string(),
            Probe::DramRead { row, channel } => format!("{row:?} ch{channel}"),
            Probe::DirectoryRead { state } => format!("{state:?}"),
            Probe::HitMeAllocateShared { node, home } => format!("requester=node{} home=node{}", node.0, home.0),
            Probe::InvCore { core } => format!("core{}", core.0),
            _ => return None,
        })
    }

    /// Telemetry sampler: a counter channel and the value added to it in
    /// the bucket at the probe's start.
    fn count(self) -> Option<(&'static str, u64)> {
        Some(match self {
            Probe::QpiHop { bytes, .. } => ("qpi.bytes", bytes),
            Probe::HitMeLookup { clean: Some(_) } => ("hitme.hits", 1),
            Probe::HitMeLookup { clean: None } => ("hitme.misses", 1),
            // Nobody remote holds the line: the speculative memory read
            // already has the data ("hit").
            Probe::DirectoryRead { state: DirState::RemoteInvalid } => ("directory.remote_invalid", 1),
            Probe::DirectoryRead { .. } => ("directory.snoop_needed", 1),
            _ => return None,
        })
    }

    /// Telemetry sampler: the busy-time channel credited with the probe's
    /// interval.
    fn busy(self) -> Option<&'static str> {
        Some(match self {
            Probe::RingHop => "ring.busy_ps",
            Probe::QpiHop { .. } => "qpi.busy_ps",
            Probe::DramWriteback | Probe::DramRead { .. } | Probe::DramDrain => "dram.busy_ps",
            Probe::CboTag => "cbo.tag_busy_ps",
            Probe::TrackerWait => "ha.tracker_wait_ps",
            Probe::HaPipeline => "ha.pipeline_busy_ps",
            Probe::WcDrain => "core.wc_drain_ps",
            _ => return None,
        })
    }

    /// Protocol transcript: the step, stamped at the probe's start (a
    /// core probe at its end, when the core has answered).
    fn step(self, start: SimTime, end: SimTime) -> Option<(SimTime, ProtoStep)> {
        Some(match self {
            Probe::Step(step) => (start, step),
            Probe::PrivateHit { level } => (start, ProtoStep::PrivateHit { level }),
            Probe::ForwardReclaim => (start, ProtoStep::ForwardReclaim),
            Probe::Core { node: None, target, forwarded } => (end, ProtoStep::LocalCoreProbe { target, forwarded }),
            Probe::Core { node: Some(node), target, forwarded } => {
                (end, ProtoStep::PeerCoreProbe { node, target, forwarded })
            }
            Probe::HitMeLookup { clean } => (start, ProtoStep::HitMeLookup { hit: clean.is_some(), clean }),
            Probe::DirectoryRead { state } => (start, ProtoStep::DirectoryRead { state }),
            _ => return None,
        })
    }
}

/// Outcome of probing a single peer node during a node-level transaction.
struct PeerProbe {
    /// When the peer's snoop response reaches the home agent.
    resp_at_ha: SimTime,
    /// If the peer forwarded data: when it reaches the requesting core,
    /// and which source class it was.
    forward: Option<(SimTime, DataSource)>,
    /// Whether the peer still holds a (now Shared) copy afterwards.
    keeps_copy: bool,
}

/// The simulated machine.
pub struct System {
    /// Configuration this system was built from.
    pub cfg: SystemConfig,
    /// Structural topology.
    pub topo: SystemTopology,
    pub(crate) proto: ProtocolConfig,
    pub(crate) cal: Calib,
    /// `cal`'s fixed step costs in picoseconds (kept in step with `cal`).
    pub(crate) costs: StepCosts,
    /// `cal`'s ring/QPI transit time between every pair of stops.
    pub(crate) transit: TransitTable,

    pub(crate) l1: Vec<SetAssocCache<CoreState>>,
    pub(crate) l2: Vec<SetAssocCache<CoreState>>,
    pub(crate) l3: Vec<SetAssocCache<L3Meta>>,
    pub(crate) dir: Vec<InMemoryDirectory>,
    pub(crate) hitme: Vec<HitMeCache>,
    pub(crate) mem: Vec<MemoryController>,
    /// QPI link resources, one per ordered socket pair
    /// (index = from_socket * n_sockets + to_socket; diagonal unused).
    /// Sockets are fully connected, as in glueless 4-socket Xeon E5 systems.
    pub(crate) qpi: Vec<ThroughputResource>,
    pub(crate) l3_port: Vec<ThroughputResource>,
    /// Per-HA tracker pools: [local-socket requesters, remote-socket].
    pub(crate) trackers: Vec<[TimedPool; 2]>,
    /// Per-core snoop-responder availability (serializes forwards out of a
    /// single probed core — the paper's 7.8/10.6 GB/s core-to-core limits).
    pub(crate) fwd_busy: Vec<SimTime>,
    /// Per-core write-combining buffers (back-pressure for NT stores).
    pub(crate) wc_buf: Vec<TimedPool>,
    /// Armed transcript collector (see [`System::trace_next`]).
    trace_log: Option<Vec<(SimTime, ProtoStep)>>,
    /// Recycled transcript storage: monitor-armed walks move this buffer
    /// into `trace_log` and return it on success, so steady-state tracing
    /// allocates nothing per walk.
    trace_scratch: Vec<(SimTime, ProtoStep)>,
    /// Trace armed by the monitor for the current walk only (discarded on
    /// success, attached to the error on failure).
    auto_trace: bool,
    /// Runtime invariant monitor; `None` (the default) costs nothing.
    pub(crate) monitor: Option<MonitorConfig>,
    /// Completed read/write transactions (drives the periodic scan).
    pub(crate) txn_count: u64,
    /// Protocol messages sent by the walk in flight.
    walk_steps: u32,
    /// Pending injected message faults (see [`crate::inject`]).
    pub(crate) faults: FaultState,
    /// Structured span tracer (see `hswx_engine::trace`); `None` — the
    /// default — leaves walks on their uninstrumented copies.
    tracer: Option<Box<SpanRecorder>>,
    /// Simulated-time telemetry sampler (see `hswx_engine::telemetry`);
    /// `None` — the default — costs nothing on the walk path. Created
    /// from the ambient [`TelemetryHub`] at construction or attached
    /// explicitly.
    pub(crate) sampler: Option<Box<TelemetrySampler>>,
    /// Ambient telemetry hub captured at construction; the sampler is
    /// folded into it exactly once, on drop or explicit flush.
    telemetry_hub: Option<std::sync::Arc<TelemetryHub>>,
    /// Ambient metrics registry captured at construction (see
    /// `hswx_engine::metrics`); `None` outside supervised runs.
    metrics: Option<std::sync::Arc<MetricsRegistry>>,
    /// `stats.snoops_sent` at walk start (snoop fan-out accounting).
    pub(crate) walk_snoop_base: u64,
    /// Recycled peer-probe collection for node-level misses: taken at the
    /// start of [`node_miss_read`](Self::node_miss_read), returned (cleared)
    /// at its end, so steady-state long walks allocate nothing per miss.
    /// Host-side scratch only — like `walk_snoop_base` a fork starts it
    /// afresh, and it is never observable across walks.
    probe_scratch: Vec<PeerProbe>,
    /// SoA staging scratch for [`run_batch`](Self::run_batch); host-side
    /// only, not copied by a fork (see `crate::batch`).
    pub(crate) batch_scratch: crate::batch::BatchScratch,
    /// Per-walk snoop fan-out tallies (index 8 = "8 or more"); local and
    /// unsynchronized, published to the registry when the system drops.
    pub(crate) fanout_bins: [u64; 9],

    /// Event counters.
    pub stats: Stats,
}

impl System {
    /// Build an idle system from `cfg`.
    ///
    /// Panics (with the [`ConfigError`] diagnostic) if `cfg` fails
    /// [`SystemConfig::validate`]; code handling untrusted configs should
    /// call [`System::try_new`] instead.
    pub fn new(cfg: SystemConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(sys) => sys,
            Err(e) => panic!("invalid SystemConfig: {e}"),
        }
    }

    /// Build an idle system from `cfg`, validating every field first.
    ///
    /// This is the hardened construction boundary: no `SystemConfig` value
    /// — however hostile — panics here, divides by zero, or allocates
    /// beyond the model caps; it either builds or returns a field-level
    /// [`ConfigError`].
    pub fn try_new(cfg: SystemConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let topo = SystemTopology::new(cfg.sockets, cfg.die, cfg.mode.cod());
        let n_cores = cfg.n_cores() as usize;
        let n_has = cfg.n_has() as usize;
        let cal = cfg.calib;
        let proto = {
            let mut p = cfg.mode.protocol();
            if !cfg.hitme_enabled {
                p.hitme = false;
            }
            p
        };
        let remote_trackers = if proto.directory {
            // COD home agents preallocate few tracker entries per
            // out-of-cluster requester.
            cal.trackers_cod_remote
        } else {
            match proto.mode {
                SnoopMode::Source => cal.trackers_source_remote,
                SnoopMode::Home => cal.trackers_other,
            }
        } as usize;
        Ok(System {
            costs: cal.step_costs(),
            transit: TransitTable::new(&cal, &topo),
            topo,
            proto,
            cal,
            l1: (0..n_cores).map(|_| SetAssocCache::new(cfg.l1)).collect(),
            l2: (0..n_cores).map(|_| SetAssocCache::new(cfg.l2)).collect(),
            l3: (0..n_cores)
                .map(|_| SetAssocCache::with_policy(cfg.l3_slice, cfg.l3_replacement))
                .collect(),
            dir: (0..n_has).map(|_| InMemoryDirectory::new()).collect(),
            hitme: (0..n_has)
                .map(|_| {
                    // validate() guarantees >= 8 entries (one full set), so
                    // no clamp is needed here.
                    HitMeCache::with_geometry(hswx_mem::CacheGeometry {
                        size_bytes: cfg.hitme_entries as u64 * 64,
                        ways: 8,
                    })
                })
                .collect(),
            mem: (0..n_has)
                .map(|_| MemoryController::new(cfg.channels_per_ha(), cfg.dram))
                .collect(),
            qpi: vec![ThroughputResource::default(); cfg.sockets as usize * cfg.sockets as usize],
            l3_port: vec![ThroughputResource::default(); n_cores],
            trackers: (0..n_has)
                .map(|_| {
                    [
                        TimedPool::new(cal.trackers_other as usize),
                        TimedPool::new(remote_trackers),
                    ]
                })
                .collect(),
            fwd_busy: vec![SimTime::ZERO; n_cores],
            wc_buf: (0..n_cores)
                .map(|_| TimedPool::new(cal.lfb_per_core as usize))
                .collect(),
            trace_log: None,
            trace_scratch: Vec::new(),
            auto_trace: false,
            monitor: None,
            txn_count: 0,
            walk_steps: 0,
            faults: FaultState::default(),
            tracer: None,
            sampler: TelemetryHub::ambient().map(|h| Box::new(h.sampler())),
            telemetry_hub: TelemetryHub::ambient(),
            metrics: MetricsRegistry::ambient(),
            walk_snoop_base: 0,
            probe_scratch: Vec::new(),
            batch_scratch: crate::batch::BatchScratch::default(),
            fanout_bins: [0; 9],
            stats: Stats::default(),
            cfg,
        })
    }

    /// A copy of this system that continues exactly as the original would:
    /// any walk sequence produces the same outcomes, statistics, telemetry
    /// and [`state_digest`](Self::state_digest) on either, and running one
    /// never disturbs the other.
    ///
    /// Every piece of simulated state is copied: caches with their
    /// replacement metadata and victim RNG streams, directories, HitME,
    /// DRAM, QPI and L3-port bookings, tracker and write-combining pools,
    /// snoop-responder times, pending injected faults, the monitor, stats,
    /// snoop fan-out tallies and the telemetry sampler with its partial
    /// series. Host-side scratch starts empty, no tracer is attached, and
    /// the metrics registry and telemetry hub are captured from the
    /// calling thread's ambient handles, as [`System::new`] does; without
    /// a sampler to copy, the fork takes the ambient hub's, too.
    ///
    /// A fork publishes its stats and telemetry on drop like any `System`,
    /// so a fork of a warmed system republishes the warm-up's counters. A
    /// caller that memoizes a warm-up must account for that itself.
    pub fn fork(&self) -> System {
        // One full literal with no `..`: a new field fails to compile
        // here until the fork decides whether to copy it.
        System {
            cfg: self.cfg.clone(),
            topo: self.topo.clone(),
            proto: self.proto,
            cal: self.cal,
            costs: self.costs,
            transit: self.transit.clone(),
            l1: self.l1.clone(),
            l2: self.l2.clone(),
            l3: self.l3.clone(),
            dir: self.dir.clone(),
            hitme: self.hitme.clone(),
            mem: self.mem.clone(),
            qpi: self.qpi.clone(),
            l3_port: self.l3_port.clone(),
            trackers: self.trackers.clone(),
            fwd_busy: self.fwd_busy.clone(),
            wc_buf: self.wc_buf.clone(),
            trace_log: None,
            trace_scratch: Vec::new(),
            auto_trace: false,
            monitor: self.monitor,
            txn_count: self.txn_count,
            walk_steps: 0,
            faults: self.faults.clone(),
            tracer: None,
            sampler: self
                .sampler
                .clone()
                .or_else(|| TelemetryHub::ambient().map(|h| Box::new(h.sampler()))),
            telemetry_hub: TelemetryHub::ambient(),
            metrics: MetricsRegistry::ambient(),
            walk_snoop_base: 0,
            probe_scratch: Vec::new(),
            batch_scratch: crate::batch::BatchScratch::default(),
            fanout_bins: self.fanout_bins,
            stats: self.stats.clone(),
        }
    }

    /// Enable the runtime invariant monitor with `cfg`. While enabled,
    /// [`try_read`](Self::try_read) / [`try_write`](Self::try_write) run a
    /// per-walk watchdog and a periodic global invariant scan, and their
    /// panicking wrappers abort with a full diagnostic instead of silently
    /// propagating corrupted state. The monitor is read-only: simulated
    /// latencies, data sources, and statistics are bit-identical with it
    /// on or off.
    pub fn enable_monitor(&mut self, cfg: MonitorConfig) {
        self.monitor = Some(cfg);
    }

    /// Turn the invariant monitor off (the default state).
    pub fn disable_monitor(&mut self) {
        self.monitor = None;
    }

    /// The active monitor configuration, if any.
    pub fn monitor_config(&self) -> Option<MonitorConfig> {
        self.monitor
    }

    /// Run the global invariant scan right now, regardless of the
    /// monitor's periodic schedule. Returns the first violation found.
    pub fn check_invariants(&self) -> Option<Violation> {
        monitor::scan(self)
    }

    /// Completed read/write transactions since construction.
    pub fn txns(&self) -> u64 {
        self.txn_count
    }

    /// Calibration in use.
    pub fn calib(&self) -> &Calib {
        &self.cal
    }

    /// Protocol configuration in use.
    pub fn protocol(&self) -> ProtocolConfig {
        self.proto
    }

    /// All nodes as a set.
    pub fn all_nodes(&self) -> NodeSet {
        NodeSet::first_n(self.topo.n_nodes())
    }

    /// Arm the protocol transcript: the steps of every access until
    /// [`take_trace`](Self::take_trace) is called are recorded.
    pub fn trace_next(&mut self) {
        self.trace_log = Some(Vec::new());
    }

    /// Collect the recorded `(time, step)` protocol transcript, sorted by
    /// time (stably: steps at equal times keep their order), and disarm
    /// tracing.
    pub fn take_trace(&mut self) -> Vec<(SimTime, ProtoStep)> {
        let mut log = self.trace_log.take().unwrap_or_default();
        log.sort_by_key(|&(t, _)| t);
        log
    }

    // ------------------------------------------------------------------
    // observers: span tracer, telemetry sampler, protocol transcript
    // ------------------------------------------------------------------

    /// Attach a span tracer: every subsequent walk records a
    /// causally-ordered span tree into it. Tracing is observation-only —
    /// latencies, data sources, statistics, and [`state_digest`]
    /// (`Self::state_digest`) are bit-identical with it on or off.
    pub fn attach_tracer(&mut self, recorder: SpanRecorder) {
        self.tracer = Some(Box::new(recorder));
    }

    /// Detach the tracer, returning everything it recorded.
    pub fn take_tracer(&mut self) -> Option<SpanRecorder> {
        self.tracer.take().map(|b| *b)
    }

    /// Attach a simulated-time telemetry sampler, replacing the one
    /// captured from the ambient [`TelemetryHub`] (if any). Subsequent
    /// walks bucket component activity into it.
    pub fn attach_sampler(&mut self, sampler: TelemetrySampler) {
        self.sampler = Some(Box::new(sampler));
    }

    /// Detach the telemetry sampler, returning everything it bucketed.
    /// A detached sampler is *not* folded into the ambient hub on drop.
    pub fn take_sampler(&mut self) -> Option<TelemetrySampler> {
        self.sampler.take().map(|b| *b)
    }

    /// Whether a telemetry sampler is currently attached.
    pub fn sampling(&self) -> bool {
        self.sampler.is_some()
    }

    /// Fold the sampler into the ambient telemetry hub captured at
    /// construction (no-op without both). Runs automatically when the
    /// system drops; calling it earlier flushes once and detaches.
    pub fn flush_telemetry(&mut self) {
        if let (Some(hub), Some(sampler)) = (self.telemetry_hub.take(), self.sampler.take()) {
            hub.absorb(*sampler);
        }
    }

    /// Whether the next walk has an observer: a span tracer, a telemetry
    /// sampler, or an armed transcript ([`trace_next`](Self::trace_next)
    /// or the monitor's per-walk one). The walk entry points test this
    /// once and select the `TRACED = true` monomorphization.
    #[inline(always)]
    fn trace_armed(&self) -> bool {
        self.tracer.is_some() || self.sampler.is_some() || self.trace_log.is_some()
    }

    /// Record probe `p` over `[start, end]` with every attached observer.
    ///
    /// Every instrumented walk function is monomorphized over
    /// `const TRACED: bool`, and the entry points ([`try_read`]
    /// (Self::try_read), [`try_write`](Self::try_write), `write_nt`,
    /// `flush`) pick the `TRACED = true` copy only when
    /// [`trace_armed`](Self::trace_armed). The `TRACED = false` copies
    /// contain no instrumentation at all, not even a branch; in the
    /// `TRACED = true` copies each probe is one call to the `#[cold]`
    /// [`fan_out`](Self::fan_out).
    #[inline(always)]
    fn probe<const TRACED: bool>(&mut self, p: Probe, start: SimTime, end: SimTime) {
        if TRACED {
            self.fan_out(p, start, Some(end));
        }
    }

    /// Record probe `p` starting at `at` and open its span, which encloses
    /// the probes that follow until [`span_end`](Self::span_end).
    #[inline(always)]
    fn span_begin<const TRACED: bool>(&mut self, p: Probe, at: SimTime) -> Option<SpanId> {
        if TRACED {
            self.fan_out(p, at, None)
        } else {
            None
        }
    }

    /// Close a span opened by [`span_begin`](Self::span_begin).
    #[inline(always)]
    fn span_end<const TRACED: bool>(&mut self, id: Option<SpanId>, at: SimTime) {
        if TRACED {
            if let (Some(id), Some(tr)) = (id, self.tracer.as_deref_mut()) {
                tr.end(id, at);
            }
        }
    }

    /// Hand probe `p` to whichever observers are attached: the telemetry
    /// sampler, the armed transcript and the span tracer. `end: None`
    /// opens `p`'s span instead of recording it whole, and returns its id.
    #[cold]
    #[inline(never)]
    fn fan_out(&mut self, p: Probe, start: SimTime, end: Option<SimTime>) -> Option<SpanId> {
        if let Some(s) = self.sampler.as_deref_mut() {
            if let Some((channel, value)) = p.count() {
                s.record(channel, start, value);
            }
            if let (Some(channel), Some(end)) = (p.busy(), end) {
                s.record_span(channel, start, end);
            }
        }
        if let (Some(log), Some(step)) = (&mut self.trace_log, p.step(start, end.unwrap_or(start))) {
            log.push(step);
        }
        let tr = self.tracer.as_deref_mut()?;
        let (name, cat) = p.span()?;
        let id = match end {
            Some(end) => tr.leaf(name, cat, start, end),
            None => tr.begin(name, cat, start),
        };
        if let Some(detail) = p.detail() {
            tr.detail(id, detail);
        }
        Some(id)
    }

    /// Close the walk's root span (opened with [`Probe::Walk`]) and file
    /// the walk record: the reported `[issued, done]` interval drives exact
    /// latency attribution.
    fn walk_span_close(&mut self, root: Option<SpanId>, issued: SimTime, res: &Result<AccessOutcome, SimError>) {
        let (Some(root), Some(tr)) = (root, self.tracer.as_deref_mut()) else { return };
        match res {
            Ok(out) => {
                tr.detail(root, format!("source={:?}", out.source));
                tr.end(root, out.done);
                tr.record_walk(root, issued, out.done);
            }
            // Aborted walk: close the root so the stack stays
            // balanced, but record no walk — there is no latency
            // to attribute.
            Err(_) => tr.end(root, issued),
        }
    }

    /// Publish aggregate counters into the ambient metrics registry
    /// captured at construction (no-op without one). Runs automatically
    /// when the system drops; calling it earlier flushes once and
    /// disconnects the registry.
    pub fn flush_metrics(&mut self) {
        let Some(reg) = self.metrics.take() else { return };
        reg.add("sys.walks", self.txn_count);
        reg.add("sys.rfos", self.stats.rfos);
        reg.add("snoop.sent", self.stats.snoops_sent);
        reg.add("snoop.dir_broadcasts", self.stats.dir_broadcasts);
        reg.add("read.remote_dram_fwd", self.stats.remote_dram_fwd);
        reg.add("read.remote_cache_fwd", self.stats.remote_cache_fwd);
        for (&src, &n) in &self.stats.reads_by_source {
            let key = match src {
                DataSource::SelfL1 => "read.self_l1",
                DataSource::SelfL2 => "read.self_l2",
                DataSource::LocalL3 => "read.local_l3",
                DataSource::LocalCore => "read.local_core",
                DataSource::PeerL3(_) => "read.peer_l3",
                DataSource::PeerCore(_) => "read.peer_core",
                DataSource::Memory(_) => "read.memory",
            };
            reg.add(key, n);
        }
        for (i, &n) in self.fanout_bins.iter().enumerate() {
            const FANOUT: [&str; 9] = [
                "snoop.fanout.0",
                "snoop.fanout.1",
                "snoop.fanout.2",
                "snoop.fanout.3",
                "snoop.fanout.4",
                "snoop.fanout.5",
                "snoop.fanout.6",
                "snoop.fanout.7",
                "snoop.fanout.8plus",
            ];
            reg.add(FANOUT[i], n);
        }
        let mut hitme = [0u64; 4];
        for hm in &self.hitme {
            for (slot, v) in hitme.iter_mut().zip(hm.counters()) {
                *slot += v;
            }
        }
        reg.add("hitme.hits", hitme[0]);
        reg.add("hitme.misses", hitme[1]);
        reg.add("hitme.allocs", hitme[2]);
        reg.add("hitme.evictions", hitme[3]);
        let (mut dreads, mut dwrites) = (0, 0);
        for d in &self.dir {
            dreads += d.reads;
            dwrites += d.writes;
        }
        reg.add("directory.reads", dreads);
        reg.add("directory.writes", dwrites);
        let mut dram = [0u64; 6];
        for mc in &self.mem {
            let t = mc.totals();
            for (slot, v) in dram.iter_mut().zip(t) {
                *slot += v;
            }
        }
        reg.add("dram.reads", dram[0]);
        reg.add("dram.writes", dram[1]);
        reg.add("dram.row_hits", dram[2]);
        reg.add("dram.row_closed", dram[3]);
        reg.add("dram.row_conflicts", dram[4]);
        reg.add("dram.bytes", dram[5]);
        reg.add("dram.writebacks", self.stats.dram_writebacks);
        reg.add("qpi.bytes", self.qpi.iter().map(|q| q.total_bytes()).sum());
    }

    // ------------------------------------------------------------------
    // messaging primitives
    // ------------------------------------------------------------------

    /// Deliver message `msg` (a QPI booking: `costs.msg_ctl` or
    /// `costs.msg_data`), reserving QPI when the path crosses sockets.
    /// Returns the arrival time.
    fn send<const TRACED: bool>(
        &mut self,
        t: SimTime,
        from: Endpoint,
        to: Endpoint,
        msg: Booking,
    ) -> SimTime {
        self.walk_steps = self.walk_steps.saturating_add(1);
        let (sa, ia) = self.topo.locate(from);
        let (sb, ib) = self.topo.locate(to);
        if sa != sb {
            let idx = sa.0 as usize * self.cfg.sockets as usize + sb.0 as usize;
            let serialized = self.qpi[idx].transfer(t, msg);
            let at = serialized + self.transit.get(ia, ib, true);
            self.probe::<TRACED>(Probe::QpiHop { from, to, bytes: msg.bytes }, t, at);
            at
        } else {
            let at = t + self.transit.get(ia, ib, false);
            self.probe::<TRACED>(Probe::RingHop, t, at);
            at
        }
    }

    // ------------------------------------------------------------------
    // walk bracketing (watchdog + periodic invariant scan)
    // ------------------------------------------------------------------

    /// Reset the per-walk step counter and, when the monitor is on and the
    /// user has not armed a trace, record this walk's transcript so a
    /// failure can explain itself.
    fn begin_walk(&mut self) {
        self.walk_steps = 0;
        self.walk_snoop_base = self.stats.snoops_sent;
        if self.monitor.is_some() && self.trace_log.is_none() {
            // Reuse the scratch buffer: no allocation in steady state.
            self.trace_log = Some(std::mem::take(&mut self.trace_scratch));
            self.auto_trace = true;
        }
    }

    /// Collect the transcript for an error: consume a monitor-armed trace,
    /// or snapshot a user-armed one without disarming it. Cold path — only
    /// reached when a walk is about to return an error.
    fn error_transcript(&mut self) -> Vec<(SimTime, ProtoStep)> {
        if self.auto_trace {
            self.auto_trace = false;
            self.take_trace()
        } else if let Some(log) = &mut self.trace_log {
            // Sort the armed log in place (stable, so a later take_trace
            // observes the same order), then snapshot it.
            log.sort_by_key(|&(t, _)| t);
            log.clone()
        } else {
            Vec::new()
        }
    }

    /// Recycle a monitor-armed trace after a successful walk.
    fn discard_auto_trace(&mut self) {
        if self.auto_trace {
            self.auto_trace = false;
            if let Some(mut log) = self.trace_log.take() {
                log.clear();
                self.trace_scratch = log;
            }
        }
    }

    /// Close a transaction walk: run the watchdog on the completed access
    /// and the periodic invariant scan.
    fn end_walk(
        &mut self,
        core: CoreId,
        line: LineAddr,
        issued: SimTime,
        res: Result<AccessOutcome, SimError>,
    ) -> Result<AccessOutcome, SimError> {
        let out = match res {
            Ok(out) => out,
            Err(e) => {
                self.discard_auto_trace();
                return Err(e);
            }
        };
        self.txn_count += 1;
        if self.metrics.is_some() {
            let fan = (self.stats.snoops_sent - self.walk_snoop_base).min(8) as usize;
            self.fanout_bins[fan] += 1;
        }
        let Some(mon) = self.monitor else {
            return Ok(out);
        };
        let latency_ns = out.done.since(issued).as_ns();
        if latency_ns > mon.max_walk_ns || self.walk_steps > mon.max_walk_steps {
            return Err(SimError::WalkWatchdog {
                core,
                line,
                latency_ns,
                limit_ns: mon.max_walk_ns,
                steps: self.walk_steps,
                step_limit: mon.max_walk_steps,
                transcript: self.error_transcript(),
            });
        }
        if self.txn_count.is_multiple_of(mon.check_every.max(1)) {
            if let Some(violation) = monitor::scan(self) {
                return Err(SimError::InvariantViolation {
                    violation,
                    txn: self.txn_count,
                    transcript: self.error_transcript(),
                });
            }
        }
        self.discard_auto_trace();
        Ok(out)
    }

    /// Build the error for a decision-table action the walk cannot handle.
    fn unexpected(
        &mut self,
        req: ReqType,
        action: CaAction,
        core: CoreId,
        line: LineAddr,
    ) -> SimError {
        SimError::UnexpectedAction {
            req,
            action,
            core,
            line,
            transcript: self.error_transcript(),
        }
    }

    // ------------------------------------------------------------------
    // private-cache management
    // ------------------------------------------------------------------

    /// Install `line` in `core`'s L1+L2 (inclusive pair), cascading
    /// evictions. Dirty L2 victims write back into the node's L3.
    fn fill_private(&mut self, core: CoreId, line: LineAddr, st: CoreState, t: SimTime) {
        let ci = core.0 as usize;
        // L2 first (inclusion parent).
        if let Some(existing) = self.l2[ci].access(line) {
            *existing = st;
        } else if let Some((vline, vstate)) = self.l2[ci].insert(line, st) {
            self.evict_l2_victim(core, vline, vstate, t);
        }
        // Then L1.
        if let Some(existing) = self.l1[ci].access(line) {
            *existing = st;
        } else if let Some((vline, vstate)) = self.l1[ci].insert(line, st) {
            // L1 victim still lives in L2 (inclusion): merge dirtiness.
            if vstate == CoreState::Modified {
                if let Some(l2st) = self.l2[ci].peek_mut(vline) {
                    *l2st = CoreState::Modified;
                } else {
                    // Inclusion was broken by an L2 eviction of this very
                    // line during the insert above; write back to L3.
                    self.writeback_to_l3(core, vline, t);
                }
            }
        }
    }

    /// Handle an L2 capacity victim: remove the L1 copy (inclusion) and
    /// write back to L3 if dirty. Clean victims vanish silently — the L3's
    /// core-valid bit intentionally goes stale.
    fn evict_l2_victim(&mut self, core: CoreId, line: LineAddr, st: CoreState, t: SimTime) {
        let ci = core.0 as usize;
        let l1_dirty = matches!(self.l1[ci].remove(line), Some(CoreState::Modified));
        if st == CoreState::Modified || l1_dirty {
            self.writeback_to_l3(core, line, t);
        }
    }

    /// A dirty line leaves `core`'s private caches into the node's L3.
    fn writeback_to_l3(&mut self, core: CoreId, line: LineAddr, t: SimTime) {
        let node = self.topo.node_of_core(core);
        let slice = self.topo.slice_for_line(line, node);
        let local = self.topo.node_local_core(core);
        self.l3_port[slice.0 as usize].transfer(t, self.costs.l3_line);
        if let Some(meta) = self.l3[slice.0 as usize].peek_mut(line) {
            meta.on_dirty_writeback(local);
        } else {
            // Inclusion violation would be a bug elsewhere; tolerate by
            // installing a dirty L3-only line.
            let meta = L3Meta::l3_only(MesifState::Modified);
            if let Some((vl, vm)) = self.l3[slice.0 as usize].insert(line, meta) {
                if vl != line {
                    self.evict_l3_victim(node, vl, vm, t);
                }
            }
        }
    }

    /// Install `meta` for `line` in the requester node's responsible L3
    /// slice, evicting as needed.
    fn install_l3(&mut self, node: NodeId, line: LineAddr, meta: L3Meta, t: SimTime) {
        let slice = self.topo.slice_for_line(line, node);
        if let Some((vline, vmeta)) = self.l3[slice.0 as usize].insert(line, meta) {
            if vline != line {
                self.evict_l3_victim(node, vline, vmeta, t);
            }
        }
    }

    /// Inclusive-L3 eviction: back-invalidate core copies; write dirty data
    /// to the home memory; clean lines evict silently, leaving the
    /// in-memory directory stale (the Table V effect).
    fn evict_l3_victim(&mut self, node: NodeId, line: LineAddr, meta: L3Meta, t: SimTime) {
        let cores = self.topo.cores_of_node(node);
        let mut dirty = meta.state.is_dirty();
        for (i, &c) in cores.iter().enumerate() {
            if meta.cv & (1 << i) != 0 {
                let ci = c.0 as usize;
                if matches!(self.l1[ci].remove(line), Some(CoreState::Modified)) {
                    dirty = true;
                }
                if matches!(self.l2[ci].remove(line), Some(CoreState::Modified)) {
                    dirty = true;
                }
            }
        }
        if dirty {
            let ha = self.topo.ha_for_line(line);
            self.mem[ha.0 as usize].access(t, line, true);
            self.stats.dram_writebacks += 1;
            if self.proto.directory {
                self.dir[ha.0 as usize].set(line, dir_after_writeback());
                self.hitme[ha.0 as usize].invalidate(line);
            }
        }
        // Clean: silent. Directory and HitME intentionally untouched.
    }

    // ------------------------------------------------------------------
    // reads
    // ------------------------------------------------------------------

    /// Simulate a load by `core` of `line` issued at `t`.
    ///
    /// Panicking wrapper over [`try_read`](Self::try_read): a protocol
    /// error aborts with the full diagnostic (including the transcript
    /// when the monitor or a trace is armed).
    pub fn read(&mut self, core: CoreId, line: LineAddr, t: SimTime) -> AccessOutcome {
        match self.try_read(core, line, t) {
            Ok(out) => out,
            Err(e) => panic!("simulation error: {}", e.diagnostic()),
        }
    }

    /// Simulate a load by `core` of `line` issued at `t`, reporting
    /// protocol errors instead of panicking.
    pub fn try_read(
        &mut self,
        core: CoreId,
        line: LineAddr,
        t: SimTime,
    ) -> Result<AccessOutcome, SimError> {
        self.begin_walk();
        if self.trace_armed() {
            let root = self.span_begin::<true>(Probe::Walk { write: false }, t);
            let res = self.read_walk::<true>(core, line, t);
            let res = self.end_walk(core, line, t, res);
            self.walk_span_close(root, t, &res);
            res
        } else {
            let res = self.read_walk::<false>(core, line, t);
            self.end_walk(core, line, t, res)
        }
    }

    fn read_walk<const TRACED: bool>(
        &mut self,
        core: CoreId,
        line: LineAddr,
        t: SimTime,
    ) -> Result<AccessOutcome, SimError> {
        let ci = core.0 as usize;
        // L1 hit.
        if let Some(&st) = self.l1[ci].access(line).map(|s| &*s) {
            if st == CoreState::Shared {
                if let Some(out) = self.shared_hit_reclaim::<TRACED>(core, line, t) {
                    return Ok(out);
                }
            }
            let out = AccessOutcome { done: t + self.costs.l1, source: DataSource::SelfL1 };
            self.probe::<TRACED>(Probe::PrivateHit { level: 1 }, t, out.done);
            self.stats.tally_read(out.source);
            return Ok(out);
        }
        // L2 hit.
        if let Some(&st) = self.l2[ci].access(line).map(|s| &*s) {
            if st == CoreState::Shared {
                if let Some(out) = self.shared_hit_reclaim::<TRACED>(core, line, t) {
                    return Ok(out);
                }
            }
            // Refill L1.
            self.fill_private(core, line, st, t);
            let out = AccessOutcome { done: t + self.costs.l2, source: DataSource::SelfL2 };
            self.probe::<TRACED>(Probe::PrivateHit { level: 2 }, t, out.done);
            self.stats.tally_read(out.source);
            return Ok(out);
        }
        let out = self.read_via_ca::<TRACED>(core, line, t)?;
        self.stats.tally_read(out.source);
        Ok(out)
    }

    /// The paper's F-state reclaim effect (§VI-C, Fig. 9): a hit on a
    /// Shared line whose node lacks the Forward copy notifies the caching
    /// agent to reclaim F, costing a full L3 round trip.
    fn shared_hit_reclaim<const TRACED: bool>(&mut self, core: CoreId, line: LineAddr, t: SimTime) -> Option<AccessOutcome> {
        let node = self.topo.node_of_core(core);
        let slice = self.topo.slice_for_line(line, node);
        // Reclaim: this node becomes the forwarder; the previous F holder
        // (if any) demotes to Shared. The demotion is an asynchronous
        // notification and does not lengthen this load.
        match self.l3[slice.0 as usize].peek_mut(line) {
            Some(m) if m.state == MesifState::Shared => m.state = MesifState::Forward,
            _ => return None,
        }
        let sp = self.span_begin::<TRACED>(Probe::ForwardReclaim, t);
        for n in self.all_nodes().without(node).iter() {
            let pslice = self.topo.slice_for_line(line, n);
            if let Some(m) = self.l3[pslice.0 as usize].peek_mut(line) {
                if m.state == MesifState::Forward {
                    m.state = MesifState::Shared;
                }
            }
        }
        let t_req = t + self.costs.miss_path;
        let t_at_ca = self.send::<TRACED>(t_req, Endpoint::Core(core), Endpoint::Slice(slice), self.costs.msg_ctl);
        let t_arr = t_at_ca + self.costs.l3_array;
        self.probe::<TRACED>(Probe::L3Array, t_at_ca, t_arr);
        let t_data = self.l3_port[slice.0 as usize].transfer(t_arr, self.costs.l3_line);
        self.probe::<TRACED>(Probe::L3Port, t_arr, t_data);
        let t_sent = self.send::<TRACED>(t_data, Endpoint::Slice(slice), Endpoint::Core(core), self.costs.msg_data);
        let done = t_sent + self.costs.fill;
        self.probe::<TRACED>(Probe::Fill, t_sent, done);
        self.span_end::<TRACED>(sp, done);
        let out = AccessOutcome { done, source: DataSource::LocalL3 };
        self.stats.tally_read(out.source);
        Some(out)
    }

    /// Node-level read: consult the local caching agent.
    fn read_via_ca<const TRACED: bool>(
        &mut self,
        core: CoreId,
        line: LineAddr,
        t: SimTime,
    ) -> Result<AccessOutcome, SimError> {
        let node = self.topo.node_of_core(core);
        let local = self.topo.node_local_core(core);
        let slice = self.topo.slice_for_line(line, node);
        let t_req = t + self.costs.miss_path;
        let t_at_ca = self.send::<TRACED>(t_req, Endpoint::Core(core), Endpoint::Slice(slice), self.costs.msg_ctl);

        let meta_snapshot = self.l3[slice.0 as usize].access(line).map(|m| *m);
        let hit = meta_snapshot.is_some();
        self.probe::<TRACED>(Probe::Step(ProtoStep::CaLookup { slice, hit }), t_at_ca, t_at_ca);
        match ca_local_action(ReqType::Read, meta_snapshot.as_ref(), local) {
            CaAction::ServeFromL3 => {
                let t_arr = t_at_ca + self.costs.l3_array;
                self.probe::<TRACED>(Probe::L3Array, t_at_ca, t_arr);
                let t_data = self.l3_port[slice.0 as usize].transfer(t_arr, self.costs.l3_line);
                self.probe::<TRACED>(Probe::L3Port, t_arr, t_data);
                let t_sent =
                    self.send::<TRACED>(t_data, Endpoint::Slice(slice), Endpoint::Core(core), self.costs.msg_data);
                let done = t_sent + self.costs.fill;
                self.probe::<TRACED>(Probe::Fill, t_sent, done);
                // The line can only have vanished between the lookup above
                // and here through injected corruption; fill Shared and let
                // the invariant scan report the damage.
                let core_state = match self.l3[slice.0 as usize].peek_mut(line) {
                    Some(meta) => {
                        meta.add_core(local);
                        if meta.cv == 1 << local
                            && matches!(meta.state, MesifState::Exclusive | MesifState::Modified)
                        {
                            CoreState::Exclusive
                        } else {
                            CoreState::Shared
                        }
                    }
                    None => CoreState::Shared,
                };
                self.fill_private(core, line, core_state, done);
                Ok(AccessOutcome { done, source: DataSource::LocalL3 })
            }
            CaAction::SnoopLocalCore { local_core } => {
                Ok(self.local_core_snoop_read::<TRACED>(core, line, t_at_ca, slice, node, local, local_core))
            }
            CaAction::Miss => Ok(self.node_miss_read::<TRACED>(core, line, t_at_ca, slice, node, local)),
            other => Err(self.unexpected(ReqType::Read, other, core, line)),
        }
    }

    /// Local CA found a single possibly-newer copy in another core: probe
    /// it; data comes from that core (M) or from the L3 (clean/evicted).
    #[allow(clippy::too_many_arguments)]
    fn local_core_snoop_read<const TRACED: bool>(
        &mut self,
        core: CoreId,
        line: LineAddr,
        t_at_ca: SimTime,
        slice: SliceId,
        node: NodeId,
        local: u8,
        target_local: u8,
    ) -> AccessOutcome {
        self.stats.snoops_sent += 1;
        let target = self.topo.cores_of_node(node)[target_local as usize];
        let t_snp = t_at_ca + self.costs.l3_tag;
        let t_probe_at = self.send::<TRACED>(t_snp, Endpoint::Slice(slice), Endpoint::Core(target), self.costs.msg_ctl);
        let (fwd, t_probe_done) = self.probe_core::<TRACED>(None, target, line, t_probe_at);
        if fwd {
            // Data goes core→core.
            let t_sent =
                self.send::<TRACED>(t_probe_done, Endpoint::Core(target), Endpoint::Core(core), self.costs.msg_data);
            let done = t_sent + self.costs.fill;
            self.probe::<TRACED>(Probe::Fill, t_sent, done);
            if let Some(meta) = self.l3[slice.0 as usize].peek_mut(line) {
                meta.state = MesifState::Modified; // L3 absorbs the dirty data
                meta.add_core(local);
            }
            self.fill_private(core, line, CoreState::Shared, done);
            AccessOutcome { done, source: DataSource::LocalCore }
        } else {
            // Clean or silently evicted: L3 supplies data; the array read
            // ran in parallel with the probe.
            let t_resp_at_ca =
                self.send::<TRACED>(t_probe_done, Endpoint::Core(target), Endpoint::Slice(slice), self.costs.msg_ctl);
            let t_arr = t_at_ca + self.costs.l3_array;
            self.probe::<TRACED>(Probe::L3Array, t_at_ca, t_arr);
            let t_array = self.l3_port[slice.0 as usize].transfer(t_arr, self.costs.l3_line);
            self.probe::<TRACED>(Probe::L3Port, t_arr, t_array);
            let t_data = t_resp_at_ca.max(t_array);
            let t_sent =
                self.send::<TRACED>(t_data, Endpoint::Slice(slice), Endpoint::Core(core), self.costs.msg_data);
            let done = t_sent + self.costs.fill;
            self.probe::<TRACED>(Probe::Fill, t_sent, done);
            if let Some(meta) = self.l3[slice.0 as usize].peek_mut(line) {
                meta.add_core(local);
            }
            self.fill_private(core, line, CoreState::Shared, done);
            AccessOutcome { done, source: DataSource::LocalL3 }
        }
    }

    /// A caching agent probes `target`'s private caches (`node` is set
    /// when the target is in a peer node); the probe reaches the core at
    /// `t_probe_at`, and the core answers one probe at a time. A dirty
    /// copy is forwarded and demotes to Shared; otherwise (clean or
    /// silently evicted) a surviving Exclusive copy demotes to Shared on
    /// the data snoop. Returns whether the core forwarded and when it
    /// answered.
    fn probe_core<const TRACED: bool>(
        &mut self,
        node: Option<NodeId>,
        target: CoreId,
        line: LineAddr,
        t_probe_at: SimTime,
    ) -> (bool, SimTime) {
        let ti = target.0 as usize;
        let c = &self.costs;
        let (forwarded, probe, occ) = match (self.l1[ti].peek(line), self.l2[ti].peek(line)) {
            (Some(CoreState::Modified), _) => (true, c.probe_l1_fwd, c.fwd_occ_l1),
            (_, Some(CoreState::Modified)) => (true, c.probe_l2_fwd, c.fwd_occ_l2),
            _ => (false, c.probe, c.fwd_occ_miss),
        };
        let t_serve = t_probe_at.max(self.fwd_busy[ti]);
        self.fwd_busy[ti] = t_serve + occ;
        let t_done = t_serve + probe;
        self.probe::<TRACED>(Probe::Core { node, target, forwarded }, t_serve, t_done);
        for cache in [&mut self.l1[ti], &mut self.l2[ti]] {
            if let Some(st) = cache.peek_mut(line) {
                if forwarded || *st == CoreState::Exclusive {
                    *st = CoreState::Shared;
                }
            }
        }
        (forwarded, t_done)
    }

    /// Probe one peer node's caching agent with a data snoop.
    fn probe_peer<const TRACED: bool>(
        &mut self,
        peer: NodeId,
        line: LineAddr,
        t_sent: SimTime,
        from: Endpoint,
        requester_core: CoreId,
        ha: HaId,
    ) -> PeerProbe {
        self.stats.snoops_sent += 1;
        self.probe::<TRACED>(Probe::Step(ProtoStep::SnoopPeer { node: peer }), t_sent, t_sent);
        let pslice = self.topo.slice_for_line(line, peer);
        // Injected message faults (see `crate::inject`): a dropped snoop
        // fabricates an instant "no copy" response without consulting the
        // peer at all; a delayed one stalls before delivery.
        if self.faults.take_drop() {
            let resp_at_ha = self.send::<TRACED>(t_sent, from, Endpoint::Ha(ha), self.costs.msg_ctl);
            return PeerProbe { resp_at_ha, forward: None, keeps_copy: false };
        }
        let t_sent = match self.faults.take_delay() {
            Some(delay_ns) => t_sent + SimDuration::from_ns(delay_ns),
            None => t_sent,
        };
        let t_at_peer = self.send::<TRACED>(t_sent, from, Endpoint::Slice(pslice), self.costs.msg_ctl);
        let t_lookup = t_at_peer + self.costs.l3_tag;

        let meta = self.l3[pslice.0 as usize].peek(line).copied();
        let Some(mut m) = meta else {
            let resp_at_ha =
                self.send::<TRACED>(t_lookup, Endpoint::Slice(pslice), Endpoint::Ha(ha), self.costs.msg_ctl);
            return PeerProbe { resp_at_ha, forward: None, keeps_copy: false };
        };

        // Probe a possibly-newer core copy first (the remote 104/109/113 ns
        // cases). The L3 array read runs in parallel with the core probe.
        let mut probe_resp_at_ca: Option<SimTime> = None;
        if let Some(target_local) = m.snoop_probe_target() {
            let target = self.topo.cores_of_node(peer)[target_local as usize];
            let t_probe_at =
                self.send::<TRACED>(t_lookup, Endpoint::Slice(pslice), Endpoint::Core(target), self.costs.msg_ctl);
            let (from_core, t_probe_done) = self.probe_core::<TRACED>(Some(peer), target, line, t_probe_at);
            if from_core {
                // Data is forwarded straight from the probed core.
                let t_fwd = t_probe_done + self.costs.ca_fwd;
                let t_sent = self
                    .send::<TRACED>(t_fwd, Endpoint::Core(target), Endpoint::Core(requester_core), self.costs.msg_data);
                let data_at = t_sent + self.costs.fill;
                self.probe::<TRACED>(Probe::Fill, t_sent, data_at);
                let resp_at_ha =
                    self.send::<TRACED>(t_probe_done, Endpoint::Core(target), Endpoint::Ha(ha), self.costs.msg_ctl);
                // Node demotes to Shared; the dirty data also goes home.
                m.state = MesifState::Shared;
                let (wb_done, _) = self.mem[ha.0 as usize].access(resp_at_ha, line, true);
                self.probe::<TRACED>(Probe::DramWriteback, resp_at_ha, wb_done);
                self.stats.dram_writebacks += 1;
                if let Some(slot) = self.l3[pslice.0 as usize].peek_mut(line) {
                    *slot = m;
                }
                let fwd = ProtoStep::PeerForward { node: peer, from_core: true };
                self.probe::<TRACED>(Probe::Step(fwd), data_at, data_at);
                let forward = Some((data_at, DataSource::PeerCore(peer)));
                return PeerProbe { resp_at_ha, forward, keeps_copy: true };
            }
            // Core had silently evicted or was clean: the L3 data (read in
            // parallel) can go out once the probe response returns.
            probe_resp_at_ca = Some(self.send::<TRACED>(
                t_probe_done,
                Endpoint::Core(target),
                Endpoint::Slice(pslice),
                self.costs.msg_ctl,
            ));
        }

        if m.state.can_forward() {
            let dirty = m.state.is_dirty();
            let t_arr = t_lookup + self.costs.l3_array;
            self.probe::<TRACED>(Probe::L3Array, t_lookup, t_arr);
            let mut t_data = self.l3_port[pslice.0 as usize].transfer(t_arr, self.costs.l3_line);
            self.probe::<TRACED>(Probe::L3Port, t_arr, t_data);
            if let Some(resp) = probe_resp_at_ca {
                t_data = t_data.max(resp);
            }
            t_data += self.costs.ca_fwd;
            let t_sent = self
                .send::<TRACED>(t_data, Endpoint::Slice(pslice), Endpoint::Core(requester_core), self.costs.msg_data);
            let data_at = t_sent + self.costs.fill;
            self.probe::<TRACED>(Probe::Fill, t_sent, data_at);
            let resp_at_ha =
                self.send::<TRACED>(t_data, Endpoint::Slice(pslice), Endpoint::Ha(ha), self.costs.msg_ctl);
            m.state = m.state.after_forwarding_read();
            if dirty {
                let (wb_done, _) = self.mem[ha.0 as usize].access(resp_at_ha, line, true);
                self.probe::<TRACED>(Probe::DramWriteback, resp_at_ha, wb_done);
                self.stats.dram_writebacks += 1;
            }
            if let Some(slot) = self.l3[pslice.0 as usize].peek_mut(line) {
                *slot = m;
            }
            let fwd = ProtoStep::PeerForward { node: peer, from_core: false };
            self.probe::<TRACED>(Probe::Step(fwd), data_at, data_at);
            PeerProbe { resp_at_ha, forward: Some((data_at, DataSource::PeerL3(peer))), keeps_copy: true }
        } else {
            // Shared copy: cannot forward; just acknowledge.
            let t_ack = probe_resp_at_ca.map_or(t_lookup, |r| r.max(t_lookup));
            let resp_at_ha =
                self.send::<TRACED>(t_ack, Endpoint::Slice(pslice), Endpoint::Ha(ha), self.costs.msg_ctl);
            PeerProbe { resp_at_ha, forward: None, keeps_copy: m.state.is_valid() }
        }
    }

    /// Full node-level read miss: source or home snooping, directory,
    /// HitME, memory.
    #[allow(clippy::too_many_arguments)]
    fn node_miss_read<const TRACED: bool>(
        &mut self,
        core: CoreId,
        line: LineAddr,
        t_at_ca: SimTime,
        slice: SliceId,
        node: NodeId,
        local: u8,
    ) -> AccessOutcome {
        let home = self.topo.home_node_of_line(line);
        let ha = self.topo.ha_for_line(line);
        let t_miss = t_at_ca + self.costs.l3_tag;
        self.probe::<TRACED>(Probe::CboTag, t_at_ca, t_miss);
        let all = self.all_nodes();

        let mut probes: Vec<PeerProbe> = std::mem::take(&mut self.probe_scratch);
        probes.clear();

        // Source snooping: the CA broadcasts to every other node now.
        if self.proto.mode == SnoopMode::Source {
            for peer in all.without(node).iter() {
                let sp = self.span_begin::<TRACED>(Probe::Snoop { node: peer }, t_miss);
                let p = self.probe_peer::<TRACED>(peer, line, t_miss, Endpoint::Slice(slice), core, ha);
                self.span_end::<TRACED>(sp, p.resp_at_ha);
                probes.push(p);
            }
        }

        // Request travels to the home agent; tracker admission control.
        self.probe::<TRACED>(Probe::Step(ProtoStep::HomeRequest { ha }), t_miss, t_miss);
        let req_at_ha = self.send::<TRACED>(t_miss, Endpoint::Slice(slice), Endpoint::Ha(ha), self.costs.msg_ctl);
        let ha_span = self.span_begin::<TRACED>(Probe::HomeAgent, req_at_ha);
        // Which tracker pool: COD partitions by cluster, the two-socket
        // modes by socket (QPI RTID preallocation).
        let remote_req = if self.proto.directory {
            node != home
        } else {
            self.topo.socket_of_node(node) != self.topo.socket_of_node(home)
        };
        let pool = &mut self.trackers[ha.0 as usize][remote_req as usize];
        let t_admitted = pool.wait_for_slot(req_at_ha);
        let t_arrival = t_admitted + self.costs.ha;
        self.probe::<TRACED>(Probe::TrackerWait, req_at_ha, t_admitted);
        self.probe::<TRACED>(Probe::HaPipeline, t_admitted, t_arrival);

        // HitME lookup (COD).
        let hitme_hit = if self.proto.hitme {
            let h = self.hitme[ha.0 as usize]
                .lookup(line)
                .map(|e| (e.nodes, e.clean));
            let lookup = Probe::HitMeLookup { clean: h.map(|(_, c)| c) };
            self.probe::<TRACED>(lookup, t_arrival, t_arrival);
            h
        } else {
            None
        };
        let plan = ha_read_arrival_plan(self.proto, hitme_hit, node, home, all);

        // Speculative memory read (directory bits piggyback on it).
        let channel = self.mem[ha.0 as usize].channel_of(line);
        let (dev_done, row) = self.mem[ha.0 as usize].access(t_arrival, line, false);
        self.probe::<TRACED>(Probe::DramRead { row, channel }, t_arrival, dev_done);
        let dram_done = dev_done + self.costs.mem_ctl;
        self.probe::<TRACED>(Probe::MemCtl, dev_done, dram_done);

        // Home-snoop-mode probes issued by the HA.
        let mut broadcast_snooped = false;
        if self.proto.mode == SnoopMode::Home {
            // The local CA probe is a plain ring message; the snoop-issue
            // delay models QPI-bound snoop broadcast arbitration only.
            let t_issue = t_arrival + self.costs.home_snoop_issue;
            if plan.probe_home_ca {
                let sp = self.span_begin::<TRACED>(Probe::Snoop { node: home }, t_arrival);
                let p = self.probe_peer::<TRACED>(home, line, t_arrival, Endpoint::Ha(ha), core, ha);
                self.span_end::<TRACED>(sp, p.resp_at_ha);
                probes.push(p);
            }
            for peer in plan.snoops.iter() {
                broadcast_snooped = true;
                let sp = self.span_begin::<TRACED>(Probe::Snoop { node: peer }, t_issue);
                let p = self.probe_peer::<TRACED>(peer, line, t_issue, Endpoint::Ha(ha), core, ha);
                self.span_end::<TRACED>(sp, p.resp_at_ha);
                probes.push(p);
            }
        }

        // Directory phase (HitME miss in COD).
        let mut memory_reply_ok = plan.memory_reply_ok;
        let mut dir_prev = DirState::RemoteInvalid;
        if self.proto.directory {
            dir_prev = self.dir[ha.0 as usize].get(line);
        }
        if plan.need_dir {
            self.probe::<TRACED>(Probe::DirectoryRead { state: dir_prev }, dram_done, dram_done);
            let dplan = ha_read_dir_plan(dir_prev, node, home, all);
            memory_reply_ok = dplan.memory_reply_ok;
            if !dplan.snoops.is_empty() {
                self.stats.dir_broadcasts += 1;
                for peer in dplan.snoops.iter() {
                    broadcast_snooped = true;
                    // Broadcast can only start once the directory (with the
                    // data) has been read.
                    let t_issue = dram_done + self.costs.home_snoop_issue;
                    let sp = self.span_begin::<TRACED>(Probe::Snoop { node: peer }, t_issue);
                    let p = self.probe_peer::<TRACED>(peer, line, t_issue, Endpoint::Ha(ha), core, ha);
                    self.span_end::<TRACED>(sp, p.resp_at_ha);
                    probes.push(p);
                }
            }
        }

        // Resolve: earliest cache forward wins; otherwise memory.
        let forward = probes
            .iter()
            .filter_map(|p| p.forward)
            .min_by_key(|&(t, _)| t);
        let last_resp = probes
            .iter()
            .map(|p| p.resp_at_ha)
            .max()
            .unwrap_or(SimTime::ZERO);
        let copies_remain = probes.iter().any(|p| p.keeps_copy);

        let (done, source) = match forward {
            Some((t_data, src)) => {
                self.stats.remote_cache_fwd += 1;
                (t_data, src)
            }
            None => {
                let t_mem_ready = if memory_reply_ok {
                    dram_done
                } else {
                    dram_done.max(last_resp)
                };
                let t_sent =
                    self.send::<TRACED>(t_mem_ready, Endpoint::Ha(ha), Endpoint::Core(core), self.costs.msg_data);
                let done = t_sent + self.costs.fill;
                self.probe::<TRACED>(Probe::Fill, t_sent, done);
                if copies_remain {
                    self.stats.remote_dram_fwd += 1;
                }
                self.probe::<TRACED>(Probe::Step(ProtoStep::MemoryReply), t_mem_ready, t_mem_ready);
                (done, DataSource::Memory(home))
            }
        };

        // Tracker slot held until the HA is done with the transaction.
        let ha_done = done.max(last_resp).max(dram_done);
        self.trackers[ha.0 as usize][remote_req as usize].occupy_until(ha_done);
        self.span_end::<TRACED>(ha_span, ha_done);

        // --- state updates ---
        // Sharers may exist beyond what the probes saw: a shared-clean
        // HitME hit or a `Shared` in-memory directory proves remote copies
        // without snooping them.
        let other_sharers = copies_remain
            || matches!(hitme_hit, Some((_, true)))
            || (self.proto.directory && dir_prev == DirState::Shared);
        let granted = fill_state_after_read(source, other_sharers);
        self.install_l3(node, line, L3Meta::filled_by(granted, local), done);
        let core_state = if granted == MesifState::Exclusive {
            CoreState::Exclusive
        } else {
            CoreState::Shared
        };
        self.fill_private(core, line, core_state, done);

        if self.proto.directory {
            let forwarder_node = match source {
                DataSource::PeerL3(n) | DataSource::PeerCore(n) => Some(n),
                _ => None,
            };
            let mut hitme_live = false;
            if self.proto.hitme {
                let snooped = broadcast_snooped
                    || forwarder_node.is_some()
                    || hitme_hit.is_some();
                if HitMeCache::should_allocate(node, home, forwarder_node, snooped) {
                    let mut nodes = NodeSet::only(node);
                    if let Some(f) = forwarder_node {
                        nodes.insert(f);
                    }
                    nodes.insert(home);
                    self.hitme[ha.0 as usize]
                        .allocate(line, HitMeEntry { nodes, clean: true });
                    // AllocateShared: the entry is born clean, so a later
                    // read at the home agent can answer from memory
                    // without a broadcast (the Fig. 7 latency dip).
                    self.probe::<TRACED>(Probe::HitMeAllocateShared { node, home }, done, done);
                    hitme_live = true;
                } else if hitme_hit.is_some() {
                    // An Exclusive grant can be upgraded to Modified
                    // silently, so the entry may only claim the memory
                    // copy valid for shared grants.
                    let clean = !matches!(granted, MesifState::Exclusive);
                    self.hitme[ha.0 as usize].update(line, |e| {
                        e.nodes.insert(node);
                        e.clean = clean;
                    });
                    hitme_live = true;
                }
            }
            let next = dir_after_read(dir_prev, node, home, granted, other_sharers, hitme_live);
            self.dir[ha.0 as usize].set(line, next);
        }

        self.probe_scratch = probes;
        AccessOutcome { done, source }
    }

    /// Hint the host CPU to pull the simulator metadata a walk for
    /// (`core`, `line`) will touch into its cache: the core's L1/L2 sets
    /// and every node's L3 slice set for the line (peer probes peek the
    /// remote slices too). Pure host-side hint — simulated state, timing,
    /// and statistics are bit-for-bit unaffected. Issued by the batch
    /// engine's staging pass a few accesses ahead of the walk loop, and
    /// available to drivers (e.g. the workload proxies) whose dispatch
    /// order is dynamic but whose next accesses are known early.
    #[inline]
    pub fn prefetch_access(&self, core: CoreId, line: LineAddr) {
        let ci = core.0 as usize;
        self.l1[ci].prefetch_set(line);
        self.l2[ci].prefetch_set(line);
        for n in self.topo.nodes() {
            let slice = self.topo.slice_for_line(line, n);
            self.l3[slice.0 as usize].prefetch_set(line);
        }
    }

    // ------------------------------------------------------------------
    // writes (stores / RFO)
    // ------------------------------------------------------------------

    /// Simulate a store by `core` to `line` issued at `t`.
    ///
    /// Panicking wrapper over [`try_write`](Self::try_write); see
    /// [`read`](Self::read).
    pub fn write(&mut self, core: CoreId, line: LineAddr, t: SimTime) -> AccessOutcome {
        match self.try_write(core, line, t) {
            Ok(out) => out,
            Err(e) => panic!("simulation error: {}", e.diagnostic()),
        }
    }

    /// Simulate a store by `core` to `line` issued at `t`, reporting
    /// protocol errors instead of panicking.
    pub fn try_write(
        &mut self,
        core: CoreId,
        line: LineAddr,
        t: SimTime,
    ) -> Result<AccessOutcome, SimError> {
        self.begin_walk();
        if self.trace_armed() {
            let root = self.span_begin::<true>(Probe::Walk { write: true }, t);
            let res = self.write_walk::<true>(core, line, t);
            let res = self.end_walk(core, line, t, res);
            self.walk_span_close(root, t, &res);
            res
        } else {
            let res = self.write_walk::<false>(core, line, t);
            self.end_walk(core, line, t, res)
        }
    }

    fn write_walk<const TRACED: bool>(
        &mut self,
        core: CoreId,
        line: LineAddr,
        t: SimTime,
    ) -> Result<AccessOutcome, SimError> {
        let ci = core.0 as usize;
        if let Some(st) = self.l1[ci].access(line) {
            if st.can_write() {
                *st = CoreState::Modified;
                if let Some(s2) = self.l2[ci].peek_mut(line) {
                    *s2 = CoreState::Modified;
                }
                let out = AccessOutcome { done: t + self.costs.l1, source: DataSource::SelfL1 };
                self.probe::<TRACED>(Probe::PrivateHit { level: 1 }, t, out.done);
                return Ok(out);
            }
        } else if let Some(st) = self.l2[ci].access(line) {
            if st.can_write() {
                *st = CoreState::Modified;
                self.fill_private(core, line, CoreState::Modified, t);
                let out = AccessOutcome { done: t + self.costs.l2, source: DataSource::SelfL2 };
                self.probe::<TRACED>(Probe::PrivateHit { level: 2 }, t, out.done);
                return Ok(out);
            }
        }
        // Shared hit or miss: needs ownership via the CA.
        self.stats.rfos += 1;
        self.rfo_via_ca::<TRACED>(core, line, t)
    }

    fn rfo_via_ca<const TRACED: bool>(
        &mut self,
        core: CoreId,
        line: LineAddr,
        t: SimTime,
    ) -> Result<AccessOutcome, SimError> {
        let node = self.topo.node_of_core(core);
        let local = self.topo.node_local_core(core);
        let slice = self.topo.slice_for_line(line, node);
        let t_req = t + self.costs.miss_path;
        let t_at_ca = self.send::<TRACED>(t_req, Endpoint::Core(core), Endpoint::Slice(slice), self.costs.msg_ctl);

        let meta_snapshot = self.l3[slice.0 as usize].access(line).map(|m| *m);
        let hit = meta_snapshot.is_some();
        self.probe::<TRACED>(Probe::Step(ProtoStep::CaLookup { slice, hit }), t_at_ca, t_at_ca);
        match ca_local_action(ReqType::Rfo, meta_snapshot.as_ref(), local) {
            CaAction::RfoHitOwned { invalidate_cv } => {
                let mut t_ready = t_at_ca + self.costs.l3_array;
                if invalidate_cv != 0 {
                    t_ready = self.invalidate_local_cores::<TRACED>(node, line, invalidate_cv, t_at_ca, slice);
                }
                let t_data = self.l3_port[slice.0 as usize].transfer(t_ready, self.costs.l3_line);
                let done = self
                    .send::<TRACED>(t_data, Endpoint::Slice(slice), Endpoint::Core(core), self.costs.msg_data)
                    + self.costs.fill;
                if let Some(meta) = self.l3[slice.0 as usize].peek_mut(line) {
                    meta.state = MesifState::Modified;
                    meta.cv = 1 << local;
                }
                self.fill_private(core, line, CoreState::Modified, done);
                Ok(AccessOutcome { done, source: DataSource::LocalL3 })
            }
            CaAction::UpgradeNeeded { invalidate_cv } => {
                // Invalidate local sharers, then obtain global ownership.
                let t_local = if invalidate_cv != 0 {
                    self.invalidate_local_cores::<TRACED>(node, line, invalidate_cv, t_at_ca, slice)
                } else {
                    t_at_ca + self.costs.l3_tag
                };
                let done = self.global_invalidate::<TRACED>(line, t_local, slice, node);
                if let Some(meta) = self.l3[slice.0 as usize].peek_mut(line) {
                    meta.state = MesifState::Modified;
                    meta.cv = 1 << local;
                }
                self.fill_private(core, line, CoreState::Modified, done);
                self.record_owner(node, line);
                Ok(AccessOutcome { done, source: DataSource::LocalL3 })
            }
            CaAction::Miss => {
                // Full RFO: fetch data with ownership.
                let out = self.node_miss_read::<TRACED>(core, line, t_at_ca, slice, node, local);
                // Convert the grant into ownership: invalidate any copies
                // that survived the read portion.
                let done = self.global_invalidate::<TRACED>(line, out.done, slice, node);
                if let Some(meta) = self.l3[slice.0 as usize].peek_mut(line) {
                    meta.state = MesifState::Modified;
                    meta.cv = 1 << local;
                }
                let ci = core.0 as usize;
                if let Some(s) = self.l1[ci].peek_mut(line) {
                    *s = CoreState::Modified;
                }
                if let Some(s) = self.l2[ci].peek_mut(line) {
                    *s = CoreState::Modified;
                }
                self.record_owner(node, line);
                Ok(AccessOutcome { done, source: out.source })
            }
            other => Err(self.unexpected(ReqType::Rfo, other, core, line)),
        }
    }

    /// Ownership of `line` changed hands to `node`: the home's directory
    /// state and any HitME entry must reflect the new single dirty owner.
    /// When the home itself reclaims ownership, a HitME entry left over
    /// from an earlier cache-to-cache transfer would claim stale sharers
    /// and a clean memory copy, so it goes.
    fn record_owner(&mut self, node: NodeId, line: LineAddr) {
        if !self.proto.directory {
            return;
        }
        let ha = self.topo.ha_for_line(line).0 as usize;
        let home = self.topo.home_node_of_line(line);
        self.dir[ha].set(line, dir_after_rfo(node, home));
        if self.proto.hitme && node == home {
            self.hitme[ha].invalidate(line);
        } else if self.proto.hitme {
            self.hitme[ha].update(line, |e| {
                e.nodes = NodeSet::only(node);
                e.clean = false;
            });
        }
    }

    /// Invalidate the given node-local core copies; returns when the last
    /// acknowledgment reaches the CA.
    fn invalidate_local_cores<const TRACED: bool>(
        &mut self,
        node: NodeId,
        line: LineAddr,
        cv: u32,
        t: SimTime,
        slice: SliceId,
    ) -> SimTime {
        let n = self.topo.cores_of_node(node).len();
        let mut last = t;
        for i in 0..n {
            if cv & (1 << i) != 0 {
                let c = self.topo.cores_of_node(node)[i];
                self.stats.snoops_sent += 1;
                let t_at = self.send::<TRACED>(t, Endpoint::Slice(slice), Endpoint::Core(c), self.costs.msg_ctl);
                let ci = c.0 as usize;
                self.l1[ci].remove(line);
                self.l2[ci].remove(line);
                let t_ack = self.send::<TRACED>(
                    t_at + self.costs.probe,
                    Endpoint::Core(c),
                    Endpoint::Slice(slice),
                    self.costs.msg_ctl,
                );
                self.probe::<TRACED>(Probe::InvCore { core: c }, t_at, t_ack);
                last = last.max(t_ack);
                if let Some(meta) = self.l3[slice.0 as usize].peek_mut(line) {
                    meta.clear_core(i as u8);
                }
            }
        }
        last
    }

    /// Invalidate every other node's copies of `line` (ownership/flush
    /// path). Returns completion time at the requesting core's CA.
    fn global_invalidate<const TRACED: bool>(
        &mut self,
        line: LineAddr,
        t: SimTime,
        slice: SliceId,
        node: NodeId,
    ) -> SimTime {
        let all = self.all_nodes();
        let mut last = t;
        for peer in all.without(node).iter() {
            let pslice = self.topo.slice_for_line(line, peer);
            let has_copy = self.l3[pslice.0 as usize].contains(line);
            if !has_copy {
                continue;
            }
            self.stats.snoops_sent += 1;
            let t_at = self.send::<TRACED>(t, Endpoint::Slice(slice), Endpoint::Slice(pslice), self.costs.msg_ctl);
            // Remove peer L3 + core copies.
            if let Some(meta) = self.l3[pslice.0 as usize].remove(line) {
                let cores = self.topo.cores_of_node(peer);
                for (i, &c) in cores.iter().enumerate() {
                    if meta.cv & (1 << i) != 0 {
                        self.l1[c.0 as usize].remove(line);
                        self.l2[c.0 as usize].remove(line);
                    }
                }
                if meta.state.is_dirty() {
                    let ha = self.topo.ha_for_line(line);
                    let (wb_done, _) = self.mem[ha.0 as usize].access(t_at, line, true);
                    self.probe::<TRACED>(Probe::DramWriteback, t_at, wb_done);
                    self.stats.dram_writebacks += 1;
                }
            }
            let t_ack = self.send::<TRACED>(
                t_at + self.costs.l3_tag,
                Endpoint::Slice(pslice),
                Endpoint::Slice(slice),
                self.costs.msg_ctl,
            );
            self.probe::<TRACED>(Probe::InvSnoop { node: peer }, t_at, t_ack);
            last = last.max(t_ack);
        }
        last
    }

    /// Simulate a non-temporal (streaming) store by `core` to `line`.
    ///
    /// `movnt*` stores bypass the cache hierarchy: the line is written
    /// through a write-combining buffer straight to the home memory, and
    /// any cached copies are invalidated. No read-for-ownership happens,
    /// so streaming writes cost one DRAM transfer instead of two — the
    /// classic STREAM-benchmark optimization.
    pub fn write_nt(&mut self, core: CoreId, line: LineAddr, t: SimTime) -> AccessOutcome {
        if self.trace_armed() {
            self.write_nt_impl::<true>(core, line, t)
        } else {
            self.write_nt_impl::<false>(core, line, t)
        }
    }

    fn write_nt_impl<const TRACED: bool>(
        &mut self,
        core: CoreId,
        line: LineAddr,
        t: SimTime,
    ) -> AccessOutcome {
        let ci = core.0 as usize;
        // Drop any local copies (an NT store to cached data invalidates it).
        self.l1[ci].remove(line);
        self.l2[ci].remove(line);
        let node = self.topo.node_of_core(core);
        let slice = self.topo.slice_for_line(line, node);
        // Invalidate other cached copies if the line is resident anywhere.
        let mut t_wc = t + self.costs.fill;
        if let Some(meta) = self.l3[slice.0 as usize].peek(line).copied() {
            let cv = meta.cv & !(1u32 << self.topo.node_local_core(core));
            if cv != 0 {
                t_wc = self.invalidate_local_cores::<TRACED>(node, line, cv, t_wc, slice);
            }
            self.l3[slice.0 as usize].remove(line);
        }
        self.global_invalidate::<TRACED>(line, t_wc, slice, node);
        // The store retires once a write-combining buffer accepts the
        // data; the buffer is held until the line drains to the home
        // memory, which is the back-pressure that bounds NT bandwidth to
        // the DRAM drain rate.
        let t_accept = self.wc_buf[ci].wait_for_slot(t_wc);
        self.probe::<TRACED>(Probe::WcDrain, t_wc, t_accept);
        let ha = self.topo.ha_for_line(line);
        let t_at_ha = self.send::<TRACED>(t_accept, Endpoint::Core(core), Endpoint::Ha(ha), self.costs.msg_data);
        let t_mem = t_at_ha + self.costs.ha;
        let (drained, _) = self.mem[ha.0 as usize].access(t_mem, line, true);
        self.probe::<TRACED>(Probe::DramDrain, t_mem, drained);
        self.wc_buf[ci].occupy_until(drained);
        self.stats.dram_writebacks += 1;
        if self.proto.directory {
            self.dir[ha.0 as usize].set(line, dir_after_writeback());
            self.hitme[ha.0 as usize].invalidate(line);
        }
        AccessOutcome {
            done: t_accept + self.costs.fill,
            source: DataSource::Memory(self.topo.home_node_of_line(line)),
        }
    }

    // ------------------------------------------------------------------
    // flush (clflush)
    // ------------------------------------------------------------------

    /// Simulate `clflush` by `core` of `line`: evict the line from every
    /// cache in the system and write dirty data back to the home memory.
    /// Returns the completion time.
    pub fn flush(&mut self, core: CoreId, line: LineAddr, t: SimTime) -> SimTime {
        if self.trace_armed() {
            self.flush_impl::<true>(core, line, t)
        } else {
            self.flush_impl::<false>(core, line, t)
        }
    }

    fn flush_impl<const TRACED: bool>(&mut self, core: CoreId, line: LineAddr, t: SimTime) -> SimTime {
        let node = self.topo.node_of_core(core);
        let slice = self.topo.slice_for_line(line, node);
        let ci = core.0 as usize;
        let own_dirty = matches!(self.l1[ci].remove(line), Some(CoreState::Modified))
            | matches!(self.l2[ci].remove(line), Some(CoreState::Modified));

        let t_req = t + self.costs.miss_path;
        let t_at_ca = self.send::<TRACED>(t_req, Endpoint::Core(core), Endpoint::Slice(slice), self.costs.msg_ctl);
        let local = self.topo.node_local_core(core);

        let mut t_done = t_at_ca + self.costs.l3_tag;
        let mut dirty = own_dirty;
        if let Some(meta) = self.l3[slice.0 as usize].remove(line) {
            // Invalidate other local cores.
            let cv = meta.cv & !(1u32 << local);
            if cv != 0 {
                // Re-insert briefly so the helper can clear bits, then drop.
                self.l3[slice.0 as usize].insert(line, meta);
                t_done = self.invalidate_local_cores::<TRACED>(node, line, cv, t_at_ca, slice);
                self.l3[slice.0 as usize].remove(line);
            }
            dirty |= meta.state.is_dirty();
        }
        // Kill copies in other nodes.
        t_done = self.global_invalidate::<TRACED>(line, t_done, slice, node);

        // Write back + directory reset at home.
        let ha = self.topo.ha_for_line(line);
        let t_at_ha = self.send::<TRACED>(t_done, Endpoint::Slice(slice), Endpoint::Ha(ha), self.costs.msg_ctl);
        let mut t_home_done = t_at_ha + self.costs.ha;
        if dirty {
            let (dev_done, _) = self.mem[ha.0 as usize].access(t_home_done, line, true);
            self.probe::<TRACED>(Probe::DramWriteback, t_home_done, dev_done);
            self.stats.dram_writebacks += 1;
            t_home_done = dev_done;
        }
        if self.proto.directory {
            self.dir[ha.0 as usize].set(line, dir_after_writeback());
            self.hitme[ha.0 as usize].invalidate(line);
        }
        self.send::<TRACED>(t_home_done, Endpoint::Ha(ha), Endpoint::Core(core), self.costs.msg_ctl)
    }

    // ------------------------------------------------------------------
    // placement helpers (simulate the paper's controlled evictions)
    // ------------------------------------------------------------------

    /// Evict `line` from `core`'s L1 (into L2 if dirty); models the
    /// paper's "flush higher levels into the target level" technique.
    pub fn demote_to_l2(&mut self, core: CoreId, line: LineAddr) {
        let ci = core.0 as usize;
        if let Some(st) = self.l1[ci].remove(line) {
            if st == CoreState::Modified {
                if let Some(s2) = self.l2[ci].peek_mut(line) {
                    *s2 = CoreState::Modified;
                }
            }
        }
    }

    /// Evict `line` from `core`'s L1+L2 into the node's L3. Dirty data is
    /// written back (clearing the CV bit); clean data leaves silently
    /// (leaving the CV bit stale — exactly like real silent evictions).
    pub fn demote_to_l3(&mut self, core: CoreId, line: LineAddr, t: SimTime) {
        let ci = core.0 as usize;
        let d1 = matches!(self.l1[ci].remove(line), Some(CoreState::Modified));
        let d2 = matches!(self.l2[ci].remove(line), Some(CoreState::Modified));
        if d1 || d2 {
            self.writeback_to_l3(core, line, t);
        }
    }

    /// Evict `line` from the node's L3 out to memory (plus back-invalidate
    /// core copies), as a capacity eviction would: dirty data is written
    /// back and resets the directory; clean data evicts silently, leaving
    /// directory/HitME state stale.
    pub fn demote_to_memory(&mut self, node: NodeId, line: LineAddr, t: SimTime) {
        let slice = self.topo.slice_for_line(line, node);
        if let Some(meta) = self.l3[slice.0 as usize].remove(line) {
            self.evict_l3_victim(node, line, meta, t);
        }
    }

    // ------------------------------------------------------------------
    // introspection (tests and experiment assertions)
    // ------------------------------------------------------------------

    /// Core-private L1 state of a line.
    pub fn l1_state(&self, core: CoreId, line: LineAddr) -> CoreState {
        self.l1[core.0 as usize].peek(line).copied().unwrap_or(CoreState::Invalid)
    }

    /// Core-private L2 state of a line.
    pub fn l2_state(&self, core: CoreId, line: LineAddr) -> CoreState {
        self.l2[core.0 as usize].peek(line).copied().unwrap_or(CoreState::Invalid)
    }

    /// L3 metadata for a line within `node`.
    pub fn l3_meta(&self, node: NodeId, line: LineAddr) -> Option<L3Meta> {
        let slice = self.topo.slice_for_line(line, node);
        self.l3[slice.0 as usize].peek(line).copied()
    }

    /// In-memory directory state for a line (directory modes).
    pub fn dir_state(&self, line: LineAddr) -> DirState {
        let ha = self.topo.ha_for_line(line);
        self.dir[ha.0 as usize].peek(line)
    }

    /// HitME statistics for the HA owning `line`.
    pub fn hitme_stats(&self, ha: HaId) -> (u64, u64) {
        (self.hitme[ha.0 as usize].hits, self.hitme[ha.0 as usize].misses)
    }

    /// Total bytes serialized onto QPI links, per ordered socket pair.
    pub fn qpi_bytes(&self) -> Vec<((u8, u8), u64)> {
        let n = self.cfg.sockets;
        let mut v = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    let idx = a as usize * n as usize + b as usize;
                    v.push(((a, b), self.qpi[idx].total_bytes()));
                }
            }
        }
        v
    }

    /// Aggregate DRAM row-hit rate across all controllers.
    pub fn dram_row_hit_rate(&self) -> f64 {
        let mut h = 0.0;
        let mut n = 0;
        for m in &self.mem {
            h += m.row_hit_rate();
            n += 1;
        }
        h / n as f64
    }

    /// Reset event counters (cache/directory state is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = Stats::default();
    }

    /// Stable FNV-1a digest of every piece of protocol state: per-core
    /// L1/L2 line states, per-slice L3 metadata, in-memory directory
    /// entries, and HitME entries.
    ///
    /// Entries are sorted before hashing so the digest is independent of
    /// hash-map iteration order, making it comparable across runs and
    /// platforms. Tests use it to prove that a fork and its original stay
    /// in step and that a refused walk changed nothing. Timing and
    /// statistics are deliberately excluded.
    pub fn state_digest(&self) -> u64 {
        fn mix(h: u64, section: u64, entries: &mut Vec<(u64, u64)>) -> u64 {
            entries.sort_unstable();
            let mut h = fnv1a64_extend(h, &section.to_le_bytes());
            h = fnv1a64_extend(h, &(entries.len() as u64).to_le_bytes());
            for &(line, v) in entries.iter() {
                h = fnv1a64_extend(h, &line.to_le_bytes());
                h = fnv1a64_extend(h, &v.to_le_bytes());
            }
            entries.clear();
            h
        }
        let mut h = fnv1a64(b"hswx-protocol-state-v1");
        let mut buf: Vec<(u64, u64)> = Vec::new();
        for (level, caches) in [(1u64, &self.l1), (2, &self.l2)] {
            for (ci, cache) in caches.iter().enumerate() {
                buf.extend(cache.iter().map(|(l, &s)| (l.0, s as u64)));
                h = mix(h, (level << 32) | ci as u64, &mut buf);
            }
        }
        for (si, slice) in self.l3.iter().enumerate() {
            buf.extend(
                slice
                    .iter()
                    .map(|(l, m)| (l.0, ((m.state as u64) << 32) | m.cv as u64)),
            );
            h = mix(h, (3u64 << 32) | si as u64, &mut buf);
        }
        for (di, dir) in self.dir.iter().enumerate() {
            buf.extend(dir.iter().map(|(l, s)| (l.0, s as u64)));
            h = mix(h, (4u64 << 32) | di as u64, &mut buf);
        }
        for (hi, hm) in self.hitme.iter().enumerate() {
            buf.extend(
                hm.iter()
                    .map(|(l, e)| (l.0, ((e.nodes.0 as u64) << 1) | e.clean as u64)),
            );
            h = mix(h, (5u64 << 32) | hi as u64, &mut buf);
        }
        h
    }
}

impl Drop for System {
    /// Publish aggregate counters to the ambient metrics registry captured
    /// at construction. Walks count during the simulation with zero
    /// overhead (the counters already exist for `stats`); aggregation
    /// happens exactly once, here or in an earlier explicit
    /// [`flush_metrics`](System::flush_metrics) call.
    fn drop(&mut self) {
        self.flush_metrics();
        self.flush_telemetry();
    }
}
