//! Batch-walk API: pipelined dispatch of many independent accesses.
//!
//! The long-walk path (placement sweeps, the fig4 latency curves) issues
//! millions of accesses whose *addresses* are all known up front even
//! though their *issue times* chain one after another. A
//! sequential `read`/`write` loop executes each walk as a dependent chain
//! of cold host-memory loads over the simulator's own metadata — slice tag
//! arrays alone are ~320 KiB per L3 slice, so consecutive walks almost
//! never reuse a host cache line. [`System::run_batch`] exploits the
//! known-addresses structure the way real Haswell hardware keeps many line
//! transfers in flight:
//!
//! 1. a **flat SoA staging pass** pre-resolves per-access topology (home
//!    node, home agent, per-node CBo slice, core→slice stop distance)
//!    using the precomputed topology tables, into arrays reused across
//!    batches;
//! 2. a **lookahead prefetcher** walks a few accesses ahead of the
//!    dispatch loop, hinting the host CPU to pull the L3 slice set
//!    metadata those walks will probe ([`SetAssocCache::prefetch_set`];
//!    the few-KiB L1/L2 arrays are permanently host-warm) so the walk
//!    itself hits in the host cache;
//! 3. the dispatch loop then runs the **exact sequential walk code** —
//!    `try_read` / `try_write` / `write_nt` / `flush` — one access at a
//!    time in batch order.
//!
//! Determinism argument: stages 1–2 never read or write simulated state
//! (staging reads only the immutable topology; prefetches are
//! architectural no-ops), and stage 3 is the unmodified sequential
//! dispatch. Every outcome, statistic, transcript, and `state_digest` is
//! therefore *bit-identical* to the equivalent sequential loop — which
//! [`System::run_batch_seq`] keeps callable as the differential
//! reference, pinned by proptests across all three snoop modes.
//!
//! Batching trades host memory footprint for pipelining: each access
//! costs 32 staged bytes plus a 72-byte reply slot, so multi-million
//! access sequences should be submitted in [`BATCH_CHUNK`]-sized chunks
//! (re-anchoring each chunk's first [`Issue`] at the previous chunk's
//! completion time) to keep the buffers LLC-resident.

use crate::error::SimError;
use crate::system::{AccessOutcome, System};
use hswx_engine::{SimDuration, SimTime};
use hswx_mem::{CoreId, HaId, LineAddr, NodeId, SliceId};
#[cfg(debug_assertions)]
use hswx_topology::Endpoint;

/// What a batched access does. Each variant dispatches to the
/// correspondingly named sequential entry point on [`System`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOp {
    /// A load ([`System::try_read`]).
    Read,
    /// A store / RFO ([`System::try_write`]).
    Write,
    /// A non-temporal (write-combining) store ([`System::write_nt`]).
    WriteNt,
    /// A `clflush`-style flush ([`System::flush`]).
    Flush,
}

/// When a batched access issues, relative to the batch so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Issue {
    /// At an absolute simulated time.
    At(SimTime),
    /// The instant the previous access's data arrived (pointer-chasing
    /// dependence — the paper's latency-measurement pattern).
    AfterPrev,
    /// A fixed delay after the previous access completed.
    AfterPrevPlus(SimDuration),
}

/// One access in a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Issuing core.
    pub core: CoreId,
    /// Target line.
    pub line: LineAddr,
    /// Operation kind.
    pub op: AccessOp,
    /// Issue-time rule.
    pub issue: Issue,
}

impl Access {
    /// A load chained on the previous access (the common walk shape).
    pub fn read(core: CoreId, line: LineAddr) -> Self {
        Access { core, line, op: AccessOp::Read, issue: Issue::AfterPrev }
    }

    /// A store chained on the previous access.
    pub fn write(core: CoreId, line: LineAddr) -> Self {
        Access { core, line, op: AccessOp::Write, issue: Issue::AfterPrev }
    }

    /// Override the issue rule.
    pub fn at(mut self, t: SimTime) -> Self {
        self.issue = Issue::At(t);
        self
    }
}

/// Reply for one batched access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchReply {
    /// A read/write/NT-store completed with a data source.
    Access(AccessOutcome),
    /// A flush completed (flushes carry no data source).
    Flushed(SimTime),
}

impl BatchReply {
    /// When the operation completed.
    pub fn done(&self) -> SimTime {
        match *self {
            BatchReply::Access(out) => out.done,
            BatchReply::Flushed(t) => t,
        }
    }

    /// The access outcome, if this was a read/write/NT store.
    pub fn outcome(&self) -> Option<AccessOutcome> {
        match *self {
            BatchReply::Access(out) => Some(out),
            BatchReply::Flushed(_) => None,
        }
    }
}

/// Result of [`System::run_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// One reply per access, in batch order. Faulted walks report their
    /// `SimError` here exactly as the sequential entry points would.
    pub replies: Vec<Result<BatchReply, SimError>>,
    /// Completion time of the last *successful* access (the value the
    /// `AfterPrev` chain ended on; errors leave the chain time unchanged,
    /// matching a sequential retry loop).
    pub done: SimTime,
}

/// SoA staging scratch reused across [`System::run_batch`] calls.
///
/// Parallel flat arrays, one entry per staged access (`slices` holds
/// `n_nodes` entries per access). Host-side only: not copied by
/// [`System::fork`] and never observable in simulated state, like the walk
/// scratch fields on [`System`].
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Per-access, per-node CBo slice: entry `i * n_nodes + k` is where
    /// node `k` would cache access `i`'s line. Consumed by the lookahead
    /// prefetcher (the requesting node's CA probe plus peer-probe peeks).
    slices: Vec<SliceId>,
    /// Home node of each access's line (staged in debug builds, where
    /// the dispatch loop cross-checks it against the walk's own
    /// resolution).
    home: Vec<NodeId>,
    /// Home agent of each access's line (debug builds).
    ha: Vec<HaId>,
    /// Core→own-slice ring stop distance (hops), from the precomputed
    /// distance tables (debug builds).
    dist: Vec<u32>,
}

impl BatchScratch {
    fn clear(&mut self) {
        self.slices.clear();
        self.home.clear();
        self.ha.clear();
        self.dist.clear();
    }
}

/// How many accesses the prefetcher runs ahead of the dispatch loop. One
/// long walk takes a few hundred nanoseconds of host time, a host DRAM
/// miss ~100 ns: a handful of walks of lookahead comfortably covers the
/// miss latency without thrashing what earlier prefetches brought in.
pub(crate) const LOOKAHEAD: usize = 8;

/// Preferred chunk length for callers that stream very long access
/// chains through [`System::run_batch`] ([`Placement`]
/// (crate::placement::Placement), the pointer chases). Batching is a
/// memory-footprint trade: the access array plus one 72-byte reply slot
/// per access must stay resident while the chunk runs, so a multi-million
/// access chain submitted in one call drags hundreds of megabytes through
/// the host cache and gives back more than the prefetcher won. 4096
/// accesses keep the working set a few hundred kilobytes — LLC-resident —
/// while still amortizing staging across long stretches.
pub const BATCH_CHUNK: usize = 4096;

impl System {
    /// Flat staging pass: resolve every access's topology into the SoA
    /// scratch. Reads only the immutable topology tables.
    ///
    /// Release builds stage only what the lookahead prefetcher consumes
    /// (the per-node slice ids); debug builds additionally stage the home
    /// node, home agent, and core→slice stop distance so the dispatch
    /// loop's `debug_assert`s can check the staged topology against what
    /// the walk itself resolves.
    fn stage_batch(&mut self, batch: &[Access]) {
        let mut scratch = std::mem::take(&mut self.batch_scratch);
        scratch.clear();
        scratch.slices.reserve(batch.len() * self.topo.n_nodes() as usize);
        for a in batch {
            for n in self.topo.nodes() {
                scratch.slices.push(self.topo.slice_for_line(a.line, n));
            }
        }
        #[cfg(debug_assertions)]
        for a in batch {
            let node = self.topo.node_of_core(a.core);
            let own = self.topo.slice_for_line(a.line, node);
            scratch.home.push(self.topo.home_node_of_line(a.line));
            scratch.ha.push(self.topo.ha_for_line(a.line));
            scratch
                .dist
                .push(self.topo.distance(Endpoint::Core(a.core), Endpoint::Slice(own)).ring_hops);
        }
        self.batch_scratch = scratch;
    }

    /// Prefetch the set metadata access `i` will probe, using the staged
    /// per-node slice ids. Architectural no-op.
    ///
    /// Only the L3 slice arrays are touched: they are the one structure
    /// big enough (~320 KiB of tags per slice, ×2 sockets of slices) to
    /// still be cold in the host cache by the time the walk probes it.
    /// The per-core L1/L2 arrays are a few KiB and permanently host-warm,
    /// so hinting them costs more than it saves.
    #[inline]
    fn prefetch_staged(&self, batch: &[Access], i: usize, n_nodes: usize) {
        let a = &batch[i];
        for k in 0..n_nodes {
            let slice = self.batch_scratch.slices[i * n_nodes + k];
            self.l3[slice.0 as usize].prefetch_set(a.line);
        }
    }

    /// Run a batch of accesses through the pipelined batch engine.
    ///
    /// Bit-identical to dispatching the same accesses through the
    /// sequential entry points in order (see [`run_batch_seq`]
    /// (Self::run_batch_seq) and the module docs for the determinism
    /// argument), but substantially faster on long-walk batches: the SoA
    /// staging pass and lookahead prefetcher overlap the host-memory
    /// stalls that otherwise serialize consecutive walks.
    pub fn run_batch(&mut self, batch: &[Access]) -> BatchOutcome {
        self.stage_batch(batch);
        let n_nodes = self.topo.n_nodes() as usize;
        let mut replies = Vec::with_capacity(batch.len());
        let mut prev_done = SimTime::ZERO;
        for i in 0..batch.len().min(LOOKAHEAD) {
            self.prefetch_staged(batch, i, n_nodes);
        }
        for (i, a) in batch.iter().enumerate() {
            if i + LOOKAHEAD < batch.len() {
                self.prefetch_staged(batch, i + LOOKAHEAD, n_nodes);
            }
            // The staged topology must agree with what the walk itself
            // resolves — the SoA pass is a pure re-derivation.
            #[cfg(debug_assertions)]
            {
                debug_assert_eq!(self.batch_scratch.home[i], self.topo.home_node_of_line(a.line));
                debug_assert_eq!(self.batch_scratch.ha[i], self.topo.ha_for_line(a.line));
                debug_assert!(self.batch_scratch.dist[i] < u32::MAX);
            }
            let reply = self.dispatch_one(a, &mut prev_done);
            replies.push(reply);
        }
        BatchOutcome { replies, done: prev_done }
    }

    /// The sequential differential reference: the same dispatch loop with
    /// no staging and no prefetch. `run_batch` must stay bit-identical to
    /// this (outcomes, `Stats`, transcripts, `state_digest`); the
    /// differential proptests in `tests/batch_differential.rs` and CI's
    /// perf gate both pin it.
    pub fn run_batch_seq(&mut self, batch: &[Access]) -> BatchOutcome {
        let mut replies = Vec::with_capacity(batch.len());
        let mut prev_done = SimTime::ZERO;
        for a in batch {
            let reply = self.dispatch_one(a, &mut prev_done);
            replies.push(reply);
        }
        BatchOutcome { replies, done: prev_done }
    }

    /// Dispatch one access through the sequential entry points, advancing
    /// the `AfterPrev` chain on success.
    #[inline]
    fn dispatch_one(
        &mut self,
        a: &Access,
        prev_done: &mut SimTime,
    ) -> Result<BatchReply, SimError> {
        let t = match a.issue {
            Issue::At(t) => t,
            Issue::AfterPrev => *prev_done,
            Issue::AfterPrevPlus(d) => *prev_done + d,
        };
        let reply = match a.op {
            AccessOp::Read => self.try_read(a.core, a.line, t).map(BatchReply::Access),
            AccessOp::Write => self.try_write(a.core, a.line, t).map(BatchReply::Access),
            AccessOp::WriteNt => Ok(BatchReply::Access(self.write_nt(a.core, a.line, t))),
            AccessOp::Flush => Ok(BatchReply::Flushed(self.flush(a.core, a.line, t))),
        };
        if let Ok(r) = &reply {
            *prev_done = r.done();
        }
        reply
    }
}

