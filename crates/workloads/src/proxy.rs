//! Application proxy model and runner.

use hswx_engine::{DetRng, SimDuration, SimTime, TimedPool};
use hswx_haswell::microbench::Buffer;
use hswx_haswell::placement::{Level, Placement};
use hswx_haswell::{CoherenceMode, System, SystemConfig};
use hswx_mem::{CoreId, LineAddr, NodeId};
use serde::{Deserialize, Serialize};

/// Which benchmark suite a proxy stands in for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Suite {
    /// SPEC OMP2012: one shared address space, threads share data.
    Omp2012,
    /// SPEC MPI2007: per-rank address spaces, local memory dominates.
    Mpi2007,
}

/// Memory-behaviour description of one application.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppProxy {
    /// SPEC-style name ("362.fma3d", …).
    pub name: &'static str,
    /// Suite the application belongs to.
    pub suite: Suite,
    /// Per-thread working set, bytes.
    pub working_set: u64,
    /// Fraction of non-shared accesses that hit the thread's own NUMA
    /// node (MPI ranks ≈ 1.0; OMP threads lower).
    pub locality: f64,
    /// Fraction of accesses to lines shared across nodes.
    pub sharing: f64,
    /// Fraction of accesses that are stores.
    pub write_frac: f64,
    /// Streaming window (1 = fully dependent/latency-bound, up to 16 =
    /// fully pipelined/bandwidth-bound).
    pub window: u32,
    /// Compute time between memory operations, ns.
    pub comp_ns: f64,
}

struct ThreadState<'a> {
    core: CoreId,
    local: &'a Buffer,
    /// Buffer of another thread (for the 1-locality remote fraction).
    remote: &'a Buffer,
    issue_t: SimTime,
    window: TimedPool,
    remaining: usize,
    rng: DetRng,
    seq: usize,
    done: SimTime,
    /// The thread's next access, pre-drawn so the batch engine's staging
    /// layer can prefetch its simulator metadata while other threads
    /// dispatch. Drawing early is invisible: the RNG is per-thread, so
    /// the draw sequence each thread sees is unchanged.
    next: Option<(LineAddr, bool)>,
}

impl ThreadState<'_> {
    /// Draw the thread's next access class (advances `seq` and the RNG
    /// exactly like the old in-loop selection).
    fn draw_next(&mut self, app: &AppProxy, shared: &[LineAddr]) -> (LineAddr, bool) {
        self.seq += 1;
        let r = self.rng.unit();
        if r < app.sharing && !shared.is_empty() {
            let l = shared[self.rng.below(shared.len() as u64) as usize];
            (l, self.rng.chance(app.write_frac))
        } else if self.rng.chance(app.locality) {
            // Local streaming-ish access.
            let l = self.local.lines[self.seq % self.local.lines.len()];
            (l, self.rng.chance(app.write_frac))
        } else {
            let l = self.remote.lines[self.seq % self.remote.lines.len()];
            (l, false)
        }
    }
}

/// Run `app` under `mode` with `accesses` memory operations per thread;
/// returns the simulated wall time in nanoseconds.
///
/// Threads are pinned one per core (the paper pins via `KMP_AFFINITY` /
/// `-bind-to-core`). Shared data is pre-faulted so that cross-node shared
/// lines start in the Forward-in-another-node state that makes the COD
/// directory path visible, exactly like steady-state application sharing.
pub fn run_proxy(app: &AppProxy, mode: CoherenceMode, accesses: usize, seed: u64) -> f64 {
    let mut sys = System::new(SystemConfig::e5_2680_v3(mode));
    let n = sys.topo.n_cores() as usize;
    let root = DetRng::new(seed);

    // Per-thread local buffers on the thread's own node.
    let cores: Vec<CoreId> = (0..n as u16).map(CoreId).collect();
    let locals: Vec<Buffer> = cores
        .iter()
        .map(|&c| {
            let node = sys.topo.node_of_core(c);
            Buffer::on_node(&sys, node, app.working_set.max(64 * 1024), c.0 as u64)
        })
        .collect();

    // Shared buffer: lines homed round-robin over all nodes, pre-shared so
    // every line has its Forward copy in a *different* node than home.
    let shared = build_shared_region(&mut sys, app);

    // Warm the local buffers fully so the measured phase runs at steady
    // state: small working sets execute out of the caches, large ones
    // stream from memory — like the real applications.
    let mut t0 = SimTime::ZERO;
    for (i, b) in locals.iter().enumerate() {
        t0 = Placement::modified(&mut sys, cores[i], &b.lines, Level::L3, t0);
    }

    let mut threads: Vec<ThreadState> = (0..n)
        .map(|i| ThreadState {
            core: cores[i],
            local: &locals[i],
            remote: &locals[(i + n / 2) % n],
            issue_t: t0,
            window: TimedPool::new(app.window.max(1) as usize),
            remaining: accesses,
            rng: root.fork(i as u64),
            seq: i * 17,
            done: t0,
            next: None,
        })
        .collect();
    // Pre-draw (and prefetch) every thread's first access: up to one
    // pending access per core is known at any moment, and staging them
    // ahead overlaps the host-memory stalls of consecutive dispatches.
    for th in threads.iter_mut() {
        if th.remaining > 0 {
            let (line, w) = th.draw_next(app, &shared);
            th.next = Some((line, w));
            sys.prefetch_access(th.core, line);
        }
    }

    // Compute time between one thread's accesses.
    let comp_gap = SimDuration::from_ns(app.comp_ns.max(0.4));
    // Interleave threads in global time order.
    loop {
        let mut best: Option<(usize, SimTime)> = None;
        for (i, th) in threads.iter().enumerate() {
            if th.remaining > 0 {
                match best {
                    Some((_, t)) if t <= th.issue_t => {}
                    _ => best = Some((i, th.issue_t)),
                }
            }
        }
        let Some((i, _)) = best else { break };
        let th = &mut threads[i];
        th.remaining -= 1;
        let (line, is_write) = th.next.take().expect("pre-drawn access");

        let slot = th.window.wait_for_slot(th.issue_t);
        let out = if is_write {
            sys.write(th.core, line, slot)
        } else {
            sys.read(th.core, line, slot)
        };
        th.window.occupy_until(out.done);
        th.issue_t = slot + comp_gap;
        th.done = th.done.max(out.done);
        if th.remaining > 0 {
            let (l, w) = th.draw_next(app, &shared);
            th.next = Some((l, w));
            sys.prefetch_access(th.core, l);
        }
    }

    let end = threads.iter().map(|t| t.done).max().unwrap_or(t0);
    end.since(t0).as_ns()
}

/// Build and pre-share the cross-node shared region.
fn build_shared_region(sys: &mut System, app: &AppProxy) -> Vec<LineAddr> {
    if app.sharing <= 0.0 {
        return Vec::new();
    }
    let nodes: Vec<NodeId> = sys.topo.nodes().collect();
    let lines_per_node = 512u64;
    let mut all = Vec::new();
    let mut t = SimTime::ZERO;
    for (i, &home) in nodes.iter().enumerate() {
        let buf = Buffer::on_node(sys, home, lines_per_node * 64, 100);
        // Forward copy deliberately lands in a different node than home.
        let fwd_node = nodes[(i + 1) % nodes.len()];
        let home_core = sys.topo.cores_of_node(home)[0];
        let fwd_core = sys.topo.cores_of_node(fwd_node)[0];
        t = Placement::shared(sys, &[home_core, fwd_core], &buf.lines, Level::L3, t);
        all.extend(buf.lines);
    }
    all
}

/// Normalized runtimes of `app` across all three coherence modes
/// (source snoop = 1.0).
pub fn relative_runtimes(app: &AppProxy, accesses: usize, seed: u64) -> [f64; 3] {
    let src = run_proxy(app, CoherenceMode::SourceSnoop, accesses, seed);
    let hs = run_proxy(app, CoherenceMode::HomeSnoop, accesses, seed);
    let cod = run_proxy(app, CoherenceMode::ClusterOnDie, accesses, seed);
    [1.0, hs / src, cod / src]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites::{mpi2007_proxies, omp2012_proxies};

    #[test]
    fn proxy_runs_and_is_deterministic() {
        let app = &omp2012_proxies()[0];
        let a = run_proxy(app, CoherenceMode::SourceSnoop, 200, 7);
        let b = run_proxy(app, CoherenceMode::SourceSnoop, 200, 7);
        assert_eq!(a, b);
        assert!(a > 0.0);
    }

    #[test]
    fn sharing_heavy_app_suffers_under_cod() {
        let fma3d = omp2012_proxies()
            .into_iter()
            .find(|a| a.name.contains("fma3d"))
            .unwrap();
        let [_, _, cod] = relative_runtimes(&fma3d, 1500, 11);
        assert!(cod > 1.02, "COD should slow the sharing-heavy proxy: {cod}");
    }

    #[test]
    fn local_mpi_app_modes_match_paper_directions() {
        let app = mpi2007_proxies()
            .into_iter()
            .find(|a| a.name.contains("milc") || a.suite == Suite::Mpi2007)
            .unwrap();
        let [_, hs, cod] = relative_runtimes(&app, 1500, 13);
        // Paper: "Disabling Early Snoop has a tendency to slightly decrease
        // the performance" of MPI codes.
        assert!(hs >= 0.99, "home snoop should not speed up local MPI: {hs}");
        assert!(hs < 1.15, "home snoop slowdown stays modest: {hs}");
        // Paper reports a slight COD *speedup*; the simulator lands in a
        // small slowdown instead because the asymmetric ring split hits the
        // node-1/3 ring-0 cores harder than real hardware (documented in
        // EXPERIMENTS.md). Either way the effect must stay small.
        assert!(cod < 1.15, "COD impact on local MPI stays small: {cod}");
    }
}
