//! One run of one workload: set-up, rounds until the time budget is
//! spent, the correctness check of every output, and the tallies the
//! metrics are computed from.
//!
//! Load model: closed batch. Each round submits all of its units at once
//! to `parallel_try_map`, which sizes its pool by
//! `available_parallelism()`, and the next round starts when the last
//! unit of this one ends.

use crate::reference::{cell_text, Reference};
use crate::trace::{ns_since, self_times, LaneSpan, Layer, Span, Tracer};
use crate::units::{deal, execute, pass_units, proxies, Cell, Output, Unit, Workload};
use hswx_bench::parallel::parallel_try_map;
use hswx_engine::{fnv1a64, fnv1a64_extend, DetRng, MetricsRegistry};
use hswx_haswell::{System, SystemConfig};
use hswx_workloads::AppProxy;
use std::path::Path;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;

/// Everything a run needs before its first round.
pub struct Setup {
    workload: Workload,
    units: Vec<Unit>,
    apps: Vec<(&'static str, AppProxy)>,
    reference: Reference,
    rng: DetRng,
    queue: Vec<Vec<usize>>,
}

impl Setup {
    /// Build the pass, read and cross-check the reference artifacts under
    /// `root`, and deal the first pass from `seed`.
    pub fn new(workload: Workload, seed: u64, root: &Path) -> Result<Setup, String> {
        let units = pass_units(workload);
        let reference = Reference::load(root, workload.artifacts())?;
        reference.covers(&units.iter().map(|u| u.cell.clone()).collect::<Vec<Cell>>())?;
        // Build one System per mode the workload uses, so that a
        // configuration the simulator rejects fails set-up instead of
        // every unit.
        let mut modes = Vec::new();
        for m in units.iter().flat_map(|u| u.job.modes()) {
            if !modes.contains(&m) {
                System::try_new(SystemConfig::e5_2680_v3(m)).map_err(|e| format!("{m:?}: {e}"))?;
                modes.push(m);
            }
        }
        let mut rng = DetRng::new(seed);
        let queue = deal(&units, workload.rounds_per_pass(), &mut rng);
        Ok(Setup {
            workload,
            units,
            apps: proxies(),
            reference,
            rng,
            queue,
        })
    }

    fn next_round(&mut self) -> Vec<usize> {
        if self.queue.is_empty() {
            self.queue = deal(&self.units, self.workload.rounds_per_pass(), &mut self.rng);
        }
        self.queue.pop().expect("a pass has at least one round")
    }
}

struct UnitRun {
    output: Output,
    start_ns: u64,
    end_ns: u64,
    walks: u64,
    /// The unit's counters from its ambient metrics registry, by name.
    sim: Vec<(String, u64)>,
    spans: Vec<Span>,
    violations: u64,
    thread: ThreadId,
}

impl UnitRun {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Round {
    units: Vec<usize>,
    /// `None` where the unit panicked.
    runs: Vec<Option<UnitRun>>,
    panics: Vec<(usize, String)>,
    start_ns: u64,
    wall_ns: u64,
    cpu_ns: u64,
}

fn run_unit(setup: &Setup, unit: usize, traced: bool, epoch: Instant) -> UnitRun {
    let reg = Arc::new(MetricsRegistry::new());
    let scope = MetricsRegistry::set_ambient(Arc::clone(&reg));
    let mut tr = Tracer::start(epoch, traced);
    let output = execute(&setup.units[unit].job, &setup.apps, &mut tr, &reg);
    let violations = tr.violations;
    let (start_ns, end_ns, spans) = tr.finish();
    drop(scope);
    let sim = reg.counters_snapshot();
    let walks = sim
        .iter()
        .find(|(n, _)| n == "sys.walks")
        .map_or(0, |c| c.1);
    UnitRun {
        output,
        start_ns,
        end_ns,
        walks,
        sim,
        spans,
        violations,
        thread: std::thread::current().id(),
    }
}

fn run_round(setup: &Setup, units: &[usize], traced: bool, epoch: Instant) -> Round {
    let start_ns = ns_since(epoch);
    let cpu0 = process_cpu_ns();
    let (runs, failed) = parallel_try_map(units.to_vec(), |&i| run_unit(setup, i, traced, epoch));
    let cpu_ns = process_cpu_ns() - cpu0;
    let wall_ns = ns_since(epoch) - start_ns;
    let panics = failed.into_iter().map(|f| (f.index, f.panic)).collect();
    Round {
        units: units.to_vec(),
        runs,
        panics,
        start_ns,
        wall_ns,
        cpu_ns,
    }
}

/// Compare every output of `round` with the reference. Returns, per
/// position, why the unit failed (`None` when it passed).
fn check_round(setup: &Setup, round: &Round) -> Vec<Option<String>> {
    let value = |pos: usize| match &round.runs[pos] {
        Some(UnitRun {
            output: Output::Value(v),
            ..
        }) => Some(*v),
        _ => None,
    };
    let mut verdict = vec![None; round.units.len()];
    for &(pos, ref msg) in &round.panics {
        verdict[pos] = Some(format!("panicked: {msg}"));
    }
    for (pos, &i) in round.units.iter().enumerate() {
        let Some(run) = &round.runs[pos] else {
            continue;
        };
        let cell = &setup.units[i].cell;
        verdict[pos] = match &run.output {
            Output::Value(v) if !(v.is_finite() && *v > 0.0) => {
                Some(format!("{cell:?}: output {v}"))
            }
            Output::Value(v) => {
                let v = if cell.artifact == "fig10" {
                    // Figure 10 holds runtimes relative to source snoop,
                    // whose cell is in the same round.
                    let src = round.units.iter().position(|&j| {
                        let c = &setup.units[j].cell;
                        c.row == cell.row && c.col == "source snoop"
                    });
                    match src.and_then(value) {
                        Some(src) => v / src,
                        None => f64::NAN,
                    }
                } else {
                    *v
                };
                setup
                    .reference
                    .check(cell, &cell_text(cell.artifact, v))
                    .err()
            }
            Output::Anchors(anchors) => setup.reference.check_anchors(&cell.row, anchors).err(),
        };
    }
    verdict
}

/// FNV-1a over every unit's output bits and simulated counters.
fn digest(setup: &Setup, round: &Round) -> u64 {
    let mut h = fnv1a64(&[]);
    let mut eat = |bytes: &[u8]| h = fnv1a64_extend(h, bytes);
    for (pos, &i) in round.units.iter().enumerate() {
        eat(format!("{:?}", setup.units[i].cell).as_bytes());
        let Some(run) = &round.runs[pos] else {
            continue;
        };
        match &run.output {
            Output::Value(v) => eat(&v.to_bits().to_le_bytes()),
            Output::Anchors(a) => a.iter().for_each(|a| eat(&a.sim.to_bits().to_le_bytes())),
        }
        for (name, v) in &run.sim {
            eat(name.as_bytes());
            eat(&v.to_le_bytes());
        }
    }
    h
}

/// A fixed calibration loop, timed right after every untraced round.
///
/// The loop follows a random cycle of 4 Mi `u32` links (16 MiB) on the
/// calling thread: dependent loads that miss the caches, like the
/// simulator's cache-model lookups. Other tenants of a shared host slow
/// it much as they slow the simulator, so scaling a round's host times by
/// `NOMINAL_MS / loop time` cancels part of the host-speed drift between
/// runs. The loop is the benchmark's own code, and a round leaves little
/// of its cycle cached, so a change to the repository cannot speed it up.
pub struct Calibration {
    cycle: Vec<u32>,
}

impl Calibration {
    /// Loop time the corrected metrics are scaled to, ms.
    pub const NOMINAL_MS: f64 = 30.0;
    const LINKS: usize = 4 << 20;
    const STEPS: usize = 300_000;

    /// The same cycle on every run, built in place (Sattolo's algorithm)
    /// and kept for the whole run: freeing a block this large would raise
    /// the allocator's mmap threshold and change how the simulator's own
    /// allocations behave.
    pub(crate) fn new() -> Calibration {
        let mut cycle: Vec<u32> = (0..Self::LINKS as u32).collect();
        let mut rng = DetRng::new(0xCA11B);
        for i in (1..Self::LINKS).rev() {
            cycle.swap(i, rng.below(i as u64) as usize);
        }
        Calibration { cycle }
    }

    /// Resident bytes of the cycle.
    pub(crate) fn bytes(&self) -> usize {
        Self::LINKS * std::mem::size_of::<u32>()
    }

    /// Time one pass of the loop, ms.
    pub(crate) fn time_ms(&self) -> f64 {
        let t = Instant::now();
        let mut i = 0u32;
        for _ in 0..Self::STEPS {
            i = self.cycle[i as usize];
        }
        std::hint::black_box(i);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// What a run measured; the metrics are computed from it.
#[derive(Debug, Default)]
pub struct Summary {
    /// Host threads `parallel_try_map` sizes its pool to.
    pub threads: usize,
    /// Units in one pass.
    pub units_per_pass: usize,
    /// Rounds one pass is dealt into.
    pub rounds_per_pass: usize,
    /// Duration of each set-up, s.
    pub setup_s: Vec<f64>,
    /// Wall time of each untraced round, s.
    pub round_wall_s: Vec<f64>,
    /// Process CPU time of each untraced round, s.
    pub round_cpu_s: Vec<f64>,
    /// Walks per wall second of each untraced round.
    pub round_walks_per_s: Vec<f64>,
    /// Calibration loop time after each untraced round, ms.
    pub round_calib_ms: Vec<f64>,
    /// Host time of each unit of the untraced rounds, ms.
    pub unit_ms: Vec<f64>,
    /// Units run (traced and untraced).
    pub attempted: u64,
    /// Units that failed.
    pub failed: u64,
    /// First failure, for the diagnostic.
    pub first_failure: Option<String>,
    /// Digest of the first round's outputs and counters.
    pub digest: u64,
    /// The first round's counters, summed over its units.
    pub sim: Vec<(String, u64)>,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// Mean |sim - paper| / paper over the anchors, percent (0 when the
    /// workload has no anchors).
    pub paper_err_pct: f64,
    /// Unit time summed over untraced rounds, ns.
    pub busy_ns: u64,
    /// Pool thread capacity over untraced rounds, ns.
    pub capacity_ns: u64,
    /// Units in traced rounds.
    pub traced_units: u64,
    /// Self time per layer over traced rounds, ns (indexed like [`Layer::ALL`]).
    pub layer_ns: [u64; 9],
    /// Walks per layer over traced rounds.
    pub layer_walks: [u64; 9],
    /// `System::new` calls in traced rounds.
    pub system_new_calls: u64,
    /// Invariant violations found in traced rounds.
    pub violations: u64,
    /// Per traced unit: its time less its `check` spans, over the time of
    /// the same unit untraced.
    pub traced_over_untraced: Vec<f64>,
    /// Spans of the traced rounds, for the Chrome trace.
    pub lanes: Vec<LaneSpan>,
}

impl Summary {
    fn record_failures(&mut self, verdict: &[Option<String>]) {
        self.attempted += verdict.len() as u64;
        for msg in verdict.iter().flatten() {
            self.failed += 1;
            self.first_failure.get_or_insert_with(|| msg.clone());
        }
    }

    fn record_plain(&mut self, setup: &Setup, round: &Round, calib_ms: f64) {
        if self.round_wall_s.is_empty() {
            self.digest = digest(setup, round);
            let mut sim: Vec<(String, u64)> = Vec::new();
            for run in round.runs.iter().flatten() {
                for (name, v) in &run.sim {
                    match sim.iter_mut().find(|(n, _)| n == name) {
                        Some(slot) => slot.1 += v,
                        None => sim.push((name.clone(), *v)),
                    }
                }
            }
            self.sim = sim;
        }
        self.round_wall_s.push(round.wall_ns as f64 / 1e9);
        self.round_cpu_s.push(round.cpu_ns as f64 / 1e9);
        self.capacity_ns += self.threads.min(round.units.len()) as u64 * round.wall_ns;
        let mut err = (0.0, 0usize);
        let mut walks = 0;
        for run in round.runs.iter().flatten() {
            self.unit_ms.push(run.dur_ns() as f64 / 1e6);
            walks += run.walks;
            self.busy_ns += run.dur_ns();
            if let Output::Anchors(anchors) = &run.output {
                err.0 += anchors.iter().map(|a| a.rel_err().abs()).sum::<f64>();
                err.1 += anchors.len();
            }
        }
        self.round_walks_per_s
            .push(walks as f64 / (round.wall_ns as f64 / 1e9));
        self.round_calib_ms.push(calib_ms);
        if err.1 > 0 {
            self.paper_err_pct = 100.0 * err.0 / err.1 as f64;
        }
    }

    fn record_traced(&mut self, round: &Round, plain: &Round, report_ns: u64) {
        // Lanes: the pool's threads in order of their first unit.
        let mut threads: Vec<ThreadId> = Vec::new();
        for (run, untraced) in round.runs.iter().zip(&plain.runs) {
            let Some(run) = run else { continue };
            let lane = match threads.iter().position(|&t| t == run.thread) {
                Some(l) => l,
                None => {
                    threads.push(run.thread);
                    threads.len() - 1
                }
            };
            let selfs = self_times(&run.spans);
            let mut check_ns = 0;
            for (span, self_ns) in run.spans.iter().zip(selfs) {
                let l = Layer::ALL
                    .iter()
                    .position(|&l| l == span.layer)
                    .expect("known layer");
                self.layer_ns[l] += self_ns;
                self.layer_walks[l] += span.walks;
                self.system_new_calls += (span.layer == Layer::SystemNew) as u64;
                if span.layer == Layer::Check {
                    check_ns += self_ns;
                }
                self.lanes.push(LaneSpan {
                    lane,
                    unit: self.traced_units as usize,
                    parent: span.parent.map(|p| run.spans[p].layer),
                    span: span.clone(),
                });
            }
            self.traced_units += 1;
            if let Some(untraced) = untraced {
                self.traced_over_untraced
                    .push((run.dur_ns() - check_ns) as f64 / untraced.dur_ns() as f64);
            }
            self.violations += run.violations;
        }
        let report = Layer::ALL
            .iter()
            .position(|&l| l == Layer::Report)
            .expect("report layer");
        self.layer_ns[report] += report_ns;
        let end = round.start_ns + round.wall_ns;
        self.lanes.push(LaneSpan {
            lane: threads.len(),
            unit: 0,
            parent: None,
            span: Span {
                layer: Layer::Report,
                parent: None,
                start_ns: end,
                end_ns: end + report_ns,
                walks: 0,
            },
        });
    }
}

/// Run `workload` for about `seconds` of rounds, tracing every other
/// execution when `traced` (each round then runs twice, untraced and
/// traced, in alternating order, which gives the tracing overhead and a
/// determinism check on identical units).
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    root: &Path,
) -> Result<Summary, String> {
    let mut s = Summary::default();
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        setup = Some(Setup::new(workload, seed, root)?);
        s.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut setup = setup.expect("at least one set-up");
    s.threads = std::thread::available_parallelism().map_or(4, |p| p.get());
    s.units_per_pass = setup.units.len();
    s.rounds_per_pass = workload.rounds_per_pass();
    let calibration = Calibration::new();

    let epoch = Instant::now();
    for n in 0.. {
        let units = setup.next_round();
        let plain_first = n % 2 == 0;
        let mut plain = None;
        let mut traced_round = None;
        for pass in 0..if traced { 2 } else { 1 } {
            let t = traced && (pass == 0) != plain_first;
            let round = run_round(&setup, &units, t, epoch);
            let report0 = ns_since(epoch);
            let verdict = check_round(&setup, &round);
            let report_ns = ns_since(epoch) - report0;
            s.record_failures(&verdict);
            if t {
                traced_round = Some((round, report_ns));
            } else {
                plain = Some((round, calibration.time_ms()));
            }
        }
        let (plain, calib_ms) = plain.expect("every round runs untraced once");
        s.record_plain(&setup, &plain, calib_ms);
        if let Some((tr, report_ns)) = traced_round {
            if digest(&setup, &tr) != digest(&setup, &plain) {
                s.failed += 1;
                s.first_failure.get_or_insert_with(|| {
                    "traced and untraced runs of one round differ: nondeterminism".into()
                });
            }
            s.record_traced(&tr, &plain, report_ns);
        }
        let elapsed = ns_since(epoch) as f64 / 1e9;
        let per_round = elapsed / (n + 1) as f64;
        if elapsed + per_round > seconds {
            break;
        }
    }
    s.peak_rss_mb = peak_rss_mb() - calibration.bytes() as f64 / (1 << 20) as f64;
    Ok(s)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time of every thread of this process, ns.
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and clock_gettime writes only through the
    // pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}
