//! Subcommand implementations.

use crate::args::Flags;
use hswx_bench::scenarios::{cod_shared, size_for_level, LatencyScenario, PreparedScenario};
use hswx_engine::SpanRecorder;
use hswx_verify::{run_campaign, FaultPlan};
use hswx_haswell::microbench::{
    pointer_chase, stream_read, stream_write, stream_write_nt, LoadWidth,
};
use hswx_haswell::placement::{Level, PlacedState};
use hswx_haswell::{AccessOutcome, CoherenceMode, System, SystemConfig};
use hswx_mem::{CoreId, NodeId, CACHE_LINE_BYTES};
use std::fmt::{Debug, Display};
use std::ops::RangeBounds;

/// Top-level usage text.
pub const USAGE: &str = "\
hswx — dual-socket Haswell-EP memory-system simulator

USAGE:
  hswx info      [--mode source|home|cod]
  hswx latency   [--mode M] [--state M|E|S] [--level l1|l2|l3|mem]
                 [--placer CORE[,CORE..]] [--measurer CORE] [--home NODE] [--size BYTES]
                 (--state S is placed by two or more distinct cores, M and
                  E by exactly one)
  hswx bandwidth [latency flags] [--width avx|sse] [--write | --write-nt]
  hswx explain   [latency flags but --size]   (prints the protocol steps of one access)
  hswx faultcheck [--seed N] [--trials N] [--json FILE]
                 (fault-injection campaign: asserts the invariant monitor
                  detects every injected corruption in all three modes,
                  in --trials trials per class and mode, 4 by default;
                  --json additionally writes the matrix as JSON)
  hswx campaign  [--out DIR] [--journal FILE] [--resume] [--fsync]
                 [--jobs a,b,..] [--metrics-json FILE] [--telemetry BASE]
                 (supervised regeneration of every figure/table artifact
                  under results/, or the --jobs subset: jobs run in full,
                  one at a time, each once, with a crash-safe journal; a
                  failed job keeps its finished cells for --resume, which
                  skips journaled jobs;
                  --metrics-json exports campaign-total protocol counters;
                  --telemetry samples simulated-time series per job and
                  writes the merged profile to BASE.csv and BASE.om, and
                  is refused together with --resume)
  hswx trace     [latency flags] [--accesses N] [--out FILE]
                 (run a placed-state scenario with the span tracer armed:
                  writes Chrome/Perfetto trace-event JSON and prints a
                  terminal waterfall plus an exact latency attribution)
  hswx explain fig7 [SIZE_KIB] [--fwd N] [--home N] [--out FILE]
                 (trace one read of the Figure 7 HitME/AllocateShared
                  anomaly and attribute its latency hop by hop; --out
                  also writes the read's Chrome/Perfetto trace JSON)
  hswx explain diff A B [--telemetry-a FILE] [--telemetry-b FILE]
                 (compare two runs' metrics JSON exports — files or run
                  directories — and rank the regression by hardware
                  component; directories also diff telemetry.csv)

EXAMPLES:
  hswx latency --state M --level l1 --placer 1 --measurer 0
  hswx bandwidth --level mem --size 67108864 --width avx
  hswx trace --mode cod --state S --level l3 --placer 6,12 --home 1 --out trace.json
  hswx explain fig7 128
  hswx faultcheck --trials 1
  hswx campaign --out results --resume --metrics-json results/metrics.json
  hswx campaign --out results --telemetry results/telemetry
  hswx explain diff runA/metrics.json runB/metrics.json";

/// Value flags of the placed-state scenario commands (`latency`,
/// `bandwidth`, `trace`, `explain`) that [`scenario_of`] reads, except
/// `--size`, which `explain` does not take.
const SCENARIO_FLAGS: &[&str] = &["mode", "level", "state", "placer", "measurer", "home"];

fn mode_of(flags: &Flags) -> Result<CoherenceMode, String> {
    match flags.get("mode", "source") {
        "source" | "src" | "default" => Ok(CoherenceMode::SourceSnoop),
        "home" | "hs" => Ok(CoherenceMode::HomeSnoop),
        "cod" => Ok(CoherenceMode::ClusterOnDie),
        other => Err(format!("unknown --mode {other} (source|home|cod)")),
    }
}

fn level_of(flags: &Flags) -> Result<Level, String> {
    match flags.get("level", "l3") {
        "l1" => Ok(Level::L1),
        "l2" => Ok(Level::L2),
        "l3" => Ok(Level::L3),
        "mem" | "memory" => Ok(Level::Memory),
        other => Err(format!("unknown --level {other} (l1|l2|l3|mem)")),
    }
}

fn state_of(flags: &Flags) -> Result<PlacedState, String> {
    match flags.get("state", "E") {
        "M" | "m" | "modified" => Ok(PlacedState::Modified),
        "E" | "e" | "exclusive" => Ok(PlacedState::Exclusive),
        "S" | "s" | "shared" => Ok(PlacedState::Shared),
        other => Err(format!("unknown --state {other} (M|E|S)")),
    }
}

/// `value`, or an error naming `what` if it lies outside `range`.
fn in_range<T: PartialOrd + Display>(
    what: &str,
    value: T,
    range: impl RangeBounds<T> + Debug,
) -> Result<T, String> {
    if range.contains(&value) {
        Ok(value)
    } else {
        Err(format!("{what} {value} out of range ({range:?})"))
    }
}

/// NUMA nodes of the simulated system in `mode` (cluster-on-die splits
/// each socket in two).
fn nodes_of(mode: CoherenceMode) -> u8 {
    SystemConfig::e5_2680_v3(mode).sockets * if mode.cod() { 2 } else { 1 }
}

/// The placed-state scenario the flags describe. Every core, the home
/// node and the buffer size are checked against the system of the chosen
/// mode, so an out-of-range value is an error rather than a panic or a
/// measurement of a node that does not exist. The placer list must fit
/// the state: a Shared line needs two distinct cores to hold it (one
/// leaves it Exclusive), and Modified or Exclusive is placed by exactly
/// one core (the placement would read only the first).
fn scenario_of(flags: &Flags) -> Result<LatencyScenario, String> {
    let mode = mode_of(flags)?;
    let level = level_of(flags)?;
    let state = state_of(flags)?;
    let cores = 0..SystemConfig::e5_2680_v3(mode).n_cores();
    let placers: Vec<CoreId> = flags
        .get("placer", "0")
        .split(',')
        .map(|s| {
            let core = s.trim().parse().map_err(|_| format!("bad core id in --placer: {s}"))?;
            in_range("--placer", core, cores.clone()).map(CoreId)
        })
        .collect::<Result<_, String>>()?;
    let distinct = placers.iter().collect::<std::collections::BTreeSet<_>>().len();
    match state {
        PlacedState::Shared if distinct < 2 => {
            return Err(format!("--state S needs at least two distinct --placer cores (got {distinct})"));
        }
        PlacedState::Modified | PlacedState::Exclusive if placers.len() != 1 => {
            let s = if state == PlacedState::Modified { "M" } else { "E" };
            return Err(format!("--state {s} takes exactly one --placer core (got {})", placers.len()));
        }
        _ => {}
    }
    let measurer = in_range("--measurer", flags.get_parse("measurer", 0u16)?, cores)?;
    let home = in_range("--home", flags.get_parse("home", 0u8)?, 0..nodes_of(mode))?;
    let size = flags.get_parse("size", size_for_level(level))?;
    Ok(LatencyScenario {
        mode,
        placers,
        state,
        level,
        home: NodeId(home),
        measurer: CoreId(measurer),
        size: Some(in_range("--size", size, CACHE_LINE_BYTES..=1 << 30)?),
    })
}

/// `hswx info` — describe the simulated machine.
pub fn info(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv, &["mode"], &[], 0)?;
    let mode = mode_of(&flags)?;
    let sys = System::new(SystemConfig::e5_2680_v3(mode));
    println!("mode:   {}", sys.cfg.mode.label());
    println!("cores:  {} ({} sockets)", sys.topo.n_cores(), sys.topo.n_sockets());
    println!(
        "caches: L1D {} KiB, L2 {} KiB, L3 {} MiB/socket (inclusive, per-slice CV bits)",
        sys.cfg.l1.size_bytes >> 10,
        sys.cfg.l2.size_bytes >> 10,
        (sys.cfg.l3_slice.size_bytes * sys.topo.cores_per_socket() as u64) >> 20,
    );
    println!("memory: 4x DDR4-2133 per socket ({:.1} GB/s)", 4.0 * sys.cfg.dram.bus_gb_s);
    println!("qpi:    {:.1} GB/s per direction (2 links)", sys.calib().qpi_gb_s);
    for node in sys.topo.nodes() {
        let cores = sys.topo.cores_of_node(node);
        println!(
            "  {node}: cores {}..{} ({} slices, {} HA)",
            cores.first().map(|c| c.0).unwrap_or(0),
            cores.last().map(|c| c.0).unwrap_or(0),
            sys.topo.slices_of_node(node).len(),
            sys.topo.has_of_node(node).len(),
        );
    }
    Ok(())
}

/// `hswx latency` — one placed-state pointer-chase measurement.
pub fn latency(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv, &[SCENARIO_FLAGS, &["size"]].concat(), &[], 0)?;
    let mut p = scenario_of(&flags)?.prepare();
    let m = pointer_chase(&mut p.sys, p.measurer, &p.lines, p.t, 0xCAFE);
    println!("{:.1} ns per load ({} samples)", m.ns_per_access, m.samples);
    let mut sources: Vec<_> = m.by_source.iter().collect();
    sources.sort_by(|a, b| b.1.cmp(a.1));
    for (src, n) in sources {
        println!("  {:>6.1}% {src:?}", 100.0 * *n as f64 / m.samples as f64);
    }
    Ok(())
}

/// `hswx bandwidth` — one placed-state streaming measurement.
pub fn bandwidth(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        argv,
        &[SCENARIO_FLAGS, &["size", "width"]].concat(),
        &["write", "write-nt"],
        0,
    )?;
    if flags.has("write") && flags.has("write-nt") {
        return Err("--write and --write-nt are exclusive: pick one store kind".into());
    }
    let scenario = scenario_of(&flags)?;
    let width = match flags.get("width", "avx") {
        "avx" => LoadWidth::Avx256,
        "sse" => LoadWidth::Sse128,
        other => return Err(format!("unknown --width {other} (avx|sse)")),
    };

    let PreparedScenario { mut sys, lines, t, measurer } = scenario.prepare();
    let m = if flags.has("write-nt") {
        stream_write_nt(&mut sys, measurer, &lines, width, t)
    } else if flags.has("write") {
        stream_write(&mut sys, measurer, &lines, width, t)
    } else {
        stream_read(&mut sys, measurer, &lines, width, t)
    };
    println!("{:.1} GB/s ({} lines)", m.gb_s, m.lines);
    Ok(())
}

/// `hswx trace` — run one placed-state latency scenario with the span
/// tracer attached: placement runs untraced, then `--accesses` reads are
/// recorded as causally-ordered span trees. Writes Chrome/Perfetto
/// trace-event JSON to `--out` and prints a terminal waterfall plus the
/// exact per-component latency attribution of the final access.
pub fn trace(argv: &[String]) -> Result<(), String> {
    let flags =
        Flags::parse(argv, &[SCENARIO_FLAGS, &["size", "accesses", "out"]].concat(), &[], 0)?;
    let scenario = scenario_of(&flags)?;
    let accesses = flags.get_parse("accesses", 4usize)?;
    if accesses == 0 {
        return Err("--accesses must be at least 1".into());
    }
    let out_path = flags.get("out", "trace.json").to_string();

    let (_, _, rec) = traced_reads(&scenario, 1 << 16, accesses)?;
    write_trace_json(&rec, std::path::Path::new(&out_path))?;

    let walk = rec.last_walk().ok_or("no walk recorded")?;
    println!(
        "traced {} access(es); Chrome/Perfetto trace written to {out_path}",
        rec.walks().count()
    );
    println!("\nlast access ({:.3} ns end to end):\n", walk.latency().as_ns());
    print!("{}", rec.waterfall(&walk));
    print_attribution(&rec, &walk);
    Ok(())
}

/// Place `scenario` untraced, then issue `reads` back-to-back reads of its
/// lines (cycling) with a span tracer of `capacity` spans attached.
/// Returns the placed scenario, the first read's outcome and the
/// recorder, every walk of which is checked to be a well-formed tree.
fn traced_reads(
    scenario: &LatencyScenario,
    capacity: usize,
    reads: usize,
) -> Result<(PreparedScenario, AccessOutcome, SpanRecorder), String> {
    let mut p = scenario.prepare();
    p.sys.attach_tracer(SpanRecorder::with_capacity(capacity));
    let (mut t, mut first) = (p.t, None);
    for line in p.lines.iter().cycle().take(reads) {
        let out = p.sys.read(p.measurer, *line, t);
        first.get_or_insert(out);
        t = out.done;
    }
    let rec = p.sys.take_tracer().ok_or("internal: span tracer detached during the scenario")?;
    for w in rec.walks() {
        rec.validate_walk(w).map_err(|e| format!("internal: malformed span tree: {e}"))?;
    }
    Ok((p, first.ok_or("no walk recorded")?, rec))
}

/// Validate `rec`'s Chrome trace-event JSON and write it to `path`.
fn write_trace_json(rec: &SpanRecorder, path: &std::path::Path) -> Result<(), String> {
    let json = rec.chrome_json();
    hswx_engine::trace::validate_trace_json(&json)
        .map_err(|e| format!("internal: trace JSON failed validation: {e}"))?;
    hswx_engine::atomic_write(path, json.as_bytes(), false)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Print the exact latency attribution of one walk: every row is the
/// simulated time charged to the innermost span covering it, and the
/// rows sum to the reported latency to the picosecond (checked here).
fn print_attribution(rec: &SpanRecorder, walk: &hswx_engine::WalkRecord) {
    let attr = rec.attribution(walk);
    let total_ns = attr.total.as_ns();
    println!("\nlatency attribution:");
    println!("  {:<24} {:<10} {:>10}  {:>6}", "component", "category", "ns", "share");
    for row in &attr.rows {
        println!(
            "  {:<24} {:<10} {:>10.3}  {:>5.1}%",
            row.name,
            row.cat,
            row.time.as_ns(),
            if total_ns > 0.0 { 100.0 * row.time.as_ns() / total_ns } else { 0.0 },
        );
    }
    let sum: u64 = attr.rows.iter().map(|r| r.time.0).sum();
    assert_eq!(sum, attr.total.0, "attribution rows must sum to the reported latency");
    println!("  {:<24} {:<10} {:>10.3}  100.0%  (rows sum exactly)", "total", "", total_ns);
}

/// `hswx explain fig7 [SIZE_KIB] [--fwd N] [--home N] [--out FILE]` — trace
/// one read of the paper's Figure 7 scenario and explain where every
/// nanosecond went, naming the HitME/AllocateShared hop behind the
/// anomaly. `--out` also writes the read's trace-event JSON.
fn explain_fig7(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv, &["fwd", "home", "out"], &[], 1)?;
    let size_kib: u64 = match flags.positional.first() {
        Some(s) => s.parse().map_err(|_| format!("bad size (KiB): {s}"))?,
        None => 128,
    };
    let size_kib = in_range("SIZE_KIB", size_kib, 1..=(1 << 30) / 1024)?;
    let nodes = 0..nodes_of(CoherenceMode::ClusterOnDie);
    let fwd = in_range("--fwd", flags.get_parse("fwd", 1u8)?, nodes.clone())?;
    let home = in_range("--home", flags.get_parse("home", 2u8)?, nodes)?;
    let scenario = cod_shared(fwd, home, Level::L3, size_kib * 1024);
    let (p, out, rec) = traced_reads(&scenario, 1 << 14, 1)?;
    let walk = rec.last_walk().ok_or("no walk recorded")?;
    if let Some(path) = flags.map_get("out") {
        write_trace_json(&rec, std::path::Path::new(path))?;
    }

    println!(
        "Figure 7 point: {size_kib} KiB shared data, forward copy on node {fwd}, \
         home node {home},"
    );
    println!("read by core {} (node 0) under cluster-on-die.\n", p.measurer.0);
    println!("reported latency: {:.3} ns, data from {:?}\n", out.latency_ns(p.t), out.source);
    print!("{}", rec.waterfall(&walk));
    print_attribution(&rec, &walk);

    let tree = rec.tree(&walk);
    let hitme_hit = tree
        .iter()
        .find(|s| s.name == "hitme_lookup")
        .filter(|s| s.detail.as_deref().is_some_and(|d| d.starts_with("hit")));
    println!();
    if let Some(s) = hitme_hit {
        println!("why memory answers a cache-resident line (the Fig. 7 anomaly):");
        println!("  The `hitme_lookup` hop above hit the HitME directory cache in");
        println!("  shared-clean state ({}). That entry was installed by the", s.detail.as_deref().unwrap_or(""));
        println!("  home agent's AllocateShared policy when placement first pulled the");
        println!("  line across the socket boundary. A shared-clean HitME hit lets the");
        println!("  home agent reply straight from its local DRAM — no snoop broadcast,");
        println!("  no remote-L3 forward — so the load is charged to REMOTE_DRAM even");
        println!("  though node {fwd}'s L3 still holds the line in Forward state. Once");
        println!("  the working set outgrows the 14 KiB HitME capacity, the entry is");
        println!("  evicted, the in-memory directory forces a broadcast, and the remote");
        println!("  L3 forwards the data instead.");
    } else {
        let dir = tree.iter().find(|s| s.name == "dir_read").and_then(|s| s.detail.clone());
        println!("no HitME hit on this walk: at {size_kib} KiB the line's HitME entry has");
        println!("been evicted (14 KiB capacity), so the in-memory directory ({})", dir.unwrap_or_else(|| "?".into()));
        println!("drives a snoop broadcast and the remote L3 forwards the data — the");
        println!("post-anomaly regime of Figure 7. Retry a smaller size (e.g. 32) to");
        println!("see the AllocateShared hop.");
    }
    Ok(())
}

/// `hswx explain diff A B` — compare two runs' exports and localize the
/// regression to named hardware components (see `hswx_bench::diffcmp`).
/// `A`/`B` are metrics JSON files, or run directories holding
/// `metrics.json` (and optionally `telemetry.csv`, which is then diffed
/// too); `--telemetry-a/-b` point at explicit telemetry CSVs.
fn explain_diff(argv: &[String]) -> Result<(), String> {
    use hswx_bench::diffcmp;
    let flags = Flags::parse(argv, &["telemetry-a", "telemetry-b"], &[], 2)?;
    let [a, b] = flags.positional.as_slice() else {
        return Err("explain diff needs exactly two run paths (files or directories)".into());
    };
    // One run's inputs: parsed counters + optional telemetry totals.
    type LoadedRun = (hswx_engine::metrics::MetricsExport, Option<Vec<(String, u64)>>);
    let load = |arg: &str, telemetry_flag: Option<&str>| -> Result<LoadedRun, String> {
        let path = std::path::Path::new(arg);
        let metrics_path =
            if path.is_dir() { path.join("metrics.json") } else { path.to_path_buf() };
        let text = std::fs::read_to_string(&metrics_path)
            .map_err(|e| format!("{}: {e}", metrics_path.display()))?;
        let export = hswx_engine::metrics::MetricsExport::parse(&text)
            .map_err(|e| format!("{}: {e}", metrics_path.display()))?;
        let telemetry_path = match telemetry_flag {
            Some(p) => Some(std::path::PathBuf::from(p)),
            None if path.is_dir() => {
                Some(path.join("telemetry.csv")).filter(|p| p.exists())
            }
            None => None,
        };
        let telemetry = telemetry_path
            .map(|p| {
                let text =
                    std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
                diffcmp::parse_telemetry_totals(&text).map_err(|e| format!("{}: {e}", p.display()))
            })
            .transpose()?;
        Ok((export, telemetry))
    };
    let (ea, ta) = load(a, flags.map_get("telemetry-a"))?;
    let (eb, tb) = load(b, flags.map_get("telemetry-b"))?;
    println!("run A: {a}\nrun B: {b}\n");
    print!("{}", diffcmp::render_table("protocol counters", &diffcmp::rank_metrics(&ea, &eb)));
    if let (Some(ta), Some(tb)) = (ta, tb) {
        println!();
        print!(
            "{}",
            diffcmp::render_table("telemetry channels", &diffcmp::rank_deltas(&ta, &tb))
        );
    }
    Ok(())
}

/// `hswx explain` — run one placed-state access with the protocol
/// transcript armed and print the steps in order. The `fig7` form
/// instead traces the Figure 7 anomaly point (see [`explain_fig7`]); the
/// `diff` form compares two runs' exports (see [`explain_diff`]).
pub fn explain(argv: &[String]) -> Result<(), String> {
    match argv.first().map(String::as_str) {
        Some("fig7") => return explain_fig7(&argv[1..]),
        Some("diff") => return explain_diff(&argv[1..]),
        Some(form) if !form.starts_with("--") => {
            return Err(format!("unknown explain form {form} (fig7|diff, or latency flags)"));
        }
        _ => {}
    }
    let flags = Flags::parse(argv, SCENARIO_FLAGS, &[], 0)?;
    let scenario = LatencyScenario { size: Some(4096), ..scenario_of(&flags)? };
    let PreparedScenario { mut sys, lines, t, measurer } = scenario.prepare();
    sys.trace_next();
    let out = sys.read(measurer, lines[0], t);
    let steps = sys.take_trace();
    let LatencyScenario { state, level, home, .. } = scenario;
    println!(
        "read of a {state:?}-state line at {level:?} (home {home}) by core {}:",
        measurer.0
    );
    println!("  completed in {:.1} ns, data from {:?}\n", out.latency_ns(t), out.source);
    for (i, (at, step)) in steps.iter().enumerate() {
        println!(
            "  {:>2}. [{:>6.1} ns] {}",
            i + 1,
            at.since(t).as_ns(),
            describe(step)
        );
    }
    Ok(())
}

fn describe(step: &hswx_haswell::ProtoStep) -> String {
    use hswx_haswell::ProtoStep::*;
    match step {
        PrivateHit { level } => format!("hit in the core's own L{level}"),
        ForwardReclaim => "Shared-state hit: notify the CA to reclaim the Forward state".into(),
        CaLookup { slice, hit } => format!(
            "caching agent {slice} tag lookup: {}",
            if *hit { "hit" } else { "miss -> node-level transaction" }
        ),
        LocalCoreProbe { target, forwarded } => format!(
            "probe local core {} ({})",
            target.0,
            if *forwarded { "it forwards dirty data" } else { "miss/clean: L3 supplies data" }
        ),
        SnoopPeer { node } => format!("snoop {node}'s caching agent"),
        PeerCoreProbe { node, target, forwarded } => format!(
            "{node} probes its core {} ({})",
            target.0,
            if *forwarded { "forwards dirty data" } else { "clean" }
        ),
        PeerForward { node, from_core } => format!(
            "{node} forwards the line from its {}",
            if *from_core { "core cache" } else { "L3" }
        ),
        HomeRequest { ha } => format!("request reaches home agent {ha}"),
        HitMeLookup { hit: true, clean } => format!(
            "HitME directory cache hit (shared-clean: {})",
            clean.unwrap_or(false)
        ),
        HitMeLookup { hit: false, .. } => {
            "HitME directory cache miss -> wait for the in-memory directory".into()
        }
        DirectoryRead { state } => format!("in-memory directory read: {state:?}"),
        MemoryReply => "home memory supplies the data".into(),
    }
}

/// `hswx faultcheck` — run the seeded fault-injection campaign and print
/// the detection-coverage matrix. Exits nonzero on any detection gap.
pub fn faultcheck(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv, &["seed", "trials", "json"], &[], 0)?;
    let default = FaultPlan::default();
    let plan = FaultPlan {
        seed: flags.get_parse("seed", default.seed)?,
        trials: flags.get_parse("trials", default.trials)?,
        ..default
    };
    if plan.trials == 0 {
        return Err("--trials must be at least 1".into());
    }
    let report = run_campaign(&plan);
    print!("{report}");
    if let Some(path) = flags.map_get("json") {
        hswx_engine::atomic_write(std::path::Path::new(path), report.to_json().as_bytes(), false)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if report.all_detected() {
        Ok(())
    } else {
        Err("fault-injection campaign found detection gaps (matrix above)".into())
    }
}

/// `hswx campaign` — run the registered figure/table jobs under the
/// supervised campaign runtime (each job once, panic isolation,
/// crash-safe journal). See `hswx_bench::supervisor`.
pub fn campaign(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        argv,
        &["out", "journal", "telemetry", "jobs", "metrics-json"],
        &["resume", "fsync"],
        0,
    )?;
    if flags.has("resume") && flags.map_get("telemetry").is_some() {
        return Err("--resume cannot be combined with --telemetry: the journal keeps \
                    per-job telemetry totals, not series, so a resumed run cannot \
                    export the complete series"
            .into());
    }
    let out_dir = flags.get("out", "results").to_string();
    let telemetry_base = flags.map_get("telemetry").map(str::to_string);
    let cfg = hswx_bench::SupervisorConfig {
        out_dir: out_dir.clone().into(),
        journal: flags
            .map_get("journal")
            .map(Into::into)
            .unwrap_or_else(|| std::path::Path::new(&out_dir).join("campaign.journal")),
        resume: flags.has("resume"),
        fsync: flags.has("fsync"),
        telemetry: telemetry_base.is_some(),
    };

    let registry = hswx_bench::jobs::registry();
    let jobs = match flags.map_get("jobs") {
        Some(list) => {
            let ids: Vec<&str> = list.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
            if ids.is_empty() {
                return Err("--jobs needs at least one job id".into());
            }
            hswx_bench::select_jobs(&registry, &ids)?
        }
        None => registry,
    };

    let summary = hswx_bench::Supervisor::new(cfg).run(&jobs)?;
    print!("{summary}");

    // Export campaign-total protocol counters (summed over completed
    // jobs, resumed ones included) in the metrics-registry JSON schema.
    if let Some(path) = flags.map_get("metrics-json") {
        let reg = hswx_engine::MetricsRegistry::new();
        for (name, v) in summary.metrics_totals() {
            reg.counter(&name).fetch_add(v, std::sync::atomic::Ordering::Relaxed);
        }
        hswx_engine::atomic_write(std::path::Path::new(path), reg.to_json().as_bytes(), false)
            .map_err(|e| format!("{path}: {e}"))?;
        println!("metrics exported to {path}");
    }

    // Export the merged simulated-time telemetry profile as CSV and
    // OpenMetrics. A run in which no job sampled anything still writes
    // structurally valid, channel-free files.
    if let Some(base) = telemetry_base {
        let merged = summary.telemetry_merged().unwrap_or_else(|| {
            hswx_engine::TelemetrySampler::new(hswx_engine::TelemetryConfig::default())
        });
        for (ext, body) in [("csv", merged.to_csv()), ("om", merged.to_openmetrics())] {
            let path = format!("{base}.{ext}");
            hswx_engine::atomic_write(std::path::Path::new(&path), body.as_bytes(), false)
                .map_err(|e| format!("{path}: {e}"))?;
        }
        println!("telemetry exported to {base}.csv and {base}.om");
    }

    // One trace artifact per campaign run: a span tree of the Figure 7
    // anomaly point, so every CI campaign uploads an openable trace.
    let trace_path = std::path::Path::new(&out_dir).join("campaign_trace.json");
    write_campaign_trace(&trace_path)?;
    println!("trace artifact: {}", trace_path.display());

    if summary.ok() {
        Ok(())
    } else {
        Err("campaign completed with failures (summary above)".into())
    }
}

/// Record the Figure 7 anomaly point (128 KiB, F=1, H=2) as a validated
/// Chrome trace-event JSON artifact at `path`.
fn write_campaign_trace(path: &std::path::Path) -> Result<(), String> {
    let (_, _, rec) = traced_reads(&cod_shared(1, 2, Level::L3, 128 * 1024), 1 << 14, 4)?;
    write_trace_json(&rec, path)
}
