//! Command line of the benchmark; see `README.md`.

use hswx_benchmark::json::{self, quote, Json};
use hswx_benchmark::metrics::{end_to_end, per_layer, Metric};
use hswx_benchmark::run::{run, Summary};
use hswx_benchmark::stats::{median, quartiles, spread};
use hswx_benchmark::trace::chrome_json;
use hswx_benchmark::units::Workload;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  hswx-benchmark [run] --workload W [--seed N] [--seconds S] [--trace 0|1] [--trace-out DIR]
  hswx-benchmark all [--seed N] [--seconds S] [--trace 0|1] [--trace-out DIR] [--json FILE]
  hswx-benchmark stability [--runs N] [--seconds S] [--workload W]...
workloads: latency_sweep bandwidth_stream app_proxy paper_anchors";

struct Args {
    cmd: String,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    json: Option<PathBuf>,
    runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        cmd: "run".into(),
        workloads: Vec::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        json: None,
        runs: 5,
    };
    let mut it = argv.iter();
    let mut first = true;
    while let Some(flag) = it.next() {
        if first && !flag.starts_with("--") {
            if !matches!(flag.as_str(), "run" | "all" | "stability") {
                return Err(format!("unknown command {flag:?}"));
            }
            args.cmd = flag.clone();
            first = false;
            continue;
        }
        first = false;
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads
                    .push(Workload::parse(v).ok_or_else(|| bad(v))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--json" => args.json = Some(value()?.into()),
            "--runs" => {
                let v = value()?;
                args.runs = v.parse().ok().filter(|&n| n >= 2).ok_or_else(|| bad(v))?;
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.cmd == "run" && args.workloads.len() != 1 {
        return Err("run takes exactly one --workload".into());
    }
    if args.workloads.is_empty() {
        args.workloads = Workload::ALL.to_vec();
    }
    Ok(args)
}

/// The checkout the benchmark was built in: `results/` and
/// `BENCHMARK.json` are read from there, whatever the working directory.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark crate sits in the repository")
}

fn result_json(s: &Summary, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".into()
            };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                quote(&m.name),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        s.failed == 0,
        s.attempted,
        s.failed,
        body.join(", ")
    )
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    let w = args.workloads[0];
    let s = run(w, args.seed, args.seconds, args.trace, repo_root())?;
    let metrics = if args.trace {
        per_layer(&s)
    } else {
        end_to_end(&s)
    };
    for m in &metrics {
        println!("{} {} {} {}", w.name(), m.name, m.value, m.unit);
    }
    if let Some(msg) = &s.first_failure {
        eprintln!(
            "error: {} of {} units failed; first: {msg}",
            s.failed, s.attempted
        );
    }
    if let (true, Some(dir)) = (args.trace, &args.trace_out) {
        let path = dir.join(format!("{}.trace.json", w.name()));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, chrome_json(&s.lanes)))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("digest {:016x}", s.digest);
    println!("{}", result_json(&s, &metrics));
    Ok(true)
}

/// One run of `w` in a child process: its stdout lines, the last of
/// which is the result, and that result parsed.
fn child(args: &Args, w: Workload, seed: u64, trace: bool) -> Result<(Vec<String>, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", w.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if let Some(dir) = &args.trace_out {
        cmd.arg("--trace-out").arg(dir);
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
    let lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(String::from)
        .collect();
    if !out.status.success() {
        return Err(format!("{} exited with {}", w.name(), out.status));
    }
    let last = lines.last().map_or("", String::as_str);
    let result = json::parse(last).map_err(|e| format!("{}: bad result line: {e}", w.name()))?;
    Ok((lines, result))
}

/// Every workload in a process of its own, one after another.
fn cmd_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut combined = Vec::new();
    for &w in &args.workloads {
        let (lines, result) = child(args, w, args.seed, args.trace)?;
        let (last, rest) = lines.split_last().expect("a parsed result line");
        rest.iter()
            .filter(|l| !l.starts_with("digest"))
            .for_each(|l| println!("{l}"));
        ok &= result.get("correct") == Some(&Json::Bool(true));
        combined.push(format!("  {}: {last}", quote(w.name())));
    }
    if let Some(path) = &args.json {
        std::fs::write(path, format!("{{\n{}\n}}\n", combined.join(",\n")))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(ok)
}

/// Two sets of `runs` runs per workload, alternating which set goes
/// first; seed `i + 1` for the i-th run of both sets. Fails when the sets'
/// medians differ by more than a metric's bound, when a spread exceeds
/// its bound, or when two runs of one seed differ in any simulated
/// counter or output (nondeterminism, not noise).
fn cmd_stability(args: &Args) -> Result<bool, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let bench = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut ok = true;
    for &w in &args.workloads {
        let mut sets: [Vec<(Json, String)>; 2] = [Vec::new(), Vec::new()];
        for i in 0..args.runs {
            for k in if i % 2 == 0 { [0, 1] } else { [1, 0] } {
                let (lines, result) = child(args, w, i as u64 + 1, false)?;
                let digest = lines
                    .iter()
                    .find(|l| l.starts_with("digest"))
                    .cloned()
                    .unwrap_or_default();
                if result.get("correct") != Some(&Json::Bool(true)) {
                    println!("{} seed {}: FAIL incorrect outputs", w.name(), i + 1);
                    ok = false;
                }
                sets[k].push((result, digest));
            }
        }
        for (i, (a, b)) in sets[0].iter().zip(&sets[1]).enumerate() {
            if a.1 != b.1 {
                println!(
                    "{} seed {}: FAIL nondeterminism: {} vs {}",
                    w.name(),
                    i + 1,
                    a.1,
                    b.1
                );
                ok = false;
            }
        }
        for metric in bench.get("end_to_end").map_or(&[][..], Json::arr) {
            let name = metric
                .get("name")
                .and_then(Json::str)
                .ok_or("end_to_end entry without name")?;
            let bound = metric
                .get("bound")
                .and_then(Json::num)
                .ok_or("end_to_end entry without bound")?;
            let values = |set: &[(Json, String)]| -> Vec<f64> {
                set.iter()
                    .filter_map(|(r, _)| r.get("metrics")?.get(name)?.get("value")?.num())
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (Some(ma), Some(mb)) = (median(&a), median(&b)) else {
                println!("{} {name}: FAIL not reported", w.name());
                ok = false;
                continue;
            };
            let diff = (mb - ma) / ma;
            let spreads = [spread(&a).unwrap_or(0.0), spread(&b).unwrap_or(0.0)];
            let worst = spreads[0].max(spreads[1]);
            let verdict = if diff.abs() > bound || (name != "setup_s" && worst > bound) {
                ok = false;
                "FAIL"
            } else if name != "setup_s" && worst > bound / 3.0 {
                "WARN spread above a third of the bound"
            } else {
                "ok"
            };
            let list = |xs: &[f64]| {
                xs.iter()
                    .map(|v| format!("{v:.6}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            println!(
                "{} {name}: A runs {} | B runs {}",
                w.name(),
                list(&a),
                list(&b)
            );
            let q = |xs: &[f64]| quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
            println!(
                "{} {name}: A median {ma:.6} q1 {:.6} q3 {:.6} spread {:.4} | B median {mb:.6} q1 {:.6} q3 {:.6} spread {:.4} | diff {diff:+.4} bound {bound} {verdict}",
                w.name(),
                q(&a).0,
                q(&a).1,
                spreads[0],
                q(&b).0,
                q(&b).1,
                spreads[1],
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.cmd.as_str() {
        "all" => cmd_all(&args),
        "stability" => cmd_stability(&args),
        _ => cmd_run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
