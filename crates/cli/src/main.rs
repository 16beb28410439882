//! `hswx` — command-line front end for the simulator.
//!
//! ```text
//! hswx info      [--mode MODE]
//! hswx latency   [--mode MODE] [--state M|E|S] [--level l1|l2|l3|mem]
//!                [--placer CORE[,CORE…]] [--measurer CORE] [--home NODE]
//!                [--size BYTES]
//! hswx bandwidth [same flags] [--width avx|sse] [--write|--write-nt]
//! hswx trace     [latency flags] [--accesses N] [--out FILE]
//! hswx explain   [latency flags] | explain fig7 [SIZE_KIB] [--fwd N] [--home N]
//!                | explain diff A B
//! hswx faultcheck [--quick] [--json FILE]
//! hswx campaign  [--out DIR] [--resume] [--jobs a,b,..]
//! hswx perfbench [--quick] [--baseline FILE] [--write-baseline]
//!                [--check-history] [--history FILE]
//! ```
//!
//! `MODE` is `source` (default), `home`, or `cod`.

mod args;
mod cmds;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", cmds::USAGE);
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "info" => cmds::info(rest),
        "latency" => cmds::latency(rest),
        "bandwidth" => cmds::bandwidth(rest),
        "trace" => cmds::trace(rest),
        "explain" => cmds::explain(rest),
        "faultcheck" => cmds::faultcheck(rest),
        "campaign" => cmds::campaign(rest),
        "perfbench" => cmds::perfbench(rest),
        "help" | "--help" | "-h" => {
            println!("{}", cmds::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", cmds::USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
