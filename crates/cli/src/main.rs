//! `hswx` — command-line front end for the simulator. The subcommands
//! and their flags are listed in [`cmds::USAGE`], which `hswx help` prints.

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
