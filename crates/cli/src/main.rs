//! `real` — the command-line interface of `real-rs`.
//!
//! ```sh
//! real plan --nodes 2 --actor 7b --batch 512 --out plan.json
//! real run  --nodes 2 --actor 7b --batch 512 --plan plan.json --iters 5
//! real baselines --nodes 2 --batch 512
//! real models
//! ```

mod args;
mod commands;

use args::Args;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::USAGE);
            return ExitCode::FAILURE;
        }
    };
    match commands::dispatch(&args) {
        Ok(out) => {
            // A reader that stopped early (`real models | head -1`) is not
            // an error: exit quietly instead of panicking in `println!`.
            let mut stdout = std::io::stdout().lock();
            match writeln!(stdout, "{out}").and_then(|()| stdout.flush()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
