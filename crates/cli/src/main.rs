//! The `ceps` binary — see `ceps help`.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match ceps_cli::parse(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            ceps_obs::error!("error: {e}");
            eprintln!("{}", ceps_cli::args::USAGE);
            return ExitCode::FAILURE;
        }
    };
    let written = ceps_cli::commands::execute(cmd)
        .map_err(|e| e.to_string())
        .and_then(|text| write_stdout(&text).map_err(|e| format!("cannot write output: {e}")));
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            ceps_obs::error!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes the command's output. A reader that closed the pipe early (as
/// `ceps ... | head` does) wanted no more of it, so that is not an error.
fn write_stdout(text: &str) -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}
