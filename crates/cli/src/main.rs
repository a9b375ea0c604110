use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = knnshap_cli::run(argv);
    // `KNNSHAP_METRICS=PATH`: append one final counter snapshot for the
    // whole invocation (JSONL, one line per dump) and drain any buffered
    // log events before the process exits.
    if let Some(path) = knnshap_obs::metrics_path() {
        knnshap_obs::dump_metrics(&path).ok();
    }
    knnshap_obs::flush();
    match result {
        Ok(report) => {
            let mut stdout = std::io::stdout().lock();
            match writeln!(stdout, "{report}").and_then(|()| stdout.flush()) {
                // A reader that closed the pipe early (`| head`) has all it
                // wanted: no message, no panic.
                Ok(()) => ExitCode::SUCCESS,
                Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: writing the report: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            // The full usage text only helps when the command line itself
            // was wrong; operational failures (timeouts, IO, daemon errors)
            // get the one-line message alone.
            match e {
                knnshap_cli::CliError::Args(_) | knnshap_cli::CliError::UnknownCommand(_) => {
                    eprintln!("error: {e}\n\n{}", knnshap_cli::USAGE)
                }
                _ => eprintln!("error: {e}"),
            }
            ExitCode::FAILURE
        }
    }
}
