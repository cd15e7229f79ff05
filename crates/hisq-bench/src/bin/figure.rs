//! `figure` — regenerate one of the paper's figures or tables.
//!
//! ```text
//! figure <name> [flags]
//! ```
//!
//! `name` is one of [`hisq_bench::render::FIGURES`], and each figure
//! takes only the flags that change its output (see
//! [`hisq_bench::cli`]; `docs/FIGURES.md` maps figures to names). A
//! usage error exits 2 with the accepted names or flags, and a failed
//! sweep scenario exits 1. Output stops quietly, with exit 0, when the
//! reader closes stdout (`figure fig15 | head -1`).

use std::io::{self, Write};
use std::process::ExitCode;

use hisq_bench::cli;
use hisq_bench::render::FIGURES;

fn main() -> ExitCode {
    let (figure, args) = match cli::parse(FIGURES, std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(usage) => {
            let _ = writeln!(io::stderr(), "{usage}");
            return ExitCode::from(2);
        }
    };
    let mut out = io::stdout().lock();
    match figure.print(&args, &mut out).and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        // A closed pipe means the reader has what it wanted.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            let _ = writeln!(io::stderr(), "{}: {e}", figure.name);
            ExitCode::FAILURE
        }
    }
}
