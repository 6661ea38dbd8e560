//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Exit codes: 0 for a correct run, 2 for a rejected command line
//! (nothing written), 3 for a run whose checks failed or whose metrics
//! are incomplete (the result line says `"correct": false`), 4 when the
//! record cannot be written.

use perfbench::cli::{parse, USAGE};
use perfbench::workloads::Size;
use perfbench::{out_dir, run, write_atomic, Scratch};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: error: cannot create scratch directory: {e}");
            return ExitCode::from(4);
        }
    };
    let outcome = run::run(&args, Size::Standard, started, scratch.path(), false);
    drop(scratch);
    let name = format!(
        "{}-seed{}-trace{}.txt",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = write_atomic(&out_dir().join(name), &outcome.record) {
        eprintln!("perfbench: error: cannot write the run record: {e}");
        return ExitCode::from(4);
    }
    print!("{}", outcome.record);
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}
