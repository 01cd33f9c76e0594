//! End-to-end benchmark of uniform operational CQA, split by layer from
//! outside the library.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <join-bank|window-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread, one client in a closed loop.  With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
//! it reports the per-layer metrics, timed around calls into the public
//! API of `ucqa_db`, `ucqa_query` and `ucqa_core`.  Every answer is
//! checked; the last line of standard output is the result as JSON.

mod bank_requests;
mod replica;
mod report;
mod window_ticks;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    launched: Instant,
}

/// Past this long after launch a run starts no more requests or ticks,
/// even short of its minimum count, so that a program whose queries stall
/// at the stopping cut-off still ends with a result within three minutes.
const DEADLINE: Duration = Duration::from_secs(120);

impl Args {
    /// Whether a run loop that started at `started` and has done `done` of
    /// its at least `min` units should start another.
    pub fn more(&self, started: Instant, done: usize, min: usize) -> bool {
        (started.elapsed() < self.seconds || done < min) && self.launched.elapsed() < DEADLINE
    }
}

/// Whether a run loop that started at `started` and has timed `done`
/// set-ups is due another: one every `every` of the run.  Set-ups are
/// spread over the whole run rather than made back to back, so that
/// their median is taken over the same stretch of machine time as the
/// requests, not over one burst of it.
pub fn setup_due(started: Instant, done: usize, every: Duration) -> bool {
    done as f64 <= started.elapsed().as_secs_f64() / every.as_secs_f64()
}

fn parse_args() -> Result<Args, String> {
    let launched = Instant::now();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
        launched,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "join-bank" => bank_requests::run(&args),
        "window-churn" => window_ticks::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    report.print(&format!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    ));
    // A wrong answer is reported in the result line (`correct`,
    // `failed`), not by the exit code.
    ExitCode::SUCCESS
}
