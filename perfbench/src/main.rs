//! The NPTSN benchmark: one command, three seeded workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload makes the layers a change is likely to optimise do most
//! of its work: `train-orion20` the PPO update (rl, tensor, nn),
//! `rollout-orion40` the environment, analyzer and SOAG (core, sched), and
//! `fleet-verify-infer` the routed HTTP fleet (serve, router, store). With
//! `--trace 0` a run measures the end-to-end metrics; with `--trace 1` it
//! measures the per-layer ones by timing calls into public functions and
//! draining the spans the program already records. Every run checks the
//! program's outputs and prints, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Run it from the root of
//! the repository; it reads and writes nothing outside it.

mod fleet;
mod inputs;
mod layers;
mod report;
mod rollout;
mod train;

use std::time::{Duration, Instant};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["train-orion20", "rollout-orion40", "fleet-verify-infer"];

/// Setup is repeated at least this often, and until [`SETUP_TIME`] has
/// passed; `setup_s` takes the median repetition.
const SETUPS: usize = 3;
const SETUP_TIME: Duration = Duration::from_millis(300);

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    /// The workload's name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(Duration::from_secs(number()?.max(1))),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Runs `setup` repeatedly (see [`SETUPS`]) and keeps the last result.
/// The set-up time is the time from process start to the first repetition
/// plus the median repetition, so one slow repetition does not move it.
pub fn repeated_setup<T>(started: Instant, mut setup: impl FnMut() -> T) -> (T, f64) {
    let before = started.elapsed().as_secs_f64();
    let first = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUPS || first.elapsed() < SETUP_TIME {
        let t = Instant::now();
        let value = setup();
        times.push(t.elapsed().as_secs_f64());
        // The previous repetition is torn down outside the clock.
        last = Some(value);
    }
    (
        last.expect("at least one setup"),
        before + report::median(&times),
    )
}

fn main() {
    let started = Instant::now();
    // A fleet shard is this same binary, re-executed.
    nptsn_bench::fleet::maybe_run_shard_child();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "train-orion20" => train::run(&args, started),
        "rollout-orion40" => rollout::run(&args, started),
        _ => fleet::run(&args, started),
    };
    println!(
        "{}",
        report::provenance(
            &args.workload,
            args.seed,
            args.seconds.as_secs(),
            args.trace
        )
    );
    let table = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    match report::result_line(&outcome, table) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_unknown_ones_are_refused() {
        let a = args(&[
            "--workload",
            "train-orion20",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (3, Duration::from_secs(5), true)
        );
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "train-orion20",
            "--seed",
            "x",
            "--seconds",
            "1"
        ])
        .is_err());
        assert!(args(&["--workload", "train-orion20", "--seconds", "1"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }
}
