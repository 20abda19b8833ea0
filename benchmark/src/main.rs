//! The repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <mc_exhaustive|mc_sampled|market_settle> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) repeats the workload for `--seconds`
//! seconds after one warm-up iteration, checks every iteration's outputs,
//! and reports the end-to-end metrics as medians over iterations. A traced
//! run (`--trace 1`) runs the traced drive of every workload once, the
//! isolated layer probes and the planted-delay attribution check, then
//! repeats untraced/traced pairs of the chosen workload until `--seconds`
//! have passed to measure the tracing overhead. It writes its spans to
//! `benchmark/out/`. The last line of standard output is the JSON result.

mod market;
mod probes;
mod spans;
mod stats;
mod sweeps;

use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::{Layer, SpanLog};
use stats::{median, secs, Metrics, Outcome};
use sweeps::Sweep;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    McExhaustive,
    McSampled,
    MarketSettle,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "mc_exhaustive" => Some(Workload::McExhaustive),
            "mc_sampled" => Some(Workload::McSampled),
            "market_settle" => Some(Workload::MarketSettle),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::McExhaustive => "mc_exhaustive",
            Workload::McSampled => "mc_sampled",
            Workload::MarketSettle => "market_settle",
        }
    }

    fn sweep(self) -> Option<Sweep> {
        match self {
            Workload::McExhaustive => Some(Sweep::Exhaustive),
            Workload::McSampled => Some(Sweep::Sampled),
            Workload::MarketSettle => None,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Resets the process's peak resident set to its current resident set, so
/// the next [`peak_rss_mb`] reads the peak of what ran in between. Without
/// it one iteration's allocator footprint would carry into every later
/// reading. A kernel without the interface leaves the peak running.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Extra family constructions per sweep iteration, up to a time budget:
/// the sampled families build in microseconds, so one sample per iteration
/// would be noise.
const SETUP_REPEATS: usize = 20;
const SETUP_REPEAT_BUDGET: Duration = Duration::from_millis(100);

/// One measured iteration of any workload.
struct Measured {
    setups: Vec<Duration>,
    wall: Duration,
    /// Peak resident set during the iteration, MiB.
    peak_rss: f64,
    /// Documented profiles (sweeps) or settled deals (market).
    work: f64,
    attempted: u64,
    /// Operations whose outputs fail their checks.
    failed: u64,
    /// Scenarios that show the known margin-1 reorg defect.
    known_defect: u64,
    /// Reproduction keys of the known-defect scenarios.
    keys: Vec<String>,
    problems: Vec<String>,
}

fn measure(workload: Workload, seed: u64, threads: usize) -> Measured {
    reset_peak_rss();
    match workload.sweep() {
        Some(sweep) => {
            let it = sweeps::iterate(sweep, seed, threads);
            let mut setups = vec![it.setup];
            let repeats = Instant::now();
            while setups.len() <= SETUP_REPEATS && repeats.elapsed() < SETUP_REPEAT_BUDGET {
                let start = Instant::now();
                std::hint::black_box(sweeps::families(sweep, seed));
                setups.push(start.elapsed());
            }
            Measured {
                keys: it.checked.keys,
                setups,
                wall: it.wall,
                peak_rss: peak_rss_mb(),
                work: it.checked.strategies as f64,
                attempted: it.checked.runs as u64,
                failed: it.checked.failed as u64,
                known_defect: it.checked.known_defect as u64,
                problems: it.checked.problems,
            }
        }
        None => {
            let it = market::iterate(&market::config(seed, threads));
            let report = &it.run.report;
            Measured {
                keys: Vec::new(),
                setups: vec![it.setup],
                wall: it.wall,
                peak_rss: peak_rss_mb(),
                work: f64::from(report.settled),
                attempted: u64::from(report.deals),
                failed: market::failures(report),
                known_defect: 0,
                problems: it.problems,
            }
        }
    }
}

fn untraced(args: &Args, threads: usize) -> Outcome {
    // The warm-up iteration is checked but not timed.
    let warmup = measure(args.workload, args.seed, threads);
    // The same seed gives the same violations every iteration.
    for key in &warmup.keys {
        println!("violation {key}");
    }
    let mut problems = warmup.problems;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.is_empty() || start.elapsed() < budget {
        let mut run = measure(args.workload, args.seed, threads);
        problems.append(&mut run.problems);
        if run.keys != warmup.keys {
            problems.push(format!("known-defect scenarios changed: {:?}", run.keys));
        }
        runs.push(run);
    }
    for problem in &problems {
        println!("problem: {problem}");
    }
    let walls: Vec<f64> = runs.iter().map(|r| secs(r.wall)).collect();
    let setups: Vec<f64> = runs.iter().flat_map(|r| r.setups.iter().map(|&d| secs(d))).collect();
    let throughputs: Vec<f64> = runs.iter().map(|r| r.work / secs(r.wall)).collect();
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let mut metrics = Metrics::default();
    metrics.put("wall_s", median(&walls), "s");
    metrics.put("setup_s", median(&setups), "s");
    metrics.put("throughput_per_s", median(&throughputs), "1/s");
    let peaks: Vec<f64> = runs.iter().map(|r| r.peak_rss).collect();
    metrics.put("peak_rss_mb", median(&peaks), "MiB");

    let per_wall = |count: u64| median(&walls).recip() * count as f64 / runs.len() as f64;
    match args.workload {
        Workload::MarketSettle => {
            println!("info deals_per_s = {:.1} 1/s", median(&throughputs));
        }
        _ => {
            println!("info scenarios_per_s = {:.1} 1/s", per_wall(attempted));
            println!("info profiles_per_s = {:.1} 1/s", median(&throughputs));
        }
    }
    println!(
        "info fail_ratio = {:.3e} ({failed} of {attempted})",
        failed as f64 / attempted as f64
    );
    if args.workload == Workload::McSampled {
        println!(
            "info known_defect = {} of {} scenarios per iteration",
            warmup.known_defect, warmup.attempted
        );
    }
    let rounded: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("info iteration wall_s = [{}]", rounded.join(", "));
    Outcome { correct: problems.is_empty(), attempted, failed, metrics }
}

/// One wall time of `workload` for the tracing-overhead ratio. For the
/// market the untraced side is `run_market` at one worker and the traced
/// side the serial traced drive.
fn overhead_side(workload: Workload, seed: u64, threads: usize, traced: bool) -> f64 {
    let mut log = SpanLog::new();
    match (workload.sweep(), traced) {
        (Some(sweep), false) => secs(sweeps::iterate(sweep, seed, threads).wall),
        (Some(sweep), true) => {
            secs(sweeps::traced(sweep, seed, threads, &mut log, &mut Metrics::default()).wall)
        }
        (None, false) => {
            let start = Instant::now();
            std::hint::black_box(marketsim::market::run_market(&market::config(seed, 1)));
            secs(start.elapsed())
        }
        (None, true) => secs(market::drive(&market::config(seed, threads), &mut log, None).wall),
    }
}

fn traced(args: &Args, threads: usize) -> Outcome {
    let mut log = SpanLog::new();
    let mut metrics = Metrics::default();
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // (untraced, traced) wall times of the chosen workload.
    let mut pairs: Vec<(f64, f64)> = Vec::new();

    for sweep in [Sweep::Exhaustive, Sweep::Sampled] {
        let untraced = log.span(Layer::Modelcheck, "untraced sweep", |_| {
            sweeps::iterate(sweep, args.seed, threads)
        });
        let traced = sweeps::traced(sweep, args.seed, threads, &mut log, &mut metrics);
        problems.extend(untraced.checked.problems);
        problems.extend(traced.checked.problems.iter().cloned());
        if untraced.checked.keys != traced.checked.keys {
            problems.push(format!("{sweep:?}: traced and untraced violations differ"));
        }
        for key in &traced.checked.keys {
            println!("violation {key}");
        }
        if sweep == Sweep::Sampled {
            println!(
                "info known_defect = {} of {} scenarios",
                traced.checked.known_defect, traced.checked.runs
            );
        }
        attempted += traced.checked.runs as u64;
        failed += traced.checked.failed as u64;
        if args.workload.sweep() == Some(sweep) {
            pairs.push((secs(untraced.wall), secs(traced.wall)));
        }
    }
    let market = market::traced(args.seed, threads, &mut log, &mut metrics);
    problems.extend(market.problems);
    attempted += market.deals;
    failed += market.failed;
    if args.workload == Workload::MarketSettle {
        pairs.push((secs(market.serial_wall), secs(market.traced_wall)));
    }

    problems.extend(probes::run(probes::FULL, None, &mut log, &mut metrics));
    let (planted_min, other_max, attribution) = probes::attribution(&mut log);
    problems.extend(attribution);
    metrics.put("attribution.planted_min_ratio", planted_min, "ratio");
    metrics.put("attribution.other_max_ratio", other_max, "ratio");

    // More overhead pairs of the chosen workload, alternating which side
    // runs first, until the time budget is spent.
    let budget = Duration::from_secs(args.seconds);
    while log.elapsed() < budget {
        let traced_first = pairs.len() % 2 == 1;
        let first = overhead_side(args.workload, args.seed, threads, traced_first);
        let second = overhead_side(args.workload, args.seed, threads, !traced_first);
        pairs.push(if traced_first { (second, first) } else { (first, second) });
    }
    let untraced: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let traced: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    metrics.put("trace_overhead", median(&traced) / median(&untraced), "ratio");
    println!("info overhead pairs = {}", pairs.len());

    let path = format!("benchmark/out/spans-{}-seed{}.json", args.workload.name(), args.seed);
    match std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(&path, log.to_json()))
    {
        Ok(()) => println!("info spans written to {path}"),
        Err(err) => println!("info spans not written ({err})"),
    }
    for (layer, time) in log.self_times() {
        println!("info self_s.{} = {:.4} s", layer.name(), secs(time));
    }
    for problem in &problems {
        println!("problem: {problem}");
    }
    Outcome { correct: problems.is_empty(), attempted, failed, metrics }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("benchmark: {err}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    println!(
        "info workload {} seed {} seconds {} trace {} threads {threads}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace
    );
    let outcome = if args.trace { traced(&args, threads) } else { untraced(&args, threads) };
    for (name, value, unit) in &outcome.metrics.0 {
        println!("metric {name} = {value} {unit}");
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse() {
        let parsed =
            args(&["--workload", "mc_sampled", "--seed", "7", "--seconds", "3", "--trace", "1"])
                .unwrap();
        assert_eq!(parsed.workload, Workload::McSampled);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 3, true));
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "market_settle", "--seed"]).is_err());
    }
}
