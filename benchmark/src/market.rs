//! The `market_settle` workload and its traced drive.
//!
//! One `run_market` over 8 shards of 120,000 pooled accounts each with
//! instant finality. The dense ledgers are far larger than cache; rounds
//! exercise contract dispatch with gas metering, the fork-join round and
//! the outbox merge, and set-up mints about 1.9M balances.

use std::time::{Duration, Instant};

use chainsim::TraceMode;
use marketsim::market::deals::{self, Deal};
use marketsim::market::driver::MarketRun;
use marketsim::market::metering;
use marketsim::market::shard::Shard;
use marketsim::market::{run_market, MarketConfig, MarketReport};
use marketsim::PricePath;

use crate::spans::{planted, Layer, Plant, SpanLog};
use crate::stats::{secs, Dist, Metrics};

/// The workload's market: `workers` and the seed vary, nothing else.
pub fn config(seed: u64, workers: usize) -> MarketConfig {
    MarketConfig {
        seed,
        shards: 8,
        accounts: 120_000,
        deals: 60_000,
        deals_per_round: 500,
        delta_blocks: 2,
        workers: workers as u32,
        trace: TraceMode::Off,
        gas_price: 3,
        endowment: 1_000_000_000,
        walkaway_percent: 10,
        reorg_interval: 0,
        reorg_depth: 0,
    }
}

/// A small market for the planted-delay check.
pub fn probe_config() -> MarketConfig {
    MarketConfig { accounts: 2_000, deals: 600, deals_per_round: 20, ..config(7, 1) }
}

/// The price path and deal list, exactly as `run_market` draws them.
fn generate(cfg: &MarketConfig) -> Vec<Vec<Deal>> {
    let path = PricePath::gbm(100.0, 0.0, 0.6, 1.0 / 365.0, cfg.rounds() as usize, cfg.seed);
    deals::split_by_home(deals::generate(cfg, &path), cfg.shards)
}

/// Builds the shards and assigns their home deals, as `run_market` does.
fn build_shards(cfg: &MarketConfig, per_shard: Vec<Vec<Deal>>) -> Vec<Shard> {
    let contract_estimate = 2 * cfg.deals as usize;
    (0..cfg.shards)
        .zip(per_shard)
        .map(|(id, deals)| {
            let mut shard = Shard::new(id, cfg, contract_estimate);
            shard.assign_deals(deals);
            shard
        })
        .collect()
}

/// Failures in a report: deals not cleanly settled plus failed calls.
pub fn failures(report: &MarketReport) -> u64 {
    u64::from(report.deals - report.settled) + report.failed_calls
}

/// Problems with a report: anything but every deal settled, no violation
/// and no failed call.
pub fn problems(report: &MarketReport) -> Vec<String> {
    let mut problems = Vec::new();
    if report.settled != report.deals {
        problems.push(format!("settled {} of {} deals", report.settled, report.deals));
    }
    if report.failed_calls != 0 {
        problems.push(format!("{} failed calls", report.failed_calls));
    }
    if report.violations != 0 {
        problems.push(format!("{} violations: {:?}", report.violations, report.violation_details));
    }
    problems
}

/// One untraced iteration.
#[derive(Debug)]
pub struct Iteration {
    /// Price path, deal generation, splitting and shard build.
    pub setup: Duration,
    /// The whole `run_market` call plus the checks.
    pub wall: Duration,
    pub run: MarketRun,
    pub problems: Vec<String>,
}

/// Times the set-up through its public calls, drops it, then times one
/// complete `run_market` and checks its report.
pub fn iterate(cfg: &MarketConfig) -> Iteration {
    let start = Instant::now();
    let shards = build_shards(cfg, generate(cfg));
    let setup = start.elapsed();
    drop(shards);
    let start = Instant::now();
    let run = run_market(cfg);
    let problems = problems(&run.report);
    Iteration { setup, wall: start.elapsed(), run, problems }
}

/// What the serial traced drive measured.
#[derive(Debug, Default)]
pub struct Drive {
    pub gen: Duration,
    pub build: Duration,
    pub steps_us: Vec<f64>,
    pub rounds_ms: Vec<f64>,
    pub merge: Duration,
    pub msgs: u64,
    pub meter: Duration,
    pub teardown: Duration,
    pub wall: Duration,
    /// Per shard: `(gas, calls, failed calls)`.
    pub shards: Vec<(u64, u64, u64)>,
    pub problems: Vec<String>,
}

/// Drives one market serially through the public shard API, with a span
/// around each call into `marketsim` and the metering pass.
pub fn drive(cfg: &MarketConfig, log: &mut SpanLog, plant: Option<Plant>) -> Drive {
    let mut out = Drive::default();
    let start = Instant::now();
    let span = log.open(Layer::Marketsim, "price path + deals::generate + split_by_home");
    let per_shard = generate(cfg);
    out.gen = log.close(span, 1);
    let span = log.open(Layer::Marketsim, "Shard::new + assign_deals");
    let mut shards = build_shards(cfg, per_shard);
    out.build = log.close(span, u64::from(cfg.shards));

    let execute = log.open(Layer::Bench, "rounds");
    for round in 0..cfg.rounds() {
        let round_span = log.open(Layer::Bench, format!("round {round}"));
        for shard in &mut shards {
            let step = Instant::now();
            shard.run_round(round);
            planted(plant, Layer::Marketsim);
            let end = Instant::now();
            out.steps_us.push((end - step).as_secs_f64() * 1e6);
            log.record(Layer::Marketsim, format!("shard {} run_round", shard.id()), step, end, 1);
        }
        let merge = log.open(Layer::Marketsim, "merge outboxes");
        let mut msgs = 0u64;
        for source in 0..shards.len() {
            for envelope in shards[source].take_outbox() {
                shards[envelope.target as usize].push_inbox(envelope.msg);
                msgs += 1;
            }
        }
        out.merge += log.close(merge, msgs);
        out.msgs += msgs;
        out.rounds_ms.push(log.close(round_span, 1).as_secs_f64() * 1e3);
    }
    log.close(execute, u64::from(cfg.rounds()));

    let span = log.open(Layer::Marketsim, "metering::meter_shard + conservation_violations");
    for shard in &shards {
        let m = metering::meter_shard(shard, cfg.endowment, cfg.gas_price);
        out.problems.extend(metering::conservation_violations(&m, shard.minted_per_asset()));
        out.shards.push((m.gas, m.calls, m.failed_calls));
    }
    out.meter = log.close(span, u64::from(cfg.shards));
    let span = log.open(Layer::Marketsim, "drop shards");
    drop(shards);
    out.teardown = log.close(span, u64::from(cfg.shards));
    out.wall = start.elapsed();
    out
}

/// The traced market drive: the untraced runs it is checked against, the
/// serial traced drive, and the `marketsim.*` and `chainsim` count metrics.
#[derive(Debug)]
pub struct Traced {
    /// Untraced `run_market` at one worker, the overhead baseline.
    pub serial_wall: Duration,
    /// The serial traced drive's wall time.
    pub traced_wall: Duration,
    pub deals: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

pub fn traced(seed: u64, workers: usize, log: &mut SpanLog, metrics: &mut Metrics) -> Traced {
    let cfg = config(seed, workers);
    let drive_span = log.open(Layer::Bench, "drive market_settle");
    let parallel = log.span(Layer::Marketsim, "run_market (nproc workers)", |_| iterate(&cfg));
    let serial_cfg = MarketConfig { workers: 1, ..cfg.clone() };
    let start = Instant::now();
    let serial = log.span(Layer::Marketsim, "run_market (1 worker)", |_| run_market(&serial_cfg));
    let serial_wall = start.elapsed();
    let traced = log.span(Layer::Bench, "serial traced drive", |log| drive(&cfg, log, None));
    log.close(drive_span, 1);

    let report = &parallel.run.report;
    let mut problems = parallel.problems.clone();
    problems.extend(traced.problems.iter().cloned());
    if serial.report.digest() != report.digest()
        || serial.report.canonical_string() != report.canonical_string()
    {
        problems.push(format!(
            "report digest {} at 1 worker differs from {} at {workers} workers",
            serial.report.digest(),
            report.digest()
        ));
    }
    let summaries: Vec<(u64, u64, u64)> =
        report.shard_summaries.iter().map(|s| (s.gas, s.calls, s.failed_calls)).collect();
    if summaries != traced.shards {
        problems.push(format!(
            "traced per-shard (gas, calls, failed) {:?} differ from the report's {summaries:?}",
            traced.shards
        ));
    }

    let execute = parallel.run.execute;
    let busy: f64 = traced.steps_us.iter().sum::<f64>() / 1e6;
    let attributed = traced.gen + traced.build + execute + traced.meter + traced.teardown;
    metrics.put("marketsim.gen_s", secs(traced.gen), "s");
    metrics.put("marketsim.shard_build_s", secs(traced.build), "s");
    metrics.put_dist("marketsim.round_ms", Dist::of(traced.rounds_ms.clone()), "ms");
    metrics.put_dist("marketsim.shard_step_us", Dist::of(traced.steps_us.clone()), "us");
    metrics.put("marketsim.merge_ms", secs(traced.merge) * 1e3, "ms");
    metrics.put("marketsim.msgs", traced.msgs as f64, "count");
    metrics.put("marketsim.execute_s", secs(execute), "s");
    metrics.put("marketsim.parallel_efficiency", busy / (workers as f64 * secs(execute)), "ratio");
    metrics.put("marketsim.meter_s", secs(traced.meter), "s");
    metrics.put("marketsim.teardown_s", secs(traced.teardown), "s");
    metrics.put("marketsim.unattributed_s", secs(parallel.wall) - secs(attributed), "s");
    metrics.put("marketsim.settle_p50_rounds", f64::from(report.latency_p50_rounds), "rounds");
    metrics.put("marketsim.settle_p99_rounds", f64::from(report.latency_p99_rounds), "rounds");
    metrics.put("chainsim.calls", report.calls as f64, "count");
    metrics.put("chainsim.failed_calls", report.failed_calls as f64, "count");
    metrics.put("chainsim.gas", report.gas_total as f64, "count");
    Traced {
        serial_wall,
        traced_wall: traced.wall,
        deals: u64::from(report.deals),
        failed: failures(report),
        problems,
    }
}

/// The median shard step of a small serial drive, for the planted-delay
/// check.
pub fn probe_shard_step_us(plant: Option<Plant>) -> f64 {
    let mut log = SpanLog::new();
    Dist::of(drive(&probe_config(), &mut log, plant).steps_us).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_drive_matches_run_market() {
        let cfg = probe_config();
        let run = run_market(&cfg);
        assert!(problems(&run.report).is_empty(), "{:?}", problems(&run.report));
        let drive = drive(&cfg, &mut SpanLog::new(), None);
        assert!(drive.problems.is_empty(), "{:?}", drive.problems);
        let summaries: Vec<(u64, u64, u64)> =
            run.report.shard_summaries.iter().map(|s| (s.gas, s.calls, s.failed_calls)).collect();
        assert_eq!(drive.shards, summaries);
        assert_eq!(drive.steps_us.len(), (cfg.rounds() * cfg.shards) as usize);
    }
}
