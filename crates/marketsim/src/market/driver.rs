//! The market driver: fork-join round loop, verification and reporting.
//!
//! Each round has two phases. In the parallel phase, workers own disjoint
//! shard chunks (`std::thread::scope`, no locks, no external dependencies)
//! and run every shard one round forward — inbox drain, deal spawns, deal
//! steps, then `advance_delta`. At the barrier, the single-threaded driver
//! merges every shard's outbox into the target inboxes *in shard-id order*,
//! so the messages a shard sees next round are a pure function of the round
//! number — never of worker scheduling. That is the whole determinism
//! argument: reports are byte-identical across worker counts by
//! construction, and the determinism suite checks it.
//!
//! The same fan-out ([`on_workers`]) runs deal generation and the other
//! per-shard phases: building and endowing the shards, and metering them.
//! Teardown runs on the driver thread (see [`run_market`]). So does deal
//! verification: it reads contracts on several shards at once, and a
//! [`Shard`] is not `Sync` because its contracts are `Box<dyn Contract>`,
//! which is only `Send`.

// staticcheck: allow-file(SC301) — the driver times its own phases
// (wall-clock throughput numbers in the market report); timing feeds the
// perf columns only, never simulated outcomes.
use std::time::{Duration, Instant};

use chainsim::ContractAddr;
use contracts::{
    AuctionCoinContract, AuctionOutcome, AuctionTicketContract, HedgedEscrow, HedgedPremiumState,
    HedgedPrincipalState, HtlcEscrow, HtlcState,
};

use super::deals::{self, Deal, DealKind, Expected, HedgedDeviation, LegRef};
use super::metering::{self, ShardMetering};
use super::report::{percentile, MarketReport, SettledByKind, ShardSummary};
use super::shard::Shard;
use super::MarketConfig;
use crate::PricePath;

/// How many violation descriptions the report keeps verbatim.
const MAX_REPORTED_VIOLATIONS: usize = 8;

/// A finished market run: the canonical report plus wall-clock timings
/// (kept outside the report so timing never perturbs determinism checks).
#[derive(Debug)]
pub struct MarketRun {
    /// The canonical settlement report.
    pub report: MarketReport,
    /// Time spent before the first round: the price path, deal generation,
    /// shard builds and endowment minting.
    pub setup: Duration,
    /// Time spent executing rounds (the throughput denominator).
    pub execute: Duration,
}

impl MarketRun {
    /// Settled deals per second of round execution.
    pub fn settled_per_sec(&self) -> f64 {
        per_sec(self.report.settled, self.execute)
    }

    /// Settled deals per second end to end: set-up plus round execution.
    pub fn settled_per_sec_end_to_end(&self) -> f64 {
        per_sec(self.report.settled, self.setup + self.execute)
    }
}

fn per_sec(count: u32, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        f64::from(count) / secs
    } else {
        0.0
    }
}

/// Runs one market to completion.
///
/// The worker count and trace mode in `cfg` affect only wall-clock time;
/// the returned report is byte-identical for any values of either.
pub fn run_market(cfg: &MarketConfig) -> MarketRun {
    cfg.validate();
    let workers = cfg.workers as usize;
    let setup_start = Instant::now();
    let rounds = cfg.rounds();
    // One price sample per round sizes each deal from its start round; the
    // strict accessor turns a mis-computed horizon into an immediate panic.
    let path = PricePath::gbm(100.0, 0.0, 0.6, 1.0 / 365.0, rounds as usize, cfg.seed);
    let all_deals = deals::generate(cfg, &path);
    let contracts = deals::publishes_per_shard(&all_deals, cfg.shards);
    let builds: Vec<_> =
        (0..cfg.shards).zip(deals::split_by_home(all_deals, cfg.shards)).zip(contracts).collect();
    let mut shards = on_workers(builds, workers, |((id, deals), contracts)| {
        let mut shard = Shard::new(id, cfg, contracts);
        shard.assign_deals(deals);
        shard
    });
    let setup = setup_start.elapsed();

    let execute_start = Instant::now();
    for round in 0..rounds {
        on_workers(shards.iter_mut().collect(), workers, |shard| shard.run_round(round));
        deliver_batches(&mut shards);
    }
    let execute = execute_start.elapsed();

    let meterings = on_workers(shards.iter_mut().collect(), workers, |shard| {
        metering::meter_shard(shard, cfg.endowment, cfg.gas_price)
    });
    let report = build_report(cfg, rounds, &shards, &meterings);
    // Teardown is serial on purpose. glibc gives each thread its own malloc
    // arena, and a shard's deals and inbound messages were allocated on
    // other threads, so dropping shards in parallel makes the workers queue
    // on the same arena locks. One thread frees them faster than two.
    drop(shards);
    MarketRun { report, setup, execute }
}

/// Maps `f` over `items` on at most `workers` scoped threads, each owning
/// one contiguous chunk (sizes differ by at most one), and returns the
/// results in item order. The caller's thread runs the first chunk itself,
/// so a single worker spawns no thread at all.
///
/// Every parallel per-shard phase of a run goes through here (build,
/// rounds, metering), and so does deal generation. Results never depend
/// on `workers`: each item is mapped independently and the chunks are
/// concatenated in order.
pub(super) fn on_workers<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let len = items.len();
    let workers = workers.clamp(1, len.max(1));
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }
    let mut items = items.into_iter();
    let mut chunks = (0..workers).map(|w| {
        let size = len / workers + usize::from(w < len % workers);
        items.by_ref().take(size).collect::<Vec<T>>()
    });
    let first = chunks.next().unwrap_or_default();
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(len);
        out.extend(first.into_iter().map(f));
        for handle in handles {
            out.extend(handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        out
    })
}

/// The round barrier: moves every outbox message into its target inbox.
/// Source shards drain in id order and each outbox preserves emission
/// order, so inbox contents are deterministic regardless of which worker
/// ran which shard.
fn deliver_batches(shards: &mut [Shard]) {
    for source in 0..shards.len() {
        for envelope in shards[source].take_outbox() {
            shards[envelope.target as usize].push_inbox(envelope.msg);
        }
    }
}

fn leg_addr(shards: &[Shard], deal: u32, leg: LegRef) -> Result<ContractAddr, String> {
    shards.get(leg.shard as usize).and_then(|s| s.leg_addr(deal, leg.leg)).ok_or_else(|| {
        format!("deal {deal}: leg {} never published on shard {}", leg.leg, leg.shard)
    })
}

fn hedged_leg_state(
    shards: &[Shard],
    deal: u32,
    leg: LegRef,
) -> Result<(HedgedPremiumState, HedgedPrincipalState), String> {
    let addr = leg_addr(shards, deal, leg)?;
    let contract = shards[leg.shard as usize]
        .chain()
        .contract_as::<HedgedEscrow>(addr.contract)
        .ok_or_else(|| format!("deal {deal}: leg {} is not a hedged escrow", leg.leg))?;
    Ok((contract.premium_state(), contract.principal_state()))
}

/// Checks one deal's terminal state; `Err` carries the violation.
fn verify_deal(shards: &[Shard], deal: &Deal) -> Result<(), String> {
    match &deal.expected {
        Expected::Hedged { deviation, legs } => {
            let leader = hedged_leg_state(shards, deal.id, legs[0])?;
            let follower = hedged_leg_state(shards, deal.id, legs[1])?;
            let expect = |name: &str,
                          got: (HedgedPremiumState, HedgedPrincipalState),
                          premium: HedgedPremiumState,
                          principal: HedgedPrincipalState|
             -> Result<(), String> {
                if got != (premium, principal) {
                    return Err(format!(
                        "deal {} ({deviation:?}): {name} leg ended {:?}/{:?}, expected \
                         {premium:?}/{principal:?}",
                        deal.id, got.0, got.1
                    ));
                }
                Ok(())
            };
            match deviation {
                HedgedDeviation::Clean => {
                    expect(
                        "leader",
                        leader,
                        HedgedPremiumState::Refunded,
                        HedgedPrincipalState::Redeemed,
                    )?;
                    expect(
                        "follower",
                        follower,
                        HedgedPremiumState::Refunded,
                        HedgedPrincipalState::Redeemed,
                    )
                }
                HedgedDeviation::FollowerWalks => {
                    // The sore loser's unfunded leg refunds the leader's
                    // premium; the leader's locked leg pays `p_b` out as
                    // compensation — the hedged-theorem payoff.
                    expect(
                        "follower",
                        follower,
                        HedgedPremiumState::Refunded,
                        HedgedPrincipalState::NotEscrowed,
                    )?;
                    expect(
                        "leader",
                        leader,
                        HedgedPremiumState::PaidToEscrower,
                        HedgedPrincipalState::Refunded,
                    )
                }
                HedgedDeviation::LeaderWalks => {
                    expect(
                        "leader",
                        leader,
                        HedgedPremiumState::PaidToEscrower,
                        HedgedPrincipalState::Refunded,
                    )?;
                    expect(
                        "follower",
                        follower,
                        HedgedPremiumState::PaidToEscrower,
                        HedgedPrincipalState::Refunded,
                    )
                }
            }
        }
        Expected::Ring { legs } => {
            for leg in legs {
                let addr = leg_addr(shards, deal.id, *leg)?;
                let state = shards[leg.shard as usize]
                    .chain()
                    .contract_as::<HtlcEscrow>(addr.contract)
                    .ok_or_else(|| format!("deal {}: leg {} is not an HTLC", deal.id, leg.leg))?
                    .state();
                if state != HtlcState::Redeemed {
                    return Err(format!(
                        "deal {}: ring leg {} ended {state:?}, expected Redeemed",
                        deal.id, leg.leg
                    ));
                }
            }
            Ok(())
        }
        Expected::Auction { coin, ticket, winner, winning_bid } => {
            let coin_addr = leg_addr(shards, deal.id, *coin)?;
            let outcome = shards[coin.shard as usize]
                .chain()
                .contract_as::<AuctionCoinContract>(coin_addr.contract)
                .ok_or_else(|| format!("deal {}: coin leg missing", deal.id))?
                .outcome();
            let expected = AuctionOutcome::Completed { winner: *winner, winning_bid: *winning_bid };
            if outcome != Some(expected) {
                return Err(format!(
                    "deal {}: auction ended {outcome:?}, expected {expected:?}",
                    deal.id
                ));
            }
            let ticket_addr = leg_addr(shards, deal.id, *ticket)?;
            let tickets = shards[ticket.shard as usize]
                .chain()
                .contract_as::<AuctionTicketContract>(ticket_addr.contract)
                .ok_or_else(|| format!("deal {}: ticket leg missing", deal.id))?;
            if !tickets.settled() || tickets.winner() != Some(*winner) {
                return Err(format!(
                    "deal {}: tickets went to {:?}, expected {winner}",
                    deal.id,
                    tickets.winner()
                ));
            }
            Ok(())
        }
    }
}

fn build_report(
    cfg: &MarketConfig,
    rounds: u32,
    shards: &[Shard],
    meterings: &[ShardMetering],
) -> MarketReport {
    let mut settled = 0u32;
    let mut settled_by_kind = SettledByKind::default();
    let mut settled_per_shard = vec![0u32; shards.len()];
    let mut latencies: Vec<u32> = Vec::new();
    let mut violations = 0u32;
    let mut violation_details: Vec<String> = Vec::new();
    let record = |violation: String, violations: &mut u32, details: &mut Vec<String>| {
        *violations += 1;
        if details.len() < MAX_REPORTED_VIOLATIONS {
            details.push(violation);
        }
    };

    for shard in shards {
        for deal in shard.deals() {
            match verify_deal(shards, deal) {
                Ok(()) => {
                    settled += 1;
                    settled_per_shard[shard.id() as usize] += 1;
                    latencies.push(deal.latency_rounds());
                    match deal.kind {
                        DealKind::HedgedSwap => settled_by_kind.hedged_swap += 1,
                        DealKind::Cycle3 => settled_by_kind.cycle3 += 1,
                        DealKind::Auction => settled_by_kind.auction += 1,
                        DealKind::Brokered => settled_by_kind.brokered += 1,
                    }
                }
                Err(detail) => record(detail, &mut violations, &mut violation_details),
            }
        }
        for failure in shard.failures() {
            record(failure.clone(), &mut violations, &mut violation_details);
        }
    }

    for (shard, m) in shards.iter().zip(meterings) {
        for violation in metering::conservation_violations(m, shard.minted_per_asset()) {
            record(violation, &mut violations, &mut violation_details);
        }
    }

    latencies.sort_unstable();
    let gas_total: u64 = meterings.iter().map(|m| m.gas).sum();
    let reorg_stats: Vec<chainsim::ReorgStats> = shards.iter().map(Shard::reorg_stats).collect();
    MarketReport {
        seed: cfg.seed,
        shards: cfg.shards,
        accounts: cfg.accounts,
        deals: cfg.deals,
        deals_per_round: cfg.deals_per_round,
        delta_blocks: cfg.delta_blocks,
        gas_price: cfg.gas_price,
        walkaway_percent: cfg.walkaway_percent,
        reorg_interval: cfg.reorg_interval,
        reorg_depth: cfg.reorg_depth,
        rounds,
        settled,
        settled_by_kind,
        violations,
        violation_details,
        latency_p50_rounds: percentile(&latencies, 50),
        latency_p99_rounds: percentile(&latencies, 99),
        latency_max_rounds: latencies.last().copied().unwrap_or(0),
        gas_total,
        gas_per_deal: gas_total / u64::from(cfg.deals.max(1)),
        fees_total: meterings.iter().map(|m| m.fees).sum(),
        calls: meterings.iter().map(|m| m.calls).sum(),
        failed_calls: meterings.iter().map(|m| m.failed_calls).sum(),
        reorgs: reorg_stats.iter().map(|r| r.reorgs).sum(),
        reorg_rewound_calls: reorg_stats.iter().map(|r| r.rewound_calls).sum(),
        reorg_redelivered_calls: reorg_stats.iter().map(|r| r.redelivered_calls).sum(),
        reorg_redelivery_failures: reorg_stats.iter().map(|r| r.redelivery_failures).sum(),
        shard_summaries: shards
            .iter()
            .zip(meterings)
            .map(|(shard, m)| ShardSummary {
                shard: shard.id(),
                deals_home: shard.deals().len() as u32,
                settled_home: settled_per_shard[shard.id() as usize],
                gas: m.gas,
                fees: m.fees,
                calls: m.calls,
                failed_calls: m.failed_calls,
                token_supply: m.token_supply,
                native_supply: m.native_supply,
                contract_residue: m.contract_residue,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainsim::TraceMode;

    fn smoke_cfg() -> MarketConfig {
        MarketConfig {
            seed: 11,
            shards: 3,
            accounts: 200,
            deals: 60,
            deals_per_round: 10,
            workers: 1,
            trace: TraceMode::Off,
            ..MarketConfig::default()
        }
    }

    #[test]
    fn on_workers_keeps_item_order_for_any_worker_count() {
        for len in [0usize, 1, 5, 8, 13] {
            let expected: Vec<usize> = (0..len).map(|i| i * i).collect();
            for workers in [0, 1, 2, 3, 8, 20] {
                let got = on_workers((0..len).collect(), workers, |i| i * i);
                assert_eq!(got, expected, "len={len} workers={workers}");
            }
        }
    }

    #[test]
    fn smoke_market_settles_every_deal() {
        let run = run_market(&smoke_cfg());
        let report = &run.report;
        assert_eq!(report.violations, 0, "violations: {:?}", report.violation_details);
        assert_eq!(report.settled, 60);
        assert_eq!(report.failed_calls, 0);
        assert!(report.gas_total > 0);
        assert!(report.latency_p50_rounds >= 5);
        assert!(report.latency_max_rounds <= 8);
        let by_kind = report.settled_by_kind;
        assert_eq!(by_kind.hedged_swap + by_kind.cycle3 + by_kind.auction + by_kind.brokered, 60);
    }

    #[test]
    fn single_shard_market_settles() {
        let cfg = MarketConfig { shards: 1, deals: 30, ..smoke_cfg() };
        let run = run_market(&cfg);
        assert_eq!(run.report.violations, 0, "{:?}", run.report.violation_details);
        assert_eq!(run.report.settled, 30);
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let base = run_market(&smoke_cfg()).report;
        for workers in [2, 4] {
            let cfg = MarketConfig { workers, ..smoke_cfg() };
            let run = run_market(&cfg);
            assert_eq!(run.report, base, "workers={workers} diverged");
            assert_eq!(run.report.canonical_string(), base.canonical_string());
        }
    }

    #[test]
    fn trace_mode_does_not_change_the_report() {
        let base = run_market(&smoke_cfg()).report;
        let cfg = MarketConfig { trace: TraceMode::Full, workers: 2, ..smoke_cfg() };
        assert_eq!(run_market(&cfg).report.digest(), base.digest());
    }

    fn reorg_cfg() -> MarketConfig {
        MarketConfig { reorg_interval: 3, reorg_depth: 1, ..smoke_cfg() }
    }

    #[test]
    fn depth_one_reorgs_are_observationally_harmless() {
        // A depth-1 redelivering reorg rewinds only the open round and
        // replays it verbatim, so settlement must match the no-reorg
        // baseline exactly — only the reorg counters (and the config echo)
        // may differ.
        let baseline = run_market(&smoke_cfg()).report;
        let report = run_market(&reorg_cfg()).report;
        assert!(report.reorgs > 0, "the injector never fired");
        assert_eq!(report.reorg_redelivered_calls, report.reorg_rewound_calls);
        assert_eq!(report.reorg_redelivery_failures, 0);
        assert_eq!(report.violations, 0, "violations: {:?}", report.violation_details);
        assert_eq!(report.settled, baseline.settled);
        assert_eq!(report.settled_by_kind, baseline.settled_by_kind);
        assert_eq!(report.latency_p50_rounds, baseline.latency_p50_rounds);
        assert_eq!(report.latency_max_rounds, baseline.latency_max_rounds);
        assert_eq!(report.shard_summaries, baseline.shard_summaries);
    }

    #[test]
    fn depth_two_reorgs_degrade_unmargined_deals_deterministically() {
        // Market deal plans are compiled without a finality margin, so a
        // depth-2 reorg re-delivers deadline-tight calls up to one round
        // late and some deals miss their windows — the market-scale echo of
        // the zero-margin sore-loser-by-reorg violation the sampled tier
        // pins (and that `finality_margin ≥ depth − 1` repairs there). The
        // degradation must be loud (counted, reported) and reproducible.
        let cfg = MarketConfig { reorg_depth: 2, ..reorg_cfg() };
        let report = run_market(&cfg).report;
        assert!(report.reorgs > 0);
        assert!(report.reorg_rewound_calls > 0, "depth-2 reorgs must rewind work");
        assert!(report.reorg_redelivery_failures > 0, "late re-delivery must miss deadlines");
        assert!(report.violations > 0, "missed deadlines must surface as violations");
        assert!(report.settled < 60 && report.settled > 0, "settled {}", report.settled);
        // Deterministic degradation: the same seed reproduces the same report.
        assert_eq!(run_market(&cfg).report, report);
    }

    #[test]
    fn worker_count_does_not_change_the_report_under_reorgs() {
        let cfg = MarketConfig { reorg_depth: 2, ..reorg_cfg() };
        let base = run_market(&cfg).report;
        assert!(base.reorgs > 0, "the injector never fired");
        for workers in [2, 4, 8] {
            let run = run_market(&MarketConfig { workers, ..cfg.clone() });
            assert_eq!(run.report, base, "workers={workers} diverged under reorgs");
            assert_eq!(run.report.canonical_string(), base.canonical_string());
        }
    }

    #[test]
    fn different_seeds_produce_different_markets() {
        let a = run_market(&smoke_cfg()).report;
        let b = run_market(&MarketConfig { seed: 12, ..smoke_cfg() }).report;
        assert_ne!(a.digest(), b.digest());
    }
}
