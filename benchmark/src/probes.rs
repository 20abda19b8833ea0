//! Isolated layer probes and the planted-delay attribution check.
//!
//! Each probe calls one layer's public functions in batches on fixed
//! inputs and reports the median over batches of the time per call. The
//! chainsim probes run on a ledger with the market's per-shard account
//! count; the snapshot, restore and advance probes run on the world a
//! compliant three-party deal leaves behind.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

use chainsim::{
    AccountRef, Amount, AssetId, ChainId, ContractAddr, FinalityParams, PartyId, Time, World,
};
use contracts::{HtlcEscrow, HtlcMsg};
use cryptosim::Secret;
use marketsim::market::SplitMix64;
use modelcheck::scenarios::DealSweep;
use protocols::deal::{run_deal_in, run_deal_shared, DealConfig};
use protocols::multi_party::{clique_config, cycle_config};

use crate::spans::{planted, Layer, Plant, SpanLog};
use crate::stats::{median, Dist, Metrics};

/// How much work each probe does.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub batches: usize,
    pub per_batch: usize,
    pub accounts: u32,
    pub profiles: usize,
}

/// The reported probes.
pub const FULL: Scale = Scale { batches: 7, per_batch: 20_000, accounts: 120_000, profiles: 400 };

/// The planted-delay check's probes: each call may carry a planted delay,
/// so they make fewer calls.
pub const LIGHT: Scale = Scale { batches: 7, per_batch: 1_000, accounts: 2_000, profiles: 60 };

/// Times `batches` batches of `calls` calls each, inside one span per
/// batch, and returns the median time per call in `unit_secs` units.
fn batches(
    log: &mut SpanLog,
    layer: Layer,
    name: &str,
    scale: Scale,
    calls: usize,
    unit_secs: f64,
    mut batch: impl FnMut(),
) -> f64 {
    let per_call: Vec<f64> = (0..scale.batches)
        .map(|_| {
            let span = log.open(layer, name);
            batch();
            log.close(span, calls as u64).as_secs_f64() / calls as f64 / unit_secs
        })
        .collect();
    median(&per_call)
}

const NS: f64 = 1e-9;
const US: f64 = 1e-6;

/// A one-chain world with `accounts` parties and two assets, like a
/// market shard before minting.
fn ledger_world(accounts: u32) -> (World, ChainId, [AssetId; 2]) {
    let mut world = World::new(2);
    let chain = world.add_chain("shard-0");
    let native = world.chain(chain).native_asset();
    let token = world.register_asset("shard-token");
    world.chain_mut(chain).ledger_mut().reserve(accounts as usize, 1 << 16, 2);
    (world, chain, [native, token])
}

/// `count` pseudo-random distinct account pairs among `accounts`.
fn pairs(rng: &mut SplitMix64, accounts: u32, count: usize) -> Vec<(PartyId, PartyId)> {
    (0..count)
        .map(|_| {
            let from = rng.below(u64::from(accounts)) as u32;
            let to = (from + 1 + rng.below(u64::from(accounts) - 1) as u32) % accounts;
            (PartyId(from), PartyId(to))
        })
        .collect()
}

fn chainsim_probes(scale: Scale, plant: Option<Plant>, log: &mut SpanLog, metrics: &mut Metrics) {
    // Each batch endows a fresh ledger, as `Shard::new` does; the previous
    // batch's world is dropped outside the timed span.
    let endowment = Amount::new(1_000_000_000);
    let mints = 2 * scale.accounts as usize;
    let mut world = None;
    let mut per_mint = Vec::new();
    for _ in 0..scale.batches {
        drop(world.take());
        let span = log.open(Layer::Chainsim, "Ledger::reserve + Blockchain::mint");
        let (mut fresh, chain, assets) = ledger_world(scale.accounts);
        let chain_mut = fresh.chain_mut(chain);
        for party in 0..scale.accounts {
            for asset in assets {
                chain_mut.mint(PartyId(party), asset, endowment);
                planted(plant, Layer::Chainsim);
            }
        }
        per_mint.push(log.close(span, mints as u64).as_secs_f64() / mints as f64 / NS);
        world = Some((fresh, chain, assets));
    }
    let mint_ns = median(&per_mint);
    metrics.put("chainsim.mint_ns", mint_ns, "ns");
    let (mut world, chain, [_, token]) = world.expect("minted world");

    let mut rng = SplitMix64::new(0x1ED6E7);
    let transfers = pairs(&mut rng, scale.accounts, scale.per_batch);
    let transfer_ns =
        batches(log, Layer::Chainsim, "Ledger::transfer", scale, transfers.len(), NS, || {
            let ledger = world.chain_mut(chain).ledger_mut();
            for &(from, to) in &transfers {
                let moved = ledger.transfer(
                    AccountRef::Party(from),
                    AccountRef::Party(to),
                    token,
                    Amount::new(1),
                );
                planted(plant, Layer::Chainsim);
                moved.expect("endowed accounts can pay");
            }
        });
    metrics.put("chainsim.ledger_transfer_ns", transfer_ns, "ns");

    let secrets: Vec<Secret> = (0..64).map(Secret::from_seed).collect();
    for secret in &secrets {
        secret.hashlock();
    }
    let htlcs = scale.per_batch / 8;
    let call_ns = {
        let mut per_call = Vec::new();
        for _ in 0..scale.batches {
            let escrows: Vec<(PartyId, PartyId, ContractAddr, &Secret)> =
                pairs(&mut rng, scale.accounts, htlcs)
                    .into_iter()
                    .enumerate()
                    .map(|(i, (sender, recipient))| {
                        let secret = &secrets[i % secrets.len()];
                        let escrow = HtlcEscrow::new(
                            sender,
                            recipient,
                            token,
                            Amount::new(1),
                            secret.hashlock(),
                            Time(1_000_000),
                        );
                        let id = world.chain_mut(chain).publish(sender, Box::new(escrow));
                        (sender, recipient, ContractAddr::new(chain, id), secret)
                    })
                    .collect();
            let span = log.open(Layer::Chainsim, "World::call (HTLC escrow + redeem)");
            for &(sender, _, addr, _) in &escrows {
                let called = world.call(sender, addr, &HtlcMsg::Escrow, "escrow");
                planted(plant, Layer::Chainsim);
                called.expect("escrow succeeds");
            }
            for (_, recipient, addr, secret) in &escrows {
                let redeem = HtlcMsg::Redeem { secret: (*secret).clone() };
                let called = world.call(*recipient, *addr, &redeem, "redeem");
                planted(plant, Layer::Chainsim);
                called.expect("redeem succeeds");
            }
            let calls = 2 * escrows.len();
            per_call.push(log.close(span, calls as u64).as_secs_f64() / calls as f64 / NS);
        }
        median(&per_call)
    };
    metrics.put("chainsim.call_ns", call_ns, "ns");
    drop(world);

    // The world a compliant three-party deal leaves behind.
    let mut scenario = World::new(1);
    run_deal_in(&mut scenario, &cycle_config(3), &BTreeMap::new());
    let contracts: usize = scenario.chains().map(|c| c.contract_count()).sum();
    metrics.put("chainsim.snapshot_chains", scenario.chain_count() as f64, "count");
    metrics.put("chainsim.snapshot_contracts", contracts as f64, "count");
    let copies = scale.per_batch / 10;
    let snapshot_us = batches(log, Layer::Chainsim, "World::snapshot", scale, copies, US, || {
        for _ in 0..copies {
            black_box(scenario.snapshot());
            planted(plant, Layer::Chainsim);
        }
    });
    metrics.put("chainsim.snapshot_us.p50", snapshot_us, "us");
    let snap = scenario.snapshot();
    let restore_us = batches(log, Layer::Chainsim, "World::restore", scale, copies, US, || {
        for _ in 0..copies {
            scenario.restore(&snap);
            planted(plant, Layer::Chainsim);
        }
    });
    metrics.put("chainsim.restore_us.p50", restore_us, "us");

    for (depth, name) in [(0, "chainsim.advance_us"), (2, "chainsim.advance_final_us")] {
        scenario.restore(&snap);
        for chain in 0..scenario.chain_count() {
            scenario.set_finality(ChainId(chain as u32), FinalityParams { depth, delta: 0 });
        }
        let start = scenario.snapshot();
        let rounds = 64;
        let per_call: Vec<f64> = (0..scale.batches * 8)
            .map(|_| {
                scenario.restore(&start);
                let span = log.open(Layer::Chainsim, format!("World::advance_delta depth {depth}"));
                for _ in 0..rounds {
                    scenario.advance_delta();
                    planted(plant, Layer::Chainsim);
                }
                log.close(span, rounds).as_secs_f64() / rounds as f64 / US
            })
            .collect();
        metrics.put(name, median(&per_call), "us");
    }
}

fn cryptosim_probe(scale: Scale, plant: Option<Plant>, log: &mut SpanLog, metrics: &mut Metrics) {
    let mut next = 0u64;
    let calls = scale.per_batch / 4;
    let hashlock_ns =
        batches(log, Layer::Cryptosim, "Secret::from_seed + hashlock", scale, calls, NS, || {
            for _ in 0..calls {
                next += 1;
                black_box(Secret::from_seed(next).hashlock());
                planted(plant, Layer::Cryptosim);
            }
        });
    metrics.put("cryptosim.hashlock_ns", hashlock_ns, "ns");
}

fn swapgraph_probe(scale: Scale, plant: Option<Plant>, log: &mut SpanLog, metrics: &mut Metrics) {
    let config = clique_config(5);
    let leaders: BTreeSet<u32> = config.leaders.iter().map(|party| party.0).collect();
    let calls = (scale.per_batch / 200).max(5);
    let automorphisms_us = batches(
        log,
        Layer::Swapgraph,
        "Digraph::automorphisms_stabilizing (clique-5)",
        scale,
        calls,
        US,
        || {
            for _ in 0..calls {
                black_box(config.digraph.automorphisms_stabilizing(&leaders));
                planted(plant, Layer::Swapgraph);
            }
        },
    );
    metrics.put("swapgraph.automorphisms_us", automorphisms_us, "us");
}

/// Runs `scale.profiles` profiles spread over the unreduced three-party
/// cycle family both ways: resumed from the deviation tree and replayed in
/// full. Their reports must be identical.
fn protocols_probe(
    scale: Scale,
    plant: Option<Plant>,
    log: &mut SpanLog,
    metrics: &mut Metrics,
) -> Vec<String> {
    let family = DealSweep::at_most("cycle-3", cycle_config(3), 2);
    let config: &DealConfig = family.config();
    let total = modelcheck::engine::ScenarioGen::total(&family);
    let mut shared_world = World::new(1);
    let mut replay_world = World::new(1);
    let mut prefix = None;
    run_deal_shared(&mut shared_world, config, &BTreeMap::new(), &mut prefix);
    let mut resume_us = Vec::new();
    let mut replay_us = Vec::new();
    let mut problems = Vec::new();
    let span = log.open(Layer::Protocols, "run_deal_shared / run_deal_in");
    for k in 0..scale.profiles {
        let profile = family.profile(k * total / scale.profiles);
        let start = Instant::now();
        let resumed = run_deal_shared(&mut shared_world, config, &profile, &mut prefix);
        planted(plant, Layer::Protocols);
        resume_us.push(start.elapsed().as_secs_f64() / US);
        let start = Instant::now();
        let replayed = run_deal_in(&mut replay_world, config, &profile);
        planted(plant, Layer::Protocols);
        replay_us.push(start.elapsed().as_secs_f64() / US);
        if format!("{resumed:?}") != format!("{replayed:?}") {
            problems.push(format!("resumed and replayed reports differ for {profile:?}"));
        }
    }
    log.close(span, 2 * scale.profiles as u64);
    let resume = Dist::of(resume_us).p50;
    let replay = Dist::of(replay_us).p50;
    metrics.put("protocols.deal_resume_us.p50", resume, "us");
    metrics.put("protocols.deal_replay_us.p50", replay, "us");
    metrics.put("protocols.tree_speedup", replay / resume, "ratio");
    problems
}

/// Runs every probe; returns the problems found.
pub fn run(
    scale: Scale,
    plant: Option<Plant>,
    log: &mut SpanLog,
    metrics: &mut Metrics,
) -> Vec<String> {
    let span = log.open(Layer::Bench, "layer probes");
    chainsim_probes(scale, plant, log, metrics);
    cryptosim_probe(scale, plant, log, metrics);
    swapgraph_probe(scale, plant, log, metrics);
    let problems = protocols_probe(scale, plant, log, metrics);
    log.close(span, 1);
    problems
}

/// Each layer's primary per-call metric in the planted-delay check, and
/// its unit in seconds.
const PRIMARY: [(Layer, &str, f64); 6] = [
    (Layer::Chainsim, "chainsim.call_ns", NS),
    (Layer::Cryptosim, "cryptosim.hashlock_ns", NS),
    (Layer::Swapgraph, "swapgraph.automorphisms_us", US),
    (Layer::Protocols, "protocols.deal_resume_us.p50", US),
    (Layer::Modelcheck, "modelcheck.scenario_us.p50", US),
    (Layer::Marketsim, "marketsim.shard_step_us.p50", US),
];

/// The primary metrics at [`LIGHT`] scale with an optional plant.
fn primaries(plant: Option<Plant>) -> Vec<f64> {
    let mut metrics = Metrics::default();
    run(LIGHT, plant, &mut SpanLog::new(), &mut metrics);
    metrics.put("modelcheck.scenario_us.p50", crate::sweeps::probe_scenario_us(plant), "us");
    metrics.put("marketsim.shard_step_us.p50", crate::market::probe_shard_step_us(plant), "us");
    PRIMARY.iter().map(|(_, name, _)| metrics.get(name).expect("primary metric")).collect()
}

/// The planted delay per call, as a multiple of the layer's clean time
/// per call. Timings on a shared machine swing by up to 2x over a fraction
/// of a second, so the delay is large and the thresholds wide.
pub const PLANT_FACTOR: f64 = 8.0;

/// A planted layer's primary metric must reach this multiple of its clean
/// value (9x is expected).
pub const PLANTED_MIN: f64 = 3.0;

/// No other layer's primary metric may exceed this multiple of its clean
/// value.
pub const OTHER_MAX: f64 = 2.5;

/// Plants a delay after every call into each layer in turn and checks
/// that only that layer's metric moves. Each planted run is compared with
/// the slower of the clean runs just before and after it, so drift on a
/// shared machine does not read as a move. Returns the smallest planted
/// ratio, the largest other ratio and the problems found.
pub fn attribution(log: &mut SpanLog) -> (f64, f64, Vec<String>) {
    let span = log.open(Layer::Bench, "planted-delay attribution check");
    let mut clean = primaries(None);
    let mut planted_min = f64::INFINITY;
    let mut other_max: f64 = 0.0;
    let mut problems = Vec::new();
    for (target, &(layer, name, unit)) in PRIMARY.iter().enumerate() {
        let per_call = Duration::from_secs_f64(PLANT_FACTOR * clean[target] * unit);
        let moved = primaries(Some(Plant { layer, per_call }));
        let after = primaries(None);
        for (i, &value) in moved.iter().enumerate() {
            let ratio = value / clean[i].max(after[i]);
            if i == target {
                planted_min = planted_min.min(ratio);
                if ratio < PLANTED_MIN {
                    problems.push(format!(
                        "delay planted in {} moved {name} only {ratio:.2}x",
                        layer.name()
                    ));
                }
            } else {
                other_max = other_max.max(ratio);
                if ratio > OTHER_MAX {
                    problems.push(format!(
                        "delay planted in {} moved {} {ratio:.2}x",
                        layer.name(),
                        PRIMARY[i].1
                    ));
                }
            }
        }
        clean = after;
    }
    log.close(span, 2 * PRIMARY.len() as u64 + 1);
    (planted_min, other_max, problems)
}
