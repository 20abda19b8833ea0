//! Differential tests: the prefix-sharing deviation-tree path every sweep
//! family runs (`run_*_shared`) must produce reports **byte-identical** to
//! a from-scratch replay of the same profile (`run_*_in`), compared
//! profile by profile through their `Debug` rendering. Summary-level
//! thread invariance of the same families is pinned in `parallel.rs`.

use std::collections::BTreeMap;

use chainsim::{PartyId, TraceMode, World};
use modelcheck::engine::{ParallelSweep, ScenarioGen};
use modelcheck::sampled::{SampledBootstrap, SampledScenario, SampledSweep};
use modelcheck::scenarios::{BrokerSweep, DealSweep, TwoPartySweep};
use protocols::auction::{run_auction_in, run_auction_shared, AuctionConfig, AuctioneerBehaviour};
use protocols::bootstrap::{run_bootstrap_in, run_bootstrap_shared, BootstrapDeviation};
use protocols::broker::{broker_deal_config, BrokerConfig};
use protocols::deal::{self, run_deal_in, run_deal_shared, DealConfig};
use protocols::multi_party::{cycle_config, figure3_config, random_config};
use protocols::script::{Fault, Strategy};
use protocols::two_party::{
    self, run_swap_in, run_swap_shared, SwapProtocol, SwapRealism, TwoPartyConfig,
};

type Profile = BTreeMap<PartyId, Strategy>;

/// The auctioneer behaviours, in the order sampled auction scenarios index
/// them (0 = declare high bidder, 1 = declare low bidder, 2 = abandon).
const BEHAVIOURS: [AuctioneerBehaviour; 3] = [
    AuctioneerBehaviour::DeclareHighBidder,
    AuctioneerBehaviour::DeclareLowBidder,
    AuctioneerBehaviour::Abandon,
];

/// Runs every profile of `profiles` over `config` both ways — resumed from
/// one deviation tree, and replayed in a pooled world — under each of
/// `traces`, and asserts the reports render identically.
fn assert_deal_profiles_match(config: &DealConfig, profiles: &[Profile], traces: &[TraceMode]) {
    for &trace in traces {
        let mut tree_world = World::with_trace(1, trace);
        let mut replay_world = World::with_trace(1, trace);
        let mut cache = None;
        for profile in profiles {
            let tree = run_deal_shared(&mut tree_world, config, profile, &mut cache);
            let replay = run_deal_in(&mut replay_world, config, profile);
            assert_eq!(
                format!("{tree:?}"),
                format!("{replay:?}"),
                "profile {profile:?} under {trace:?}"
            );
        }
    }
}

/// Handcrafted two-deviator profiles mixing the stop, timing and fault
/// axes, between the lowest and the highest party id of `config`.
fn mixed_pairs(config: &DealConfig) -> Vec<Profile> {
    let parties = config.parties();
    let a = parties[0];
    let b = *parties.last().expect("deal has parties");
    vec![
        BTreeMap::from([(a, Strategy::compliant().late()), (b, Strategy::stop_after(2))]),
        BTreeMap::from([
            (a, Strategy::stop_after(3).late()),
            (b, Strategy::compliant().with_fault(Fault::Crash { step: 1 })),
        ]),
        BTreeMap::from([
            (a, Strategy::compliant().with_fault(Fault::Garbage { step: 0 }).late()),
            (b, Strategy::stop_after(1).with_fault(Fault::Crash { step: 0 })),
        ]),
        BTreeMap::from([(a, Strategy::compliant().late()), (b, Strategy::compliant().late())]),
    ]
}

const BOTH_TRACES: [TraceMode; 2] = [TraceMode::Off, TraceMode::Full];

#[test]
fn deal_reports_are_byte_identical_per_profile() {
    // Single-deviator budgets range over the full per-party
    // `stop_after × timing × faults` space — 70 non-default strategies per
    // party — so every timing and fault profile is diffed here.
    for (name, config) in [
        ("figure3", figure3_config()),
        ("cycle-4", cycle_config(4)),
        ("random-4", random_config(4, 3, 7)),
    ] {
        let sweep = DealSweep::at_most(name, config.clone(), 1);
        let mut profiles: Vec<Profile> = (0..sweep.total()).map(|i| sweep.profile(i)).collect();
        profiles.extend(mixed_pairs(&config));
        assert_deal_profiles_match(&config, &profiles, &BOTH_TRACES);
    }
}

#[test]
fn broker_sweep_matches_the_replay_oracle() {
    let sweep = BrokerSweep::at_most(&BrokerConfig::default(), 1);
    let config = broker_deal_config(&BrokerConfig::default());
    let mut profiles: Vec<Profile> = (0..sweep.total()).map(|i| sweep.profile(i)).collect();
    profiles.extend(mixed_pairs(&config));
    assert_deal_profiles_match(&config, &profiles, &BOTH_TRACES);
}

#[test]
fn full_product_deal_sweep_matches_the_replay_oracle() {
    // The full joint product (71² profiles, timing and fault pairs
    // included) on the two-party cycle.
    let sweep = DealSweep::full("cycle-2-full", cycle_config(2));
    let profiles: Vec<Profile> = (0..sweep.total()).map(|i| sweep.profile(i)).collect();
    assert_deal_profiles_match(sweep.config(), &profiles, &[TraceMode::Off]);
}

#[test]
fn two_party_reports_are_byte_identical_per_profile() {
    // The full `space × space` products of both protocols; the base
    // protocol *has* violations, and both paths must report them alike.
    let config = TwoPartyConfig::default();
    for protocol in [SwapProtocol::Hedged, SwapProtocol::Base] {
        let space = two_party::strategy_space_for(protocol);
        let mut tree_world = World::with_trace(1, TraceMode::Off);
        let mut replay_world = World::with_trace(1, TraceMode::Off);
        let mut cache = None;
        for &alice in &space {
            for &bob in &space {
                let tree =
                    run_swap_shared(&mut tree_world, &config, protocol, alice, bob, &mut cache);
                let replay = run_swap_in(
                    &mut replay_world,
                    &config,
                    protocol,
                    alice,
                    bob,
                    &SwapRealism::default(),
                );
                assert_eq!(
                    format!("{tree:?}"),
                    format!("{replay:?}"),
                    "{protocol:?} alice={alice} bob={bob}"
                );
            }
        }
    }
}

#[test]
fn auction_reports_are_byte_identical_per_profile() {
    for behaviour in BEHAVIOURS {
        let config = AuctionConfig { auctioneer: behaviour, ..AuctionConfig::default() };
        let mut tree_world = World::with_trace(1, TraceMode::Off);
        let mut replay_world = World::with_trace(1, TraceMode::Off);
        let mut cache = None;
        for party in 0..3u32 {
            for strategy in protocols::auction::strategy_space() {
                let strategies = BTreeMap::from([(PartyId(party), strategy)]);
                let tree = run_auction_shared(&mut tree_world, &config, &strategies, &mut cache);
                let replay = run_auction_in(&mut replay_world, &config, &strategies);
                assert_eq!(
                    format!("{tree:?}"),
                    format!("{replay:?}"),
                    "{behaviour:?}, {party} plays {strategy}"
                );
            }
        }
    }
}

#[test]
fn bootstrap_reports_are_byte_identical_per_deviation() {
    for (a, b, ratio, rounds) in [(100_000u128, 100_000u128, 10u128, 3u32), (5_000, 20_000, 10, 3)]
    {
        let mut tree_world = World::with_trace(1, TraceMode::Off);
        let mut replay_world = World::with_trace(1, TraceMode::Off);
        let mut cache = None;
        for deviation in BootstrapDeviation::all(rounds) {
            let tree =
                run_bootstrap_shared(&mut tree_world, a, b, ratio, rounds, deviation, &mut cache);
            let replay = run_bootstrap_in(&mut replay_world, a, b, ratio, rounds, deviation);
            assert_eq!(format!("{tree:?}"), format!("{replay:?}"), "a={a}, b={b}: {deviation:?}");
        }
    }
}

#[test]
fn sampled_sweeps_match_the_replay_oracle() {
    // The sampled tier rides the same shared-prefix entry points as the
    // enumerated tier; diff the reports of its seed-77 samples — long
    // delay vectors and variable outages included — against replays.
    let config = TwoPartyConfig::default();
    let hedged = SampledSweep::hedged_two_party(config.clone(), 77, 300);
    let base = SampledSweep::base_two_party(config.clone(), 77, 300);
    let mut tree_world = World::with_trace(1, TraceMode::Off);
    let mut replay_world = World::with_trace(1, TraceMode::Off);
    // One cache alternating between the two protocols: `run_swap_shared`
    // must notice the switch and re-record.
    let mut cache = None;
    for index in 0..300 {
        for (family, protocol) in [(&hedged, SwapProtocol::Hedged), (&base, SwapProtocol::Base)] {
            let SampledScenario::TwoParty { alice, bob } = family.scenario_at(index) else {
                panic!("two-party families draw two-party scenarios");
            };
            let tree = run_swap_shared(&mut tree_world, &config, protocol, alice, bob, &mut cache);
            let replay = run_swap_in(
                &mut replay_world,
                &config,
                protocol,
                alice,
                bob,
                &SwapRealism::default(),
            );
            assert_eq!(format!("{tree:?}"), format!("{replay:?}"), "{protocol:?} sample {index}");
        }
    }

    let figure3 = SampledSweep::deal("figure3", figure3_config(), 77, 120);
    let profiles: Vec<Profile> = (0..120)
        .map(|index| match figure3.scenario_at(index) {
            SampledScenario::Deal { profile } => profile,
            other => panic!("deal families draw deal scenarios, got {other:?}"),
        })
        .collect();
    assert_deal_profiles_match(&figure3_config(), &profiles, &[TraceMode::Off]);

    let auction = SampledSweep::auction(AuctionConfig::default(), 77, 150);
    let mut caches: BTreeMap<usize, Option<_>> = BTreeMap::new();
    for index in 0..150 {
        let SampledScenario::Auction { behaviour, profile } = auction.scenario_at(index) else {
            panic!("auction families draw auction scenarios");
        };
        let config =
            AuctionConfig { auctioneer: BEHAVIOURS[behaviour], ..AuctionConfig::default() };
        let cache = caches.entry(behaviour).or_default();
        let tree = run_auction_shared(&mut tree_world, &config, &profile, cache);
        let replay = run_auction_in(&mut replay_world, &config, &profile);
        assert_eq!(format!("{tree:?}"), format!("{replay:?}"), "auction sample {index}");
    }

    let (a, b, ratio, rounds) = (5_000, 20_000, 10, 3);
    let bootstrap = SampledBootstrap::new(a, b, ratio, rounds, 77, 100);
    let mut cache = None;
    for index in 0..100 {
        let deviation = bootstrap.deviation_at(index);
        let tree =
            run_bootstrap_shared(&mut tree_world, a, b, ratio, rounds, deviation, &mut cache);
        let replay = run_bootstrap_in(&mut replay_world, a, b, ratio, rounds, deviation);
        assert_eq!(format!("{tree:?}"), format!("{replay:?}"), "bootstrap sample {index}");
    }
}

/// The deviation tree must not mask the violations the engine exists to
/// find: the base two-party sweep's sore-loser hits survive prefix sharing.
#[test]
fn deviation_tree_still_finds_base_protocol_violations() {
    let summary = ParallelSweep::new(2).run(&TwoPartySweep::base(TwoPartyConfig::default()));
    assert!(!summary.holds());
    assert!(summary.violations.iter().all(|v| v.property == "hedged"));
}

/// Deal profile decoding must agree between the materialised and the
/// arithmetic paths (guards the deviation tree's profile → divergence map).
#[test]
fn deal_profile_spaces_agree_between_budgets() {
    let full = DealSweep::full("f", figure3_config());
    let space = deal::strategy_space();
    assert_eq!(space.len(), Strategy::space_size(deal::SCRIPT_STEPS));
    assert_eq!(full.total(), space.len().pow(3));
}
