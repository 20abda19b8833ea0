//! The acceptance suite for the parallel sweep engine:
//!
//! 1. **Determinism** — a sweep's `CheckSummary` is byte-identical (via
//!    `Debug` formatting) for 1 and N worker threads, across chunk sizes.
//! 2. **Coverage** — `check_hedged_multi_party(n)` reports zero violations
//!    for cycles and cliques up to n = 6, and random strongly-connected
//!    digraphs hold as well.
//! 3. **Sensitivity** — the engine *finds* the sore-loser violations of the
//!    base (unhedged) protocols; parallel execution must not mask them.

use modelcheck::engine::{ParallelSweep, ScenarioGen};
use modelcheck::scenarios::{
    bounded_profile_count, AuctionSweep, BootstrapSweep, BrokerSweep, DealSweep, TwoPartySweep,
};
use modelcheck::{check_hedged_multi_party, check_random_digraphs};
use protocols::broker::{broker_deal_config, BrokerConfig};
use protocols::multi_party::{cycle_config, figure3_config, random_config};
use protocols::two_party::TwoPartyConfig;

/// Runs `gen` serially and with several worker/chunk configurations,
/// asserting every summary is byte-identical to the serial one, and returns
/// the serial summary.
fn assert_thread_invariant(gen: &dyn ScenarioGen) -> modelcheck::CheckSummary {
    let serial = ParallelSweep::new(1).run(gen);
    let serial_bytes = format!("{serial:?}");
    for threads in [2usize, 4, 8] {
        for chunk in [1usize, 3, 16] {
            let parallel = ParallelSweep::new(threads).chunk_size(chunk).run(gen);
            assert_eq!(
                format!("{parallel:?}"),
                serial_bytes,
                "family {:?} diverged at threads={threads}, chunk={chunk}",
                gen.family()
            );
        }
    }
    serial
}

#[test]
fn two_party_sweeps_are_thread_invariant() {
    let hedged = assert_thread_invariant(&TwoPartySweep::hedged(TwoPartyConfig::default()));
    assert!(hedged.holds(), "{:?}", hedged.violations);
    let space = protocols::two_party::strategy_space().len();
    assert_eq!(hedged.runs, space * space);

    // The *base* sweep must find violations — identically on every thread
    // count. A parallel engine that loses or reorders them is broken.
    let base = assert_thread_invariant(&TwoPartySweep::base(TwoPartyConfig::default()));
    assert!(!base.holds(), "the engine must find the sore-loser attack");
    assert!(base.violations.iter().all(|v| v.property == "hedged"));
    assert!(base.violations.iter().all(|v| v.scenario.contains("base two-party swap")));
}

#[test]
fn deal_and_auction_sweeps_are_thread_invariant() {
    let figure3 = assert_thread_invariant(&DealSweep::at_most("figure3", figure3_config(), 1));
    assert!(figure3.holds(), "{:?}", figure3.violations);
    let deviating = protocols::deal::strategy_space().len() - 1;
    assert_eq!(figure3.runs, 1 + 3 * deviating);

    let broker = assert_thread_invariant(&DealSweep::at_most(
        "broker",
        broker_deal_config(&BrokerConfig::default()),
        1,
    ));
    assert!(broker.holds(), "{:?}", broker.violations);

    for (name, config) in [("cycle-4", cycle_config(4)), ("random-4", random_config(4, 3, 7))] {
        let summary = assert_thread_invariant(&DealSweep::at_most(name, config, 1));
        assert!(summary.holds(), "{name}: {:?}", summary.violations);
    }
    let cycle2 = assert_thread_invariant(&DealSweep::full("cycle-2-full", cycle_config(2)));
    assert!(cycle2.holds(), "{:?}", cycle2.violations);

    let auction = assert_thread_invariant(&AuctionSweep::default());
    assert!(auction.holds(), "{:?}", auction.violations);

    for (a, b) in [(100_000, 100_000), (5_000, 20_000)] {
        let bootstrap = assert_thread_invariant(&BootstrapSweep::new(a, b, 10, 3));
        assert!(bootstrap.holds(), "{:?}", bootstrap.violations);
        assert_eq!(bootstrap.runs, 1 + 6 * 4);
    }

    let broker = assert_thread_invariant(&BrokerSweep::at_most(&BrokerConfig::default(), 1));
    assert!(broker.holds(), "{:?}", broker.violations);
    assert_eq!(broker.runs, 1 + 3 * (protocols::deal::strategy_space().len() - 1));
}

#[test]
fn multi_party_cycles_and_cliques_hold_up_to_six_parties() {
    let space = protocols::deal::strategy_space().len();
    for n in 2..=6u32 {
        let summary = check_hedged_multi_party(n);
        assert!(
            summary.holds(),
            "hedged theorem violated on generated digraphs at n={n}: {:?}",
            summary.violations
        );
        // The documented space is the *unreduced* closed form for every
        // tier: the full product at n = 2, and the two-deviator bound for
        // both the cycle and the clique from n = 3 up — reduction changes
        // how many representatives run, never what the sweep speaks for.
        let expected_strategies = match n {
            2 => space * space,
            _ => 2 * bounded_profile_count(n as usize, space - 1, 2),
        };
        assert_eq!(summary.strategies, expected_strategies, "n={n}");
        // From n = 4 the clique (and from n = 5 the cycle) runs reduced:
        // strictly fewer executions than documented profiles.
        if n <= 3 {
            assert_eq!(summary.runs, summary.strategies, "n={n}");
        } else {
            assert!(summary.runs < summary.strategies, "n={n}");
        }
        assert!(summary.runs > 0);
    }
}

#[test]
fn multi_party_sweep_is_thread_invariant_at_n4() {
    let families = modelcheck::multi_party_families(4);
    let refs: Vec<&dyn ScenarioGen> = families.iter().map(|f| f as &dyn ScenarioGen).collect();
    let serial = ParallelSweep::new(1).run_all(&refs);
    let parallel = ParallelSweep::new(8).chunk_size(2).run_all(&refs);
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    assert!(serial.holds(), "{:?}", serial.violations);
}

#[test]
fn random_strongly_connected_digraphs_hold() {
    let deviating = protocols::deal::strategy_space().len() - 1;
    for n in [4u32, 5] {
        let summary = check_random_digraphs(n, 3, 4);
        assert!(summary.holds(), "n={n}: {:?}", summary.violations);
        // 4 seeds, each: all-compliant + n parties × every non-default
        // strategy of the deal space.
        assert_eq!(summary.runs, 4 * (1 + n as usize * deviating));
    }
    // Dense five-party digraphs (4 arcs beyond the Hamiltonian cycle).
    // Seeds 2 and 4 are the premium-sizing boundary cases: overlapping
    // redemption paths leave a compliant party exactly +p in total — the
    // §7 guarantee — which the old per-arc hedged predicate misread as a
    // violation (see `tests/premium_sizing.rs` for the pinned runs).
    let dense = check_random_digraphs(5, 4, 5);
    assert!(dense.holds(), "dense five-party digraphs: {:?}", dense.violations);
    assert_eq!(dense.runs, 5 * (1 + 5 * deviating));
}

#[test]
fn base_two_party_violations_enumerate_in_scenario_order() {
    // Pin the deterministic merge: the first violation in index order is
    // compliant Alice against Bob's earliest harmful stop-point, and every
    // repeated invocation yields the identical list.
    let first = ParallelSweep::new(4).run(&TwoPartySweep::base(TwoPartyConfig::default()));
    let second =
        ParallelSweep::new(2).chunk_size(7).run(&TwoPartySweep::base(TwoPartyConfig::default()));
    assert_eq!(first, second);
    assert!(!first.violations.is_empty());
    let head = &first.violations[0];
    assert_eq!(head.property, "hedged");
    assert!(head.scenario.contains("alice=compliant"), "unexpected head: {head:?}");
}
