//! Experiment C9 — substrate throughput: the chain simulator itself.

use std::collections::BTreeMap;

use chainsim::{AccountRef, Amount, AssetId, Contract, PartyId, World};
use contracts::{ArcEscrow, HtlcEscrow, HtlcMsg};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use cryptosim::Secret;
use protocols::deal::run_deal_in;
use protocols::multi_party::clique_config;

/// Copies per timed iteration of the per-copy benches: one copy is tens of
/// nanoseconds, too short to time alone.
const COPIES: u64 = 1000;

fn escrow_redeem_round_trip() {
    let mut world = World::new(1);
    let chain = world.add_chain("apricot");
    let token = world.register_asset("token");
    world.chain_mut(chain).mint(PartyId(0), token, Amount::new(1));
    let secret = Secret::from_seed(1);
    let escrow = HtlcEscrow::new(
        PartyId(0),
        PartyId(1),
        token,
        Amount::new(1),
        secret.hashlock(),
        chainsim::Time(10),
    );
    let id = world.chain_mut(chain).publish(PartyId(0), Box::new(escrow));
    let addr = chainsim::ContractAddr::new(chain, id);
    world.call(PartyId(0), addr, &HtlcMsg::Escrow, "escrow").unwrap();
    world.call(PartyId(1), addr, &HtlcMsg::Redeem { secret }, "redeem").unwrap();
    assert_eq!(world.chain(chain).balance(AccountRef::Party(PartyId(1)), token), Amount::new(1));
}

fn ledger_transfers(n: u64) {
    let mut world = World::new(1);
    let chain = world.add_chain("a");
    let coin = AssetId(0);
    world.chain_mut(chain).mint(PartyId(0), coin, Amount::new(u128::from(n)));
    for _ in 0..n {
        world
            .chain_mut(chain)
            .ledger_mut()
            .transfer(
                AccountRef::Party(PartyId(0)),
                AccountRef::Party(PartyId(1)),
                coin,
                Amount::new(1),
            )
            .unwrap();
    }
}

/// The world a finished compliant run of the five-party clique swap leaves
/// behind: 20 arc escrows, each holding a slot for each of the four leaders.
fn finished_clique5() -> World {
    let mut world = World::new(1);
    let report = run_deal_in(&mut world, &clique_config(5), &BTreeMap::new());
    assert!(report.all_compliant_hedged(), "compliant clique-5 run must end hedged");
    world
}

/// One of `world`'s arc escrows with four leaders.
fn four_leader_escrow(world: &World) -> &dyn Contract {
    world
        .chains()
        .flat_map(|chain| chain.contracts())
        .find(|contract| {
            contract
                .as_any()
                .downcast_ref::<ArcEscrow>()
                .is_some_and(|escrow| escrow.params().hashlocks.len() == 4)
        })
        .expect("clique-5 publishes four-leader arc escrows")
}

fn bench_deal_state_copies(c: &mut Criterion) {
    let world = finished_clique5();
    let snap = world.snapshot();
    let escrow = four_leader_escrow(&world);
    let mut target = World::new(1);
    let mut group = c.benchmark_group("deal_state");
    group.throughput(Throughput::Elements(COPIES));
    // The per-call rollback target `Blockchain::call` takes.
    group.bench_function("arc_escrow_clone_box", |b| {
        b.iter(|| {
            for _ in 0..COPIES {
                black_box(escrow.clone_box());
            }
        })
    });
    // What the deviation-tree sweeps pay per resumed scenario.
    group.bench_function("deal_world_restore_clique5", |b| {
        b.iter(|| {
            for _ in 0..COPIES {
                target.restore(black_box(&snap));
            }
        })
    });
    group.finish();
}

fn bench_chainsim(c: &mut Criterion) {
    bench::header("C9: substrate micro-benchmarks", &["benchmark", "see criterion output"]);
    c.bench_function("htlc_escrow_redeem_round_trip", |b| b.iter(escrow_redeem_round_trip));
    c.bench_function("ledger_transfers_1000", |b| b.iter(|| ledger_transfers(1000)));
}

criterion_group!(benches, bench_chainsim, bench_deal_state_copies);
criterion_main!(benches);
