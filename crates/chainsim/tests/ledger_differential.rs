//! Differential testing of the columnar [`Ledger`] against the map-backed
//! [`MapLedger`] oracle.
//!
//! The columnar ledger replaced the original `BTreeMap<(AccountRef,
//! AssetId), Amount>` layout on the simulator's hot path; the original
//! implementation is retained verbatim as `MapLedger` precisely so these
//! properties can pin that the two agree on arbitrary operation sequences —
//! balances, iteration order, asset lists, total supplies, and the error
//! paths — including pre-allocation and snapshot restores onto a ledger
//! that already holds other balances.

use chainsim::{AccountRef, Amount, AssetId, ContractId, Ledger, MapLedger, PartyId};
use proptest::prelude::*;
use proptest::{Strategy, TestRunner};

/// One randomly generated ledger operation.
#[derive(Clone, Debug)]
enum Op {
    Mint {
        account: AccountRef,
        asset: AssetId,
        amount: Amount,
    },
    Transfer {
        from: AccountRef,
        to: AccountRef,
        asset: AssetId,
        amount: Amount,
    },
    /// `Ledger::reserve`; the oracle has nothing to pre-allocate.
    Reserve {
        parties: usize,
        contracts: usize,
        assets: usize,
    },
    /// Saves a copy of both ledgers, as `World::snapshot` does.
    Snapshot,
    /// Restores the last saved copy with `clone_from` onto the live,
    /// already-used ledger, as `World::restore` does.
    Restore,
}

/// Draws a short sequence of operations over a deliberately small id space
/// (6 parties, 6 contracts, 5 assets, amounts 0..40) so that accounts
/// collide, transfers overdraw, and zero-value transfers occur — the full
/// behaviour surface of both implementations. One draw in eight is a
/// reservation, a snapshot or a restore.
struct OpsStrategy {
    max_len: u64,
}

fn account(bits: u64) -> AccountRef {
    if bits.is_multiple_of(2) {
        AccountRef::Party(PartyId(((bits >> 1) % 6) as u32))
    } else {
        AccountRef::Contract(ContractId((bits >> 1) % 6))
    }
}

impl Strategy for OpsStrategy {
    type Value = Vec<Op>;

    fn sample(&self, runner: &mut TestRunner) -> Vec<Op> {
        let len = runner.next_u64() % self.max_len;
        (0..len)
            .map(|_| {
                let kind = runner.next_u64();
                let asset = AssetId((runner.next_u64() % 5) as u32);
                let amount = Amount::new(u128::from(runner.next_u64() % 40));
                if kind % 8 == 7 {
                    match runner.next_u64() % 3 {
                        0 => Op::Reserve {
                            parties: (runner.next_u64() % 9) as usize,
                            contracts: (runner.next_u64() % 9) as usize,
                            assets: (runner.next_u64() % 7) as usize,
                        },
                        1 => Op::Snapshot,
                        _ => Op::Restore,
                    }
                } else if kind.is_multiple_of(3) {
                    Op::Mint { account: account(runner.next_u64()), asset, amount }
                } else {
                    Op::Transfer {
                        from: account(runner.next_u64()),
                        to: account(runner.next_u64()),
                        asset,
                        amount,
                    }
                }
            })
            .collect()
    }
}

/// The live ledgers plus the last snapshot of each.
struct Pair {
    columnar: Ledger,
    map: MapLedger,
    saved: Option<(Ledger, MapLedger)>,
}

impl Pair {
    fn new() -> Self {
        Pair { columnar: Ledger::new(), map: MapLedger::new(), saved: None }
    }

    /// Applies `op` to both ledgers, asserting identical results.
    fn apply(&mut self, op: &Op) {
        match op {
            Op::Mint { account, asset, amount } => {
                self.columnar.mint(*account, *asset, *amount);
                self.map.mint(*account, *asset, *amount);
            }
            Op::Transfer { from, to, asset, amount } => {
                let c = self.columnar.transfer(*from, *to, *asset, *amount);
                let m = self.map.transfer(*from, *to, *asset, *amount);
                assert_eq!(c, m, "results diverged for {op:?}");
            }
            Op::Reserve { parties, contracts, assets } => {
                self.columnar.reserve(*parties, *contracts, *assets);
            }
            Op::Snapshot => self.saved = Some((self.columnar.clone(), self.map.clone())),
            Op::Restore => {
                if let Some((columnar, map)) = &self.saved {
                    self.columnar.clone_from(columnar);
                    self.map = map.clone();
                }
            }
        }
    }

    /// Asserts that both ledgers are observably identical: entries in
    /// iteration order, asset lists, every balance and every total supply
    /// over (and just past) the drawn id space.
    fn assert_agree(&self, op: &Op) {
        let columnar: Vec<_> = self.columnar.iter().collect();
        let map: Vec<_> = self.map.iter().collect();
        assert_eq!(columnar, map, "iteration diverged after {op:?}");
        assert_eq!(self.columnar.assets(), self.map.assets(), "asset lists diverged after {op:?}");
        for a in 0..8u32 {
            let asset = AssetId(a);
            for id in 0..10u32 {
                for account in [
                    AccountRef::Party(PartyId(id)),
                    AccountRef::Contract(ContractId(u64::from(id))),
                ] {
                    assert_eq!(
                        self.columnar.balance(account, asset),
                        self.map.balance(account, asset),
                        "balance of {account} in {asset:?} diverged after {op:?}"
                    );
                }
            }
            assert_eq!(
                self.columnar.total_supply(asset),
                self.map.total_supply(asset),
                "supply of {asset:?} diverged after {op:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Applying any operation sequence leaves the columnar ledger and the
    /// map oracle in observably identical states after every single
    /// operation, and every intermediate result (including the
    /// insufficient-funds and zero-transfer error paths) matches exactly.
    /// Reservations are invisible, and a snapshot restored with
    /// `clone_from` onto a ledger that has since moved on is exactly the
    /// snapshot.
    #[test]
    fn dense_ledger_matches_the_map_oracle(ops in OpsStrategy { max_len: 60 }) {
        let mut pair = Pair::new();
        for op in &ops {
            pair.apply(op);
            pair.assert_agree(op);
        }
    }

    /// `clear` returns the columnar ledger to a state indistinguishable
    /// from a fresh one, so pooled worlds cannot leak state between
    /// scenarios.
    #[test]
    fn cleared_dense_ledger_behaves_like_fresh(ops in OpsStrategy { max_len: 40 }) {
        let mut pair = Pair::new();
        for op in &ops {
            pair.apply(op);
        }
        pair.columnar.clear();
        prop_assert_eq!(pair.columnar.iter().count(), 0);
        prop_assert!(pair.columnar.assets().is_empty());

        // Replay the same sequence against the cleared ledger and a fresh
        // oracle: they must agree exactly.
        let mut replay = Pair { columnar: pair.columnar, ..Pair::new() };
        for op in &ops {
            replay.apply(op);
            replay.assert_agree(op);
        }
    }
}
