//! Differential testing of the dense [`Ledger`] against the map-backed
//! [`MapLedger`] oracle.
//!
//! The dense ledger replaced the original `BTreeMap<(AccountRef, AssetId),
//! Amount>` layout on the simulator's hot path; the original implementation
//! is retained verbatim as `MapLedger` precisely so these properties can pin
//! that the two agree on arbitrary operation sequences — balances, iteration
//! order, asset lists, total supplies, and the error paths.

use chainsim::{AccountRef, Amount, AssetId, ContractId, Ledger, MapLedger, PartyId};
use proptest::prelude::*;
use proptest::{Strategy, TestRunner};

/// One randomly generated ledger operation.
#[derive(Clone, Debug)]
enum Op {
    Mint { account: AccountRef, asset: AssetId, amount: Amount },
    Transfer { from: AccountRef, to: AccountRef, asset: AssetId, amount: Amount },
}

/// Draws a short sequence of operations over a deliberately small id space
/// (6 parties, 6 contracts, 5 assets, amounts 0..40) so that accounts
/// collide, transfers overdraw, and zero-value transfers occur — the full
/// behaviour surface of both implementations.
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
                if kind.is_multiple_of(3) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Applying any operation sequence leaves the dense ledger and the map
    /// oracle in observably identical states, and every intermediate
    /// result (including the insufficient-funds and zero-transfer error
    /// paths) matches exactly.
    #[test]
    fn dense_ledger_matches_the_map_oracle(ops in OpsStrategy { max_len: 60 }) {
        let mut dense = Ledger::new();
        let mut map = MapLedger::new();
        for op in &ops {
            match op {
                Op::Mint { account, asset, amount } => {
                    dense.mint(*account, *asset, *amount);
                    map.mint(*account, *asset, *amount);
                }
                Op::Transfer { from, to, asset, amount } => {
                    let d = dense.transfer(*from, *to, *asset, *amount);
                    let m = map.transfer(*from, *to, *asset, *amount);
                    match (&d, &m) {
                        (Ok(()), Ok(())) => {}
                        (Err(de), Err(me)) => prop_assert_eq!(
                            de.clone(),
                            me.clone(),
                            "errors diverged for {:?}",
                            op
                        ),
                        _ => prop_assert!(false, "results diverged: dense={:?}, map={:?}", d, m),
                    }
                }
            }

            // Observable state agrees after every single operation.
            let dense_entries: Vec<_> = dense.iter().collect();
            let map_entries: Vec<_> = map.iter().collect();
            prop_assert_eq!(&dense_entries, &map_entries, "iteration diverged");
            prop_assert_eq!(dense.assets(), map.assets(), "asset lists diverged");
        }

        // Full cross-product of balances and supplies at the end.
        for p in 0..8u32 {
            for a in 0..6u32 {
                let party = AccountRef::Party(PartyId(p));
                let contract = AccountRef::Contract(ContractId(u64::from(p)));
                prop_assert_eq!(dense.balance(party, AssetId(a)), map.balance(party, AssetId(a)));
                prop_assert_eq!(
                    dense.balance(contract, AssetId(a)),
                    map.balance(contract, AssetId(a))
                );
                prop_assert_eq!(dense.total_supply(AssetId(a)), map.total_supply(AssetId(a)));
            }
        }
    }

    /// `clear` returns the dense ledger to a state indistinguishable from a
    /// fresh one, so pooled worlds cannot leak state between scenarios.
    #[test]
    fn cleared_dense_ledger_behaves_like_fresh(ops in OpsStrategy { max_len: 40 }) {
        let mut dense = Ledger::new();
        for op in &ops {
            match op {
                Op::Mint { account, asset, amount } => dense.mint(*account, *asset, *amount),
                Op::Transfer { from, to, asset, amount } => {
                    let _ = dense.transfer(*from, *to, *asset, *amount);
                }
            }
        }
        dense.clear();
        prop_assert_eq!(dense.iter().count(), 0);
        prop_assert!(dense.assets().is_empty());

        // Replay the same sequence against the cleared ledger and a fresh
        // oracle: they must agree exactly.
        let mut map = MapLedger::new();
        for op in &ops {
            match op {
                Op::Mint { account, asset, amount } => {
                    dense.mint(*account, *asset, *amount);
                    map.mint(*account, *asset, *amount);
                }
                Op::Transfer { from, to, asset, amount } => {
                    let d = dense.transfer(*from, *to, *asset, *amount);
                    let m = map.transfer(*from, *to, *asset, *amount);
                    prop_assert_eq!(d.is_ok(), m.is_ok());
                }
            }
        }
        let dense_entries: Vec<_> = dense.iter().collect();
        let map_entries: Vec<_> = map.iter().collect();
        prop_assert_eq!(dense_entries, map_entries);
    }
}
