//! State isolation of the arc escrow's copy-on-write state.
//!
//! An [`ArcEscrow`] shares its parameters and its per-leader table between
//! clones and copies the table on the first write. Every copy the chain
//! simulator takes must stay independent of the live contract: the
//! rollback copy a call takes (`clone_box`) and a [`World::snapshot`] taken
//! before the call must both still report the pre-call state afterwards,
//! whether the call succeeded or was rejected, and a rejected call must
//! leave the live contract at its pre-call state too. The suite walks a
//! four-leader escrow through every [`ArcEscrowMsg`] variant, accepted and
//! rejected, and checks every getter for every party.

use std::sync::Arc;

use chainsim::{AccountRef, Amount, AssetId, ContractAddr, PartyId, Time, World};
use contracts::{
    ArcDeadlines, ArcEscrow, ArcEscrowMsg, ArcEscrowParams, Hashkey, HashkeyVerifyCache, PartyKeys,
    PremiumSlotState, PrincipalState,
};
use cryptosim::{KeyPair, Secret};
use swapgraph::Digraph;

/// Parties of the five-party clique; the escrow guards arc (0, 1).
const PARTIES: u32 = 5;
const SENDER: PartyId = PartyId(0);
const RECEIVER: PartyId = PartyId(1);
/// The four leaders, in ascending order.
const LEADERS: [PartyId; 4] = [PartyId(1), PartyId(2), PartyId(3), PartyId(4)];
/// An account outside the deal, used to drain the escrow.
const OUTSIDER: PartyId = PartyId(9);
const FINAL: Time = Time(25);

struct Fixture {
    world: World,
    addr: ContractAddr,
    token: AssetId,
    native: AssetId,
    secrets: Vec<Secret>,
    pairs: Vec<KeyPair>,
}

/// Arc (0, 1) of a complete digraph on five parties with leaders 1–4, on
/// its own chain. Δ = 1: escrow premiums before 5, redemption premiums
/// before 10, the asset before 15, hashkeys before `15 + ℓ`, and
/// everything settles from 25.
fn setup() -> Fixture {
    let mut world = World::new(1);
    let chain = world.add_chain("clique");
    let native = world.chain(chain).native_asset();
    let token = world.register_asset("token");
    world.chain_mut(chain).mint(SENDER, token, Amount::new(100));
    world.chain_mut(chain).mint(SENDER, native, Amount::new(100));
    world.chain_mut(chain).mint(RECEIVER, native, Amount::new(100));

    let mut keys = PartyKeys::new();
    let mut pairs = Vec::new();
    for i in 0..PARTIES {
        let pair = KeyPair::from_seed(u64::from(i));
        world.directory_mut().register(&pair);
        keys.insert(PartyId(i), pair.public());
        pairs.push(pair);
    }
    let secrets: Vec<Secret> =
        LEADERS.iter().map(|l| Secret::from_seed(100 + u64::from(l.0))).collect();
    let escrow = ArcEscrow::new(ArcEscrowParams {
        sender: SENDER,
        receiver: RECEIVER,
        asset: token,
        amount: Amount::new(100),
        premium_asset: native,
        base_premium: Amount::new(1),
        escrow_premium: Amount::new(5),
        // Listed out of order: the escrow keeps its own table sorted.
        hashlocks: Arc::new(
            [3, 1, 4, 2].iter().map(|&i| (LEADERS[i - 1], secrets[i - 1].hashlock())).collect(),
        ),
        digraph: Arc::new(Digraph::complete(PARTIES)),
        keys: Arc::new(keys),
        deadlines: ArcDeadlines {
            escrow_premium_deadline: Time(5),
            redemption_premium_deadline: Time(10),
            asset_escrow_deadline: Time(15),
            hashkey_timeout_base: Time(15),
            delta_blocks: 1,
            final_deadline: FINAL,
        },
        verify_cache: HashkeyVerifyCache::new(),
        premium_evaluator: Arc::default(),
    });
    let addr = world.publish_labeled(chain, SENDER, "arc-01", Box::new(escrow));
    Fixture { world, addr, token, native, secrets, pairs }
}

/// The receiver's path to `leader`: `(1)` for the receiver itself,
/// `(1, leader)` otherwise.
fn path_to(leader: PartyId) -> Vec<PartyId> {
    if leader == RECEIVER {
        vec![RECEIVER]
    } else {
        vec![RECEIVER, leader]
    }
}

/// `leader`'s hashkey extended back along [`path_to`].
fn hashkey_for(f: &Fixture, leader: PartyId) -> Hashkey {
    let secret = f.secrets[leader.0 as usize - 1].clone();
    let key = Hashkey::from_leader(leader, secret, &f.pairs[leader.0 as usize]);
    if leader == RECEIVER {
        key
    } else {
        key.extend(RECEIVER, &f.pairs[RECEIVER.0 as usize])
    }
}

/// Every getter of one party's slot.
#[derive(Debug, PartialEq)]
struct PartyView {
    redemption_state: PremiumSlotState,
    redemption_amount: Amount,
    redemption_path: Option<Vec<PartyId>>,
    presented: bool,
    secret: Option<Secret>,
    hashkey: Option<Hashkey>,
}

/// Every getter of the escrow, per-leader ones for every party.
#[derive(Debug, PartialEq)]
struct View {
    escrow_premium: PremiumSlotState,
    principal: PrincipalState,
    activated: bool,
    all_presented: bool,
    escrowed_at: Option<Time>,
    settled_at: Option<Time>,
    parties: Vec<PartyView>,
}

fn view(escrow: &ArcEscrow) -> View {
    View {
        escrow_premium: escrow.escrow_premium_state(),
        principal: escrow.principal_state(),
        activated: escrow.escrow_premium_activated(),
        all_presented: escrow.all_hashkeys_presented(),
        escrowed_at: escrow.escrowed_at(),
        settled_at: escrow.settled_at(),
        parties: (0..PARTIES)
            .map(PartyId)
            .map(|p| PartyView {
                redemption_state: escrow.redemption_premium_state(p),
                redemption_amount: escrow.redemption_premium_amount(p),
                redemption_path: escrow.redemption_premium_path(p).map(<[PartyId]>::to_vec),
                presented: escrow.hashkey_presented(p),
                secret: escrow.revealed_secret(p).cloned(),
                hashkey: escrow.presented_hashkey(p).cloned(),
            })
            .collect(),
    }
}

fn escrow(f: &Fixture) -> &ArcEscrow {
    f.world.chain(f.addr.chain).contract_as::<ArcEscrow>(f.addr.contract).unwrap()
}

/// Every party's and the contract's balance in both assets.
fn balances(f: &Fixture) -> Vec<Amount> {
    let chain = f.world.chain(f.addr.chain);
    let accounts = (0..PARTIES)
        .chain([OUTSIDER.0])
        .map(|p| AccountRef::Party(PartyId(p)))
        .chain([AccountRef::Contract(f.addr.contract)]);
    accounts.flat_map(|a| [chain.balance(a, f.token), chain.balance(a, f.native)]).collect()
}

/// Calls the escrow, asserting the call's outcome and that neither the
/// pre-call `clone_box` copy nor a pre-call snapshot observes its effects.
/// A rejected call must also leave the live contract and every balance as
/// they were. The world is left in its post-call state.
fn checked_call(f: &mut Fixture, caller: PartyId, msg: ArcEscrowMsg, accept: bool) {
    let before = view(escrow(f));
    let balances_before = balances(f);
    let backup = f.world.chain(f.addr.chain).contract(f.addr.contract).unwrap().clone_box();
    let snap = f.world.snapshot();

    let result = f.world.call(caller, f.addr, &msg, "checked");
    assert_eq!(result.is_ok(), accept, "{msg:?} by {caller}: {result:?}");

    let backup = backup.as_any().downcast_ref::<ArcEscrow>().unwrap();
    assert_eq!(view(backup), before, "rollback copy observed {msg:?}");
    if !accept {
        assert_eq!(view(escrow(f)), before, "rejected {msg:?} left contract residue");
        assert_eq!(balances(f), balances_before, "rejected {msg:?} moved a balance");
    }
    let after = f.world.snapshot();
    f.world.restore(&snap);
    assert_eq!(view(escrow(f)), before, "snapshot observed {msg:?}");
    assert_eq!(balances(f), balances_before);
    f.world.restore(&after);
}

/// Deposits the escrow premium, every leader's redemption premium, escrows
/// the asset and presents the first two leaders' hashkeys, checking every
/// call (and a rejected twin of each) on the way.
fn run_to_final_deadline(f: &mut Fixture) {
    use ArcEscrowMsg::*;
    checked_call(f, RECEIVER, DepositEscrowPremium, false);
    checked_call(f, SENDER, DepositEscrowPremium, true);
    checked_call(f, SENDER, DepositEscrowPremium, false);
    for leader in LEADERS {
        let path = path_to(leader);
        checked_call(f, SENDER, DepositRedemptionPremium { leader, path: path.clone() }, false);
        checked_call(f, RECEIVER, DepositRedemptionPremium { leader, path: path.clone() }, true);
        // Rejected after the slot was written: a duplicate deposit.
        checked_call(f, RECEIVER, DepositRedemptionPremium { leader, path }, false);
    }
    checked_call(
        f,
        RECEIVER,
        DepositRedemptionPremium { leader: SENDER, path: vec![RECEIVER] },
        false,
    );
    checked_call(f, RECEIVER, EscrowAsset, false);
    checked_call(f, SENDER, EscrowAsset, true);
    checked_call(f, SENDER, Settle, false);
    for leader in &LEADERS[..2] {
        let hashkey = hashkey_for(f, *leader);
        let forged =
            Hashkey::from_leader(*leader, Secret::from_seed(999), &f.pairs[leader.0 as usize]);
        checked_call(f, RECEIVER, PresentHashkey { hashkey: forged }, false);
        checked_call(f, RECEIVER, PresentHashkey { hashkey: hashkey.clone() }, true);
        checked_call(f, RECEIVER, PresentHashkey { hashkey }, false);
    }
    let now = f.world.chain(f.addr.chain).height();
    f.world.advance_blocks(FINAL.0 - now.0);
}

#[test]
fn copies_taken_before_every_call_keep_the_pre_call_state() {
    let mut f = setup();
    run_to_final_deadline(&mut f);
    let e = escrow(&f);
    assert!(e.escrow_premium_activated());
    assert_eq!(e.escrow_premium_state(), PremiumSlotState::Refunded);
    for leader in LEADERS {
        let presented = leader.0 <= 2;
        assert_eq!(e.hashkey_presented(leader), presented);
        assert_eq!(e.redemption_premium_path(leader), Some(&path_to(leader)[..]));
        let expected = if presented { PremiumSlotState::Refunded } else { PremiumSlotState::Held };
        assert_eq!(e.redemption_premium_state(leader), expected);
    }
    assert_eq!(e.revealed_secret(LEADERS[0]), Some(&f.secrets[0]));

    checked_call(&mut f, SENDER, ArcEscrowMsg::Settle, true);
    let e = escrow(&f);
    assert_eq!(e.principal_state(), PrincipalState::Refunded);
    for leader in &LEADERS[2..] {
        assert_eq!(e.redemption_premium_state(*leader), PremiumSlotState::PaidToCounterparty);
    }
    checked_call(&mut f, SENDER, ArcEscrowMsg::Settle, false);
}

#[test]
fn settle_failing_after_a_leader_slot_was_written_rolls_back() {
    let mut f = setup();
    run_to_final_deadline(&mut f);
    // The escrow holds the premiums of the two unpresented leaders, 3 and 4.
    let (first, second) = (LEADERS[2], LEADERS[3]);
    let e = escrow(&f);
    let (first_premium, second_premium) =
        (e.redemption_premium_amount(first), e.redemption_premium_amount(second));
    let contract = AccountRef::Contract(f.addr.contract);
    let chain = f.addr.chain;
    assert_eq!(f.world.chain(chain).balance(contract, f.native), first_premium + second_premium);
    // Drain it to exactly the first leader's premium: settle pays leader 3,
    // writing its slot, then fails to pay leader 4.
    f.world
        .chain_mut(chain)
        .ledger_mut()
        .transfer(contract, AccountRef::Party(OUTSIDER), f.native, second_premium)
        .unwrap();

    checked_call(&mut f, SENDER, ArcEscrowMsg::Settle, false);
    let e = escrow(&f);
    assert_eq!(e.redemption_premium_state(first), PremiumSlotState::Held);
    assert_eq!(e.redemption_premium_state(second), PremiumSlotState::Held);
    assert_eq!(e.principal_state(), PrincipalState::Held);
    assert_eq!(f.world.chain(chain).balance(contract, f.native), first_premium);
}
