//! Shared-account-pool deal parameterization for market-scale workloads.
//!
//! Every `run_*` entry point in this crate builds a private world per
//! scenario; the market engine (`marketsim::market`) is the opposite — many
//! thousands of overlapping deals contend on the *same* sharded ledgers with
//! 100k+ accounts. This module provides the pieces that let deal instances
//! be parameterized by a shared [`AccountPool`] instead of the fixed
//! `ALICE`/`BOB` ids, and builders that anchor the §5.2 hedged-swap contract
//! schedule at an arbitrary start height instead of `Time::ZERO`.
//!
//! The deadline offsets reproduce [`crate::two_party`]'s hedged setup
//! exactly (premium 1Δ/2Δ, escrow 4Δ/3Δ, redeem 5Δ/6Δ), so a market deal's
//! contracts behave precisely like the conformance-tested ones, just shifted
//! in time and renamed in party space.

use chainsim::{Amount, AssetId, PartyId, Time};
use contracts::HedgedEscrowParams;
use cryptosim::Hashlock;
use serde::{Deserialize, Serialize};

/// A contiguous slice of the shared party-id space from which deal instances
/// draw their participants.
///
/// Party ids are dense (they index ledger columns), so a pool is just a base id
/// plus a length; drawing is O(participants) with rejection-free distinct
/// sampling for the tiny per-deal party counts (2–6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccountPool {
    base: u32,
    len: u32,
}

impl AccountPool {
    /// A pool of `len` parties starting at `PartyId(base)`.
    ///
    /// # Panics
    ///
    /// Panics if the pool would overflow the `u32` party-id space.
    pub fn new(base: u32, len: u32) -> Self {
        assert!(base.checked_add(len).is_some(), "account pool overflows party-id space");
        AccountPool { base, len }
    }

    /// The number of parties in the pool.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first party id in the pool.
    pub fn base(&self) -> PartyId {
        PartyId(self.base)
    }

    /// The `idx`-th party of the pool.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    pub fn party(&self, idx: u32) -> PartyId {
        assert!(idx < self.len, "party index {idx} out of pool of {}", self.len);
        PartyId(self.base + idx)
    }

    /// Whether `party` belongs to this pool.
    pub fn contains(&self, party: PartyId) -> bool {
        party.0 >= self.base && party.0 - self.base < self.len
    }

    /// Iterates over every party in the pool, ascending.
    pub fn iter(&self) -> impl Iterator<Item = PartyId> + '_ {
        (0..self.len).map(|i| PartyId(self.base + i))
    }

    /// Draws `count` *distinct* parties using the caller's random stream
    /// (`next` yields raw `u64`s, e.g. from a SplitMix64).
    ///
    /// Re-draws on collision, which terminates fast because deals draw a
    /// handful of parties from pools of tens of thousands.
    ///
    /// # Panics
    ///
    /// Panics if `count > len` (a distinct draw would never terminate).
    pub fn draw_distinct(&self, count: usize, mut next: impl FnMut() -> u64) -> Vec<PartyId> {
        assert!(count as u64 <= u64::from(self.len), "cannot draw {count} distinct parties");
        let mut drawn: Vec<PartyId> = Vec::with_capacity(count);
        while drawn.len() < count {
            let candidate = PartyId(self.base + (next() % u64::from(self.len)) as u32);
            if !drawn.contains(&candidate) {
                drawn.push(candidate);
            }
        }
        drawn
    }
}

/// The §5.2 hedged-swap deadline schedule, in Δ-steps from the deal's start
/// height. Mirrors [`crate::two_party`]'s hedged setup verbatim.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HedgedSwapSchedule {
    /// Leader-side (apricot) premium deadline, in Δ-steps: the follower
    /// deposits `p_b` here.
    pub leader_premium_steps: u64,
    /// Leader-side escrow deadline (`t_{a,e}`), in Δ-steps.
    pub leader_escrow_steps: u64,
    /// Leader-side redeem timelock (`t_A`), in Δ-steps.
    pub leader_redeem_steps: u64,
    /// Follower-side (banana) premium deadline: the leader deposits
    /// `p_a + p_b` here.
    pub follower_premium_steps: u64,
    /// Follower-side escrow deadline (`t_{b,e}`), in Δ-steps.
    pub follower_escrow_steps: u64,
    /// Follower-side redeem timelock (`t_B`), in Δ-steps.
    pub follower_redeem_steps: u64,
}

impl HedgedSwapSchedule {
    /// The paper's §5.2 schedule, as pinned by the two-party conformance
    /// sweeps: premiums by 2Δ/1Δ, escrows by 3Δ/4Δ, redeems by 6Δ/5Δ.
    pub const PAPER: HedgedSwapSchedule = HedgedSwapSchedule {
        leader_premium_steps: 2,
        leader_escrow_steps: 3,
        leader_redeem_steps: 6,
        follower_premium_steps: 1,
        follower_escrow_steps: 4,
        follower_redeem_steps: 5,
    };

    /// The number of Δ-steps after which both contracts of a swap following
    /// this schedule are guaranteed settleable (the later redeem timelock).
    pub fn horizon_steps(&self) -> u64 {
        self.leader_redeem_steps.max(self.follower_redeem_steps)
    }
}

/// A hedged two-party swap instance drawn from shared account pools: the
/// leader plays the paper's Alice (knows the secret, escrows on the leader
/// chain), the follower plays Bob.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HedgedSwapSpec {
    /// The secret-holding party (the paper's Alice).
    pub leader: PartyId,
    /// The counterparty (the paper's Bob).
    pub follower: PartyId,
    /// The token the leader sells, living on the leader chain.
    pub leader_token: AssetId,
    /// The token the follower sells, living on the follower chain.
    pub follower_token: AssetId,
    /// The leader chain's native currency (denominates the follower's
    /// premium deposit).
    pub leader_native: AssetId,
    /// The follower chain's native currency (denominates the leader's
    /// premium deposit).
    pub follower_native: AssetId,
    /// The leader's principal.
    pub leader_amount: Amount,
    /// The follower's principal.
    pub follower_amount: Amount,
    /// The leader's premium `p_a`.
    pub premium_leader: Amount,
    /// The follower's premium `p_b`.
    pub premium_follower: Amount,
    /// The hashlock guarding both legs.
    pub hashlock: Hashlock,
}

impl HedgedSwapSpec {
    /// Builds the leader-chain escrow parameters (leader escrows, follower
    /// deposits `p_b` and redeems), anchored at `start` with synchrony
    /// bound `delta` blocks.
    pub fn leader_leg(
        &self,
        start: Time,
        delta: u64,
        schedule: &HedgedSwapSchedule,
    ) -> HedgedEscrowParams {
        HedgedEscrowParams {
            escrower: self.leader,
            redeemer: self.follower,
            principal_asset: self.leader_token,
            principal_amount: self.leader_amount,
            premium_asset: self.leader_native,
            premium_amount: self.premium_follower,
            hashlock: self.hashlock,
            premium_deadline: start.plus(delta * schedule.leader_premium_steps),
            escrow_deadline: start.plus(delta * schedule.leader_escrow_steps),
            redeem_deadline: start.plus(delta * schedule.leader_redeem_steps),
        }
    }

    /// Builds the follower-chain escrow parameters (follower escrows, leader
    /// deposits `p_a + p_b` and redeems with the secret); see
    /// [`HedgedSwapSpec::leader_leg`].
    pub fn follower_leg(
        &self,
        start: Time,
        delta: u64,
        schedule: &HedgedSwapSchedule,
    ) -> HedgedEscrowParams {
        HedgedEscrowParams {
            escrower: self.follower,
            redeemer: self.leader,
            principal_asset: self.follower_token,
            principal_amount: self.follower_amount,
            premium_asset: self.follower_native,
            premium_amount: self.premium_leader + self.premium_follower,
            hashlock: self.hashlock,
            premium_deadline: start.plus(delta * schedule.follower_premium_steps),
            escrow_deadline: start.plus(delta * schedule.follower_escrow_steps),
            redeem_deadline: start.plus(delta * schedule.follower_redeem_steps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptosim::Secret;

    #[test]
    fn pool_indexing_and_membership() {
        let pool = AccountPool::new(100, 50);
        assert_eq!(pool.len(), 50);
        assert!(!pool.is_empty());
        assert_eq!(pool.base(), PartyId(100));
        assert_eq!(pool.party(0), PartyId(100));
        assert_eq!(pool.party(49), PartyId(149));
        assert!(pool.contains(PartyId(100)) && pool.contains(PartyId(149)));
        assert!(!pool.contains(PartyId(99)) && !pool.contains(PartyId(150)));
        assert_eq!(pool.iter().count(), 50);
        assert_eq!(pool.iter().next(), Some(PartyId(100)));
    }

    #[test]
    #[should_panic(expected = "out of pool")]
    fn pool_rejects_out_of_range_index() {
        AccountPool::new(0, 3).party(3);
    }

    #[test]
    fn draw_distinct_is_distinct_and_stream_driven() {
        let pool = AccountPool::new(10, 4);
        // A stream that collides on purpose: 0, 0, 1, 1, 2 → parties 10, 11, 12.
        let stream = [0u64, 0, 1, 1, 2];
        let mut i = 0;
        let drawn = pool.draw_distinct(3, || {
            let v = stream[i];
            i += 1;
            v
        });
        assert_eq!(drawn, vec![PartyId(10), PartyId(11), PartyId(12)]);
    }

    #[test]
    fn legs_mirror_the_two_party_schedule() {
        let secret = Secret::from_seed(3);
        let spec = HedgedSwapSpec {
            leader: PartyId(7),
            follower: PartyId(9),
            leader_token: AssetId(10),
            follower_token: AssetId(11),
            leader_native: AssetId(0),
            follower_native: AssetId(1),
            leader_amount: Amount::new(100),
            follower_amount: Amount::new(100),
            premium_leader: Amount::new(2),
            premium_follower: Amount::new(3),
            hashlock: secret.hashlock(),
        };
        let schedule = HedgedSwapSchedule::PAPER;
        // Anchored at t0 = 20 with Δ = 2.
        let leader = spec.leader_leg(Time(20), 2, &schedule);
        assert_eq!(leader.escrower, PartyId(7));
        assert_eq!(leader.redeemer, PartyId(9));
        assert_eq!(leader.premium_amount, Amount::new(3));
        assert_eq!(leader.premium_deadline, Time(24));
        assert_eq!(leader.escrow_deadline, Time(26));
        assert_eq!(leader.redeem_deadline, Time(32));
        let follower = spec.follower_leg(Time(20), 2, &schedule);
        assert_eq!(follower.escrower, PartyId(9));
        assert_eq!(follower.redeemer, PartyId(7));
        assert_eq!(follower.premium_amount, Amount::new(5));
        assert_eq!(follower.premium_deadline, Time(22));
        assert_eq!(follower.escrow_deadline, Time(28));
        assert_eq!(follower.redeem_deadline, Time(30));
        assert_eq!(schedule.horizon_steps(), 6);
    }
}
