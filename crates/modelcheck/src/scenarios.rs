//! Scenario families for the sweep engine.
//!
//! Each family maps a dense index range onto one protocol's joint-strategy
//! space and knows how to run a single scenario and judge its report. The
//! families deliberately share the [`Violation`] vocabulary (`"hedged"`,
//! `"safety"`, `"conservation"`, …) so summaries from different protocols
//! merge cleanly.

use std::collections::{BTreeMap, BTreeSet};

use chainsim::{PartyId, World};
use protocols::auction::{run_auction_shared, AuctionConfig, AuctionPrefix, AuctioneerBehaviour};
use protocols::bootstrap::{run_bootstrap_shared, BootstrapDeviation};
use protocols::broker::{broker_deal_config, BrokerConfig};
use protocols::deal::{self, run_deal_shared, DealConfig, DealReport};
use protocols::script::Strategy;
use protocols::two_party::{
    self, run_swap_shared, SwapProtocol, TwoPartyConfig, TwoPartyPrefix, TwoPartyReport,
};
use swapgraph::{Automorphism, Digraph};

use crate::engine::{FamilyScratch, ScenarioGen};
use crate::Violation;

/// The synthetic party id used for violations that concern the run as a
/// whole (conservation of funds) rather than a specific party.
pub const WHOLE_RUN: PartyId = PartyId(u32::MAX);

// ---------------------------------------------------------------------------
// Two-party swaps.
// ---------------------------------------------------------------------------

/// The full product sweep over both parties' strategy spaces for a
/// two-party swap (hedged §5.2 or base §5.1).
///
/// Each party independently ranges over the whole
/// `stop_after × timing × faults` space of its script — the hedged
/// four-step scripts give `49 × 49` scenarios, the base three-step scripts
/// `31 × 31`. The spaces are exact-length per protocol: enumerating the
/// base swap over the hedged bound would re-run behaviourally compliant
/// stop-points and double-count the compliant outcome in summaries.
#[derive(Clone, Debug)]
pub struct TwoPartySweep {
    config: TwoPartyConfig,
    hedged: bool,
    space: Vec<Strategy>,
}

impl TwoPartySweep {
    /// Sweeps the hedged two-party swap (§5.2).
    pub fn hedged(config: TwoPartyConfig) -> Self {
        TwoPartySweep { config, hedged: true, space: two_party::strategy_space() }
    }

    /// Sweeps the base (unhedged) two-party swap (§5.1) over its own
    /// (three-step) strategy space. The sweep is expected to *find*
    /// hedged-property violations: that is the paper's motivating attack.
    pub fn base(config: TwoPartyConfig) -> Self {
        TwoPartySweep { config, hedged: false, space: two_party::base_strategy_space() }
    }
}

impl ScenarioGen for TwoPartySweep {
    fn family(&self) -> String {
        format!("{} two-party swap", if self.hedged { "hedged" } else { "base" })
    }

    fn total(&self) -> usize {
        self.space.len() * self.space.len()
    }

    fn check(
        &self,
        index: usize,
        scratch: &mut World,
        cache: &mut FamilyScratch,
    ) -> Vec<Violation> {
        let alice = self.space[index / self.space.len()];
        let bob = self.space[index % self.space.len()];
        let protocol = if self.hedged { SwapProtocol::Hedged } else { SwapProtocol::Base };
        let slot = cache.get_or_default::<Option<TwoPartyPrefix>>();
        let report = run_swap_shared(scratch, &self.config, protocol, alice, bob, slot);
        // Scenario labels are only rendered for violating runs, so the
        // (overwhelmingly common) clean scenario allocates nothing here.
        let scenario = || format!("{}, alice={alice}, bob={bob}", self.family());
        judge_two_party(&report, alice, bob, &scenario)
    }
}

/// Judges one two-party report: the hedged predicate per compliant party,
/// plus conservation whenever at least one compliant party remains to
/// settle the contracts (with every party absent, value legitimately stays
/// escrowed). Shared verbatim between the enumerated sweep and the sampled
/// tier so both judge with identical predicates.
pub(crate) fn judge_two_party(
    report: &TwoPartyReport,
    alice: Strategy,
    bob: Strategy,
    scenario: &dyn Fn() -> String,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if alice.is_compliant() && !report.hedged_for_alice {
        violations.push(Violation {
            scenario: scenario(),
            party: two_party::ALICE,
            property: "hedged",
        });
    }
    if bob.is_compliant() && !report.hedged_for_bob {
        violations.push(Violation {
            scenario: scenario(),
            party: two_party::BOB,
            property: "hedged",
        });
    }
    if (alice.is_compliant() || bob.is_compliant()) && !report.payoffs.conserved() {
        violations.push(Violation {
            scenario: scenario(),
            party: WHOLE_RUN,
            property: "conservation",
        });
    }
    violations
}

// ---------------------------------------------------------------------------
// Deal-engine protocols (multi-party swaps and brokered sales).
// ---------------------------------------------------------------------------

/// How much of a deal's joint strategy space a [`DealSweep`] explores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviationBudget {
    /// The full product space: every party independently ranges over the
    /// whole strategy space, `(1 + SCRIPT_STEPS)^n` scenarios.
    Full,
    /// Profiles with at most this many parties playing something other
    /// than the canonical eager compliant strategy:
    /// `Σ_{j≤k} C(n,j)·(|space|−1)^j` scenarios. The paper's theorems are
    /// per-compliant-party, so small budgets already cover the interesting
    /// cases while keeping dense six-party graphs tractable.
    AtMost(usize),
}

/// A profile rendered as a sorted association list, the key the reduction
/// machinery uses to index canonical representatives.
type ProfileKey = Vec<(PartyId, Strategy)>;

fn profile_key(profile: &BTreeMap<PartyId, Strategy>) -> ProfileKey {
    profile.iter().map(|(&party, &strategy)| (party, strategy)).collect()
}

/// Relabels a profile's deviators through a digraph automorphism. Strategies
/// ride along untouched: an automorphism only renames parties, and the deal
/// dynamics on an automorphic relabeling are the original dynamics under
/// the same renaming (premium tables and endowments are arc-local, so a
/// leader-stabilizing relabeling maps them onto themselves).
fn apply_automorphism(
    perm: &Automorphism,
    profile: &BTreeMap<PartyId, Strategy>,
) -> BTreeMap<PartyId, Strategy> {
    profile.iter().map(|(&party, &strategy)| (PartyId(perm[&party.0]), strategy)).collect()
}

/// `true` iff `profile` has at least two deviating-or-lazy parties and
/// their deviations pairwise commute: no two of them share an arc in either
/// direction, so no escrow's fate depends on more than one of them. Such a
/// profile's outcome per compliant party is already witnessed by the
/// single-deviator sub-profiles (each arc sees exactly the same deviation
/// schedule), so partial-order reduction skips it. The `reduction_oracle`
/// tests run pruned profiles one by one to validate the criterion.
fn commuting_deviations(digraph: &Digraph, profile: &BTreeMap<PartyId, Strategy>) -> bool {
    if profile.len() < 2 {
        return false;
    }
    let deviators: Vec<PartyId> = profile.keys().copied().collect();
    deviators.iter().enumerate().all(|(i, &a)| {
        deviators[i + 1..]
            .iter()
            .all(|&b| !digraph.contains_arc(a.0, b.0) && !digraph.contains_arc(b.0, a.0))
    })
}

/// A sweep over the joint strategy profiles of one [`DealConfig`].
#[derive(Clone, Debug)]
pub struct DealSweep {
    name: String,
    config: DealConfig,
    space: Vec<Strategy>,
    budget: DeviationBudget,
    /// Materialised profile list for [`DeviationBudget::AtMost`]; `None`
    /// for full sweeps, which decode indices arithmetically instead.
    profiles: Option<Vec<BTreeMap<PartyId, Strategy>>>,
    /// Orbit weight per materialised profile for reduced sweeps; `None`
    /// means every profile weighs 1 (unreduced sweeps).
    weights: Option<Vec<usize>>,
    /// The documented size of the family's *unreduced* profile space — the
    /// closed form the orbit weights and pruned count must sum to.
    space_size: usize,
    /// Documented profiles covered without execution by partial-order
    /// reduction (orbit-weighted).
    pruned: usize,
    /// The leader-stabilizing automorphism group a reduced sweep quotients
    /// by; empty for unreduced sweeps.
    group: Vec<Automorphism>,
    /// Canonical representative profile → scenario index, for mapping
    /// arbitrary profiles onto their executed representative.
    rep_index: Option<BTreeMap<ProfileKey, usize>>,
}

impl DealSweep {
    /// Creates a sweep over `config` with the given deviation budget.
    pub fn new(name: impl Into<String>, config: DealConfig, budget: DeviationBudget) -> Self {
        let space = deal::strategy_space();
        let parties = config.parties();
        let (profiles, space_size) = match budget {
            DeviationBudget::Full => (None, space.len().pow(parties.len() as u32)),
            DeviationBudget::AtMost(max_deviators) => {
                let mut profiles = Vec::new();
                let mut current = BTreeMap::new();
                enumerate_profiles(
                    &parties,
                    &space,
                    max_deviators,
                    0,
                    &mut current,
                    &mut |profile| profiles.push(profile.clone()),
                );
                debug_assert_eq!(
                    profiles.len(),
                    bounded_profile_count(parties.len(), space.len() - 1, max_deviators),
                    "profile enumeration must match its closed form"
                );
                let space_size = profiles.len();
                (Some(profiles), space_size)
            }
        };
        DealSweep {
            name: name.into(),
            config,
            space,
            budget,
            profiles,
            weights: None,
            space_size,
            pruned: 0,
            group: Vec::new(),
            rep_index: None,
        }
    }

    /// Creates a symmetry- and partial-order-reduced sweep over the
    /// profiles of `config` with at most `max_deviators` deviators.
    ///
    /// Two reductions compose, and both are exact for the per-compliant-
    /// party properties the sweep checks:
    ///
    /// - **Symmetry.** Profiles in the same orbit of the leader-stabilizing
    ///   automorphism group of the deal digraph are relabelings of each
    ///   other, so only one canonical representative per orbit is executed.
    ///   The representative carries its orbit size as a weight, so
    ///   [`strategies`](ScenarioGen::strategies) still reports the full
    ///   unreduced space.
    /// - **Partial-order reduction.** Profiles whose deviators pairwise
    ///   share no arc decompose into independent single-deviator
    ///   sub-profiles that the budget already sweeps, so they are counted
    ///   (into the pruned tally) but never executed.
    ///
    /// The orbit weights plus the pruned tally are asserted to sum exactly
    /// to the unreduced closed form `Σ_{j≤k} C(n,j)·(|space|−1)^j`, and the
    /// `reduction_oracle` test suite runs folded orbits and pruned profiles
    /// one by one on small graphs to pin byte-level parity.
    ///
    /// # Panics
    ///
    /// Panics if `max_deviators > 2` on a digraph with a non-trivial
    /// leader-stabilizing symmetry group (the orbit enumeration is
    /// closed-form up to pairs; larger budgets fall back to
    /// [`DealSweep::at_most`] or a symmetry-free graph).
    pub fn reduced(name: impl Into<String>, config: DealConfig, max_deviators: usize) -> Self {
        let space = deal::strategy_space();
        let deviating: Vec<Strategy> =
            space.iter().copied().filter(|s| *s != Strategy::compliant()).collect();
        let parties = config.parties();
        let leader_vertices: BTreeSet<swapgraph::Vertex> =
            config.leaders.iter().map(|party| party.0).collect();
        let group = config.digraph.automorphisms_stabilizing(&leader_vertices);
        let space_size = bounded_profile_count(parties.len(), deviating.len(), max_deviators);

        let mut profiles: Vec<BTreeMap<PartyId, Strategy>> = Vec::new();
        let mut weights: Vec<usize> = Vec::new();
        let mut pruned = 0usize;

        if group.len() <= 1 {
            // No usable symmetry (e.g. a cycle whose pinned leader kills
            // every rotation): each profile is its own orbit and only
            // partial-order reduction prunes.
            let mut current = BTreeMap::new();
            enumerate_profiles(&parties, &space, max_deviators, 0, &mut current, &mut |profile| {
                if commuting_deviations(&config.digraph, profile) {
                    pruned += 1;
                } else {
                    profiles.push(profile.clone());
                    weights.push(1);
                }
            });
        } else {
            assert!(
                max_deviators <= 2,
                "symmetry-reduced sweeps support at most two simultaneous deviators"
            );
            // The all-compliant profile is a fixed point of every
            // relabeling: a one-element orbit.
            profiles.push(BTreeMap::new());
            weights.push(1);
            if max_deviators >= 1 {
                // Single deviators: one representative per party orbit,
                // weighted by the orbit size. A lone deviation never
                // commutes with anything, so POR does not apply.
                for &party in &parties {
                    let orbit: BTreeSet<PartyId> =
                        group.iter().map(|perm| PartyId(perm[&party.0])).collect();
                    if *orbit.first().expect("orbits are non-empty") != party {
                        continue;
                    }
                    for &strategy in &deviating {
                        profiles.push(BTreeMap::from([(party, strategy)]));
                        weights.push(orbit.len());
                    }
                }
            }
            if max_deviators >= 2 {
                // Deviator pairs: one representative pair per orbit of the
                // group's action on unordered pairs, with weights from
                // orbit–stabilizer. `fixes` counts elements fixing the pair
                // pointwise, `swaps` those exchanging its endpoints; a
                // profile `{a: s1, b: s2}` is additionally fixed by a swap
                // exactly when `s1 == s2`, so its orbit has size
                // `|G|/fixes` for distinct strategies and `|G|/(fixes +
                // swaps)` for equal ones. When swaps exist, the two
                // orderings of a distinct-strategy pair fold into one
                // representative.
                for (i, &a) in parties.iter().enumerate() {
                    for &b in &parties[i + 1..] {
                        let pair_orbit: BTreeSet<(PartyId, PartyId)> = group
                            .iter()
                            .map(|perm| {
                                let (x, y) = (perm[&a.0], perm[&b.0]);
                                (PartyId(x.min(y)), PartyId(x.max(y)))
                            })
                            .collect();
                        if *pair_orbit.first().expect("orbits are non-empty") != (a, b) {
                            continue;
                        }
                        let fixes =
                            group.iter().filter(|p| p[&a.0] == a.0 && p[&b.0] == b.0).count();
                        let swaps =
                            group.iter().filter(|p| p[&a.0] == b.0 && p[&b.0] == a.0).count();
                        // Orbit–stabilizer sanity: stabilizer orders divide
                        // the group order.
                        assert!(group.len().is_multiple_of(fixes + swaps));
                        assert!(group.len().is_multiple_of(fixes));
                        let distinct_weight = group.len() / fixes;
                        let equal_weight = group.len() / (fixes + swaps);
                        let adjacent = config.digraph.contains_arc(a.0, b.0)
                            || config.digraph.contains_arc(b.0, a.0);
                        if !adjacent {
                            // POR prunes the whole block: adjacency is
                            // automorphism-invariant, so the entire orbit of
                            // every assignment on this pair commutes too.
                            pruned += if swaps > 0 {
                                deviating.len() * (deviating.len() - 1) / 2 * distinct_weight
                                    + deviating.len() * equal_weight
                            } else {
                                deviating.len() * deviating.len() * distinct_weight
                            };
                            continue;
                        }
                        for (si, &s1) in deviating.iter().enumerate() {
                            for (sj, &s2) in deviating.iter().enumerate() {
                                if swaps > 0 && sj < si {
                                    continue; // folded into the (s2, s1) rep
                                }
                                let weight = if swaps > 0 && si == sj {
                                    equal_weight
                                } else {
                                    distinct_weight
                                };
                                profiles.push(BTreeMap::from([(a, s1), (b, s2)]));
                                weights.push(weight);
                            }
                        }
                    }
                }
            }
        }

        let weighted: usize = weights.iter().sum();
        assert_eq!(
            weighted + pruned,
            space_size,
            "orbit weights plus the pruned tally must sum to the closed form"
        );
        let rep_index: BTreeMap<ProfileKey, usize> = profiles
            .iter()
            .enumerate()
            .map(|(index, profile)| (profile_key(profile), index))
            .collect();
        assert_eq!(rep_index.len(), profiles.len(), "representatives must be distinct");

        DealSweep {
            name: name.into(),
            config,
            space,
            budget: DeviationBudget::AtMost(max_deviators),
            profiles: Some(profiles),
            weights: Some(weights),
            space_size,
            pruned,
            group,
            rep_index: Some(rep_index),
        }
    }

    /// A sweep over the full product strategy space.
    pub fn full(name: impl Into<String>, config: DealConfig) -> Self {
        Self::new(name, config, DeviationBudget::Full)
    }

    /// A sweep over profiles with at most `max_deviators` deviators.
    pub fn at_most(name: impl Into<String>, config: DealConfig, max_deviators: usize) -> Self {
        Self::new(name, config, DeviationBudget::AtMost(max_deviators))
    }

    /// The deal configuration this family sweeps.
    pub fn config(&self) -> &DealConfig {
        &self.config
    }

    /// The deviation budget of this family.
    pub fn budget(&self) -> DeviationBudget {
        self.budget
    }

    /// Whether this sweep was built by [`DealSweep::reduced`].
    pub fn is_reduced(&self) -> bool {
        self.weights.is_some()
    }

    /// The orbit weight of scenario `index`: how many profiles of the
    /// unreduced space the executed representative stands for. Always 1 for
    /// unreduced sweeps.
    pub fn weight(&self, index: usize) -> usize {
        self.weights.as_ref().map_or(1, |weights| weights[index])
    }

    /// Documented profiles skipped by partial-order reduction
    /// (orbit-weighted); 0 for unreduced sweeps.
    pub fn pruned_strategies(&self) -> usize {
        self.pruned
    }

    /// The leader-stabilizing automorphism group a reduced sweep quotients
    /// by (empty for unreduced sweeps).
    pub fn symmetry_group(&self) -> &[Automorphism] {
        &self.group
    }

    /// Whether partial-order reduction would skip `profile`: at least two
    /// deviating-or-lazy parties, pairwise sharing no arc.
    pub fn por_pruned(&self, profile: &BTreeMap<PartyId, Strategy>) -> bool {
        self.is_reduced() && commuting_deviations(&self.config.digraph, profile)
    }

    /// Maps an arbitrary profile onto its executed canonical representative:
    /// the scenario index plus a witnessing automorphism `π` with
    /// `π(profile) == self.profile(index)`. Returns `None` when the profile
    /// has no representative — it was pruned by partial-order reduction, or
    /// the sweep is unreduced.
    pub fn canonicalize(
        &self,
        profile: &BTreeMap<PartyId, Strategy>,
    ) -> Option<(usize, &Automorphism)> {
        let rep_index = self.rep_index.as_ref()?;
        self.group.iter().find_map(|perm| {
            let image = apply_automorphism(perm, profile);
            rep_index.get(&profile_key(&image)).map(|&index| (index, perm))
        })
    }

    /// Decodes scenario `index` into a (deviators-only) strategy profile.
    pub fn profile(&self, index: usize) -> BTreeMap<PartyId, Strategy> {
        match &self.profiles {
            Some(profiles) => profiles[index].clone(),
            None => {
                // Mixed-radix decode: party k's strategy is digit k of
                // `index` in base `space.len()`, most significant digit
                // first so profiles enumerate in lexicographic order.
                let parties = self.config.parties();
                let mut remaining = index;
                let mut profile = BTreeMap::new();
                for &party in parties.iter().rev() {
                    let strategy = self.space[remaining % self.space.len()];
                    remaining /= self.space.len();
                    // Key on exact equality with the canonical compliant
                    // strategy: a conforming-but-lazy (`+late`) party is
                    // still a distinct *behaviour* that must run, even
                    // though `is_compliant` is true for it.
                    if strategy != Strategy::compliant() {
                        profile.insert(party, strategy);
                    }
                }
                profile
            }
        }
    }
}

impl ScenarioGen for DealSweep {
    fn family(&self) -> String {
        self.name.clone()
    }

    fn total(&self) -> usize {
        match &self.profiles {
            Some(profiles) => profiles.len(),
            None => self.space.len().pow(self.config.parties().len() as u32),
        }
    }

    fn strategies(&self) -> usize {
        self.space_size
    }

    fn check(
        &self,
        index: usize,
        scratch: &mut World,
        cache: &mut FamilyScratch,
    ) -> Vec<Violation> {
        let owned_profile;
        let profile: &BTreeMap<PartyId, Strategy> = match &self.profiles {
            Some(profiles) => &profiles[index],
            None => {
                owned_profile = self.profile(index);
                &owned_profile
            }
        };
        let report = run_deal_shared(scratch, &self.config, profile, cache.get_or_default());
        // Rendered only for violating runs; clean scenarios allocate nothing.
        let scenario = || format!("{} with profile {profile:?}", self.name);
        judge_deal(&report, profile, &scenario)
    }
}

/// Judges one deal report under the per-compliant-party hedged, safety and
/// stranded-principal predicates plus the deviator-count-sensitive
/// conservation check. Shared verbatim between the enumerated sweeps and
/// the sampled tier.
pub(crate) fn judge_deal(
    report: &DealReport,
    profile: &BTreeMap<PartyId, Strategy>,
    scenario: &dyn Fn() -> String,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (party, outcome) in &report.parties {
        let compliant = profile.get(party).copied().unwrap_or(Strategy::compliant()).is_compliant();
        if compliant && !outcome.hedged {
            violations.push(Violation { scenario: scenario(), party: *party, property: "hedged" });
        }
        if compliant && !outcome.safety {
            violations.push(Violation { scenario: scenario(), party: *party, property: "safety" });
        }
        // A compliant party's settle step frees every incident arc
        // after the final deadline, so none of its principals may end
        // the run stuck in escrow — under any number of deviators.
        if compliant && outcome.escrowed_stuck > 0 {
            violations.push(Violation {
                scenario: scenario(),
                party: *party,
                property: "stranded-principal",
            });
        }
    }
    // Funds conservation (payoffs sum to zero) holds whenever at most
    // one party deviates. Several simultaneous walk-aways can strand
    // their own deposits inside escrows nobody settles — a loss to the
    // deviators, not a soundness bug — so for those profiles the check
    // weakens to "no value is ever minted" per asset (the stranded
    // value is pinned to the deviators by the stranded-principal check
    // above plus each compliant party's hedged premium bound).
    // Conforming-but-lazy parties settle everything they can reach, so
    // they do not count against the strict-conservation budget.
    let deviators = profile.values().filter(|s| !s.is_compliant()).count();
    if deviators <= 1 {
        if !report.payoffs.conserved() {
            violations.push(Violation {
                scenario: scenario(),
                party: WHOLE_RUN,
                property: "conservation",
            });
        }
    } else {
        let mut per_asset: BTreeMap<chainsim::AssetId, i128> = BTreeMap::new();
        for (_, asset, payoff) in report.payoffs.iter() {
            *per_asset.entry(asset).or_insert(0) += payoff.value();
        }
        if per_asset.values().any(|&total| total > 0) {
            violations.push(Violation {
                scenario: scenario(),
                party: WHOLE_RUN,
                property: "minting",
            });
        }
    }
    violations
}

/// The number of profiles with at most `max_deviators` deviators: each of
/// `j ≤ max_deviators` deviating parties independently picks one of
/// `deviating` non-compliant strategies. This is the closed form that
/// [`DealSweep::at_most`] executes in full and [`DealSweep::reduced`]
/// documents through orbit weights plus its pruned tally.
pub fn bounded_profile_count(parties: usize, deviating: usize, max_deviators: usize) -> usize {
    (0..=max_deviators.min(parties)).map(|j| binomial(parties, j) * deviating.pow(j as u32)).sum()
}

fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let mut result = 1usize;
    for i in 0..k {
        result = result * (n - i) / (i + 1);
    }
    result
}

fn enumerate_profiles(
    parties: &[PartyId],
    strategies: &[Strategy],
    max_deviators: usize,
    index: usize,
    profile: &mut BTreeMap<PartyId, Strategy>,
    visit: &mut impl FnMut(&BTreeMap<PartyId, Strategy>),
) {
    if index == parties.len() {
        visit(profile);
        return;
    }
    let deviators = profile.len();
    // Canonical-compliant branch (the party is simply absent from the
    // profile). Conforming-but-lazy strategies count against the budget:
    // they are distinct behaviours the sweep must run.
    enumerate_profiles(parties, strategies, max_deviators, index + 1, profile, visit);
    if deviators < max_deviators {
        for &strategy in strategies.iter().filter(|s| **s != Strategy::compliant()) {
            profile.insert(parties[index], strategy);
            enumerate_profiles(parties, strategies, max_deviators, index + 1, profile, visit);
            profile.remove(&parties[index]);
        }
    }
}

// ---------------------------------------------------------------------------
// Brokered sales (§8).
// ---------------------------------------------------------------------------

/// The brokered-sale family: a [`BrokerConfig`] swept on the
/// [`ParallelSweep`](crate::engine::ParallelSweep) engine through the
/// generic deal machinery, with pooled worlds and per-worker deviation-tree
/// prefixes — the same hot path as every other deal family. (Before this
/// family existed, brokered sales were only reachable through ad-hoc
/// `DealSweep` constructions and the non-pooled `run_brokered_sale` entry
/// point.)
#[derive(Clone, Debug)]
pub struct BrokerSweep {
    inner: DealSweep,
}

impl BrokerSweep {
    /// Sweeps the brokered sale built from `config` under the given
    /// deviation budget.
    pub fn new(config: &BrokerConfig, budget: DeviationBudget) -> Self {
        BrokerSweep { inner: DealSweep::new("brokered sale", broker_deal_config(config), budget) }
    }

    /// The default brokered sale with up to `max_deviators` simultaneous
    /// deviators.
    pub fn at_most(config: &BrokerConfig, max_deviators: usize) -> Self {
        Self::new(config, DeviationBudget::AtMost(max_deviators))
    }

    /// Decodes scenario `index` into a (deviators-only) strategy profile.
    pub fn profile(&self, index: usize) -> BTreeMap<PartyId, Strategy> {
        self.inner.profile(index)
    }
}

impl ScenarioGen for BrokerSweep {
    fn family(&self) -> String {
        self.inner.family()
    }

    fn total(&self) -> usize {
        self.inner.total()
    }

    fn strategies(&self) -> usize {
        self.inner.strategies()
    }

    fn check(
        &self,
        index: usize,
        scratch: &mut World,
        cache: &mut FamilyScratch,
    ) -> Vec<Violation> {
        self.inner.check(index, scratch, cache)
    }
}

// ---------------------------------------------------------------------------
// Premium bootstrapping (§6).
// ---------------------------------------------------------------------------

/// A sweep over the deviation space of a bootstrapped premium cascade: the
/// all-compliant run plus, per party and per level, a walk-away, a
/// deadline-edge (procrastinated) deposit and a wrong-preimage redemption
/// attempt — the cascade's projection of the `stop_after × timing × faults`
/// axes (see [`BootstrapDeviation::all`]).
///
/// `1 + 6·(rounds + 1)` scenarios per configuration.
#[derive(Clone, Copy, Debug)]
pub struct BootstrapSweep {
    /// Alice's principal.
    a: u128,
    /// Bob's principal.
    b: u128,
    /// The per-round premium ratio `P`.
    ratio: u128,
    /// Number of premium rounds (levels above the principal swap).
    rounds: u32,
}

impl BootstrapSweep {
    /// Sweeps the cascade of `a` against `b` with premium ratio `ratio`
    /// and `rounds` premium rounds.
    pub fn new(a: u128, b: u128, ratio: u128, rounds: u32) -> Self {
        BootstrapSweep { a, b, ratio, rounds }
    }

    /// Arithmetic decode of scenario `index` into its deviation — the same
    /// enumeration order as [`BootstrapDeviation::all`] (pinned by a unit
    /// test) with no per-scenario allocation on the engine's hot path.
    fn deviation_at(&self, index: usize) -> BootstrapDeviation {
        if index == 0 {
            return BootstrapDeviation::None;
        }
        let levels = self.rounds as usize + 1;
        let offset = index - 1;
        let party = PartyId((offset / (3 * levels)) as u32);
        let level = ((offset % (3 * levels)) / 3) as u32;
        match offset % 3 {
            0 => BootstrapDeviation::StopAtLevel { party, level },
            1 => BootstrapDeviation::LateAtLevel { party, level },
            _ => BootstrapDeviation::WrongSecretAtLevel { party, level },
        }
    }
}

impl ScenarioGen for BootstrapSweep {
    fn family(&self) -> String {
        format!(
            "bootstrap a={}, b={}, ratio={}, rounds={}",
            self.a, self.b, self.ratio, self.rounds
        )
    }

    fn total(&self) -> usize {
        1 + 6 * (self.rounds as usize + 1)
    }

    fn check(
        &self,
        index: usize,
        scratch: &mut World,
        cache: &mut FamilyScratch,
    ) -> Vec<Violation> {
        let deviation = self.deviation_at(index);
        let deviator = deviation.party();
        let report = run_bootstrap_shared(
            scratch,
            self.a,
            self.b,
            self.ratio,
            self.rounds,
            deviation,
            cache.get_or_default(),
        );
        let scenario = || format!("{}, deviation {deviation:?}", self.family());
        judge_bootstrap(&report, deviator, &scenario)
    }
}

/// Judges one bootstrap-cascade report: the §6 bounded-loss guarantee for
/// the compliant survivor plus pure-transfer conservation. Shared between
/// the enumerated sweep and the sampled tier.
pub(crate) fn judge_bootstrap(
    report: &protocols::bootstrap::BootstrapRunReport,
    deviator: Option<PartyId>,
    scenario: &dyn Fn() -> String,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if !report.loss_bounded_by_initial_risk {
        // The wronged party is the compliant survivor (or the whole run
        // when nobody deviated and settlement itself misbehaved).
        let victim = match deviator {
            Some(PartyId(0)) => PartyId(1),
            Some(_) => PartyId(0),
            None => WHOLE_RUN,
        };
        violations.push(Violation {
            scenario: scenario(),
            party: victim,
            property: "bounded-loss",
        });
    }
    // Every cascade settles completely, so payoffs are a pure transfer.
    if report.alice_payoff + report.bob_payoff != 0 {
        violations.push(Violation {
            scenario: scenario(),
            party: WHOLE_RUN,
            property: "conservation",
        });
    }
    violations
}

// ---------------------------------------------------------------------------
// Auctions (§9).
// ---------------------------------------------------------------------------

/// The auction sweep: every auctioneer behaviour combined with every
/// single-party deviation from the full `stop_after × timing × faults`
/// space of the three-step auction scripts.
///
/// Per behaviour: the all-compliant profile plus each party playing each
/// non-compliant strategy — `3 × (1 + parties × (|space| − 1))` scenarios.
#[derive(Clone, Debug)]
pub struct AuctionSweep {
    config: AuctionConfig,
    /// All parties (auctioneer + bidders), precomputed: `check` decodes an
    /// index on the engine's per-scenario hot path and must not allocate.
    parties: Vec<PartyId>,
    /// The non-default strategies a deviating party ranges over
    /// (everything but the canonical eager compliant strategy —
    /// conforming-but-lazy behaviour included), precomputed.
    deviating: Vec<Strategy>,
}

impl Default for AuctionSweep {
    fn default() -> Self {
        Self::new(AuctionConfig::default())
    }
}

/// Per-worker auction prefixes, one per auctioneer behaviour (the
/// behaviour changes the recorded compliant trajectory).
pub(crate) type AuctionPrefixSlots = BTreeMap<usize, Option<AuctionPrefix>>;

/// Auctioneer behaviours the sweep ranges over.
pub(crate) const BEHAVIOURS: [AuctioneerBehaviour; 3] = [
    AuctioneerBehaviour::DeclareHighBidder,
    AuctioneerBehaviour::DeclareLowBidder,
    AuctioneerBehaviour::Abandon,
];

impl AuctionSweep {
    /// Sweeps the given auction configuration (the `auctioneer` field is
    /// overridden per scenario).
    pub fn new(config: AuctionConfig) -> Self {
        let mut parties = vec![protocols::auction::AUCTIONEER];
        parties.extend(config.bidders());
        let deviating = protocols::auction::strategy_space()
            .into_iter()
            .filter(|s| *s != Strategy::compliant())
            .collect();
        AuctionSweep { config, parties, deviating }
    }

    /// Scenarios per auctioneer behaviour: all-compliant plus one per
    /// (party, deviating strategy).
    fn per_behaviour(&self) -> usize {
        1 + self.parties.len() * self.deviating.len()
    }
}

impl ScenarioGen for AuctionSweep {
    fn family(&self) -> String {
        "auction".into()
    }

    fn total(&self) -> usize {
        BEHAVIOURS.len() * self.per_behaviour()
    }

    fn check(
        &self,
        index: usize,
        scratch: &mut World,
        cache: &mut FamilyScratch,
    ) -> Vec<Violation> {
        let per_behaviour = self.per_behaviour();
        let behaviour_index = index / per_behaviour;
        let behaviour = BEHAVIOURS[behaviour_index];
        let offset = index % per_behaviour;
        let (party, strategy) = if offset == 0 {
            (None, Strategy::compliant())
        } else {
            let party = self.parties[(offset - 1) / self.deviating.len()];
            (Some(party), self.deviating[(offset - 1) % self.deviating.len()])
        };
        let config = AuctionConfig { auctioneer: behaviour, ..self.config.clone() };
        let strategies: BTreeMap<PartyId, Strategy> =
            party.map(|p| (p, strategy)).into_iter().collect();
        let slot = cache.get_or_default::<AuctionPrefixSlots>().entry(behaviour_index).or_default();
        let report = run_auction_shared(scratch, &config, &strategies, slot);
        let scenario = || match party {
            Some(party) => format!("auction {behaviour:?}, {party} plays {strategy}"),
            None => format!("auction {behaviour:?}, all compliant"),
        };
        judge_auction(&report, party, &scenario)
    }
}

/// Judges one auction report: Lemma 8's no-bid-stolen guarantee (blamed on
/// the deviator when there is exactly one) plus conservation. Shared
/// between the enumerated sweep and the sampled tier.
pub(crate) fn judge_auction(
    report: &protocols::auction::AuctionReport,
    deviator: Option<PartyId>,
    scenario: &dyn Fn() -> String,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if !report.no_bid_stolen {
        violations.push(Violation {
            scenario: scenario(),
            party: deviator.unwrap_or(WHOLE_RUN),
            property: "no-bid-stolen",
        });
    }
    if !report.payoffs.conserved() {
        violations.push(Violation {
            scenario: scenario(),
            party: WHOLE_RUN,
            property: "conservation",
        });
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocols::multi_party::figure3_config;

    #[test]
    fn two_party_total_is_the_per_party_product() {
        let gen = TwoPartySweep::hedged(TwoPartyConfig::default());
        let space = two_party::strategy_space().len();
        assert_eq!(gen.total(), space * space);
        assert_eq!(gen.family(), "hedged two-party swap");
        // The base swap sweeps its own (three-step) exact-length space so
        // behaviourally compliant stop-points are not double-counted.
        let base = TwoPartySweep::base(TwoPartyConfig::default());
        let base_space = two_party::base_strategy_space().len();
        assert!(base_space < space);
        assert_eq!(base.total(), base_space * base_space);
        assert_eq!(base.family(), "base two-party swap");
    }

    #[test]
    fn full_deal_sweep_total_is_the_per_party_product() {
        let gen = DealSweep::full("figure3", figure3_config());
        let space = deal::strategy_space().len();
        assert_eq!(gen.total(), space.pow(3));
        // Index 0 is the all-compliant profile; the last index is everyone
        // playing the last strategy of the enumerated space.
        assert!(gen.profile(0).is_empty());
        let last = gen.profile(gen.total() - 1);
        assert_eq!(last.len(), 3);
        let last_strategy = *deal::strategy_space().last().expect("space is non-empty");
        assert!(last.values().all(|s| *s == last_strategy));
    }

    #[test]
    fn bounded_deal_sweep_total_matches_the_closed_form() {
        let deviating = deal::strategy_space().len() - 1;
        for max_deviators in 0..=3usize {
            let gen = DealSweep::at_most("figure3", figure3_config(), max_deviators);
            let expected: usize =
                (0..=max_deviators.min(3)).map(|j| binomial(3, j) * deviating.pow(j as u32)).sum();
            assert_eq!(gen.total(), expected, "max_deviators={max_deviators}");
            // Every profile respects the budget.
            for index in 0..gen.total() {
                assert!(gen.profile(index).len() <= max_deviators);
            }
        }
    }

    #[test]
    fn bootstrap_and_auction_totals() {
        let gen = BootstrapSweep::new(1_000, 1_000, 10, 2);
        assert_eq!(gen.total(), 1 + 6 * 3, "stop/late/wrong-secret per party per level");
        // The hot-path arithmetic decode matches the canonical enumeration.
        let canonical = BootstrapDeviation::all(2);
        assert_eq!(gen.total(), canonical.len());
        for (index, &expected) in canonical.iter().enumerate() {
            assert_eq!(gen.deviation_at(index), expected, "index {index}");
        }
        // 3 behaviours × (all-compliant + 3 parties × 30 deviations).
        let deviating = protocols::auction::strategy_space().len() - 1;
        assert_eq!(AuctionSweep::default().total(), 3 * (1 + 3 * deviating));
    }

    #[test]
    fn broker_sweep_matches_the_deal_closed_form() {
        let deviating = deal::strategy_space().len() - 1;
        let broker = BrokerSweep::at_most(&protocols::broker::BrokerConfig::default(), 2);
        assert_eq!(broker.family(), "brokered sale");
        assert_eq!(broker.total(), 1 + 3 * deviating + 3 * deviating * deviating);
        assert!(broker.profile(0).is_empty());
    }

    #[test]
    fn reduced_family_sizes_match_their_closed_forms() {
        use protocols::multi_party::{clique_config, cycle_config};
        let deviating = deal::strategy_space().len() - 1;
        // A cycle's pinned leader kills every rotation, so only POR
        // reduces: the 4-cycle has exactly two non-adjacent party pairs
        // ((0,2) and (1,3)) and each contributes a full strategy block.
        let cycle4 = DealSweep::reduced("cycle-4", cycle_config(4), 2);
        assert!(cycle4.is_reduced());
        assert_eq!(cycle4.symmetry_group().len(), 1, "leader pin leaves only the identity");
        assert_eq!(cycle4.pruned_strategies(), 2 * deviating * deviating);
        assert_eq!(cycle4.total(), 1 + 4 * deviating + 4 * deviating * deviating);
        assert_eq!(cycle4.strategies(), bounded_profile_count(4, deviating, 2));
        // A clique's greedy leader set is all parties but one; its setwise
        // stabilizer is the full symmetric group on the leaders. Party
        // orbits: leaders and the non-leader. Pair orbits: leader–leader
        // (swappable, so unordered strategy pairs) and leader–non-leader.
        // This count is independent of n ≥ 3.
        let clique4 = DealSweep::reduced("clique-4", clique_config(4), 2);
        assert_eq!(clique4.symmetry_group().len(), 6);
        assert_eq!(clique4.pruned_strategies(), 0, "cliques have no non-adjacent pairs");
        assert_eq!(
            clique4.total(),
            1 + 2 * deviating + deviating * (deviating + 1) / 2 + deviating * deviating
        );
        assert_eq!(clique4.strategies(), bounded_profile_count(4, deviating, 2));
        let clique6 = DealSweep::reduced("clique-6", clique_config(6), 2);
        assert_eq!(clique6.total(), clique4.total(), "clique representative count is n-free");
        assert_eq!(clique6.strategies(), bounded_profile_count(6, deviating, 2));
    }

    #[test]
    fn reduced_orbit_weights_match_brute_force_on_small_graphs() {
        use protocols::multi_party::{clique_config, cycle_config, random_config};
        for (name, config) in [
            ("cycle-3", cycle_config(3)),
            ("cycle-4", cycle_config(4)),
            ("clique-3", clique_config(3)),
            ("clique-4", clique_config(4)),
            ("random-4-3-7", random_config(4, 3, 7)),
        ] {
            let reduced = DealSweep::reduced(name, config.clone(), 2);
            let unreduced = DealSweep::at_most(name, config, 2);
            assert_eq!(reduced.strategies(), unreduced.total(), "{name}");
            let weighted: usize = (0..reduced.total()).map(|i| reduced.weight(i)).sum();
            assert_eq!(weighted + reduced.pruned_strategies(), reduced.strategies(), "{name}");
            // Walk the whole unreduced space: every profile is either
            // POR-pruned or lands on exactly one representative through a
            // witnessing automorphism, and the per-representative tallies
            // recover the orbit weights.
            let mut tally = vec![0usize; reduced.total()];
            let mut pruned = 0usize;
            for index in 0..unreduced.total() {
                let profile = unreduced.profile(index);
                if reduced.por_pruned(&profile) {
                    pruned += 1;
                    assert!(
                        reduced.canonicalize(&profile).is_none(),
                        "{name}: pruned orbits must have no representative"
                    );
                    continue;
                }
                let (rep, perm) = reduced
                    .canonicalize(&profile)
                    .unwrap_or_else(|| panic!("{name}: no representative for {profile:?}"));
                assert_eq!(apply_automorphism(perm, &profile), reduced.profile(rep), "{name}");
                tally[rep] += 1;
            }
            assert_eq!(pruned, reduced.pruned_strategies(), "{name}");
            for (index, &count) in tally.iter().enumerate() {
                assert_eq!(count, reduced.weight(index), "{name} index {index}");
            }
        }
    }

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial(6, 0), 1);
        assert_eq!(binomial(6, 2), 15);
        assert_eq!(binomial(3, 3), 1);
        assert_eq!(binomial(2, 5), 0);
    }
}
