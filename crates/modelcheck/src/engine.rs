//! The generic parallel sweep engine.
//!
//! A [`ScenarioGen`] describes a family of independently checkable
//! scenarios — typically one joint strategy profile per scenario — through
//! a random-access index space. The [`ParallelSweep`] fans those indices
//! out over a pool of scoped worker threads that pull chunks from a shared
//! atomic cursor (idle workers steal the next unclaimed chunk the moment
//! they finish one, so an expensive scenario never stalls the rest of the
//! sweep), and merges the results back **in index order**, so the resulting
//! [`CheckSummary`] is bit-for-bit identical no matter how many threads ran
//! the sweep.
//!
//! # Worker-local state: worlds and family caches
//!
//! Each worker owns a single *scratch* [`chainsim::World`] plus one
//! [`FamilyScratch`] cache slot per family, and hands both to every
//! scenario it runs. The world is reset (or snapshot-restored) rather than
//! rebuilt, so ledgers, contract stores and trace buffers are allocated
//! once per worker; the family slot is where prefix-sharing families keep
//! their per-worker deviation tree — the recorded compliant prefix whose
//! checkpoints ([`chainsim::World::snapshot`]) every deviation scenario
//! resumes from instead of replaying the shared prefix (see
//! [`crate::scenarios`]).
//!
//! # Determinism contract
//!
//! `check(i, ..)` must depend only on `i`, `&self` and — for performance,
//! never for results — the worker-local scratch state. Snapshots restore
//! bit-identical world state, checkpointed scripts fork from recorded
//! positions, and every cache entry memoises a pure function, so a
//! scenario's violations are identical whether its prefix was shared or
//! replayed, whatever worker ran it, in whatever order. The `replay_oracle`
//! tests pin the first half by diffing every family's reports against
//! from-scratch replays; the `parallel` tests pin the second by diffing
//! whole summaries across thread counts and chunk sizes.
//!
//! Scratch worlds default to [`TraceMode::Off`] — sweeps judge reports and
//! payoffs, never rendered traces — which skips event construction
//! entirely; [`ParallelSweep::trace_mode`] can opt back into full traces,
//! and the summary is identical either way. The only shared state is the
//! immutable generator and the chunk cursor, which is why the engine needs
//! no locks and no dependencies beyond `std::thread::scope`.

use std::any::Any;
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

use chainsim::{SimCaches, TraceMode, World};

use crate::{CheckSummary, Violation};

/// A worker-local, type-erased cache slot owned by one (worker, family)
/// pair.
///
/// Families use it to keep state that is expensive to build and reusable
/// across the scenarios one worker runs — prefix-sharing families store
/// their recorded compliant prefix here. The slot must only ever hold
/// *performance* state: anything in it is rebuilt from scratch by a fresh
/// worker, and results must be identical either way.
#[derive(Default)]
pub struct FamilyScratch(SimCaches);

impl FamilyScratch {
    /// Returns the slot's cache of type `T`, creating it on first use.
    ///
    /// Backed by the same `TypeId`-keyed store as [`chainsim::SimCaches`],
    /// so a family may keep several independently typed caches in its slot
    /// without them evicting each other.
    pub fn get_or_default<T: Any + Default + Send>(&mut self) -> &mut T {
        self.0.get_or_default::<T>()
    }
}

impl fmt::Debug for FamilyScratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FamilyScratch").field("caches", &self.0).finish()
    }
}

/// A family of model-checking scenarios with random-access indexing.
///
/// Implementations must be cheap to index: `check(i, ..)` is called from
/// worker threads in arbitrary order and must depend only on `i`, `&self`
/// and the (reset) scratch state — never on mutable state that could alter
/// results — which is what makes sweeps deterministic.
pub trait ScenarioGen: Sync {
    /// Short human-readable name of the scenario family, used in reports.
    fn family(&self) -> String;

    /// The number of scenarios in this family.
    ///
    /// For full-product sweeps this is exactly the product of per-party
    /// strategy-space sizes; bounded-deviator sweeps document their own
    /// closed form. Either way, a sweep performs exactly `total()` runs.
    fn total(&self) -> usize;

    /// The number of joint strategy profiles this family *documents*.
    ///
    /// Defaults to [`total`](ScenarioGen::total): for unreduced families
    /// every documented profile is executed. Symmetry- and
    /// partial-order-reduced families return the full closed-form space
    /// size instead — each executed representative carries its orbit
    /// weight, and commuting-deviation profiles pruned without execution
    /// still count — so `strategies() >= total()` always, and summaries
    /// report coverage of the *unreduced* space.
    fn strategies(&self) -> usize {
        self.total()
    }

    /// Runs scenario `index` (`0 <= index < total()`) inside the worker's
    /// scratch world and returns every property violation it exhibits.
    ///
    /// The scratch world arrives in an arbitrary prior state; the scenario
    /// must pass it to a `*_in`/`*_shared` protocol entry point (which
    /// resets or restores it) or reset it itself. `cache` is this worker's
    /// [`FamilyScratch`] for this family. The result must be identical for
    /// any prior state, any cache contents and any [`TraceMode`].
    fn check(&self, index: usize, scratch: &mut World, cache: &mut FamilyScratch)
        -> Vec<Violation>;
}

/// A deterministic parallel sweep runner.
///
/// # Examples
///
/// ```
/// use modelcheck::engine::ParallelSweep;
/// use modelcheck::scenarios::TwoPartySweep;
///
/// let gen = TwoPartySweep::hedged(Default::default());
/// let serial = ParallelSweep::new(1).run(&gen);
/// let parallel = ParallelSweep::new(4).run(&gen);
/// assert_eq!(serial.runs, 49 * 49, "the full per-party strategy product, squared");
/// assert!(serial.holds());
/// // Determinism: thread count never changes the summary.
/// assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ParallelSweep {
    threads: usize,
    /// Scenarios per steal; `None` auto-tunes per sweep (see
    /// [`ParallelSweep::chunk_size`] for the policy).
    chunk: Option<usize>,
    trace: TraceMode,
}

impl Default for ParallelSweep {
    fn default() -> Self {
        Self::with_available_parallelism()
    }
}

/// With auto-tuned chunks, each worker steals about this many chunks over a
/// sweep: enough steals that an unlucky worker can shed load to idle ones,
/// few enough that cursor traffic stays negligible and consecutive indices
/// (which share a family's deviation-tree prefix) stay on one worker.
const TARGET_STEALS_PER_WORKER: usize = 8;

/// Auto-tuned chunks never exceed this, so even enormous families keep
/// stealing often enough to balance unequal scenario costs.
const MAX_AUTO_CHUNK: usize = 64;

impl ParallelSweep {
    /// Creates a sweep runner with a fixed worker count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a sweep needs at least one worker");
        ParallelSweep { threads, chunk: None, trace: TraceMode::Off }
    }

    /// Creates a sweep runner sized to the machine.
    ///
    /// Uses every available hardware thread. Earlier revisions capped the
    /// pool at 8 workers because fixed per-run setup costs dominated small
    /// sweeps; with per-worker snapshot-sharing caches and auto-tuned chunk
    /// sizes the engine scales with the machine, so the cap is gone —
    /// scenario runs are CPU-bound, and `available_parallelism` is exactly
    /// the number of them that can make progress at once.
    pub fn with_available_parallelism() -> Self {
        let threads = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
        Self::new(threads)
    }

    /// Overrides the number of scenarios a worker claims per steal.
    ///
    /// Smaller chunks balance unequal scenario costs better; larger chunks
    /// reduce cursor contention and keep index-adjacent scenarios (which
    /// share a deviation-tree prefix) on one worker. By default the chunk
    /// is auto-tuned per sweep to `total / (threads × 8)`, clamped to
    /// `1..=64` — about eight steals per worker. The result of the sweep is
    /// identical for every chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn chunk_size(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "chunks must hold at least one scenario");
        self.chunk = Some(chunk);
        self
    }

    /// Overrides the [`TraceMode`] of the workers' scratch worlds.
    ///
    /// Sweeps default to [`TraceMode::Off`]; the summary is bit-for-bit
    /// identical under both modes (pinned by tests), so [`TraceMode::Full`]
    /// is only useful when debugging a scenario interactively.
    pub fn trace_mode(mut self, trace: TraceMode) -> Self {
        self.trace = trace;
        self
    }

    /// The number of worker threads this runner spawns.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The chunk size this runner would use for a sweep of `total`
    /// scenarios (auto-tuned unless overridden via
    /// [`ParallelSweep::chunk_size`]).
    pub fn effective_chunk(&self, total: usize) -> usize {
        self.chunk.unwrap_or_else(|| {
            (total / (self.threads * TARGET_STEALS_PER_WORKER)).clamp(1, MAX_AUTO_CHUNK)
        })
    }

    /// Sweeps a single scenario family.
    pub fn run(&self, gen: &dyn ScenarioGen) -> CheckSummary {
        self.run_all(&[gen])
    }

    /// Sweeps several scenario families as one work pool.
    ///
    /// Families share the worker pool (a long tail in one family is
    /// absorbed by workers finishing another), and the merged summary lists
    /// violations grouped by family, in each family's index order —
    /// independent of thread count and chunk size.
    pub fn run_all(&self, gens: &[&dyn ScenarioGen]) -> CheckSummary {
        // Concatenate the families into one global index space.
        let mut offsets = Vec::with_capacity(gens.len());
        let mut total = 0usize;
        let mut strategies = 0usize;
        for gen in gens {
            offsets.push(total);
            total += gen.total();
            strategies += gen.strategies();
        }

        let cursor = AtomicUsize::new(0);
        let chunk = self.effective_chunk(total);
        // Never spawn more workers than there are chunks of work: surplus
        // workers would only pay the scratch-world and prefix-recording
        // setup to then go idle. Results are identical for any pool size.
        let workers = self.threads.min(total.div_ceil(chunk)).max(1);
        let trace = self.trace;
        let mut found: Vec<(usize, Vec<Violation>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let offsets = &offsets;
                    scope.spawn(move || {
                        // One scratch world and one cache slot per family,
                        // per worker: every scenario this worker claims
                        // reuses their allocations and prefix caches.
                        let mut scratch = World::with_trace(1, trace);
                        let mut slots: Vec<FamilyScratch> =
                            gens.iter().map(|_| FamilyScratch::default()).collect();
                        let mut local: Vec<(usize, Vec<Violation>)> = Vec::new();
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= total {
                                break;
                            }
                            for index in start..(start + chunk).min(total) {
                                let family = match offsets.binary_search(&index) {
                                    Ok(exact) => exact,
                                    Err(insert) => insert - 1,
                                };
                                let violations = gens[family].check(
                                    index - offsets[family],
                                    &mut scratch,
                                    &mut slots[family],
                                );
                                if !violations.is_empty() {
                                    local.push((index, violations));
                                }
                            }
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("sweep worker panicked"))
                .collect()
        });

        // Deterministic merge: global index order, regardless of which
        // worker ran which chunk.
        found.sort_by_key(|(index, _)| *index);
        CheckSummary {
            runs: total,
            strategies,
            violations: found.into_iter().flat_map(|(_, violations)| violations).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainsim::PartyId;

    /// A synthetic family: scenario `i` violates iff `i` is divisible by 7.
    struct Synthetic {
        total: usize,
    }

    impl ScenarioGen for Synthetic {
        fn family(&self) -> String {
            "synthetic".into()
        }
        fn total(&self) -> usize {
            self.total
        }
        fn check(
            &self,
            index: usize,
            _scratch: &mut World,
            cache: &mut FamilyScratch,
        ) -> Vec<Violation> {
            // Exercise the worker-local cache slot: a counter of how many
            // scenarios this worker ran must never influence results.
            *cache.get_or_default::<usize>() += 1;
            if index.is_multiple_of(7) {
                vec![Violation {
                    scenario: format!("synthetic #{index}"),
                    party: PartyId(index as u32),
                    property: "synthetic",
                }]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn sweep_is_deterministic_across_thread_and_chunk_counts() {
        let gen = Synthetic { total: 100 };
        let baseline = ParallelSweep::new(1).run(&gen);
        assert_eq!(baseline.runs, 100);
        assert_eq!(baseline.strategies, 100);
        assert_eq!(baseline.violations.len(), 15, "0, 7, …, 98");
        for threads in [2, 3, 8] {
            for chunk in [1, 4, 33, 1000] {
                let summary = ParallelSweep::new(threads).chunk_size(chunk).run(&gen);
                assert_eq!(format!("{summary:?}"), format!("{baseline:?}"));
            }
        }
    }

    #[test]
    fn auto_chunk_targets_a_handful_of_steals_per_worker() {
        let sweep = ParallelSweep::new(2);
        assert_eq!(sweep.effective_chunk(0), 1);
        assert_eq!(sweep.effective_chunk(16), 1);
        assert_eq!(sweep.effective_chunk(432), 27);
        assert_eq!(sweep.effective_chunk(1_000_000), 64, "clamped");
        assert_eq!(sweep.chunk_size(4).effective_chunk(1_000_000), 4, "override wins");
    }

    #[test]
    fn family_scratch_is_typed_and_reusable() {
        let mut slot = FamilyScratch::default();
        *slot.get_or_default::<usize>() += 2;
        assert_eq!(*slot.get_or_default::<usize>(), 2);
        // Distinct types coexist in one slot without evicting each other.
        *slot.get_or_default::<u32>() += 9;
        assert_eq!(*slot.get_or_default::<usize>(), 2);
        assert_eq!(*slot.get_or_default::<u32>(), 9);
        assert!(format!("{slot:?}").contains("FamilyScratch"));
    }

    #[test]
    fn run_all_concatenates_families_in_order() {
        let a = Synthetic { total: 10 };
        let b = Synthetic { total: 8 };
        let summary = ParallelSweep::new(4).run_all(&[&a, &b]);
        assert_eq!(summary.runs, 18);
        // Violations: family a at 0 and 7, then family b at 0 and 7.
        let parties: Vec<u32> = summary.violations.iter().map(|v| v.party.0).collect();
        assert_eq!(parties, vec![0, 7, 0, 7]);
    }

    #[test]
    fn empty_family_list_yields_empty_summary() {
        let summary = ParallelSweep::new(4).run_all(&[]);
        assert_eq!(summary.runs, 0);
        assert!(summary.holds());
    }

    #[test]
    fn trace_mode_does_not_change_the_summary() {
        let gen = Synthetic { total: 50 };
        let off = ParallelSweep::new(2).run(&gen);
        let full = ParallelSweep::new(2).trace_mode(TraceMode::Full).run(&gen);
        assert_eq!(off, full);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_is_rejected() {
        let _ = ParallelSweep::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one scenario")]
    fn zero_chunk_is_rejected() {
        let _ = ParallelSweep::new(1).chunk_size(0);
    }
}
