//! The two model-checking workloads and their traced drive.
//!
//! `mc_exhaustive` sweeps complete deviation families, where deviation-tree
//! resume and world snapshots on small worlds do the work. `mc_sampled`
//! sweeps seeded random profiles with long delay and outage tails plus the
//! margin-1 reorg family, which replays every sample in full through
//! finality windows.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use chainsim::World;
use modelcheck::engine::{FamilyScratch, ParallelSweep, ScenarioGen};
use modelcheck::sampled::{SampledSweep, MAX_REORG_DEPTH};
use modelcheck::scenarios::{bounded_profile_count, TwoPartySweep};
use modelcheck::{multi_party_families, sampled_families, CheckSummary, Violation};
use protocols::script::Strategy;
use protocols::two_party::TwoPartyConfig;

use crate::spans::{planted, Layer, Plant, SpanLog};
use crate::stats::{secs, Dist, Metrics};

/// Samples per sampled family; seven families make 210,000 runs.
pub const SAMPLES: usize = 30_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sweep {
    Exhaustive,
    Sampled,
}

impl Sweep {
    /// The metric-name prefix of this sweep's traced drive.
    pub fn tag(self) -> &'static str {
        match self {
            Sweep::Exhaustive => "exh",
            Sweep::Sampled => "smp",
        }
    }
}

/// One scenario family with the counts its closed form predicts.
pub struct Family {
    pub slug: &'static str,
    pub gen: Box<dyn ScenarioGen>,
    /// Exact runs; `None` for symmetry-reduced families, whose
    /// representative count is the reduction's own output.
    pub runs: Option<usize>,
    pub strategies: usize,
    /// Whether every violation is a failed check. The margin-1 reorg
    /// family is documented to hold but does not; its violations are the
    /// checker's correct verdict on a known protocol defect, reported with
    /// reproduction keys rather than failed.
    pub must_hold: bool,
}

fn deal_deviating() -> usize {
    protocols::deal::strategy_space().len() - 1
}

/// Builds the families of `sweep`. This is the sweep's set-up.
pub fn families(sweep: Sweep, seed: u64) -> Vec<Family> {
    match sweep {
        Sweep::Exhaustive => {
            let mut out = Vec::new();
            for (n, slugs) in [(3u32, ["cycle-3", "clique-3"]), (5, ["cycle-5", "clique-5"])] {
                let strategies = bounded_profile_count(n as usize, deal_deviating(), 2);
                for (gen, slug) in multi_party_families(n).into_iter().zip(slugs) {
                    let runs = (!gen.is_reduced()).then_some(strategies);
                    out.push(Family {
                        slug,
                        gen: Box::new(gen),
                        runs,
                        strategies,
                        must_hold: true,
                    });
                }
            }
            let space = Strategy::space_size(protocols::two_party::SCRIPT_STEPS);
            out.push(Family {
                slug: "two-party",
                gen: Box::new(TwoPartySweep::hedged(TwoPartyConfig::default())),
                runs: Some(space * space),
                strategies: space * space,
                must_hold: true,
            });
            out
        }
        Sweep::Sampled => {
            let slugs = ["base-2p", "hedged-2p", "figure3", "cycle-5", "auction", "bootstrap"];
            let mut out: Vec<Family> = sampled_families(seed, SAMPLES)
                .into_iter()
                .zip(slugs)
                .map(|(gen, slug)| Family {
                    slug,
                    gen,
                    runs: Some(SAMPLES),
                    strategies: SAMPLES,
                    must_hold: true,
                })
                .collect();
            let margin_one = TwoPartyConfig {
                finality_margin: u64::from(MAX_REORG_DEPTH - 1),
                ..TwoPartyConfig::default()
            };
            out.push(Family {
                slug: "reorg-m1",
                gen: Box::new(SampledSweep::hedged_two_party_reorgs(margin_one, seed, SAMPLES)),
                runs: Some(SAMPLES),
                strategies: SAMPLES,
                must_hold: false,
            });
            out
        }
    }
}

/// What the checks of one sweep found.
#[derive(Debug, Default)]
pub struct Checked {
    pub runs: usize,
    pub strategies: usize,
    /// Distinct violating scenarios in families asserted to hold: checks
    /// whose verdict is wrong.
    pub failed: usize,
    /// Distinct violating scenarios in families not asserted to hold: the
    /// known defect.
    pub known_defect: usize,
    /// Reproduction keys (`[seed=…, sample=…]`) of the known-defect
    /// scenarios, with the party and property each violates.
    pub keys: Vec<String>,
    pub problems: Vec<String>,
}

/// The family whose name is the longest prefix of a violation's label.
fn family_of<'a>(families: &'a [Family], violation: &Violation) -> &'a Family {
    families
        .iter()
        .filter(|f| violation.scenario.starts_with(&f.gen.family()))
        .max_by_key(|f| f.gen.family().len())
        .expect("every violation names its family")
}

/// Checks a summary against the families' closed forms and hold promises.
pub fn check(families: &[Family], summary: &CheckSummary) -> Checked {
    let mut problems = Vec::new();
    let mut runs = 0;
    for family in families {
        let total = family.gen.total();
        match family.runs {
            Some(expected) if expected != total => {
                problems.push(format!("{}: {total} runs, closed form {expected}", family.slug))
            }
            None if total >= family.strategies => problems.push(format!(
                "{}: reduced family runs {total} of {} profiles",
                family.slug, family.strategies
            )),
            _ => {}
        }
        if family.gen.strategies() != family.strategies {
            problems.push(format!(
                "{}: documents {} profiles, closed form {}",
                family.slug,
                family.gen.strategies(),
                family.strategies
            ));
        }
        runs += total;
    }
    let strategies: usize = families.iter().map(|f| f.strategies).sum();
    if summary.runs != runs || summary.strategies != strategies {
        problems.push(format!(
            "summary counts {} runs / {} profiles, expected {runs} / {strategies}",
            summary.runs, summary.strategies
        ));
    }
    let (mut failed, mut known_defect) = (BTreeSet::new(), BTreeSet::new());
    let mut keys = BTreeSet::new();
    for violation in &summary.violations {
        let family = family_of(families, violation);
        if family.must_hold {
            failed.insert(violation.scenario.as_str());
            problems.push(format!("{} must hold: {violation:?}", family.slug));
            continue;
        }
        known_defect.insert(violation.scenario.as_str());
        let scenario = &violation.scenario;
        let key = scenario.find("[seed=").map_or(scenario.as_str(), |start| {
            let end = scenario[start..].find(']').map_or(scenario.len(), |e| start + e + 1);
            &scenario[start..end]
        });
        keys.insert(format!(
            "{} {key} party={} property={}",
            family.slug, violation.party, violation.property
        ));
    }
    Checked {
        runs: summary.runs,
        strategies: summary.strategies,
        failed: failed.len(),
        known_defect: known_defect.len(),
        keys: keys.into_iter().collect(),
        problems,
    }
}

fn refs(families: &[Family]) -> Vec<&dyn ScenarioGen> {
    families.iter().map(|f| f.gen.as_ref()).collect()
}

/// One untraced iteration: set-up, sweep and checks.
#[derive(Debug)]
pub struct Iteration {
    pub setup: Duration,
    pub wall: Duration,
    pub checked: Checked,
}

pub fn iterate(sweep: Sweep, seed: u64, threads: usize) -> Iteration {
    let start = Instant::now();
    let families = families(sweep, seed);
    let setup = start.elapsed();
    let summary = ParallelSweep::new(threads).run_all(&refs(&families));
    let checked = check(&families, &summary);
    Iteration { setup, wall: start.elapsed(), checked }
}

/// One timed scenario check.
#[derive(Clone, Copy, Debug)]
struct Sample {
    family: usize,
    start: Instant,
    end: Instant,
}

/// Collects scenario timings from the sweep's worker threads. Each worker
/// claims its own slot on its first check, so the locks are uncontended.
#[derive(Debug)]
pub struct Recorder {
    id: usize,
    next: AtomicUsize,
    slots: Vec<Mutex<Vec<Sample>>>,
}

static RECORDERS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// `(recorder id, slot)` of this thread's claimed slot.
    static SLOT: Cell<(usize, usize)> = const { Cell::new((usize::MAX, 0)) };
}

impl Recorder {
    pub fn new(threads: usize) -> Self {
        Recorder {
            id: RECORDERS.fetch_add(1, Ordering::Relaxed),
            next: AtomicUsize::new(0),
            slots: (0..threads).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    fn push(&self, sample: Sample) {
        let slot = SLOT.with(|cell| {
            let (id, slot) = cell.get();
            if id == self.id {
                return slot;
            }
            let slot = self.next.fetch_add(1, Ordering::Relaxed);
            cell.set((self.id, slot));
            slot
        });
        self.slots[slot].lock().expect("recorder slot").push(sample);
    }

    /// Per-worker samples, each in the order the worker ran them.
    fn into_workers(self) -> Vec<Vec<Sample>> {
        self.slots.into_iter().map(|slot| slot.into_inner().expect("recorder slot")).collect()
    }
}

/// A [`ScenarioGen`] that times every `check` of the family it wraps and
/// changes nothing else.
pub struct Timed<'a> {
    pub inner: &'a dyn ScenarioGen,
    pub family: usize,
    pub recorder: &'a Recorder,
    pub plant: Option<Plant>,
}

impl ScenarioGen for Timed<'_> {
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
        let start = Instant::now();
        let violations = self.inner.check(index, scratch, cache);
        planted(self.plant, Layer::Modelcheck);
        self.recorder.push(Sample { family: self.family, start, end: Instant::now() });
        violations
    }
}

/// Sweeps `families` through [`Timed`] wrappers and returns the summary,
/// the sweep's wall time and the per-worker samples.
fn timed_sweep(
    gens: &[&dyn ScenarioGen],
    threads: usize,
    plant: Option<Plant>,
) -> (CheckSummary, Duration, Vec<Vec<Sample>>) {
    let recorder = Recorder::new(threads);
    let timed: Vec<Timed> = gens
        .iter()
        .enumerate()
        .map(|(family, &inner)| Timed { inner, family, recorder: &recorder, plant })
        .collect();
    let gens: Vec<&dyn ScenarioGen> = timed.iter().map(|t| t as &dyn ScenarioGen).collect();
    let start = Instant::now();
    let summary = ParallelSweep::new(threads).run_all(&gens);
    let wall = start.elapsed();
    drop(timed);
    (summary, wall, recorder.into_workers())
}

fn micros(sample: &Sample) -> f64 {
    (sample.end - sample.start).as_secs_f64() * 1e6
}

/// The scenario-time distribution of a small timed sweep, for the planted
/// delay check: the hedged two-party family on one worker.
pub fn probe_scenario_us(plant: Option<Plant>) -> f64 {
    let family = TwoPartySweep::hedged(TwoPartyConfig::default());
    let (_, _, workers) = timed_sweep(&[&family], 1, plant);
    Dist::of(workers.iter().flatten().map(micros).collect()).p50
}

/// The traced drive of one sweep workload.
#[derive(Debug)]
pub struct Traced {
    pub wall: Duration,
    pub checked: Checked,
}

/// Runs the sweep once with every scenario timed, records its spans and
/// puts the `modelcheck.<tag>.*` metrics.
pub fn traced(
    sweep: Sweep,
    seed: u64,
    threads: usize,
    log: &mut SpanLog,
    metrics: &mut Metrics,
) -> Traced {
    let tag = sweep.tag();
    let drive = log.open(Layer::Bench, format!("drive mc_{tag}"));
    let start = Instant::now();
    let families = log.span(Layer::Modelcheck, "build families", |_| families(sweep, seed));
    let sweep_span = log.open(Layer::Modelcheck, "ParallelSweep::run_all");
    let (summary, sweep_wall, workers) = timed_sweep(&refs(&families), threads, None);
    for (worker, samples) in workers.iter().enumerate() {
        if let (Some(first), Some(last)) = (samples.first(), samples.last()) {
            let name = format!("worker {worker}: ScenarioGen::check");
            log.record(Layer::Modelcheck, name, first.start, last.end, samples.len() as u64);
        }
    }
    log.close(sweep_span, 1);
    let checked = check(&families, &summary);
    let wall = start.elapsed();
    log.close(drive, 1);

    let all: Vec<&Sample> = workers.iter().flatten().collect();
    let busy: Duration = all.iter().map(|s| s.end - s.start).sum();
    metrics.put_dist(
        &format!("modelcheck.{tag}.scenario_us"),
        Dist::of(all.iter().map(|s| micros(s)).collect()),
        "us",
    );
    metrics.put(format!("modelcheck.{tag}.busy_s"), secs(busy), "s");
    metrics.put(
        format!("modelcheck.{tag}.idle_ratio"),
        1.0 - secs(busy) / (threads as f64 * secs(sweep_wall)),
        "ratio",
    );
    // Each worker's first check of each family records that family's
    // compliant prefix (the lazily built deviation tree).
    let first_checks: f64 = workers
        .iter()
        .flat_map(|samples| {
            let mut seen = BTreeSet::new();
            samples.iter().filter(move |s| seen.insert(s.family)).map(micros).collect::<Vec<_>>()
        })
        .sum();
    metrics.put(format!("modelcheck.{tag}.first_checks_us"), first_checks, "us");
    for (index, family) in families.iter().enumerate() {
        let family_busy: Duration =
            all.iter().filter(|s| s.family == index).map(|s| s.end - s.start).sum();
        metrics.put(
            format!("modelcheck.{tag}.family_busy_s.{}", family.slug),
            secs(family_busy),
            "s",
        );
    }
    metrics.put(format!("modelcheck.{tag}.runs"), checked.runs as f64, "count");
    metrics.put(format!("modelcheck.{tag}.strategies"), checked.strategies as f64, "count");
    metrics.put(format!("modelcheck.{tag}.violations"), summary.violations.len() as f64, "count");
    Traced { wall, checked }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modelcheck::scenarios::DealSweep;
    use protocols::multi_party::figure3_config;

    #[test]
    fn timing_wrapper_leaves_the_summary_byte_identical() {
        let zero_margin = SampledSweep::hedged_two_party_reorgs(TwoPartyConfig::default(), 1, 300);
        let families: Vec<Box<dyn ScenarioGen>> = vec![
            Box::new(DealSweep::at_most("figure3", figure3_config(), 1)),
            Box::new(TwoPartySweep::base(TwoPartyConfig::default())),
            Box::new(zero_margin),
        ];
        let plain: Vec<&dyn ScenarioGen> = families.iter().map(|f| f.as_ref()).collect();
        let expected = ParallelSweep::new(2).run_all(&plain);
        assert!(!expected.holds(), "the base swap must contribute violations");
        let (summary, _, workers) = timed_sweep(&plain, 2, None);
        assert_eq!(format!("{summary:?}"), format!("{expected:?}"));
        let samples: usize = workers.iter().map(Vec::len).sum();
        assert_eq!(samples, expected.runs, "one sample per scenario");
    }

    #[test]
    fn checks_count_violations_and_keep_reproduction_keys() {
        let reorgs = Family {
            slug: "reorg-m0",
            gen: Box::new(SampledSweep::hedged_two_party_reorgs(
                TwoPartyConfig::default(),
                0x5EED,
                4_000,
            )),
            runs: Some(4_000),
            strategies: 4_000,
            must_hold: false,
        };
        let families = [reorgs];
        let summary = ParallelSweep::new(2).run_all(&refs(&families));
        let checked = check(&families, &summary);
        assert!(checked.problems.is_empty(), "{:?}", checked.problems);
        assert_eq!(checked.failed, 0, "a family not asserted to hold fails no check");
        assert!(checked.known_defect > 0, "the zero-margin family violates");
        assert!(checked.keys.iter().all(|k| k.starts_with("reorg-m0 [seed=0x5eed, sample=")));

        let asserted = [Family { must_hold: true, ..families.into_iter().next().unwrap() }];
        let checked = check(&asserted, &summary);
        assert!(!checked.problems.is_empty(), "held families must hold");
        assert!(checked.failed > 0 && checked.known_defect == 0 && checked.keys.is_empty());
    }
}
