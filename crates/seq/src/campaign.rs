//! Sequential fault campaigns: the dynamic-testing counterpart of
//! `scal_faults::Campaign` for SCAL machines.
//!
//! A sequential SCAL machine is judged over a *driven input sequence*: for
//! every fault, at the first word where any monitored line deviates from the
//! golden trace, some check (a non-alternating monitored line, or a non-code
//! check pair) must fire — otherwise a wrong code word was accepted, a
//! fault-secure violation.
//!
//! [`Campaign`] is the builder twin of `scal_faults::Campaign`: it forwards a
//! [`CampaignObserver`] through compile / golden / fault-sim / merge phases
//! (per-fault events replayed in fault order at merge, worker-attributed)
//! and honors a [`CancelToken`], returning the completed fault-ordered
//! prefix on cancellation.
//!
//! The default backend ([`SeqBackend::Packed`]) runs on the shared campaign
//! driver ([`scal_engine::run_campaign`]), which collapses the fault list
//! into structural-equivalence classes (default on; see
//! [`Campaign::fault_collapse`]) so only class representatives are
//! simulated. This module supplies the packed unit: up to `63 × W`
//! representatives ride the lanes of one wide evaluation word of `W` 64-bit
//! sub-words (`W ∈ {1, 4, 8}`, chosen by [`Campaign::word_width`] or
//! CPU-feature detection) — lane 0 of every sub-word replays the golden
//! machine, every other lane one fault — and the driven sequence is
//! replayed **once per batch** through [`WidePackedSeqSim`]: per-lane
//! flip-flop state is carried across periods, every lane is classified
//! against the golden lane with word-wide masks, and a classified lane
//! *retires* (drops out of the batch's activity mask), so the batch
//! early-exits once every lane is classified. [`SeqBackend::Graph`] keeps
//! the original graph-walking driver as the packed backend's independent
//! differential oracle. Both backends produce bit-identical outcomes,
//! `first_detected` words, and coverage records.

use crate::dual_ff::{AltSeqDriver, ScalMachine};
use scal_engine::{
    observe, resolve_word_width, run_campaign, CampaignKind, CampaignSpec, CompiledCircuit,
    EngineError, Finish, Toggle, UnitCx, UnitOutcome, WidePackedBatchPlan, WidePackedSeqSim, Word,
    Work,
};
use scal_faults::Fault;
use scal_netlist::Override;
use scal_obs::{CampaignEvent, CampaignObserver, CancelToken, CoverageObserver, Phase};
use std::time::{Duration, Instant};

/// Outcome of one fault under a driven sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqOutcome {
    /// The fault never changed any monitored value over the run.
    Dormant,
    /// The fault's first manifestation was accompanied by a check flag.
    Detected {
        /// Word index of the first manifestation.
        word: usize,
    },
    /// The fault produced a wrong code word with no flag — a violation.
    Violation {
        /// Word index of the violation.
        word: usize,
    },
}

/// Summary of a sequential campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqCampaign {
    /// Per-fault outcomes, in [`ScalMachine::checkable_faults`] order; a
    /// contiguous prefix of that list when [`SeqCampaign::cancelled`].
    pub outcomes: Vec<(Fault, SeqOutcome)>,
    /// `true` iff a [`CancelToken`] stopped the run before every fault was
    /// simulated.
    pub cancelled: bool,
}

impl SeqCampaign {
    /// Number of faults with each outcome: `(dormant, detected, violations)`.
    #[must_use]
    pub fn tally(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for (_, o) in &self.outcomes {
            match o {
                SeqOutcome::Dormant => t.0 += 1,
                SeqOutcome::Detected { .. } => t.1 += 1,
                SeqOutcome::Violation { .. } => t.2 += 1,
            }
        }
        t
    }

    /// `true` iff no fault slipped a wrong code word.
    #[must_use]
    pub fn fault_secure(&self) -> bool {
        self.outcomes
            .iter()
            .all(|(_, o)| !matches!(o, SeqOutcome::Violation { .. }))
    }
}

/// Classifies one fault's trace against the golden trace: outcome at the
/// first word where any monitored line deviates.
fn classify_trace(
    machine: &ScalMachine,
    golden: &[(Vec<bool>, Vec<bool>)],
    mut apply: impl FnMut(&[bool]) -> (Vec<bool>, Vec<bool>),
    words: &[Vec<bool>],
) -> SeqOutcome {
    for (i, w) in words.iter().enumerate() {
        let (o1, o2) = apply(w);
        let mon = machine.monitored();
        let wrong = mon
            .clone()
            .any(|k| o1[k] != golden[i].0[k] || o2[k] != golden[i].1[k]);
        if wrong {
            let nonalt = mon.clone().any(|k| o1[k] == o2[k]);
            let code_bad = machine
                .code_pair
                .map(|(f, g)| o1[f] == o1[g] || o2[f] == o2[g])
                .unwrap_or(false);
            return if nonalt || code_bad {
                SeqOutcome::Detected { word: i }
            } else {
                SeqOutcome::Violation { word: i }
            };
        }
    }
    SeqOutcome::Dormant
}

/// Driven words (alternating pairs) a fault's classification consumed: a
/// trace stops at the word that classified it.
fn words_consumed(outcome: &SeqOutcome, total: usize) -> usize {
    match outcome {
        SeqOutcome::Dormant => total,
        SeqOutcome::Detected { word } | SeqOutcome::Violation { word } => word + 1,
    }
}

/// The `fault_finish` payload of one outcome over a `total`-word drive.
fn seq_finish(outcome: &SeqOutcome, total: usize) -> Finish {
    Finish {
        detected: usize::from(matches!(outcome, SeqOutcome::Detected { .. })),
        violations: usize::from(matches!(outcome, SeqOutcome::Violation { .. })),
        observable: !matches!(outcome, SeqOutcome::Dormant),
        dropped: false,
        pairs: words_consumed(outcome, total) as u64,
        first_detected: match outcome {
            SeqOutcome::Detected { word } => u32::try_from(*word).ok(),
            _ => None,
        },
    }
}

/// Which simulation backend a sequential [`Campaign`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeqBackend {
    /// Fault-per-lane packed replay (default): up to 63 faults ride the
    /// lanes of one word (lane 0 golden) through [`WidePackedSeqSim`], replay
    /// the driven sequence once per batch, and retire lanes as they are
    /// classified.
    #[default]
    Packed,
    /// The original graph-walking [`AltSeqDriver`] oracle, single-threaded.
    Graph,
}

impl SeqBackend {
    /// Stable lowercase name (`"packed"`, `"graph"`), as used by the
    /// `--seq-backend` bench flag.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SeqBackend::Packed => "packed",
            SeqBackend::Graph => "graph",
        }
    }
}

impl std::fmt::Display for SeqBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SeqBackend {
    type Err = EngineError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "packed" => Ok(SeqBackend::Packed),
            "graph" => Ok(SeqBackend::Graph),
            other => Err(EngineError::InvalidConfig {
                reason: format!("seq backend must be \"packed\" or \"graph\", got {other:?}"),
            }),
        }
    }
}

/// Builder for a sequential fault campaign over a [`ScalMachine`] and a
/// driven word sequence — the `scal-seq` twin of `scal_faults::Campaign`.
pub struct Campaign<'a> {
    machine: &'a ScalMachine,
    words: &'a [Vec<bool>],
    threads: usize,
    observer: Option<&'a dyn CampaignObserver>,
    coverage: Option<&'a CoverageObserver>,
    cancel: Option<&'a CancelToken>,
    backend: SeqBackend,
    word_width: usize,
    fault_collapse: Toggle,
}

impl std::fmt::Debug for Campaign<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("machine", &self.machine.design)
            .field("words", &self.words.len())
            .field("threads", &self.threads)
            .field("observer", &self.observer.is_some())
            .field("coverage", &self.coverage.is_some())
            .field("cancel", &self.cancel.is_some())
            .field("backend", &self.backend)
            .field("word_width", &self.word_width)
            .field("fault_collapse", &self.fault_collapse)
            .finish_non_exhaustive()
    }
}

impl<'a> Campaign<'a> {
    /// Starts a campaign driving `machine` with `words` (each an
    /// external-input vector): packed fault-per-lane backend, auto thread
    /// count, no observer, no cancellation.
    #[must_use]
    pub fn new(machine: &'a ScalMachine, words: &'a [Vec<bool>]) -> Self {
        Campaign {
            machine,
            words,
            threads: 0,
            observer: None,
            coverage: None,
            cancel: None,
            backend: SeqBackend::default(),
            word_width: 0,
            fault_collapse: Toggle::default(),
        }
    }

    /// Worker-thread count; `0` = auto. The graph backend is always
    /// single-threaded.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Streams every [`CampaignEvent`] of the run to `observer`.
    #[must_use]
    pub fn observer(mut self, observer: &'a dyn CampaignObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Builds a per-fault [`scal_obs::CoverageMap`] into `coverage`, labelled
    /// with [`Fault::describe`] line names, alongside any plain
    /// [`Campaign::observer`]. Read `coverage.latest()` after the run; a
    /// record's `first_detected` is the first detecting *word* index of the
    /// driven sequence.
    #[must_use]
    pub fn coverage(mut self, coverage: &'a CoverageObserver) -> Self {
        self.coverage = Some(coverage);
        self
    }

    /// Makes the run cancellable through `token`, checked at batch
    /// boundaries (fault boundaries on the graph backend); the returned
    /// outcomes are then a fault-ordered prefix.
    #[must_use]
    pub fn cancel(mut self, token: &'a CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Selects the simulation backend; see [`SeqBackend`]. Both backends
    /// produce bit-identical outcomes.
    #[must_use]
    pub fn backend(mut self, backend: SeqBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Runs on the original graph-walking [`AltSeqDriver`] oracle instead of
    /// the packed backend — shorthand for `.backend(SeqBackend::Graph)`.
    #[must_use]
    pub fn scalar(self) -> Self {
        self.backend(SeqBackend::Graph)
    }

    /// Evaluation word width for the packed backend, in 64-bit sub-words
    /// (`1`, `4` or `8`); `0` (the default) picks the width by CPU-feature
    /// detection. At width `W` one packed batch carries `63 × W` faults, so
    /// wider words cut the number of driven-sequence replays; outcomes are
    /// bit-identical at every width. The graph backend ignores this knob.
    #[must_use]
    pub fn word_width(mut self, width: usize) -> Self {
        self.word_width = width;
        self
    }

    /// Switches compile-time fault collapsing on the packed backend: the
    /// fault list is partitioned into structural-equivalence classes
    /// ([`scal_engine::collapse_overrides`]) and only class representatives
    /// ride the lanes; each representative's outcome is expanded over its
    /// class at merge time, so outcomes and coverage stay per-original-fault
    /// and bit-identical to an uncollapsed run. Left untouched, collapsing
    /// is on. The graph backend never collapses — it is the packed
    /// backend's differential oracle.
    #[must_use]
    pub fn fault_collapse(mut self, on: bool) -> Self {
        self.fault_collapse = on.into();
        self
    }

    /// Runs the campaign.
    ///
    /// # Errors
    ///
    /// Propagates [`CompiledCircuit::try_compile`] errors on the packed
    /// backend (the graph oracle never compiles, so it only errors on
    /// future validations), and `InvalidConfig` when
    /// [`Campaign::word_width`] names an unusable width.
    ///
    /// # Panics
    ///
    /// Panics if a word's width mismatches the machine's external inputs.
    pub fn run(self) -> Result<SeqCampaign, EngineError> {
        let faults = self.machine.checkable_faults();
        let fan = observe(self.observer, self.coverage, || {
            faults
                .iter()
                .map(|f| f.describe(&self.machine.circuit))
                .collect()
        });
        let (outcomes, cancelled) = match self.backend {
            SeqBackend::Packed => {
                let overrides: Vec<Override> = faults.iter().map(|f| f.to_override()).collect();
                let spec = CampaignSpec {
                    campaign: "seq",
                    circuit: &self.machine.circuit,
                    faults: &overrides,
                    threads: self.threads,
                    fault_collapse: self.fault_collapse,
                    observer: &fan,
                    cancel: self.cancel,
                };
                let (machine, words) = (self.machine, self.words);
                let run = match resolve_word_width(self.word_width)? {
                    1 => run_campaign(&spec, |c| Ok(SeqKind::<1>::plan(c, machine, words))),
                    4 => run_campaign(&spec, |c| Ok(SeqKind::<4>::plan(c, machine, words))),
                    8 => run_campaign(&spec, |c| Ok(SeqKind::<8>::plan(c, machine, words))),
                    other => {
                        return Err(EngineError::InvalidConfig {
                            reason: format!("unsupported word width {other}"),
                        })
                    }
                }?;
                (run.verdicts, run.cancelled)
            }
            SeqBackend::Graph => run_graph(self.machine, self.words, &faults, &fan, self.cancel),
        };
        Ok(SeqCampaign {
            outcomes: faults.into_iter().zip(outcomes).collect(),
            cancelled,
        })
    }
}

/// The packed fault-per-lane backend at word width `W`, as the campaign
/// driver sees it: one unit is one batch of up to `63 × W` faults riding
/// the lanes of one wide word (lane 0 of every sub-word golden), and the
/// driven sequence is replayed once per batch with lanes retiring as they
/// are classified.
struct SeqKind<'a, const W: usize> {
    machine: &'a ScalMachine,
    words: &'a [Vec<bool>],
    compiled: CompiledCircuit,
    /// Every batch's lane plan, built in the compile phase: mapping faults
    /// onto lanes is planning, not evaluation.
    plans: Vec<WidePackedBatchPlan<W>>,
    /// The two alternating periods of every driven word, expanded by the
    /// golden step and shared by every batch.
    periods: Vec<(Vec<bool>, Vec<bool>)>,
}

impl<'a, const W: usize> SeqKind<'a, W> {
    fn plan(c: scal_engine::Compiled, machine: &'a ScalMachine, words: &'a [Vec<bool>]) -> Self {
        let plans = c
            .sim_faults
            .chunks(WidePackedSeqSim::<W>::FAULT_LANES)
            .map(|batch| {
                let refs: Vec<&[Override]> = batch.iter().map(std::slice::from_ref).collect();
                WidePackedBatchPlan::build(&c.circuit, &refs)
            })
            .collect();
        SeqKind {
            machine,
            words,
            compiled: c.circuit,
            plans,
            periods: Vec::new(),
        }
    }
}

impl<const W: usize> CampaignKind for SeqKind<'_, W> {
    type Worker = ();
    type Verdict = SeqOutcome;
    const PAIRS_PER_FAULT: bool = true;

    fn unit_size(&self) -> usize {
        WidePackedSeqSim::<W>::FAULT_LANES
    }

    fn header(&self) -> Vec<CampaignEvent> {
        vec![CampaignEvent::LaneGeometry {
            width: W,
            fault_lanes: WidePackedSeqSim::<W>::FAULT_LANES,
            pattern_lanes: 0,
            packing: "seq",
        }]
    }

    /// The golden machine rides lane 0 of every batch, so nothing is
    /// simulated up front — each driven word is just expanded once into its
    /// two alternating periods (`X‖0`, `X̄‖1`).
    fn golden(&mut self) -> Result<(u64, Option<()>), EngineError> {
        self.periods = self
            .words
            .iter()
            .map(|w| {
                let mut p1 = w.clone();
                p1.push(false); // φ = 0
                let mut p2: Vec<bool> = w.iter().map(|&b| !b).collect();
                p2.push(true); // φ = 1
                (p1, p2)
            })
            .collect();
        Ok((0, None))
    }

    fn worker(&self) {}

    fn simulate(&self, (): &mut (), cx: &UnitCx<'_>) -> Option<UnitOutcome<SeqOutcome>> {
        let mon = self.machine.monitored();
        let code_pair = self.machine.code_pair;
        let mut sim = WidePackedSeqSim::from_plan(&self.compiled, &self.plans[cx.unit]);
        let mut outcomes = vec![SeqOutcome::Dormant; cx.faults.len()];
        // One activity mask per sub-word; a classified lane retires from
        // its sub-word's mask.
        let mut active: Vec<u64> = (0..W).map(|s| sim.sub_lane_mask(s)).collect();
        let mut words_run = 0u64;
        let mut o1 = vec![Word::<W>::ZERO; self.compiled.num_outputs()];
        for (i, (p1, p2)) in self.periods.iter().enumerate() {
            sim.step(p1);
            for (k, slot) in o1.iter_mut().enumerate() {
                *slot = sim.output_wide(k);
            }
            sim.step(p2);
            words_run = i as u64 + 1;
            // A lane manifests at the first word where any monitored line
            // deviates from its sub-word's golden lane; the flag masks
            // mirror classify_trace lane-wise.
            let mut wrong = Word::<W>::ZERO;
            let mut nonalt = Word::<W>::ZERO;
            for k in mon.clone() {
                let (o1k, o2k) = (o1[k], sim.output_wide(k));
                wrong |= (o1k ^ o1k.golden_splat()) | (o2k ^ o2k.golden_splat());
                nonalt |= !(o1k ^ o2k);
            }
            let code_bad = code_pair.map_or(Word::ZERO, |(f, g)| {
                !(o1[f] ^ o1[g]) | !(sim.output_wide(f) ^ sim.output_wide(g))
            });
            let flagged = nonalt | code_bad;
            let mut live = false;
            for (s, act) in active.iter_mut().enumerate() {
                let newly = wrong.sub(s) & *act;
                if newly != 0 {
                    let fl = flagged.sub(s);
                    for l in 0..63 {
                        let bit = 1u64 << (l + 1);
                        if newly & bit != 0 {
                            outcomes[s * 63 + l] = if fl & bit != 0 {
                                SeqOutcome::Detected { word: i }
                            } else {
                                SeqOutcome::Violation { word: i }
                            };
                        }
                    }
                    *act &= !newly;
                }
                live |= *act != 0;
            }
            if !live {
                break;
            }
        }
        let unit_events = if cx.record {
            vec![CampaignEvent::LaneBatch {
                batch: cx.unit,
                worker: cx.worker,
                lanes: outcomes.len(),
                words: words_run,
                retired: outcomes
                    .iter()
                    .filter(|o| !matches!(o, SeqOutcome::Dormant))
                    .count(),
            }]
        } else {
            Vec::new()
        };
        let pairs = outcomes
            .iter()
            .map(|o| words_consumed(o, self.words.len()) as u64)
            .sum();
        Some(UnitOutcome {
            verdicts: outcomes,
            unit_events,
            fault_events: Vec::new(),
            // Each batch replays `words_run` driven words of two clocked
            // periods each; the golden machine rides lane 0, so it costs no
            // extra pass over the schedule.
            work: Work {
                pairs,
                words: words_run * 2,
                micros: 0,
            },
        })
    }

    fn finish(&self, outcome: &SeqOutcome) -> Finish {
        seq_finish(outcome, self.words.len())
    }
}

/// The graph-walking oracle: one fault at a time through [`AltSeqDriver`],
/// single-threaded, with its own plain loop so a driver bug still shows up
/// as a differential failure. Cancellable at fault boundaries.
fn run_graph(
    machine: &ScalMachine,
    words: &[Vec<bool>],
    faults: &[Fault],
    observer: &dyn CampaignObserver,
    cancel: Option<&CancelToken>,
) -> (Vec<SeqOutcome>, bool) {
    let total_t = Instant::now();
    let obs = observer.enabled();
    if obs {
        observer.on_event(&CampaignEvent::CampaignStart {
            campaign: "seq_scalar",
            faults: faults.len(),
            inputs: machine.circuit.inputs().len(),
            outputs: machine.circuit.outputs().len(),
            threads: 1,
        });
    }

    let t = Instant::now();
    if obs {
        observer.on_event(&CampaignEvent::PhaseStart {
            phase: Phase::Golden,
        });
    }
    let golden: Vec<(Vec<bool>, Vec<bool>)> = {
        let mut drv = AltSeqDriver::new(machine);
        words.iter().map(|w| drv.apply(w)).collect()
    };
    if obs {
        observer.on_event(&CampaignEvent::PhaseEnd {
            phase: Phase::Golden,
            micros: duration_micros(t.elapsed()),
        });
    }

    let t = Instant::now();
    if obs {
        observer.on_event(&CampaignEvent::PhaseStart {
            phase: Phase::FaultSim,
        });
    }
    let mut outcomes = Vec::with_capacity(faults.len());
    for fault in faults {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            break;
        }
        let mut drv = AltSeqDriver::new(machine);
        drv.attach(fault.to_override());
        outcomes.push(classify_trace(machine, &golden, |w| drv.apply(w), words));
        if obs {
            observer.on_event(&CampaignEvent::Progress {
                done: outcomes.len(),
                total: faults.len(),
            });
        }
    }
    if obs {
        observer.on_event(&CampaignEvent::PhaseEnd {
            phase: Phase::FaultSim,
            micros: duration_micros(t.elapsed()),
        });
    }

    // Merge: fault-ordered event replay.
    let completed = outcomes.len();
    let cancelled = completed < faults.len();
    if obs {
        let merge_t = Instant::now();
        observer.on_event(&CampaignEvent::PhaseStart {
            phase: Phase::Merge,
        });
        let mut pairs_total = 0u64;
        for (i, outcome) in outcomes.iter().enumerate() {
            let f = seq_finish(outcome, words.len());
            pairs_total += f.pairs;
            observer.on_event(&CampaignEvent::FaultStart {
                fault: i,
                worker: 0,
            });
            observer.on_event(&CampaignEvent::FaultFinish {
                fault: i,
                worker: 0,
                detected: f.detected,
                violations: f.violations,
                observable: f.observable,
                dropped: f.dropped,
                first_detected: f.first_detected,
                pairs: f.pairs,
            });
        }
        observer.on_event(&CampaignEvent::PhaseEnd {
            phase: Phase::Merge,
            micros: duration_micros(merge_t.elapsed()),
        });
        if cancelled {
            observer.on_event(&CampaignEvent::Cancelled { completed });
        }
        observer.on_event(&CampaignEvent::CampaignEnd {
            faults: completed,
            dropped: 0,
            pairs: pairs_total,
            // Each driven pair is two clocked evaluation steps; the golden
            // trace consumed the full sequence once.
            words: (pairs_total + words.len() as u64) * 2,
            micros: duration_micros(total_t.elapsed()),
            cancelled,
        });
    }
    (outcomes, cancelled)
}

fn duration_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::up_down_counter;
    use crate::kohavi::kohavi_0101;
    use crate::{code_conversion_machine, dual_ff_machine};
    use scal_obs::CollectObserver;

    fn bit_words(seq: &[u32]) -> Vec<Vec<bool>> {
        seq.iter().map(|&s| vec![s == 1]).collect()
    }

    #[test]
    fn kohavi_designs_are_sequentially_fault_secure() {
        let m = kohavi_0101();
        let words = bit_words(&[0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1]);
        for machine in [dual_ff_machine(&m), code_conversion_machine(&m)] {
            let campaign = Campaign::new(&machine, &words).run().unwrap();
            assert!(campaign.fault_secure(), "{}", machine.design);
            let (dormant, detected, violations) = campaign.tally();
            assert_eq!(violations, 0);
            assert!(detected > 0);
            // A short drive leaves some faults unexercised — that is the
            // static-test gap `scal_analysis::generate_tests` fills.
            let _ = dormant;
        }
    }

    #[test]
    fn counter_campaign_is_fault_secure() {
        use crate::counters::CounterCmd::{Down, Hold, Up};
        let m = up_down_counter(4);
        let words: Vec<Vec<bool>> = [Up, Up, Down, Hold, Up, Up, Up, Down]
            .iter()
            .map(|c| {
                let s = c.symbol();
                vec![s & 1 == 1, s & 2 != 0]
            })
            .collect();
        for machine in [dual_ff_machine(&m), code_conversion_machine(&m)] {
            let campaign = Campaign::new(&machine, &words).run().unwrap();
            assert!(campaign.fault_secure(), "{}", machine.design);
        }
    }

    #[test]
    fn all_backends_agree() {
        let m = kohavi_0101();
        let words = bit_words(&[0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0]);
        for machine in [dual_ff_machine(&m), code_conversion_machine(&m)] {
            let packed = Campaign::new(&machine, &words).run().unwrap();
            assert_eq!(
                packed,
                Campaign::new(&machine, &words)
                    .backend(SeqBackend::Graph)
                    .run()
                    .unwrap(),
                "{}",
                machine.design
            );
        }
    }

    #[test]
    fn longer_drives_detect_more_faults() {
        let m = kohavi_0101();
        let machine = code_conversion_machine(&m);
        let short = Campaign::new(&machine, &bit_words(&[0, 1])).run().unwrap();
        let long_words = bit_words(&[0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1]);
        let long = Campaign::new(&machine, &long_words).run().unwrap();
        assert!(long.tally().1 >= short.tally().1);
        assert!(long.tally().0 <= short.tally().0);
    }

    #[test]
    fn coverage_maps_record_first_detecting_word() {
        let m = kohavi_0101();
        let words = bit_words(&[0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0]);
        let machine = dual_ff_machine(&m);
        let cov = scal_obs::CoverageObserver::new();
        let campaign = Campaign::new(&machine, &words)
            .backend(SeqBackend::Graph)
            .coverage(&cov)
            .run()
            .unwrap();
        let map = cov.latest().expect("coverage map");
        assert_eq!(map.records.len(), campaign.outcomes.len());
        for (record, (fault, outcome)) in map.records.iter().zip(&campaign.outcomes) {
            assert_eq!(record.label, fault.describe(&machine.circuit));
            match outcome {
                SeqOutcome::Detected { word } => {
                    assert_eq!(record.first_detected, u32::try_from(*word).ok());
                }
                _ => assert_eq!(record.first_detected, None),
            }
        }
        // The packed backend yields the identical verdicts modulo the class
        // membership annotations of collapsing.
        let stripped: Vec<_> = map
            .records
            .iter()
            .map(scal_obs::FaultRecord::without_annotations)
            .collect();
        let cov2 = scal_obs::CoverageObserver::new();
        let _ = Campaign::new(&machine, &words)
            .coverage(&cov2)
            .run()
            .unwrap();
        let map2 = cov2.latest().expect("coverage map");
        let stripped2: Vec<_> = map2
            .records
            .iter()
            .map(scal_obs::FaultRecord::without_annotations)
            .collect();
        assert_eq!(stripped2, stripped);
    }

    #[test]
    fn collapsed_packed_matches_uncollapsed() {
        let m = kohavi_0101();
        let words = bit_words(&[0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0]);
        for machine in [dual_ff_machine(&m), code_conversion_machine(&m)] {
            let collect = CollectObserver::default();
            let collapsed = Campaign::new(&machine, &words)
                .threads(1)
                .observer(&collect)
                .run()
                .unwrap();
            let plain = Campaign::new(&machine, &words)
                .fault_collapse(false)
                .run()
                .unwrap();
            assert_eq!(collapsed, plain, "{}", machine.design);
            let events = collect.events();
            let (faults, reps) = events
                .iter()
                .find_map(|e| match e {
                    CampaignEvent::FaultCollapse {
                        faults,
                        representatives,
                        ..
                    } => Some((*faults, *representatives)),
                    _ => None,
                })
                .expect("collapsed run must announce its classes");
            assert_eq!(faults, collapsed.outcomes.len());
            assert!(reps < faults, "sequential machines must collapse");
            // Every original fault still finishes, and class members cite
            // their representative.
            let finishes = events
                .iter()
                .filter(|e| matches!(e, CampaignEvent::FaultFinish { .. }))
                .count();
            assert_eq!(finishes, faults);
            assert_eq!(
                events
                    .iter()
                    .filter(|e| matches!(e, CampaignEvent::FaultClass { .. }))
                    .count(),
                faults - reps
            );
        }
    }

    #[test]
    fn packed_emits_lane_batches_and_no_eval_mode() {
        let m = kohavi_0101();
        let words = bit_words(&[0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0]);
        let machine = code_conversion_machine(&m);
        let faults = machine.checkable_faults().len();
        assert!(faults > 2 * 63, "want ≥3 batches, got {faults} faults");
        let collect = CollectObserver::default();
        // Collapsing is pinned off: the lane-count assertions below speak in
        // original faults, which under collapsing no longer fill the lanes
        // one-to-one.
        let campaign = Campaign::new(&machine, &words)
            .word_width(1)
            .threads(1)
            .fault_collapse(false)
            .observer(&collect)
            .run()
            .unwrap();
        let events = collect.events();
        assert!(!events
            .iter()
            .any(|e| matches!(e, CampaignEvent::EvalMode { .. })));
        assert!(matches!(
            events.get(1),
            Some(CampaignEvent::LaneGeometry {
                width: 1,
                fault_lanes: 63,
                pattern_lanes: 0,
                packing: "seq",
            })
        ));
        let batches: Vec<(usize, usize, u64, usize)> = events
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::LaneBatch {
                    batch,
                    lanes,
                    words,
                    retired,
                    ..
                } => Some((*batch, *lanes, *words, *retired)),
                _ => None,
            })
            .collect();
        assert_eq!(batches.len(), faults.div_ceil(63));
        assert_eq!(
            batches.iter().map(|b| b.0).collect::<Vec<_>>(),
            (0..batches.len()).collect::<Vec<_>>()
        );
        assert_eq!(batches.iter().map(|b| b.1).sum::<usize>(), faults);
        let observable = campaign
            .outcomes
            .iter()
            .filter(|(_, o)| !matches!(o, SeqOutcome::Dormant))
            .count();
        assert_eq!(batches.iter().map(|b| b.3).sum::<usize>(), observable);
        for (_, lanes, batch_words, retired) in &batches {
            assert!(*batch_words <= words.len() as u64);
            assert!(retired <= lanes);
        }
    }

    #[test]
    fn wide_packed_widths_match_scalar() {
        let m = kohavi_0101();
        let words = bit_words(&[0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0]);
        for machine in [dual_ff_machine(&m), code_conversion_machine(&m)] {
            let scalar = Campaign::new(&machine, &words).word_width(1).run().unwrap();
            for width in [4, 8] {
                let wide = Campaign::new(&machine, &words)
                    .word_width(width)
                    .run()
                    .unwrap();
                assert_eq!(scalar, wide, "{} at W={width}", machine.design);
            }
        }
    }

    #[test]
    fn wide_packed_merges_batches_and_emits_geometry() {
        let m = kohavi_0101();
        let words = bit_words(&[0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0]);
        let machine = code_conversion_machine(&m);
        let faults = machine.checkable_faults().len();
        assert!(faults > 63, "want faults spanning sub-words, got {faults}");
        let collect = CollectObserver::default();
        // Pinned uncollapsed for the same reason as
        // packed_emits_lane_batches_and_no_eval_mode: lanes are counted in
        // original faults.
        let campaign = Campaign::new(&machine, &words)
            .word_width(4)
            .threads(1)
            .fault_collapse(false)
            .observer(&collect)
            .run()
            .unwrap();
        let events = collect.events();
        assert!(matches!(
            events.get(1),
            Some(CampaignEvent::LaneGeometry {
                width: 4,
                fault_lanes: 252,
                pattern_lanes: 0,
                packing: "seq",
            })
        ));
        let batches: Vec<(usize, usize)> = events
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::LaneBatch { lanes, retired, .. } => Some((*lanes, *retired)),
                _ => None,
            })
            .collect();
        assert_eq!(batches.len(), faults.div_ceil(252));
        assert_eq!(batches.iter().map(|b| b.0).sum::<usize>(), faults);
        let observable = campaign
            .outcomes
            .iter()
            .filter(|(_, o)| !matches!(o, SeqOutcome::Dormant))
            .count();
        assert_eq!(batches.iter().map(|b| b.1).sum::<usize>(), observable);
        let finishes = events
            .iter()
            .filter(|e| matches!(e, CampaignEvent::FaultFinish { .. }))
            .count();
        assert_eq!(finishes, faults);
    }

    #[test]
    fn observer_and_cancel_work_on_seq_campaigns() {
        let m = kohavi_0101();
        let words = bit_words(&[0, 1, 0, 1, 1, 0]);
        let machine = dual_ff_machine(&m);
        let collect = CollectObserver::default();
        let campaign = Campaign::new(&machine, &words)
            .threads(1)
            .observer(&collect)
            .run()
            .unwrap();
        assert!(!campaign.cancelled);
        let events = collect.events();
        assert!(matches!(
            events.first(),
            Some(CampaignEvent::CampaignStart {
                campaign: "seq",
                ..
            })
        ));
        let finishes = events
            .iter()
            .filter(|e| matches!(e, CampaignEvent::FaultFinish { .. }))
            .count();
        assert_eq!(finishes, campaign.outcomes.len());

        let token = CancelToken::new();
        token.cancel();
        let cancelled = Campaign::new(&machine, &words)
            .cancel(&token)
            .run()
            .unwrap();
        assert!(cancelled.cancelled);
        assert!(cancelled.outcomes.is_empty());
    }
}
