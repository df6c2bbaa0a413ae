//! The campaign driver: the one code path from a fault list to one verdict
//! per fault, shared by pair, sequential and CPU campaigns.
//!
//! The driver owns everything the campaign kinds have in common: it compiles
//! the circuit and collapses the fault list, emits the event preamble,
//! splits the simulated faults into work units, fans the units out over the
//! worker pool with per-worker state and cancellation, keeps the longest
//! contiguous fault-ordered prefix of completed units, expands
//! representative verdicts over their equivalence classes, replays buffered
//! events, and closes the run with `cancelled` / `campaign_end`.
//!
//! A [`CampaignKind`] supplies only what differs: the golden step, a
//! per-unit simulate function returning per-fault verdicts plus buffered
//! events, and a verdict → `fault_finish` mapping ([`Finish`]).
//!
//! # Event order
//!
//! Per-fault events are buffered by the worker that simulated the unit and
//! replayed by the coordinator during the merge phase, so a trace is
//! deterministic for a fixed configuration regardless of worker fan-out
//! (only the live `progress` ticks are emission-order dependent):
//!
//! - Without collapsing, each unit's unit-level events come first, then for
//!   each of its faults: `fault_start`, the fault's buffered events, and
//!   `fault_finish`.
//! - With collapsing, every completed unit's unit-level events replay first,
//!   in unit order. Then each answered original fault follows in fault
//!   order: a representative replays its own buffered events under its
//!   original index; every other class member gets `fault_start`,
//!   `fault_class`, then the representative's `fault_dropped` /
//!   `fault_finish`.

use crate::campaign::Toggle;
use crate::collapse::{collapse_overrides, resolve_fault_collapse, CollapsedFaultList};
use crate::compile::{CompileSpans, CompiledCircuit};
use crate::error::EngineError;
use crate::pool::{effective_threads, run_items};
use scal_netlist::{Circuit, Override};
use scal_obs::{
    CampaignEvent, CampaignObserver, CancelToken, CoverageObserver, MultiObserver, Phase,
};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Combines a campaign's plain observer and coverage map into one fan-out.
/// The coverage map's records are labelled with `labels()` (one per
/// original fault), evaluated only when a coverage map is attached. An
/// empty fan-out reports `enabled() == false`, preserving the no-observer
/// fast path.
pub fn observe<'a>(
    observer: Option<&'a dyn CampaignObserver>,
    coverage: Option<&'a CoverageObserver>,
    labels: impl FnOnce() -> Vec<String>,
) -> MultiObserver<'a> {
    let mut fan = MultiObserver::new();
    if let Some(o) = observer {
        fan.push(o);
    }
    if let Some(cov) = coverage {
        cov.set_labels(labels());
        fan.push(cov);
    }
    fan
}

/// What one campaign asks of the driver.
pub struct CampaignSpec<'a> {
    /// Campaign flavour reported in `campaign_start` (`"pair"`, `"seq"`, …).
    pub campaign: &'static str,
    /// The circuit whose compiled schedule the fault list is collapsed on.
    pub circuit: &'a Circuit,
    /// The original fault list, in caller order.
    pub faults: &'a [Override],
    /// Requested worker threads; `0` = auto.
    pub threads: usize,
    /// Compile-time fault collapsing switch.
    pub fault_collapse: Toggle,
    /// Receives every event of the run.
    pub observer: &'a dyn CampaignObserver,
    /// Checked before every unit (and by kinds inside long units).
    pub cancel: Option<&'a CancelToken>,
}

/// The compile phase's products, handed to a kind's planner.
pub struct Compiled {
    /// The compiled schedule.
    pub circuit: CompiledCircuit,
    /// Per-stage compile wall times.
    pub spans: CompileSpans,
    /// The faults that actually simulate: class representatives under
    /// collapsing, the original list otherwise.
    pub sim_faults: Vec<Override>,
}

/// Work counters of one unit (summed over completed units by the driver).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Pairs (or driven words, or CPU pairs) simulated.
    pub pairs: u64,
    /// 64-lane words (or periods) evaluated.
    pub words: u64,
    /// Wall time spent inside the unit's evaluation sweeps.
    pub micros: u64,
}

/// Everything one simulated work unit produced.
#[derive(Debug, Clone)]
pub struct UnitOutcome<V> {
    /// One verdict per simulated fault of the unit, in fault order.
    pub verdicts: Vec<V>,
    /// Unit-level events (lane batches, sweep spans), fault indices-free.
    pub unit_events: Vec<CampaignEvent>,
    /// Buffered per-fault events between `fault_start` and `fault_finish`
    /// (parallel to `verdicts`, or empty when the kind buffers none),
    /// carrying simulated-fault indices.
    pub fault_events: Vec<Vec<CampaignEvent>>,
    /// The unit's work counters.
    pub work: Work,
}

/// Where one unit runs.
#[derive(Debug, Clone)]
pub struct UnitCx<'a> {
    /// Unit ordinal.
    pub unit: usize,
    /// Simulated-fault indices the unit covers.
    pub faults: Range<usize>,
    /// Id of the worker running the unit.
    pub worker: usize,
    /// Whether events should be buffered.
    pub record: bool,
    /// The campaign's cancellation token, for kinds that check it mid-unit.
    pub cancel: Option<&'a CancelToken>,
}

/// The payload of one fault's `fault_finish` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Finish {
    /// Detecting pairs / words / workloads.
    pub detected: usize,
    /// Undetected wrong results.
    pub violations: usize,
    /// Whether the fault changed anything observable.
    pub observable: bool,
    /// Whether fault dropping cut the fault short.
    pub dropped: bool,
    /// Work attributed to this fault.
    pub pairs: u64,
    /// First detecting pair / word / workload.
    pub first_detected: Option<u32>,
}

/// What each campaign kind supplies to the driver.
pub trait CampaignKind: Sync {
    /// Per-worker reusable state.
    type Worker;
    /// One simulated fault's verdict.
    type Verdict: Clone + Send;

    /// Whether `campaign_end.pairs` sums every answered original fault's
    /// [`Finish::pairs`] (`true`) instead of the simulated units' work.
    const PAIRS_PER_FAULT: bool = false;

    /// Simulated faults per work unit.
    fn unit_size(&self) -> usize;

    /// Events emitted right after `campaign_start`.
    fn header(&self) -> Vec<CampaignEvent> {
        Vec::new()
    }

    /// Compile-phase events emitted after the compile `phase_end`, given
    /// the driver's collapse events (a `collapse` span and
    /// `fault_collapse`, or none) to place among the kind's own.
    fn compile_events(&self, collapse: Vec<CampaignEvent>) -> Vec<CampaignEvent> {
        collapse
    }

    /// The golden step. Returns the words it evaluated and, optionally, a
    /// worker state it warmed that the inline (single-thread) path reuses.
    ///
    /// # Errors
    ///
    /// Whatever makes the fault-free run unusable (e.g. a non-alternating
    /// output).
    fn golden(&mut self) -> Result<(u64, Option<Self::Worker>), EngineError>;

    /// A fresh per-worker state.
    fn worker(&self) -> Self::Worker;

    /// Simulates one unit; `None` if cancellation abandoned it mid-way.
    fn simulate(
        &self,
        worker: &mut Self::Worker,
        cx: &UnitCx<'_>,
    ) -> Option<UnitOutcome<Self::Verdict>>;

    /// The `fault_finish` payload of a verdict.
    fn finish(&self, verdict: &Self::Verdict) -> Finish;
}

/// A finished (or cancelled) campaign.
#[derive(Debug, Clone)]
pub struct Finished<V> {
    /// One verdict per answered original fault: every fault, or a
    /// contiguous fault-ordered prefix when `cancelled`.
    pub verdicts: Vec<V>,
    /// `true` iff cancellation left some original fault unanswered.
    pub cancelled: bool,
    /// Work counters summed over completed units (representative work).
    pub work: Work,
    /// Words the golden step evaluated.
    pub golden_words: u64,
    /// Compile phase wall time (compile, collapse, planning).
    pub compile_time: Duration,
    /// Golden phase wall time.
    pub golden_time: Duration,
    /// Fault-simulation phase wall time.
    pub fault_sim_time: Duration,
}

fn duration_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Rewrites the fault index carried by a buffered per-fault event; events
/// without one (sweep spans) pass through unchanged.
fn remap_fault(event: &CampaignEvent, fault: usize) -> CampaignEvent {
    let mut e = event.clone();
    if let CampaignEvent::BatchDone { fault: f, .. }
    | CampaignEvent::FaultDropped { fault: f, .. }
    | CampaignEvent::ConeStats { fault: f, .. } = &mut e
    {
        *f = fault;
    }
    e
}

/// Runs one campaign: compile and collapse, then `plan` builds the kind
/// from the compiled circuit and the simulated fault list (timed as part
/// of the compile phase), then golden, fault simulation and merge.
///
/// # Errors
///
/// Compile errors, planning errors, and golden-step errors.
pub fn run_campaign<K: CampaignKind>(
    spec: &CampaignSpec<'_>,
    plan: impl FnOnce(Compiled) -> Result<K, EngineError>,
) -> Result<Finished<K::Verdict>, EngineError> {
    let total_t = Instant::now();
    let observer = spec.observer;
    let obs = observer.enabled();
    let faults = spec.faults;

    // Compile, collapse and plan before the preamble: the unit count in
    // `campaign_start` depends on how many representatives survive.
    let t = Instant::now();
    let (compiled, spans) = CompiledCircuit::try_compile_timed(spec.circuit)?;
    let collapsed: Option<CollapsedFaultList> =
        resolve_fault_collapse(spec.fault_collapse)?.then(|| collapse_overrides(&compiled, faults));
    let sim_faults: Vec<Override> = match &collapsed {
        Some(cl) => cl.reps.iter().map(|&r| faults[r as usize]).collect(),
        None => faults.to_vec(),
    };
    let sim_total = sim_faults.len();
    let mut kind = plan(Compiled {
        circuit: compiled,
        spans,
        sim_faults,
    })?;
    let compile_time = t.elapsed();
    let unit_size = kind.unit_size();
    let units = sim_total.div_ceil(unit_size);
    let threads = effective_threads(spec.threads, units);

    if obs {
        observer.on_event(&CampaignEvent::CampaignStart {
            campaign: spec.campaign,
            faults: faults.len(),
            inputs: spec.circuit.inputs().len(),
            outputs: spec.circuit.outputs().len(),
            threads,
        });
        for e in kind.header() {
            observer.on_event(&e);
        }
        observer.on_event(&CampaignEvent::PhaseStart {
            phase: Phase::Compile,
        });
        observer.on_event(&CampaignEvent::PhaseEnd {
            phase: Phase::Compile,
            micros: duration_micros(compile_time),
        });
        let collapse = match &collapsed {
            Some(cl) => vec![
                CampaignEvent::Span {
                    name: "collapse",
                    parent: "compile",
                    micros: cl.micros,
                    count: 1,
                    items: cl.num_faults() as u64,
                },
                CampaignEvent::FaultCollapse {
                    faults: cl.num_faults(),
                    representatives: cl.num_reps(),
                    dominance_edges: cl.dominance_edges,
                    micros: cl.micros,
                },
            ],
            None => Vec::new(),
        };
        for e in kind.compile_events(collapse) {
            observer.on_event(&e);
        }
    }

    let t = Instant::now();
    if obs {
        observer.on_event(&CampaignEvent::PhaseStart {
            phase: Phase::Golden,
        });
    }
    let (golden_words, warm) = kind.golden()?;
    let golden_time = t.elapsed();
    if obs {
        observer.on_event(&CampaignEvent::PhaseEnd {
            phase: Phase::Golden,
            micros: duration_micros(golden_time),
        });
    }

    let t = Instant::now();
    if obs {
        observer.on_event(&CampaignEvent::PhaseStart {
            phase: Phase::FaultSim,
        });
    }
    let kind = &kind;
    let done = AtomicUsize::new(0);
    let slots = run_items(
        units,
        threads,
        spec.cancel,
        warm,
        || kind.worker(),
        |state, worker, unit| {
            let cx = UnitCx {
                unit,
                faults: unit * unit_size..((unit + 1) * unit_size).min(sim_total),
                worker,
                record: obs,
                cancel: spec.cancel,
            };
            let outcome = kind.simulate(state, &cx)?;
            if obs {
                let n = cx.faults.len();
                observer.on_event(&CampaignEvent::Progress {
                    done: done.fetch_add(n, Ordering::Relaxed) + n,
                    total: sim_total,
                });
            }
            Some((worker, outcome))
        },
    );
    let fault_sim_time = t.elapsed();
    if obs {
        observer.on_event(&CampaignEvent::PhaseEnd {
            phase: Phase::FaultSim,
            micros: duration_micros(fault_sim_time),
        });
    }

    // Merge: keep the longest contiguous prefix of completed units, expand
    // verdicts over original faults, and replay buffered events in order.
    let merge_t = Instant::now();
    if obs {
        observer.on_event(&CampaignEvent::PhaseStart {
            phase: Phase::Merge,
        });
    }
    let outcomes: Vec<(usize, UnitOutcome<K::Verdict>)> =
        slots.into_iter().map_while(|s| s).collect();
    let mut work = Work::default();
    for (_, u) in &outcomes {
        work.pairs += u.work.pairs;
        work.words += u.work.words;
        work.micros += u.work.micros;
    }
    // Representatives are first-occurrence ordered, so the originals they
    // answer form a prefix; without collapsing every fault answers itself.
    let completed_reps: usize = outcomes.iter().map(|(_, u)| u.verdicts.len()).sum();
    let answered = collapsed
        .as_ref()
        .map_or(completed_reps, |cl| cl.completed_prefix(completed_reps));
    let rep_of = |o: usize| collapsed.as_ref().map_or(o, |cl| cl.rep_of[o] as usize);
    let (mut dropped, mut finish_pairs) = (0usize, 0u64);
    if obs {
        // One original fault's bucket: start, class membership (members
        // only), its representative's buffered events (members replay only
        // the drop), and the finish.
        let mut replay_fault = |o: usize| {
            let r = rep_of(o);
            let (worker, unit) = &outcomes[r / unit_size];
            let (k, worker) = (r % unit_size, *worker);
            observer.on_event(&CampaignEvent::FaultStart { fault: o, worker });
            let member = match &collapsed {
                Some(cl) if cl.reps[r] as usize != o => {
                    observer.on_event(&CampaignEvent::FaultClass {
                        fault: o,
                        representative: cl.reps[r] as usize,
                        size: cl.class_sizes[r] as usize,
                    });
                    true
                }
                _ => false,
            };
            for e in unit.fault_events.get(k).into_iter().flatten() {
                if member && !matches!(e, CampaignEvent::FaultDropped { .. }) {
                    continue;
                }
                if r == o {
                    observer.on_event(e);
                } else {
                    observer.on_event(&remap_fault(e, o));
                }
            }
            let f = kind.finish(&unit.verdicts[k]);
            dropped += usize::from(f.dropped);
            finish_pairs += f.pairs;
            observer.on_event(&CampaignEvent::FaultFinish {
                fault: o,
                worker,
                detected: f.detected,
                violations: f.violations,
                observable: f.observable,
                dropped: f.dropped,
                pairs: f.pairs,
                first_detected: f.first_detected,
            });
        };
        if collapsed.is_none() {
            for (u, (_, unit)) in outcomes.iter().enumerate() {
                for e in &unit.unit_events {
                    observer.on_event(e);
                }
                (u * unit_size..u * unit_size + unit.verdicts.len()).for_each(&mut replay_fault);
            }
        } else {
            for (_, unit) in &outcomes {
                for e in &unit.unit_events {
                    observer.on_event(e);
                }
            }
            (0..answered).for_each(replay_fault);
        }
    }
    let verdicts: Vec<K::Verdict> = if collapsed.is_none() {
        outcomes.into_iter().flat_map(|(_, u)| u.verdicts).collect()
    } else {
        (0..answered)
            .map(|o| {
                let r = rep_of(o);
                outcomes[r / unit_size].1.verdicts[r % unit_size].clone()
            })
            .collect()
    };
    let completed = verdicts.len();
    let cancelled = completed < faults.len();
    if obs {
        observer.on_event(&CampaignEvent::PhaseEnd {
            phase: Phase::Merge,
            micros: duration_micros(merge_t.elapsed()),
        });
        if cancelled {
            observer.on_event(&CampaignEvent::Cancelled { completed });
        }
        observer.on_event(&CampaignEvent::CampaignEnd {
            faults: completed,
            dropped,
            pairs: if K::PAIRS_PER_FAULT {
                finish_pairs
            } else {
                work.pairs
            },
            words: golden_words + work.words,
            micros: duration_micros(total_t.elapsed()),
            cancelled,
        });
    }
    Ok(Finished {
        verdicts,
        cancelled,
        work,
        golden_words,
        compile_time,
        golden_time,
        fault_sim_time,
    })
}
