//! Observable fault campaigns over the SCAL computer's datapath units.
//!
//! The Chapter-7 experiments inject every collapsed stuck-at fault of one
//! gate-level datapath unit (the Fig. 2.2 adder or the logic unit) and run a
//! suite of program workloads in alternating mode, classifying each fault as
//! *detected* (an alternation check fired), *dormant* (the workload never
//! sensitized it — the answer is still correct), or *undetected-wrong* (the
//! dangerous case the paper's Theorem 3.1 is about). The [`Campaign`]
//! builder mirrors `scal_faults::Campaign` and runs on the shared campaign
//! driver ([`scal_engine::run_campaign`]): it forwards every step to a
//! [`CampaignObserver`], collapses the unit's fault list, and honours a
//! [`CancelToken`] between batches of 63 faults, returning a deterministic
//! fault-ordered prefix when cancelled.
//!
//! Faults run as concurrent, lock-step faulty CPUs: each workload runs once
//! fault-free on the interpreted datapath, recording every datapath
//! operation, and then up to 63 faults at a time replay that trace in the
//! lanes of one packed evaluation of the compiled unit — two periods per
//! operation on the faulted unit. A lane whose unit output fails to
//! alternate is detected there; a lane whose output alternates but is wrong
//! has left the golden trajectory undetected, so that fault × workload is
//! re-run on the interpreted datapath, which is exact; a lane still in
//! lock-step at the end of the trace is dormant.

use crate::cpu::{Cpu, CpuMode, DatapathOp, Program};
use crate::datapath::Datapath;
use crate::programs::{checksum, popcount, ARG0, RESULT};
use scal_engine::{
    observe, run_campaign, CampaignKind, CampaignSpec, CompiledCircuit, EngineError, Finish,
    PackedBatchPlan, PackedSeqSim, Toggle, UnitCx, UnitOutcome, Work,
};
use scal_faults::{enumerate_faults, Fault};
use scal_netlist::Override;
use scal_obs::{CampaignEvent, CampaignObserver, CancelToken, CoverageObserver, NullObserver};

/// Which gate-level datapath unit the campaign injects faults into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuUnit {
    /// The self-dual full adder of Fig. 2.2 (the ALU's arithmetic core).
    Adder,
    /// The bitwise logic unit (AND/OR/XOR of Fig. 7.4).
    Logic,
}

/// A program workload: code, memory setup, and the expected [`RESULT`] byte.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name used in reports.
    pub name: &'static str,
    /// The program to run.
    pub program: Program,
    /// `(address, value)` pokes applied before the run.
    pub setup: Vec<(u8, u8)>,
    /// The byte a fault-free run leaves at [`RESULT`].
    pub expect: u8,
}

/// The default workload suite: popcount and a block checksum, exercising
/// the logic unit, shifter, and adder on every instruction class.
#[must_use]
pub fn default_workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "popcount(0xB7)",
            program: popcount(),
            setup: vec![(ARG0, 0xB7)],
            expect: 6,
        },
        Workload {
            name: "checksum(4)",
            program: checksum(),
            setup: vec![(0x60, 0x0F), (0x61, 0xF0), (0x62, 1), (0x63, 2)],
            expect: 0x0F ^ 0xF0 ^ 1 ^ 2,
        },
    ]
}

/// Per-fault outcome over the whole workload suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuFaultResult {
    /// The injected fault.
    pub fault: Fault,
    /// Workloads on which an alternation (or other) check fired.
    pub detected: usize,
    /// Workloads that finished with the correct answer (fault dormant).
    pub dormant: usize,
    /// Workloads that finished with a *wrong* answer undetected.
    pub undetected_wrong: usize,
}

/// Result of a CPU fault campaign: per-fault results in fault order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuCampaign {
    /// One entry per simulated fault, in `enumerate_faults` order. When
    /// `cancelled`, this is a contiguous prefix of the full fault list.
    pub results: Vec<CpuFaultResult>,
    /// Total CPU periods executed across all faulty runs.
    pub periods: u64,
    /// True when a [`CancelToken`] stopped the campaign early.
    pub cancelled: bool,
}

impl CpuCampaign {
    /// Faults with at least one undetected wrong answer — must be empty for
    /// the single-fault coverage claim of §7.1 to hold on this workload.
    #[must_use]
    pub fn undetected_wrong(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.undetected_wrong > 0)
            .count()
    }
}

/// Builder for a datapath fault campaign, mirroring
/// [`scal_faults::Campaign`].
///
/// ```
/// use scal_system::campaign::{Campaign, CpuUnit};
/// let report = Campaign::new(CpuUnit::Logic).run();
/// assert_eq!(report.undetected_wrong(), 0);
/// ```
pub struct Campaign<'a> {
    unit: CpuUnit,
    workloads: Vec<Workload>,
    budget: u64,
    observer: &'a dyn CampaignObserver,
    coverage: Option<&'a CoverageObserver>,
    cancel: Option<&'a CancelToken>,
    fault_collapse: Toggle,
}

impl std::fmt::Debug for Campaign<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("unit", &self.unit)
            .field("workloads", &self.workloads.len())
            .field("budget", &self.budget)
            .field("cancel", &self.cancel.is_some())
            .field("fault_collapse", &self.fault_collapse)
            .finish_non_exhaustive()
    }
}

impl<'a> Campaign<'a> {
    /// A campaign over every collapsed fault of `unit`, with the
    /// [`default_workloads`] suite.
    #[must_use]
    pub fn new(unit: CpuUnit) -> Self {
        Campaign {
            unit,
            workloads: default_workloads(),
            budget: 1_000_000,
            observer: &NullObserver,
            coverage: None,
            cancel: None,
            fault_collapse: Toggle::default(),
        }
    }

    /// Switches compile-time fault collapsing of the unit's fault list:
    /// structurally equivalent stuck-at faults produce identical faulted
    /// unit behaviour on every workload, so only class representatives run
    /// the workload suite and each representative's verdict is expanded
    /// over its class in fault order. Left untouched, collapsing is on.
    #[must_use]
    pub fn fault_collapse(mut self, on: bool) -> Self {
        self.fault_collapse = on.into();
        self
    }

    /// Replaces the workload suite.
    #[must_use]
    pub fn workloads(mut self, workloads: Vec<Workload>) -> Self {
        self.workloads = workloads;
        self
    }

    /// Sets the per-run period budget (runaway-program guard).
    #[must_use]
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches an observer that receives the campaign's event stream.
    #[must_use]
    pub fn observer(mut self, observer: &'a dyn CampaignObserver) -> Self {
        self.observer = observer;
        self
    }

    /// Builds a per-fault [`scal_obs::CoverageMap`] into `coverage`, labelled
    /// with [`Fault::describe`] line names. A record's `first_detected` is
    /// the index of the first workload whose run tripped a check.
    #[must_use]
    pub fn coverage(mut self, coverage: &'a CoverageObserver) -> Self {
        self.coverage = Some(coverage);
        self
    }

    /// Attaches a cancellation token checked between batches of 63 faults.
    #[must_use]
    pub fn cancel(mut self, cancel: &'a CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Runs the campaign.
    ///
    /// # Panics
    ///
    /// Panics if a *fault-free* workload run fails its own expectation —
    /// that is a broken workload, not a campaign outcome.
    #[must_use]
    pub fn run(self) -> CpuCampaign {
        self.run_on(&Datapath::new()).0
    }

    /// Runs the campaign over `datapath`'s units, returning the report and
    /// how many (original fault, workload) runs were answered by a fork to
    /// the interpreted datapath.
    pub(crate) fn run_on(self, datapath: &Datapath) -> (CpuCampaign, usize) {
        // The driver compiles the unit netlist once: it collapses the fault
        // list on it, and every batch of faults runs on it in lock-step.
        let unit_circuit = match self.unit {
            CpuUnit::Adder => &datapath.adder,
            CpuUnit::Logic => &datapath.logic,
        };
        let faults = enumerate_faults(unit_circuit);
        let overrides: Vec<Override> = faults.iter().map(|f| f.to_override()).collect();
        let fan = observe(Some(self.observer), self.coverage, || {
            faults.iter().map(|f| f.describe(unit_circuit)).collect()
        });
        let spec = CampaignSpec {
            campaign: match self.unit {
                CpuUnit::Adder => "cpu_adder",
                CpuUnit::Logic => "cpu_logic",
            },
            circuit: unit_circuit,
            faults: &overrides,
            threads: 1,
            fault_collapse: self.fault_collapse,
            observer: &fan,
            cancel: self.cancel,
        };
        let run = run_campaign(&spec, |c| {
            let plans = c
                .sim_faults
                .chunks(PackedSeqSim::FAULT_LANES)
                .map(|batch| {
                    let refs: Vec<&[Override]> = batch.iter().map(std::slice::from_ref).collect();
                    PackedBatchPlan::build(&c.circuit, &refs)
                })
                .collect();
            Ok(CpuKind {
                unit: self.unit,
                datapath,
                workloads: &self.workloads,
                budget: self.budget,
                sim_faults: c.sim_faults,
                compiled: c.circuit,
                plans,
                golden: Vec::new(),
            })
        })
        .expect("datapath unit netlists compile");
        let forks = run.verdicts.iter().map(|v| v.forks).sum();
        let results = faults
            .into_iter()
            .zip(run.verdicts)
            .map(|(fault, v)| CpuFaultResult {
                fault,
                detected: v.detected,
                dormant: v.dormant,
                undetected_wrong: v.undetected_wrong,
            })
            .collect();
        let report = CpuCampaign {
            results,
            periods: run.work.words,
            cancelled: run.cancelled,
        };
        (report, forks)
    }
}

/// How one faulty workload run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunEnd {
    /// A check fired.
    Detected,
    /// The run finished with the correct answer.
    Dormant,
    /// The run finished with a wrong answer and no check fired.
    Wrong,
}

/// One simulated fault's outcome over the workload suite.
#[derive(Debug, Clone, Default)]
struct CpuVerdict {
    detected: usize,
    dormant: usize,
    undetected_wrong: usize,
    /// Index of the first workload whose run tripped a check.
    first_detected: Option<u32>,
    /// CPU periods this fault's runs executed.
    periods: u64,
    /// Workloads re-run on the interpreted datapath.
    forks: usize,
}

impl CpuVerdict {
    /// Folds in workload `w`'s run, which ended as `end` after `periods`.
    fn record(&mut self, w: usize, end: RunEnd, periods: u64) {
        match end {
            RunEnd::Detected => {
                self.detected += 1;
                if self.first_detected.is_none() {
                    self.first_detected = u32::try_from(w).ok();
                }
            }
            RunEnd::Dormant => self.dormant += 1,
            RunEnd::Wrong => self.undetected_wrong += 1,
        }
        self.periods += periods;
    }
}

/// One workload's fault-free run.
struct GoldenRun {
    /// Every datapath operation, in execution order.
    ops: Vec<DatapathOp>,
    /// CPU periods the run took.
    periods: u64,
}

/// Fault indices (within a batch) of the lanes set in `mask`; lane 0 is
/// golden, lane `i + 1` fault `i`.
fn lanes(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane - 1
        })
    })
}

/// The CPU campaign as the driver sees it: a unit is a batch of up to 63
/// faults riding the lanes of one packed evaluation of the faulted unit
/// (lane 0 golden). Each batch walks every workload's golden datapath trace
/// in lock-step: a faulty CPU whose unit outputs match golden has the
/// golden architectural state, so it keeps following the trace until its
/// unit fails to alternate (detected) or alternates to a wrong value (the
/// lane forks to the interpreted datapath, which finishes that run
/// exactly).
struct CpuKind<'a> {
    unit: CpuUnit,
    datapath: &'a Datapath,
    workloads: &'a [Workload],
    budget: u64,
    sim_faults: Vec<Override>,
    compiled: CompiledCircuit,
    /// Every batch's lane plan, built in the compile phase.
    plans: Vec<PackedBatchPlan>,
    /// One fault-free run per workload, recorded by the golden step.
    golden: Vec<GoldenRun>,
}

impl CpuKind<'_> {
    /// A fresh alternating-mode CPU over the campaign's datapath with
    /// `w`'s memory setup applied.
    fn cpu_for(&self, w: &Workload) -> Cpu {
        let mut cpu = Cpu::with_datapath(CpuMode::Alternating, self.datapath.clone());
        for &(a, v) in &w.setup {
            cpu.memory.write(a, v);
        }
        cpu
    }

    /// Runs `w` on the interpreted datapath with `fault` injected.
    fn run_interpreted(&self, w: &Workload, fault: Override) -> (RunEnd, u64) {
        let mut cpu = self.cpu_for(w);
        match self.unit {
            CpuUnit::Adder => cpu.datapath.fault_adder(fault),
            CpuUnit::Logic => cpu.datapath.fault_logic(fault),
        }
        let end = match cpu.run(&w.program, self.budget) {
            Err(_) => RunEnd::Detected,
            Ok(_) if cpu.memory.read(RESULT) == Ok(w.expect) => RunEnd::Dormant,
            Ok(_) => RunEnd::Wrong,
        };
        (end, cpu.stats().periods)
    }
}

impl CampaignKind for CpuKind<'_> {
    type Worker = ();
    type Verdict = CpuVerdict;

    fn unit_size(&self) -> usize {
        PackedSeqSim::FAULT_LANES
    }

    fn header(&self) -> Vec<CampaignEvent> {
        vec![CampaignEvent::LaneGeometry {
            width: 1,
            fault_lanes: PackedSeqSim::FAULT_LANES,
            pattern_lanes: 0,
            packing: "seq",
        }]
    }

    /// Runs every workload fault-free on the interpreted datapath (each
    /// must pass) and records its datapath trace.
    fn golden(&mut self) -> Result<(u64, Option<()>), EngineError> {
        self.golden = self
            .workloads
            .iter()
            .map(|w| {
                let mut cpu = self.cpu_for(w);
                cpu.trace = Some(Vec::new());
                cpu.run(&w.program, self.budget)
                    .expect("fault-free workload run");
                assert_eq!(
                    cpu.memory.read(RESULT),
                    Ok(w.expect),
                    "workload {} golden result",
                    w.name
                );
                GoldenRun {
                    ops: cpu.trace.take().unwrap_or_default(),
                    periods: cpu.stats().periods,
                }
            })
            .collect();
        Ok((0, None))
    }

    fn worker(&self) {}

    fn simulate(&self, (): &mut (), cx: &UnitCx<'_>) -> Option<UnitOutcome<CpuVerdict>> {
        let faults = &self.sim_faults[cx.faults.clone()];
        let mut sim = PackedSeqSim::from_plan(&self.compiled, &self.plans[cx.unit]);
        let all = sim.lane_mask();
        let mut verdicts = vec![CpuVerdict::default(); faults.len()];
        let mut o1 = vec![0u64; self.compiled.num_outputs()];
        // Periods of golden trace walked, and lanes detected in lock-step
        // on some workload.
        let (mut replayed, mut retired) = (0u64, 0u64);
        for (widx, (w, golden)) in self.workloads.iter().zip(&self.golden).enumerate() {
            let (mut live, mut forked) = (all, 0u64);
            let mut walked = golden.ops.len();
            for (k, op) in golden.ops.iter().enumerate() {
                if op.unit != Some(self.unit) {
                    continue;
                }
                sim.step(&op.inputs(false));
                for (j, o) in o1.iter_mut().enumerate() {
                    *o = sim.output(j);
                }
                sim.step(&op.inputs(true));
                // A lane fails to alternate where its two periods agree; a
                // lane that alternates is wrong in both periods or neither,
                // so the true period decides whether it left lock-step.
                let (mut nonalt, mut wrong) = (0u64, 0u64);
                for (j, &t) in o1.iter().enumerate() {
                    nonalt |= !(t ^ sim.output(j));
                    wrong |= t ^ (t & 1).wrapping_neg();
                }
                let detected = nonalt & live;
                for f in lanes(detected) {
                    verdicts[f].record(widx, RunEnd::Detected, 2 * (k as u64 + 1));
                }
                retired |= detected;
                forked |= wrong & !nonalt & live;
                live &= !(nonalt | wrong);
                if live == 0 {
                    walked = k + 1;
                    break;
                }
            }
            replayed += 2 * walked as u64;
            for f in lanes(live) {
                verdicts[f].record(widx, RunEnd::Dormant, golden.periods);
            }
            for f in lanes(forked) {
                let (end, periods) = self.run_interpreted(w, faults[f]);
                verdicts[f].record(widx, end, periods);
                verdicts[f].forks += 1;
            }
        }
        let unit_events = if cx.record {
            vec![CampaignEvent::LaneBatch {
                batch: cx.unit,
                worker: cx.worker,
                lanes: faults.len(),
                words: replayed,
                retired: retired.count_ones() as usize,
            }]
        } else {
            Vec::new()
        };
        let work = Work {
            pairs: verdicts.iter().map(|v| v.periods / 2).sum(),
            words: verdicts.iter().map(|v| v.periods).sum(),
            micros: 0,
        };
        Some(UnitOutcome {
            verdicts,
            unit_events,
            fault_events: Vec::new(),
            work,
        })
    }

    fn finish(&self, v: &CpuVerdict) -> Finish {
        Finish {
            detected: v.detected,
            violations: v.undetected_wrong,
            observable: v.detected + v.undetected_wrong > 0,
            dropped: false,
            pairs: v.periods / 2,
            first_detected: v.first_detected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::WORD;
    use scal_netlist::{Circuit, NodeId};
    use scal_obs::CollectObserver;

    #[test]
    fn logic_unit_campaign_has_full_coverage() {
        let report = Campaign::new(CpuUnit::Logic).run();
        assert!(!report.results.is_empty());
        assert!(!report.cancelled);
        assert_eq!(report.undetected_wrong(), 0, "single-fault coverage");
    }

    #[test]
    fn observer_sees_full_event_stream_in_fault_order() {
        let collect = CollectObserver::default();
        let report = Campaign::new(CpuUnit::Adder).observer(&collect).run();
        let events = collect.events();
        assert!(matches!(
            events.first(),
            Some(CampaignEvent::CampaignStart {
                campaign: "cpu_adder",
                ..
            })
        ));
        let finishes: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::FaultFinish { fault, .. } => Some(*fault),
                _ => None,
            })
            .collect();
        assert_eq!(finishes, (0..report.results.len()).collect::<Vec<_>>());
        assert!(matches!(
            events.last(),
            Some(CampaignEvent::CampaignEnd {
                cancelled: false,
                ..
            })
        ));
    }

    #[test]
    fn coverage_maps_record_first_detecting_workload() {
        let cov = scal_obs::CoverageObserver::new();
        let report = Campaign::new(CpuUnit::Logic).coverage(&cov).run();
        let map = cov.latest().expect("coverage map");
        assert_eq!(map.records.len(), report.results.len());
        for (rec, res) in map.records.iter().zip(&report.results) {
            assert!(!rec.label.is_empty());
            assert_eq!(rec.detected > 0, res.detected > 0);
            if res.detected > 0 {
                let first = rec.first_detected.expect("first detecting workload");
                assert!((first as usize) < default_workloads().len());
            } else {
                assert_eq!(rec.first_detected, None);
            }
        }
    }

    #[test]
    fn cancellation_returns_fault_ordered_prefix() {
        // Collapsing pinned off so the prefix counts individual faults.
        // Cancellation is checked between 63-fault batches: cancelling on
        // the first progress tick leaves exactly the first batch answered.
        let full = Campaign::new(CpuUnit::Logic).fault_collapse(false).run();
        let cancel = CancelToken::new();

        struct CancelOnProgress<'a>(&'a CancelToken);
        impl CampaignObserver for CancelOnProgress<'_> {
            fn on_event(&self, event: &CampaignEvent) {
                if matches!(event, CampaignEvent::Progress { .. }) {
                    self.0.cancel();
                }
            }
        }
        let obs = CancelOnProgress(&cancel);
        let partial = Campaign::new(CpuUnit::Logic)
            .fault_collapse(false)
            .observer(&obs)
            .cancel(&cancel)
            .run();
        assert!(partial.cancelled);
        let n = partial.results.len();
        assert!(n > 0 && n < full.results.len(), "prefix of {n} faults");
        assert_eq!(partial.results[..], full.results[..n]);
    }

    /// Each coverage record carries its own fault's pairs, not a running
    /// total: the collapsed and uncollapsed maps agree record for record,
    /// and the uncollapsed records' pairs add up to the campaign's total.
    #[test]
    fn coverage_records_carry_per_fault_pairs() {
        for unit in [CpuUnit::Adder, CpuUnit::Logic] {
            let (plain, collapsed) = (CoverageObserver::new(), CoverageObserver::new());
            let collect = CollectObserver::default();
            let _ = Campaign::new(unit)
                .fault_collapse(false)
                .observer(&collect)
                .coverage(&plain)
                .run();
            let _ = Campaign::new(unit)
                .fault_collapse(true)
                .coverage(&collapsed)
                .run();
            let plain = plain.latest().expect("uncollapsed map");
            let collapsed = collapsed.latest().expect("collapsed map");
            assert_eq!(
                collapsed.without_annotations(),
                plain.without_annotations(),
                "{unit:?}"
            );
            let end_pairs = collect
                .events()
                .iter()
                .find_map(|e| match e {
                    CampaignEvent::CampaignEnd { pairs, .. } => Some(*pairs),
                    _ => None,
                })
                .expect("campaign_end");
            let record_pairs: u64 = plain.records.iter().map(|r| r.pairs).sum();
            assert_eq!(record_pairs, end_pairs, "{unit:?}");
        }
    }

    #[test]
    fn collapsed_campaign_matches_uncollapsed() {
        for unit in [CpuUnit::Adder, CpuUnit::Logic] {
            let plain = Campaign::new(unit).fault_collapse(false).run();
            let collect = CollectObserver::default();
            let collapsed = Campaign::new(unit)
                .fault_collapse(true)
                .observer(&collect)
                .run();
            assert_eq!(collapsed.results, plain.results, "{unit:?} verdicts");
            assert!(!collapsed.cancelled);
            // The collapsed sweep must actually have merged classes and run
            // less interpreted work than the full sweep.
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
                .expect("FaultCollapse event");
            assert_eq!(faults, plain.results.len());
            assert!(reps < faults, "{unit:?} collapse must merge classes");
            assert!(collapsed.periods < plain.periods, "{unit:?} rep-only work");
            let classes = events
                .iter()
                .filter(|e| matches!(e, CampaignEvent::FaultClass { .. }))
                .count();
            assert_eq!(classes, faults - reps);
        }
    }

    /// The interpreted oracle: every fault × workload on a fresh CPU over
    /// `datapath`, with no engine code involved.
    fn interpreted_oracle(datapath: &Datapath, unit: CpuUnit) -> Vec<CpuFaultResult> {
        let circuit = match unit {
            CpuUnit::Adder => &datapath.adder,
            CpuUnit::Logic => &datapath.logic,
        };
        enumerate_faults(circuit)
            .into_iter()
            .map(|fault| {
                let mut r = CpuFaultResult {
                    fault,
                    detected: 0,
                    dormant: 0,
                    undetected_wrong: 0,
                };
                for w in default_workloads() {
                    let mut cpu = Cpu::with_datapath(CpuMode::Alternating, datapath.clone());
                    for &(a, v) in &w.setup {
                        cpu.memory.write(a, v);
                    }
                    match unit {
                        CpuUnit::Adder => cpu.datapath.fault_adder(fault.to_override()),
                        CpuUnit::Logic => cpu.datapath.fault_logic(fault.to_override()),
                    }
                    match cpu.run(&w.program, 1_000_000) {
                        Err(_) => r.detected += 1,
                        Ok(_) if cpu.memory.read(RESULT) == Ok(w.expect) => r.dormant += 1,
                        Ok(_) => r.undetected_wrong += 1,
                    }
                }
                r
            })
            .collect()
    }

    /// A logic unit whose XOR is `(a ⊕ b) ⊕ φ`: the intermediate `a ⊕ b`
    /// line does not alternate, so a stuck-at fault on it makes the XOR
    /// output alternate to a wrong value — the non-alternating internal
    /// line case, which lock-step lanes must fork out of.
    fn chained_xor_logic_unit() -> Circuit {
        let mut c = Circuit::new();
        let a: Vec<NodeId> = (0..WORD).map(|i| c.input(format!("a{i}"))).collect();
        let b: Vec<NodeId> = (0..WORD).map(|i| c.input(format!("b{i}"))).collect();
        let phi = c.input("phi");
        let nphi = c.not(phi);
        let maj = |c: &mut Circuit, x: NodeId, y: NodeId, z: NodeId| {
            let g1 = c.nand(&[x, y]);
            let g2 = c.nand(&[x, z]);
            let g3 = c.nand(&[y, z]);
            c.nand(&[g1, g2, g3])
        };
        let ands: Vec<NodeId> = (0..WORD).map(|i| maj(&mut c, a[i], b[i], phi)).collect();
        let ors: Vec<NodeId> = (0..WORD).map(|i| maj(&mut c, a[i], b[i], nphi)).collect();
        let xors: Vec<NodeId> = (0..WORD)
            .map(|i| {
                let ab = c.xor(&[a[i], b[i]]);
                c.xor(&[ab, phi])
            })
            .collect();
        for (name, nodes) in [("and", &ands), ("or", &ors), ("xor", &xors)] {
            for (i, &n) in nodes.iter().enumerate() {
                c.mark_output(format!("{name}{i}"), n);
            }
        }
        c
    }

    #[test]
    fn wrong_alternating_lanes_fork_to_the_interpreted_datapath() {
        let mut datapath = Datapath::new();
        datapath.logic = chained_xor_logic_unit();
        let oracle = interpreted_oracle(&datapath, CpuUnit::Logic);
        for collapse in [false, true] {
            let (report, forks) = Campaign::new(CpuUnit::Logic)
                .fault_collapse(collapse)
                .run_on(&datapath);
            assert!(report.undetected_wrong() > 0, "collapse {collapse}");
            assert!(forks > 0, "collapse {collapse}");
            assert_eq!(report.results, oracle, "collapse {collapse}");
        }
    }
}
