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
//! [`CancelToken`] at fault boundaries, returning a deterministic
//! fault-ordered prefix when cancelled.

use crate::cpu::{Cpu, CpuMode, Program};
use crate::programs::{checksum, popcount, ARG0, RESULT};
use scal_engine::{
    observe, run_campaign, CampaignKind, CampaignSpec, EngineError, Finish, Toggle, UnitCx,
    UnitOutcome, Work,
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

    /// Attaches a cancellation token checked at fault boundaries.
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
        // Extracting the unit netlist from the datapath and enumerating its
        // fault sites; the driver compiles it only to collapse the faults —
        // the interpreted datapath carries no compiled schedule.
        let unit_circuit = {
            let cpu = Cpu::new(CpuMode::Normal);
            match self.unit {
                CpuUnit::Adder => cpu.datapath.adder,
                CpuUnit::Logic => cpu.datapath.logic,
            }
        };
        let faults = enumerate_faults(&unit_circuit);
        let overrides: Vec<Override> = faults.iter().map(|f| f.to_override()).collect();
        let fan = observe(Some(self.observer), self.coverage, || {
            faults.iter().map(|f| f.describe(&unit_circuit)).collect()
        });
        let spec = CampaignSpec {
            campaign: match self.unit {
                CpuUnit::Adder => "cpu_adder",
                CpuUnit::Logic => "cpu_logic",
            },
            circuit: &unit_circuit,
            faults: &overrides,
            // One interpreted evaluation at a time.
            threads: 1,
            fault_collapse: self.fault_collapse,
            observer: &fan,
            cancel: self.cancel,
        };
        let run = run_campaign(&spec, |c| {
            Ok(CpuKind {
                unit: self.unit,
                workloads: &self.workloads,
                budget: self.budget,
                sim_faults: c.sim_faults,
            })
        })
        .expect("datapath unit netlists compile");
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
        CpuCampaign {
            results,
            periods: run.work.words,
            cancelled: run.cancelled,
        }
    }
}

/// One simulated fault's outcome over the workload suite.
#[derive(Debug, Clone)]
struct CpuVerdict {
    detected: usize,
    dormant: usize,
    undetected_wrong: usize,
    /// Index of the first workload whose run tripped a check.
    first_detected: Option<u32>,
    /// CPU periods this fault's runs executed.
    periods: u64,
}

/// The CPU campaign as the driver sees it: one fault per unit, every
/// workload run on the interpreted datapath with that fault injected.
struct CpuKind<'a> {
    unit: CpuUnit,
    workloads: &'a [Workload],
    budget: u64,
    sim_faults: Vec<Override>,
}

impl CpuKind<'_> {
    /// A fresh alternating-mode CPU with `w`'s memory setup applied.
    fn cpu_for(w: &Workload) -> Cpu {
        let mut cpu = Cpu::new(CpuMode::Alternating);
        for &(a, v) in &w.setup {
            cpu.memory.write(a, v);
        }
        cpu
    }
}

impl CampaignKind for CpuKind<'_> {
    type Worker = ();
    type Verdict = CpuVerdict;

    fn unit_size(&self) -> usize {
        1
    }

    fn header(&self) -> Vec<CampaignEvent> {
        // One interpreted evaluation at a time: the geometry event keeps
        // bench rows comparable with the lane-packed engine campaigns.
        vec![CampaignEvent::LaneGeometry {
            width: 1,
            fault_lanes: 0,
            pattern_lanes: 1,
            packing: "scalar",
        }]
    }

    /// Every workload must pass fault-free.
    fn golden(&mut self) -> Result<(u64, Option<()>), EngineError> {
        for w in self.workloads {
            let mut cpu = Self::cpu_for(w);
            cpu.run(&w.program, self.budget)
                .expect("fault-free workload run");
            assert_eq!(
                cpu.memory.read(RESULT),
                Ok(w.expect),
                "workload {} golden result",
                w.name
            );
        }
        Ok((0, None))
    }

    fn worker(&self) {}

    fn simulate(&self, (): &mut (), cx: &UnitCx<'_>) -> Option<UnitOutcome<CpuVerdict>> {
        let fault = self.sim_faults[cx.faults.start];
        let mut v = CpuVerdict {
            detected: 0,
            dormant: 0,
            undetected_wrong: 0,
            first_detected: None,
            periods: 0,
        };
        for (widx, w) in self.workloads.iter().enumerate() {
            let mut cpu = Self::cpu_for(w);
            match self.unit {
                CpuUnit::Adder => cpu.datapath.fault_adder(fault),
                CpuUnit::Logic => cpu.datapath.fault_logic(fault),
            }
            match cpu.run(&w.program, self.budget) {
                Err(_) => {
                    v.detected += 1;
                    if v.first_detected.is_none() {
                        v.first_detected = u32::try_from(widx).ok();
                    }
                }
                Ok(_) => {
                    if cpu.memory.read(RESULT) == Ok(w.expect) {
                        v.dormant += 1;
                    } else {
                        v.undetected_wrong += 1;
                    }
                }
            }
            v.periods += cpu.stats().periods;
        }
        let work = Work {
            pairs: v.periods / 2,
            words: v.periods,
            micros: 0,
        };
        Some(UnitOutcome {
            verdicts: vec![v],
            unit_events: Vec::new(),
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
        // Collapsing pinned off: the cancel-after-2 observer and the length
        // assertion below count individual faults, which under collapsing
        // would be representative units instead.
        let full = Campaign::new(CpuUnit::Logic).fault_collapse(false).run();
        let cancel = CancelToken::new();

        struct CancelAfter<'a> {
            token: &'a CancelToken,
            after: usize,
        }
        impl CampaignObserver for CancelAfter<'_> {
            fn on_event(&self, event: &CampaignEvent) {
                if let CampaignEvent::Progress { done, .. } = event {
                    if *done >= self.after {
                        self.token.cancel();
                    }
                }
            }
        }
        let obs = CancelAfter {
            token: &cancel,
            after: 2,
        };
        let partial = Campaign::new(CpuUnit::Logic)
            .fault_collapse(false)
            .observer(&obs)
            .cancel(&cancel)
            .run();
        assert!(partial.cancelled);
        assert_eq!(partial.results.len(), 2);
        assert_eq!(partial.results[..], full.results[..2]);
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
}
