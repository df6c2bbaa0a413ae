//! `cpu_datapath`: Chapter-7 CPU campaigns on the adder and the logic unit,
//! each over a seeded program suite (popcount, checksum, multiply,
//! fibonacci with seeded arguments). The interpreted datapath does almost
//! all the work; the engine only collapses the fault list.

use super::{combine, fault_word, Closed, Expect, Field, OpCx, OpResult, Scale};
use crate::trace::Layers;
use crate::util::{Digest, Rng};
use scal_system::campaign::{Campaign, CpuUnit, Workload};
use scal_system::programs::{self, ARG0, ARG1, RESULT};
use scal_system::{Cpu, CpuMode};
use std::time::Instant;

/// Instruction budget per program run: far above what the seeded suites
/// need fault-free, so only a fault can exhaust it.
const BUDGET: u64 = 50_000;

pub struct CpuDatapath {
    /// Cycle: (unit, program suite).
    cycle: Vec<(CpuUnit, Vec<Workload>)>,
    inputs: u64,
}

fn fib(n: u8) -> u8 {
    let (mut a, mut b) = (0u8, 1u8);
    for _ in 0..n {
        (a, b) = (b, a.wrapping_add(b));
    }
    a
}

/// Loop counts of `multiply` and `fibonacci` across the suites of a cycle:
/// a fixed multiset, dealt out in seeded order.
const MULTIPLY_COUNTS: [u8; 15] = [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 3, 5, 7, 9];
const FIB_COUNTS: [u8; 15] = [5, 6, 7, 8, 9, 10, 11, 12, 6, 7, 8, 9, 10, 11, 8];

/// One seeded suite of the four programs with loop counts `b` and `n`, with
/// expected results computed independently of the CPU model.
fn suite(rng: &mut Rng, b: u8, n: u8) -> Vec<Workload> {
    let x = rng.range(0, 256) as u8;
    let block: Vec<u8> = (0..4).map(|_| rng.range(0, 256) as u8).collect();
    let a = rng.range(0, 256) as u8;
    vec![
        Workload {
            name: "popcount",
            program: programs::popcount(),
            setup: vec![(ARG0, x)],
            expect: x.count_ones() as u8,
        },
        Workload {
            name: "checksum",
            program: programs::checksum(),
            setup: (0..4).map(|k| (0x60 + k as u8, block[k])).collect(),
            expect: block.iter().fold(0, |acc, v| acc ^ v),
        },
        Workload {
            name: "multiply",
            program: programs::multiply(),
            setup: vec![(ARG0, a), (ARG1, b)],
            expect: a.wrapping_mul(b),
        },
        Workload {
            name: "fibonacci",
            program: programs::fibonacci(),
            setup: vec![(ARG0, n)],
            expect: fib(n),
        },
    ]
}

/// Fault-free run of one program in alternating mode; the result it left.
fn golden_run(w: &Workload) -> Result<u8, String> {
    let mut cpu = Cpu::new(CpuMode::Alternating);
    for &(a, v) in &w.setup {
        cpu.memory.write(a, v);
    }
    cpu.run(&w.program, BUDGET)
        .map_err(|e| format!("fault-free {} run: {e:?}", w.name))?;
    if !cpu.halted() {
        return Err(format!("fault-free {} run did not halt", w.name));
    }
    cpu.memory
        .read(RESULT)
        .map_err(|e| format!("fault-free {} result: {e:?}", w.name))
}

fn unit_name(u: CpuUnit) -> &'static str {
    match u {
        CpuUnit::Adder => "adder",
        CpuUnit::Logic => "logic",
    }
}

impl CpuDatapath {
    pub fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 3);
        // An odd number of distinct campaigns, alternating between the two
        // units, keeps the latency median inside one campaign's samples.
        let suites = match scale {
            Scale::Full => MULTIPLY_COUNTS.len(),
            Scale::Tiny => 1,
        };
        let mut cycle = Vec::new();
        let mut d = Digest::default();
        let bs = rng.shuffled(&MULTIPLY_COUNTS);
        let ns = rng.shuffled(&FIB_COUNTS);
        for k in 0..suites {
            let mut s = suite(&mut rng, bs[k], ns[k]);
            if scale == Scale::Tiny {
                s.truncate(2);
            }
            // Oracle reference: the CPU model must compute what the
            // arithmetic says before any fault is injected.
            for w in &s {
                let got = golden_run(w)?;
                if got != w.expect {
                    return Err(format!(
                        "fault-free {} gave {got}, expected {}",
                        w.name, w.expect
                    ));
                }
                for &(a, v) in &w.setup {
                    d.u64(u64::from(a) << 8 | u64::from(v));
                }
            }
            let unit = if k % 2 == 0 {
                CpuUnit::Adder
            } else {
                CpuUnit::Logic
            };
            cycle.push((unit, s));
        }
        Ok(CpuDatapath {
            cycle,
            inputs: d.finish(),
        })
    }
}

impl Closed for CpuDatapath {
    fn cycle_len(&self) -> usize {
        self.cycle.len()
    }

    fn run_op(&self, i: usize, cx: &mut OpCx<'_>) -> Result<OpResult, String> {
        let (unit, suite) = &self.cycle[i];
        let obs = cx.observer();
        let t = Instant::now();
        let mut camp = cx
            .knob
            .cpu(Campaign::new(*unit).workloads(suite.clone()).budget(BUDGET));
        if let Some(o) = &obs {
            camp = camp.observer(o);
        }
        let out = camp.run();
        cx.stop();
        let metric = match unit {
            CpuUnit::Adder => "system.campaign_adder_s",
            CpuUnit::Logic => "system.campaign_logic_s",
        };
        cx.campaign_done("system.campaign", metric, t, obs.as_ref());
        if let Some(l) = cx.layers() {
            for r in &out.results {
                l.add("system.detected", r.detected as f64);
                l.add("system.dormant", r.dormant as f64);
                l.add("system.undetected_wrong", r.undetected_wrong as f64);
            }
        }
        let per_fault: Vec<u64> = out
            .results
            .iter()
            .map(|r| {
                Digest::default()
                    .u64(fault_word(&r.fault))
                    .u64(r.detected as u64)
                    .u64(r.dormant as u64)
                    .u64(r.undetected_wrong as u64)
                    .finish()
            })
            .collect();
        Ok(OpResult {
            faults: out.results.len() as u64,
            digest: combine(&per_fault),
            violations: out.undetected_wrong() as u64,
            per_fault,
        })
    }

    fn expectations(&self, _rng: &mut Rng) -> Result<Vec<Expect>, String> {
        // Every fault that corrupted a result must have been flagged; that
        // verdicts repeat exactly is checked after every operation.
        Ok(self
            .cycle
            .iter()
            .enumerate()
            .map(|(op, (unit, _))| Expect {
                what: format!(
                    "cpu op {op} ({}) undetected wrong results",
                    unit_name(*unit)
                ),
                op,
                field: Field::Violations,
                oracle: 0,
            })
            .collect())
    }

    fn probe(&self, layers: &mut Layers) {
        // The campaign enumerates, compiles and collapses its unit's netlist
        // once per run.
        let datapath = scal_system::Datapath::new();
        for (unit, _) in &self.cycle {
            let circuit = match unit {
                CpuUnit::Adder => &datapath.adder,
                CpuUnit::Logic => &datapath.logic,
            };
            super::verify_large::probe_pair_layers(circuit, layers);
        }
        for (_, suite) in &self.cycle {
            for w in suite {
                layers.probe_add(
                    "system.golden_run_s",
                    super::time_median(5, || {
                        let _ = std::hint::black_box(golden_run(w));
                    }),
                );
            }
        }
    }

    fn inputs_digest(&self) -> u64 {
        self.inputs
    }
}
