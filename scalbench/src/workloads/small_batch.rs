//! `small_batch`: a one-thread closed loop of thousands of tiny campaigns —
//! the paper's fixtures, small ripple adders, dualized seeded networks and
//! the Kohavi machines on short drives. Half the pair campaigns drop faults
//! on detection (the synthesis-fitness use), the other half build a full
//! coverage map. Compile, collapse, merge and observer replay dominate.

use super::{
    combine, drive_words, pair_drop_digest, pair_full_digest, seq_digest, through_text,
    verify_large::probe_pair_layers, word_width, Closed, Expect, Field, OpCx, OpResult, Scale,
};
use crate::trace::Layers;
use crate::util::{Digest, Rng};
use scal_faults::{enumerate_faults, Campaign, CampaignReport};
use scal_netlist::{Circuit, GateKind, NetlistFormat, NodeId};
use scal_obs::{CoverageMap, CoverageObserver};
use scal_seq::{ScalMachine, SeqBackend};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Pair campaign with fault dropping.
    Drop(usize),
    /// Full pair campaign building a coverage map.
    Coverage(usize),
    /// Sequential campaign: machine, drive.
    Seq(usize, usize),
}

/// (inputs, gates, outputs) of the seeded networks, dualized before use.
/// Costs cluster by size, with a gap between the cheap clusters and the
/// rest; the mix puts the cycle's median operation well inside the dense
/// part above that gap, so the seed's draw does not move it across.
const NETWORKS: [(usize, usize, usize); 20] = [
    (6, 16, 2),
    (7, 18, 2),
    (5, 14, 3),
    (6, 18, 1),
    (7, 22, 2),
    (8, 26, 3),
    (4, 30, 2),
    (5, 12, 1),
    (6, 20, 2),
    (7, 28, 3),
    (6, 22, 1),
    (4, 12, 1),
    (5, 16, 2),
    (6, 20, 3),
    (7, 24, 1),
    (8, 28, 2),
    (4, 26, 3),
    (5, 18, 2),
    (6, 14, 1),
    (7, 30, 2),
];
const DRIVE_LENGTHS: [usize; 5] = [8, 16, 24, 32, 48];

pub struct SmallBatch {
    circuits: Vec<Circuit>,
    machines: Vec<ScalMachine>,
    drives: Vec<Vec<Vec<Vec<bool>>>>,
    cycle: Vec<Op>,
    pub parse_s: f64,
    inputs: u64,
}

/// A seeded combinational network with `inputs` inputs, later dualized.
fn random_network(rng: &mut Rng, inputs: usize, gates: usize, outputs: usize) -> Circuit {
    const KINDS: [GateKind; 6] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Not,
    ];
    let mut c = Circuit::new();
    let mut pool: Vec<NodeId> = (0..inputs).map(|i| c.input(format!("x{i}"))).collect();
    for _ in 0..gates {
        let kind = KINDS[rng.range(0, KINDS.len() as u64) as usize];
        let node = if kind == GateKind::Not {
            let a = pool[rng.range(0, pool.len() as u64) as usize];
            c.not(a)
        } else {
            let arity = 2 + usize::from(rng.range(0, 4) == 0);
            let fanins: Vec<NodeId> = (0..arity)
                .map(|_| pool[rng.range(0, pool.len() as u64) as usize])
                .collect();
            c.gate(kind, &fanins)
        };
        pool.push(node);
    }
    for k in 0..outputs {
        c.mark_output(format!("f{k}"), pool[pool.len() - 1 - k]);
    }
    c
}

/// Digest of a coverage map's records, with backend-dependent annotations
/// and the campaign flavour (`pair` vs `pair_scalar`) left out.
fn coverage_digest(map: &CoverageMap) -> u64 {
    let mut m = map.without_annotations();
    m.campaign.clear();
    Digest::default().bytes(m.to_json().as_bytes()).finish()
}

impl SmallBatch {
    pub fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 2);
        // Full scale: 26 circuits twice each plus five drives, an odd cycle
        // so the latency median falls inside one operation's samples.
        let mut lengths = rng.shuffled(&DRIVE_LENGTHS).into_iter();
        let (n_random, adders, drive_counts) = match scale {
            Scale::Full => (NETWORKS.len(), 4, [3, 2]),
            Scale::Tiny => (2, 1, [1, 1]),
        };
        let mut raw = vec![
            scal_core::paper::fig3_4().circuit,
            scal_core::paper::fig3_7().circuit,
        ];
        raw.extend((1..=adders).map(scal_core::paper::ripple_adder));
        // Network sizes (inputs, gates, outputs) are a fixed multiset; the
        // seed draws their order and structure.
        for &(inputs, gates, outputs) in rng.shuffled(&NETWORKS).iter().take(n_random) {
            raw.push(scal_core::dualize(&random_network(
                &mut rng, inputs, gates, outputs,
            )));
        }
        let mut d = Digest::default();
        let mut parse_s = 0.0;
        let mut circuits = Vec::new();
        for c in &raw {
            let (c, text, p) = through_text(c, NetlistFormat::ScalText)?;
            d.bytes(text.as_bytes());
            parse_s += p;
            circuits.push(c);
        }
        let mut machines = Vec::new();
        let mut drives = Vec::new();
        for (sm, drives_per_machine) in [
            scal_seq::kohavi::reynolds_circuit(),
            scal_seq::kohavi::translator_circuit(),
        ]
        .into_iter()
        .zip(drive_counts)
        {
            let (c, text, p) = through_text(&sm.circuit, NetlistFormat::ScalText)?;
            d.bytes(text.as_bytes());
            parse_s += p;
            let sm = ScalMachine { circuit: c, ..sm };
            let mut ds = Vec::new();
            for _ in 0..drives_per_machine {
                let n = lengths.next().expect("a length per drive");
                let w = drive_words(&mut rng, n, word_width(&sm));
                for word in &w {
                    d.u64(word.iter().fold(0, |a, &b| a << 1 | u64::from(b)));
                }
                ds.push(w);
            }
            drives.push(ds);
            machines.push(sm);
        }
        let mut cycle = Vec::new();
        for i in 0..circuits.len() {
            cycle.push(Op::Drop(i));
            cycle.push(Op::Coverage(i));
        }
        for (m, ds) in drives.iter().enumerate() {
            for k in 0..ds.len() {
                cycle.push(Op::Seq(m, k));
            }
        }
        Ok(SmallBatch {
            circuits,
            machines,
            drives,
            cycle,
            parse_s,
            inputs: d.finish(),
        })
    }

    fn pair(&self, i: usize, coverage: bool, cx: &mut OpCx<'_>) -> Result<OpResult, String> {
        let c = &self.circuits[i];
        let faults = cx.span("faults.enumerate", || enumerate_faults(c));
        let obs = cx.observer();
        let cov = CoverageObserver::new();
        let t = Instant::now();
        let mut camp = cx
            .knob
            .pair(Campaign::new(c).faults(faults), 1)
            .drop_after_detection(!coverage);
        if coverage {
            camp = camp.coverage(&cov);
        }
        if let Some(o) = &obs {
            camp = camp.observer(o);
        }
        let report = camp.run().map_err(|e| format!("pair campaign: {e}"))?;
        let map = if coverage {
            let map = cx.span("obs.coverage_latest", || cov.latest());
            Some(map.ok_or("campaign produced no coverage map")?)
        } else {
            None
        };
        cx.stop();
        cx.campaign_done("faults.campaign", "faults.campaign_s", t, obs.as_ref());
        Ok(pair_result(&report, map.as_ref()))
    }
}

/// The digests of a pair campaign: full verdicts plus the coverage map when
/// one was built, first-detection verdicts under dropping.
fn pair_result(report: &CampaignReport, map: Option<&CoverageMap>) -> OpResult {
    let per_fault: Vec<u64> = match map {
        Some(_) => report.results.iter().map(pair_full_digest).collect(),
        None => report.results.iter().map(pair_drop_digest).collect(),
    };
    let digest = match map {
        Some(m) => combine(&[combine(&per_fault), coverage_digest(m)]),
        None => combine(&per_fault),
    };
    OpResult {
        faults: report.results.len() as u64,
        digest,
        violations: 0,
        per_fault,
    }
}

impl Closed for SmallBatch {
    fn cycle_len(&self) -> usize {
        self.cycle.len()
    }

    fn run_op(&self, i: usize, cx: &mut OpCx<'_>) -> Result<OpResult, String> {
        match self.cycle[i] {
            Op::Drop(c) => self.pair(c, false, cx),
            Op::Coverage(c) => self.pair(c, true, cx),
            Op::Seq(m, k) => {
                let obs = cx.observer();
                let t = Instant::now();
                let mut camp = cx.knob.seq(
                    scal_seq::Campaign::new(&self.machines[m], &self.drives[m][k]),
                    1,
                );
                if let Some(o) = &obs {
                    camp = camp.observer(o);
                }
                let out = camp.run().map_err(|e| format!("seq campaign: {e}"))?;
                cx.stop();
                cx.campaign_done("seq.campaign", "seq.campaign_s", t, obs.as_ref());
                let per_fault: Vec<u64> =
                    out.outcomes.iter().map(|(f, o)| seq_digest(f, o)).collect();
                Ok(OpResult {
                    faults: out.outcomes.len() as u64,
                    digest: combine(&per_fault),
                    violations: 0,
                    per_fault,
                })
            }
        }
    }

    /// Every operation of the cycle is checked: the campaigns are small, and
    /// a fixed check set keeps the set-up cost independent of the seed.
    fn expectations(&self, _rng: &mut Rng) -> Result<Vec<Expect>, String> {
        let mut out = Vec::new();
        for i in 0..self.cycle.len() {
            let oracle = match self.cycle[i] {
                Op::Drop(c) | Op::Coverage(c) => {
                    let coverage = matches!(self.cycle[i], Op::Coverage(_));
                    let cov = CoverageObserver::new();
                    let mut camp = Campaign::new(&self.circuits[c]).scalar();
                    if coverage {
                        camp = camp.coverage(&cov);
                    }
                    let report = camp.run().map_err(|e| format!("scalar oracle: {e}"))?;
                    let map = if coverage { cov.latest() } else { None };
                    pair_result(&report, map.as_ref()).digest
                }
                Op::Seq(m, k) => {
                    let run = scal_seq::Campaign::new(&self.machines[m], &self.drives[m][k])
                        .backend(SeqBackend::Graph)
                        .run()
                        .map_err(|e| format!("graph oracle: {e}"))?;
                    let per_fault: Vec<u64> =
                        run.outcomes.iter().map(|(f, o)| seq_digest(f, o)).collect();
                    combine(&per_fault)
                }
            };
            out.push(Expect {
                what: format!("small op {i} ({:?}) vs independent path", self.cycle[i]),
                op: i,
                field: Field::Digest,
                oracle,
            });
        }
        Ok(out)
    }

    fn probe(&self, layers: &mut Layers) {
        // Each circuit appears twice per cycle (drop and coverage).
        for c in &self.circuits {
            probe_pair_layers(c, layers);
            probe_pair_layers(c, layers);
        }
        layers.probe_add("netlist.parse_s", self.parse_s);
        // Coverage-map overhead: the same full campaigns with and without a
        // coverage observer.
        let (mut with, mut bare) = (0.0, 0.0);
        for c in &self.circuits {
            for _ in 0..20 {
                let t = Instant::now();
                let _ = Campaign::new(c).threads(1).run();
                bare += t.elapsed().as_secs_f64();
                let cov = CoverageObserver::new();
                let t = Instant::now();
                let _ = Campaign::new(c).threads(1).coverage(&cov).run();
                let _ = std::hint::black_box(cov.latest());
                with += t.elapsed().as_secs_f64();
            }
        }
        if bare > 0.0 {
            layers.sample("obs.coverage_overhead", with / bare);
        }
    }

    fn inputs_digest(&self) -> u64 {
        self.inputs
    }
}
