//! `verify_large`: full-coverage pair campaigns on seeded self-dual circuits
//! of a few thousand gates, beside long-drive sequential campaigns on seeded
//! pattern detectors, all at `threads = nproc`. Golden and fault simulation
//! dominate; per-campaign overhead does not show.

use super::{
    combine, drive_words, pair_full_digest, pattern, seq_digest, through_text, time_median,
    word_width, Closed, Expect, Field, OpCx, OpResult, Scale,
};
use crate::trace::Layers;
use crate::util::{Digest, Rng};
use scal_engine::{collapse_overrides, CompiledCircuit};
use scal_faults::{enumerate_faults, Campaign};
use scal_netlist::synth::{generate, SynthKind};
use scal_netlist::{Circuit, NetlistFormat, Override};
use scal_seq::{code_conversion_machine, dual_ff_machine, ScalMachine, SeqBackend};
use std::time::Instant;

/// Faults of one circuit checked against the scalar backend per run.
const ORACLE_FAULTS: usize = 4;

pub struct VerifyLarge {
    circuits: Vec<Circuit>,
    machines: Vec<ScalMachine>,
    words: Vec<Vec<Vec<bool>>>,
    /// Cycle order: `Some(i)` pair campaign on circuit `i`, `None` the
    /// sequential campaigns on every machine, back to back. An odd cycle of
    /// well-separated operations puts the latency median in the middle of
    /// one operation's samples rather than between two.
    cycle: Vec<Option<usize>>,
    pub parse_s: f64,
    inputs: u64,
}

impl VerifyLarge {
    pub fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 1);
        // Sizes are fixed; the seed draws the circuit structure, the
        // detector patterns and the drive words.
        let (gates, n_words): (&[usize], usize) = match scale {
            Scale::Full => (&[1600, 1700, 1800, 1900, 2000, 2100, 2200, 2300], 4096),
            Scale::Tiny => (&[160], 64),
        };
        let mut circuits = Vec::new();
        let mut parse_s = 0.0;
        let mut d = Digest::default();
        for &g in gates {
            let c = blocks(g, &mut rng);
            let (c, text, p) = through_text(&c, NetlistFormat::ScalText)?;
            d.bytes(text.as_bytes());
            parse_s += p;
            circuits.push(c);
        }
        let mut machines = Vec::new();
        let mut words = Vec::new();
        for len in [4, 6] {
            let m = scal_seq::patterns::pattern_detector(&pattern(&mut rng, len));
            for sm in [dual_ff_machine(&m), code_conversion_machine(&m)] {
                let (c, text, p) = through_text(&sm.circuit, NetlistFormat::ScalText)?;
                d.bytes(text.as_bytes());
                parse_s += p;
                let sm = ScalMachine { circuit: c, ..sm };
                let w = drive_words(&mut rng, n_words, word_width(&sm));
                for word in &w {
                    for &b in word {
                        d.u64(u64::from(b));
                    }
                }
                words.push(w);
                machines.push(sm);
            }
        }
        let mut cycle: Vec<Option<usize>> = (0..circuits.len()).map(Some).collect();
        cycle.push(None);
        Ok(VerifyLarge {
            circuits,
            machines,
            words,
            cycle,
            parse_s,
            inputs: d.finish(),
        })
    }

    fn pair(&self, i: usize, cx: &mut OpCx<'_>) -> Result<OpResult, String> {
        let c = &self.circuits[i];
        let faults = cx.span("faults.enumerate", || enumerate_faults(c));
        let obs = cx.observer();
        let t = Instant::now();
        let mut camp = cx.knob.pair(Campaign::new(c).faults(faults), 0);
        if let Some(o) = &obs {
            camp = camp.observer(o);
        }
        let report = camp.run().map_err(|e| format!("pair campaign: {e}"))?;
        cx.stop();
        cx.campaign_done("faults.campaign", "faults.campaign_s", t, obs.as_ref());
        let per_fault: Vec<u64> = report.results.iter().map(pair_full_digest).collect();
        Ok(OpResult {
            faults: report.results.len() as u64,
            digest: combine(&per_fault),
            violations: 0,
            per_fault,
        })
    }

    /// One sequential campaign per machine; the digest covers them all, the
    /// per-fault digests are per machine.
    fn seq(&self, cx: &mut OpCx<'_>) -> Result<OpResult, String> {
        let mut outs = Vec::new();
        for (m, words) in self.machines.iter().zip(&self.words) {
            let obs = cx.observer();
            let t = Instant::now();
            let mut camp = cx.knob.seq(scal_seq::Campaign::new(m, words), 0);
            if let Some(o) = &obs {
                camp = camp.observer(o);
            }
            outs.push(camp.run().map_err(|e| format!("seq campaign: {e}"))?);
            if cx.tracer.is_some() {
                cx.end = Some(Instant::now());
                cx.campaign_done("seq.campaign", "seq.campaign_s", t, obs.as_ref());
            }
        }
        cx.stop();
        let per_machine: Vec<u64> = outs
            .iter()
            .map(|out| {
                let v: Vec<u64> = out.outcomes.iter().map(|(f, o)| seq_digest(f, o)).collect();
                combine(&v)
            })
            .collect();
        Ok(OpResult {
            faults: outs.iter().map(|o| o.outcomes.len() as u64).sum(),
            digest: combine(&per_machine),
            violations: 0,
            per_fault: per_machine,
        })
    }
}

impl Closed for VerifyLarge {
    fn cycle_len(&self) -> usize {
        self.cycle.len()
    }

    fn run_op(&self, i: usize, cx: &mut OpCx<'_>) -> Result<OpResult, String> {
        match self.cycle[i] {
            Some(c) => self.pair(c, cx),
            None => self.seq(cx),
        }
    }

    fn expectations(&self, rng: &mut Rng) -> Result<Vec<Expect>, String> {
        let mut out = Vec::new();
        // Pair: a seeded fault sample of the second circuit on the scalar
        // backend (a fixed circuit keeps the oracle's cost seed-independent).
        let ci = 1.min(self.circuits.len() - 1);
        let op = self
            .cycle
            .iter()
            .position(|&o| o == Some(ci))
            .expect("circuit in cycle");
        let c = &self.circuits[ci];
        let all = enumerate_faults(c);
        for k in rng.sample(all.len(), ORACLE_FAULTS) {
            let scalar = Campaign::new(c)
                .faults(vec![all[k]])
                .scalar()
                .run()
                .map_err(|e| format!("scalar oracle: {e}"))?;
            out.push(Expect {
                what: format!("pair circuit {ci} fault {k} vs scalar backend"),
                op,
                field: Field::Fault(k),
                oracle: pair_full_digest(&scalar.results[0]),
            });
        }
        // Sequential: the first machine on the graph-walking backend.
        let mj = 0;
        let op = self
            .cycle
            .iter()
            .position(Option::is_none)
            .expect("seq in cycle");
        let graph = scal_seq::Campaign::new(&self.machines[mj], &self.words[mj])
            .backend(SeqBackend::Graph)
            .run()
            .map_err(|e| format!("graph oracle: {e}"))?;
        let per_fault: Vec<u64> = graph
            .outcomes
            .iter()
            .map(|(f, o)| seq_digest(f, o))
            .collect();
        out.push(Expect {
            what: format!("seq machine {mj} vs graph backend"),
            op,
            field: Field::Fault(mj),
            oracle: combine(&per_fault),
        });
        Ok(out)
    }

    fn probe(&self, layers: &mut Layers) {
        for c in &self.circuits {
            probe_pair_layers(c, layers);
        }
        layers.probe_add("netlist.parse_s", self.parse_s);
    }

    fn inputs_digest(&self) -> u64 {
        self.inputs
    }
}

/// Seeded `RandomSelfDual` blocks sharing one set of 13 inputs.
const BLOCKS: usize = 8;

/// A self-dual circuit of about `gates` gates built from [`BLOCKS`] seeded
/// `RandomSelfDual` blocks on shared inputs. Every output stays self-dual;
/// splitting the gates over several random blocks keeps a circuit's cost and
/// verdict volume close to the average of its family, so one seed's draw does
/// not swing the measured campaign.
fn blocks(gates: usize, rng: &mut Rng) -> Circuit {
    let parts: Vec<Circuit> = (0..BLOCKS)
        .map(|_| generate(SynthKind::RandomSelfDual, gates / BLOCKS, rng.next_u64()))
        .collect();
    let mut c = Circuit::new();
    let inputs: Vec<_> = parts[0]
        .inputs()
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let name = parts[0]
                .name(n)
                .map_or_else(|| format!("x{i}"), str::to_owned);
            c.input(name)
        })
        .collect();
    for (b, part) in parts.iter().enumerate() {
        for (k, out) in c.import(part, &inputs).into_iter().enumerate() {
            c.mark_output(format!("b{b}_f{k}"), out);
        }
    }
    c
}

/// Direct timings of the fault-list, compile and collapse layers on one
/// circuit: medians over a few repetitions, added once per cycle.
pub fn probe_pair_layers(c: &Circuit, layers: &mut Layers) {
    let reps = 5;
    layers.probe_add(
        "faults.enumerate_s",
        time_median(reps, || {
            std::hint::black_box(enumerate_faults(c));
        }),
    );
    let Ok((compiled, _)) = CompiledCircuit::try_compile_timed(c) else {
        return;
    };
    layers.probe_add(
        "engine.compile_s",
        time_median(reps, || {
            std::hint::black_box(CompiledCircuit::try_compile_timed(c).ok());
        }),
    );
    layers.sample("engine.compile_bytes", compiled.memory_bytes() as f64);
    let overrides: Vec<Override> = enumerate_faults(c)
        .iter()
        .map(|f| f.to_override())
        .collect();
    layers.probe_add(
        "engine.collapse_s",
        time_median(reps, || {
            std::hint::black_box(collapse_overrides(&compiled, &overrides));
        }),
    );
}
