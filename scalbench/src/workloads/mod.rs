//! The four workloads and the closed-loop runner three of them share.
//!
//! A closed-loop workload is a fixed *cycle* of operations (campaigns). The
//! runner runs one untimed warm-up cycle, which also records each
//! operation's reference verdict digest, then runs whole cycles until the
//! time budget is spent, so every run measures the same operation mix.
//! Verdict digests are compared after each operation's clock has stopped.

pub mod cpu_datapath;
pub mod serve_mixed;
pub mod small_batch;
pub mod verify_large;

use crate::trace::{Layers, TraceObserver, Tracer};
use crate::util::{Digest, Rng};
use scal_engine::EvalMode;
use scal_faults::{CampaignResult, Fault};
use scal_netlist::{Circuit, NetlistFormat, Site};
use std::time::{Duration, Instant};

/// Input size: `Full` for measurement, `Tiny` for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One public builder knob flipped away from its default (ablation mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Knob {
    #[default]
    Default,
    EvalFull,
    NoPacking,
    Width1,
    NoCollapse,
    Threads1,
}

impl Knob {
    pub const ABLATIONS: [Knob; 5] = [
        Knob::EvalFull,
        Knob::NoPacking,
        Knob::Width1,
        Knob::NoCollapse,
        Knob::Threads1,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Knob::Default => "default",
            Knob::EvalFull => "eval_mode_full",
            Knob::NoPacking => "fault_packing_off",
            Knob::Width1 => "word_width_1",
            Knob::NoCollapse => "fault_collapse_off",
            Knob::Threads1 => "threads_1",
        }
    }

    /// Applies the knob to a pair campaign running on `threads`.
    pub fn pair<'a>(
        self,
        c: scal_faults::Campaign<'a>,
        threads: usize,
    ) -> scal_faults::Campaign<'a> {
        match self {
            Knob::Default => c.threads(threads),
            Knob::EvalFull => c.threads(threads).eval_mode(EvalMode::Full),
            Knob::NoPacking => c.threads(threads).fault_packing(false),
            Knob::Width1 => c.threads(threads).word_width(1),
            Knob::NoCollapse => c.threads(threads).fault_collapse(false),
            Knob::Threads1 => c.threads(1),
        }
    }

    /// Applies the knob to a sequential campaign. The packed sequential
    /// backend has no pattern packing and no full/cone switch, so those
    /// ablations leave it unchanged.
    pub fn seq<'a>(self, c: scal_seq::Campaign<'a>, threads: usize) -> scal_seq::Campaign<'a> {
        match self {
            Knob::Width1 => c.threads(threads).word_width(1),
            Knob::NoCollapse => c.threads(threads).fault_collapse(false),
            Knob::Threads1 => c.threads(1),
            _ => c.threads(threads),
        }
    }

    /// Applies the knob to a CPU campaign, which honours only collapsing.
    pub fn cpu(
        self,
        c: scal_system::campaign::Campaign<'_>,
    ) -> scal_system::campaign::Campaign<'_> {
        match self {
            Knob::NoCollapse => c.fault_collapse(false),
            _ => c,
        }
    }
}

/// What one operation produced, beyond its latency.
#[derive(Debug, Clone, Default)]
pub struct OpResult {
    /// Original faults given a final verdict.
    pub faults: u64,
    /// Digest of every verdict of the operation.
    pub digest: u64,
    /// Faults that corrupted a result without being flagged.
    pub violations: u64,
    /// Per-fault verdict digests, kept for the oracle sample.
    pub per_fault: Vec<u64>,
}

/// Per-operation context: tracing hooks and the ablation knob.
pub struct OpCx<'a> {
    pub op: u64,
    /// The operation's root span, when traced.
    pub root: Option<usize>,
    /// When the operation's result was in hand; digesting after this point
    /// is not timed.
    pub end: Option<Instant>,
    pub knob: Knob,
    pub tracer: Option<&'a Tracer>,
    pub layers: Option<&'a mut Layers>,
}

impl OpCx<'_> {
    /// A fresh observer for a traced campaign, `None` when untraced.
    pub fn observer(&self) -> Option<TraceObserver> {
        self.tracer.map(|_| TraceObserver::new())
    }

    /// Records a finished traced campaign: its span (named `name`) with the
    /// engine phases beneath it, its wall time under `metric`, and its
    /// counters.
    pub fn campaign_done(
        &mut self,
        name: &'static str,
        metric: &'static str,
        start: Instant,
        obs: Option<&TraceObserver>,
    ) {
        let (Some(t), Some(obs)) = (self.tracer, obs) else {
            return;
        };
        let end = self.end.unwrap_or_else(Instant::now);
        let id = t.record(self.op, self.root, name, start, end);
        if let Some(l) = self.layers.as_deref_mut() {
            l.add(metric, (end - start).as_secs_f64());
        }
        let (system, pairs) = match name {
            "faults.campaign" => (false, Some("engine.pairs")),
            "seq.campaign" => (false, Some("seq.pairs")),
            _ => (true, None),
        };
        if let Some(p) = obs.profiler.latest() {
            t.engine_phases(self.op, id, start, &p, system);
            if let Some(l) = self.layers.as_deref_mut() {
                l.add_profile(&p, !system, pairs);
            }
        }
        if let Some(l) = self.layers.as_deref_mut() {
            for v in obs.imbalance() {
                l.sample("engine.worker_imbalance", v);
            }
        }
    }

    /// Runs `f` inside a span named `name` under the operation's root span
    /// when traced, bare when not.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match self.tracer {
            None => f(),
            Some(t) => {
                let id = t.open(self.op, self.root, name);
                let r = f();
                t.close(id);
                r
            }
        }
    }

    /// Marks the result as in hand: the operation's clock stops here.
    pub fn stop(&mut self) {
        self.end = Some(Instant::now());
    }

    pub fn layers(&mut self) -> Option<&mut Layers> {
        self.layers.as_deref_mut()
    }
}

/// Which part of an operation's result an oracle value stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// The whole operation's verdict digest.
    Digest,
    /// One fault's verdict digest.
    Fault(usize),
    /// The count of faults that corrupted a result undetected.
    Violations,
}

/// An oracle value computed on an independent path during set-up, to be
/// compared with the fast path's result of operation `op`.
#[derive(Debug, Clone)]
pub struct Expect {
    pub what: String,
    pub op: usize,
    pub field: Field,
    pub oracle: u64,
}

/// An oracle comparison: the fast path's value against the independent
/// path's value for the same verdicts.
#[derive(Debug, Clone)]
pub struct Check {
    pub what: String,
    pub fast: u64,
    pub oracle: u64,
}

impl Check {
    pub fn ok(&self) -> bool {
        self.fast == self.oracle
    }
}

/// Pairs each expectation with the reference result it covers.
pub fn checks(expects: &[Expect], refs: &[OpResult]) -> Vec<Check> {
    expects
        .iter()
        .map(|e| {
            let r = &refs[e.op];
            let fast = match e.field {
                Field::Digest => r.digest,
                Field::Fault(k) => r.per_fault.get(k).copied().unwrap_or(!e.oracle),
                Field::Violations => r.violations,
            };
            Check {
                what: e.what.clone(),
                fast,
                oracle: e.oracle,
            }
        })
        .collect()
}

/// A workload run as a closed loop over a fixed cycle of operations.
pub trait Closed: Sync {
    /// Operations per cycle.
    fn cycle_len(&self) -> usize;
    /// Runs operation `i` of the cycle.
    fn run_op(&self, i: usize, cx: &mut OpCx<'_>) -> Result<OpResult, String>;
    /// Computes oracle values for a seeded sample of operations on the
    /// independent paths (part of set-up).
    fn expectations(&self, rng: &mut Rng) -> Result<Vec<Expect>, String>;
    /// Times single layers by calling their public functions directly on
    /// this workload's inputs, scaled to one pass over the cycle.
    fn probe(&self, layers: &mut Layers);
    /// Digest of the generated inputs (self-tests: same seed, same inputs).
    fn inputs_digest(&self) -> u64;
}

/// Latency samples and totals of one closed-loop window.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Operation latencies in run order: whole cycles of `cycle_len`.
    pub latencies_ms: Vec<f64>,
    pub cycle_len: usize,
    /// Faults given a verdict by one cycle's operations.
    pub faults_per_cycle: u64,
    pub faults: u64,
    pub wall_s: f64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl LoopStats {
    pub fn ops(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    /// One cycle's faults over its summed operation costs, discounted by
    /// the share of operations whose verdicts failed a check.
    pub fn faults_per_s(&self) -> f64 {
        self.faults_per_cycle as f64 * self.ok_share() / self.cycle_cost_s()
    }

    pub fn ok_share(&self) -> f64 {
        (self.ops() - self.failed) as f64 / self.ops().max(1) as f64
    }

    pub fn cycle_cost_s(&self) -> f64 {
        self.op_cost_ms().iter().sum::<f64>() / 1e3
    }

    pub fn cycles(&self) -> usize {
        self.latencies_ms.len() / self.cycle_len.max(1)
    }

    /// Each operation's cost: its fastest repetition across the run's
    /// cycles. Interference from outside the process only ever adds time,
    /// and on a shared host it comes in phases of seconds, so the fastest
    /// repetition estimates the operation's own cost where a mean or median
    /// would also measure the neighbours.
    pub fn op_cost_ms(&self) -> Vec<f64> {
        (0..self.cycle_len)
            .map(|i| {
                let v: Vec<f64> = self
                    .latencies_ms
                    .iter()
                    .skip(i)
                    .step_by(self.cycle_len.max(1))
                    .copied()
                    .collect();
                v.into_iter().fold(f64::INFINITY, f64::min)
            })
            .collect()
    }
}

/// Runs one untimed cycle and returns the reference results.
pub fn warm_up(w: &dyn Closed, knob: Knob) -> Result<Vec<OpResult>, String> {
    (0..w.cycle_len())
        .map(|i| {
            let mut cx = OpCx {
                op: 0,
                root: None,
                end: None,
                knob,
                tracer: None,
                layers: None,
            };
            w.run_op(i, &mut cx)
        })
        .collect()
}

/// Runs whole cycles until `seconds` have passed (at least one cycle),
/// checking each operation's digest against `refs`.
pub fn run_cycles(
    w: &dyn Closed,
    refs: &[OpResult],
    seconds: f64,
    knob: Knob,
    tracer: Option<&Tracer>,
    mut layers: Option<&mut Layers>,
    next_op: &mut u64,
) -> LoopStats {
    let mut st = LoopStats::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    st.faults_per_cycle = refs.iter().map(|r| r.faults).sum();
    st.cycle_len = refs.len();
    loop {
        for (i, reference) in refs.iter().enumerate() {
            *next_op += 1;
            let op = *next_op;
            let t0 = Instant::now();
            let root = tracer.map(|t| t.open(op, None, "op"));
            let mut cx = OpCx {
                op,
                root,
                end: None,
                knob,
                tracer,
                layers: layers.as_deref_mut(),
            };
            let r = w.run_op(i, &mut cx);
            let end = cx.end.unwrap_or_else(Instant::now);
            let lat = end - t0;
            if let (Some(t), Some(id)) = (tracer, root) {
                t.close_at(id, end);
            }
            st.latencies_ms.push(crate::util::ms(lat));
            match r {
                Ok(r) if r.digest == reference.digest => st.faults += r.faults,
                Ok(_) => {
                    st.failed += 1;
                    st.errors
                        .push(format!("op {i}: verdict digest differs from its first run"));
                }
                Err(e) => {
                    st.failed += 1;
                    st.errors.push(format!("op {i}: {e}"));
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let end = Instant::now();
    st.wall_s = (end - start).as_secs_f64();
    st
}

// ----- shared helpers for pair and sequential campaigns -----

pub fn fault_word(f: &Fault) -> u64 {
    let (node, pin) = match f.site {
        Site::Stem(n) => (n.index() as u64, u64::MAX),
        Site::Branch { node, pin } => (node.index() as u64, pin as u64),
    };
    node.wrapping_mul(0x1_0000_0001) ^ pin.rotate_left(17) ^ u64::from(f.stuck)
}

/// Per-fault digest of a full (no-drop) pair verdict: every detecting and
/// violating pair, and observability.
pub fn pair_full_digest(r: &CampaignResult) -> u64 {
    let mut d = Digest::default();
    d.u64(fault_word(&r.fault)).u64(u64::from(r.observable));
    d.u64(r.detected_pairs.len() as u64);
    for &p in &r.detected_pairs {
        d.u64(u64::from(p));
    }
    d.u64(r.violation_pairs.len() as u64);
    for &p in &r.violation_pairs {
        d.u64(u64::from(p));
    }
    d.finish()
}

/// Per-fault digest of a pair verdict under fault dropping: the first
/// detecting pair, or — for a fault never detected, whose sweep ran to the
/// end — its violations and observability.
pub fn pair_drop_digest(r: &CampaignResult) -> u64 {
    let mut d = Digest::default();
    d.u64(fault_word(&r.fault));
    match r.detected_pairs.iter().min() {
        Some(&first) => d.u64(1).u64(u64::from(first)),
        None => {
            d.u64(0).u64(u64::from(r.observable));
            for &p in &r.violation_pairs {
                d.u64(u64::from(p));
            }
            &mut d
        }
    };
    d.finish()
}

pub fn seq_digest(f: &Fault, o: &scal_seq::SeqOutcome) -> u64 {
    let (kind, word) = match o {
        scal_seq::SeqOutcome::Dormant => (0, 0),
        scal_seq::SeqOutcome::Detected { word } => (1, *word as u64),
        scal_seq::SeqOutcome::Violation { word } => (2, *word as u64),
    };
    Digest::default()
        .u64(fault_word(f))
        .u64(kind)
        .u64(word)
        .finish()
}

pub fn combine(per_fault: &[u64]) -> u64 {
    let mut d = Digest::default();
    d.u64(per_fault.len() as u64);
    for &v in per_fault {
        d.u64(v);
    }
    d.finish()
}

/// Serializes `c` and parses it back, as the program receives its inputs,
/// returning the parsed circuit and the parse time.
pub fn through_text(c: &Circuit, format: NetlistFormat) -> Result<(Circuit, String, f64), String> {
    let text = c.write_string(format);
    let t = Instant::now();
    let parsed = Circuit::read(&text, format).map_err(|e| format!("netlist parse: {e}"))?;
    Ok((parsed, text, t.elapsed().as_secs_f64()))
}

/// Seeded alternating-drive words: `n` words of `width` bits.
pub fn drive_words(rng: &mut Rng, n: usize, width: usize) -> Vec<Vec<bool>> {
    (0..n)
        .map(|_| (0..width).map(|_| rng.bool()).collect())
        .collect()
}

/// A seeded binary pattern of `len` bits.
pub fn pattern(rng: &mut Rng, len: usize) -> Vec<bool> {
    (0..len).map(|_| rng.bool()).collect()
}

/// Input-bit count of a SCAL machine's information words (φ excluded).
pub fn word_width(m: &scal_seq::ScalMachine) -> usize {
    m.circuit.inputs().len() - 1
}

/// Median of `reps` timings of `f`, in seconds.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::util::median(&v)
}
