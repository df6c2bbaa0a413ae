//! The traced run's instruments: spans recorded by the benchmark around its
//! calls into each crate, an observer that folds the engine's own phase
//! events into child spans, and the per-layer accumulator.
//!
//! Spans live in memory and are written out once the run ends. Each span has
//! a name (`<layer>.<call>`), start, end, parent, and the id of the campaign
//! or job it belongs to.

use scal_obs::{CampaignEvent, CampaignObserver, Profile, Profiler};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::util::{json_num, Obj};

#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
}

impl Span {
    /// The crate-level layer a span belongs to: the part of its name before
    /// the first dot (`"engine.golden"` → `"engine"`). Root spans (`"op"`)
    /// belong to no layer.
    pub fn layer(&self) -> Option<&'static str> {
        self.name.split_once('.').map(|(l, _)| l)
    }
}

/// In-memory span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.record_secs(op, parent, name, self.secs(start), self.secs(end))
    }

    pub fn record_secs(
        &self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        start: f64,
        end: f64,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span store lock");
        spans.push(Span {
            op,
            parent,
            name,
            start,
            end,
        });
        spans.len() - 1
    }

    /// Opens a span whose end is set by [`Tracer::close`]; children recorded
    /// in between can name it as their parent.
    pub fn open(&self, op: u64, parent: Option<usize>, name: &'static str) -> usize {
        let now = self.secs(Instant::now());
        self.record_secs(op, parent, name, now, now)
    }

    pub fn close(&self, id: usize) {
        self.close_at(id, Instant::now());
    }

    pub fn close_at(&self, id: usize, end: Instant) {
        let end = self.secs(end);
        self.spans.lock().expect("span store lock")[id].end = end;
    }

    /// Adds the engine's phase times from `profile` as consecutive child
    /// spans of `parent`, starting at `start`. The engine reports durations,
    /// not timestamps, so the children are laid end to end in phase order.
    /// The CPU campaign's phases run the interpreted datapath of
    /// `scal-system`, so they are attributed there (`system = true`).
    pub fn engine_phases(
        &self,
        op: u64,
        parent: usize,
        start: Instant,
        profile: &Profile,
        system: bool,
    ) {
        let mut t = self.secs(start);
        for p in &profile.phases {
            let name = match (system, p.name.as_str()) {
                (false, "compile") => "engine.compile",
                (false, "golden") => "engine.golden",
                (false, "fault_sim") => "engine.fault_sim",
                (false, "merge") => "engine.merge",
                (false, _) => "engine.other",
                (true, "compile") => "system.compile",
                (true, "golden") => "system.golden",
                (true, "fault_sim") => "system.fault_sim",
                (true, "merge") => "system.merge",
                (true, _) => "system.other",
            };
            let d = p.micros as f64 * 1e-6;
            self.record_secs(op, Some(parent), name, t, t + d);
            t += d;
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store lock").clone()
    }
}

/// Time attribution of a span set: self time per layer (a span's duration
/// minus its children's), plus the summed duration of the root operation
/// spans and the part of it no layer span covers.
#[derive(Debug, Default)]
pub struct Attribution {
    pub self_s: BTreeMap<&'static str, f64>,
    pub ops_s: f64,
    pub unattributed_s: f64,
}

pub fn attribute(spans: &[Span]) -> Attribution {
    let mut child_time = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.end - s.start;
        }
    }
    let mut a = Attribution::default();
    for (i, s) in spans.iter().enumerate() {
        let own = (s.end - s.start - child_time[i]).max(0.0);
        match s.layer() {
            Some(layer) => *a.self_s.entry(layer).or_default() += own,
            None => {
                a.ops_s += s.end - s.start;
                a.unattributed_s += own;
            }
        }
    }
    a
}

/// Writes the spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let mut o = Obj::default()
            .int("id", i as u64)
            .int("op", s.op)
            .str("name", s.name);
        o = match s.parent {
            Some(p) => o.int("parent", p as u64),
            None => o.raw("parent", "null"),
        };
        let line = o
            .raw("start_s", &json_num(s.start))
            .raw("end_s", &json_num(s.end))
            .finish();
        writeln!(out, "{line}")?;
    }
    out.flush()
}

/// Observer attached to traced campaigns: the stock [`Profiler`] for phase
/// times and counters, plus per-worker busy time taken from the engine's
/// worker-attributed `eval_batch` spans.
#[derive(Debug, Default)]
pub struct TraceObserver {
    pub profiler: Profiler,
    workers: Mutex<WorkerBusy>,
}

#[derive(Debug, Default)]
struct WorkerBusy {
    threads: usize,
    current: usize,
    busy: BTreeMap<usize, u64>,
    /// `max / mean` busy time of each finished campaign.
    imbalance: Vec<f64>,
}

impl WorkerBusy {
    fn finish(&mut self) {
        if self.threads == 0 {
            return;
        }
        let total: u64 = self.busy.values().sum();
        let max = self.busy.values().copied().max().unwrap_or(0);
        if total > 0 {
            let mean = total as f64 / self.threads as f64;
            self.imbalance.push(max as f64 / mean);
        }
        self.busy.clear();
        self.threads = 0;
    }
}

impl TraceObserver {
    pub fn new() -> Self {
        TraceObserver::default()
    }

    /// Per-campaign `max / mean` worker busy time, in campaign order.
    pub fn imbalance(&self) -> Vec<f64> {
        self.workers.lock().expect("worker lock").imbalance.clone()
    }
}

impl CampaignObserver for TraceObserver {
    fn on_event(&self, event: &CampaignEvent) {
        self.profiler.on_event(event);
        let mut w = self.workers.lock().expect("worker lock");
        match *event {
            CampaignEvent::CampaignStart { threads, .. } => {
                w.finish();
                w.threads = threads.max(1);
                w.current = 0;
            }
            // Every per-fault or per-batch event names the worker that ran
            // it; the engine replays a sweep's span right after the events
            // of the same work unit.
            CampaignEvent::FaultStart { worker, .. }
            | CampaignEvent::LaneBatch { worker, .. }
            | CampaignEvent::BatchDone { worker, .. } => w.current = worker,
            CampaignEvent::Span {
                name: "eval_batch",
                micros,
                ..
            } => {
                let cur = w.current;
                *w.busy.entry(cur).or_default() += micros;
            }
            CampaignEvent::CampaignEnd { .. } => w.finish(),
            _ => {}
        }
    }
}

/// Per-layer metric accumulator: sums and sample lists keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    /// Sums over the traced operations.
    pub sums: BTreeMap<&'static str, f64>,
    /// Sums over one pass of direct layer calls covering one cycle.
    pub probe: BTreeMap<&'static str, f64>,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    pub fn probe_add(&mut self, name: &'static str, v: f64) {
        *self.probe.entry(name).or_default() += v;
    }

    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    pub fn median(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .map_or(0.0, |v| crate::util::median(v))
    }

    /// Folds one traced campaign's profile into the counters. Pair and
    /// sequential campaigns run their phases on the engine; `pairs` names the
    /// counter their evaluated pairs go to. CPU campaigns contribute only
    /// their fault-collapse counts.
    pub fn add_profile(&mut self, p: &Profile, engine: bool, pairs: Option<&'static str>) {
        let phase = |name| p.phase_micros(name).unwrap_or(0) as f64 * 1e-6;
        if engine {
            self.add("engine.golden_s", phase("golden"));
            self.add("engine.fault_sim_s", phase("fault_sim"));
            self.add("engine.merge_s", phase("merge"));
        }
        if let Some(name) = pairs {
            self.add(name, p.pairs as f64);
            if name == "engine.pairs" {
                self.add("engine.pair_fault_sim_s", phase("fault_sim"));
            }
        }
        self.add("engine.cone_ops_evaluated", p.cone_ops_evaluated as f64);
        self.add("engine.cone_ops_skipped", p.cone_ops_skipped as f64);
        self.add("engine.collapse_faults", p.collapse_faults as f64);
        self.add(
            "engine.collapse_representatives",
            p.collapse_representatives as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_counts_uncovered_wall() {
        let s = |parent, name, start, end| Span {
            op: 0,
            parent,
            name,
            start,
            end,
        };
        let spans = vec![
            s(None, "op", 0.0, 10.0),
            s(Some(0), "faults.campaign", 1.0, 9.0),
            s(Some(1), "engine.golden", 1.0, 3.0),
            s(Some(1), "engine.fault_sim", 3.0, 8.0),
        ];
        let a = attribute(&spans);
        assert!((a.self_s["faults"] - 1.0).abs() < 1e-9);
        assert!((a.self_s["engine"] - 7.0).abs() < 1e-9);
        assert!((a.ops_s - 10.0).abs() < 1e-9);
        assert!((a.unattributed_s - 2.0).abs() < 1e-9);
    }
}
