//! `scalbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path scalbench/Cargo.toml -- \
//!     --workload <verify_large|small_batch|cpu_datapath|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1> [--ablate]
//! ```
//!
//! Inputs are generated from `--seed`; the program under test receives only
//! the generated circuits, machines, programs and request lines. Every
//! verdict is digested after its clock stops and checked against an
//! independent oracle. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The lines
//! before it carry the detail: sample counts, the tail percentile, the error
//! rate, and the geometry stamp (`nproc`, threads, word width, CPU features,
//! fault collapsing, git revision, compiler) that `scalbench/compare.py`
//! uses to refuse comparisons across different geometries.

mod trace;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use trace::{attribute, write_spans, Layers, Tracer};
use util::{median, Obj, Rng};
use workloads::serve_mixed::{JobRec, ServeMixed, LIMIT_MS, RATE};
use workloads::{
    checks, run_cycles, warm_up, Check, Closed, Expect, Knob, LoopStats, OpResult, Scale,
};

pub const WORKLOADS: [&str; 4] = ["verify_large", "small_batch", "cpu_datapath", "serve_mixed"];

/// Set-up runs per benchmark run: at least this many, and more until
/// [`SETUP_MIN_S`] has passed; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Set-up time per benchmark run below which more set-ups are made, so a
/// set-up of milliseconds is not costed from a handful of samples that one
/// slow phase of the host can cover.
const SETUP_MIN_S: f64 = 2.0;

/// Whether another set-up is due after `times` (seconds each).
fn more_setups(times: &[f64]) -> bool {
    times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_MIN_S
}

/// End-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("faults_per_s", "faults/s"),
    ("campaign_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("goodput_ops_s", "ops/s"),
];

/// Per-layer metrics, reported with `--trace 1`. Times are per operation
/// (campaign or job) unless the unit says otherwise; a layer that does not
/// run on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("netlist.parse_s", "s"),
    ("faults.enumerate_s", "s"),
    ("faults.campaign_s", "s"),
    ("engine.compile_s", "s"),
    ("engine.compile_bytes", "bytes"),
    ("engine.collapse_s", "s"),
    ("engine.collapse_ratio", "ratio"),
    ("engine.golden_s", "s"),
    ("engine.fault_sim_s", "s"),
    ("engine.merge_s", "s"),
    ("engine.pairs", "count"),
    ("engine.pairs_per_s", "pairs/s"),
    ("engine.ops_skipped_frac", "ratio"),
    ("engine.worker_imbalance", "ratio"),
    ("seq.campaign_s", "s"),
    ("seq.pairs", "count"),
    ("system.campaign_adder_s", "s"),
    ("system.campaign_logic_s", "s"),
    ("system.golden_run_s", "s"),
    ("system.detected", "count"),
    ("system.dormant", "count"),
    ("system.undetected_wrong", "count"),
    ("obs.coverage_overhead", "ratio"),
    ("serve.encode_s", "s"),
    ("serve.decode_s", "s"),
    ("serve.accept_ms", "ms"),
    ("serve.result_wait_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.result_bytes", "bytes"),
    ("serve.refused", "count"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.offered_jobs_s", "jobs/s"),
    ("serve.achieved_jobs_s", "jobs/s"),
    ("self.faults_s", "s"),
    ("self.engine_s", "s"),
    ("self.seq_s", "s"),
    ("self.system_s", "s"),
    ("self.obs_s", "s"),
    ("self.serve_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead", "ratio"),
];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub ablate: bool,
    /// Always `Full` from the command line; the self-tests run `Tiny`.
    pub scale: Scale,
    /// Where a traced run writes its spans.
    pub trace_dir: PathBuf,
}

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Extra `key: json` lines printed before the result line.
    pub detail: Vec<(&'static str, String)>,
    /// Digest of the generated inputs, for the self-tests.
    pub inputs: u64,
    /// Per-operation reference digests, for the self-tests.
    pub digests: Vec<u64>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The metrics as one JSON object, `{name: {value, unit}}`.
    fn metrics_json(&self) -> String {
        let mut m = Obj::default();
        for &(name, value, unit) in &self.metrics {
            m = m.raw(
                name,
                &Obj::default()
                    .num("value", value)
                    .str("unit", unit)
                    .finish(),
            );
        }
        m.finish()
    }

    fn result_line(&self) -> String {
        Obj::default()
            .bool("correct", self.correct())
            .int("attempted", self.attempted.max(1))
            .int("failed", self.failed)
            .raw("metrics", &self.metrics_json())
            .finish()
    }

    fn apply_checks(&mut self, checks: &[Check]) {
        for c in checks.iter().filter(|c| !c.ok()) {
            self.failed += 1;
            self.errors.push(format!(
                "oracle mismatch: {} (fast {:016x}, oracle {:016x})",
                c.what, c.fast, c.oracle
            ));
        }
        self.attempted += checks.len() as u64;
        self.detail.push((
            "oracle",
            Obj::default()
                .int("checks", checks.len() as u64)
                .int(
                    "mismatches",
                    checks.iter().filter(|c| !c.ok()).count() as u64,
                )
                .finish(),
        ));
    }
}

fn usage() -> String {
    format!(
        "usage: scalbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--ablate]",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        ablate: false,
        scale: Scale::Full,
        trace_dir: PathBuf::from(".bench_build/scalbench-traces"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--ablate" => a.ablate = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

/// Reads the checkout's git revision from `.git`, without running git.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs").and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split_whitespace().next().map(str::to_owned))
                    })
                })
                .unwrap_or_else(|| "unknown".to_owned()),
            None => head,
        },
        None => "unknown".to_owned(),
    }
}

/// The geometry stamp every result carries. Results whose stamps differ
/// (other than in the git revision) are incomparable.
pub fn geometry() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Obj::default()
        .int("nproc", nproc as u64)
        .int("threads", scal_engine::resolved_threads(0) as u64)
        .int(
            "word_width",
            scal_engine::resolve_word_width(0).unwrap_or(0) as u64,
        )
        .str(
            "cpu_features",
            &scal_engine::detected_cpu_features().join(","),
        )
        .bool(
            "fault_collapse",
            scal_engine::resolve_fault_collapse(scal_engine::Toggle::Auto).unwrap_or(true),
        )
        .str("git_rev", &git_rev())
        .str("rustc", env!("SCALBENCH_RUSTC_VERSION"))
        .str("arch", std::env::consts::ARCH)
        .finish()
}

/// A closed-loop workload after set-up: its inputs, the oracle values
/// computed for them, and the median set-up time.
struct Prepared {
    workload: Box<dyn Closed>,
    expects: Vec<Expect>,
    setup_s: f64,
}

fn setup_closed(args: &Args) -> Result<Prepared, String> {
    use workloads::{cpu_datapath, small_batch, verify_large};
    let mut times = Vec::new();
    let mut last = None;
    while more_setups(&times) {
        let t = Instant::now();
        let w: Box<dyn Closed> = match args.workload.as_str() {
            "verify_large" => Box::new(verify_large::VerifyLarge::setup(args.seed, args.scale)?),
            "small_batch" => Box::new(small_batch::SmallBatch::setup(args.seed, args.scale)?),
            "cpu_datapath" => Box::new(cpu_datapath::CpuDatapath::setup(args.seed, args.scale)?),
            other => return Err(format!("{other} is not a closed-loop workload")),
        };
        let expects = w.expectations(&mut Rng::new(args.seed, 99))?;
        times.push(t.elapsed().as_secs_f64());
        last = Some((w, expects));
    }
    let (workload, expects) = last.expect("at least one set-up");
    Ok(Prepared {
        workload,
        expects,
        setup_s: median(&times),
    })
}

/// End-to-end metrics of one closed-loop window, from each operation's
/// cost (its fastest repetition, see [`LoopStats::op_cost_ms`]): throughputs
/// are one cycle's work over the summed costs, the p50 is the median cost
/// over the cycle's operations.
fn closed_metrics(
    st: &LoopStats,
    setup_s: f64,
    rss: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", setup_s, "s"),
        ("faults_per_s", st.faults_per_s(), "faults/s"),
        ("campaign_p50_ms", median(&st.op_cost_ms()), "ms"),
        ("peak_rss_mb", rss, "MiB"),
        (
            "goodput_ops_s",
            st.cycle_len as f64 * st.ok_share() / st.cycle_cost_s(),
            "ops/s",
        ),
    ]
}

/// The raw latency distribution, reported beside the metrics: sample count,
/// median, and tail (the highest percentile with ten samples beyond it). The
/// tail measures the host as much as the code, so it is not bound; the
/// median is `serve_mixed`'s `campaign_p50_ms`.
fn latency_detail(latencies_ms: &[f64]) -> Obj {
    let (pct, tail) = util::tail(latencies_ms);
    Obj::default()
        .int("samples", latencies_ms.len() as u64)
        .num("p50_ms", median(latencies_ms))
        .num("tail_ms", tail)
        .num("tail_percentile", pct)
}

fn loop_detail(st: &LoopStats) -> String {
    let cost: Vec<String> = st.op_cost_ms().iter().map(|c| format!("{c:.3}")).collect();
    latency_detail(&st.latencies_ms)
        .raw("op_cost_ms", &format!("[{}]", cost.join(",")))
        .int("cycles", st.cycles() as u64)
        .num("wall_s", st.wall_s)
        .int("faults", st.faults)
        .num("error_rate", st.failed as f64 / st.ops().max(1) as f64)
        .finish()
}

fn run_closed(args: &Args) -> Result<Report, String> {
    let Prepared {
        workload: w,
        expects,
        setup_s,
    } = setup_closed(args)?;
    let refs = warm_up(w.as_ref(), Knob::Default)?;
    let mut r = Report {
        inputs: w.inputs_digest(),
        digests: refs.iter().map(|o| o.digest).collect(),
        ..Report::default()
    };
    let mut next_op = 0;
    if !args.trace {
        let st = run_cycles(
            w.as_ref(),
            &refs,
            args.seconds,
            Knob::Default,
            None,
            None,
            &mut next_op,
        );
        let rss = util::peak_rss_mib();
        r.metrics = closed_metrics(&st, setup_s, rss);
        r.attempted = st.ops();
        r.failed = st.failed;
        r.errors = st.errors.clone();
        r.detail.push(("campaigns", loop_detail(&st)));
    } else {
        let half = args.seconds / 2.0;
        let base = run_cycles(
            w.as_ref(),
            &refs,
            half,
            Knob::Default,
            None,
            None,
            &mut next_op,
        );
        let tracer = Tracer::new();
        let mut layers = Layers::default();
        let st = run_cycles(
            w.as_ref(),
            &refs,
            half,
            Knob::Default,
            Some(&tracer),
            Some(&mut layers),
            &mut next_op,
        );
        w.probe(&mut layers);
        let spans = tracer.spans();
        let overhead = trace_overhead(&base.latencies_ms, &st.latencies_ms);
        r.metrics = layer_metrics(
            &layers,
            st.ops() as f64,
            w.cycle_len() as f64,
            &spans,
            overhead,
            &[],
        );
        r.attempted = base.ops() + st.ops();
        r.failed = base.failed + st.failed;
        r.errors = base.errors.into_iter().chain(st.errors.clone()).collect();
        r.detail.push(("campaigns", loop_detail(&st)));
        save_spans(args, &spans, &mut r);
    }
    r.apply_checks(&checks(&expects, &refs));
    Ok(r)
}

/// Traced over untraced mean operation time.
fn trace_overhead(untraced_ms: &[f64], traced_ms: &[f64]) -> f64 {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let base = mean(untraced_ms);
    if base > 0.0 {
        mean(traced_ms) / base
    } else {
        0.0
    }
}

fn save_spans(args: &Args, spans: &[trace::Span], r: &mut Report) {
    let path = args
        .trace_dir
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match write_spans(&path, spans) {
        Ok(()) => r.detail.push((
            "spans",
            Obj::default()
                .str("path", &path.display().to_string())
                .int("count", spans.len() as u64)
                .finish(),
        )),
        Err(e) => r.errors.push(format!("writing spans: {e}")),
    }
}

/// Assembles the per-layer metrics: loop sums per traced operation, direct
/// layer probes per operation of the cycle, derived ratios, and the span
/// self times. The unattributed share is the part of the operations' wall
/// time that no layer span covers. `direct` carries values measured outside
/// these sources (the service's client-side and telemetry figures).
fn layer_metrics(
    l: &Layers,
    ops: f64,
    cycle_len: f64,
    spans: &[trace::Span],
    overhead: f64,
    direct: &[(&'static str, f64)],
) -> Vec<(&'static str, f64, &'static str)> {
    let ops = ops.max(1.0);
    let per_op = |name: &str| l.sum(name) / ops;
    let probe = |name: &str| l.probe.get(name).copied().unwrap_or(0.0) / cycle_len.max(1.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let time = attribute(spans);
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for name in [
        "netlist.parse_s",
        "faults.enumerate_s",
        "engine.compile_s",
        "engine.collapse_s",
        "system.golden_run_s",
        "serve.encode_s",
        "serve.decode_s",
    ] {
        v.insert(name, probe(name));
    }
    for name in [
        "faults.campaign_s",
        "engine.golden_s",
        "engine.fault_sim_s",
        "engine.merge_s",
        "engine.pairs",
        "seq.campaign_s",
        "seq.pairs",
        "system.campaign_adder_s",
        "system.campaign_logic_s",
        "system.detected",
        "system.dormant",
        "system.undetected_wrong",
    ] {
        v.insert(name, per_op(name));
    }
    v.insert(
        "engine.compile_bytes",
        l.samples
            .get("engine.compile_bytes")
            .map_or(0.0, |s| s.iter().copied().fold(0.0, f64::max)),
    );
    v.insert(
        "engine.collapse_ratio",
        ratio(
            l.sum("engine.collapse_faults"),
            l.sum("engine.collapse_representatives"),
        ),
    );
    v.insert(
        "engine.pairs_per_s",
        ratio(l.sum("engine.pairs"), l.sum("engine.pair_fault_sim_s")),
    );
    v.insert(
        "engine.ops_skipped_frac",
        ratio(
            l.sum("engine.cone_ops_skipped"),
            l.sum("engine.cone_ops_skipped") + l.sum("engine.cone_ops_evaluated"),
        ),
    );
    v.insert(
        "engine.worker_imbalance",
        l.median("engine.worker_imbalance"),
    );
    v.insert("obs.coverage_overhead", l.median("obs.coverage_overhead"));
    for (layer, name) in [
        ("faults", "self.faults_s"),
        ("engine", "self.engine_s"),
        ("seq", "self.seq_s"),
        ("system", "self.system_s"),
        ("obs", "self.obs_s"),
        ("serve", "self.serve_s"),
    ] {
        v.insert(name, time.self_s.get(layer).copied().unwrap_or(0.0) / ops);
    }
    v.insert("trace.unattributed_s", time.unattributed_s / ops);
    v.insert(
        "trace.unattributed_frac",
        ratio(time.unattributed_s, time.ops_s),
    );
    v.insert("trace.overhead", overhead);
    v.extend(direct.iter().copied());
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, v.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

// ----- serve_mixed -----

fn setup_serve(args: &Args) -> Result<(ServeMixed, f64), String> {
    let mut times = Vec::new();
    let mut last: Option<ServeMixed> = None;
    while more_setups(&times) {
        if let Some(mut prev) = last.take() {
            prev.shutdown();
        }
        let t = Instant::now();
        let s = ServeMixed::setup(args.seed, args.scale)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Jobs in a window of `seconds` at the fixed rate, in whole rounds.
fn serve_jobs(seconds: f64, distinct: usize) -> usize {
    let rounds = ((RATE * seconds) / distinct as f64).round().max(1.0) as usize;
    rounds * distinct
}

/// Summary of one open-loop window.
struct OpenStats {
    /// Per job: latency from its due time to its result frame.
    latencies_ms: Vec<f64>,
    lags_ms: Vec<f64>,
    faults: u64,
    good: u64,
    wall_s: f64,
    errors: Vec<String>,
}

fn open_stats(s: &ServeMixed, recs: &[JobRec], wall_s: f64) -> OpenStats {
    let bad = s.verify(recs);
    let mut st = OpenStats {
        latencies_ms: recs.iter().map(JobRec::latency_ms).collect(),
        lags_ms: recs
            .iter()
            .map(|r| (r.sent - r.due).max(0.0) * 1e3)
            .collect(),
        faults: 0,
        good: 0,
        wall_s,
        errors: bad,
    };
    for r in recs.iter().filter(|r| s.problem(r).is_none()) {
        st.faults += s.jobs[r.def].faults;
        if r.latency_ms() <= LIMIT_MS {
            st.good += 1;
        }
    }
    // A generator that falls further and further behind measures its own
    // backlog, not the service: refuse to report a latency then.
    let tenth = (recs.len() / 10).max(1);
    let end_lag = median(&st.lags_ms[st.lags_ms.len().saturating_sub(tenth)..]);
    if end_lag > BACKLOG_LIMIT_MS {
        st.errors.push(format!(
            "backlog grew: the generator ran {end_lag:.1} ms late over the last tenth of the run"
        ));
    }
    st
}

/// Generator lateness over the last tenth of a run beyond which the offered
/// rate is not being met.
const BACKLOG_LIMIT_MS: f64 = 100.0;

fn run_serve(args: &Args) -> Result<Report, String> {
    let (s, setup_s) = setup_serve(args)?;
    let warm = s.warm_up();
    let mut r = Report {
        inputs: s.inputs_digest(),
        digests: s.checks(&warm).iter().map(|c| c.fast).collect(),
        ..Report::default()
    };
    let distinct = s.jobs.len();
    if !args.trace {
        let schedule = s.schedule(0, serve_jobs(args.seconds, distinct));
        let (recs, wall) = s.open_loop(&schedule, None, 0);
        let rss = util::peak_rss_mib();
        let st = open_stats(&s, &recs, wall);
        r.metrics = vec![
            ("setup_s", setup_s, "s"),
            ("faults_per_s", st.faults as f64 / st.wall_s, "faults/s"),
            ("campaign_p50_ms", median(&st.latencies_ms), "ms"),
            ("peak_rss_mb", rss, "MiB"),
            ("goodput_ops_s", st.good as f64 / st.wall_s, "ops/s"),
        ];
        r.attempted = recs.len() as u64;
        r.failed = st.errors.len() as u64;
        r.errors = st.errors.clone();
        r.detail.push(("jobs", serve_detail(&recs, &st)));
    } else {
        let half = args.seconds / 2.0;
        let base_sched = s.schedule(0, serve_jobs(half, distinct));
        let (base_recs, base_wall) = s.open_loop(&base_sched, None, 0);
        let base = open_stats(&s, &base_recs, base_wall);
        let tracer = Tracer::new();
        let sched = s.schedule(1, serve_jobs(half, distinct));
        let (recs, wall) = s.open_loop(&sched, Some(&tracer), 1);
        let st = open_stats(&s, &recs, wall);
        let mut layers = Layers::default();
        s.probe(&mut layers);
        let n = recs.len().max(1) as f64;
        let ms = |f: &dyn Fn(&JobRec) -> f64| median(&recs.iter().map(f).collect::<Vec<_>>());
        let direct = [
            ("serve.accept_ms", ms(&|j| (j.accepted - j.sent) * 1e3)),
            ("serve.result_wait_ms", ms(&|j| (j.done - j.accepted) * 1e3)),
            (
                "serve.queue_wait_ms",
                hist_ms(&s, "scal_serve_queue_wait_micros"),
            ),
            ("serve.run_ms", hist_ms(&s, "scal_serve_run_micros")),
            (
                "serve.result_bytes",
                recs.iter().map(|j| j.line.len() as f64).sum::<f64>() / n,
            ),
            (
                "serve.refused",
                recs.iter().filter(|j| j.refused).count() as f64,
            ),
            ("serve.gen_lag_ms", st.lags_ms.iter().sum::<f64>() / n),
            ("serve.offered_jobs_s", RATE),
            ("serve.achieved_jobs_s", n / wall),
        ];
        let spans = tracer.spans();
        let overhead = trace_overhead(&base.latencies_ms, &st.latencies_ms);
        // Probe times are already per job; cycle length 1 keeps them so.
        r.metrics = layer_metrics(&layers, n, 1.0, &spans, overhead, &direct);
        r.attempted = (base_recs.len() + recs.len()) as u64;
        r.failed = (base.errors.len() + st.errors.len()) as u64;
        r.errors = base.errors.into_iter().chain(st.errors.clone()).collect();
        r.detail.push(("jobs", serve_detail(&recs, &st)));
        save_spans(args, &spans, &mut r);
    }
    r.apply_checks(&s.checks(&warm));
    Ok(r)
}

fn hist_ms(s: &ServeMixed, name: &str) -> f64 {
    s.server.as_ref().map_or(0.0, |h| {
        h.telemetry().metrics().histogram(name).quantile(0.5) as f64 / 1e3
    })
}

fn serve_detail(recs: &[JobRec], st: &OpenStats) -> String {
    latency_detail(&st.latencies_ms)
        .num("offered_jobs_s", RATE)
        .num("achieved_jobs_s", recs.len() as f64 / st.wall_s)
        .num("latency_limit_ms", LIMIT_MS)
        .num("gen_lag_p50_ms", median(&st.lags_ms))
        .num(
            "gen_lag_max_ms",
            st.lags_ms.iter().copied().fold(0.0, f64::max),
        )
        .num(
            "error_rate",
            st.errors.len() as f64 / recs.len().max(1) as f64,
        )
        .finish()
}

// ----- ablation -----

/// Re-runs a closed-loop workload with each public builder knob flipped and
/// reports each layer's end-to-end contribution to `faults_per_s`: the
/// default run's throughput over the ablated run's. Verdict digests must be
/// identical under every ablation.
fn run_ablation(args: &Args) -> Result<Report, String> {
    if args.workload == "serve_mixed" {
        return Err(
            "ablation covers the in-process workloads; serve_mixed has no builder knobs".to_owned(),
        );
    }
    let Prepared {
        workload: w,
        expects,
        ..
    } = setup_closed(args)?;
    let mut r = Report::default();
    let base_refs = warm_up(w.as_ref(), Knob::Default)?;
    r.apply_checks(&checks(&expects, &base_refs));
    let mut next_op = 0;
    let base = run_cycles(
        w.as_ref(),
        &base_refs,
        args.seconds,
        Knob::Default,
        None,
        None,
        &mut next_op,
    );
    let base_fps = base.faults_per_s();
    r.metrics.push(("faults_per_s", base_fps, "faults/s"));
    r.attempted += base.ops();
    r.failed += base.failed;
    for knob in Knob::ABLATIONS {
        let refs: Vec<OpResult> = warm_up(w.as_ref(), knob)?;
        let same = refs
            .iter()
            .zip(&base_refs)
            .all(|(a, b)| a.digest == b.digest);
        if !same {
            r.failed += 1;
            r.errors.push(format!(
                "{}: verdict digests differ from the default run",
                knob.name()
            ));
        }
        let st = run_cycles(
            w.as_ref(),
            &refs,
            args.seconds,
            knob,
            None,
            None,
            &mut next_op,
        );
        let fps = st.faults_per_s();
        r.attempted += st.ops();
        r.failed += st.failed;
        r.detail.push((
            knob.name(),
            Obj::default()
                .num("faults_per_s", fps)
                .num("default_over_ablated", base_fps / fps)
                .bool("digests_identical", same)
                .finish(),
        ));
        r.metrics.push((knob.name(), base_fps / fps, "ratio"));
    }
    Ok(r)
}

pub fn run(args: &Args) -> Result<Report, String> {
    if args.ablate {
        run_ablation(args)
    } else if args.workload == "serve_mixed" {
        run_serve(args)
    } else {
        run_closed(args)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scalbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scalbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for e in report.errors.iter().take(20) {
        eprintln!("scalbench: {e}");
    }
    for (key, json) in &report.detail {
        println!("{key}: {json}");
    }
    println!(
        "record: {}",
        Obj::default()
            .str("workload", &args.workload)
            .int("seed", args.seed)
            .num("seconds", args.seconds)
            .bool("trace", args.trace)
            .bool("ablate", args.ablate)
            .raw("geometry", &geometry())
            .raw("metrics", &report.metrics_json())
            .finish()
    );
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests;
