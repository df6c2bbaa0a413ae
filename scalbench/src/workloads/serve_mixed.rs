//! `serve_mixed`: an in-process `scal-serve` on loopback driven by an open
//! loop at one fixed offered rate. Jobs are pair campaigns at three sizes
//! (fig3_4 and fig3_7; 6- and 8-bit ripple adders; a ~2k-gate self-dual
//! circuit with seeded fault subsets) sent as text and Verilog netlists,
//! plus short sequential jobs. The only workload that exercises request
//! parsing, scheduler queueing, frame encoding and the socket.
//!
//! Each job is timed from the moment it was *due*, so a stalled generator
//! shows up as latency; the generator's lateness is reported, and the run
//! fails when the backlog keeps growing instead of reporting a latency.

use super::{drive_words, time_median, Check, Scale};
use crate::trace::{Layers, Tracer};
use crate::util::{Digest, Rng};
use scal_engine::EvalMode;
use scal_faults::enumerate_faults;
use scal_netlist::synth::{generate, SynthKind};
use scal_netlist::{Circuit, NetlistFormat};
use scal_obs::NullObserver;
use scal_seq::{dual_ff_machine, ScalMachine, SeqBackend};
use scal_serve::{
    run_job, serve, FaultSpec, JobKind, JobSpec, Request, SchedConfig, ServeConfig, ServerHandle,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered load, jobs per second. Fixed, so every commit is measured at the
/// same rate. On a 2-vCPU x86-64 host this job mix saturates between 160
/// jobs/s (kept up, median latency 30 ms) and 200 jobs/s (the backlog grows,
/// 178 jobs/s achieved), so 40 leaves the service room for a slower host or
/// commit while queueing still reaches the latency median.
pub const RATE: f64 = 40.0;
/// A result later than this after its due time counts as missing for
/// goodput.
pub const LIMIT_MS: f64 = 250.0;

/// One distinct job: its request line and the in-process reference.
pub struct JobDef {
    pub name: String,
    pub line: String,
    /// The `"report":…,"coverage":…` fragment a correct result frame holds.
    expected: String,
    pub faults: u64,
    spec: JobSpec,
    format: NetlistFormat,
    netlist: Option<String>,
}

pub struct ServeMixed {
    pub jobs: Vec<JobDef>,
    pub server: Option<ServerHandle>,
    pub workers: usize,
    seed: u64,
    inputs: u64,
}

/// What the client saw of one job. Times are seconds since the loop start.
#[derive(Debug, Clone, Default)]
pub struct JobRec {
    pub def: usize,
    pub due: f64,
    pub sent: f64,
    pub accepted: f64,
    pub done: f64,
    pub refused: bool,
    pub line: String,
    pub error: Option<String>,
}

impl JobRec {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

fn pair_spec(circuit: Circuit, faults: FaultSpec, drop: bool, format: NetlistFormat) -> JobSpec {
    JobSpec {
        kind: JobKind::Pair {
            circuit,
            faults,
            drop_after_detection: drop,
            eval_mode: EvalMode::Cone,
            scalar: false,
        },
        priority: 5,
        timeout_ms: None,
        threads: 1,
        stream: false,
        fault_collapse: None,
        netlist_format: format,
    }
}

fn seq_spec(machine: ScalMachine, words: Vec<Vec<bool>>, format: NetlistFormat) -> JobSpec {
    JobSpec {
        kind: JobKind::Seq {
            machine,
            words,
            backend: SeqBackend::Packed,
            eval_mode: EvalMode::Cone,
        },
        priority: 5,
        timeout_ms: None,
        threads: 1,
        stream: false,
        fault_collapse: None,
        netlist_format: format,
    }
}

/// The eleven distinct jobs, cheapest first as measured on a 2-vCPU x86-64
/// host (median latency at the fixed rate): four of 1–2 ms (fig3_4, fig3_7
/// and two short sequential jobs: service overhead), three fixed circuits of
/// 8–11 ms (the 8-bit adder with dropping in both formats, a 6-bit adder
/// without), and four of 10–20 ms (the seeded self-dual circuit with 24 and
/// 48 seeded faults in both formats: parse and queueing). The latency median
/// falls on the two 8-bit adder jobs, whose cost no seed changes; the
/// seeded jobs sit in the groups on either side, so a seed that makes one of
/// them cheaper or dearer does not move the median to another group.
fn specs(rng: &mut Rng, scale: Scale) -> Vec<(String, JobSpec)> {
    let (bits, full_bits, gates, subsets, words) = match scale {
        Scale::Full => (8, 6, 2000, [24, 48], 32),
        Scale::Tiny => (2, 2, 160, [4, 8], 8),
    };
    let text = NetlistFormat::ScalText;
    let verilog = NetlistFormat::Verilog;
    let mut out = vec![
        (
            "fig3_4/text".to_owned(),
            pair_spec(
                scal_core::paper::fig3_4().circuit,
                FaultSpec::All,
                false,
                text,
            ),
        ),
        (
            "fig3_7/verilog".to_owned(),
            pair_spec(
                scal_core::paper::fig3_7().circuit,
                FaultSpec::All,
                false,
                verilog,
            ),
        ),
    ];
    let detector = scal_seq::patterns::pattern_detector(&super::pattern(rng, 5));
    for (name, machine, format) in [
        (
            "kohavi_codeconv/seq",
            scal_seq::kohavi::translator_circuit(),
            verilog,
        ),
        ("detector_dualff/seq", dual_ff_machine(&detector), text),
    ] {
        let w = drive_words(rng, words, machine.circuit.inputs().len() - 1);
        out.push((name.to_owned(), seq_spec(machine, w, format)));
    }
    for (name, bits, drop, format) in [
        (format!("adder{bits}/text"), bits, true, text),
        (format!("adder{bits}/verilog"), bits, true, verilog),
        (
            format!("adder{full_bits}_full/text"),
            full_bits,
            false,
            text,
        ),
    ] {
        out.push((
            name,
            pair_spec(
                scal_core::paper::ripple_adder(bits),
                FaultSpec::All,
                drop,
                format,
            ),
        ));
    }
    let sd = generate(SynthKind::RandomSelfDual, gates, rng.next_u64());
    let all = enumerate_faults(&sd);
    for subset in subsets {
        for (format, tag) in [(text, "text"), (verilog, "verilog")] {
            let pick = rng
                .sample(all.len(), subset)
                .into_iter()
                .map(|k| all[k])
                .collect();
            out.push((
                format!("selfdual{}x{subset}/{tag}", sd.len()),
                pair_spec(sd.clone(), FaultSpec::List(pick), false, format),
            ));
        }
    }
    out
}

/// Starts the service with worker slots equal to the host's parallelism.
fn start_server(workers: usize) -> Result<ServerHandle, String> {
    serve(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        sched: SchedConfig {
            workers,
            max_threads_per_job: 1,
            queue_cap: 1024,
            log_transitions: false,
        },
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))
}

impl ServeMixed {
    pub fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 4);
        let workers = scal_engine::resolved_threads(0);
        let mut jobs = Vec::new();
        let mut d = Digest::default();
        for (name, spec) in specs(&mut rng, scale) {
            let line = spec.to_request_line();
            d.bytes(line.as_bytes());
            // Reference: the same request line parsed and run in process.
            let parsed = match Request::parse(&line) {
                Ok(Request::Submit(s)) => s,
                Ok(_) => return Err(format!("{name}: request is not a submit")),
                Err(e) => return Err(format!("{name}: {e}")),
            };
            let out = run_job(
                &parsed.kind,
                parsed.threads,
                parsed.fault_collapse,
                &NullObserver,
                None,
            )
            .map_err(|e| format!("{name}: in-process reference: {e}"))?;
            let netlist = match &spec.kind {
                JobKind::Pair { circuit, .. } => Some(circuit.write_string(spec.netlist_format)),
                JobKind::Seq { machine, .. } => {
                    Some(machine.circuit.write_string(spec.netlist_format))
                }
                JobKind::Cpu { .. } => None,
            };
            jobs.push(JobDef {
                name,
                expected: format!(
                    "\"report\":{},\"coverage\":{}",
                    out.report,
                    out.coverage.to_json()
                ),
                faults: out.coverage.records.len() as u64,
                line,
                format: spec.netlist_format,
                netlist,
                spec,
            });
        }
        let server = start_server(workers)?;
        Ok(ServeMixed {
            jobs,
            server: Some(server),
            workers,
            seed,
            inputs: d.finish(),
        })
    }

    pub fn inputs_digest(&self) -> u64 {
        self.inputs
    }

    pub fn shutdown(&mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown_and_join();
        }
    }

    fn addr(&self) -> String {
        self.server
            .as_ref()
            .map(|s| s.addr().to_string())
            .unwrap_or_default()
    }

    /// The seeded job order: whole rounds, each a permutation of every
    /// distinct job, so the mix is exact for any run length.
    pub fn schedule(&self, window: u64, jobs: usize) -> Vec<usize> {
        let mut rng = Rng::new(self.seed, 40 + window);
        let n = self.jobs.len();
        let mut out = Vec::with_capacity(jobs);
        while out.len() < jobs {
            let mut round: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                round.swap(i, rng.range(0, i as u64 + 1) as usize);
            }
            out.extend(round);
        }
        out
    }

    /// Sends every distinct job once, one at a time (untimed warm-up).
    pub fn warm_up(&self) -> Vec<JobRec> {
        let addr = self.addr();
        let t0 = Instant::now();
        (0..self.jobs.len())
            .map(|k| submit(&addr, &self.jobs[k].line, k, t0, 0.0))
            .collect()
    }

    /// Runs the open loop: job `i` of `schedule` is due at `i / rate`
    /// seconds. `workers` client threads take jobs in order; the protocol
    /// carries one request per connection, so each job opens its own and at
    /// most `workers` are open at once.
    pub fn open_loop(
        &self,
        schedule: &[usize],
        tracer: Option<&Tracer>,
        next_op: u64,
    ) -> (Vec<JobRec>, f64) {
        let addr = self.addr();
        let gap = 1.0 / RATE;
        let next = AtomicUsize::new(0);
        let recs: Mutex<Vec<JobRec>> = Mutex::new(Vec::with_capacity(schedule.len()));
        let t0 = Instant::now() + Duration::from_millis(20);
        let origin = tracer.map_or(0.0, |t| t.secs(t0));
        std::thread::scope(|s| {
            for _ in 0..self.workers.max(1) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= schedule.len() {
                        break;
                    }
                    let due = i as f64 * gap;
                    let due_at = t0 + Duration::from_secs_f64(due);
                    let now = Instant::now();
                    if due_at > now {
                        std::thread::sleep(due_at - now);
                    }
                    let k = schedule[i];
                    let rec = submit(&addr, &self.jobs[k].line, k, t0, due);
                    if let Some(t) = tracer {
                        let op = next_op + i as u64;
                        let root =
                            t.record_secs(op, None, "op", origin + rec.due, origin + rec.done);
                        t.record_secs(
                            op,
                            Some(root),
                            "serve.submit_accept",
                            origin + rec.sent,
                            origin + rec.accepted,
                        );
                        t.record_secs(
                            op,
                            Some(root),
                            "serve.result_wait",
                            origin + rec.accepted,
                            origin + rec.done,
                        );
                    }
                    recs.lock().expect("job records lock").push(rec);
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        let mut recs = recs.into_inner().expect("job records lock");
        recs.sort_by(|a, b| a.due.total_cmp(&b.due));
        (recs, wall)
    }

    /// What is wrong with a job's outcome, checked against the in-process
    /// reference; `None` for a correct result frame.
    pub fn problem(&self, r: &JobRec) -> Option<String> {
        let def = &self.jobs[r.def];
        if let Some(e) = &r.error {
            Some(format!("{}: {e}", def.name))
        } else if r.refused {
            Some(format!("{}: refused: {}", def.name, r.line))
        } else if !r.line.contains(&def.expected) {
            Some(format!(
                "{}: result frame differs from the in-process campaign",
                def.name
            ))
        } else {
            None
        }
    }

    /// Every problem of a window's jobs.
    pub fn verify(&self, recs: &[JobRec]) -> Vec<String> {
        recs.iter().filter_map(|r| self.problem(r)).collect()
    }

    /// Oracle checks in the common shape: one per distinct job of the
    /// warm-up, result-frame digest against the reference digest.
    pub fn checks(&self, warm: &[JobRec]) -> Vec<Check> {
        warm.iter()
            .map(|r| {
                let def = &self.jobs[r.def];
                let frame = extract(&r.line, &def.expected);
                Check {
                    what: format!("serve {} vs in-process campaign", def.name),
                    fast: Digest::default().bytes(frame.as_bytes()).finish(),
                    oracle: Digest::default().bytes(def.expected.as_bytes()).finish(),
                }
            })
            .collect()
    }

    /// Direct timings of request encode/decode and netlist parse, averaged
    /// over the job mix (each distinct job is equally frequent).
    pub fn probe(&self, layers: &mut Layers) {
        let n = self.jobs.len() as f64;
        for def in &self.jobs {
            layers.probe_add(
                "serve.encode_s",
                time_median(5, || {
                    std::hint::black_box(def.spec.to_request_line());
                }) / n,
            );
            layers.probe_add(
                "serve.decode_s",
                time_median(5, || {
                    let _ = std::hint::black_box(Request::parse(&def.line));
                }) / n,
            );
            if let Some(text) = &def.netlist {
                layers.probe_add(
                    "netlist.parse_s",
                    time_median(5, || {
                        let _ = std::hint::black_box(Circuit::read(text, def.format));
                    }) / n,
                );
            }
        }
    }
}

impl Drop for ServeMixed {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The part of `line` that should equal `expected`: the text starting at
/// the report field, as long as `expected`.
fn extract<'a>(line: &'a str, expected: &str) -> &'a str {
    line.find("\"report\":")
        .map_or("", |at| &line[at..(at + expected.len()).min(line.len())])
}

/// Submits one request line and reads its frames up to the terminal one.
fn submit(addr: &str, line: &str, def: usize, t0: Instant, due: f64) -> JobRec {
    let secs = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
    let mut rec = JobRec {
        def,
        due,
        sent: secs(Instant::now()),
        ..JobRec::default()
    };
    let result = (|| -> std::io::Result<()> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()?;
        let mut reader = BufReader::new(stream);
        let mut frame = String::new();
        loop {
            frame.clear();
            if reader.read_line(&mut frame)? == 0 {
                rec.error = Some("connection closed before a terminal frame".to_owned());
                return Ok(());
            }
            let now = secs(Instant::now());
            if frame.starts_with("{\"frame\":\"accepted\"") {
                rec.accepted = now;
            } else if frame.starts_with("{\"frame\":\"result\"") {
                rec.done = now;
                rec.line = frame.trim_end().to_owned();
                return Ok(());
            } else if frame.starts_with("{\"frame\":\"error\"") {
                rec.done = now;
                rec.refused = true;
                rec.line = frame.trim_end().to_owned();
                return Ok(());
            }
        }
    })();
    if let Err(e) = result {
        rec.error = Some(format!("socket: {e}"));
        rec.done = secs(Instant::now());
    }
    if rec.accepted == 0.0 {
        rec.accepted = rec.done;
    }
    rec
}
