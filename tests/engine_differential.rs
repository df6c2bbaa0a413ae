//! Engine-vs-scalar differential coverage: the compiled `scal-engine`
//! campaign must be bit-identical — same pairs, same order, same flags — to
//! the original graph-walking scalar campaign on every canonical circuit of
//! the reproduction, and on randomly generated alternating networks.
//! Cone-restricted evaluation (`EvalMode::Cone`) is held to the same bar
//! against full evaluation, across thread counts, fault dropping, the
//! streaming golden fallback, and cancellation. The packed sequential
//! backend is held to the graph-walking oracle, and the lock-step CPU
//! campaign to a plain loop of interpreted CPU runs. CI reruns the suite under
//! each `SCAL_EVAL_MODE` × `SCAL_WORD_WIDTH` × `SCAL_FAULT_COLLAPSE` cell;
//! the variables are read here, at the test edge, and passed to every
//! engine-side campaign that would otherwise run at its default.

use proptest::prelude::*;
use scal::core::{dualize_synthesized, paper};
use scal::engine::{CompiledCircuit, CompiledSim, EvalMode};
use scal::faults::{enumerate_faults, Campaign};
use scal::netlist::{Circuit, Sim};

fn all_paper_circuits() -> Vec<(&'static str, Circuit)> {
    vec![
        ("self_dual_adder", paper::self_dual_adder()),
        ("ripple_adder_2", paper::ripple_adder(2)),
        ("fig3_4", paper::fig3_4().circuit),
        ("fig3_7", paper::fig3_7().circuit),
        ("fig3_1_example", paper::fig3_1_example().0),
        ("kohavi", scal::seq::kohavi::kohavi_circuit()),
        ("reynolds", scal::seq::kohavi::reynolds_circuit().circuit),
        (
            "translator",
            scal::seq::kohavi::translator_circuit().circuit,
        ),
        ("alpt_4", scal::seq::alpt(4)),
        ("palt_4", scal::seq::palt(4)),
        ("checker_8", scal::checkers::two_rail::reynolds_checker(8)),
        ("minority_direct", scal::minority::fig6_2_example().direct),
    ]
}

fn is_alternating(c: &Circuit) -> bool {
    c.output_tts().iter().all(scal::logic::Tt::is_self_dual)
}

/// Eval mode for the engine side of the engine-vs-scalar differentials.
/// CI sets `SCAL_EVAL_MODE=full|cone` to run the suite once per mode;
/// unset runs the default (cone).
fn mode_under_test() -> EvalMode {
    match std::env::var("SCAL_EVAL_MODE") {
        Ok(s) => s.parse().expect("SCAL_EVAL_MODE must be full|cone"),
        Err(_) => EvalMode::default(),
    }
}

/// Word width for the engine-side campaigns of the differentials. CI sets
/// `SCAL_WORD_WIDTH=1|4|8` to run the suite once per width; unset runs the
/// default (`0`, CPU-feature detection).
fn width_under_test() -> usize {
    match std::env::var("SCAL_WORD_WIDTH") {
        Ok(s) => s.trim().parse().expect("SCAL_WORD_WIDTH must be 1|4|8"),
        Err(_) => 0,
    }
}

/// Fault collapsing for the engine-side campaigns of the differentials. CI
/// sets `SCAL_FAULT_COLLAPSE=0|1` to run the suite once per setting; unset
/// runs the default (on).
fn collapse_under_test() -> bool {
    match std::env::var("SCAL_FAULT_COLLAPSE") {
        Ok(s) => match s.trim().to_ascii_lowercase().as_str() {
            "1" | "on" | "true" => true,
            "0" | "off" | "false" => false,
            other => panic!("SCAL_FAULT_COLLAPSE must be 0|1, got {other:?}"),
        },
        Err(_) => true,
    }
}

/// Every combinational alternating paper circuit: full collapsed fault
/// universe through both campaigns, results compared including ordering.
#[test]
fn engine_campaign_matches_scalar_on_paper_circuits() {
    let mut checked = 0;
    for (name, c) in all_paper_circuits() {
        if c.is_sequential() || c.inputs().len() > 12 || !is_alternating(&c) {
            continue;
        }
        let faults = enumerate_faults(&c);
        let engine = Campaign::new(&c)
            .faults(faults.clone())
            .eval_mode(mode_under_test())
            .word_width(width_under_test())
            .fault_collapse(collapse_under_test())
            .run()
            .expect("engine campaign")
            .results;
        let scalar = Campaign::new(&c)
            .faults(faults)
            .scalar()
            .run()
            .expect("scalar campaign")
            .results;
        assert_eq!(engine.len(), scalar.len(), "{name}: result count");
        for (e, s) in engine.iter().zip(&scalar) {
            assert_eq!(e, s, "{name}: fault {:?}", e.fault);
        }
        checked += 1;
    }
    assert!(
        checked >= 4,
        "too few campaign-eligible circuits: {checked}"
    );
}

/// Attaching an observer must not perturb a campaign: the observed run's
/// results are bit-identical to the unobserved run's on every eligible
/// circuit, and events actually flow.
#[test]
fn observed_campaign_is_bit_identical_to_unobserved() {
    use scal::obs::CollectObserver;
    for (name, c) in all_paper_circuits() {
        if c.is_sequential() || c.inputs().len() > 12 || !is_alternating(&c) {
            continue;
        }
        let faults = enumerate_faults(&c);
        let bare = Campaign::new(&c)
            .faults(faults.clone())
            .eval_mode(mode_under_test())
            .word_width(width_under_test())
            .fault_collapse(collapse_under_test())
            .run()
            .expect("campaign")
            .results;
        let collect = CollectObserver::default();
        let observed = Campaign::new(&c)
            .faults(faults)
            .eval_mode(mode_under_test())
            .word_width(width_under_test())
            .fault_collapse(collapse_under_test())
            .observer(&collect)
            .run()
            .expect("campaign");
        assert_eq!(bare, observed.results, "{name}: observer changed results");
        assert!(!collect.events().is_empty(), "{name}: no events flowed");
    }
}

/// Sequential (and non-alternating) paper circuits: the compiled simulator
/// must track the graph simulator step-for-step under every collapsed fault.
#[test]
fn compiled_sim_matches_graph_sim_on_paper_circuits() {
    for (name, c) in all_paper_circuits() {
        let n = c.inputs().len();
        if n > 12 {
            continue;
        }
        let compiled = CompiledCircuit::compile(&c);
        let drive: Vec<Vec<bool>> = (0..16u32)
            .map(|step| {
                (0..n)
                    .map(|i| (step.wrapping_mul(5).wrapping_add(i as u32 * 3)) % 4 < 2)
                    .collect()
            })
            .collect();
        for fault in enumerate_faults(&c) {
            let mut fast = CompiledSim::new(&compiled);
            fast.attach(&[fault.to_override()]);
            let mut slow = Sim::new(&c);
            slow.attach(fault.to_override());
            for (step, ins) in drive.iter().enumerate() {
                assert_eq!(
                    fast.step(ins),
                    slow.step(ins),
                    "{name}: fault {fault:?} step {step}"
                );
            }
        }
    }
}

/// Cone-restricted evaluation is a pure optimisation: on every
/// campaign-eligible paper circuit it is bit-identical to full evaluation
/// across thread counts and fault dropping, including the streaming
/// fallback when the golden slot cache cannot fit.
#[test]
fn cone_eval_matches_full_on_paper_circuits() {
    use scal::engine::EngineConfig;
    let mut checked = 0;
    for (name, c) in all_paper_circuits() {
        if c.is_sequential() || c.inputs().len() > 12 || !is_alternating(&c) {
            continue;
        }
        let faults = enumerate_faults(&c);
        for threads in [1, 2, 4] {
            for drop in [false, true] {
                let full = Campaign::new(&c)
                    .faults(faults.clone())
                    .threads(threads)
                    .drop_after_detection(drop)
                    .eval_mode(EvalMode::Full)
                    .word_width(width_under_test())
                    .fault_collapse(collapse_under_test())
                    .run()
                    .expect("full campaign")
                    .results;
                let cone = Campaign::new(&c)
                    .faults(faults.clone())
                    .threads(threads)
                    .drop_after_detection(drop)
                    .word_width(width_under_test())
                    .fault_collapse(collapse_under_test())
                    .run()
                    .expect("cone campaign")
                    .results;
                assert_eq!(full, cone, "{name}: threads {threads}, drop {drop}");
            }
        }
        // A 1-byte cache budget cannot hold any batch, forcing per-batch
        // golden streaming — still bit-identical to full evaluation.
        let config = EngineConfig::builder()
            .threads(1)
            .golden_cache_bytes(1)
            .word_width(width_under_test())
            .fault_collapse(collapse_under_test())
            .build()
            .expect("valid config");
        let streamed = Campaign::new(&c)
            .faults(faults.clone())
            .config(config)
            .run()
            .expect("streaming cone campaign")
            .results;
        let full = Campaign::new(&c)
            .faults(faults)
            .threads(1)
            .eval_mode(EvalMode::Full)
            .word_width(width_under_test())
            .fault_collapse(collapse_under_test())
            .run()
            .expect("full campaign")
            .results;
        assert_eq!(full, streamed, "{name}: streaming fallback");
        checked += 1;
    }
    assert!(
        checked >= 4,
        "too few campaign-eligible circuits: {checked}"
    );
}

/// Wide evaluation words are a pure optimisation: every width is
/// bit-identical to the scalar `u64` path on every campaign-eligible paper
/// circuit, across thread counts, fault dropping, and the eval mode under
/// test — results, aggregate pair counts, and drop totals alike.
#[test]
fn wide_word_widths_match_scalar_on_paper_circuits() {
    let mut checked = 0;
    for (name, c) in all_paper_circuits() {
        if c.is_sequential() || c.inputs().len() > 12 || !is_alternating(&c) {
            continue;
        }
        let faults = enumerate_faults(&c);
        for threads in [1, 4] {
            for drop in [false, true] {
                let scalar = Campaign::new(&c)
                    .faults(faults.clone())
                    .threads(threads)
                    .drop_after_detection(drop)
                    .eval_mode(mode_under_test())
                    .word_width(1)
                    .fault_collapse(collapse_under_test())
                    .run()
                    .expect("scalar-width campaign");
                for width in [4usize, 8] {
                    let wide = Campaign::new(&c)
                        .faults(faults.clone())
                        .threads(threads)
                        .drop_after_detection(drop)
                        .eval_mode(mode_under_test())
                        .word_width(width)
                        .fault_collapse(collapse_under_test())
                        .run()
                        .expect("wide campaign");
                    assert_eq!(
                        scalar.results, wide.results,
                        "{name}: W={width}, threads {threads}, drop {drop}"
                    );
                    assert_eq!(
                        scalar.stats.pairs_evaluated, wide.stats.pairs_evaluated,
                        "{name}: W={width} pair accounting"
                    );
                    assert_eq!(
                        scalar.stats.faults_dropped, wide.stats.faults_dropped,
                        "{name}: W={width} drop accounting"
                    );
                }
            }
        }
        checked += 1;
    }
    assert!(
        checked >= 4,
        "too few campaign-eligible circuits: {checked}"
    );
}

/// Fault-per-lane packing on pair campaigns (the 2-D configuration) is
/// bit-identical to the unpacked path at every width, with and without
/// fault dropping, pair accounting included.
#[test]
fn fault_packed_campaign_matches_unpacked_on_paper_circuits() {
    let mut checked = 0;
    for (name, c) in all_paper_circuits() {
        if c.is_sequential() || c.inputs().len() > 12 || !is_alternating(&c) {
            continue;
        }
        let faults = enumerate_faults(&c);
        for drop in [false, true] {
            let plain = Campaign::new(&c)
                .faults(faults.clone())
                .threads(1)
                .drop_after_detection(drop)
                .word_width(1)
                .fault_collapse(collapse_under_test())
                .run()
                .expect("unpacked campaign");
            for width in [1usize, 8] {
                let packed = Campaign::new(&c)
                    .faults(faults.clone())
                    .threads(1)
                    .drop_after_detection(drop)
                    .word_width(width)
                    .fault_packing(true)
                    .fault_collapse(collapse_under_test())
                    .run()
                    .expect("fault-packed campaign");
                assert_eq!(
                    plain.results, packed.results,
                    "{name}: packed W={width}, drop {drop}"
                );
                assert_eq!(
                    plain.stats.pairs_evaluated, packed.stats.pairs_evaluated,
                    "{name}: packed W={width} pair accounting"
                );
                assert_eq!(
                    plain.stats.faults_dropped, packed.stats.faults_dropped,
                    "{name}: packed W={width} drop accounting"
                );
            }
        }
        checked += 1;
    }
    assert!(
        checked >= 4,
        "too few campaign-eligible circuits: {checked}"
    );
}

/// A cancelled fault-packed campaign returns a whole-chunk fault-ordered
/// prefix that is bit-identical to the same prefix of an uncancelled
/// unpacked run.
#[test]
fn cancelled_fault_packed_prefix_matches_unpacked_run() {
    use scal::obs::{CampaignEvent, CampaignObserver, CancelToken};
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
    let c = paper::ripple_adder(4);
    let faults = enumerate_faults(&c);
    assert!(faults.len() > 63, "want multiple chunks: {}", faults.len());
    let full = Campaign::new(&c)
        .faults(faults.clone())
        .threads(1)
        .word_width(1)
        .fault_collapse(collapse_under_test())
        .run()
        .expect("unpacked campaign")
        .results;
    let token = CancelToken::new();
    let observer = CancelAfter {
        token: &token,
        after: 1,
    };
    // Collapsing is pinned off: the chunk-granularity assertion below
    // counts original faults, which under collapsing no longer arrive in
    // 63-fault chunks (representative chunks expand to ragged prefixes).
    let partial = Campaign::new(&c)
        .faults(faults)
        .threads(1)
        .word_width(width_under_test())
        .fault_packing(true)
        .fault_collapse(false)
        .observer(&observer)
        .cancel(&token)
        .run()
        .expect("cancelled fault-packed campaign");
    assert!(partial.cancelled, "token must cancel the run");
    let k = partial.results.len();
    assert!(k > 0 && k < full.len(), "must stop early ({k})");
    assert_eq!(k % 63, 0, "fault-packed cancellation is chunk-granular");
    assert_eq!(
        partial.results[..],
        full[..k],
        "packed prefix must match the unpacked run"
    );
}

/// The Chapter-4 sequential machines and the 4-bit up/down counter under
/// both SCAL conversions.
fn seq_differential_machines() -> Vec<scal::seq::ScalMachine> {
    let m = scal::seq::kohavi::kohavi_0101();
    let counter = scal::seq::counters::up_down_counter(4);
    vec![
        scal::seq::dual_ff_machine(&m),
        scal::seq::code_conversion_machine(&m),
        scal::seq::dual_ff_machine(&counter),
        scal::seq::code_conversion_machine(&counter),
    ]
}

/// A driven word sequence of `width`-bit words exercising every machine.
fn seq_drive(width: usize) -> Vec<Vec<bool>> {
    (0..14u32)
        .map(|step| {
            (0..width)
                .map(|i| (step.wrapping_mul(7).wrapping_add(i as u32 * 5)) % 4 < 2)
                .collect()
        })
        .collect()
}

/// The packed fault-per-lane backend is bit-identical to the per-fault
/// scalar oracle — the graph-walking [`SeqBackend::Graph`] driver —
/// outcomes, `first_detected` words, and coverage maps — on every
/// sequential design, across thread counts.
///
/// [`SeqBackend::Graph`]: scal::seq::SeqBackend::Graph
#[test]
fn seq_packed_matches_scalar_backend() {
    use scal::obs::CoverageObserver;
    use scal::seq::SeqBackend;
    for machine in seq_differential_machines() {
        let words = seq_drive(machine.circuit.inputs().len() - 1);
        for threads in [1, 2, 4] {
            let packed_cov = CoverageObserver::new();
            let packed = scal::seq::Campaign::new(&machine, &words)
                .threads(threads)
                .word_width(width_under_test())
                .fault_collapse(collapse_under_test())
                .coverage(&packed_cov)
                .run()
                .expect("packed seq campaign");
            let scalar_cov = CoverageObserver::new();
            let scalar = scal::seq::Campaign::new(&machine, &words)
                .threads(threads)
                .backend(SeqBackend::Graph)
                .coverage(&scalar_cov)
                .run()
                .expect("graph seq campaign");
            assert_eq!(packed, scalar, "{}: threads {threads}", machine.design);
            for ((p, s), (fault, _)) in packed_cov
                .latest()
                .expect("packed map")
                .records
                .iter()
                .zip(&scalar_cov.latest().expect("graph map").records)
                .zip(&packed.outcomes)
            {
                assert_eq!(p.first_detected, s.first_detected, "{fault:?}");
                assert_eq!(p.detected, s.detected, "{fault:?}");
                assert_eq!(p.violations, s.violations, "{fault:?}");
                assert_eq!(p.observable, s.observable, "{fault:?}");
                assert_eq!(p.pairs, s.pairs, "{fault:?}");
                assert_eq!(p.label, s.label, "{fault:?}");
            }
        }
    }
}

/// A cancelled packed campaign's fault-ordered prefix is bit-identical to
/// the same prefix of an uncancelled run of the per-fault graph oracle;
/// packed cancellation lands on a whole-batch boundary.
#[test]
fn cancelled_packed_seq_prefix_matches_scalar_run() {
    use scal::obs::{CampaignEvent, CampaignObserver, CancelToken};
    use scal::seq::SeqBackend;
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
    let m = scal::seq::kohavi::kohavi_0101();
    let machine = scal::seq::code_conversion_machine(&m);
    let words = seq_drive(machine.circuit.inputs().len() - 1);
    let total = machine.checkable_faults().len();
    assert!(total > 63, "want multiple packed batches, got {total}");
    let full = scal::seq::Campaign::new(&machine, &words)
        .threads(1)
        .backend(SeqBackend::Graph)
        .run()
        .expect("graph seq campaign");
    let token = CancelToken::new();
    let observer = CancelAfter {
        token: &token,
        after: 1,
    };
    // Width 1 pins the 63-fault batch geometry the boundary assertion
    // below relies on; wider words pack whole batches into one word.
    // Collapsing is pinned off: the boundary assertion counts original
    // faults, which under collapsing no longer arrive in 63-fault batches.
    let partial = scal::seq::Campaign::new(&machine, &words)
        .threads(1)
        .word_width(1)
        .fault_collapse(false)
        .observer(&observer)
        .cancel(&token)
        .run()
        .expect("cancelled packed campaign");
    assert!(partial.cancelled, "token must cancel the run");
    let k = partial.outcomes.len();
    assert!(k > 0 && k < total, "cancellation must stop early ({k})");
    assert_eq!(k % 63, 0, "packed cancellation lands on a batch boundary");
    assert_eq!(
        partial.outcomes[..],
        full.outcomes[..k],
        "packed prefix must match the graph-oracle run"
    );
}

/// A cancelled cone campaign's fault-ordered prefix is bit-identical to the
/// same prefix of an uncancelled *full*-mode run — cancellation and eval
/// mode compose without perturbing results.
#[test]
fn cancelled_cone_prefix_matches_full_run() {
    use scal::obs::{CampaignEvent, CampaignObserver, CancelToken};
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
    let c = paper::ripple_adder(4);
    let faults = enumerate_faults(&c);
    let full = Campaign::new(&c)
        .faults(faults.clone())
        .drop_after_detection(true)
        .eval_mode(EvalMode::Full)
        .word_width(width_under_test())
        .fault_collapse(collapse_under_test())
        .run()
        .expect("full campaign")
        .results;
    let token = CancelToken::new();
    let observer = CancelAfter {
        token: &token,
        after: 5,
    };
    let partial = Campaign::new(&c)
        .faults(faults)
        .drop_after_detection(true)
        .word_width(width_under_test())
        .fault_collapse(collapse_under_test())
        .observer(&observer)
        .cancel(&token)
        .run()
        .expect("cancelled cone campaign");
    assert!(partial.cancelled, "token must cancel the run");
    let k = partial.results.len();
    assert!(k < full.len(), "cancellation must stop early ({k})");
    assert_eq!(
        partial.results[..],
        full[..k],
        "cone prefix must match the full-mode run"
    );
}

/// Builds a random combinational circuit from a gate recipe, then makes it
/// alternating via the paper's synthesized self-dual extension.
fn random_alternating(n_inputs: usize, recipe: &[(u8, u8, u8)]) -> Circuit {
    let mut c = Circuit::new();
    let mut nodes = Vec::new();
    for i in 0..n_inputs {
        nodes.push(c.input(format!("x{i}")));
    }
    for &(kind, a, b) in recipe {
        let fa = nodes[a as usize % nodes.len()];
        let fb = nodes[b as usize % nodes.len()];
        let g = match kind % 6 {
            0 => c.and(&[fa, fb]),
            1 => c.or(&[fa, fb]),
            2 => c.nand(&[fa, fb]),
            3 => c.nor(&[fa, fb]),
            4 => c.xor(&[fa, fb]),
            _ => c.not(fa),
        };
        nodes.push(g);
    }
    c.mark_output("f", *nodes.last().expect("at least one node"));
    dualize_synthesized(&c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random alternating networks: engine and scalar campaigns agree on the
    /// full collapsed fault universe, ordering included.
    #[test]
    fn engine_campaign_matches_scalar_on_random_circuits(
        n_inputs in 2usize..4,
        recipe in proptest::collection::vec((0u8..6, 0u8..8, 0u8..8), 1..6),
    ) {
        let alt = random_alternating(n_inputs, &recipe);
        let faults = enumerate_faults(&alt);
        let engine = Campaign::new(&alt)
            .faults(faults.clone())
            .eval_mode(mode_under_test())
            .word_width(width_under_test())
            .fault_collapse(collapse_under_test())
            .run()
            .expect("engine campaign")
            .results;
        let scalar = Campaign::new(&alt)
            .faults(faults)
            .scalar()
            .run()
            .expect("scalar campaign")
            .results;
        prop_assert_eq!(engine, scalar);
    }

    /// Random sequential circuits (no alternation requirement): compiled and
    /// graph simulators agree fault-free and under a stem fault.
    #[test]
    fn compiled_sim_matches_graph_sim_on_random_sequential(
        n_inputs in 1usize..3,
        n_dffs in 1usize..3,
        recipe in proptest::collection::vec((0u8..6, 0u8..8, 0u8..8), 1..6),
        drive in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 2), 4..10),
    ) {
        let mut c = Circuit::new();
        let mut nodes = Vec::new();
        for i in 0..n_inputs {
            nodes.push(c.input(format!("x{i}")));
        }
        let dffs: Vec<_> = (0..n_dffs).map(|i| c.dff(i % 2 == 0)).collect();
        nodes.extend(&dffs);
        for &(kind, a, b) in &recipe {
            let fa = nodes[a as usize % nodes.len()];
            let fb = nodes[b as usize % nodes.len()];
            let g = match kind % 6 {
                0 => c.and(&[fa, fb]),
                1 => c.or(&[fa, fb]),
                2 => c.nand(&[fa, fb]),
                3 => c.nor(&[fa, fb]),
                4 => c.xor(&[fa, fb]),
                _ => c.not(fa),
            };
            nodes.push(g);
        }
        let last = *nodes.last().expect("nodes");
        for (i, &q) in dffs.iter().enumerate() {
            c.connect_dff(q, if i == 0 { last } else { nodes[i % nodes.len()] });
        }
        c.mark_output("f", last);
        prop_assume!(c.validate().is_ok());

        let compiled = CompiledCircuit::compile(&c);
        for overrides in [vec![], vec![scal::netlist::Override {
            site: scal::netlist::Site::Stem(last),
            value: true,
        }]] {
            let mut fast = CompiledSim::new(&compiled);
            fast.attach(&overrides);
            let mut slow = Sim::new(&c);
            for ov in &overrides {
                slow.attach(*ov);
            }
            for ins in &drive {
                let w = &ins[..n_inputs];
                prop_assert_eq!(fast.step(w), slow.step(w));
            }
        }
    }
}

/// The default workloads plus two seeded popcount / checksum / multiply /
/// fibonacci suites, with expected results computed from the arithmetic.
fn cpu_suites() -> Vec<Vec<scal::system::Workload>> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use scal::system::programs::{self, ARG0, ARG1};
    use scal::system::Workload;
    let mut suites = vec![scal::system::campaign::default_workloads()];
    for seed in [3u64, 11] {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = rng.gen_range(0u8..255);
        let block: Vec<u8> = (0..4).map(|_| rng.gen_range(0u8..255)).collect();
        let (a, b) = (rng.gen_range(0u8..255), rng.gen_range(2u8..5));
        let n = rng.gen_range(3u8..7);
        let fib = (0..n)
            .fold((0u8, 1u8), |(p, q), _| (q, p.wrapping_add(q)))
            .0;
        suites.push(vec![
            Workload {
                name: "popcount",
                program: programs::popcount(),
                setup: vec![(ARG0, x)],
                expect: x.count_ones() as u8,
            },
            Workload {
                name: "checksum",
                program: programs::checksum(),
                setup: (0u8..4).map(|k| (0x60 + k, block[k as usize])).collect(),
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
                expect: fib,
            },
        ]);
    }
    suites
}

/// One fault's outcome under the interpreted oracle, with the periods its
/// runs took and the first workload that detected it.
struct CpuOracle {
    result: scal::system::CpuFaultResult,
    periods: u64,
    first_detected: Option<u32>,
}

/// Every fault × workload on a fresh interpreted CPU: a plain loop of
/// `Cpu::run` that uses no engine code.
fn cpu_oracle(unit: scal::system::CpuUnit, suite: &[scal::system::Workload]) -> Vec<CpuOracle> {
    use scal::system::{programs::RESULT, Cpu, CpuFaultResult, CpuMode, CpuUnit, Datapath};
    let datapath = Datapath::new();
    let circuit = match unit {
        CpuUnit::Adder => &datapath.adder,
        CpuUnit::Logic => &datapath.logic,
    };
    enumerate_faults(circuit)
        .into_iter()
        .map(|fault| {
            let mut o = CpuOracle {
                result: CpuFaultResult {
                    fault,
                    detected: 0,
                    dormant: 0,
                    undetected_wrong: 0,
                },
                periods: 0,
                first_detected: None,
            };
            for (i, w) in suite.iter().enumerate() {
                let mut cpu = Cpu::new(CpuMode::Alternating);
                for &(a, v) in &w.setup {
                    cpu.memory.write(a, v);
                }
                match unit {
                    CpuUnit::Adder => cpu.datapath.fault_adder(fault.to_override()),
                    CpuUnit::Logic => cpu.datapath.fault_logic(fault.to_override()),
                }
                match cpu.run(&w.program, 1_000_000) {
                    Err(_) => {
                        o.result.detected += 1;
                        o.first_detected = o.first_detected.or(Some(i as u32));
                    }
                    Ok(_) if cpu.memory.read(RESULT) == Ok(w.expect) => o.result.dormant += 1,
                    Ok(_) => o.result.undetected_wrong += 1,
                }
                o.periods += cpu.stats().periods;
            }
            o
        })
        .collect()
}

#[test]
fn cpu_campaign_matches_interpreted_oracle() {
    use scal::obs::CoverageObserver;
    use scal::system::{campaign::Campaign, CpuUnit};
    let suites = cpu_suites();
    let units = [CpuUnit::Adder, CpuUnit::Logic];
    // The interpreted oracle dominates the test's time: one thread per unit.
    let oracles: Vec<Vec<Vec<CpuOracle>>> = std::thread::scope(|s| {
        let suites = &suites;
        let handles: Vec<_> = units
            .map(|unit| s.spawn(move || suites.iter().map(|w| cpu_oracle(unit, w)).collect()))
            .into_iter()
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (suite_idx, suite) in suites.iter().enumerate() {
        for (unit, oracle) in units.into_iter().zip(&oracles) {
            let oracle = &oracle[suite_idx];
            let expected: Vec<_> = oracle.iter().map(|o| o.result.clone()).collect();
            for collapse in [false, true] {
                let what = format!("{unit:?}, {} workloads, collapse {collapse}", suite.len());
                let cov = CoverageObserver::new();
                let report = Campaign::new(unit)
                    .workloads(suite.clone())
                    .fault_collapse(collapse)
                    .coverage(&cov)
                    .run();
                assert!(!report.cancelled, "{what}");
                assert_eq!(report.results, expected, "{what}");
                let map = cov.latest().expect("coverage map");
                assert_eq!(map.records.len(), oracle.len(), "{what}");
                for (rec, o) in map.records.iter().zip(oracle) {
                    assert_eq!(
                        rec.first_detected, o.first_detected,
                        "{what}: {}",
                        rec.label
                    );
                    assert_eq!(rec.pairs, o.periods / 2, "{what}: {}", rec.label);
                }
                // Only class representatives simulate, so the campaign's
                // periods sum over them alone.
                let periods: u64 = map
                    .records
                    .iter()
                    .zip(oracle)
                    .filter(|(rec, _)| rec.class_rep.map_or(true, |r| r == rec.fault))
                    .map(|(_, o)| o.periods)
                    .sum();
                assert_eq!(report.periods, periods, "{what}");
            }
        }
    }
}
