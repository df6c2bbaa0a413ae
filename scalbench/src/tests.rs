//! Self-tests: every workload runs at a tiny size and emits every metric, a
//! corrupted oracle digest is caught, and seeds reproduce (or change) the
//! inputs and verdict digests.

use super::*;

fn args(workload: &str, seed: u64, trace: bool) -> Args {
    Args {
        workload: workload.to_owned(),
        seed,
        seconds: 0.2,
        trace,
        ablate: false,
        scale: Scale::Tiny,
        trace_dir: PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/target/selftest-traces"
        )),
    }
}

fn names(r: &Report) -> Vec<&'static str> {
    r.metrics.iter().map(|m| m.0).collect()
}

#[test]
fn every_workload_emits_every_metric_at_tiny_size() {
    for w in WORKLOADS {
        let r = run(&args(w, 3, false)).unwrap_or_else(|e| panic!("{w}: {e}"));
        assert!(r.correct(), "{w}: {:?}", r.errors);
        assert_eq!(
            names(&r),
            END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>(),
            "{w}"
        );
        for &(name, value, _) in &r.metrics {
            assert!(value.is_finite() && value > 0.0, "{w}: {name} = {value}");
        }
        let t = run(&args(w, 3, true)).unwrap_or_else(|e| panic!("{w} traced: {e}"));
        assert!(t.correct(), "{w} traced: {:?}", t.errors);
        assert_eq!(
            names(&t),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>(),
            "{w}"
        );
        assert!(t.metrics.iter().all(|m| m.1.is_finite()), "{w}");
    }
}

#[test]
fn corrupted_oracle_digest_is_caught() {
    let a = args("small_batch", 5, false);
    let Prepared {
        workload: w,
        mut expects,
        ..
    } = setup_closed(&a).expect("set-up");
    let refs = warm_up(w.as_ref(), Knob::Default).expect("warm-up");
    assert!(checks(&expects, &refs).iter().all(Check::ok));
    expects[0].oracle ^= 1;
    let mut r = Report::default();
    r.apply_checks(&checks(&expects, &refs));
    assert_eq!(r.failed, 1);
    assert!(!r.correct());
    assert!(r.errors[0].contains("oracle mismatch"));
}

#[test]
fn same_seed_reproduces_inputs_and_digests_and_another_seed_changes_inputs() {
    for w in WORKLOADS {
        let a = run(&args(w, 11, false)).expect("first run");
        let b = run(&args(w, 11, false)).expect("second run");
        assert_eq!(a.inputs, b.inputs, "{w}: inputs");
        assert_eq!(a.digests, b.digests, "{w}: verdict digests");
        let c = run(&args(w, 12, false)).expect("other seed");
        assert_ne!(a.inputs, c.inputs, "{w}: a new seed must change the inputs");
    }
}

#[test]
fn cli_rejects_bad_arguments() {
    let v = |s: &[&str]| s.iter().map(|x| (*x).to_owned()).collect::<Vec<_>>();
    assert!(parse_args(&v(&["--workload", "nope"])).is_err());
    assert!(parse_args(&v(&["--workload", "small_batch", "--trace", "2"])).is_err());
    assert!(parse_args(&v(&["--workload", "small_batch", "--seconds", "0"])).is_err());
    let a = parse_args(&v(&[
        "--workload",
        "small_batch",
        "--seed",
        "9",
        "--seconds",
        "3",
        "--trace",
        "1",
    ]))
    .expect("valid");
    assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, true));
}
